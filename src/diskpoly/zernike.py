"""Disk polynomial evaluation by several independent routes.

The two-index family treated here is orthogonal on the unit disk for the
radial weight (1 - |z|^2)^gamma, gamma > -1.  Each member is a polynomial
in z and conj(z) of bidegree (n, m).  The routes implemented:

  explicit   direct double-factorial sum (the reference route)
  gauss1     terminating hypergeometric series in 1 - 1/|z|^2
  gauss2     terminating hypergeometric series in 1/|z|^2
  jacobi     radial Jacobi polynomial times an angular monomial
  rodrigues  exact Wirtinger differentiation of the weight
  contour    boundary integral evaluated by the trapezoid rule

They share no intermediate code beyond the Pochhammer symbol, so mutual
agreement is strong evidence that each is implemented correctly.

The explicit route, ``explicit_expr``, ``monomial_coeffs``,
``inner_product`` and ``hermite`` read the coefficients of the explicit
sum from one kernel, cached per (m, n, gamma); none of the other five
routes uses it.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from . import algebra
from .algebra import DiskExpr
from .errors import DomainError, NonConvergentError, ParamMismatchError
from .numerics import _check_count, _check_weight, hyp2f1, jacobi_p, pochhammer

__all__ = [
    "ZernikeParams",
    "eval_explicit",
    "eval_gauss1",
    "eval_gauss2",
    "eval_jacobi",
    "eval_rodrigues",
    "eval_contour",
    "eval_contour_adaptive",
    "eval_route",
    "ROUTES",
    "rodrigues_expr",
    "explicit_expr",
    "value_at_origin",
    "monomial_coeffs",
    "inner_product",
    "norm_squared",
    "hermite",
    "hermite_limit_error",
]

INDEX_CAP = 64


@dataclass(frozen=True)
class ZernikeParams:
    """Index pair and weight exponent for one disk polynomial."""

    m: int
    n: int
    gamma: float

    def __post_init__(self):
        _check_indices(self.m, self.n)
        g = self.gamma
        if not isinstance(g, (int, float)):
            raise DomainError(f"weight exponent must be a real number, got {g!r}")
        _check_weight(g)
        object.__setattr__(self, "gamma", float(g))


def _check_indices(m: int, n: int):
    """Raise DomainError unless m and n are ints in [0, INDEX_CAP]."""
    if not (isinstance(m, int) and isinstance(n, int)):
        raise DomainError("indices must be integers")
    if not (0 <= m <= INDEX_CAP and 0 <= n <= INDEX_CAP):
        raise DomainError(f"indices must lie in [0, {INDEX_CAP}], got ({m}, {n})")


def _check_disk(z: complex, strict: bool = False,
                arrays: bool = False) -> complex | np.ndarray:
    """Coerce z to complex and check it lies in the disk; NaN never does.

    With ``arrays`` set, an ndarray of points of any nonzero rank is
    coerced to a complex array instead and checked at its largest |z|.
    """
    if arrays and isinstance(z, np.ndarray) and z.ndim:
        z = np.asarray(z, complex)
        r2 = float((z.real * z.real + z.imag * z.imag).max(initial=0.0))
    else:
        z = complex(z)
        r2 = z.real * z.real + z.imag * z.imag
    if strict:
        if not r2 < 1.0:
            raise DomainError(f"point must lie strictly inside the disk, |z| = {math.sqrt(r2):g}")
    elif not r2 <= 1.0 + 1e-12:
        raise DomainError(f"point must lie in the closed disk, |z| = {math.sqrt(r2):g}")
    return z


def _signed_counts(m: int, n: int):
    """Yield (j, (-1)^j C(m,j) C(n,j) j!) for j = 0..min(m, n)."""
    for j in range(min(m, n) + 1):
        yield j, (-1) ** j * comb(m, j) * comb(n, j) * factorial(j)


# typed: 0.5 and Fraction(1, 2) are equal keys, and the exact inner
# product must never be served the float entry
@lru_cache(maxsize=256, typed=True)
def _explicit_terms(m: int, n: int, g) -> tuple:
    """Terms (z-power, zbar-power, u-power, coefficient) of the explicit sum.

    Term j has coefficient (-1)^j C(m,j) C(n,j) j! (g+j+1)_{m+n-j} on
    z^(n-j) conj(z)^(m-j) u^j; exact when ``g`` is a Fraction, float
    otherwise.
    """
    return tuple((n - j, m - j, j, c * pochhammer(g + j + 1, m + n - j))
                 for j, c in _signed_counts(m, n))


def eval_explicit(p: ZernikeParams, z: complex | np.ndarray) -> complex | np.ndarray:
    """Reference route: the finite double-index sum.

    Term j carries the integer coefficient C(m,j) C(n,j) j! times a
    Pochhammer factor, which keeps every term well-scaled for indices up
    to the cap.  ``z`` may be a scalar, which gives a Python complex, or
    an ndarray of points, which gives a complex array of the same shape.
    """
    z = _check_disk(z, arrays=True)
    u = 1.0 - (z.real * z.real + z.imag * z.imag)
    zb = z.conjugate()
    acc = 0j
    for a, b, j, c in _explicit_terms(p.m, p.n, p.gamma):
        acc += c * u**j * zb**b * z**a
    return acc


def eval_gauss1(p: ZernikeParams, z: complex) -> complex:
    """Terminating series in 1 - 1/|z|^2; needs |z|^2 != 0."""
    z = _check_disk(z)
    r2 = z.real * z.real + z.imag * z.imag
    if r2 == 0:
        raise DomainError("this route is singular at the origin")
    m, n, g = p.m, p.n, p.gamma
    f = hyp2f1(-float(m), -float(n), g + 1.0, 1.0 - 1.0 / r2)
    return pochhammer(g + 1, m + n) * z.conjugate() ** m * z**n * f


def eval_gauss2(p: ZernikeParams, z: complex) -> complex:
    """Terminating series in 1/|z|^2; needs |z|^2 != 0."""
    z = _check_disk(z)
    r2 = z.real * z.real + z.imag * z.imag
    if r2 == 0:
        raise DomainError("this route is singular at the origin")
    m, n, g = p.m, p.n, p.gamma
    f = hyp2f1(-float(m), -float(n), -(g + m + n), 1.0 / r2)
    # (g+1)_{m+n}^2 / ((g+1)_m (g+1)_n) without the square, which overflows
    pref = pochhammer(g + m + 1, n) * pochhammer(g + n + 1, m)
    return pref * z.conjugate() ** m * z**n * f


def eval_jacobi(p: ZernikeParams, z: complex) -> complex:
    """Radial Jacobi polynomial route, valid for every index ordering.

    The prefactor is symmetric under conjugation of the index pair,
    (-1)^s s! (gamma+s+1)_l with s = min(m,n), l = max(m,n); the
    one-sided variant (gamma+m+1)_n holds only for m <= n.
    """
    z = _check_disk(z)
    m, n, g = p.m, p.n, p.gamma
    s, ell = min(m, n), max(m, n)
    r2 = z.real * z.real + z.imag * z.imag
    ang = z ** (n - m) if n >= m else z.conjugate() ** (m - n)
    pref = float((-1) ** s * factorial(s)) * pochhammer(g + s + 1, ell)
    return pref * ang * jacobi_p(s, abs(m - n), g, 1.0 - 2.0 * r2)


@lru_cache(maxsize=1024)
def rodrigues_expr(p: ZernikeParams) -> DiskExpr:
    """Exact expression (-1)^(m+n) u^(-gamma) d_z^m d_zbar^n u^(gamma+m+n).

    The result is a polynomial: integer base offset zero with nonnegative
    u-powers, equal coefficient-by-coefficient to the explicit sum up to
    float rounding.
    """
    e = DiskExpr.u_power(p.gamma + p.m + p.n)
    for _ in range(p.n):
        e = algebra.d_zbar(e)
    for _ in range(p.m):
        e = algebra.d_z(e)
    e = algebra.scale(e, float((-1) ** (p.m + p.n)))
    return algebra.mul(e, DiskExpr.u_power(-p.gamma))


def explicit_expr(p: ZernikeParams) -> DiskExpr:
    """The explicit sum as an exact expression (canonical form)."""
    return DiskExpr({(a, b, j): c for a, b, j, c in _explicit_terms(p.m, p.n, p.gamma)})


def eval_rodrigues(p: ZernikeParams, z: complex) -> complex:
    return algebra.eval_expr(rodrigues_expr(p), _check_disk(z))


def _contour_sum(p: ZernikeParams, z: complex, n_nodes: int) -> tuple[complex, float]:
    """One trapezoid pass; returns (value, L1 scale of the summand)."""
    m, n, g = p.m, p.n, p.gamma
    u = 1.0 - (z.real * z.real + z.imag * z.imag)
    pref = -pochhammer(g + m + 1, n) * float(factorial(m)) * u**-g
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    t = np.exp(1j * theta)
    vals = t ** (n + 1) * (1.0 - t * z.conjugate()) ** (g + m) / (z - t) ** (m + 1)
    return pref * complex(np.mean(vals)), abs(pref) * float(np.mean(np.abs(vals)))


def eval_contour(p: ZernikeParams, z: complex, n_nodes: int) -> complex:
    """Boundary integral with a fixed number of trapezoid nodes.

    On |t| = 1 the two distance factors have equal modulus, so the summand
    never develops large cancellation; accuracy improves geometrically
    like |z|^N.
    """
    z = _check_disk(z, strict=True)
    value, _ = _contour_sum(p, z, _check_count(n_nodes, 16, "contour node count"))
    return value


def eval_contour_adaptive(p: ZernikeParams, z: complex, rel_tol: float = 1e-10,
                          start_nodes: int = 64, max_nodes: int = 2**16) -> complex:
    """Double the trapezoid rule until two passes agree to rel_tol.

    Agreement is measured against the value, with a floor at the roundoff
    scale of the node sum so exact-zero values converge too.  Raises
    NonConvergentError if the cap is hit first.
    """
    z = _check_disk(z, strict=True)
    n_nodes = max(16, _check_count(start_nodes, 1, "contour start node count"))
    prev, _ = _contour_sum(p, z, n_nodes)
    while n_nodes < max_nodes:
        n_nodes *= 2
        cur, l1 = _contour_sum(p, z, n_nodes)
        if abs(cur - prev) <= max(rel_tol * abs(cur), 1e-13 * l1):
            return cur
        prev = cur
    raise NonConvergentError(
        f"contour rule still moving at {max_nodes} nodes for (m={p.m}, n={p.n}, "
        f"gamma={p.gamma:g}) at z={z:g}"
    )


ROUTES = ("explicit", "gauss1", "gauss2", "jacobi", "rodrigues", "contour")


def eval_route(p: ZernikeParams, z: complex, route: str,
               contour_nodes: int | None = None) -> complex:
    """Dispatch a single evaluation to the named route."""
    if route == "explicit":
        return eval_explicit(p, z)
    if route == "gauss1":
        return eval_gauss1(p, z)
    if route == "gauss2":
        return eval_gauss2(p, z)
    if route == "jacobi":
        return eval_jacobi(p, z)
    if route == "rodrigues":
        return eval_rodrigues(p, z)
    if route == "contour":
        if contour_nodes is not None:
            return eval_contour(p, z, contour_nodes)
        return eval_contour_adaptive(p, z)
    raise DomainError(f"unknown route {route!r}")


def value_at_origin(p: ZernikeParams) -> float:
    """Closed form at z = 0: zero off the diagonal, else a signed factorial."""
    if p.m != p.n:
        return 0.0
    s = float((-1) ** p.m * factorial(p.m))
    return s * pochhammer(p.gamma + p.m + 1, p.m)


def monomial_coeffs(p: ZernikeParams) -> dict[tuple[int, int], float]:
    """Coefficients on z^a conj(z)^b; bidegree (n, m), every key on the
    charge line a - b = n - m."""
    out: dict[tuple[int, int], float] = {}
    for a, b, j, tj in _explicit_terms(p.m, p.n, p.gamma):
        for i in range(j + 1):
            key = (a + i, b + i)
            c = out.get(key, 0.0) + tj * comb(j, i) * (-1) ** i
            out[key] = c
    return {key: c for key, c in out.items() if c != 0.0}


def inner_product(p1: ZernikeParams, p2: ZernikeParams) -> float:
    """Weighted disk inner product <P1, P2> for the shared weight exponent.

    The angular integral is exact: it vanishes unless the two charges
    n - m agree, and otherwise collapses the 2D integral to a radial one.
    That radial integral sums the per-term beta moments over exact
    rationals (gamma is a rational number once stored as a float) and
    rounds once at the end, so the heavy cancellation among coefficient
    products (~1e13 at indices around 5) costs nothing.  No 2D grid is
    ever formed.
    """
    if p1.gamma != p2.gamma:
        raise ParamMismatchError(
            f"weight exponents differ: {p1.gamma:g} vs {p2.gamma:g}")
    if p1.n - p1.m != p2.n - p2.m:
        return 0.0
    g = Fraction(p1.gamma)
    total = Fraction(0)
    for a1, b1, j1, v1 in _explicit_terms(p1.m, p1.n, g):
        for a2, b2, j2, v2 in _explicit_terms(p2.m, p2.n, g):
            # <z^a1 zb^b1 u^j1, z^a2 zb^b2 u^j2> = pi B(D+1, gamma+J+1)
            # on the shared charge line, with t = r^2
            d = (a1 + b1 + a2 + b2) // 2
            total += v1 * v2 * factorial(d) / pochhammer(g + j1 + j2 + 1, d + 1)
    return math.pi * float(total)


def norm_squared(p: ZernikeParams) -> float:
    return inner_product(p, p)


def hermite(m: int, n: int, z: complex) -> complex:
    """Complex Hermite polynomial with the same double-sum shape."""
    try:
        m, n = operator.index(m), operator.index(n)
    except TypeError:
        raise DomainError("indices must be integers") from None
    _check_indices(m, n)
    z = complex(z)
    zb = z.conjugate()
    acc = 0j
    for j, c in _signed_counts(m, n):
        acc += float(c) * zb ** (m - j) * z ** (n - j)
    return acc


def hermite_limit_error(m: int, n: int, z: complex, rho: float) -> float:
    """Deviation of the rescaled disk polynomial from its Hermite limit.

    With the weight exponent set to rho^2 and the argument shrunk by rho,
    the polynomial approaches the complex Hermite polynomial as rho grows;
    the return value is the absolute deviation at this rho.
    """
    if rho <= abs(z):
        raise DomainError("need rho > |z| so the shrunk argument stays in the disk")
    p = ZernikeParams(m, n, rho * rho)
    val = eval_explicit(p, z / rho) / rho ** (m + n)
    return abs(val - hermite(m, n, z))
