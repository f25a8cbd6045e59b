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

The explicit route, ``explicit_expr``, ``monomial_coeffs`` and the quad
Cauchy route (``cauchy.cauchy_zernike_quad``) read the float coefficients
of the explicit sum from one kernel, ``_explicit_terms``, cached per
(m, n, gamma).  The exact ``inner_product`` reads the same coefficients
as scaled integers from ``_scaled_terms``, and ``hermite`` reads only
their integer parts, ``_signed_counts``.  None of the other five routes
uses any of them.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from . import algebra
from .algebra import DiskExpr
from .errors import DomainError, NonConvergentError, ParamMismatchError
from .numerics import _check_count, _check_weight, _jacobi_ladder, hyp2f1, jacobi_p, pochhammer

__all__ = [
    "ZernikeParams",
    "eval_explicit",
    "eval_gauss1",
    "eval_gauss2",
    "eval_jacobi",
    "jacobi_line",
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
        m, n = _check_indices(self.m, self.n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", _check_weight(self.gamma))


def _check_indices(m: int, n: int) -> tuple[int, int]:
    """Return m and n as ints; raise DomainError unless both are integers
    (anything ``operator.index`` takes) in [0, INDEX_CAP]."""
    try:
        m, n = operator.index(m), operator.index(n)
    except TypeError:
        raise DomainError("indices must be integers") from None
    if not (0 <= m <= INDEX_CAP and 0 <= n <= INDEX_CAP):
        raise DomainError(f"indices must lie in [0, {INDEX_CAP}], got ({m}, {n})")
    return m, n


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


@lru_cache(maxsize=256)
def _explicit_terms(m: int, n: int, g: float) -> tuple:
    """Terms (z-power, zbar-power, u-power, coefficient) of the explicit sum.

    Term j has the float coefficient (-1)^j C(m,j) C(n,j) j! (g+j+1)_{m+n-j}
    on z^(n-j) conj(z)^(m-j) u^j.
    """
    return tuple((n - j, m - j, j, c * pochhammer(g + j + 1, m + n - j))
                 for j, c in _signed_counts(m, n))


def _scaled_terms(m: int, n: int, f: list) -> list:
    """Integer numerators of the explicit sum's coefficients, by u-power.

    With gamma + i = f[i] / Q, the coefficient of term j is
    (-1)^j C(m,j) C(n,j) j! prod_{i=j+1}^{m+n} f[i] over Q^(m+n-j);
    entry j of the list is that numerator.
    """
    counts = [c for _, c in _signed_counts(m, n)]
    rising = math.prod(f[len(counts):m + n + 1])
    for j in reversed(range(len(counts))):
        counts[j] *= rising
        rising *= f[j]
    return counts


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


def eval_jacobi(p: ZernikeParams, z: complex | np.ndarray) -> complex | np.ndarray:
    """Radial Jacobi polynomial route, valid for every index ordering.

    The prefactor is symmetric under conjugation of the index pair,
    (-1)^s s! (gamma+s+1)_l with s = min(m,n), l = max(m,n); the
    one-sided variant (gamma+m+1)_n holds only for m <= n.  ``z`` may be
    a scalar or an ndarray, as for ``eval_explicit``.
    """
    z = _check_disk(z, arrays=True)
    m, n, g = p.m, p.n, p.gamma
    s = min(m, n)
    r2 = z.real * z.real + z.imag * z.imag
    return _jacobi_prefactor(s, n - m, g) * _angular(z, n - m) * jacobi_p(
        s, abs(m - n), g, 1.0 - 2.0 * r2)


def _jacobi_prefactor(s: int, k: int, g: float) -> float:
    """(-1)^s s! (g+s+1)_l with l = s + |k|, the member's prefactor."""
    return float((-1) ** s * factorial(s)) * pochhammer(g + s + 1, s + abs(k))


def _angular(z: complex | np.ndarray, k: int) -> complex | np.ndarray:
    """The angular factor z^k, or conj(z)^-k when k < 0."""
    return z ** k if k >= 0 else z.conjugate() ** -k


def jacobi_line(k: int, gamma: float, z: complex | np.ndarray, s_max: int):
    """Yield every member on the charge line n - m = k at z, for
    s = min(m, n) = 0, 1, ..., s_max, so the member (m, n) comes at
    s = m + min(k, 0).

    One ladder of the Jacobi recurrence at x = 1 - 2|z|^2 and one angular
    factor serve the whole line, and each member takes the prefactor,
    angular factor and ladder rung in the order ``eval_jacobi`` does, so
    it equals ``eval_jacobi`` at its indices bit for bit.  Between two
    members the generator holds x, the recurrence's last two rungs and
    the angular factor.  ``z`` may be a scalar or an ndarray, as for
    ``eval_explicit``; the line's indices are checked against INDEX_CAP
    before the first member.
    """
    _check_indices(max(-k, 0) + s_max, max(k, 0) + s_max)
    gamma = _check_weight(gamma)
    z = _check_disk(z, arrays=True)
    ang = _angular(z, k)
    ladder = _jacobi_ladder(abs(k), gamma, 1.0 - 2.0 * (z.real * z.real + z.imag * z.imag))
    for s in range(s_max + 1):
        yield _jacobi_prefactor(s, k, gamma) * ang * next(ladder)


@lru_cache(maxsize=1024)
def rodrigues_expr(p: ZernikeParams) -> DiskExpr:
    """Exact expression (-1)^(m+n) u^(-gamma) d_z^m d_zbar^n u^(gamma+m+n).

    The derivatives run over scaled integers on the one charge line the
    result lives on.  gamma is P/Q (Q = 2^e for a float), so every u-power
    is u^(f/Q + k) for an int f, and each derivative multiplies by ints
    and divides by one more Q.  d_zbar sends c z^a u^q to
    -q c z^(a+1) u^(q-1).  d_z sends c z^a u^q with a > 0 to
    (a+q) c z^(a-1) u^q - q c z^(a-1) u^(q-1), since z conj(z) = 1 - u,
    and c conj(z)^b u^q to -q c conj(z)^(b+1) u^(q-1).  So each
    coefficient is one int over Q^(m+n): the explicit sum's coefficient,
    correctly rounded by one int division with no gcd.

    The result is a polynomial: int base offset zero, nonnegative
    u-powers.  The cost grows with the bit lengths of P and Q: at
    (64, 64) a build takes about 1 ms at gamma = 0.5, but 0.9 s at
    gamma = 5e-324 (Q = 2^1074) and 0.6 s at gamma = 1e300, which then
    overflows.  Raises NonConvergentError when a coefficient overflows a
    float.
    """
    m, n, g = p.m, p.n, p.gamma
    P, Q = g.as_integer_ratio()
    # the u-exponent is f/Q + k; d_zbar^n acts on the single term z^a u^(f/Q)
    f = P + (m + n) * Q
    c0 = 1
    for _ in range(n):
        c0 = -c0 * f
        f -= Q
    # coefficients of z^a u^(f/Q + k), or of conj(z)^-a for a <= 0
    a, c = n, [c0]
    for _ in range(m):
        if a > 0:
            nxt = [0] * (len(c) + 1)
            for k, ck in enumerate(c):
                q = f + k * Q
                nxt[k + 1] += ck * (a * Q + q)
                nxt[k] -= ck * q
        else:
            nxt = [-ck * (f + k * Q) for k, ck in enumerate(c)]
        c = nxt
        a -= 1
        f -= Q
    # f is now P: the terms carry u^(gamma + k), and dividing by u^gamma
    # leaves the int offset 0
    den = (-1) ** (m + n) * Q ** (m + n)
    key = (a, 0) if a > 0 else (0, -a)
    try:
        terms = {(*key, k): ck / den for k, ck in enumerate(c)}
    except OverflowError:
        raise NonConvergentError(
            f"Rodrigues coefficient overflows for (m={m}, n={n}, gamma={g:g})") from None
    return DiskExpr(terms)


def explicit_expr(p: ZernikeParams) -> DiskExpr:
    """The explicit sum as an exact expression (canonical form)."""
    return DiskExpr({(a, b, j): c for a, b, j, c in _explicit_terms(p.m, p.n, p.gamma)})


def eval_rodrigues(p: ZernikeParams, z: complex) -> complex:
    return algebra.eval_expr(rodrigues_expr(p), _check_disk(z))


# Largest trapezoid node count of one contour pass; it bounds a pass's
# time, and its memory together with _PASS_SIZE.
MAX_NODES = 2**16
# Summand entries built at once: a pass over many points runs in blocks.
_PASS_SIZE = 2**18
# The adaptive rule's first pass, and the agreement between two passes,
# relative to the value, that ends its doubling.
_START_NODES = 64
_REL_TOL = 1e-10
# Largest block, in summand entries, whose n-independent factors are
# memoised: 8 points at 512 nodes, the suites' largest pass.
_MEMO_ENTRIES = 2**12


@lru_cache(maxsize=32)
def _roots_of_unity(n_nodes: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    t = np.exp(1j * theta)
    t.flags.writeable = False
    return t


def _weight_factors(zc: np.ndarray, t: np.ndarray, e: float,
                    m: int) -> tuple[np.ndarray, np.ndarray]:
    """The summand's factors w^e, w = 1 - t conj(z), and (z - t)^(m+1)
    for the column of points zc and the nodes t; see ``_contour_sum``."""
    w = 1.0 - t * zc.conjugate()
    if e.is_integer():
        wpow = w ** e
    else:
        # setting the two parts in place is cheaper than r * np.exp(1j * arg)
        r = np.abs(w) ** e
        arg = e * np.arctan2(w.imag, w.real)
        wpow = np.empty_like(w)
        wpow.real = r * np.cos(arg)
        wpow.imag = r * np.sin(arg)
    return wpow, (zc - t) ** (m + 1)


@lru_cache(maxsize=16)
def _memo_weight_factors(zb: bytes, tb: bytes, e: float,
                         m: int) -> tuple[np.ndarray, np.ndarray]:
    """``_weight_factors`` for the points and nodes whose complex128 bytes
    are zb and tb, as read-only arrays."""
    factors = _weight_factors(np.frombuffer(zb, complex)[:, None],
                              np.frombuffer(tb, complex), e, m)
    for a in factors:
        a.flags.writeable = False
    return factors


def _contour_prefactors(p: ZernikeParams, zs: np.ndarray) -> list[float]:
    """The prefactor -(gamma+m+1)_n m! u^-gamma at each point of the 1-D
    array zs."""
    m, n, g = p.m, p.n, p.gamma
    c = -pochhammer(g + m + 1, n) * float(factorial(m))
    prefs = []
    for z in zs.tolist():
        # u**-g in Python floats: numpy's SIMD float pow can differ
        # from libm's in the last bit
        try:
            prefs.append(c * (1.0 - (z.real * z.real + z.imag * z.imag)) ** -g)
        except OverflowError:
            raise NonConvergentError(
                f"contour prefactor overflows for (m={m}, n={n}, gamma={g:g}) "
                f"at z={z!r}") from None
    return prefs


def _contour_sum(p: ZernikeParams, zs: np.ndarray,
                 t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the nodes t of the summand and of its modulus, one of each
    per point of the 1-D array zs; the prefactor is left out.

    The weight power w^e, w = 1 - t conj(z), e = gamma + m, is taken one of
    two ways.  For an integer e it is numpy's complex ``w ** e``, which
    multiplies by repeated squaring.  Otherwise numpy would fall back to
    libm ``cpow``, which makes a summand entry cost about three times as
    much, so it is taken in real polar form,
    |w|^e (cos(e arg w) + i sin(e arg w)): the principal branch, since
    Re w > 0 for |z| < 1, and the same exp(e log w) that ``cpow``
    computes, to within a few e ulps.  Those digits come from numpy's SIMD
    ``power``, ``arctan2``, ``cos`` and ``sin``, so reruns on one machine
    are byte-identical but the last bit may differ across CPUs.

    The index n enters only through t^(n+1); w^e and (z - t)^(m+1) are
    the same for every n, and the suites run n innermost over one set of
    points and nodes.  So a block of at most _MEMO_ENTRIES summand
    entries takes the two from an LRU memo of 16 entries, keyed by the
    bytes of the block's points, the bytes of the nodes, e and m.  An
    entry holds two factors of at most 2^12 complex128 values each and a
    key of at most 2^12 + 1 more, so the memo holds at most about
    16 x 3 x 2^12 x 16 B = 3 MB, keys included; larger blocks build
    their factors and drop them.  The factors are built by the same
    operations either way, so the memo changes no output bit.
    """
    m, n, e = p.m, p.n, p.gamma + p.m
    tn = t ** (n + 1)
    sums = np.empty(len(zs), complex)
    mods = np.empty(len(zs))
    step = max(1, _PASS_SIZE // len(t))
    for i in range(0, len(zs), step):
        zc = zs[i:i + step, None]
        # an overflowing pass shows as a non-finite value, which the
        # adaptive rule and the CLI reject; a numpy warning would only
        # add a second line to the CLI's one-line error
        with np.errstate(all="ignore"):
            if zc.size * len(t) <= _MEMO_ENTRIES:
                wpow, d = _memo_weight_factors(zc.tobytes(), t.tobytes(), e, m)
            else:
                wpow, d = _weight_factors(zc, t, e, m)
            vals = tn * wpow / d
            sums[i:i + step] = vals.sum(axis=1)
            mods[i:i + step] = np.abs(vals).sum(axis=1)
    return sums, mods


def _check_pass(p: ZernikeParams, n_nodes: int, v: complex, z: complex):
    """Raise NonConvergentError unless the pass's value v at z is finite."""
    if not cmath.isfinite(v):
        raise NonConvergentError(
            f"contour pass at {n_nodes} nodes is not finite for (m={p.m}, "
            f"n={p.n}, gamma={p.gamma:g}) at z={complex(z)!r}")


def _shaped(values: list[complex], z: complex | np.ndarray) -> complex | np.ndarray:
    """The values in the shape of the input: a complex for a scalar z."""
    if isinstance(z, np.ndarray):
        return np.array(values, complex).reshape(z.shape)
    return values[0]


def eval_contour(p: ZernikeParams, z: complex | np.ndarray, n_nodes: int) -> complex | np.ndarray:
    """Boundary integral with a fixed number of trapezoid nodes.

    The trapezoid error falls geometrically like |z|^N.  The node sum can
    cancel heavily, though: the u^-gamma prefactor is paid back by
    cancellation on |t| = 1, which grows with gamma and |z|, and so is
    (z - t)^-(m+1) when m is much larger than n.  Then the value is
    finite but wrong, with no error: at (2, 2), gamma = 30,
    z = 0.6885+0.5798i it is 7.7e16 + 1.3e17i for 708612.41 (ROADMAP
    items 2-3).
    ``z`` may be a scalar or an ndarray, as for ``eval_explicit``;
    ``n_nodes`` lies in [16, MAX_NODES].
    """
    z = _check_disk(z, strict=True, arrays=True)
    n_nodes = _check_count(n_nodes, 16, "contour node count")
    if n_nodes > MAX_NODES:
        raise DomainError(f"contour node count must be at most {MAX_NODES}, got {n_nodes}")
    zs = np.ravel(z)
    prefs = _contour_prefactors(p, zs)
    sums, _ = _contour_sum(p, zs, _roots_of_unity(n_nodes))
    values = [c * v for c, v in zip(prefs, (sums / n_nodes).tolist())]
    for v, zi in zip(values, zs.tolist()):
        _check_pass(p, n_nodes, v, zi)
    return _shaped(values, z)


def eval_contour_adaptive(p: ZernikeParams, z: complex | np.ndarray) -> complex | np.ndarray:
    """Double the trapezoid rule from 64 nodes until two passes agree to 1e-10.

    Agreement is measured against the value, with a floor at the roundoff
    scale of the node sum so exact-zero values converge too.  The rules
    are nested: the even nodes of the 2N-node rule are the N-node rule,
    so each doubling evaluates only the N new odd nodes and adds them to
    the running sums.  Each point of an ndarray ``z`` doubles on its own:
    once its last two passes agree it is done, so it gets the value a
    scalar call would give.  No pass exceeds MAX_NODES nodes.  Raises
    NonConvergentError if a point is still moving at the last pass, or if
    a pass is not finite.
    """
    z = _check_disk(z, strict=True, arrays=True)
    n_nodes = _START_NODES
    zs = np.ravel(z)
    prefs = _contour_prefactors(p, zs)
    values = [0j] * zs.size
    prev = {}  # point index -> its value at the last pass
    todo = np.arange(zs.size)
    sums, mods = _contour_sum(p, zs, _roots_of_unity(n_nodes))
    while todo.size:
        moving = []
        for k, (i, v, l1) in enumerate(zip(todo.tolist(), (sums / n_nodes).tolist(),
                                           (mods / n_nodes).tolist())):
            c = prefs[i] * v
            _check_pass(p, n_nodes, c, zs[i])
            s = abs(prefs[i]) * l1
            if i in prev and abs(c - prev[i]) <= max(_REL_TOL * abs(c), 1e-13 * s):
                values[i] = c
            else:
                moving.append(k)
            prev[i] = c
        todo, sums, mods = todo[moving], sums[moving], mods[moving]
        if not todo.size:
            break
        if 2 * n_nodes > MAX_NODES:
            raise NonConvergentError(
                f"contour rule still moving at {n_nodes} nodes for (m={p.m}, n={p.n}, "
                f"gamma={p.gamma:g}) at z={complex(zs[todo[0]])!r}")
        n_nodes *= 2
        new_sums, new_mods = _contour_sum(p, zs[todo], _roots_of_unity(n_nodes)[1::2])
        sums += new_sums
        mods += new_mods
    return _shaped(values, z)


# The point routes; "contour" is dispatched on its own, because it
# chooses between the fixed and the adaptive rule.
_ROUTE_FUNCS = {
    "explicit": eval_explicit,
    "gauss1": eval_gauss1,
    "gauss2": eval_gauss2,
    "jacobi": eval_jacobi,
    "rodrigues": eval_rodrigues,
}
ROUTES = (*_ROUTE_FUNCS, "contour")


def eval_route(p: ZernikeParams, z: complex, route: str,
               contour_nodes: int | None = None) -> complex:
    """Dispatch a single evaluation to the named route."""
    if route == "contour":
        if contour_nodes is not None:
            return eval_contour(p, z, contour_nodes)
        return eval_contour_adaptive(p, z)
    if route not in _ROUTE_FUNCS:
        raise DomainError(f"unknown route {route!r}")
    return _ROUTE_FUNCS[route](p, z)


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
    On the shared charge line the pair of terms j1, j2 has the beta moment
    <z^a1 zb^b1 u^j1, z^a2 zb^b2 u^j2> = pi D! / (gamma+J+1)_{D+1} with
    J = j1 + j2 and D = (m1+n1+m2+n2)/2 - J, so the moment depends on J
    alone.  The sum is therefore grouped by J: the two coefficient lists
    are convolved first, and each J then takes one moment, so there are
    O(n1 + n2) moments instead of O(n1 n2).  A float gamma is P/Q with
    Q = 2^e, so every term is an integer over a power of Q, and the whole
    sum is one fraction N / D of scaled integers.  Python's int division
    rounds it correctly, once, so the heavy cancellation among coefficient
    products (~1e13 at indices around 5) costs nothing.  No 2D grid is
    ever formed.  Raises NonConvergentError when the value overflows a
    float (at the index cap, for instance).
    """
    if p1.gamma != p2.gamma:
        raise ParamMismatchError(
            f"weight exponents differ: {p1.gamma:g} vs {p2.gamma:g}")
    if p1.n - p1.m != p2.n - p2.m:
        return 0.0
    # gamma + i = f_i / Q with f_i > 0 for i >= 1, since gamma > -1
    P, Q = p1.gamma.as_integer_ratio()
    half = (p1.m + p1.n + p2.m + p2.n) // 2
    f = [P + i * Q for i in range(max(p1.m + p1.n, p2.m + p2.n, half + 1) + 1)]
    t1 = _scaled_terms(p1.m, p1.n, f)
    t2 = _scaled_terms(p2.m, p2.n, f)
    # term j carries u^j, so J indexes the convolution; every J shares
    # the factor Q^(1-half), which goes into the denominator below
    conv = [0] * (len(t1) + len(t2) - 1)
    for j1, v1 in enumerate(t1):
        for j2, v2 in enumerate(t2):
            conv[j1 + j2] += v1 * v2
    # the moment at J is pi (half-J)! Q^(half-J+1) / prod_{i=J+1}^{half+1} f_i;
    # over the common denominator prod_{i=1}^{half+1} f_i it takes the
    # prefix product prod_{i=1}^{J} f_i
    num, prefix = 0, 1
    for J, c in enumerate(conv):
        num += c * factorial(half - J) * prefix
        prefix *= f[J + 1]
    den = math.prod(f[len(conv) + 1:half + 2], start=prefix)
    if half:
        den *= Q ** (half - 1)
    else:
        num *= Q
    try:
        ratio = num / den
    except OverflowError:
        ratio = math.inf
    v = math.pi * ratio
    if math.isinf(v):
        raise NonConvergentError(
            f"inner product overflows for (m1={p1.m}, n1={p1.n}, m2={p2.m}, "
            f"n2={p2.n}, gamma={p1.gamma:g})")
    return v


def norm_squared(p: ZernikeParams) -> float:
    return inner_product(p, p)


def hermite(m: int, n: int, z: complex) -> complex:
    """Complex Hermite polynomial with the same double-sum shape."""
    m, n = _check_indices(m, n)
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
