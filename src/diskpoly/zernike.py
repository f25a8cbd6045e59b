"""Disk polynomial evaluation by several independent routes.

The two-index family treated here is orthogonal on the unit disk for the
radial weight (1 - |z|^2)^gamma, gamma > -1.  Each member is a polynomial
in z and conj(z) of bidegree (n, m).  The routes implemented:

  explicit   direct double-factorial sum (the suites' referee)
  gauss1     terminating hypergeometric series in 1 - 1/|z|^2
  gauss2     terminating hypergeometric series in 1/|z|^2
  jacobi     radial Jacobi polynomial times an angular monomial
  rodrigues  exact Wirtinger differentiation of the weight, summed over
             ints and rounded once: the correctly rounded value
  contour    boundary integral evaluated by the trapezoid rule

They share no intermediate code beyond the Pochhammer symbol, so mutual
agreement is strong evidence that each is implemented correctly.

The explicit route, ``explicit_expr``, ``monomial_coeffs`` and the quad
Cauchy route (``cauchy.cauchy_zernike_quad``) read the float coefficients
of the explicit sum from one kernel, ``_explicit_terms``, cached per
(m, n, gamma), and ``hermite`` reads only their integer parts,
``_signed_counts``.  The exact layer reads the same coefficients as ints
over one denominator from one integer kernel, ``_rodrigues_ints``:
``eval_rodrigues``, ``rodrigues_expr`` and ``inner_product`` (and so
``norm_squared``).  None of the other four routes uses either kernel.

The contour route evaluates a row, every n = 0..n_max at one (m, gamma)
(``contour_row``), and the jacobi route a charge line n - m = k from one
recurrence (``jacobi_line``); ``eval_contour``, ``eval_contour_adaptive``
and ``eval_jacobi`` are their one-member cases.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb, factorial

import numpy as np

from .algebra import DiskExpr, _from_canonical, _signed_binomials
from .errors import DomainError, NonConvergentError, ParamMismatchError
from .numerics import (_check_count, _check_point, _check_real, _check_weight, _finite,
                       _jacobi_ladder, _quiet, hyp2f1, pochhammer)

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
    "contour_row",
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
    """Coerce z by ``_check_point`` and check it lies in the disk, an
    array at its largest |z|; NaN never does."""
    z = _check_point(z, arrays)
    r2 = z.real * z.real + z.imag * z.imag
    if type(z) is not complex:
        r2 = float(r2.max(initial=0.0))
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


def eval_explicit(p: ZernikeParams, z: complex | np.ndarray) -> complex | np.ndarray:
    """The finite double-index sum: the route the suites referee the
    others against.  It is not the correctly rounded value; that is
    ``eval_rodrigues``.

    Term j carries the integer coefficient C(m,j) C(n,j) j! times a
    Pochhammer factor, which keeps every term well-scaled for indices up
    to the cap.  ``z`` may be a scalar, which gives a Python complex, or
    an ndarray of points, which gives a complex array of the same shape.
    """
    z = _check_disk(z, arrays=True)
    u = 1.0 - (z.real * z.real + z.imag * z.imag)
    zb = z.conjugate()
    acc = 0j
    with _quiet(z):
        for a, b, j, c in _explicit_terms(p.m, p.n, p.gamma):
            acc += c * u**j * zb**b * z**a
    return _finite(acc)


def eval_gauss1(p: ZernikeParams, z: complex) -> complex:
    """Terminating series in 1 - 1/|z|^2; needs |z|^2 != 0."""
    z = _check_disk(z)
    r2 = z.real * z.real + z.imag * z.imag
    if r2 == 0:
        raise DomainError("this route is singular at the origin")
    m, n, g = p.m, p.n, p.gamma
    f = hyp2f1(-float(m), -float(n), g + 1.0, 1.0 - 1.0 / r2)
    return _finite(pochhammer(g + 1, m + n) * z.conjugate() ** m * z**n * f)


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
    return _finite(pref * z.conjugate() ** m * z**n * f)


def eval_jacobi(p: ZernikeParams, z: complex | np.ndarray) -> complex | np.ndarray:
    """Radial Jacobi polynomial route, valid for every index ordering.

    The prefactor is symmetric under conjugation of the index pair,
    (-1)^s s! (gamma+s+1)_l with s = min(m,n), l = max(m,n); the
    one-sided variant (gamma+m+1)_n holds only for m <= n.  ``z`` may be
    a scalar or an ndarray, as for ``eval_explicit``.  The value is the
    one-member ``jacobi_line`` at s = min(m, n).
    """
    s = min(p.m, p.n)
    return next(jacobi_line(p.n - p.m, p.gamma, z, s, s))


def _jacobi_prefactor(s: int, k: int, g: float) -> float:
    """(-1)^s s! (g+s+1)_l with l = s + |k|, the prefactor of member s on
    the charge line k."""
    return float((-1) ** s * factorial(s)) * pochhammer(g + s + 1, s + abs(k))


def jacobi_line(k: int, gamma: float, z: complex | np.ndarray, s_max: int,
                s_min: int = 0):
    """Yield the members on the charge line n - m = k at z, for
    s = min(m, n) = s_min..s_max, so the member (m, n) comes at
    s = m + min(k, 0).

    One ladder of the Jacobi recurrence at x = 1 - 2|z|^2 and one angular
    factor, z^k or conj(z)^-k, serve the whole line, which climbs the
    rungs below s_min without forming their members.  Each member is the
    prefactor times the angular factor times the rung, the same bits
    whatever s_min is.  Between two members the generator holds x, the
    last two rungs and the angular factor.  ``z`` may be a scalar or an
    ndarray, as for ``eval_explicit``.  Before the first member k, s_min
    and s_max are checked as integers, s_min >= 0, and the top member
    (s_max + max(-k, 0), s_max + max(k, 0)) against INDEX_CAP; a line with
    s_min > s_max has no members, and a non-finite member ends it with
    NonConvergentError.
    """
    k = _check_count(k, -INDEX_CAP, "line charge k")
    s_min, s_max = _check_indices(s_min, s_max)
    _check_indices(s_max + max(-k, 0), s_max + max(k, 0))
    gamma = _check_weight(gamma)
    yield from _line_members(k, gamma, _check_disk(z, arrays=True), s_max, s_min)


def _line_members(k: int, gamma: float, z, s_max: int, s_min: int, weight=None):
    """``jacobi_line``'s members, each times ``weight`` if given, for checked arguments."""
    ang = z ** k if k >= 0 else z.conjugate() ** -k
    x = 1.0 - 2.0 * (z.real * z.real + z.imag * z.imag)
    ladder = islice(_jacobi_ladder(abs(k), gamma, x), s_min, None)
    for s in range(s_min, s_max + 1):
        with _quiet(z):  # entered per member: no errstate is held across a yield
            v = _jacobi_prefactor(s, k, gamma) * ang * next(ladder)
            v = v if weight is None else weight * v
        yield _finite(v)


# Cached for eval_rodrigues and inner_product, whose members repeat.
# rodrigues_expr calls the uncached __wrapped__, so its builds hold no ints.
@lru_cache(maxsize=1024)
def _rodrigues_ints(m: int, n: int, g: float) -> tuple[int, tuple, int]:
    """(a, c, den): the member (m, n) at gamma = g is z^a (conj(z)^-a for
    a <= 0) times sum_k c[k] u^k / den, exactly, over ints.

    This is (-1)^(m+n) u^(-g) d_z^m d_zbar^n u^(g+m+n), with the
    derivatives run over scaled integers on the one charge line the result
    lives on.  g is P/Q (Q = 2^e for a float), so every u-power is
    u^(f/Q + k) for an int f, and each derivative multiplies by ints and
    divides by one more Q.  d_zbar sends c z^a u^q to -q c z^(a+1) u^(q-1).
    d_z sends c z^a u^q with a > 0 to (a+q) c z^(a-1) u^q
    - q c z^(a-1) u^(q-1), since z conj(z) = 1 - u, and c conj(z)^b u^q to
    -q c conj(z)^(b+1) u^(q-1).  So den = (-1)^(m+n) Q^(m+n), and each
    c[k] / den is the explicit sum's coefficient, with no gcd taken.
    """
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
    return a, tuple(c), (-1) ** (m + n) * Q ** (m + n)


def rodrigues_expr(p: ZernikeParams) -> DiskExpr:
    """Exact expression (-1)^(m+n) u^(-gamma) d_z^m d_zbar^n u^(gamma+m+n).

    Each coefficient is ``_rodrigues_ints``' int over its den: the explicit
    sum's coefficient, correctly rounded by one int division.  The result
    is a polynomial: int base offset zero, nonnegative u-powers.  The cost
    grows with the bit lengths of P and Q: at (64, 64) a build takes about
    1 ms at gamma = 0.5, but 0.9 s at gamma = 5e-324 (Q = 2^1074) and
    0.6 s at gamma = 1e300, which then overflows.  Not cached: every call
    builds.  Raises NonConvergentError when a coefficient overflows a
    float.
    """
    m, n, g = p.m, p.n, p.gamma
    a, c, den = _rodrigues_ints.__wrapped__(m, n, g)
    key = (a, 0) if a > 0 else (0, -a)
    try:
        terms = {(*key, k): ck / den for k, ck in enumerate(c)}
    except OverflowError:
        raise NonConvergentError(
            f"Rodrigues coefficient overflows for (m={m}, n={n}, gamma={g:g})") from None
    # one canonical key per u-power; a quotient is -0.0 only where it is
    # zero, and zeros are dropped
    return _from_canonical(terms, 0)


def explicit_expr(p: ZernikeParams) -> DiskExpr:
    """The explicit sum as an exact expression (canonical form).

    Every term lies on the charge line z^(n-s) conj(z)^(m-s), s = min(m, n):
    term j is (z conj(z))^(s-j) = (1 - u)^(s-j) times it, at u^j.  So the
    reduction is a list indexed by u-power, summed in the (j, i) order of
    the constructor's, and it gives the constructor's bits (the
    constructor adds term s as it is, and times 1 a float stays as it is).
    """
    m, n = p.m, p.n
    s = min(m, n)
    acc = [0] * (s + 1)
    for _, _, j, c in _explicit_terms(m, n, p.gamma):
        for i, binom, sign in _signed_binomials(s - j):
            acc[j + i] += c * binom * sign
    return _from_canonical({(n - s, m - s, k): c for k, c in enumerate(acc)}, 0)


def eval_rodrigues(p: ZernikeParams, z: complex) -> complex:
    """The Rodrigues expression at z, summed exactly and rounded once.

    z is taken at its binary value, (X + iY)/D with D a power of 2, so
    u = (D^2 - X^2 - Y^2)/D^2.  The sum over ``_rodrigues_ints`` runs by
    Horner's rule over ints, times (X +- iY)^|a|, and each part of the
    value is one int over one int, which Python's true division rounds
    correctly.  The cost per point at (64, 64) is about 0.3 ms at
    gamma = 0.5, and 15-30 ms at gamma = 5e-324, after a 0.5-1 s build of
    the cached ints.  Raises NonConvergentError when the value overflows
    a float.
    """
    z = _check_disk(z)
    a, c, den = _rodrigues_ints(p.m, p.n, p.gamma)
    x, dx = z.real.as_integer_ratio()
    y, dy = z.imag.as_integer_ratio()
    d = max(dx, dy)
    # Y changes sign for a <= 0, where the angular factor is conj(z)^-a
    x, y = x * (d // dx), (y if a > 0 else -y) * (d // dy)
    d2 = d * d
    v = d2 - x * x - y * y
    # s = sum_k c[k] v^k d2^(K-k) and w = d2^K, for K = len(c) - 1
    s, w = c[-1], 1
    for ck in reversed(c[:-1]):
        w *= d2
        s = s * v + ck * w
    re, im = s, 0
    for _ in range(abs(a)):
        re, im = re * x - im * y, re * y + im * x
    den *= w * d ** abs(a)
    try:
        # an exact zero is 0.0, where 0 over a negative den would give -0.0
        return complex(re / den if re else 0.0, im / den if im else 0.0)
    except OverflowError:
        raise NonConvergentError(
            f"Rodrigues value overflows for (m={p.m}, n={p.n}, gamma={p.gamma:g})") from None


# Largest trapezoid node count of one contour pass; it bounds a pass's
# time, and its memory together with _PASS_SIZE.
MAX_NODES = 2**16
# Summand entries built at once: a pass over many points runs in blocks.
_PASS_SIZE = 2**18
# The adaptive rule's first pass, and the agreement between two passes,
# relative to the value, that ends its doubling.
_START_NODES = 64
_REL_TOL = 1e-10


@lru_cache(maxsize=32)
def _roots_of_unity(n_nodes: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    t = np.exp(1j * theta)
    t.flags.writeable = False
    return t


def _pass_sums(m: int, gamma: float, ns, zs: np.ndarray, n_nodes: int, odd: bool,
               mods: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Node sums of the summand t^(n+1) q, q = w^e / (z - t)^(m+1), one row
    per index n of ns and one column per point of the 1-D array zs, over
    the nodes t of the n_nodes rule or, with ``odd``, over its odd half;
    with ``mods``, also the sums of the summand's modulus.  The prefactor
    is left out.

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

    The index n enters only through t^(n+1), and the nodes are roots of
    unity, so every member's sum is a coefficient of one unscaled inverse
    DFT of q along the nodes (Trefethen & Weideman, SIAM Review 56, 2014).
    On the full rule, t_k = w_N^k and the sum for n is coefficient
    (n + 1) mod N.  On the odd half, t_k = w_N^(2k+1) with M = N/2 nodes,
    and it is coefficient (n + 1) mod M times w_N^(n+1).  Each block of
    points takes one FFT, whatever the number of members, and the FFT
    treats each point on its own, so a member's sums are the same bits
    in any row and any block.  Since |t| = 1, every member's modulus sum
    is sum |q|.
    """
    roots = _roots_of_unity(n_nodes)
    t = roots[1::2] if odd else roots
    cols = [(n + 1) % len(t) for n in ns]
    turn = roots[[(n + 1) % n_nodes for n in ns], None]  # w_N^(n+1), for the odd half
    sums = np.empty((len(ns), len(zs)), complex)
    moduli = np.empty((len(ns), len(zs))) if mods else None
    e = gamma + m
    step = max(1, _PASS_SIZE // len(t))
    for i in range(0, len(zs), step):
        zc = zs[i:i + step, None]
        w = 1.0 - t * zc.conjugate()
        if e.is_integer():
            wpow = w ** e
        else:
            # setting the two parts in place is cheaper than rad * np.exp(1j * arg)
            rad = np.abs(w) ** e
            arg = e * np.arctan2(w.imag, w.real)
            wpow = np.empty_like(w)
            wpow.real = rad * np.cos(arg)
            wpow.imag = rad * np.sin(arg)
        q = wpow / (zc - t) ** (m + 1)
        # np.fft is looked up here, so that importing the package loads no FFT
        coeffs = np.fft.ifft(q, axis=1, norm="forward")[:, cols].T
        if odd:
            # times w_N^(n+1) in real products in the textbook order, whose
            # bits depend neither on the array layout nor on the SIMD level
            x, y, a, b = coeffs.real, coeffs.imag, turn.real, turn.imag
            sums.real[:, i:i + step] = x * a - y * b
            sums.imag[:, i:i + step] = x * b + y * a
        else:
            sums[:, i:i + step] = coeffs
        if mods:
            moduli[:, i:i + step] = np.add.reduce(np.abs(q), 1)
    return sums, moduli


def _shaped(values: np.ndarray, z: complex | np.ndarray) -> complex | np.ndarray:
    """The values in the shape of the input: a complex for a scalar z."""
    return values.reshape(z.shape) if isinstance(z, np.ndarray) else complex(values[0])


# numpy's float errors are ignored once per row: an overflowing pass
# shows as a non-finite value, which the row turns into its member's error
@np.errstate(all="ignore")
def _contour_row(m: int, gamma: float, ns, z: complex | np.ndarray,
                 n_nodes: int | None) -> list:
    """For each index n of ns, the contour value at z, in z's shape, or the
    NonConvergentError of that member; the fixed rule at n_nodes nodes, or
    the adaptive rule when n_nodes is None.  Checks z, then n_nodes.

    One set of passes serves every member.  Every (n, point) entry
    doubles on its own, with the one-member rule's stopping test, so each
    member's value and error are those of its one-member call.  All state
    is (members x points); a doubling covers the sub-rectangle of the
    members and points still moving.  A member fails on the first of: its
    prefactor overflows, a pass has a non-finite value at one of its
    points still moving (the first such point in array order is named),
    or it is still moving at MAX_NODES; the others go on.
    """
    z = _check_disk(z, strict=True, arrays=True)
    if n_nodes is not None:
        n_nodes = _check_count(n_nodes, 16, "contour node count", MAX_NODES)
    zs = np.ravel(z)
    errors = [None] * len(ns)

    def fail(i, what, j):
        errors[i] = NonConvergentError(f"contour {what} for (m={m}, n={ns[i]}, "
                                       f"gamma={gamma:g}) at z={complex(zs[j])!r}")

    def drop_non_finite(cur, live, rows, cols, nodes):
        # each member with a non-finite value at a point it still moves on fails
        finite = np.isfinite(cur)
        if not finite.all():
            bad = live & ~finite
            for i in np.flatnonzero(bad.any(axis=1)):
                fail(rows[i], f"pass at {nodes} nodes is not finite", cols[bad[i].argmax()])
                live[i] = False

    # the prefactor -(gamma+m+1)_n m! u^-gamma; u**-gamma in Python floats,
    # since numpy's SIMD float pow can differ from libm's in the last bit
    upow = []
    for j, w in enumerate(zs.tolist()):
        try:
            upow.append((1.0 - (w.real * w.real + w.imag * w.imag)) ** -gamma)
        except OverflowError:
            for i in range(len(ns)):
                fail(i, "prefactor overflows", j)
            return errors
    c = [-pochhammer(gamma + m + 1, n) * float(factorial(m)) for n in ns]
    prefs = np.array(c)[:, None] * np.array(upow, float)
    todo = np.ones(prefs.shape, bool)  # the (n, point) entries still moving

    adaptive = n_nodes is None
    n_nodes = _START_NODES if adaptive else n_nodes
    sums, mods = _pass_sums(m, gamma, ns, zs, n_nodes, False, adaptive)
    values = prefs * (sums / n_nodes)
    drop_non_finite(values, todo, range(len(ns)), range(zs.size), n_nodes)
    while adaptive and todo.any():
        rows, cols = np.flatnonzero(todo.any(axis=1)), np.flatnonzero(todo.any(axis=0))
        if 2 * n_nodes > MAX_NODES:
            for i in rows:
                fail(i, f"rule still moving at {n_nodes} nodes", todo[i].argmax())
            break
        n_nodes *= 2
        sub = rows[:, None], cols
        new_sums, new_mods = _pass_sums(m, gamma, [ns[i] for i in rows], zs[cols],
                                        n_nodes, True, True)
        s, mo = sums[sub] + new_sums, mods[sub] + new_mods
        sums[sub], mods[sub] = s, mo
        pref, prev, live = prefs[sub], values[sub], todo[sub]
        cur = pref * (s / n_nodes)
        drop_non_finite(cur, live, rows, cols, n_nodes)
        # np.hypot is libm's hypot, as Python's complex abs is; np.abs is not
        d = cur - prev
        done = np.hypot(d.real, d.imag) <= np.maximum(
            _REL_TOL * np.hypot(cur.real, cur.imag), 1e-13 * (np.abs(pref) * (mo / n_nodes)))
        values[sub] = np.where(live, cur, prev)
        todo[sub] = live & ~done
    return [err or _shaped(v, z) for err, v in zip(errors, values)]


def _member(row: list) -> complex | np.ndarray:
    """The value of a one-member row; raises its error."""
    (v,) = row
    if isinstance(v, NonConvergentError):
        raise v
    return v


def contour_row(m: int, gamma: float, z: complex | np.ndarray, n_max: int,
                n_nodes: int | None = None) -> list:
    """The contour route for every member n = 0..n_max of the row (m, gamma).

    Entry n is what ``eval_contour_adaptive(ZernikeParams(m, n, gamma), z)``
    returns, or with ``n_nodes`` what ``eval_contour`` at that node count
    returns: the value, in z's shape, bit for bit.  Where that call would
    raise NonConvergentError, entry n is that error, with the same message,
    and the other members are unaffected.  Bad arguments raise DomainError.
    The passes build the n-independent factors of the summand once for the
    whole row.
    """
    m, n_max = _check_indices(m, n_max)
    gamma = _check_weight(gamma)
    return _contour_row(m, gamma, range(n_max + 1), z, n_nodes)


def eval_contour(p: ZernikeParams, z: complex | np.ndarray, n_nodes: int) -> complex | np.ndarray:
    """Boundary integral with a fixed number of trapezoid nodes.

    The trapezoid error falls geometrically like |z|^N.  The node sum can
    cancel heavily, though: the u^-gamma prefactor is paid back by
    cancellation on |t| = 1, which grows with gamma and |z|, and so is
    (z - t)^-(m+1) when m is much larger than n.  Then the value is
    finite but wrong, with no error: at (2, 2), gamma = 30,
    z = 0.6885+0.5798i it is 6.0e16 + 1.0e17i for 708612.41 (ROADMAP
    items 1 and 5).
    ``z`` may be a scalar or an ndarray, as for ``eval_explicit``;
    ``n_nodes`` lies in [16, MAX_NODES].  This is the one-member case of
    ``contour_row``.
    """
    if n_nodes is None:  # to _contour_row, None means the adaptive rule
        _check_count(n_nodes, 16, "contour node count")
    return _member(_contour_row(p.m, p.gamma, (p.n,), z, n_nodes))


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
    a pass is not finite.  This is the one-member case of ``contour_row``.
    """
    return _member(_contour_row(p.m, p.gamma, (p.n,), z, None))


# The evaluation routes by name, each a function of (params, z).
ROUTES = {
    "explicit": eval_explicit,
    "gauss1": eval_gauss1,
    "gauss2": eval_gauss2,
    "jacobi": eval_jacobi,
    "rodrigues": eval_rodrigues,
    "contour": eval_contour_adaptive,
}


def eval_route(p: ZernikeParams, z: complex, route: str,
               contour_nodes: int | None = None) -> complex:
    """Evaluate by the named route of ROUTES; contour_nodes fixes contour's
    rule, and is checked whatever the route."""
    try:
        func = ROUTES[route]
    except KeyError:
        raise DomainError(f"unknown route {route!r}") from None
    if contour_nodes is not None:
        contour_nodes = _check_count(contour_nodes, 16, "contour node count", MAX_NODES)
        if route == "contour":
            return eval_contour(p, z, contour_nodes)
    return func(p, z)


def value_at_origin(p: ZernikeParams) -> float:
    """Closed form at z = 0: zero off the diagonal, else a signed factorial."""
    return _finite(_jacobi_prefactor(p.m, 0, p.gamma) if p.m == p.n else 0.0)


def monomial_coeffs(p: ZernikeParams) -> dict[tuple[int, int], float]:
    """Coefficients on z^a conj(z)^b; bidegree (n, m), every key on the
    charge line a - b = n - m."""
    out: dict[tuple[int, int], float] = {}
    for a, b, j, tj in _explicit_terms(p.m, p.n, p.gamma):
        for i, binom, sign in _signed_binomials(j):
            key = (a + i, b + i)
            out[key] = out.get(key, 0.0) + tj * binom * sign
    return {key: c for key, c in out.items() if c != 0.0}


def inner_product(p1: ZernikeParams, p2: ZernikeParams) -> float:
    """Weighted disk inner product <P1, P2> for the shared weight exponent.

    The angular integral vanishes unless the two charges n - m agree, and
    otherwise leaves a radial one.  On the shared line each member is z^a
    (conj(z)^-a for a <= 0) times sum_k c[k] u^k / den, from
    ``_rodrigues_ints``, and <z^a u^k1, z^a u^k2> = pi A! / (gamma+K+1)_{A+1},
    A = |a|, depends on K = k1 + k2 alone: the c lists are convolved by K,
    and each K takes one moment.  The sum is one fraction of ints, which
    Python's int division rounds correctly, once, so the heavy cancellation
    among coefficient products (~1e13 at indices around 5) costs nothing.
    Raises NonConvergentError when the value overflows a float (at the
    index cap, for instance).

    The c lists share the denominator Q^(m+n), gamma = P/Q, so at a full
    53-bit significand the ints are long: every pair on the line k = 0
    with s <= 32 takes about 1.2 s in all at gamma = 0.37 (50 ms at
    gamma = 0.5), and one (64, 64) pair about 17 s at gamma = 1e-300.
    """
    if p1.gamma != p2.gamma:
        raise ParamMismatchError(
            f"weight exponents differ: {p1.gamma:g} vs {p2.gamma:g}")
    if p1.n - p1.m != p2.n - p2.m:
        return 0.0
    a, c1, den1 = _rodrigues_ints(p1.m, p1.n, p1.gamma)
    _, c2, den2 = _rodrigues_ints(p2.m, p2.n, p2.gamma)
    A = abs(a)
    conv = [0] * (len(c1) + len(c2) - 1)
    for k1, v1 in enumerate(c1):
        for k2, v2 in enumerate(c2):
            conv[k1 + k2] += v1 * v2
    # gamma + i = f_i / Q with f_i > 0 for i >= 1, so the moment at K is
    # pi A! Q^(A+1) / prod_{i=K+1}^{K+A+1} f_i.  Over the common denominator
    # prod_{i=1}^{S+A+1} f_i, S = len(conv) - 1, it keeps prod_{i<=K} f_i
    # and prod_{i>=K+A+2} f_i: one Horner pass down from K = S
    P, Q = p1.gamma.as_integer_ratio()
    f = [P + i * Q for i in range(len(conv) + A + 1)]
    num, suffix = 0, 1
    for K in reversed(range(len(conv))):
        num = num * f[K + 1] + conv[K] * suffix
        suffix *= f[K + A + 1]
    # den1 den2 > 0: the two members' m + n have the parity of the charge
    num *= factorial(A) * Q ** (A + 1)
    den = math.prod(f[1:A + 1], start=suffix) * den1 * den2
    try:
        v = math.pi * (num / den)
    except OverflowError:
        v = math.inf
    if math.isinf(v):
        raise NonConvergentError(
            f"inner product overflows for (m1={p1.m}, n1={p1.n}, m2={p2.m}, "
            f"n2={p2.n}, gamma={p1.gamma:g})")
    return v


def norm_squared(p: ZernikeParams) -> float:
    return inner_product(p, p)


def hermite(m: int, n: int, z: complex) -> complex:
    """Complex Hermite polynomial with the same double-sum shape.  Raises
    NonConvergentError where a power of z overflows or the sum is not
    finite."""
    m, n = _check_indices(m, n)
    z = _check_point(z)
    zb = z.conjugate()
    acc = 0j
    try:
        for j, c in _signed_counts(m, n):
            acc += float(c) * zb ** (m - j) * z ** (n - j)
    except OverflowError:
        acc = math.inf
    if not cmath.isfinite(acc):
        raise NonConvergentError(f"Hermite sum overflows for (m={m}, n={n}) at z={z!r}")
    return acc


def hermite_limit_error(m: int, n: int, z: complex, rho: float) -> float:
    """Deviation of the rescaled disk polynomial from its Hermite limit.

    With the weight exponent set to rho^2 and the argument shrunk by rho,
    the polynomial approaches the complex Hermite polynomial as rho grows;
    the return value is the absolute deviation at this rho.
    """
    z = _check_point(z)
    rho = _check_real(rho, "rho")
    if rho <= abs(z):
        raise DomainError("need rho > |z| so the shrunk argument stays in the disk")
    p = ZernikeParams(m, n, rho * rho)
    val = eval_explicit(p, z / rho) / rho ** (m + n)
    return abs(val - hermite(m, n, z))
