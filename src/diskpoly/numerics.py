"""Scalar special functions and Gaussian quadrature rules.

The evaluation routes and transform identities in this package reduce to a
small zoo of classical ingredients: Pochhammer symbols, terminating and
convergent Gauss hypergeometric series, Jacobi polynomials, incomplete beta
integrals, and Gauss rules on an interval.  They are implemented here from
scratch in plain float arithmetic so the higher-level cross-checks do not
silently share code with the oracles used to test them.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice

import numpy as np

from .errors import DomainError, NonConvergentError, PoleAtCError

__all__ = [
    "pochhammer",
    "hyp2f1",
    "jacobi_p",
    "incomplete_beta",
    "gauss_legendre",
    "gauss_jacobi_radial",
    "QuadratureRule",
]

# Tolerance for detecting a nonpositive-integer parameter, i.e. a series
# that terminates.  Values this close to an integer are treated as exact.
_INT_TOL = 1e-9

# Relative tolerance of incomplete_beta's quadrature self-check.
_BETA_CHECK_TOL = 1e-10

# Stopping rule of a non-terminating 2F1 series: relative term size, term cap.
_HYP2F1_TOL = 1e-15
_HYP2F1_MAX_TERMS = 10**6


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1, as a
    float; k is an integer >= 0 (anything ``operator.index`` takes), and a
    base a that is not a number raises DomainError unless k = 0."""
    k = _check_count(k, 0, "pochhammer order k")
    r = 1.0
    try:
        for i in range(k):
            r *= a + i
    except TypeError:  # caught, not checked up front: this loop is hot
        raise DomainError(f"pochhammer base must be a number, got {a!r}") from None
    return r


def _check_real(x, what: str) -> float:
    """Return x as a float; raise DomainError unless it is a real number
    (numpy's included) with a finite float value."""
    # int and float first: the ABC check is slower
    if not isinstance(x, (int, float, numbers.Real)):
        raise DomainError(f"{what} must be a real number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        # an int too large for a float, whose repr may be too long to print
        raise DomainError(f"{what} must be finite, got a number beyond the "
                          f"float range") from None
    if not math.isfinite(v):
        raise DomainError(f"{what} must be finite, got {x!r}")
    return v


def _check_point(z: complex, arrays: bool = False) -> complex | np.ndarray:
    """Coerce z to complex; raise DomainError unless it is a
    ``numbers.Complex`` (numpy's included) or a numeric 0-d array.  With
    ``arrays`` set, a numeric ndarray of any nonzero rank is coerced to a
    complex array instead.  An int too large for a float is inf."""
    # complex and float first: the ABC check is slower
    if type(z) in (complex, float) or isinstance(z, numbers.Complex) or (
            isinstance(z, np.ndarray) and not z.ndim and z.dtype.kind in "biufc"):
        try:
            return complex(z)
        except OverflowError:  # an int too large for a float
            return complex(math.inf)
    if arrays and isinstance(z, np.ndarray) and z.dtype.kind in "biufc":
        return np.asarray(z, complex)
    raise DomainError(f"point must be a complex number, got {type(z).__name__}")


def _check_weight(g: float) -> float:
    """Return the weight exponent g as a float; raise DomainError unless it
    is a real number (numpy's included), finite and > -1."""
    v = _check_real(g, "weight exponent")
    if not v > -1:
        raise DomainError(f"weight exponent must be > -1, got {g!r}")
    return v


def _check_count(n, least: int, what: str) -> int:
    """Return n as an int; raise DomainError unless it is an integer >= least."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None
    if n < least:
        raise DomainError(f"{what} must be at least {least}, got {n}")
    return n


def _nonpos_int(v: float) -> int | None:
    """Return k >= 0 such that v rounds to -k, or None."""
    r = round(v)
    if r <= 0 and abs(v - r) <= _INT_TOL:
        return -r
    return None


def _hyp2f1_terms(a: float, b: float, c: float, x: float):
    """Yield the terms (a)_j (b)_j x^j / ((c)_j j!) for j = 0, 1, ...

    Raises PoleAtCError before the first term whose (c)_j vanishes.
    """
    t = 1.0
    yield t
    for j in count():
        if abs(c + j) <= _INT_TOL:
            raise PoleAtCError(
                f"denominator parameter c={c} hits a nonpositive integer at term {j + 1}"
            )
        t *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x
        yield t


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) for real arguments.

    If a or b is within 1e-9 of a nonpositive integer the series terminates
    and is summed exactly (the offending parameter rounded to that integer);
    otherwise the power series is summed for |x| < 1 to relative tolerance
    ``_HYP2F1_TOL``.  Raises PoleAtCError if c hits a nonpositive integer
    before the series terminates, NonConvergentError for a terminating sum
    whose terms or total overflow, and for a non-terminating call with
    |x| >= 1 or one exceeding ``_HYP2F1_MAX_TERMS`` terms, and DomainError
    for a parameter or argument that is not a real number, inf or NaN.
    """
    try:  # caught, not checked up front: this is called thousands of times a pass
        finite = all(map(math.isfinite, (a, b, c, x)))
    except TypeError:
        finite = False
    if not finite:
        raise DomainError(f"hyp2f1 needs finite a, b, c and x, got ({a!r}, {b!r}, {c!r}, {x!r})")
    ka = _nonpos_int(a)
    kb = _nonpos_int(b)
    if ka is not None or kb is not None:
        k = min(k for k in (ka, kb) if k is not None)
        aa = float(round(a)) if ka is not None else a
        bb = float(round(b)) if kb is not None else b
        terms = list(islice(_hyp2f1_terms(aa, bb, c, x), k + 1))
        try:
            if all(map(math.isfinite, terms)):
                return math.fsum(terms)
        except OverflowError:  # finite terms whose partial sums overflow
            pass
        raise NonConvergentError(f"terminating 2F1 sum overflows at x = {x!r}")
    if abs(x) >= 1.0:
        raise NonConvergentError(f"2F1 series does not converge at |x| = {abs(x)} >= 1")
    terms = _hyp2f1_terms(a, b, c, x)
    acc = next(terms)
    for t in islice(terms, _HYP2F1_MAX_TERMS):
        acc += t
        if abs(t) <= _HYP2F1_TOL * abs(acc):
            return acc
    raise NonConvergentError(f"2F1 series did not converge in {_HYP2F1_MAX_TERMS} terms")


def _jacobi_ladder(alpha: float, beta: float, x):
    """Yield P_0, P_1, ... of P^(alpha, beta) at x, without end, by the
    three-term recurrence; x may be a float or a float ndarray.

    The recurrence is written here once: ``jacobi_p`` and
    ``zernike.jacobi_line`` both climb this ladder, so a rung is the same
    bits whichever of them asked for it.  The caller checks alpha and beta.
    """
    yield 1.0
    s = alpha + beta
    p0 = 1.0
    p1 = (alpha + 1) + (s + 2) * (x - 1) / 2
    yield p1
    for k in count(2):
        c1 = 2 * k * (k + s) * (2 * k + s - 2)
        c2 = (2 * k + s - 1) * ((2 * k + s) * (2 * k + s - 2) * x + alpha * alpha - beta * beta)
        c4 = 2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + s)
        p0, p1 = p1, (c2 * p1 - c4 * p0) / c1
        yield p1


def jacobi_p(n: int, alpha: float, beta: float, x: float) -> float:
    """Jacobi polynomial P_n^(alpha, beta)(x): rung n of the three-term
    recurrence's ladder, ``_jacobi_ladder``.

    Valid for finite alpha, beta > -1, where the recurrence denominators
    stay positive for every n.  x is a finite real number or a float
    ndarray.
    """
    n = _check_count(n, 0, "jacobi_p degree n")
    if not (_check_real(alpha, "jacobi_p alpha") > -1
            and _check_real(beta, "jacobi_p beta") > -1):
        raise DomainError(f"jacobi_p needs finite alpha, beta > -1, got ({alpha}, {beta})")
    if not isinstance(x, np.ndarray):
        x = _check_real(x, "jacobi_p argument x")
    return next(islice(_jacobi_ladder(alpha, beta, x), n, None))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for a fixed quadrature rule on an interval: nodes
    strictly inside ``bounds``, weights positive."""

    nodes: np.ndarray
    weights: np.ndarray
    bounds: tuple[float, float]

    def __post_init__(self):
        if len(self.nodes) != len(self.weights) or len(self.nodes) == 0:
            raise DomainError("quadrature rule needs matching, nonempty nodes and weights")
        lo, hi = self.bounds
        if not (np.all(self.nodes > lo) and np.all(self.nodes < hi)):
            raise DomainError("interval rule has nodes outside its open interval")
        if not np.all(self.weights > 0):
            raise DomainError("interval rule has nonpositive weights")


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre P_n and P_n' at the points x (|x| < 1)."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


# typed, as is gauss_jacobi_radial's cache: a float count equal to a cached
# int must reach the count check, not be served that int's rule
@lru_cache(maxsize=64, typed=True)
def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on (-1, 1), exact for polynomials of degree 2n-1.

    Nodes are found by Newton iteration from the Chebyshev-angle initial
    guesses; each root is polished to machine precision.
    """
    n = _check_count(n, 1, "gauss_legendre node count")
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NonConvergentError(f"Newton iteration for {n}-point rule did not settle")
    p, dp = _legendre_pair(n, x)
    w = 2.0 / ((1 - x * x) * dp * dp)
    order = np.argsort(x)
    return QuadratureRule(x[order], w[order], (-1.0, 1.0))


@lru_cache(maxsize=256, typed=True)
def gauss_jacobi_radial(n: int, gamma: float) -> QuadratureRule:
    """Gauss rule on (0, 1) for the weight (1 - t)^gamma dt, gamma > -1.

    Built by the Golub-Welsch method: the symmetric tridiagonal matrix of
    the monic Jacobi (alpha=gamma, beta=0) recurrence is diagonalized by
    ``numpy.linalg.eigh`` and the rule is mapped from (-1, 1) onto (0, 1).
    Total weight is the exact moment 1/(gamma + 1).  No route in the
    package calls it; ``inner_product`` sums exact beta moments instead.
    """
    n = _check_count(n, 1, "gauss_jacobi_radial node count")
    g = _check_weight(gamma)
    diag = np.empty(n)
    diag[0] = -g / (g + 2)
    k = np.arange(1, n, dtype=float)
    if n > 1:
        diag[1:] = -(g * g) / ((2 * k + g) * (2 * k + g + 2))
    off = np.sqrt(4 * k**2 * (k + g) ** 2 / ((2 * k + g) ** 2 * ((2 * k + g) ** 2 - 1)))
    # eigh reads only the lower triangle
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    # moment of (1-x)^g on (-1,1) is 2^(g+1)/(g+1); the map t=(x+1)/2
    # contributes 2^(-g-1), leaving total mass 1/(g+1)
    w = v[0, :] ** 2 / (g + 1)
    t = (x + 1) / 2
    return QuadratureRule(t, w, (0.0, 1.0))


def _beta_complete(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _beta_series_head(a: float, b: float, t0: float) -> float:
    """Exact small-t expansion of int_0^t0 t^(a-1)(1-t)^(b-1) dt.

    Expands (1-t)^(b-1) about t=0; converges geometrically for t0 < 1/2.
    """
    acc = 0.0
    c = 1.0
    i = 0
    while True:
        term = c * t0 ** (a + i) / (a + i)
        acc += term
        if abs(term) <= 1e-18 * abs(acc) and i > 2:
            return acc
        if i > 500:
            raise NonConvergentError("small-t beta expansion stalled")
        c *= (1 - b + i) / (i + 1)
        i += 1


def _beta_quad_check(a: float, b: float, x: float) -> float:
    """Quadrature value of int_0^x t^(a-1)(1-t)^(b-1) dt.

    The integrand has branch points at t=0 and t=1, so a single Gauss rule
    is not enough for non-integer parameters.  The first dyadic slice near
    0 is summed by an exact series and the rest is covered by panels graded
    geometrically toward both ends, each handled by a 32-point rule; all
    panels are evaluated together as one (panels x 32) array.  1 - t is
    taken as (1 - lo) - s for the node t = lo + s of the panel starting at
    lo, where 1 - lo is exact for lo >= 1/2: near the rim, 1 - t itself
    would keep little more than the rounding error of t.
    """
    rule = gauss_legendre(32)
    half = 0.5 * (rule.nodes + 1)

    t0 = x * 2.0**-8
    head = _beta_series_head(a, b, t0)
    # panels graded toward x as well; depth grows as x -> 1 so the last
    # panel stays short relative to its distance from the t=1 branch point
    depth = max(7, int(math.ceil(math.log2(max(x / (1 - x), 1.0)))) + 4)
    pts = ([x * 2.0**k for k in range(-8, 0)]                    # t0 .. x/2
           + [x - (x / 2) * 2.0**-k for k in range(1, depth + 1)] + [x])
    lo, width = map(np.array, zip(*[(p, q - p) for p, q in zip(pts, pts[1:]) if q > p]))
    s = width[:, None] * half
    vals = (lo[:, None] + s) ** (a - 1) * ((1 - lo)[:, None] - s) ** (b - 1)
    return head + float(width @ (vals @ rule.weights)) / 2


def _beta_closed(a: float, b: float, x: float) -> float:
    return (x**a / a) * (1 - x) ** b * hyp2f1(1.0, a + b, a + 1.0, x)


# Memoised: the monomial Cauchy route asks for the same few hundred
# integrals thousands of times per verify pass.  typed, as gauss_legendre's
# cache: an int argument and the equal float are separate keys, so every
# call returns what it would return uncached.  A call that raises is not
# cached, so it raises again when repeated.
@lru_cache(maxsize=4096, typed=True)
def _incomplete_beta(a: float, b: float, x: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"exponent parameters must be finite, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if a <= 0:
        raise DomainError(f"first exponent parameter must be positive, got {a}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        if b <= 0:
            raise DomainError(f"full integral needs b > 0, got {b}")
        return _beta_complete(a, b)
    if b <= -1:
        raise DomainError(f"second exponent parameter must exceed -1, got {b}")
    if x > (a + 1) / (a + b + 2) and b > 0:
        # past x = (a+1)/(a+b+2) (Numerical Recipes 6.4) the upper piece is
        # the smaller one, so B(a, b) minus it cannot cancel; below that
        # point the lower piece is the smaller one and is summed directly
        closed = _beta_complete(a, b) - _beta_closed(b, a, 1.0 - x)
    else:
        closed = _beta_closed(a, b, x)
    quad = _beta_quad_check(a, b, x)
    if abs(closed - quad) > _BETA_CHECK_TOL * max(abs(closed), abs(quad)):
        raise NonConvergentError(
            f"incomplete beta routes disagree: closed={closed!r} quadrature={quad!r}"
        )
    return closed


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Incomplete beta integral of t^(a-1)(1-t)^(b-1) over [0, x].

    The integral over [x, 1] is ``incomplete_beta(b, a, 1 - x)``.  The
    value comes from the closed hypergeometric form
    (x^a / a)(1-x)^b 2F1(1, a+b; a+1; x) and every interior call is
    cross-checked against composite Gauss quadrature of the defining
    integral; disagreement beyond ``_BETA_CHECK_TOL`` (relative) raises
    NonConvergentError since it signals a defect in one of the routes.
    The check runs once per distinct argument: results are memoised.
    Needs real a, b and x, with finite a > 0 and b > -1 (b > 0 when
    x = 1).
    """
    try:
        return _incomplete_beta(a, b, x)
    except TypeError:
        # an argument that is no real number: unhashable, so the cache
        # refused it, or not comparable with floats in the checks
        raise DomainError(
            f"incomplete_beta needs real a, b and x, got ({a!r}, {b!r}, {x!r})") from None


incomplete_beta.cache_info = _incomplete_beta.cache_info
incomplete_beta.cache_clear = _incomplete_beta.cache_clear
