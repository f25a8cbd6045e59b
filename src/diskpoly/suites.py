"""Verification suites: each one turns a family of identities into report
rows by recomputing both sides through independent routes.

Error normalization uses two scales at once.  For a parameter tuple, let
S be the largest value magnitude seen across its sample points; a pair
(a, b) contributes |a - b| / max(|a|, |b|, 0.1 S).  Dividing by the
pairwise scale gives a plain relative error away from zeros of the
function, and the 0.1 S floor keeps accidental near-zeros from blowing
up an otherwise healthy row (equivalent to an absolute tolerance one
decade under the relative one, measured against the tuple's scale).

One failure rule holds for every row: a route that raises a DiskPolyError
gives NaN for its value, and a NaN or infinite error fails the row, so
the suite goes on.  A tolerance of report.INFORMATIONAL gates on nothing
else; the suite uses it where two published variants of an identity
disagree and the point is to document both residuals rather than assume
either.
"""

import math

import numpy as np

from .algebra import _max_or_nan, add, max_abs_coeff, scale
from .cauchy import (
    cauchy_direct_2d,
    cauchy_monomial_2f1,
    cauchy_monomial_closed,
    cauchy_zernike_closed,
    cauchy_zernike_quad,
)
from .errors import DiskPolyError, DomainError, NonConvergentError
from .numerics import _check_count, _check_weight, _modulus
from .report import INFORMATIONAL, ReportRow, VerifyReport, checked_row, make_report
from .sampling import Lcg64, disk_points
from .spectral import (
    SpectralParams,
    bridge_pair,
    eigen_residual,
    factorization_residuals,
)
from .zernike import (
    ROUTES,
    ZernikeParams,
    contour_row,
    eval_explicit,
    hermite,
    hermite_limit_error,
    inner_product,
    norm_squared,
)

__all__ = ["SUITE_NAMES", "run_suite", "normalized_deviation"]

DEFAULT_GAMMAS = (-0.5, 0.0, 1.0, 2.5)
DEFAULT_SEED = 2024
_TINY = 1e-250


def normalized_deviation(a: complex, b: complex, s_param: float) -> float:
    """|a - b| over the two-scale denominator described in the module doc."""
    return _modulus(a - b) / max(_modulus(a), _modulus(b), 0.1 * s_param, _TINY)


def _or_nan(func, *args):
    """func(*args), or NaN if it raises a DiskPolyError."""
    try:
        return func(*args)
    except DiskPolyError:
        return math.nan


def _worst(values, ref, s: float) -> float:
    """Largest normalized deviation of a row's values from its reference
    values, taken point by point in order; NaN if any deviation is NaN."""
    return _max_or_nan(normalized_deviation(a, b, s) for a, b in zip(values, ref, strict=True))


def _grid(max_mn: int, gammas):
    """Yield (params, label) for every weight and index pair up to max_mn."""
    for g in gammas:
        for m in range(max_mn + 1):
            for n in range(max_mn + 1):
                yield ZernikeParams(m, n, g), f"gamma={g:g} m={m} n={n}"


def _contour_grid(max_mn: int, gammas, zs: np.ndarray, *rules):
    """Yield (params, label, *contour values) over ``_grid``: the member's
    values at zs as a list, all NaN if it raises NonConvergentError, under
    each rule (None for the adaptive rule, else a node count).  One
    ``contour_row`` per (gamma, m) and rule serves the members n <= max_mn."""
    nan = [math.nan] * len(zs)
    for p, params in _grid(max_mn, gammas):
        if p.n == 0:
            rows = [[nan if isinstance(v, NonConvergentError) else v.tolist()
                     for v in contour_row(p.m, p.gamma, zs, max_mn, rule)] for rule in rules]
        yield p, params, *(row[p.n] for row in rows)


def _reference(p: ZernikeParams, pts) -> tuple[list, float]:
    """Explicit-route values at the points, and their largest magnitude S."""
    ref = [_or_nan(eval_explicit, p, z) for z in pts]
    return ref, max(_modulus(v) for v in ref)


# ---------------------------------------------------------------- routes

def suite_routes(max_mn: int, gammas, seed: int) -> list[ReportRow]:
    pts = disk_points(seed, 6, 0.95)
    pts_contour = disk_points(seed + 1, 6, 0.8)
    routes = dict(ROUTES)
    del routes["explicit"], routes["contour"]  # the referee, and the row path below
    rows = []
    for p, params, contour in _contour_grid(max_mn, gammas, np.array(pts_contour), None):
        ref, s = _reference(p, pts + pts_contour)
        for route, func in routes.items():
            err = _worst([_or_nan(func, p, z) for z in pts], ref[:len(pts)], s)
            rows.append(checked_row(f"{route}_vs_explicit", params, err, 1e-9))
        err = _worst(contour, ref[len(pts):], s)
        rows.append(checked_row("contour_vs_explicit", params, err, 1e-9))
    return rows


# -------------------------------------------------------- orthogonality

def suite_orthogonality(max_mn: int, gammas, seed: int) -> list[ReportRow]:
    cap = min(max_mn, 5)
    pairs = [(m, n) for m in range(cap + 1) for n in range(cap + 1)]
    rows = []
    for g in gammas:
        norms = {mn: math.sqrt(_or_nan(norm_squared, ZernikeParams(*mn, g))) for mn in pairs}
        base = _or_nan(inner_product, ZernikeParams(0, 0, g), ZernikeParams(0, 0, g))
        ref = math.pi / (g + 1.0)
        rows.append(checked_row("norm_base", f"gamma={g:g}",
                                abs(base - ref) / ref, 1e-12))
        for i, mn1 in enumerate(pairs):
            for mn2 in pairs[i + 1:]:
                ip = _or_nan(inner_product, ZernikeParams(*mn1, g), ZernikeParams(*mn2, g))
                err = abs(ip) / (norms[mn1] * norms[mn2])
                params = (f"gamma={g:g} m1={mn1[0]} n1={mn1[1]}"
                          f" m2={mn2[0]} n2={mn2[1]}")
                rows.append(checked_row("inner_product_zero", params, err, 1e-11))
    return rows


# --------------------------------------------------------------- contour

def suite_contour(max_mn: int, gammas, seed: int) -> list[ReportRow]:
    pts = disk_points(seed + 2, 8, 0.8)
    rows = []
    for p, params, adaptive, fixed in _contour_grid(max_mn, gammas, np.array(pts), None, 512):
        ref, s = _reference(p, pts)
        adaptive, fixed = _worst(adaptive, ref, s), _worst(fixed, ref, s)
        rows.append(checked_row("contour_adaptive_vs_explicit", params, adaptive, 1e-10))
        rows.append(checked_row("contour_fixed512_vs_explicit", params, fixed, 1e-9))
    return rows


# ---------------------------------------------------------------- cauchy

def suite_cauchy(max_mn: int, gammas, seed: int) -> list[ReportRow]:
    cap = min(max_mn, 5)
    pts = disk_points(seed + 3, 10, 0.8)
    rows = []

    # index-shift identity against the monomial route, 1 <= m, n <= cap.
    # The proven index ordering is n <= m; for n > m the published text
    # states two different index patterns, so record both residuals and
    # gate only the one the oracles support
    for p, params in _grid(cap, gammas):
        if p.m == 0 or p.n == 0:
            continue
        quad = [_or_nan(cauchy_zernike_quad, p, z) for z in pts]
        s = max(_modulus(v) for v in quad)
        err = _worst([_or_nan(cauchy_zernike_closed, p, z) for z in pts], quad, s)
        same = "cauchy_shift_closed_vs_quad" if p.n <= p.m else "cauchy_shift_same_pattern"
        rows.append(checked_row(same, params, err, 1e-9))
        if p.n > p.m:
            g1 = p.gamma + 1.0
            swapped = ZernikeParams(p.n, p.m - 1, g1)
            printed = _worst([(1.0 - abs(z) ** 2) ** g1 * _or_nan(eval_explicit, swapped, z)
                              for z in pts], quad, s)
            rows.append(checked_row(
                "cauchy_shift_swapped_pattern", params, printed, INFORMATIONAL))

    # monomial transform: hypergeometric form against the beta form
    rng = Lcg64(seed + 4)
    zs = disk_points(seed + 5, 200, 0.95)
    for i in range(200):
        a = int(rng.uniform() * 5)
        b = int(rng.uniform() * 5)
        p, q = max(a, b), min(a, b)
        k = int(rng.uniform() * 4)
        g = gammas[i % len(gammas)]
        z = zs[i]
        err = normalized_deviation(_or_nan(cauchy_monomial_closed, p, q, k, g, z),
                                   _or_nan(cauchy_monomial_2f1, p, q, k, g, z), 0.0)
        rows.append(checked_row(
            "cauchy_monomial_2f1_vs_closed",
            f"gamma={g:g} i={i:03d} k={k} p={p} q={q}", err, 1e-10))

    # brute-force 2D oracle spot checks
    cases = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (4, 4), (2, 0), (0, 2),
             (3, 0), (5, 1)]
    for i, (m, n) in enumerate(cases):
        g = gammas[i % len(gammas)]
        z = pts[i % len(pts)]
        p = ZernikeParams(m, n, g)
        err = normalized_deviation(
            _or_nan(cauchy_zernike_quad, p, z),
            _or_nan(cauchy_direct_2d, lambda w: eval_explicit(p, w), g, z, 96, 192), 0.0)
        rows.append(checked_row("cauchy_direct2d_spotcheck",
                                f"gamma={g:g} m={m} n={n}", err, 1e-6))
    return rows


# -------------------------------------------------------------- spectral

def _random_expr(rng: Lcg64):
    from .algebra import DiskExpr
    terms = {}
    for _ in range(1 + int(rng.uniform() * 4)):
        key = (int(rng.uniform() * 4), int(rng.uniform() * 4), int(rng.uniform() * 3))
        terms[key] = complex(rng.uniform() * 4 - 2, rng.uniform() * 4 - 2)
    offset = (0.0, 1.0, 0.5, 1.5)[int(rng.uniform() * 4)]
    return DiskExpr(terms, offset)


def _levels(nus, n_cap: int):
    """Yield (nu, m, n) for each discrete level m < nu - 1/2 (m <= 4) of each nu."""
    for nu in nus:
        for m in range(min(4, math.ceil(nu - 0.5) - 1) + 1):
            for n in range(n_cap + 1):
                yield nu, m, n


def suite_spectral(max_mn: int, gammas, seed: int) -> list[ReportRow]:
    rows = []
    n_cap = min(max_mn, 4)
    for nu, m, n in _levels((2.0, 2.5, 6.0), n_cap):
        rows.append(checked_row(
            "eigen_residual", f"m={m} n={n} nu={nu:g}",
            eigen_residual(SpectralParams(nu, m, n)), 1e-10))

    rng = Lcg64(seed + 6)
    for i in range(50):
        nu = (1.0, 2.5, 6.0)[i % 3]
        e = _random_expr(rng)
        err = _max_or_nan(factorization_residuals(nu, e))
        rows.append(checked_row("ladder_factorization", f"i={i:02d} nu={nu:g}",
                                err, 1e-10))

    for nu, m, n in _levels((1.6, 2.5, 6.0), n_cap):
        lhs, rhs = bridge_pair(SpectralParams(nu, m, n))
        diff = max_abs_coeff(add(lhs, scale(rhs, -1.0)))
        ref = max(max_abs_coeff(lhs), _TINY)
        rows.append(checked_row(
            "ladder_bridge", f"m={m} n={n} nu={nu:g}", diff / ref, 1e-10))
    return rows


# --------------------------------------------------------------- hermite

def suite_hermite(max_mn: int, gammas, seed: int) -> list[ReportRow]:
    z = disk_points(seed + 7, 1, 0.8)[0]
    rows = []
    cap = min(max_mn, 4)
    for m in range(cap + 1):
        for n in range(cap + 1):
            errs = [hermite_limit_error(m, n, z, rho) for rho in (10.0, 100.0, 1000.0)]
            if errs[0] == 0.0 and errs[1] == 0.0 and errs[2] == 0.0:
                ratio = 0.0
            elif errs[0] > 0.0 and errs[1] > 0.0:
                ratio = _max_or_nan((errs[1] / errs[0], errs[2] / errs[1]))
            else:
                ratio = math.nan
            rows.append(checked_row("hermite_limit_monotone", f"m={m} n={n}",
                                    ratio, 1.0))
    for m in range(min(max_mn, 6) + 1):
        for n in range(min(max_mn, 6) + 1):
            expected = float((-1) ** m * math.factorial(m)) if m == n else 0.0
            err = abs(hermite(m, n, 0j) - expected)
            rows.append(checked_row("hermite_origin_delta", f"m={m} n={n}",
                                    err, 1e-300))
    return rows


SUITES = {
    "routes": suite_routes,
    "orthogonality": suite_orthogonality,
    "contour": suite_contour,
    "cauchy": suite_cauchy,
    "spectral": suite_spectral,
    "hermite": suite_hermite,
}

SUITE_NAMES = tuple(sorted(SUITES)) + ("all",)


def run_suite(name: str, max_mn: int = 4, gammas=DEFAULT_GAMMAS,
              seed: int = DEFAULT_SEED) -> VerifyReport:
    """Build the named suite's report (or every suite under "all").  max_mn
    is an integer in 0..8, gammas an iterable of weight exponents, and seed
    any integer; anything else raises DomainError."""
    max_mn = _check_count(max_mn, 0, "max_mn", 8)
    try:
        gammas = tuple(map(_check_weight, gammas))
    except TypeError:  # not iterable
        raise DomainError(f"gammas must be an iterable of weight exponents, "
                          f"got {gammas!r}") from None
    if not gammas:
        raise DomainError("need at least one weight exponent")
    seed = _check_count(seed, -math.inf, "seed")
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}")
    rows = []
    for key in sorted(SUITES) if name == "all" else (name,):
        rows.extend(SUITES[key](max_mn, gammas, seed))
    return make_report(name, rows)
