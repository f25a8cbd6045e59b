"""The package's public names are its modules' ``__all__`` lists, its
sources parse at the oldest Python it supports, bad arguments at its
entry points raise its own errors, not bare Python ones, and every route
returns a finite value or raises one of those errors."""

import ast
import cmath
import importlib
import inspect
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskpoly
from diskpoly import (CAUCHY_ROUTES, MONOMIAL_ROUTES, ROUTES, DiskExpr, DiskPolyError, DomainError,
                      NonConvergentError, ZernikeParams, cauchy_closed_line, cauchy_direct_2d,
                      cauchy_zernike_closed, cauchy_zernike_quad, eval_explicit, eval_expr,
                      eval_gauss1, eval_gauss2, eval_jacobi, eval_rodrigues, gauss_jacobi_radial,
                      gauss_legendre, hermite, hermite_limit_error, hyp2f1, incomplete_beta,
                      jacobi_line, jacobi_p, pochhammer, value_at_origin)
from diskpoly.suites import run_suite
from diskpoly.zernike import INDEX_CAP

MODULES = ("errors", "numerics", "algebra", "zernike", "spectral", "cauchy")


def test_every_module_name_is_the_same_object_on_the_package():
    for short in MODULES:
        mod = importlib.import_module("diskpoly." + short)
        for name in mod.__all__:
            assert getattr(diskpoly, name) is getattr(mod, name), f"{short}.{name}"


def test_package_exports_nothing_else():
    names = {name for short in MODULES
             for name in importlib.import_module("diskpoly." + short).__all__}
    public = {name for name, value in vars(diskpoly).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == names


def test_sources_parse_at_the_python_floor():
    # a best-effort check of requires-python = ">=3.10": ast's
    # feature_version rejects much newer syntax (except*, type aliases),
    # but not every newer grammar rule, and no newer library call
    root = Path(__file__).resolve().parent.parent
    files = sorted(p for d in ("src", "tests", "bench", "demos")
                   for p in (root / d).rglob("*.py"))
    assert len(files) >= 29
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("call, error", [
    (lambda: hermite_limit_error(1, 1, 0.3, "abc"), DomainError),
    (lambda: hermite_limit_error(1, 1, 0.3, None), DomainError),
    (lambda: hyp2f1("a", 1, 1, 0.5), DomainError),
    (lambda: incomplete_beta("a", 1, 0.5), DomainError),
    (lambda: jacobi_p(2, "a", 0.5, 0.3), DomainError),
    (lambda: jacobi_p(2, 0.5, 0.5, "x"), DomainError),
    (lambda: pochhammer("a", 2), DomainError),
    (lambda: eval_expr(DiskExpr.one(), "abc"), DomainError),
    (lambda: eval_expr(DiskExpr.z_power(1), "0.3"), DomainError),
    (lambda: hermite(64, 64, 1e300), NonConvergentError),
    (lambda: next(jacobi_line("a", 0.5, 0.3, 2)), DomainError),
    (lambda: next(cauchy_closed_line(1, 0.5, 0.3, "2")), DomainError),
    (lambda: next(cauchy_closed_line(65, 0.5, 0.3, 0)), DomainError),
    (lambda: incomplete_beta([1], 1, 0.5), DomainError),
    (lambda: incomplete_beta(1, 1, np.array([0.5])), DomainError),
    (lambda: hermite(8, 8, 1e20 + 1e20j), NonConvergentError),
    (lambda: DiskExpr({(1, 0): 1}), DomainError),
    (lambda: DiskExpr([((0, 0, 0), 1)]), DomainError),
    (lambda: DiskExpr({(1, 0, 0): "a"}), DomainError),
    (lambda: DiskExpr({(1.5, 0, 0): 1}), DomainError),
    (lambda: DiskExpr({(0, 0, 0): 1}, float("nan")), DomainError),
    (lambda: DiskExpr({(0, 0, 0): 1}, "x"), DomainError),
    # one past each size cap: the count check raises before any allocation
    (lambda: gauss_legendre(4097), DomainError),
    (lambda: gauss_jacobi_radial(1025, 0.5), DomainError),
    (lambda: cauchy_direct_2d(lambda w: 1.0, 0.5, 0.3, n_r=1025), DomainError),
    (lambda: cauchy_direct_2d(lambda w: 1.0, 0.5, 0.3, n_theta=2049), DomainError),
    (lambda: run_suite("hermite", 2.5), DomainError),
    (lambda: run_suite("hermite", "8"), DomainError),
    (lambda: run_suite("hermite", 1, gammas=("x",)), DomainError),
    (lambda: run_suite("hermite", 1, gammas=0.5), DomainError),
    (lambda: run_suite("hermite", 1, seed="a"), DomainError),
    (lambda: run_suite("hermite", 1, seed=1.5), DomainError),
    (lambda: run_suite(["hermite"], 1), DomainError),
], ids=["rho-str", "rho-none", "hyp2f1", "incomplete-beta", "jacobi-p-alpha", "jacobi-p-x",
        "pochhammer", "eval-expr-str", "eval-expr-numeric-str", "hermite-overflow",
        "jacobi-line-k", "closed-line-s-max", "closed-line-past-cap", "incomplete-beta-list",
        "incomplete-beta-ndarray", "hermite-non-finite", "disk-expr-pair-key",
        "disk-expr-list", "disk-expr-str-coeff", "disk-expr-float-key",
        "disk-expr-nan-offset", "disk-expr-str-offset", "legendre-past-cap",
        "jacobi-radial-past-cap", "direct-2d-radial-past-cap", "direct-2d-angular-past-cap",
        "suite-max-mn-float", "suite-max-mn-str", "suite-gamma-str", "suite-gammas-float",
        "suite-seed-str", "suite-seed-float", "suite-name-list"])
def test_bad_arguments_raise_package_errors(call, error):
    with pytest.raises(error):
        call()


# The finite-or-raise contract.  gamma is drawn in bands up to 1e300, with
# 318.8 and 514, where routes once returned nan or inf; |z| is 0, 1e-300,
# uniform, 1 - 2^-k or the rim.
WEIGHTS = st.one_of(st.floats(-1.0, 0.0, exclude_min=True), st.floats(0.0, 10.0),
                    st.floats(1.0, 300.0).map(lambda e: 10.0 ** e),
                    st.sampled_from([318.8, 514.0]))
RADII = st.one_of(st.sampled_from([0.0, 1e-300, 1.0]), st.floats(0.0, 1.0),
                  st.integers(1, 53).map(lambda k: 1.0 - 2.0 ** -k))
POINTS = st.builds(lambda r, t: r * cmath.exp(1j * t), RADII, st.floats(0.0, 2.0 * math.pi))


def _finite_or_package_error(call):
    """Every value call() returns, or yields for a line, is finite, unless
    it raises a DiskPolyError."""
    try:
        values = list(call()) if call.func in (jacobi_line, cauchy_closed_line) else [call()]
    except DiskPolyError:
        return
    assert all(np.isfinite(v).all() for v in values), (call, values)


@given(st.integers(0, 64), st.integers(0, 64), st.integers(0, 4), WEIGHTS, POINTS)
@settings(max_examples=200, deadline=None)
def test_every_route_returns_finite_or_raises(m, n, k, g, z):
    p = ZernikeParams(m, n, g)
    zs = np.array([z, -z.conjugate()])
    # the exact route's ints grow with gamma's bit length: (64, 64) at
    # gamma = 1e300 takes about 0.5 s, so it runs at smaller sizes only
    routes = [f for name, f in ROUTES.items() if name != "rodrigues" or m + n <= 16 or g < 1e6]
    calls = ([partial(f, p, z) for f in routes]
             + [partial(CAUCHY_ROUTES[name], p, w) for name in ("closed", "quad") for w in (z, zs)]
             + [partial(f, n, m, k, g, z) for f in MONOMIAL_ROUTES.values()]
             + [partial(value_at_origin, p), partial(eval_explicit, p, zs)]
             + [partial(jacobi_line, n - m, g, w, INDEX_CAP - abs(n - m)) for w in (z, zs)])
    if n - m > -INDEX_CAP:  # the transform's line holds members with n >= 1
        top = INDEX_CAP - max(n - m, 1 - (n - m))
        calls += [partial(cauchy_closed_line, n - m, g, w, top) for w in (z, zs)]
    for call in calls:
        _finite_or_package_error(call)


def test_routes_raise_where_their_value_is_lost():
    # the explicit sum's coefficients overflow here, though the value,
    # 4.2e296 + 3.0e296i, fits a float: routes that overflow raise, and
    # the two that reach the value give it
    p, z = ZernikeParams(63, 58, 318.8), complex(-0.698, -0.385)
    for route in (eval_explicit, eval_gauss1, eval_gauss2, cauchy_zernike_quad):
        with pytest.raises(NonConvergentError, match="^value is not finite: nan, nan$"):
            route(p, z)
    for route in (eval_jacobi, eval_rodrigues):
        assert cmath.isfinite(route(p, z)) and abs(route(p, z)) > 5e296


def test_arrays_raise_no_warning():
    # numpy warns of nothing on an ndarray that overflows (pytest turns a
    # warning into an error); the route raises the package's error
    p, zs = ZernikeParams(64, 64, 1000.0), np.array([0.5, 0.3 + 0.2j, -0.1j, 0.0])
    for route in (eval_explicit, eval_jacobi, cauchy_zernike_closed):
        with pytest.raises(NonConvergentError, match="^value is not finite: "):
            route(p, zs)
