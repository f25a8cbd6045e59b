"""Tests for the polynomial evaluation routes and inner products."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from diskpoly import algebra
from diskpoly.errors import DomainError, NonConvergentError, ParamMismatchError
from diskpoly.numerics import pochhammer
from diskpoly.sampling import disk_points
from diskpoly.suites import normalized_deviation
from diskpoly.zernike import (
    ROUTES,
    ZernikeParams,
    _explicit_terms,
    eval_contour,
    eval_contour_adaptive,
    eval_explicit,
    eval_gauss1,
    eval_gauss2,
    eval_jacobi,
    eval_rodrigues,
    eval_route,
    explicit_expr,
    hermite,
    hermite_limit_error,
    inner_product,
    monomial_coeffs,
    norm_squared,
    rodrigues_expr,
    value_at_origin,
)


class TestParams:
    def test_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            ZernikeParams(-1, 0, 0.0)
        with pytest.raises(DomainError):
            ZernikeParams(0, 65, 0.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(DomainError):
            ZernikeParams(1, 1, -1.0)
        with pytest.raises(DomainError):
            ZernikeParams(1, 1, float("nan"))

    def test_gamma_coerced_to_float(self):
        assert ZernikeParams(1, 1, 2).gamma == 2.0


class TestKnownValues:
    def test_low_degree_closed_forms(self):
        # (1,1): (g+2)((g+2)|z|^2 - 1); (1,0): (g+1) conj(z); (0,1): (g+1) z
        z = 0.5
        assert eval_explicit(ZernikeParams(1, 1, 0.0), z) == pytest.approx(-1.0)
        g = 0.75
        z = 0.3 - 0.2j
        want = (g + 2) * ((g + 2) * abs(z) ** 2 - 1)
        assert eval_explicit(ZernikeParams(1, 1, g), z) == pytest.approx(want, rel=1e-14)
        assert eval_explicit(ZernikeParams(1, 0, g), z) == pytest.approx(
            (g + 1) * z.conjugate(), rel=1e-14)
        assert eval_explicit(ZernikeParams(0, 1, g), z) == pytest.approx(
            (g + 1) * z, rel=1e-14)

    def test_frozen_oracle_value(self):
        # frozen oracle value: symmetric-prefactor Jacobi formula evaluated with
        # scipy.special.eval_jacobi (independent of the local recurrence)
        p = ZernikeParams(3, 2, 0.5)
        want = -30.456131835937494 - 47.8596357421875j
        assert eval_explicit(p, 0.35 - 0.55j) == pytest.approx(want, rel=1e-12)
        p = ZernikeParams(2, 5, -0.5)
        want = -1192.1074020812994 - 155.11497588500956j
        assert eval_explicit(p, 0.35 - 0.55j) == pytest.approx(want, rel=1e-12)

    def test_origin_closed_form(self):
        assert value_at_origin(ZernikeParams(1, 1, 0.0)) == -2.0
        assert value_at_origin(ZernikeParams(2, 2, 0.0)) == 24.0
        assert value_at_origin(ZernikeParams(2, 1, 3.0)) == 0.0

    def test_origin_matches_explicit_exactly(self):
        for m in range(9):
            for n in range(9):
                for g in (-0.5, 0.0, 1.0, 2.5):
                    p = ZernikeParams(m, n, g)
                    assert eval_explicit(p, 0j) == complex(value_at_origin(p)), p

    def test_boundary_modulus(self):
        # on |z| = 1 only the u^0 term survives, so the modulus is the
        # leading Pochhammer factor exactly
        for (m, n, g) in [(3, 2, 1.5), (0, 4, -0.5), (5, 5, 0.0)]:
            p = ZernikeParams(m, n, g)
            v = eval_explicit(p, cmath.exp(0.7j))
            assert abs(v) == pytest.approx(pochhammer(g + 1, m + n), rel=1e-12)

    def test_conjugation_symmetry(self):
        z = 0.4 + 0.35j
        for (m, n) in [(2, 1), (0, 3), (4, 4)]:
            a = eval_explicit(ZernikeParams(m, n, 0.5), z)
            b = eval_explicit(ZernikeParams(n, m, 0.5), z)
            assert a == pytest.approx(b.conjugate(), rel=1e-13)


class TestExplicitKernel:
    def test_matches_high_precision_sum(self):
        # the same double sum, summed at 50 digits
        mpmath = pytest.importorskip("mpmath")
        points = (0.3 - 0.4j, 0.9 + 0.1j, 0.05j, -0.7 + 0.6j)
        with mpmath.workdps(50):
            for m, n in ((8, 8), (12, 12), (12, 5)):
                for g in (-0.5, 0.5, 2.5):
                    p = ZernikeParams(m, n, g)
                    for z in points:
                        w = mpmath.mpc(z)
                        u = 1 - mpmath.mpf(z.real) ** 2 - mpmath.mpf(z.imag) ** 2
                        ref = mpmath.fsum(
                            (-1) ** j * math.comb(m, j) * math.comb(n, j) * math.factorial(j)
                            * mpmath.rf(g + j + 1, m + n - j)
                            * u**j * mpmath.conj(w) ** (m - j) * w ** (n - j)
                            for j in range(min(m, n) + 1))
                        got = eval_explicit(p, z)
                        rel = abs(got - complex(ref)) / abs(complex(ref))
                        assert rel <= 1e-11, (m, n, g, z, rel)

    def test_norm_closed_form(self):
        # ||P||^2 = pi m! n! (g+1)_{m+n}^2 / ((g+m+n+1) (g+1)_m (g+1)_n)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for g in (-0.5, 0.0, 1 / 3, 2.5):
                gm = mpmath.mpf(g)
                for m in range(7):
                    for n in range(7):
                        ref = (mpmath.pi * math.factorial(m) * math.factorial(n)
                               * mpmath.rf(gm + 1, m + n) ** 2
                               / ((gm + m + n + 1) * mpmath.rf(gm + 1, m) * mpmath.rf(gm + 1, n)))
                        got = norm_squared(ZernikeParams(m, n, g))
                        assert got == pytest.approx(float(ref), rel=1e-13), (m, n, g)

    def test_cache_keeps_exact_and_float_apart(self):
        # 0.5 == Fraction(1, 2) with equal hashes: an untyped cache would
        # hand the float terms to the exact inner product
        _explicit_terms.cache_clear()
        floats = _explicit_terms(3, 3, 0.5)
        exact = _explicit_terms(3, 3, Fraction(1, 2))
        assert all(type(c) is float for *_, c in floats)
        assert all(type(c) is Fraction for *_, c in exact)
        assert [float(c) for *_, c in exact] == [c for *_, c in floats]


class TestRouteAgreement:
    def test_cross_route_grid(self):
        pts = disk_points(seed=424242, count=6, rmax=0.9)
        for (m, n, g) in [(0, 0, 0.0), (1, 2, -0.5), (3, 3, 1.0), (5, 2, 2.5), (2, 6, 0.0)]:
            p = ZernikeParams(m, n, g)
            for z in pts:
                ref = eval_explicit(p, z)
                scale = max(abs(ref), 1.0)
                for route in ("gauss1", "gauss2", "jacobi", "rodrigues"):
                    got = eval_route(p, z, route)
                    assert abs(got - ref) <= 1e-10 * scale, (p, z, route)

    def test_contour_fixed_and_adaptive(self):
        p = ZernikeParams(2, 3, 0.5)
        z = 0.3 + 0.4j
        ref = eval_explicit(p, z)
        assert eval_contour(p, z, 4096) == pytest.approx(ref, rel=1e-12)
        assert eval_contour_adaptive(p, z) == pytest.approx(ref, rel=1e-9)

    def test_contour_near_origin_vanishes_off_diagonal(self):
        p = ZernikeParams(2, 1, 0.5)
        assert abs(eval_contour_adaptive(p, 1e-12 + 0j)) < 1e-10

    def test_contour_nonconvergent_when_capped(self):
        p = ZernikeParams(1, 1, 0.0)
        with pytest.raises(NonConvergentError):
            eval_contour_adaptive(p, 0.97 + 0j, max_nodes=128)

    def test_gauss_routes_reject_origin(self):
        # |z|^2 of 1e-200 underflows to 0: the origin, not a ZeroDivisionError
        p = ZernikeParams(1, 1, 0.0)
        for z in (0j, 1e-200 + 0j):
            with pytest.raises(DomainError, match="origin"):
                eval_gauss1(p, z)
            with pytest.raises(DomainError, match="origin"):
                eval_gauss2(p, z)

    def test_outside_disk_rejected(self):
        p = ZernikeParams(1, 1, 0.0)
        with pytest.raises(DomainError):
            eval_explicit(p, 1.5 + 0j)
        with pytest.raises(DomainError):
            eval_contour(p, 1.0 + 0j, 64)
        # a NaN coordinate is outside the disk for every route
        for z in (complex(math.nan, 0.0), complex(0.0, math.nan)):
            for route in ROUTES:
                with pytest.raises(DomainError, match="disk"):
                    eval_route(p, z, route)
            with pytest.raises(DomainError, match="disk"):
                eval_contour(p, z, 64)

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            eval_route(ZernikeParams(1, 1, 0.0), 0.5, "magic")


class TestArrayInput:
    """eval_explicit on ndarrays of points: same numbers, same domain check."""

    CASES = [(0, 0, 0.0), (1, 2, -0.5), (3, 3, 0.5), (8, 5, 2.5), (2, 7, 1.0)]

    def test_arrays_match_scalar_calls(self):
        pts = np.array(disk_points(8101, 24, 1.0))
        for m, n, g in self.CASES:
            p = ZernikeParams(m, n, g)
            want = np.array([eval_explicit(p, complex(z)) for z in pts])
            s = float(np.max(np.abs(want)))
            for shape in ((24,), (4, 6)):
                got = eval_explicit(p, pts.reshape(shape))
                assert isinstance(got, np.ndarray) and got.shape == shape
                err = max(normalized_deviation(a, b, s)
                          for a, b in zip(got.ravel(), want))
                assert err < 1e-12, (m, n, g, shape, err)

    def test_scalar_input_gives_python_complex(self):
        p = ZernikeParams(3, 2, 0.5)
        for z in (0.3 - 0.2j, 0.4, np.complex128(0.3 - 0.2j), np.array(0.3 - 0.2j)):
            assert type(eval_explicit(p, z)) is complex
        assert eval_explicit(p, np.array(0.3 - 0.2j)) == eval_explicit(p, 0.3 - 0.2j)

    def test_real_and_boundary_arrays(self):
        p = ZernikeParams(2, 1, 0.5)
        got = eval_explicit(p, np.array([0.5, -1.0, 1.0]))
        assert got.dtype == complex
        assert got[0] == eval_explicit(p, 0.5)
        assert np.allclose(np.abs(got[1:]), pochhammer(1.5, 3), rtol=1e-12)

    def test_any_point_outside_rejected(self):
        p = ZernikeParams(1, 1, 0.0)
        pts = np.array([0.1 + 0.2j, 0.5j, 0.9 - 0.5j, 0.0])
        with pytest.raises(DomainError):
            eval_explicit(p, pts)
        with pytest.raises(DomainError):
            eval_explicit(p, pts.reshape(2, 2))
        for nan_pts in (np.array([0.1, np.nan]), np.array([[0.2j, complex(0.0, np.nan)]])):
            with pytest.raises(DomainError):
                eval_explicit(p, nan_pts)


class TestContourNodeCount:
    P = ZernikeParams(2, 1, 0.5)
    Z = 0.3 - 0.2j

    def test_fractional_count_rejected(self):
        # a count of 100.5 would sum 101 nodes over a 100.5-step angle
        # grid: a value 0.8% off, returned without a word
        with pytest.raises(DomainError):
            eval_contour(self.P, self.Z, 100.5)
        with pytest.raises(DomainError):
            eval_contour_adaptive(self.P, self.Z, start_nodes=100.5)

    def test_numpy_integer_count_accepted(self):
        want = eval_contour(self.P, self.Z, 128)
        assert eval_contour(self.P, self.Z, np.int64(128)) == want
        assert eval_contour_adaptive(self.P, self.Z, start_nodes=np.int32(64)) == \
            eval_contour_adaptive(self.P, self.Z)


class TestRodriguesExpr:
    def test_matches_explicit_expression(self):
        for m in range(5):
            for n in range(5):
                for g in (-0.5, 0.3, 2.0):
                    p = ZernikeParams(m, n, g)
                    r = rodrigues_expr(p)
                    e = explicit_expr(p)
                    tol = 1e-11 * max(algebra.max_abs_coeff(e), 1.0)
                    assert algebra.equal(r, e, tol=tol), p

    def test_polynomial_shape(self):
        r = rodrigues_expr(ZernikeParams(3, 2, 0.5))
        assert r.base_offset == 0.0
        assert all(k >= 0 for (_, _, k) in r.terms)

    def test_golden_dump(self):
        r = rodrigues_expr(ZernikeParams(2, 1, 0.5))
        assert algebra.dump(r) == (
            "offset 0\n"
            "0 1 0 13.125 0\n"
            "0 1 1 -30.625 0\n"
        )

    def test_low_degree_forms(self):
        # (1,0): (g+1) conj(z); (0,0): 1
        r = rodrigues_expr(ZernikeParams(1, 0, 0.25))
        assert r.base_offset == 0.0 and r.terms == {(0, 1, 0): pytest.approx(1.25)}
        r0 = rodrigues_expr(ZernikeParams(0, 0, 1.5))
        assert r0.terms == {(0, 0, 0): 1.0}


class TestMonomialCoeffs:
    def test_small_example(self):
        assert monomial_coeffs(ZernikeParams(1, 1, 0.0)) == {
            (1, 1): pytest.approx(4.0), (0, 0): pytest.approx(-2.0)}

    def test_bidegree_and_charge(self):
        for (m, n, g) in [(2, 4, 0.5), (3, 1, -0.5), (4, 4, 2.0)]:
            c = monomial_coeffs(ZernikeParams(m, n, g))
            assert (n, m) in c
            # the top monomial collects one contribution per u-power
            want = sum(math.comb(m, j) * math.comb(n, j) * math.factorial(j)
                       * pochhammer(g + j + 1, m + n - j) for j in range(min(m, n) + 1))
            assert c[(n, m)] == pytest.approx(want, rel=1e-13)
            assert all(a - b == n - m for (a, b) in c)
            assert all(a <= n and b <= m for (a, b) in c)

    def test_reproduces_values(self):
        p = ZernikeParams(3, 2, 0.75)
        c = monomial_coeffs(p)
        for z in (0.4 + 0.1j, -0.2 - 0.6j):
            direct = sum(v * z**a * z.conjugate() ** b for (a, b), v in c.items())
            assert direct == pytest.approx(eval_explicit(p, z), rel=1e-12)


class TestInnerProducts:
    def test_unit_norm_value(self):
        for g in (-0.5, 0.0, 2.5):
            p = ZernikeParams(0, 0, g)
            assert inner_product(p, p) == pytest.approx(math.pi / (g + 1), rel=1e-13)

    def test_charge_selection_exact_zero(self):
        v = inner_product(ZernikeParams(1, 0, 0.5), ZernikeParams(0, 1, 0.5))
        assert v == 0.0

    def test_orthogonality(self):
        g = 0.5
        pairs = [((2, 1), (3, 2)), ((1, 1), (2, 2)), ((0, 2), (1, 3))]
        for (i1, i2) in pairs:
            p1 = ZernikeParams(*i1, g)
            p2 = ZernikeParams(*i2, g)
            bound = 1e-11 * math.sqrt(norm_squared(p1) * norm_squared(p2))
            assert abs(inner_product(p1, p2)) <= bound

    def test_mismatched_weight_rejected(self):
        with pytest.raises(ParamMismatchError):
            inner_product(ZernikeParams(1, 1, 0.5), ZernikeParams(1, 1, 0.6))

    def test_norm_against_direct_2d_grid(self):
        # crude polar-grid oracle; loose tolerance, just anchors the scale
        p = ZernikeParams(2, 1, 0.0)
        nr, nth = 400, 64
        rs = (np.arange(nr) + 0.5) / nr
        th = 2 * np.pi * np.arange(nth) / nth
        zg = rs[:, None] * np.exp(1j * th[None, :])
        vals = eval_explicit(p, zg)
        w = (1 - rs**2) ** 0.0 * rs
        approx = np.sum(np.abs(vals) ** 2 * w[:, None]) * (1.0 / nr) * (2 * np.pi / nth)
        assert norm_squared(p) == pytest.approx(float(approx), rel=1e-3)


class TestHermite:
    def test_small_closed_forms(self):
        z = 0.8 - 0.3j
        assert hermite(0, 0, z) == 1.0
        assert hermite(1, 0, z) == z.conjugate()
        assert hermite(2, 1, z) == pytest.approx(z.conjugate() ** 2 * z - 2 * z.conjugate())

    def test_origin_values(self):
        for m in range(7):
            for n in range(7):
                want = float((-1) ** m * math.factorial(m)) if m == n else 0.0
                assert hermite(m, n, 0j) == complex(want)

    @pytest.mark.parametrize("m, n", [(1.5, 2), (2, 2.0), ("2", 1)])
    def test_non_integer_indices_rejected(self, m, n):
        with pytest.raises(DomainError):
            hermite(m, n, 0.3j)

    def test_numpy_integer_indices_accepted(self):
        z = 0.8 - 0.3j
        assert hermite(np.int64(2), np.int32(1), z) == hermite(2, 1, z)

    def test_limit_error_decreases(self):
        z = 0.7 + 0.3j
        for (m, n) in [(1, 0), (2, 1), (3, 3), (4, 2)]:
            errs = [hermite_limit_error(m, n, z, rho) for rho in (10.0, 100.0, 1000.0)]
            assert errs[0] > errs[1] > errs[2], (m, n, errs)

    def test_rho_guard(self):
        with pytest.raises(DomainError):
            hermite_limit_error(1, 1, 2.0 + 0j, 1.5)
