"""Tests for the scalar special functions and quadrature rules.

Frozen expected values were computed with independent oracles (numpy's
leggauss for the beta integrals, scipy.special for cross-checks); the
oracle recipe is noted next to each value.
"""

import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from diskpoly import numerics
from diskpoly.cli import main
from diskpoly.errors import DomainError, NonConvergentError, PoleAtCError
from diskpoly.numerics import (
    _hyp2f1_terms,
    gauss_jacobi_radial,
    gauss_legendre,
    hyp2f1,
    incomplete_beta,
    jacobi_p,
    pochhammer,
)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0 and type(pochhammer(3.7, 0)) is float
        assert pochhammer(-2.0, 0) == 1.0

    def test_hits_zero(self):
        assert pochhammer(-2.0, 3) == 0.0

    def test_plain_values(self):
        assert pochhammer(1.5, 3) == 1.5 * 2.5 * 3.5
        assert pochhammer(1.0, 5) == 120.0

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestHyp2F1:
    def test_terminating_one_step(self):
        # (-1)(-1)/c * x added to 1
        assert hyp2f1(-1.0, -1.0, 2.0, 0.6) == pytest.approx(1.3, rel=1e-15)

    def test_terminating_matches_scipy(self):
        for (a, b, c, x) in [(-2, 5, 3, 0.4), (-4, -6, 1.5, -2.0), (-3, 2.5, 0.7, 5.0)]:
            want = special.hyp2f1(a, b, c, x)
            assert hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-13)

    def test_near_integer_parameter_rounds(self):
        exact = hyp2f1(-2.0, 1.5, 2.0, 0.3)
        fuzzed = hyp2f1(-2.0 + 1e-12, 1.5, 2.0, 0.3)
        assert fuzzed == exact

    def test_series_value(self):
        # frozen oracle value: 200-point Gauss-Legendre of t^2 (1-t)^0.5 on
        # [0, 0.25], converted through the Euler integral relation; agrees
        # with scipy.special.hyp2f1 to 3e-15.
        assert hyp2f1(1.0, 4.5, 4.0, 0.25) == pytest.approx(1.3871752876325132, rel=1e-12)

    def test_series_matches_scipy(self):
        for (a, b, c, x) in [(0.5, 0.5, 1.5, 0.7), (1.0, 2.5, 3.0, -0.4), (2.2, 0.3, 1.1, 0.55)]:
            want = special.hyp2f1(a, b, c, x)
            assert hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-12)

    def test_nonterminating_outside_radius(self):
        with pytest.raises(NonConvergentError):
            hyp2f1(0.5, 0.5, 1.5, 1.2)

    def test_terminating_overflow_raises(self):
        # terms of alternating sign overflow to -inf and +inf
        with pytest.raises(NonConvergentError):
            hyp2f1(-64.0, -64.0, 1.5, -999999.0)
        # finite terms C(64,j)^2 x^j whose sum overflows: the last two are
        # 1.75e308 and 1.1e307
        x = math.exp(math.log(1.75e308) / 64)
        assert all(map(math.isfinite, islice(_hyp2f1_terms(-64.0, -64.0, 1.0, x), 65)))
        with pytest.raises(NonConvergentError):
            hyp2f1(-64.0, -64.0, 1.0, x)

    def test_pole_at_c_reached(self):
        with pytest.raises(PoleAtCError):
            hyp2f1(-3.0, 2.0, -1.0, 0.5)

    def test_pole_at_c_not_reached(self):
        # terminates after one step, before c+1 = -1 is ever used
        assert hyp2f1(-1.0, 5.0, -2.0, 0.3) == pytest.approx(1.75, rel=1e-15)

    @pytest.mark.parametrize("a, b, c, x", [
        (math.nan, 1.0, 1.0, 0.5), (math.inf, 1.0, 1.0, 0.5), (1.0, -math.inf, 1.0, 0.5),
        (1.0, 1.0, math.nan, 0.5), (1.0, 1.0, math.inf, 0.5),
        (1.0, 1.0, 1.0, math.nan), (1.0, 1.0, 1.0, math.inf),
    ])
    def test_non_finite_raises_domain_error(self, a, b, c, x):
        with pytest.raises(DomainError, match="finite"):
            hyp2f1(a, b, c, x)

    def test_summation_order_stable(self):
        # exact pairwise summation makes the terminating sum independent of
        # term order; check forward vs reversed on an awkward seeded grid
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            m = int(rng.integers(0, 9))
            n = int(rng.integers(0, 9))
            c = float(rng.uniform(0.2, 4.0))
            x = float(rng.uniform(-40.0, 0.95))
            terms = list(islice(_hyp2f1_terms(-float(m), -float(n), c, x), min(m, n) + 1))
            fwd = math.fsum(terms)
            rev = math.fsum(terms[::-1])
            assert abs(fwd - rev) <= 1e-13 * max(abs(fwd), 1e-300)


class TestJacobiP:
    def test_degree_zero_and_one(self):
        assert jacobi_p(0, 0.5, 0.5, 0.3) == 1.0
        a, b, x = 1.2, -0.3, 0.4
        assert jacobi_p(1, a, b, x) == pytest.approx((a + 1) + (a + b + 2) * (x - 1) / 2, rel=1e-15)

    def test_matches_scipy(self):
        # frozen from scipy.special.eval_jacobi
        assert jacobi_p(3, 1.0, 0.5, 0.3) == pytest.approx(-0.7072265625, rel=1e-13)
        assert jacobi_p(5, 2.0, -0.5, -0.7) == pytest.approx(-0.05868959106445314, rel=1e-12)

    def test_value_at_one(self):
        for n in range(9):
            for alpha in (0.0, 1.0, 2.5):
                want = pochhammer(alpha + 1, n) / math.factorial(n)
                assert jacobi_p(n, alpha, -0.5, 1.0) == pytest.approx(want, rel=1e-13)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(0, 10))
            a = float(rng.uniform(-0.9, 3.0))
            b = float(rng.uniform(-0.9, 3.0))
            x = float(rng.uniform(-1.0, 1.0))
            lhs = jacobi_p(n, a, b, -x)
            rhs = (-1) ** n * jacobi_p(n, b, a, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_is_ladder_rung(self):
        # jacobi_p(n, ...) is rung n of the one recurrence, bit for bit,
        # at float and at array x
        def bits(v):
            return np.atleast_1d(np.asarray(v, float)).tobytes()

        xs = np.array([-1.0, -0.73, 0.0, 0.31, 0.999, 1.0])
        for alpha, beta in ((0, 0.5), (3, -0.99), (64, 300.0), (0.5, 30.0), (-0.5, -0.5)):
            for x in (*xs.tolist(), xs):
                rungs = islice(numerics._jacobi_ladder(alpha, beta, x), 65)
                for n, rung in enumerate(rungs):
                    assert bits(jacobi_p(n, alpha, beta, x)) == bits(rung), (n, alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.5, math.inf)])
    def test_non_finite_raises_domain_error(self, alpha, beta):
        with pytest.raises(DomainError, match="finite"):
            jacobi_p(2, alpha, beta, 0.3)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            jacobi_p(-1, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            jacobi_p(2, -1.5, 0.0, 0.5)


class TestIncompleteBeta:
    def test_lower_frozen_value(self):
        # frozen oracle value: 200-point Gauss-Legendre of t (1-t)^0.5 on [0, 0.5]
        assert incomplete_beta(2.0, 1.5, 0.5) == pytest.approx(0.10167508438980566, rel=1e-12)

    def test_upper_frozen_value(self):
        # frozen oracle value: 200-point Gauss-Legendre of t^0.5 (1-t)^2 on [0.6, 1],
        # which is the integral of t^2 (1-t)^0.5 on [0, 0.4]
        assert incomplete_beta(3.0, 1.5, 1.0 - 0.6) == pytest.approx(
            0.01782244526700323, rel=1e-12)

    def test_argument_near_one(self):
        # the complement split must hold full precision as x -> 1, where the
        # direct series needs tens of thousands of terms; closed reference
        # integral of (1-t)^0.5 over [0, x] by hand
        for x in (0.99863, 0.999999, 1.0 - 2.0**-40):
            ref = (1.0 - (1.0 - x) ** 1.5) / 1.5
            assert incomplete_beta(1.0, 1.5, x) == pytest.approx(ref, rel=1e-14)

    def test_endpoints(self):
        assert incomplete_beta(2.0, 1.5, 0.0) == 0.0
        want = special.beta(2.0, 1.5)
        assert incomplete_beta(2.0, 1.5, 1.0) == pytest.approx(want, rel=1e-13)

    def test_sides_sum_to_complete(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            a = float(rng.uniform(0.2, 6.0))
            b = float(rng.uniform(0.2, 6.0))
            x = float(rng.uniform(0.05, 0.95))
            total = incomplete_beta(a, b, x) + incomplete_beta(b, a, 1.0 - x)
            assert total == pytest.approx(special.beta(a, b), rel=1e-12)

    def test_fractional_exponents_match_scipy(self):
        for (a, b, x) in [(0.3, 0.7, 0.9), (1.5, -0.5, 0.4), (4.5, 0.25, 0.97)]:
            want = special.betainc(a, max(b, 1e-300), x) * special.beta(a, b) if b > 0 else None
            got = incomplete_beta(a, b, x)
            if want is not None:
                assert got == pytest.approx(want, rel=1e-11)
            else:
                # b <= 0 not covered by scipy's regularized form; check the
                # defining integral directly with a graded high-count rule
                xs, ws = np.polynomial.legendre.leggauss(400)
                t = x * ((xs + 1) / 2) ** 4   # cluster toward 0, exact weight map
                dt = x * 4 * ((xs + 1) / 2) ** 3 / 2
                ref = float(np.sum(ws * dt * t ** (a - 1) * (1 - t) ** (b - 1)))
                assert got == pytest.approx(ref, rel=1e-9)

    def test_quadrature_check_matches_scipy(self):
        # the panel-array quadrature on its own, against scipy's betainc
        for (a, b, x) in [(2.0, 1.5, 0.3), (0.3, 0.7, 0.9), (4.5, 0.25, 0.97),
                          (1.0, 3.0, 0.999)]:
            want = special.betainc(a, b, x) * special.beta(a, b)
            assert numerics._beta_quad_check(a, b, x) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("b", [0.01, 0.1, 0.3, 0.5])
    def test_quadrature_check_at_the_rim(self, b):
        # where 1 - x is a few ulps, 1 - t on the last panels is taken from
        # x - t, not from t; at 1 - x = 2^-53 the check once disagreed with
        # the closed form by 2e-10 (b = 0.5) and raised
        mpmath = pytest.importorskip("mpmath")
        for a in (1.0, 2.0, 4.5, 8.0):
            for k in (53, 52, 50, 40, 30):
                x = 1.0 - 2.0**-k
                with mpmath.workdps(50):
                    want = float(mpmath.betainc(a, b, 0, mpmath.mpf(x)))
                assert numerics._beta_quad_check(a, b, x) == pytest.approx(want, rel=1e-13)
                assert incomplete_beta(a, b, x) == pytest.approx(want, rel=1e-12)

    def test_self_check_is_live(self, monkeypatch):
        # a closed form off by 1e-8 relative must trip the 1e-10 check on
        # both the direct branch and the complement split (x > 1/2)
        cases = [(2.0, 1.5, 0.3), (0.3, 0.7, 0.9), (4.5, 0.25, 0.7)]
        for a, b, x in cases:
            incomplete_beta(a, b, x)
        closed = numerics._beta_closed
        monkeypatch.setattr(numerics, "_beta_closed",
                            lambda a, b, x: closed(a, b, x) * (1.0 + 1e-8))
        incomplete_beta.cache_clear()  # the warm-up calls cached the good values
        for a, b, x in cases:
            with pytest.raises(NonConvergentError):
                incomplete_beta(a, b, x)

    def test_self_check_once_per_argument(self, monkeypatch):
        calls = []
        check = numerics._beta_quad_check

        def spy(a, b, x):
            calls.append((a, b, x))
            return check(a, b, x)

        monkeypatch.setattr(numerics, "_beta_quad_check", spy)
        incomplete_beta.cache_clear()
        first = incomplete_beta(2.5, 1.5, 0.3)
        assert incomplete_beta(2.5, 1.5, 0.3) == first
        assert calls == [(2.5, 1.5, 0.3)]
        incomplete_beta(2.5, 1.5, 0.4)
        incomplete_beta(1.5, 2.5, 1.0 - 0.4)
        assert calls == [(2.5, 1.5, 0.3), (2.5, 1.5, 0.4), (1.5, 2.5, 1.0 - 0.4)]

    def test_errors_are_not_cached(self, monkeypatch):
        for _ in range(2):
            with pytest.raises(DomainError):
                incomplete_beta(2.0, 1.5, 1.2)
        closed = numerics._beta_closed
        monkeypatch.setattr(numerics, "_beta_closed",
                            lambda a, b, x: closed(a, b, x) * (1.0 + 1e-8))
        incomplete_beta.cache_clear()
        for _ in range(2):
            with pytest.raises(NonConvergentError):
                incomplete_beta(2.0, 1.5, 0.35)

    def test_cold_and_warm_cache_give_same_report(self, capsys, tmp_path):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        incomplete_beta.cache_clear()
        assert main(["verify", "--suite", "cauchy", "--max-mn", "8", "--out", str(cold)]) == 0
        assert incomplete_beta.cache_info().hits > 0
        assert main(["verify", "--suite", "cauchy", "--max-mn", "8", "--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()

    # an id ending in "upper" names the integral of (a, b) over [x, 1],
    # which is the call (b, a, 1 - x)
    @pytest.mark.parametrize("a, b", [
        pytest.param(math.nan, 1.5, id="nan-1.5-lower"),
        pytest.param(math.inf, 1.5, id="inf-1.5-lower"),
        pytest.param(2.0, math.nan, id="2.0-nan-lower"),
        pytest.param(2.0, math.inf, id="2.0-inf-lower"),
        pytest.param(math.nan, 2.0, id="2.0-nan-upper"),
        pytest.param(1.5, math.inf, id="inf-1.5-upper"),
    ])
    def test_non_finite_raises_domain_error(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            incomplete_beta(a, b, 0.5)

    @pytest.mark.parametrize("a", [14.0, 20.0, 35.0, 65.0])
    def test_matches_mpmath_past_one_half(self, a):
        # here the lower piece is a small part of B(a, b), so B(a, b) minus
        # the upper piece cancels and the self-check would raise
        mpmath = pytest.importorskip("mpmath")
        for b in (0.5, 1.5, 10.5):
            for x in (0.51, 0.55, 0.7, 0.81):
                with mpmath.workdps(40):
                    want = float(mpmath.betainc(a, b, 0, x))
                assert incomplete_beta(a, b, x) == pytest.approx(want, rel=1e-12), (b, x)

    @pytest.mark.parametrize("b", [1e5, 1e9, 1e11])
    def test_non_finite_quadrature_fails_the_check(self, b, monkeypatch):
        # inf > inf is False, so a check that compared only the gap once
        # passed values 3.7e-6 (b = 1e9) and 1.7e-4 (1e11) off, where its
        # quadrature was -inf or inf; here that quadrature is injected
        for bad in (math.inf, -math.inf, math.nan):
            monkeypatch.setattr(numerics, "_beta_quad_check", lambda a, b, x: bad)
            incomplete_beta.cache_clear()
            with pytest.raises(NonConvergentError, match=f"quadrature={bad!r}$"):
                incomplete_beta(3.0, b + 1, 0.09)

    @pytest.mark.parametrize("b", [5e4, 1e5, 1e9, 1e11])
    def test_quadrature_keeps_its_digits_at_large_b(self, b):
        # the head series alternates with terms near (|b - 1| t0)^i / i!;
        # at t0 = x 2^-8 it cancelled to 2.5e-7 at b = 5e4 and to -inf from
        # 1e5 on, so the check refused a closed form 6.3e-11 off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            f = lambda t: t**2 * (1 - t) ** b
            want = float(mpmath.quad(f, [0, 1 / b, 10 / b, 100 / b, 0.09]))
        assert numerics._beta_quad_check(3.0, b + 1, 0.09) == pytest.approx(want, rel=1e-13)
        if b == 5e4:
            assert incomplete_beta(3.0, b + 1, 0.09) == pytest.approx(want, rel=1e-10)
        else:  # the closed form's own error, as two finite values
            with pytest.raises(NonConvergentError, match=r"closed=[-\d.e]+ quadrature=[-\d.e]+$"):
                incomplete_beta(3.0, b + 1, 0.09)

    def test_head_series_stops_at_its_first_non_finite_term(self):
        # at b = 1e300 the series coefficient overflows to inf at term 2,
        # where t0^(a+2) underflows to 0, so that term is 0 * inf = NaN
        with pytest.raises(NonConvergentError,
                           match="^small-t beta expansion term 2 is not finite$"):
            numerics._beta_quad_check(3.0, 1e300, 0.09)

    def test_large_second_parameter_keeps_its_bits(self):
        want = {1.0: "0x1.db359b42662c1p-13", 10.0: "0x1.0186c92197ab1p-13",
                1e2: "0x1.f80a7fa039aa6p-20", 1e3: "0x1.113c48dccd0fep-29",
                1e4: "0x1.194e60a308d2bp-39"}
        assert {b: incomplete_beta(3.0, b + 1, 0.09).hex() for b in want} == want

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            incomplete_beta(2.0, 1.5, 1.2)
        with pytest.raises(DomainError):
            incomplete_beta(0.0, 1.5, 0.5)
        with pytest.raises(DomainError):
            incomplete_beta(2.0, -1.0, 0.5)


class TestGaussLegendre:
    def test_tiny_rules(self):
        x1, w1 = gauss_legendre(1)
        assert x1 == pytest.approx([0.0], abs=1e-16)
        assert w1 == pytest.approx([2.0], rel=1e-15)
        x2, w2 = gauss_legendre(2)
        assert x2 == pytest.approx([-0.5773502691896258, 0.5773502691896258], rel=1e-14)
        assert w2 == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_exactness_class(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8, 32):
            nodes, weights = gauss_legendre(n)
            for _ in range(10):
                coeffs = rng.uniform(-1, 1, size=2 * n)
                exact = sum(c * (2.0 / (k + 1)) for k, c in enumerate(coeffs) if k % 2 == 0)
                got = np.sum(weights * np.polynomial.polynomial.polyval(nodes, coeffs))
                scale = max(abs(exact), float(np.sum(np.abs(coeffs))))
                assert abs(got - exact) <= 1e-13 * scale

    def test_matches_scipy_nodes(self):
        nodes, weights = gauss_legendre(64)
        want_x, want_w = special.roots_legendre(64)
        assert np.max(np.abs(nodes - want_x)) < 1e-14
        assert np.max(np.abs(weights - want_w)) < 1e-14

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)


class TestGaussJacobiRadial:
    def test_total_mass(self):
        for gamma in (-0.5, 0.0, 1.0, 2.5):
            _, weights = gauss_jacobi_radial(12, gamma)
            assert float(np.sum(weights)) == pytest.approx(1 / (gamma + 1), rel=1e-13)

    def test_moment_exactness(self):
        # int_0^1 t^i (1-t)^gamma dt = i! / (gamma+1)_(i+1)
        for gamma in (-0.5, 0.0, 2.5):
            for n in (1, 3, 8, 20):
                nodes, weights = gauss_jacobi_radial(n, gamma)
                for i in range(2 * n):
                    exact = math.factorial(i) / pochhammer(gamma + 1, i + 1)
                    got = float(np.sum(weights * nodes**i))
                    assert abs(got - exact) <= 1e-13 * max(exact, 1.0), (gamma, n, i)

    def test_matches_scipy_rule(self):
        gamma = 0.75
        nodes, weights = gauss_jacobi_radial(24, gamma)
        x, w = special.roots_jacobi(24, gamma, 0.0)
        assert np.max(np.abs(nodes - (x + 1) / 2)) < 1e-13
        assert np.max(np.abs(weights - w * 2.0 ** (-gamma - 1))) < 1e-14

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("gamma", [-0.99, -0.5, 30.0, 200.0])
    def test_matches_scipy_rule_extreme_weights(self, n, gamma):
        nodes, weights = gauss_jacobi_radial(n, gamma)
        x, w = special.roots_jacobi(n, gamma, 0.0)
        w = w * 2.0 ** (-gamma - 1)
        assert np.max(np.abs(nodes - (x + 1) / 2)) <= 1e-14
        assert np.max(np.abs(weights - w)) <= 1e-11 * np.max(w)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            gauss_jacobi_radial(0, 0.0)
        with pytest.raises(DomainError):
            gauss_jacobi_radial(4, -1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, gamma):
        with pytest.raises(DomainError):
            gauss_jacobi_radial(4, gamma)

    def test_runtime_needs_no_scipy(self):
        # scipy is a test-only oracle: importing the package and the CLI and
        # building a radial rule must not load any part of it
        code = ("import sys\n"
                "import diskpoly, diskpoly.cli\n"
                "diskpoly.gauss_jacobi_radial(8, 0.5)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")
        src = Path(numerics.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestRulesAreReadOnly:
    """A cached rule's arrays are shared by every caller, so they are
    locked: a write into the 32-point Legendre weights would otherwise make
    every later incomplete_beta self-check fail."""

    @pytest.mark.parametrize("rule", [lambda: gauss_legendre(32),
                                      lambda: gauss_jacobi_radial(8, 0.5)],
                             ids=["legendre", "jacobi-radial"])
    def test_arrays_are_read_only(self, rule):
        for array in rule():
            with pytest.raises(ValueError):
                array[:] = 0.0

    def test_incomplete_beta_after_a_refused_write(self):
        _, weights = gauss_legendre(32)
        with pytest.raises(ValueError):
            weights[:] = 0.0
        incomplete_beta.cache_clear()
        want = special.betainc(2.5, 1.5, 0.3) * special.beta(2.5, 1.5)
        assert incomplete_beta(2.5, 1.5, 0.3) == pytest.approx(want, rel=1e-13)


class TestNodeCounts:
    """Node counts, Pochhammer orders and Jacobi degrees are integers: a
    float or a string is a DomainError."""

    @pytest.mark.parametrize("n", [4.5, 2.5, 8.0, "8", None])
    def test_non_integer_rejected(self, n):
        gauss_legendre(8)  # a cached int rule must not serve 8.0
        with pytest.raises(DomainError):
            gauss_legendre(n)
        with pytest.raises(DomainError):
            gauss_jacobi_radial(n, 0.0)
        with pytest.raises(DomainError):
            pochhammer(1.5, n)
        with pytest.raises(DomainError):
            jacobi_p(n, 0.5, 0.5, 0.1)

    @pytest.mark.parametrize("n", [np.int64(8), np.int32(8)])
    def test_numpy_integers_accepted(self, n):
        for got, want in [(gauss_legendre(n), gauss_legendre(8)),
                          (gauss_jacobi_radial(n, 0.5), gauss_jacobi_radial(8, 0.5))]:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert pochhammer(1.5, n).hex() == pochhammer(1.5, 8).hex()
        assert jacobi_p(n, 0.5, 1.5, 0.1).hex() == jacobi_p(8, 0.5, 1.5, 0.1).hex()
