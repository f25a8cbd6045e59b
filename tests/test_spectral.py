"""Tests for the ladder operators and the twisted Laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpoly.algebra import (
    DiskExpr,
    add,
    d_z,
    d_zbar,
    dump,
    equal,
    eval_expr,
    max_abs_coeff,
    mul,
    scale,
)
from diskpoly.errors import DomainError
from diskpoly.sampling import Lcg64
from diskpoly.spectral import (
    SpectralParams,
    bridge_pair,
    eigen_residual,
    eigenvalue,
    factorization_residuals,
    gamma_equivalent,
    magnetic_laplacian,
    nabla,
    nabla_star,
    psi,
)


def random_expr(rng: Lcg64) -> DiskExpr:
    n_terms = 1 + rng.next_u64() % 4
    raw = {}
    for _ in range(n_terms):
        key = (rng.next_u64() % 4, rng.next_u64() % 4, rng.next_u64() % 3)
        raw[key] = complex(2 * rng.uniform() - 1, 2 * rng.uniform() - 1)
    offset = [0.0, 1.0, 0.5, 1.5][rng.next_u64() % 4]
    return DiskExpr(raw, offset)


class TestParams:
    def test_continuum_guard(self):
        with pytest.raises(DomainError):
            SpectralParams(2.0, 2, 0)       # needs m < 1.5
        with pytest.raises(DomainError):
            SpectralParams(0.5, 0, 0)

    def test_bad_types(self):
        with pytest.raises(DomainError):
            SpectralParams(2.0, -1, 0)
        with pytest.raises(DomainError):
            SpectralParams(2.0, 0, 65)
        for nu in ("2.5", None, 2.5j):
            with pytest.raises(DomainError):
                SpectralParams(nu, 0, 0)
        for nu in (10**400, -10**400, float("inf")):
            with pytest.raises(DomainError, match="finite"):
                SpectralParams(nu, 0, 0)

    @pytest.mark.parametrize("m, n", [(np.int64(1), 0), (1, np.int32(3)), (True, np.uint8(3))])
    def test_integer_like_indices_stored_as_int(self, m, n):
        sp = SpectralParams(2.5, m, n)
        assert type(sp.m) is int and type(sp.n) is int
        assert sp == SpectralParams(2.5, 1, int(n))

    @pytest.mark.parametrize("m, n", [(1.0, 0), (1, 3.0), (np.float64(1), 0), ("1", 0)])
    def test_non_integer_indices_rejected(self, m, n):
        with pytest.raises(DomainError):
            SpectralParams(2.5, m, n)

    @pytest.mark.parametrize("nu", [np.float32(2.5), np.float16(2.5), np.int64(3)])
    def test_real_number_strength_stored_as_float(self, nu):
        sp = SpectralParams(nu, 0, 0)
        assert type(sp.nu) is float and sp == SpectralParams(float(nu), 0, 0)

    def test_eigenvalue_and_gamma(self):
        assert eigenvalue(2.5, 1) == 2.5 * 3 - 2
        assert gamma_equivalent(2.5, 1) == 2.0


class TestOperators:
    def test_laplacian_of_constant(self):
        # pure potential term nu^2 z zbar, canonical form
        e = magnetic_laplacian(2.0, DiskExpr.one())
        assert dump(e) == "offset 0\n0 0 0 4 0\n0 0 1 -4 0\n"

    def test_ground_state_eigen(self):
        # z^n u^nu is an eigenfunction at the bottom level, eigenvalue nu
        nu = 2.5
        for n in (0, 1, 3):
            f = psi(SpectralParams(nu, 0, n))
            lap = magnetic_laplacian(nu, f)
            assert equal(lap, DiskExpr(
                {key: nu * c for key, c in f.terms.items()}, f.base_offset),
                tol=1e-12 * max_abs_coeff(lap))

    def test_nabla_pointwise(self):
        # -u d_z + alpha zbar, checked by evaluation
        e = DiskExpr({(2, 0, 0): 1.0, (0, 1, 1): 1j}, 0.5)
        alpha = 1.75
        z = 0.3 - 0.2j
        u = 1 - abs(z) ** 2
        want = -u * eval_expr(d_z(e), z) + alpha * z.conjugate() * eval_expr(e, z)
        assert eval_expr(nabla(alpha, e), z) == pytest.approx(want, rel=1e-13)

    def test_nabla_star_pointwise(self):
        e = DiskExpr({(1, 1, 0): 2.0}, 1.0)
        alpha = 0.5
        z = 0.25 + 0.4j
        u = 1 - abs(z) ** 2
        want = u * eval_expr(d_zbar(e), z) + (alpha + 1) * z * eval_expr(e, z)
        assert eval_expr(nabla_star(alpha, e), z) == pytest.approx(want, rel=1e-13)


class TestPsi:
    def test_bottom_level_exact(self):
        f = psi(SpectralParams(2.5, 0, 3))
        assert f.terms == {(3, 0, 0): 1.0} and f.base_offset == 2.5

    def test_first_level_hand_value(self):
        # one ladder step up from u^(nu-1) gives 2(nu-1) zbar u^(nu-1)
        f = psi(SpectralParams(2.5, 1, 0))
        assert f.base_offset == 1.5
        assert f.terms == {(0, 1, 0): pytest.approx(3.0)}

    def test_eigen_residual_grid(self):
        for nu in (2.0, 2.5, 6.0):
            for m in range(5):
                if not m < nu - 0.5:
                    continue
                for n in range(5):
                    r = eigen_residual(SpectralParams(nu, m, n))
                    assert r <= 1e-10, (nu, m, n, r)


class TestFactorizations:
    def test_simple_expressions(self):
        for e in (DiskExpr.one(), DiskExpr({(2, 1, 1): 1.0}, 0.5)):
            for nu in (1.0, 2.5, 6.0):
                r1, r2, r3 = factorization_residuals(nu, e)
                assert max(r1, r2, r3) <= 1e-12

    def test_seeded_random_expressions(self):
        rng = Lcg64(20240818)
        for i in range(50):
            e = random_expr(rng)
            for nu in (1.0, 2.5, 6.0):
                r1, r2, r3 = factorization_residuals(nu, e)
                assert max(r1, r2, r3) <= 1e-10, (i, nu)


class TestBridge:
    def test_matches_polynomial_family(self):
        cases = [(2.5, 1, 0), (2.5, 1, 3), (6.0, 4, 4), (2.0, 1, 2), (1.6, 1, 1),
                 (3.0, 2, 3)]
        for (nu, m, n) in cases:
            lhs, rhs = bridge_pair(SpectralParams(nu, m, n))
            tol = 1e-10 * max(max_abs_coeff(lhs), 1.0)
            assert equal(lhs, rhs, tol=tol), (nu, m, n)
            assert set(lhs.terms) == set(rhs.terms), (nu, m, n)


class TestPsiCache:
    def _same(self, a: DiskExpr, b: DiskExpr) -> bool:
        return a.base_offset == b.base_offset and list(a.terms.items()) == list(b.terms.items())

    def test_second_call_returns_the_same_object(self):
        sp = SpectralParams(2.5, 1, 3)
        assert psi(sp) is psi(sp)
        assert psi(SpectralParams(2.5, 1, 3)) is psi(sp)

    def test_cached_results_match_fresh_builds(self):
        for nu, m, n in [(2.5, 1, 0), (6.0, 4, 4), (3.0, 2, 3)]:
            sp = SpectralParams(nu, m, n)
            assert self._same(psi(sp), psi.__wrapped__(sp))
            psi.cache_clear()
            cold_res, cold_pair = eigen_residual(sp), bridge_pair(sp)
            # the second pair of calls is served psi from the cache
            warm_res, warm_pair = eigen_residual(sp), bridge_pair(sp)
            assert psi.cache_info().hits >= 2
            assert warm_res == cold_res
            assert all(self._same(a, b) for a, b in zip(warm_pair, cold_pair))


# The operators as compositions of the algebra ops, with int constants so
# that Fraction inputs stay exact; each one-pass operator must match these.

_U = DiskExpr.u_power(1)
_Z = DiskExpr.z_power(1)
_ZBAR = DiskExpr.zbar_power(1)
_ZZBAR = DiskExpr({(1, 1, 0): 1})


def nabla_composed(alpha, e):
    return add(scale(mul(_U, d_z(e)), -1), scale(mul(_ZBAR, e), alpha))


def nabla_star_composed(alpha, e):
    return add(mul(_U, d_zbar(e)), scale(mul(_Z, e), alpha + 1))


def magnetic_laplacian_composed(nu, e):
    e_zbar = d_zbar(e)
    mixed = scale(mul(mul(_U, _U), d_z(e_zbar)), -1)
    drift = add(mul(_Z, d_z(e)), scale(mul(_ZBAR, e_zbar), -1))
    drift = scale(mul(_U, drift), -nu)
    potential = scale(mul(_ZZBAR, e), nu * nu)
    return add(add(mixed, drift), potential)


OPERATORS = [(nabla, nabla_composed), (nabla_star, nabla_star_composed),
             (magnetic_laplacian, magnetic_laplacian_composed)]
OPERATOR_IDS = ["nabla", "nabla_star", "magnetic_laplacian"]

raw_keys = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
fractions = st.fractions(-4, 4, max_denominator=12)
exact_exprs = st.builds(DiskExpr, st.dictionaries(raw_keys, fractions, max_size=6),
                        st.one_of(st.integers(-2, 3), fractions))
float_parts = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
float_exprs = st.builds(DiskExpr,
                        st.dictionaries(raw_keys, st.builds(complex, float_parts, float_parts),
                                        max_size=6),
                        st.one_of(st.integers(-2, 3), float_parts))


@pytest.mark.parametrize("op, composed", OPERATORS, ids=OPERATOR_IDS)
@given(e=exact_exprs, nu=st.one_of(st.integers(-3, 3), fractions))
@settings(max_examples=100, deadline=None)
def test_operator_matches_composition_exactly(op, composed, e, nu):
    got, want = op(nu, e), composed(nu, e)
    assert got.terms == want.terms and got.base_offset == want.base_offset


@pytest.mark.parametrize("op, composed", OPERATORS, ids=OPERATOR_IDS)
@given(e=float_exprs, nu=float_parts)
@settings(max_examples=150, deadline=None)
def test_operator_matches_composition_in_floats(op, composed, e, nu):
    got, want = op(nu, e), composed(nu, e)
    # a coefficient that cancels keeps only rounding noise of its operands'
    # size, so the input's coefficients count in the scale too
    top = max(max_abs_coeff(e), max_abs_coeff(got), max_abs_coeff(want))
    assert equal(got, want, tol=1e-12 * top)
