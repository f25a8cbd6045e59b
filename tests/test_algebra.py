"""Tests for the weighted expression algebra.

The Wirtinger derivative rules are checked against a central finite
difference oracle: for f seen as a function of (x, y),
d/dz = (d/dx - i d/dy)/2 and d/dconj(z) = (d/dx + i d/dy)/2.
"""

import math
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    prune,
    scale,
)
from diskpoly import algebra, spectral, zernike
from diskpoly.errors import DomainError, OffsetMismatchError, TooLargeError


def fd_wirtinger(e, z, h=1e-5):
    """(d/dz f, d/dconj(z) f) by 4th-order central differences."""
    def along(direction):
        vals = [eval_expr(e, z + s * direction) for s in (-2 * h, -h, h, 2 * h)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    fx = along(1.0)
    fy = along(1j)
    return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2


class TestCanonicalForm:
    def test_zzbar_reduces(self):
        e = DiskExpr({(1, 1, 0): 1.0})
        assert e.terms == {(0, 0, 0): 1.0, (0, 0, 1): -1.0}

    def test_power_reduction(self):
        # z^2 zbar u^3 -> z u^3 - z u^4
        e = DiskExpr({(2, 1, 3): 2.0})
        assert e.base_offset == 3.0          # common u-slack moves to the offset
        assert e.terms == {(1, 0, 0): 2.0, (1, 0, 1): -2.0}

    def test_cancellation_drops_terms(self):
        e = DiskExpr({(1, 1, 0): 1.0, (0, 0, 0): -1.0, (0, 0, 1): 1.0})
        assert e.terms == {}
        assert e.base_offset == 0.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            DiskExpr({(-1, 0, 0): 1.0})

    def test_term_cap(self):
        with pytest.raises(TooLargeError):
            DiskExpr({(a, 0, k): 1.0 for a in range(1001) for k in range(1001)})


class TestArithmetic:
    def test_add_merges(self):
        e = add(DiskExpr.z_power(2), scale(DiskExpr.z_power(2), 1j))
        assert e.terms == {(2, 0, 0): 1 + 1j}

    def test_add_aligns_integer_offsets(self):
        # u + 1 must coexist even though u is held at offset 1
        e = add(DiskExpr.u_power(1.0), DiskExpr.one())
        assert e.base_offset == 0.0
        assert e.terms == {(0, 0, 0): 1.0, (0, 0, 1): 1.0}

    def test_add_rejects_fractional_gap(self):
        with pytest.raises(OffsetMismatchError):
            add(DiskExpr.u_power(0.5), DiskExpr.one())

    def test_add_zero_any_offset(self):
        e = DiskExpr({(1, 0, 0): 2.0}, 0.25)
        assert equal(add(e, DiskExpr.zero()), e)

    def test_scale_zero_empties(self):
        assert scale(DiskExpr.one(), 0).terms == {}

    def test_mul_adds_offsets(self):
        e = mul(DiskExpr.u_power(0.5), DiskExpr.u_power(-1.5))
        assert e.base_offset == -1.0
        assert e.terms == {(0, 0, 0): 1.0}

    def test_mul_pointwise(self):
        e1 = DiskExpr({(1, 0, 0): 1.0, (0, 1, 1): -0.5}, 0.5)
        e2 = DiskExpr({(0, 2, 0): 2.0, (1, 1, 2): 1j}, -1.0)
        z = 0.3 - 0.45j
        want = eval_expr(e1, z) * eval_expr(e2, z)
        assert eval_expr(mul(e1, e2), z) == pytest.approx(want, rel=1e-13)


class TestDerivatives:
    def test_dz_of_z(self):
        e = d_z(DiskExpr.z_power(1))
        assert e.base_offset == 0.0 and e.terms == {(0, 0, 0): 1.0}

    def test_dz_of_u(self):
        e = d_z(DiskExpr.u_power(1.0))
        assert e.base_offset == 0.0 and e.terms == {(0, 1, 0): -1.0}

    def test_dzbar_of_u(self):
        e = d_zbar(DiskExpr.u_power(1.0))
        assert e.base_offset == 0.0 and e.terms == {(1, 0, 0): -1.0}

    def test_dz_of_zzbar(self):
        e = d_z(DiskExpr({(1, 1, 0): 1.0}))
        assert e.terms == {(0, 1, 0): 1.0}

    def test_offset_drops_by_one(self):
        e = DiskExpr({(0, 0, 0): 1.0}, 2.5)
        de = d_z(e)
        # -2.5 zbar u^1.5
        assert de.base_offset == 1.5
        assert de.terms == {(0, 1, 0): -2.5}

    def test_matches_finite_differences(self):
        e = DiskExpr({(2, 1, 0): 1.5, (0, 3, 1): -2j, (1, 0, 2): 0.7}, 1.5)
        for z in (0.2 + 0.1j, -0.4 + 0.3j, 0.05 - 0.6j):
            dz_num, dzb_num = fd_wirtinger(e, z)
            assert eval_expr(d_z(e), z) == pytest.approx(dz_num, rel=1e-7, abs=1e-8)
            assert eval_expr(d_zbar(e), z) == pytest.approx(dzb_num, rel=1e-7, abs=1e-8)

    def test_mixed_partials_commute(self):
        e = DiskExpr({(2, 2, 1): 1.0, (0, 1, 0): 3.0 - 1j}, 0.75)
        assert equal(d_z(d_zbar(e)), d_zbar(d_z(e)), tol=1e-14)

    def test_leibniz_exact(self):
        e1 = DiskExpr({(1, 1, 0): 1.0, (0, 0, 1): 2.0}, 0.5)
        e2 = DiskExpr({(2, 0, 0): -1j, (0, 1, 1): 1.0}, 1.0)
        lhs = d_z(mul(e1, e2))
        rhs = add(mul(d_z(e1), e2), mul(e1, d_z(e2)))
        assert equal(lhs, rhs, tol=1e-13 * max_abs_coeff(lhs))


class TestEval:
    def test_simple_values(self):
        z = 0.5 + 0.25j
        u = 1 - abs(z) ** 2
        e = DiskExpr({(2, 1, 0): 1.0}, 0.5)
        want = z**2 * z.conjugate() * u**0.5
        assert eval_expr(e, z) == pytest.approx(want, rel=1e-14)

    def test_boundary_zero_power(self):
        # integer nonnegative exponents survive on |z| = 1
        e = DiskExpr({(1, 0, 0): 1.0, (1, 0, 1): -1.0})
        assert eval_expr(e, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_boundary_negative_power_rejected(self):
        with pytest.raises(DomainError):
            eval_expr(DiskExpr.u_power(-1.0), 1.0)

    def test_outside_disk_fractional_rejected(self):
        with pytest.raises(DomainError):
            eval_expr(DiskExpr.u_power(0.5), 2.0)

    def test_outside_disk_integer_ok(self):
        assert eval_expr(DiskExpr.u_power(2.0), 2.0) == pytest.approx(9.0, rel=1e-15)


class TestEqualityAndPruning:
    def test_equal_self_zero_tol(self):
        e = DiskExpr({(2, 1, 1): 1.0 + 0.5j}, 0.5)
        assert equal(e, e, tol=0.0)

    def test_equal_across_representations(self):
        e1 = DiskExpr({(1, 1, 0): 1.0})           # 1 - u canonical at offset 0
        e2 = add(DiskExpr.one(), scale(DiskExpr.u_power(1.0), -1.0))
        assert equal(e1, e2, tol=0.0)

    def test_unequal(self):
        assert not equal(DiskExpr.one(), DiskExpr.z_power(1), tol=1e-9)

    def test_prune_drops_noise(self):
        e = DiskExpr({(1, 0, 0): 1.0, (0, 1, 0): 1e-15})
        p = prune(e, 1e-12)
        assert p.terms == {(1, 0, 0): 1.0}

    def test_prune_zero(self):
        assert prune(DiskExpr.zero()).terms == {}


class TestDump:
    def test_golden_layout(self):
        e = DiskExpr({(0, 1, 0): -0.5 + 0.25j, (2, 0, 1): 3.0}, 1.5)
        assert dump(e) == (
            "offset 1.5\n"
            "0 1 0 -0.5 0.25\n"
            "2 0 1 3 0\n"
        )

    def test_deterministic(self):
        e1 = DiskExpr({(0, 1, 0): 1.0, (2, 0, 1): 3.0})
        e2 = DiskExpr({(2, 0, 1): 3.0, (0, 1, 0): 1.0})
        assert dump(e1) == dump(e2)


# hypothesis strategies for random raw expressions

coeffs = st.complex_numbers(min_magnitude=0.01, max_magnitude=4.0,
                            allow_nan=False, allow_infinity=False)
keys = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
raw_terms = st.dictionaries(keys, coeffs, min_size=0, max_size=5)
offsets = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1.75, 2.0])


@given(raw_terms, offsets)
@settings(max_examples=150, deadline=None)
def test_canonicalize_idempotent(raw, g):
    e = DiskExpr(raw, g)
    again = DiskExpr(e.terms, e.base_offset)
    assert again.terms == e.terms and again.base_offset == e.base_offset


@given(raw_terms, offsets)
@settings(max_examples=150, deadline=None)
def test_canonical_keys_reduced(raw, g):
    e = DiskExpr(raw, g)
    assert all(min(a, b) == 0 for (a, b, _) in e.terms)
    if e.terms:
        assert min(k for (_, _, k) in e.terms) == 0


@given(raw_terms, offsets)
@settings(max_examples=100, deadline=None)
def test_canonicalize_preserves_value(raw, g):
    e = DiskExpr(raw, g)
    for z in (0.3 + 0.2j, -0.1 - 0.55j):
        u = 1 - abs(z) ** 2
        direct = sum(c * z**a * z.conjugate() ** b * u ** (g + k)
                     for (a, b, k), c in raw.items())
        got = eval_expr(e, z)
        scale_ref = sum(abs(c) for c in raw.values()) + 1.0
        assert abs(got - direct) <= 1e-12 * scale_ref


@given(raw_terms, raw_terms, offsets)
@settings(max_examples=100, deadline=None)
def test_leibniz_property(raw1, raw2, g):
    e1 = DiskExpr(raw1, g)
    e2 = DiskExpr(raw2, 1.0)
    lhs = d_z(mul(e1, e2))
    rhs = add(mul(d_z(e1), e2), mul(e1, d_z(e2)))
    tol = 1e-12 * max(max_abs_coeff(lhs), 1.0)
    assert equal(lhs, rhs, tol=tol)


# Each op must build exactly what the constructor builds from the raw dict
# the op stands for: the same terms in the same order, by type and bits.

parts = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
any_coeffs = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    st.builds(complex, parts, parts),
    st.fractions(-4, 4, max_denominator=12),
)
any_offsets = st.one_of(st.integers(-2, 3), st.sampled_from([0.5, -0.25, 1.75, 2.0]))
canonical_exprs = st.builds(DiskExpr, st.dictionaries(keys, any_coeffs, max_size=6),
                            any_offsets)
u_powers = st.builds(lambda c, g: DiskExpr({(0, 0, 0): c}, g), any_coeffs, any_offsets)
factors = st.one_of(canonical_exprs, u_powers)


def _bits(c):
    if isinstance(c, complex):
        return ("complex", c.real.hex(), c.imag.hex())
    if isinstance(c, float):
        return ("float", c.hex())
    return (type(c).__name__, c)


def assert_same(got, want):
    """Terms in order, each by type and exact bits, and the offset."""
    assert [(k, _bits(c)) for k, c in got.terms.items()] == \
        [(k, _bits(c)) for k, c in want.terms.items()]
    assert _bits(got.base_offset) == _bits(want.base_offset)


def _shifted(e, s):
    return {(a, b, k + s): c for (a, b, k), c in e.terms.items()}


@given(canonical_exprs, st.dictionaries(keys, any_coeffs, max_size=6), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_add_matches_generic(e1, raw2, shift):
    e2 = DiskExpr(raw2, e1.base_offset + shift)
    if not e1.terms or not e2.terms:
        t1, t2 = dict(e1.terms), dict(e2.terms)
        g = e1.base_offset if e1.terms else e2.base_offset
    elif e1.base_offset >= e2.base_offset:
        s = round(e1.base_offset - e2.base_offset)
        t1, t2, g = _shifted(e1, s), dict(e2.terms), e2.base_offset
    else:
        s = round(e2.base_offset - e1.base_offset)
        t1, t2, g = dict(e1.terms), _shifted(e2, s), e1.base_offset
    for key, c in t2.items():
        t1[key] = t1.get(key, 0) + c
    assert_same(add(e1, e2), DiskExpr(t1, g))


@given(canonical_exprs, any_coeffs)
@settings(max_examples=100, deadline=None)
def test_scale_matches_generic(e, c):
    want = DiskExpr() if c == 0 else DiskExpr({k: v * c for k, v in e.terms.items()},
                                              e.base_offset)
    assert_same(scale(e, c), want)


@given(factors, factors)
@settings(max_examples=100, deadline=None)
def test_mul_matches_generic(e1, e2):
    out = {}
    for (a1, b1, k1), c1 in e1.terms.items():
        for (a2, b2, k2), c2 in e2.terms.items():
            key = (a1 + a2, b1 + b2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    assert_same(mul(e1, e2), DiskExpr(out, e1.base_offset + e2.base_offset))


@given(canonical_exprs)
@settings(max_examples=100, deadline=None)
def test_derivatives_match_generic(e):
    g = e.base_offset
    out_z, out_zbar = {}, {}
    for (a, b, k), c in e.terms.items():
        q = g + k
        if a:
            out_z[(a - 1, b, k + 1)] = out_z.get((a - 1, b, k + 1), 0) + c * a
        if q:
            out_z[(a, b + 1, k)] = out_z.get((a, b + 1, k), 0) - c * q
        if b:
            out_zbar[(a, b - 1, k + 1)] = out_zbar.get((a, b - 1, k + 1), 0) + c * b
        if q:
            out_zbar[(a + 1, b, k)] = out_zbar.get((a + 1, b, k), 0) - c * q
    assert_same(d_z(e), DiskExpr(out_z, g - 1))
    assert_same(d_zbar(e), DiskExpr(out_zbar, g - 1))


@given(canonical_exprs, st.sampled_from([1e-12, 0.1, 0.5, 0.9]))
@settings(max_examples=100, deadline=None)
def test_prune_matches_generic(e, rel_tol):
    top = max_abs_coeff(e)
    kept = {k: c for k, c in e.terms.items() if abs(c) > rel_tol * top}
    want = DiskExpr() if top == 0.0 else DiskExpr(kept, e.base_offset)
    assert_same(prune(e, rel_tol), want)


# keys with min(a, b) <= 0, which the constructor's reduction keeps as they
# are unless an exponent is negative
scan_keys = st.tuples(st.integers(-1, 3), st.integers(-1, 3),
                      st.integers(0, 2)).filter(lambda key: min(key[:2]) <= 0)


@given(st.dictionaries(scan_keys, any_coeffs, max_size=6), any_offsets)
@example({(0, 1, 0): complex(2.0, -0.0)}, 0)  # 0 + c clears the sign of a zero part
@example({(1, 0, 0): 1.0, (0, 0, 1): 0.0}, 0.5)
@example({(-1, 0, 0): 1.0}, 0)
@settings(max_examples=150, deadline=None)
def test_scan_matches_reduction(raw, g):
    # an added zero term that needs reducing leaves every bit alone
    def build(terms):
        try:
            return DiskExpr(terms, g)
        except DomainError:
            return DomainError

    fast, slow = build(raw), build({**raw, (1, 1, 0): 0.0})
    if fast is DomainError or slow is DomainError:
        assert fast is slow
    else:
        assert_same(fast, slow)


@pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, -2, 3), (2, -1, 0), (-1, 3, 1)])
def test_negative_exponent_still_rejected(key):
    # (0, -1, 0) has no key to reduce, so only the sign check sees it
    with pytest.raises(DomainError):
        DiskExpr({key: 1.0})


def test_term_cap_on_the_canonical_path(monkeypatch):
    e = DiskExpr({(1, 0, 0): 1.0, (2, 0, 0): 1.0, (0, 3, 1): 2.0})
    monkeypatch.setattr("diskpoly.algebra.TERM_CAP", 2)
    e1 = DiskExpr({(1, 0, 0): 1.0, (2, 0, 0): 1.0})
    e2 = DiskExpr({(0, 1, 0): 1.0, (0, 2, 0): 1.0})
    with pytest.raises(TooLargeError) as public:
        DiskExpr({**e1.terms, **e2.terms})
    # the private builder raises what the constructor raises for its dict
    for produce in (lambda: add(e1, e2), lambda: algebra._from_canonical(dict(e.terms), 0),
                    lambda: scale(e, 2.0), lambda: prune(e, 0.0),
                    lambda: spectral.nabla(0.5, e), lambda: spectral.magnetic_laplacian(1.5, e),
                    lambda: zernike.explicit_expr(zernike.ZernikeParams(2, 2, 0.5))):
        with pytest.raises(TooLargeError) as private:
            produce()
        assert str(private.value) == str(public.value)


class TestNaN:
    NAN = float("nan")
    ORDERS = [{(0, 0, 0): 1.0, (1, 0, 0): NAN}, {(1, 0, 0): NAN, (0, 0, 0): 1.0},
              {(0, 0, 0): 1.0, (1, 0, 0): complex(2.0, NAN)}]
    IDS = ["nan-last", "nan-first", "complex-nan-last"]

    @pytest.mark.parametrize("raw", ORDERS, ids=IDS)
    def test_max_abs_coeff_is_nan(self, raw):
        assert math.isnan(max_abs_coeff(DiskExpr(raw)))

    @pytest.mark.parametrize("raw", ORDERS, ids=IDS)
    def test_equal_is_false(self, raw):
        e = DiskExpr(raw)
        assert not equal(e, DiskExpr({(0, 0, 0): 1.0}), tol=1e-12)
        assert not equal(DiskExpr({(0, 0, 0): 1.0}), e, tol=1e-12)
        assert not equal(e, e, tol=1e-12)

    @pytest.mark.parametrize("raw", ORDERS, ids=IDS)
    def test_prune_keeps_every_term(self, raw):
        # nothing can be judged small against a NaN top, and the NaN stays
        got = prune(DiskExpr({**raw, (2, 0, 0): 1e-20}), 1e-12)
        assert list(got.terms) == list(raw) + [(2, 0, 0)]
        assert math.isnan(abs(got.terms[(1, 0, 0)]))

    def test_finite_results_unchanged(self):
        e = DiskExpr({(0, 0, 0): 1.0, (1, 0, 0): -3.0 + 4.0j, (2, 0, 0): 1e-15})
        assert max_abs_coeff(e) == 5.0
        assert max_abs_coeff(DiskExpr()) == 0.0
        assert list(prune(e, 1e-12).terms) == [(0, 0, 0), (1, 0, 0)]
        assert equal(e, DiskExpr({(2, 0, 0): 0.0, **e.terms}))


class TestConstructorArguments:
    def test_fraction_offset_stays_exact(self):
        # k < 0 is allowed, and moves into the offset
        e = DiskExpr({(0, 0, -1): Fraction(1, 2), (1, 0, 0): 1}, Fraction(1, 3))
        assert e.base_offset == Fraction(-2, 3) and type(e.base_offset) is Fraction
        assert e.terms == {(0, 0, 0): Fraction(1, 2), (1, 0, 1): 1}

    @pytest.mark.parametrize("g", [float("inf"), float("nan"), "x", 1j, None],
                             ids=["inf", "nan", "str", "complex", "none"])
    def test_offset_must_be_finite_real(self, g):
        with pytest.raises(DomainError):
            DiskExpr({(0, 0, 0): 1.0}, g)

    @pytest.mark.parametrize("terms", [
        {(1, 0): 1}, {(1, 0, 0, 0): 1}, {(1.5, 0, 0): 1}, {(0, 0, 0.0): 1}, {"abc": 1},
        {(1, 0, 0): "a"}, {(1, 0, 0): None}, [((0, 0, 0), 1)], 5,
    ], ids=["pair-key", "four-key", "float-a", "float-k", "str-key", "str-coeff", "none-coeff",
            "list", "int"])
    def test_bad_terms_raise_domain_error(self, terms):
        with pytest.raises(DomainError):
            DiskExpr(terms)

    @pytest.mark.parametrize("terms", [
        {(np.int64(1), 0, 0): 1.0}, {(0, np.int32(2), np.int64(0)): 1.0}, {(True, 0, 0): 1.0},
        {(1, 0, 0): np.float64(2.0)}, {(1, 0, 0): Decimal("2")},
    ], ids=["int64-a", "int32-b-int64-k", "bool-a", "float64-coeff", "decimal-coeff"])
    def test_other_integer_and_number_types_accepted(self, terms):
        # numpy integers and bools are integers, and Decimal is a number
        (key, c), = terms.items()
        e = DiskExpr(terms)
        assert e.terms == {tuple(map(int, key)): c}


# The private builder must give what the public constructor gives for the
# same raw dict.  Each producer below is run with a spy on _from_canonical
# in every module that calls it; the spy keeps a copy of each raw dict, and
# the producer's result must be the spy's last build.

fraction_terms = st.dictionaries(keys, st.fractions(-4, 4, max_denominator=12), max_size=5)
built = st.one_of(st.builds(DiskExpr, raw_terms, offsets),
                  st.builds(DiskExpr, fraction_terms, offsets))
scalars = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, -1.0, 0.5]), coeffs,
                    st.fractions(-4, 4, max_denominator=12))


@contextmanager
def _spied_builds():
    calls = []
    real = algebra._from_canonical

    def spy(terms, g, into=None):
        if into is not None:  # the public constructor's own build
            return real(terms, g, into)
        raw = dict(terms)
        out = real(terms, g)
        calls.append((raw, g, out))
        return out

    with mock.patch.object(algebra, "_from_canonical", spy), \
            mock.patch.object(spectral, "_from_canonical", spy), \
            mock.patch.object(zernike, "_from_canonical", spy):
        yield calls


def assert_private_path(produce):
    with _spied_builds() as calls:
        result = produce()
    assert calls and result is calls[-1][2]
    for raw, g, out in calls:
        assert_same(out, DiskExpr(raw, g))


@given(built, raw_terms, st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_private_add(e1, raw2, shift):
    e2 = DiskExpr(raw2, e1.base_offset + shift)
    assert_private_path(lambda: add(e1, e2))
    # every coefficient cancels
    assert_private_path(lambda: add(e1, scale(e1, -1)))
    assert add(e1, scale(e1, -1)).terms == {}


@given(built, scalars)
@settings(max_examples=100, deadline=None)
def test_private_scale(e, c):
    assert_private_path(lambda: scale(e, c))


@given(built, st.sampled_from([0.0, 1e-12, 0.3, 0.9]))
@settings(max_examples=100, deadline=None)
def test_private_prune(e, rel_tol):
    assert_private_path(lambda: prune(e, rel_tol))


@given(scalars.filter(bool), offsets, built)
@settings(max_examples=100, deadline=None)
def test_private_mul_by_lone_u_power(c, h, e):
    lone = DiskExpr({(0, 0, 0): c}, h)
    assert_private_path(lambda: mul(lone, e))


@pytest.mark.parametrize("op", [spectral.nabla, spectral.nabla_star,
                                spectral.magnetic_laplacian],
                         ids=["nabla", "nabla_star", "magnetic_laplacian"])
@given(e=built, nu=st.one_of(offsets, st.fractions(-4, 4, max_denominator=12)))
@settings(max_examples=60, deadline=None)
def test_private_spectral_operators(op, e, nu):
    assert_private_path(lambda: op(nu, e))


@given(st.integers(0, 12), st.integers(0, 12), st.sampled_from([-0.5, 0.0, 0.5, 1.75, 2.0]))
@settings(max_examples=60, deadline=None)
def test_private_zernike_exprs(m, n, g):
    p = zernike.ZernikeParams(m, n, g)
    assert_private_path(lambda: zernike.rodrigues_expr.__wrapped__(p))
    assert_private_path(lambda: zernike.explicit_expr(p))
    # the charge-line reduction against the constructor's, from the raw sum
    raw = {(a, b, j): c for a, b, j, c in zernike._explicit_terms(m, n, g)}
    assert_same(zernike.explicit_expr(p), DiskExpr(raw))


@given(st.sampled_from([2.5, 4.2, 6.0, 9.75]), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_psi_start_matches_product(nu, m, n):
    sp = spectral.SpectralParams(nu, min(m, math.ceil(nu - 0.5) - 1), n)
    e = mul(DiskExpr.z_power(sp.n), DiskExpr.u_power(sp.nu - sp.m))
    for j in range(sp.m, 0, -1):
        e = spectral.nabla(sp.nu - j, e)
    assert_same(spectral.psi.__wrapped__(sp), e)
