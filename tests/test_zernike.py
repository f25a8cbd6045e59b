"""Tests for the polynomial evaluation routes and inner products."""

import cmath
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from diskpoly import algebra, zernike
from diskpoly.cauchy import cauchy_closed_line, cauchy_zernike_closed
from diskpoly.errors import DomainError, NonConvergentError, ParamMismatchError
from diskpoly.numerics import pochhammer
from diskpoly.sampling import disk_points
from diskpoly.suites import DEFAULT_GAMMAS, DEFAULT_SEED, normalized_deviation, run_suite
from diskpoly.zernike import (
    INDEX_CAP,
    MAX_NODES,
    ROUTES,
    ZernikeParams,
    contour_row,
    eval_contour,
    eval_contour_adaptive,
    eval_explicit,
    eval_gauss1,
    eval_gauss2,
    eval_jacobi,
    eval_rodrigues,
    eval_route,
    explicit_expr,
    jacobi_line,
    hermite,
    hermite_limit_error,
    inner_product,
    monomial_coeffs,
    norm_squared,
    rodrigues_expr,
    value_at_origin,
)


def _pass_nodes(n_nodes, odd):
    """The nodes of one contour pass: the n_nodes rule, or its odd half."""
    t = zernike._roots_of_unity(n_nodes)
    return t[1::2] if odd else t


def _rising(a, k):
    """Exact rising factorial (a)_k of a Fraction a."""
    return math.prod((a + i for i in range(k)), start=Fraction(1))


def _naive_terms(m, n, g):
    """Exact explicit-sum terms (z-power, zbar-power, u-power, coefficient)
    of a Fraction g, straight from the formula."""
    out = []
    for j in range(min(m, n) + 1):
        out.append((n - j, m - j, j, (-1) ** j * math.comb(m, j) * math.comb(n, j)
                    * math.factorial(j) * _rising(g + j + 1, m + n - j)))
    return out


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
        for g in ("0.5", None, 0.5j):
            with pytest.raises(DomainError, match="real number"):
                ZernikeParams(1, 1, g)
        # ints beyond the float range, and one whose repr exceeds Python's
        # int-to-str digit limit
        for g in (10**400, -10**400, 10**5000):
            with pytest.raises(DomainError, match="finite"):
                ZernikeParams(1, 1, g)

    def test_gamma_coerced_to_float(self):
        assert ZernikeParams(1, 1, 2).gamma == 2.0
        for g in (np.float32(0.5), np.float16(0.5), np.int64(2), Fraction(1, 2)):
            p = ZernikeParams(1, 1, g)
            assert type(p.gamma) is float and p == ZernikeParams(1, 1, float(g)), g

    @pytest.mark.parametrize("m, n", [(np.int64(2), 1), (2, np.int32(1)), (np.uint8(2), True)])
    def test_integer_like_indices_stored_as_int(self, m, n):
        p = ZernikeParams(m, n, 0.5)
        assert type(p.m) is int and type(p.n) is int
        assert p == ZernikeParams(2, 1, 0.5) and hash(p) == hash(ZernikeParams(2, 1, 0.5))

    @pytest.mark.parametrize("m, n", [(2.0, 1), (2, np.float64(1)), ("2", 1), (None, 1)])
    def test_non_integer_indices_rejected(self, m, n):
        with pytest.raises(DomainError):
            ZernikeParams(m, n, 0.5)


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

    def test_contour_nonconvergent_when_capped(self, monkeypatch):
        monkeypatch.setattr(zernike, "MAX_NODES", 128)
        p = ZernikeParams(1, 1, 0.0)
        with pytest.raises(NonConvergentError):
            eval_contour_adaptive(p, 0.97 + 0j)

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


class TestPointTypes:
    """Every route takes any complex number, numpy's included, and a 0-d
    array; only the array routes take an ndarray of points; anything else
    is a DomainError."""

    P = ZernikeParams(2, 1, 0.5)
    # 0.25 is exact in every float type below
    SAME = (Fraction(1, 4), np.float32(0.25), np.float64(0.25), np.complex64(0.25),
            np.array(0.25), np.array(0.25, np.float32), np.array(0.25 + 0j))

    def test_numbers_and_0d_arrays_accepted(self):
        for route in ROUTES:
            want = eval_route(self.P, 0.25, route)
            for z in self.SAME:
                got = eval_route(self.P, z, route)
                assert type(got) is complex and got == want, (route, z)
        # numpy's int 0 (the origin) and True (the point 1)
        assert eval_route(self.P, np.int64(0), "explicit") == eval_explicit(self.P, 0j)
        assert eval_route(self.P, True, "jacobi") == eval_jacobi(self.P, 1.0)

    @pytest.mark.parametrize("z", ["abc", "0.3", None, [0.3], (0.3,), {0.3},
                                   np.array(["0.3"]), np.array("0.3"),
                                   np.array([0.3], object)])
    def test_bad_types_rejected(self, z):
        for route in ROUTES:
            with pytest.raises(DomainError, match="complex number"):
                eval_route(self.P, z, route)

    def test_arrays_only_on_array_routes(self):
        zs = np.array([0.25, 0.5j])
        for route in ("gauss1", "gauss2", "rodrigues"):
            with pytest.raises(DomainError, match="complex number"):
                eval_route(self.P, zs, route)
        for route in ("explicit", "jacobi", "contour"):
            got = eval_route(self.P, zs, route)
            assert got.tolist() == [eval_route(self.P, z, route) for z in zs.tolist()]

    def test_huge_int_point_outside_disk(self):
        for route in ROUTES:
            with pytest.raises(DomainError, match="disk"):
                eval_route(self.P, 10**400, route)


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


class TestJacobiArrays:
    """eval_jacobi on ndarrays: the scalar calls' values to rounding, up to
    the index cap, with the scalar path's types and domain check."""

    CASES = TestArrayInput.CASES + [(64, 64, 0.5), (64, 10, -0.9), (56, 62, 301.0)]
    # interior points, the origin and the rim
    PTS = disk_points(8101, 20, 1.0) + [0j, 1.0, -1j, complex(0.6, 0.8)]

    def test_arrays_match_scalar_calls(self):
        pts = np.array(self.PTS)
        for m, n, g in self.CASES:
            p = ZernikeParams(m, n, g)
            want = [eval_jacobi(p, z) for z in self.PTS]
            s = max(map(abs, want))
            for shape in ((24,), (4, 6)):
                got = eval_jacobi(p, pts.reshape(shape))
                assert isinstance(got, np.ndarray) and got.shape == shape
                assert got.dtype == complex
                err = max(map(normalized_deviation, got.ravel().tolist(), want,
                              [s] * len(want)))
                assert err <= 1e-12, (m, n, g, shape, err)

    def test_scalar_input_gives_python_complex(self):
        p = ZernikeParams(3, 2, 0.5)
        for z in (0.3 - 0.2j, 0.4, np.complex128(0.3 - 0.2j), np.array(0.3 - 0.2j)):
            assert type(eval_jacobi(p, z)) is complex
        assert eval_jacobi(p, np.array(0.3 - 0.2j)) == eval_jacobi(p, 0.3 - 0.2j)
        assert eval_jacobi(p, np.zeros((0, 3), complex)).shape == (0, 3)

    def test_any_point_outside_rejected(self):
        p = ZernikeParams(2, 1, 0.5)
        for pts in (self.PTS[:3] + [complex(math.nan, 0.0)],
                    [complex(0.0, math.nan)] + self.PTS[:3],
                    self.PTS[:3] + [0.6 + 0.9j]):
            for shape in ((4,), (2, 2)):
                with pytest.raises(DomainError, match="disk"):
                    eval_jacobi(p, np.array(pts).reshape(shape))


class TestJacobiLine:
    """jacobi_line: every member of a charge line from one recurrence, equal
    to eval_jacobi at its indices bit for bit."""

    # the origin, interior points and the rim
    PTS = np.array([0j] + disk_points(2105, 3, 0.95) + [1.0, complex(-0.6, 0.8)])

    @staticmethod
    def _same_bits(a, b) -> bool:
        a, b = np.atleast_1d(a).astype(complex), np.atleast_1d(b).astype(complex)
        return a.shape == b.shape and np.array_equal(a.view(float), b.view(float),
                                                     equal_nan=True)

    @staticmethod
    def _members(k, g, z, s_max, s_min=0) -> list:
        """Each member of the line from s_min on, or the message of the
        NonConvergentError it raises; a raise ends a line, so the next
        member starts a line of its own."""
        out = []
        while s_min + len(out) <= s_max:
            try:
                out.extend(jacobi_line(k, g, z, s_max, s_min + len(out)))
            except NonConvergentError as exc:
                out.append(str(exc))
        return out

    @classmethod
    def _same(cls, v, p, z) -> bool:
        """v is eval_jacobi(p, z) bit for bit, or the message it raises."""
        try:
            return cls._same_bits(v, eval_jacobi(p, z))
        except NonConvergentError as exc:
            return v == str(exc)

    @pytest.mark.parametrize("g", [-0.99, -0.5, 0.0, 0.5, 2.5, 30.0, 300.0])
    def test_every_member_matches_eval_jacobi(self, g):
        # up to the cap, where gamma = 300 overflows to inf and nan: there
        # the line raises where eval_jacobi raises, with its message; a line
        # started at s_min is the full line's members from s_min on
        for k in range(-INDEX_CAP, INDEX_CAP + 1):
            s_max = INDEX_CAP - abs(k)
            members = self._members(k, g, self.PTS, s_max)
            assert len(members) == s_max + 1
            for s, v in enumerate(members):
                p = ZernikeParams(s + max(-k, 0), s + max(k, 0), g)
                assert self._same(v, p, self.PTS), (p, s)
            for s_min in {min(1, s_max), s_max // 2, s_max}:
                tail = self._members(k, g, self.PTS, s_max, s_min)
                assert len(tail) == s_max + 1 - s_min, (k, s_min)
                for s, v in enumerate(tail, s_min):
                    if isinstance(v, str):
                        assert v == members[s], (k, s_min, s)
                    else:
                        assert self._same_bits(v, members[s]), (k, s_min, s)

    def test_line_names_its_first_non_finite_point(self, monkeypatch):
        # at gamma = 300 both lines first overflow at s = 61, near the rim
        # only; a line raises at its first non-finite member, naming its
        # first non-finite point in array order, and a transform line names
        # its own weighted value, not the shifted member's
        zs = np.array([0.5, 0.3j, 0.99, -0.7, 1.0, -0.99j])
        for make, k in ((jacobi_line, 0), (cauchy_closed_line, 1)):
            with monkeypatch.context() as patch, np.errstate(all="ignore"):
                patch.setattr(zernike, "_finite", lambda v: v)
                raw = list(make(k, 300.0, zs, 63))
            s = next(s for s, v in enumerate(raw) if not np.isfinite(v).all())
            first = complex(raw[s][~np.isfinite(raw[s])][0])
            assert s > 0 and np.isfinite(raw[s][:2]).all()
            want = re.escape(f"value is not finite: {first.real!r}, {first.imag!r}") + "$"
            with pytest.raises(NonConvergentError, match=want):
                list(make(k, 300.0, zs, 63))

    def test_scalar_members_match_eval_jacobi(self):
        for g in (-0.5, 0.5, 30.0):
            for k in (-64, -3, 0, 5, 64):
                s_max = INDEX_CAP - abs(k)
                for z in (0j, complex(self.PTS[1]), 1.0, np.complex128(0.3 - 0.2j)):
                    for s, v in enumerate(jacobi_line(k, g, z, s_max)):
                        p = ZernikeParams(s + max(-k, 0), s + max(k, 0), g)
                        assert type(v) is complex
                        assert self._same_bits(v, eval_jacobi(p, z)), (p, z)

    def test_shapes_kept(self):
        pts = self.PTS[:6].reshape(2, 3)
        for v in jacobi_line(-2, 0.5, pts, 3):
            assert v.shape == (2, 3) and v.dtype == complex

    def test_no_members_when_s_min_above_s_max(self):
        assert list(jacobi_line(1, 0.5, 0.3, 2, 3)) == []

    # the rows at the default s_min = 0 leave it out of their ids
    @pytest.mark.parametrize("k, g, z, s_max, s_min", [
        pytest.param(65, 0.5, 0.3, 0, 0, id="65-0.5-0.3-0"),
        pytest.param(-65, 0.5, 0.3, 0, 0, id="-65-0.5-0.3-0"),
        pytest.param(3, 0.5, 0.3, 62, 0, id="3-0.5-0.3-62"),
        pytest.param(0, 0.5, 0.3, 65, 0, id="0-0.5-0.3-65"),
        pytest.param(0, -1.0, 0.3, 2, 0, id="0--1.0-0.3-2"),
        pytest.param(0, math.nan, 0.3, 2, 0, id="0-nan-0.3-2"),
        pytest.param(1, 0.5, 1.1, 2, 0, id="1-0.5-1.1-2"),
        pytest.param(1, 0.5, np.array([0.3, complex(0.0, math.nan)]), 2, 0, id="1-0.5-z7-2"),
        pytest.param(1.0, 0.5, 0.3, 2, 0, id="1.0-0.5-0.3-2"),
        pytest.param("1", 0.5, 0.3, 2, 0, id="str-0.5-0.3-2"),
        pytest.param(1, 0.5, 0.3, 2.0, 0, id="1-0.5-0.3-2.0"),
        pytest.param(1, 0.5, 0.3, None, 0, id="1-0.5-0.3-None"),
        (1, 0.5, 0.3, 2, 0.5), (1, 0.5, 0.3, 2, "1"), (1, 0.5, 0.3, 2, -1)])
    def test_bad_line_raises_before_first_member(self, k, g, z, s_max, s_min):
        with pytest.raises(DomainError):
            next(jacobi_line(k, g, z, s_max, s_min))

    # the line's top member (s_max + max(-k, 0), s_max + max(k, 0))
    @pytest.mark.parametrize("k, s_max, top", [(-3, 62, "(65, 62)"), (3, 62, "(62, 65)"),
                                               (-64, 1, "(65, 1)")])
    def test_line_cap_error_names_the_top_member(self, k, s_max, top):
        with pytest.raises(DomainError, match=rf"got {re.escape(top)}$"):
            next(jacobi_line(k, 0.5, 0.3, s_max))

    def test_one_prefactor_per_one_member_call(self, monkeypatch):
        # eval_jacobi and the closed transform (n >= 1) form only their own
        # member, so each takes one prefactor, not one per member below it
        calls = []
        real = zernike._jacobi_prefactor

        def counted(s, k, g):
            calls.append(s)
            return real(s, k, g)

        monkeypatch.setattr(zernike, "_jacobi_prefactor", counted)
        for m, n in [(0, 0), (3, 5), (8, 8), (64, 64), (40, 64), (64, 1)]:
            for z in (0.3 - 0.2j, self.PTS):
                calls.clear()
                eval_jacobi(ZernikeParams(m, n, 0.5), z)
                assert calls == [min(m, n)], (m, n)
                calls.clear()
                cauchy_zernike_closed(ZernikeParams(m, max(n, 1), 0.5), z)
                assert calls == [min(m, max(n, 1) - 1)], (m, n)


class TestContourNodeCount:
    P = ZernikeParams(2, 1, 0.5)
    Z = 0.3 - 0.2j

    def test_fractional_count_rejected(self):
        # a count of 100.5 would sum 101 nodes over a 100.5-step angle
        # grid: a value 0.8% off, returned without a word
        with pytest.raises(DomainError):
            eval_contour(self.P, self.Z, 100.5)

    def test_no_count_rejected(self):
        # None is no count: it does not select the adaptive rule here
        with pytest.raises(DomainError, match="must be an integer, got None"):
            eval_contour(self.P, self.Z, None)

    def test_numpy_integer_count_accepted(self):
        want = eval_contour(self.P, self.Z, 128)
        assert eval_contour(self.P, self.Z, np.int64(128)) == want

    def test_count_above_cap_rejected(self):
        # a count of 10**15 once died allocating 7 PiB
        for count in (MAX_NODES + 1, 10**15):
            with pytest.raises(DomainError, match="at most"):
                eval_contour(self.P, self.Z, count)
        assert eval_contour(self.P, self.Z, MAX_NODES) == pytest.approx(
            eval_explicit(self.P, self.Z), rel=1e-12)

    def test_no_pass_beyond_max_nodes(self, monkeypatch):
        counts = []
        real = zernike._pass_sums

        def spy(m, g, ns, zs, n_nodes, odd, mods):
            counts.append(len(_pass_nodes(n_nodes, odd)))
            return real(m, g, ns, zs, n_nodes, odd, mods)

        monkeypatch.setattr(zernike, "_pass_sums", spy)
        monkeypatch.setattr(zernike, "MAX_NODES", 100)
        with pytest.raises(NonConvergentError, match="at 64 nodes"):
            eval_contour_adaptive(ZernikeParams(1, 1, 0.0), 0.97 + 0j)
        assert counts == [64]


class TestNestedDoubling:
    """Each doubling of the adaptive contour rule evaluates only the new
    odd-indexed nodes of the doubled rule."""

    PTS = disk_points(DEFAULT_SEED + 2, 8, 0.8)  # the contour suite's points

    @staticmethod
    def _spy(monkeypatch, passes):
        real = zernike._pass_sums

        def spy(m, g, ns, zs, n_nodes, odd, mods):
            passes.append(_pass_nodes(n_nodes, odd).tolist())
            return real(m, g, ns, zs, n_nodes, odd, mods)

        monkeypatch.setattr(zernike, "_pass_sums", spy)

    def test_even_nodes_are_the_halved_rule(self):
        for n_nodes in (16, 64, 100, 256, 4096, MAX_NODES // 2):
            doubled = zernike._roots_of_unity(2 * n_nodes)[::2]
            assert doubled.tobytes() == zernike._roots_of_unity(n_nodes).tobytes()

    def test_each_node_evaluated_once(self, monkeypatch):
        passes = []
        self._spy(monkeypatch, passes)
        eval_contour_adaptive(ZernikeParams(1, 1, 0.5), 0.64 + 0.48j)
        assert [len(t) for t in passes] == [64, 64, 128]
        nodes = [node for t in passes for node in t]
        assert len(set(nodes)) == len(nodes) == 256
        assert set(nodes) == set(zernike._roots_of_unity(256).tolist())

    def test_no_pass_beyond_max_nodes(self, monkeypatch):
        passes = []
        self._spy(monkeypatch, passes)
        monkeypatch.setattr(zernike, "MAX_NODES", 255)
        with pytest.raises(NonConvergentError, match="at 128 nodes"):
            eval_contour_adaptive(ZernikeParams(1, 1, 0.5), 0.64 + 0.48j)
        assert [len(t) for t in passes] == [64, 64]

    def test_value_matches_fixed_rule_at_settled_count(self, monkeypatch):
        # the two sums add the same terms in different orders, so they
        # differ by roundoff of the node sum: normalized by the summand's
        # L1 scale, which is what the adaptive rule's own floor uses
        real = zernike._pass_sums
        passes = []
        self._spy(monkeypatch, passes)
        for g in DEFAULT_GAMMAS:
            for m in range(5):
                for n in range(5):
                    p = ZernikeParams(m, n, g)
                    for z in self.PTS:
                        passes.clear()
                        got = eval_contour_adaptive(p, z)
                        settled = sum(len(t) for t in passes)
                        want = eval_contour(p, z, settled)
                        pref = pochhammer(g + m + 1, n) * math.factorial(m) * \
                            (1.0 - (z.real * z.real + z.imag * z.imag)) ** -g
                        _, mods = real(m, g, [n], np.array([z]), settled, False, True)
                        l1 = abs(pref) * mods[0, 0] / settled
                        assert abs(got - want) <= 1e-14 * l1, (m, n, g, z)


class TestContourArrays:
    """The contour routes on ndarrays give the scalar calls' values bit for
    bit: every point of an adaptive call doubles on its own."""

    PTS = disk_points(DEFAULT_SEED + 2, 8, 0.8)  # the contour suite's points

    def test_arrays_equal_scalar_calls(self):
        zs = np.array(self.PTS)
        for g in DEFAULT_GAMMAS:
            for m in range(5):
                for n in range(5):
                    p = ZernikeParams(m, n, g)
                    assert eval_contour_adaptive(p, zs).tolist() == \
                        [eval_contour_adaptive(p, z) for z in self.PTS], (m, n, g)
                    assert eval_contour(p, zs, 512).tolist() == \
                        [eval_contour(p, z, 512) for z in self.PTS], (m, n, g)

    def test_blocked_pass_equals_scalar_calls(self, monkeypatch):
        # two points per block at 512 nodes, one per block from 1024 on
        monkeypatch.setattr(zernike, "_PASS_SIZE", 1024)
        p = ZernikeParams(3, 1, 0.5)
        zs = np.array(self.PTS[:7] + [0.79j])
        want = [eval_contour_adaptive(p, z) for z in zs.tolist()]
        assert eval_contour_adaptive(p, zs).tolist() == want
        assert eval_contour(p, zs, 512).tolist() == \
            [eval_contour(p, z, 512) for z in zs.tolist()]

    def test_shapes(self):
        p = ZernikeParams(2, 3, 1.0)
        zs = np.array(self.PTS).reshape(2, 4)
        for got in (eval_contour_adaptive(p, zs), eval_contour(p, zs, 128)):
            assert isinstance(got, np.ndarray) and got.shape == (2, 4)
            assert got.dtype == complex
        for z in (0.3 - 0.2j, 0.4, np.complex128(0.3 - 0.2j), np.array(0.3 - 0.2j)):
            assert type(eval_contour_adaptive(p, z)) is complex
            assert type(eval_contour(p, z, 128)) is complex
        empty = np.zeros((0, 3), complex)
        assert eval_contour_adaptive(p, empty).shape == (0, 3)
        assert eval_contour(p, empty, 64).shape == (0, 3)

    def test_any_bad_point_rejected(self):
        p = ZernikeParams(1, 1, 0.0)
        for pts in (self.PTS[:3] + [complex(np.nan, 0.0)],
                    [complex(0.0, np.nan)] + self.PTS[:3],
                    self.PTS[:3] + [1.0],
                    self.PTS[:3] + [0.6 + 0.9j]):
            for shape in ((4,), (2, 2)):
                zs = np.array(pts).reshape(shape)
                with pytest.raises(DomainError, match="disk"):
                    eval_contour_adaptive(p, zs)
                with pytest.raises(DomainError, match="disk"):
                    eval_contour(p, zs, 64)

    def test_one_slow_point_fails_the_call(self, monkeypatch):
        monkeypatch.setattr(zernike, "MAX_NODES", 128)
        p = ZernikeParams(1, 1, 0.0)
        with pytest.raises(NonConvergentError, match=r"0\.97\+0j"):
            eval_contour_adaptive(p, np.array(self.PTS[:3] + [0.97]))
        # the message names the point in full, not rounded to 1+0j
        with pytest.raises(NonConvergentError, match=r"0\.9999999\+0j"):
            eval_contour_adaptive(p, np.array([0.1, 0.9999999]))

    def test_overflow_is_a_convergence_error(self):
        # the summand overflows at 0.3+0.2i, the prefactor u**-gamma at 0.9
        p = ZernikeParams(64, 64, 1000.0)
        for z in (0.3 + 0.2j, 0.9 + 0j, np.array([0.1, 0.9])):
            with pytest.raises(NonConvergentError):
                eval_contour_adaptive(p, z)
        # the fixed rule rejects an overflowing pass as the adaptive one does
        for z in (0.9 + 0j, 0.3 + 0.2j, np.array([0.1, 0.3 + 0.2j])):
            with pytest.raises(NonConvergentError):
                eval_contour(p, z, 64)
        with pytest.raises(NonConvergentError, match=r"not finite.*0\.3\+0\.2j"):
            eval_contour(p, 0.3 + 0.2j, 64)

    @pytest.mark.parametrize("rule", [eval_contour_adaptive,
                                      lambda p, z: eval_contour(p, z, 64)],
                             ids=["adaptive", "fixed"])
    def test_first_non_finite_point_named(self, rule):
        # At (64, 64), gamma = 1000, the prefactor and the node sum are
        # finite at 0.1 and 0.2, but their product overflows; at 0.5 the
        # prefactor itself is inf; at 0.8 and 0.9 its power u**-gamma
        # overflows.  0 and 0.05 give finite passes.
        p = ZernikeParams(64, 64, 1000.0)
        for pts, first in (([0.0, 0.05, 0.2, 0.1], r"0\.2"),
                           ([[0.05, 0.0], [0.2, 0.1]], r"0\.2"),
                           ([0.05, 0.5, 0.1], r"0\.5")):
            with pytest.raises(NonConvergentError,
                               match=rf"pass at 64 nodes is not finite .* at z=\({first}\+0j\)$"):
                rule(p, np.array(pts))
        with pytest.raises(NonConvergentError,
                           match=r"prefactor overflows .* at z=\(0\.9\+0j\)$"):
            rule(p, np.array([0.05, 0.9, 0.8]))

    def test_overflowing_polar_power_is_a_convergence_error(self):
        # |w|^(gamma+m) overflows on the polar path for a fractional
        # exponent: |1 - t/2|^1800.5 reaches 1.5^1800.5
        p = ZernikeParams(0, 0, 1800.5)
        with pytest.raises(NonConvergentError, match="not finite"):
            eval_contour(p, 0.5, 64)
        with pytest.raises(NonConvergentError, match="not finite"):
            eval_contour_adaptive(p, 0.5)


class TestContourRow:
    """Each member of ``contour_row`` is its one-member call: the same value
    bit for bit, or the same error."""

    ROUTES_PTS = disk_points(DEFAULT_SEED + 1, 6, 0.8)  # the routes suite's contour points
    CONTOUR_PTS = disk_points(DEFAULT_SEED + 2, 8, 0.8)  # the contour suite's points

    @staticmethod
    def _one_member(p, z, n_nodes):
        try:
            if n_nodes is None:
                return eval_contour_adaptive(p, z)
            return eval_contour(p, z, n_nodes)
        except NonConvergentError as err:
            return err

    def _assert_row(self, m, g, z, n_max, n_nodes):
        row = contour_row(m, g, z, n_max, n_nodes)
        assert len(row) == n_max + 1
        for n, got in enumerate(row):
            want = self._one_member(ZernikeParams(m, n, g), z, n_nodes)
            assert type(got) is type(want), (m, n, g, n_nodes)
            if isinstance(want, NonConvergentError):
                assert str(got) == str(want)
            else:
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (m, n, g)
        return row

    @pytest.mark.parametrize("g", [*DEFAULT_GAMMAS, -0.9, 0.37, 5.5, 30.0])
    def test_members_equal_one_member_calls(self, g):
        for pts in (self.ROUTES_PTS, self.CONTOUR_PTS):
            for m in range(9):
                for n_nodes in (None, 512):
                    self._assert_row(m, g, np.array(pts), 8, n_nodes)

    def test_shapes(self):
        for n_nodes in (None, 128):
            self._assert_row(2, 0.5, 0.3 - 0.2j, 4, n_nodes)
            self._assert_row(2, 0.5, np.array(self.CONTOUR_PTS).reshape(2, 4), 4, n_nodes)
            row = self._assert_row(2, 0.5, np.zeros((0, 3), complex), 4, n_nodes)
            assert all(v.shape == (0, 3) for v in row)

    def test_mixed_row_matches_scalar_calls(self, monkeypatch):
        # at 256 nodes member n = 0 has settled and n = 1..8 are still
        # moving, so the row doubles on sub-rectangles of its members and
        # points; each entry is still the scalar call's value, and each
        # failing member has the error of its first failing point
        monkeypatch.setattr(zernike, "MAX_NODES", 256)
        row = contour_row(2, 2.5, np.array(self.CONTOUR_PTS), 8)
        assert [isinstance(v, NonConvergentError) for v in row] == [False] + [True] * 8
        for n, got in enumerate(row):
            want = [self._one_member(ZernikeParams(2, n, 2.5), z, None)
                    for z in self.CONTOUR_PTS]
            errors = [str(w) for w in want if isinstance(w, NonConvergentError)]
            if errors:
                assert str(got) == errors[0], n
            else:
                assert got.tobytes() == np.array(want).tobytes(), n

    def test_member_failing_on_a_doubling_keeps_its_error(self, monkeypatch):
        # a NaN in member n = 1's 128-node pass at the second point: that
        # member fails there and stays failed, and the others keep their bits
        pass_sums = zernike._pass_sums

        def nan_at_128(m, gamma, ns, zs, n_nodes, odd, mods):
            sums, moduli = pass_sums(m, gamma, ns, zs, n_nodes, odd, mods)
            if n_nodes == 128:
                sums[list(ns).index(1), 1] = np.nan
            return sums, moduli

        z = np.array(self.CONTOUR_PTS)
        want = contour_row(2, 0.5, z, 4)
        monkeypatch.setattr(zernike, "_pass_sums", nan_at_128)
        row = contour_row(2, 0.5, z, 4)
        assert str(row[1]) == ("contour pass at 128 nodes is not finite for "
                               f"(m=2, n=1, gamma=0.5) at z={complex(z[1])!r}")
        assert all(row[n].tobytes() == want[n].tobytes() for n in (0, 2, 3, 4))

    @pytest.mark.parametrize("n_nodes", [None, 64], ids=["adaptive", "fixed"])
    def test_failing_members_keep_their_errors(self, n_nodes):
        # At (64, n), gamma = 1000, a pass overflows at 0.3+0.2i from n = 9
        # on and at 0.1 for the last members, at 0.2 from n = 42 on, and
        # the prefactor overflows at 0.9 for every member
        z = np.array([0.1, 0.3 + 0.2j])
        row = self._assert_row(64, 1000.0, z, 64, n_nodes)
        assert not isinstance(row[8], NonConvergentError)
        assert str(row[9]).endswith("at z=(0.3+0.2j)") and "n=9," in str(row[9])
        assert str(row[64]).endswith("at z=(0.1+0j)") and "n=64," in str(row[64])
        # the members before the first failure are those of a shorter row
        short = contour_row(64, 1000.0, z, 8, n_nodes)
        assert [v.tobytes() for v in short] == [v.tobytes() for v in row[:9]]
        row = self._assert_row(64, 1000.0, np.array([0.0, 0.05, 0.2, 0.1]), 64, n_nodes)
        assert [isinstance(v, NonConvergentError) for v in row] == [False] * 42 + [True] * 23
        row = self._assert_row(64, 1000.0, np.array([0.05, 0.9, 0.8]), 64, n_nodes)
        assert all("prefactor overflows" in str(v) for v in row)

    def test_still_moving_members(self, monkeypatch):
        monkeypatch.setattr(zernike, "MAX_NODES", 128)
        row = self._assert_row(1, 0.0, np.array(self.CONTOUR_PTS[:3] + [0.97]), 4, None)
        assert all("still moving at 128 nodes" in str(v) for v in row)

    @pytest.mark.parametrize("args", [
        (-1, 0.5, 0.3, 2), (2, 0.5, 0.3, 65), (2, 0.5, 0.3, 1.5), (2, -1.0, 0.3, 2),
        (2, 0.5, 1.0, 2), (2, 0.5, np.array([0.3, np.nan]), 2), (2, 0.5, "0.3", 2),
        (2, 0.5, 0.3, 2, 8), (2, 0.5, 0.3, 2, MAX_NODES + 1), (2, 0.5, 0.3, 2, 64.5)])
    def test_bad_arguments(self, args):
        with pytest.raises(DomainError):
            contour_row(*args)


class TestContourKernel:
    """The node sum against the one-line summand that numpy evaluates with
    its complex pow: bit for bit where gamma + m is an integer, within a few
    (gamma + m) ulps of libm cpow, relative to the L1 scale, elsewhere."""

    PTS = disk_points(DEFAULT_SEED + 2, 8, 0.8)  # the contour suite's points

    @staticmethod
    def _pow_summand_sums(p, zs, t):
        m, n, g = p.m, p.n, p.gamma
        tn = t ** (n + 1)
        zc = zs[:, None]
        vals = tn * (1 - t * zc.conj()) ** (g + m) / (zc - t) ** (m + 1)
        return vals.sum(axis=1), np.abs(vals).sum(axis=1)

    @pytest.mark.parametrize("n_nodes", [64, 512])
    @pytest.mark.parametrize("g", [-0.9, -0.5, 0.0, 0.37, 1.0, 2.5, 30.5])
    def test_matches_pow_summand(self, g, n_nodes):
        # one pass serves the row n = 0..8; each row of its sums is checked
        zs = np.array(self.PTS)
        t = zernike._roots_of_unity(n_nodes)
        for m in range(9):
            sums, mods = zernike._pass_sums(m, g, range(9), zs, n_nodes, False, True)
            for n in range(9):
                want_sums, want_mods = self._pow_summand_sums(ZernikeParams(m, n, g), zs, t)
                e = g + m
                if e.is_integer():
                    assert sums[n].tobytes() == want_sums.tobytes(), (m, n, g)
                    assert mods[n].tobytes() == want_mods.tobytes(), (m, n, g)
                else:
                    tol = 64 * max(abs(e), 1) * 2.0**-52 * want_mods
                    assert np.all(np.abs(sums[n] - want_sums) <= tol), (m, n, g)
                    assert np.all(np.abs(mods[n] - want_mods) <= tol), (m, n, g)

    def test_row_sums_independent_of_row_and_blocks(self, monkeypatch):
        # a member's sums are the same bytes alone, in a row, without the
        # moduli, and in blocks of two points at 512 nodes; the odd nodes
        # of 128 are a strided view
        zs = np.array(disk_points(DEFAULT_SEED, 32, 0.8))
        passes = [(m, g, n_nodes, odd) for g in (-0.9, 0.37, 2.0) for m in (0, 3)
                  for n_nodes, odd in ((64, False), (128, True), (512, False))]

        def member_sums():
            out = []
            for m, g, n_nodes, odd in passes:
                row = zernike._pass_sums(m, g, (0, 1, 2, 5, 8), zs, n_nodes, odd, True)
                alone = zernike._pass_sums(m, g, (5,), zs, n_nodes, odd, True)
                sums, mods = zernike._pass_sums(m, g, (5,), zs, n_nodes, odd, False)
                assert mods is None
                assert row[0][3].tobytes() == alone[0][0].tobytes() == sums[0].tobytes()
                assert row[1][3].tobytes() == alone[1][0].tobytes()
                out.append(alone[0].tobytes() + alone[1].tobytes())
            return out

        whole = member_sums()
        monkeypatch.setattr(zernike, "_PASS_SIZE", 1024)
        assert member_sums() == whole

    def test_node_powers_read_only(self):
        for odd in (False, True):
            tk = zernike._node_powers(128, odd, 3)
            assert tk.tobytes() == (_pass_nodes(128, odd) ** 3).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                tk[0] = 0

    def test_powers_beyond_cache_bound_equal(self, monkeypatch):
        # above _POWER_NODES the powers are rebuilt per block, not cached
        p = ZernikeParams(2, 3, 0.37)
        zs = np.array(self.PTS[:3])
        want = eval_contour(p, zs, 1024)
        monkeypatch.setattr(zernike, "_POWER_NODES", 512)
        zernike._node_powers.cache_clear()
        assert eval_contour(p, zs, 1024).tobytes() == want.tobytes()
        assert zernike._node_powers.cache_info().currsize == 0


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
        # at gamma = 0.1, gamma + m + n rounds, and the offset must still be
        # the int 0, not the rounding's leftover
        for g in (0.5, 0.1):
            for m, n in ((3, 2), (0, 1), (0, 4), (4, 3)):
                r = rodrigues_expr(ZernikeParams(m, n, g))
                assert r.base_offset == 0 and type(r.base_offset) is int, (m, n, g)
                assert all(k >= 0 for (_, _, k) in r.terms)

    def test_matches_explicit_on_the_circle(self):
        # u = 0 there, so only the u^0 terms count, and a leftover offset
        # made them vanish or diverge
        pts = (1.0, cmath.exp(0.7j), (1 + 1e-13) * cmath.exp(2j))
        for g in (0.1, 0.3, -0.7, 2.3):
            for m in range(5):
                for n in range(5):
                    p = ZernikeParams(m, n, g)
                    for z in pts:
                        want = eval_explicit(p, z)
                        assert eval_rodrigues(p, z) == pytest.approx(want, rel=1e-12), \
                            (m, n, g, z)

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

    @pytest.mark.parametrize("g", [Fraction(1, 2), Fraction(5, 2), Fraction(-9, 10),
                                   Fraction(7, 3)])
    def test_matches_generic_derivative_chain(self, g):
        # the charge-line recursion against algebra's generic Wirtinger
        # derivatives, d_zbar^n then d_z^m, exactly over Fractions; the
        # recursion runs on a stand-in that carries the Fraction
        # gamma (7/3 gives a scale Q that is not a power of 2), and each
        # of its float coefficients must be the exact one, correctly rounded
        for m in range(7):
            for n in range(7):
                e = algebra.DiskExpr.u_power(g + m + n)
                for _ in range(n):
                    e = algebra.d_zbar(e)
                for _ in range(m):
                    e = algebra.d_z(e)
                r = rodrigues_expr(SimpleNamespace(m=m, n=n, gamma=g))
                assert e.base_offset == g and r.base_offset == 0, (m, n, g)
                assert r.terms.keys() == e.terms.keys(), (m, n, g)
                sign = (-1) ** (m + n)
                for key, c in e.terms.items():
                    assert r.terms[key].hex() == float(sign * c).hex(), (m, n, g, key)

    # the seeded gamma has a full 53-bit significand: Q = 2^55
    @pytest.mark.parametrize("g", [-0.9, 0.5, 2.5, 0.1 + random.Random(1).random()])
    def test_coefficients_correctly_rounded(self, g):
        small = [(m, n) for m in range(5) for n in range(5)]
        for m, n in small + [(40, 40), (64, 10), (10, 64), (30, 60), (64, 64)]:
            exact = algebra.DiskExpr({(a, b, j): c for a, b, j, c
                                      in _naive_terms(m, n, Fraction(g))})
            r = rodrigues_expr(ZernikeParams(m, n, g))
            assert r.base_offset == 0 and type(r.base_offset) is int, (m, n, g)
            assert r.terms.keys() == exact.terms.keys(), (m, n, g)
            for key, c in exact.terms.items():
                assert r.terms[key].hex() == float(c).hex(), (m, n, g, key)

    # 123.456: some coefficients overflow a float; 1000: all of them
    @pytest.mark.parametrize("g", [123.456, 1000.0])
    def test_overflow_raises_nonconvergent(self, g):
        p = ZernikeParams(64, 64, g)
        msg = rf"m=64, n=64, gamma={g:g}\)"
        with pytest.raises(NonConvergentError, match=msg):
            rodrigues_expr(p)
        z = 0.3 + 0.2j
        if g == 1000.0:
            with pytest.raises(NonConvergentError, match=msg):
                eval_rodrigues(p, z)
        else:
            # the route sums the exact ints, and the value is in range
            # though some rounded coefficients are not
            assert eval_rodrigues(p, z) == -1.1766661447146164e241
            assert eval_rodrigues(p, z) == pytest.approx(eval_jacobi(p, z), rel=1e-13)


def _exact_value(m, n, g, z):
    """The member at z as two Fractions, from the exact explicit terms and
    z's binary value: the angular factor times sum_j c_j |z|^(2(s-j)) u^j."""
    x, y = Fraction(z.real), Fraction(z.imag)
    r2 = x * x + y * y
    radial = sum(c * r2 ** (min(m, n) - j) * (1 - r2) ** j
                 for _, _, j, c in _naive_terms(m, n, Fraction(g)))
    if n < m:  # the angular factor is a power of conj(z)
        y = -y
    re, im = radial, Fraction(0)
    for _ in range(abs(n - m)):
        re, im = re * x - im * y, re * y + im * x
    return re, im


class TestRodriguesExact:
    """eval_rodrigues sums the Rodrigues ints exactly and rounds once."""

    PAIRS = [(0, 0), (3, 0), (0, 5), (3, 2), (8, 8), (20, 20), (23, 57), (64, 10), (64, 64)]
    POINTS = [0.3 + 0.2j, 0.9 - 0.3j, 0.6885 + 0.5798j, 0.1 - 0.7j, 1.0, cmath.exp(0.7j), 0.5,
              0j]

    @pytest.mark.parametrize("g", [0.5, -0.9, 2.5, 30.0])
    def test_correctly_rounded(self, g):
        # each part is the exact value rounded to nearest, an exact zero
        # +0.0 (off the diagonal at the origin, the imaginary part on the
        # real axis); at the tiny point some parts underflow to -0.0
        tiny = [(pair, 1e-300 + 2e-300j) for pair in self.PAIRS[:5]]
        for (m, n), z in [(pair, z) for pair in self.PAIRS for z in self.POINTS] + tiny:
            re, im = _exact_value(m, n, g, z)
            got = eval_rodrigues(ZernikeParams(m, n, g), z)
            assert got.real.hex() == float(re).hex(), (m, n, z)
            assert got.imag.hex() == float(im).hex(), (m, n, z)

    def test_at_the_cap(self):
        # the float sum gave -1.72e243 here
        p = ZernikeParams(64, 64, 0.5)
        assert eval_rodrigues(p, 0.3 + 0.2j) == -6.7365837517679195e214

    def test_ints_cached_for_the_route_only(self):
        # rodrigues_expr's builds would hold the ints twice
        zernike._rodrigues_ints.cache_clear()
        rodrigues_expr(ZernikeParams(5, 4, 0.3))
        assert zernike._rodrigues_ints.cache_info().currsize == 0
        eval_rodrigues(ZernikeParams(5, 4, 0.3), 0.2)
        eval_rodrigues(ZernikeParams(5, 4, 0.3), 0.4j)
        assert zernike._rodrigues_ints.cache_info()[:2] == (1, 1)

    # the float sum over rounded coefficients failed rodrigues_vs_explicit
    # at gamma = 2.5, (8, 8) at these seeds
    @pytest.mark.parametrize("seed", [38, 70, 130, 157])
    def test_routes_suite_passes(self, seed):
        report = run_suite("routes", 8, seed=seed)
        assert report.all_passed, [r for r in report.rows if not r.passed]


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

    @staticmethod
    def _naive_sum(g, terms1, terms2):
        """Exact radial sum, one beta moment per pair of terms."""
        total = Fraction(0)
        for a1, b1, j1, v1 in terms1:
            for a2, b2, j2, v2 in terms2:
                d = (a1 + b1 + a2 + b2) // 2
                rising = _rising(g + j1 + j2 + 1, d + 1)
                total += v1 * v2 * math.factorial(d) / rising
        return total

    @pytest.mark.parametrize("g", [-0.5, 0.0, 1 / 3, 2.5, 2.718281828])
    def test_grouped_sum_is_bit_identical_to_naive(self, g):
        # grouping the pairs by J = j1 + j2 reorders an exact sum, so the
        # single rounding at the end must see the same rational
        idx = [(m, n) for m in range(9) for n in range(9)]
        pairs = [(a, b) for i, a in enumerate(idx) for b in idx[i:]
                 if a[1] - a[0] == b[1] - b[0]]
        exact = Fraction(g)
        terms = {mn: _naive_terms(*mn, exact) for mn in idx}
        for a, b in pairs:
            want = math.pi * float(self._naive_sum(exact, terms[a], terms[b]))
            got = inner_product(ZernikeParams(*a, g), ZernikeParams(*b, g))
            assert got.hex() == want.hex(), (a, b)

    @staticmethod
    def _grouped_fraction_sum(p1, p2):
        """The grouped sum over Fractions that the scaled-integer sum
        replaced: one convolution by J, one exact moment per J."""
        g = Fraction(p1.gamma)
        t1 = _naive_terms(p1.m, p1.n, g)
        t2 = _naive_terms(p2.m, p2.n, g)
        conv = [0] * (len(t1) + len(t2) - 1)
        for _, _, j1, v1 in t1:
            for _, _, j2, v2 in t2:
                conv[j1 + j2] += v1 * v2
        half = (p1.m + p1.n + p2.m + p2.n) // 2
        rising = _rising(g + len(conv) + 1, half - len(conv) + 1)
        total = Fraction(0)
        for J in reversed(range(len(conv))):
            rising *= g + J + 1
            total += conv[J] * math.factorial(half - J) / rising
        return math.pi * float(total)

    # the seeded gamma, 0.2343..., has a full 53-bit significand: Q = 2^55
    @pytest.mark.parametrize("g", [-0.9, 0.5, 2.5, 300.0,
                                   0.1 + random.Random(1).random()])
    def test_large_indices_bit_identical_to_fractions(self, g):
        for a, b in [((40, 40), (40, 40)), ((30, 60), (34, 64)), ((64, 10), (60, 6))]:
            p1, p2 = ZernikeParams(*a, g), ZernikeParams(*b, g)
            want = self._grouped_fraction_sum(p1, p2)
            assert inner_product(p1, p2).hex() == want.hex(), (a, b, g)

    # (64, 64): N / D overflows; (49, 49) at 3.552: N / D fits, pi N / D
    # does not
    @pytest.mark.parametrize("m, g", [(64, 0.5), (49, 3.552)])
    def test_overflow_raises_nonconvergent(self, m, g):
        p = ZernikeParams(m, m, g)
        msg = rf"m1={m}, n1={m}, m2={m}, n2={m}, gamma={g:g}\)"
        with pytest.raises(NonConvergentError, match=msg):
            inner_product(p, p)
        with pytest.raises(NonConvergentError, match=msg):
            norm_squared(p)

    def test_differing_charges_give_zero(self):
        assert inner_product(ZernikeParams(3, 5, 1 / 3), ZernikeParams(4, 5, 1 / 3)) == 0.0

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

    @pytest.mark.parametrize("z", ["abc", "0.3", None, [0.3], np.array([0.3, 0.2]),
                                   np.array("0.3")])
    def test_bad_point_types_rejected(self, z):
        with pytest.raises(DomainError, match="complex number"):
            hermite(1, 1, z)
        with pytest.raises(DomainError, match="complex number"):
            hermite_limit_error(1, 1, z, 5.0)

    def test_point_types_accepted(self):
        # the point may lie anywhere in the plane; numbers of every kind
        # and 0-d arrays give the complex point's value bit for bit
        for z in (2.5, 2.5 + 0j, Fraction(5, 2), np.float32(2.5), np.complex128(2.5),
                  np.array(2.5), np.int64(0)):
            assert hermite(2, 1, z) == hermite(2, 1, complex(z)), z
        assert hermite_limit_error(2, 1, np.complex128(0.7 + 0.3j), 10.0) \
            == hermite_limit_error(2, 1, 0.7 + 0.3j, 10.0)
