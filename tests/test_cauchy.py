"""Tests for the weighted Cauchy transform routes.

The closed forms are checked against hand-derived special cases, against
each other, and against a brute-force 2D quadrature oracle that knows
nothing about the algebra.
"""

import math

import numpy as np
import pytest

from diskpoly import (
    DomainError,
    NZeroError,
    ZernikeParams,
    cauchy_closed_line,
    cauchy_direct_2d,
    cauchy_monomial_2f1,
    cauchy_monomial_closed,
    cauchy_zernike_closed,
    cauchy_zernike_quad,
    eval_explicit,
    eval_jacobi,
)
from diskpoly.sampling import disk_points
from diskpoly.suites import DEFAULT_GAMMAS, normalized_deviation

Z0 = 0.35 - 0.55j
U0 = 1.0 - abs(Z0) ** 2

GAMMAS = (-0.5, 0.0, 1.0, 2.5)


def test_constant_hand_formula():
    # C(1)(z) = -(1 - u^(g+1)) / ((g+1) z), from the chi = 0 branch by hand
    for g in GAMMAS:
        for z in disk_points(7001, 5, 0.9):
            u = 1.0 - abs(z) ** 2
            ref = -(1.0 - u ** (g + 1)) / ((g + 1) * z)
            assert cauchy_monomial_closed(0, 0, 0, g, z) == pytest.approx(ref, rel=1e-14)


def test_z_hand_formula():
    # C(z)(z) = u^(g+1) / (g+1), the chi = 1 branch
    for g in GAMMAS:
        for z in disk_points(7002, 5, 0.9):
            u = 1.0 - abs(z) ** 2
            ref = u ** (g + 1) / (g + 1)
            assert cauchy_monomial_closed(0, 1, 0, g, z) == pytest.approx(ref, rel=1e-14)


def test_monomial_frozen_value():
    # frozen oracle value: cauchy_direct_2d at 384x768 nodes gave the same value
    # to 2.9e-17 absolute, and the 2f1 route to 3.9e-18, before freezing.
    v = cauchy_monomial_closed(2, 1, 1, 0.5, Z0)
    assert v == pytest.approx(0.014415689414701446 - 0.030833557914778088j, abs=1e-15)


def test_monomial_direct_2d_agreement():
    def f(p, q, k):
        return lambda w: w.conjugate() ** p * w ** q * (1.0 - abs(w) ** 2) ** k

    for (p, q, k, g) in [(2, 1, 1, 0.5), (1, 3, 0, -0.5), (0, 0, 2, 2.5), (3, 0, 1, 0.0)]:
        a = cauchy_monomial_closed(p, q, k, g, Z0)
        b = cauchy_direct_2d(f(p, q, k), g, Z0, 96, 192)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_monomial_2f1_matches_closed():
    pts = [z for z in disk_points(7003, 8, 0.95)]
    for (p, q, k) in [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 3, 0), (4, 2, 2), (2, 2, 3)]:
        for g in GAMMAS:
            for z in pts:
                a = cauchy_monomial_closed(p, q, k, g, z)
                b = cauchy_monomial_2f1(p, q, k, g, z)
                assert abs(a - b) <= 1e-12 * max(abs(a), 1e-6)


def test_monomial_2f1_named_points():
    # hypergeometric route at specific points, against the beta route
    for (p, q, k, g, z) in [(1, 0, 1, 0.5, 0.4 + 0.1j), (3, 0, 0, 0.0, 0.6 + 0j)]:
        a = cauchy_monomial_closed(p, q, k, g, z)
        b = cauchy_monomial_2f1(p, q, k, g, z)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-12)
    assert cauchy_monomial_2f1(0, 0, 0, 0.0, 0.5 + 0j) == pytest.approx(-0.5, rel=1e-14)


def test_monomial_2f1_guards():
    with pytest.raises(DomainError):
        cauchy_monomial_2f1(1, 2, 0, 0.5, Z0)  # needs p >= q
    with pytest.raises(DomainError):
        cauchy_monomial_2f1(1, 0, 0, 0.5, 0j)
    with pytest.raises(DomainError):
        cauchy_monomial_2f1(1, 0, 0, 0.5, 0.97)


@pytest.mark.parametrize("p, q, k", [(np.int64(2), 1, 0), (2, np.int32(1), np.uint8(1)),
                                     (2, True, np.int64(0))])
def test_monomial_exponents_accept_numpy_integers(p, q, k):
    want = (int(p), int(q), int(k))
    assert cauchy_monomial_closed(p, q, k, 0.5, Z0) == cauchy_monomial_closed(*want, 0.5, Z0)
    assert cauchy_monomial_2f1(p, q, k, 0.5, Z0) == cauchy_monomial_2f1(*want, 0.5, Z0)


@pytest.mark.parametrize("g", [np.float32(0.5), np.float16(0.5)])
def test_weight_accepts_numpy_floats(g):
    # a float32 weight must not turn the arithmetic into float32
    assert cauchy_monomial_closed(2, 1, 1, g, Z0) == cauchy_monomial_closed(2, 1, 1, 0.5, Z0)
    assert cauchy_monomial_2f1(2, 1, 1, g, Z0) == cauchy_monomial_2f1(2, 1, 1, 0.5, Z0)
    zs = np.array([Z0, 0.5, 0.9j])
    got = list(cauchy_closed_line(1, g, zs, 3))
    want = list(cauchy_closed_line(1, 0.5, zs, 3))
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    f = lambda w: w  # noqa: E731
    assert cauchy_direct_2d(f, g, Z0, 16, 32) == cauchy_direct_2d(f, 0.5, Z0, 16, 32)
    for bad in ("0.5", None, 0.5j):
        with pytest.raises(DomainError, match="real number"):
            cauchy_monomial_closed(2, 1, 1, bad, Z0)
        with pytest.raises(DomainError, match="real number"):
            next(cauchy_closed_line(1, bad, zs, 3))
        with pytest.raises(DomainError, match="real number"):
            cauchy_direct_2d(f, bad, Z0, 16, 32)


def test_monomial_guards():
    with pytest.raises(DomainError):
        cauchy_monomial_closed(-1, 0, 0, 0.5, Z0)
    for bad in (2.5, 1.0, "1", None):
        with pytest.raises(DomainError):
            cauchy_monomial_closed(bad, 0, 0, 0.5, Z0)
        with pytest.raises(DomainError):
            cauchy_monomial_2f1(2, 1, bad, 0.5, Z0)
    with pytest.raises(DomainError):
        cauchy_monomial_closed(0, 0, 0, -1.0, Z0)
    with pytest.raises(DomainError):
        cauchy_monomial_closed(0, 0, 0, 0.5, 1.0 + 0j)


def test_zernike_closed_frozen_value():
    # frozen oracle value: the monomial-reduction route agreed to 1.0e-15
    # relative and cauchy_direct_2d at 256x512 to 2.4e-16 before freezing.
    v = cauchy_zernike_closed(ZernikeParams(3, 2, 0.5), Z0)
    assert v == pytest.approx(4.504052067359833 - 9.633666921852974j, rel=1e-14)


def test_zernike_closed_simple_point():
    # (1,1) at z = 0.5: u Z_{1,0}^1(0.5) = 0.75 * 2 * 0.5
    assert cauchy_zernike_closed(ZernikeParams(1, 1, 0.0), 0.5 + 0j) == pytest.approx(
        0.75, rel=1e-14)


def test_direct_2d_simple():
    v = cauchy_direct_2d(lambda w: 1.0, 0.0, 0.5 + 0j, 64, 256)
    assert abs(v - (-0.5)) <= 1e-8
    assert cauchy_direct_2d(lambda w: 0.0, 0.0, 0.5 + 0j, 16, 32) == 0j


def test_direct_2d_calls_f_once():
    p = ZernikeParams(3, 2, 0.5)
    seen = []

    def counted(w):
        seen.append(w.shape)
        return eval_explicit(p, w)

    v = cauchy_direct_2d(counted, 0.5, Z0, 96, 192)
    assert len(seen) == 1
    # every grid point lies strictly inside the disk here
    assert seen[0] == (96 * 192,)
    assert abs(v - cauchy_zernike_closed(p, Z0)) <= 1e-9 * abs(v)


def test_zernike_index_shift_hand_formula():
    # For (m, n) = (1, 2) the closed form reads
    # u^(g+1) (g+3) ((g+2) - (g+3) u), worked out from the explicit sum.
    for g in GAMMAS:
        for z in disk_points(7004, 4, 0.9):
            u = 1.0 - abs(z) ** 2
            ref = u ** (g + 1) * (g + 3) * ((g + 2) - (g + 3) * u)
            assert cauchy_zernike_closed(ZernikeParams(1, 2, g), z) == pytest.approx(ref, rel=1e-13)


def test_zernike_closed_vs_quad_grid():
    # The two routes share nothing past the coefficient table, so this is
    # the index-shift identity itself, for both index orderings and m = 0.
    pts = disk_points(7005, 4, 0.8)
    for g in GAMMAS:
        for m in range(5):
            for n in range(1, 5):
                p = ZernikeParams(m, n, g)
                for z in pts:
                    a = cauchy_zernike_closed(p, z)
                    b = cauchy_zernike_quad(p, z)
                    assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_zernike_direct_2d_spotchecks():
    for (m, n, g) in [(3, 2, 0.5), (1, 2, 1.0), (4, 1, 2.5)]:
        p = ZernikeParams(m, n, g)
        a = cauchy_zernike_closed(p, Z0)
        b = cauchy_direct_2d(lambda w: eval_explicit(p, w), g, Z0, 128, 256)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


def test_zernike_n_zero():
    p = ZernikeParams(2, 0, 0.5)
    with pytest.raises(NZeroError):
        cauchy_zernike_closed(p, Z0)
    # the monomial route still works there; check it against the oracle
    a = cauchy_zernike_quad(p, Z0)
    b = cauchy_direct_2d(lambda w: eval_explicit(p, w), 0.5, Z0, 96, 192)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def _quad_reference(m, n, g, z):
    """The term-by-term monomial route in 50-digit arithmetic: term j of the
    explicit sum, conj(z)^(m-j) z^(n-j) u^j, through its incomplete beta
    integral, with exact coefficients."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        g = mpmath.mpf(g)
        w = mpmath.mpc(z)
        r2 = mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
        acc = mpmath.mpc(0)
        for j in range(min(m, n) + 1):
            coef = ((-1) ** j * math.comb(m, j) * math.comb(n, j) * math.factorial(j)
                    * mpmath.rf(g + j + 1, m + n - j))
            a, b = m - j + 1, g + j + 1
            if n <= m:
                acc += coef * -mpmath.betainc(a, b, 0, r2) / w ** (1 + m - n)
            else:
                acc += coef * w ** (n - m - 1) * mpmath.betainc(a, b, r2, 1)
        return complex(acc)


@pytest.mark.parametrize("g", [-0.8, 0.0, 2.5])
def test_zernike_quad_matches_high_precision(g):
    # each explicit term must reach the monomial transform with its u^j:
    # expanded into pure monomials the sum cancels to 7e-8 at (8, 8),
    # gamma = -0.8
    pts = [r * complex(math.cos(t), math.sin(t))
           for r, t in ((0.4, 2.0), (0.7, 0.3), (0.9, 4.1), (0.9, 2.0))]
    for m, n in [(7, 8), (8, 8), (8, 7), (6, 8), (5, 5)]:
        ref = [_quad_reference(m, n, g, z) for z in pts]
        s = max(abs(v) for v in ref)
        p = ZernikeParams(m, n, g)
        worst = max(normalized_deviation(cauchy_zernike_quad(p, z), r, s)
                    for z, r in zip(pts, ref))
        assert worst <= 1e-10, (m, n, worst)


def test_z_zero_rules():
    # only angular charge chi = 1 survives at the origin
    assert cauchy_monomial_closed(0, 1, 0, 0.5, 0j) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert cauchy_monomial_closed(0, 0, 0, 0.5, 0j) == 0j
    assert cauchy_monomial_closed(0, 2, 0, 0.5, 0j) == 0j
    assert cauchy_monomial_closed(2, 1, 0, 0.5, 0j) == 0j
    # k shifts the weight: C(z u)(0) = B(1, g+2)
    assert cauchy_monomial_closed(0, 1, 1, 0.5, 0j) == pytest.approx(1.0 / 2.5, rel=1e-14)
    v = cauchy_zernike_closed(ZernikeParams(1, 2, 0.5), 0j)
    assert v == -3.5
    assert cauchy_zernike_quad(ZernikeParams(1, 2, 0.5), 0j) == pytest.approx(-3.5, rel=1e-12)


def test_angular_charge_single_mode():
    # On a centred circle the transform carries the single Fourier mode
    # n - m - 1; every other bin must vanish to rounding.
    n_ang = 64
    for (m, n) in [(1, 2), (2, 1), (0, 3), (3, 3)]:
        p = ZernikeParams(m, n, 0.5)
        vals = np.array([
            cauchy_zernike_closed(p, 0.5 * complex(math.cos(t), math.sin(t)))
            for t in (2.0 * math.pi * j / n_ang for j in range(n_ang))
        ])
        modes = np.fft.fft(vals)
        mode = (n - m - 1) % n_ang
        top = abs(modes[mode])
        rest = np.delete(np.abs(modes), mode)
        assert top > 0
        assert rest.max() <= 1e-10 * top


def test_direct_2d_node_counts_are_integers():
    p = ZernikeParams(2, 1, 0.5)
    f = lambda w: eval_explicit(p, w)  # noqa: E731
    z = 0.3 - 0.2j
    for n_r, n_theta in ((96.5, 192), (96, 192.0), ("96", 192), (2, 192), (96, 4)):
        with pytest.raises(DomainError):
            cauchy_direct_2d(f, 0.5, z, n_r, n_theta)
    assert cauchy_direct_2d(f, 0.5, z, np.int64(96), np.int32(192)) == \
        cauchy_direct_2d(f, 0.5, z, 96, 192)


def test_nan_point_rejected():
    p = ZernikeParams(2, 1, 0.5)
    z = complex(math.nan, 0.0)
    with pytest.raises(DomainError):
        cauchy_zernike_closed(p, z)
    with pytest.raises(DomainError):
        cauchy_zernike_quad(p, z)
    with pytest.raises(DomainError):
        cauchy_direct_2d(lambda w: eval_explicit(p, w), 0.5, z)
    with pytest.raises(DomainError):
        cauchy_monomial_closed(2, 1, 1, 0.5, z)
    with pytest.raises(DomainError):
        cauchy_monomial_2f1(2, 1, 1, 0.5, z)


def test_underflowing_point_is_the_origin():
    # |z|^2 = 0 in floating point: the z = 0 rules apply, not a division by z
    tiny = 1e-200 + 0j
    for p, q in ((2, 1), (1, 2), (0, 1), (3, 3)):
        assert cauchy_monomial_closed(p, q, 1, 0.5, tiny) == \
            cauchy_monomial_closed(p, q, 1, 0.5, 0j)
    for m, n in ((2, 1), (1, 2)):
        params = ZernikeParams(m, n, 0.5)
        assert cauchy_zernike_quad(params, tiny) == cauchy_zernike_quad(params, 0j)
    with pytest.raises(DomainError):
        cauchy_monomial_2f1(2, 1, 1, 0.5, tiny)


def test_2f1_route_at_subnormal_radius():
    # |z|^2 = 1e-320 is subnormal but nonzero: the route runs and must give
    # the closed route's value (zero to double precision), not NaN
    for z in (1e-160 + 0j, 1e-160j):
        v = cauchy_monomial_2f1(2, 1, 1, 0.5, z)
        assert v == cauchy_monomial_closed(2, 1, 1, 0.5, z) == 0
    # z^(1 - chi) underflows to 0 while |z|^2 does not, or at |z| = 0.5 for
    # a huge p: the value underflows too, so both routes give 0, not a
    # ZeroDivisionError
    for (p, q, k), z in (((2, 0, 0), 1e-120 + 0j), ((3, 1, 0), 1e-160 + 0j),
                         ((3, 1, 0), 1e-160j), ((2000, 0, 0), 0.5 + 0j)):
        v = cauchy_monomial_2f1(p, q, k, 0.5, z)
        assert v == cauchy_monomial_closed(p, q, k, 0.5, z) == 0, (p, q, k, z)
    assert cauchy_zernike_quad(ZernikeParams(3, 1, 0.5), 1e-160 + 0j) == 0


class TestClosedArrays:
    """The closed form on ndarrays: the scalar calls' values to rounding,
    and the scalar path's types and errors."""

    # interior points, the origin and the rim, where u is clamped at 0
    PTS = disk_points(7010, 12, 0.95) + [0j, 1.0, -1j, complex(0.6, 0.8)]

    def test_arrays_match_scalar_calls(self):
        zs = np.array(self.PTS)
        for g in DEFAULT_GAMMAS:
            for m in range(9):
                for n in range(1, 9):
                    p = ZernikeParams(m, n, g)
                    want = [cauchy_zernike_closed(p, z) for z in self.PTS]
                    s = max(abs(w) for w in want)
                    got = cauchy_zernike_closed(p, zs).tolist()
                    assert max(map(normalized_deviation, got, want, [s] * len(want))) \
                        <= 1e-13, (m, n, g)

    def test_shapes_and_scalar_types(self):
        p = ZernikeParams(2, 3, 1.0)
        zs = np.array(self.PTS).reshape(4, 4)
        got = cauchy_zernike_closed(p, zs)
        assert isinstance(got, np.ndarray) and got.shape == (4, 4)
        assert got.dtype == complex
        assert cauchy_zernike_closed(p, np.zeros((0, 3), complex)).shape == (0, 3)
        for z in (0.3 - 0.2j, 0.4, np.complex128(0.3 - 0.2j), np.array(0.3 - 0.2j)):
            assert type(cauchy_zernike_closed(p, z)) is complex

    def test_any_bad_point_rejected(self):
        p = ZernikeParams(2, 1, 0.5)
        for pts in (self.PTS[:3] + [complex(math.nan, 0.0)],
                    [complex(0.0, math.nan)] + self.PTS[:3],
                    self.PTS[:3] + [0.6 + 0.9j],
                    [1.001] + self.PTS[:3]):
            for shape in ((4,), (2, 2)):
                with pytest.raises(DomainError, match="disk"):
                    cauchy_zernike_closed(p, np.array(pts).reshape(shape))

    @staticmethod
    def _same_bits(a, b) -> bool:
        a, b = np.atleast_1d(a).astype(complex), np.atleast_1d(b).astype(complex)
        return a.shape == b.shape and np.array_equal(a.view(float), b.view(float),
                                                     equal_nan=True)

    @pytest.mark.parametrize("g", [-0.5, 0.37, 2.5, 300.0])
    def test_is_weighted_shifted_member(self, g):
        # the closed form's arithmetic: the clamped u^(gamma+1) times
        # eval_jacobi at (m, n-1, gamma+1), bit for bit, on arrays and scalars
        zs = np.array(self.PTS)
        u = np.maximum(1.0 - (zs.real * zs.real + zs.imag * zs.imag), 0.0)
        with np.errstate(all="ignore"):
            for m, n in [(m, n) for m in range(9) for n in range(1, 9)] + [(64, 64), (0, 64)]:
                p = ZernikeParams(m, n, g)
                shifted = ZernikeParams(m, n - 1, g + 1.0)
                want = u ** (g + 1.0) * eval_jacobi(shifted, zs)
                assert self._same_bits(cauchy_zernike_closed(p, zs), want), (m, n)
                z = self.PTS[0]
                want = max(1.0 - (z.real * z.real + z.imag * z.imag), 0.0) ** (g + 1.0) \
                    * eval_jacobi(shifted, z)
                assert self._same_bits(cauchy_zernike_closed(p, z), want), (m, n)

    def test_closed_line_members(self):
        # the member (m, n) of the line n - m = k comes at s = min(m, n - 1)
        zs = np.array(self.PTS)
        for g in (-0.5, 2.5):
            for k in (-5, 0, 1, 6):
                line = list(cauchy_closed_line(k, g, zs, 7))
                assert len(line) == 8
                for s, v in enumerate(line):
                    m = s - min(k - 1, 0)
                    p = ZernikeParams(m, m + k, g)
                    assert self._same_bits(v, cauchy_zernike_closed(p, zs)), (p, s)

    def test_n_zero_array_rejected(self):
        with pytest.raises(NZeroError):
            cauchy_zernike_closed(ZernikeParams(2, 0, 0.5), np.array(self.PTS))
