"""Weighted Cauchy transform over the unit disk.

The transform maps f to (1/pi) times the area integral of
f(w) (1 - |w|^2)^gamma / (w - z) over the disk.  For the monomial basis
z^q conj(z)^p u^k the angular integral collapses and leaves a single
incomplete beta integral in |z|^2; the sign of the angular charge q - p
decides whether the inner or the outer radial piece survives.  On the
polynomial family itself the transform has a strikingly simple closed
form: it trades (m, n, gamma) for (m, n-1, gamma+1) and dresses the
result with u^(gamma+1); at n = 0 it is one incomplete beta integral.
Every route here is checked against the others in the test suite, with
a brute-force 2D oracle as the final arbiter.
"""

import math

import numpy as np

from .errors import DomainError
from .numerics import _check_count, _check_weight, gauss_legendre, hyp2f1, incomplete_beta
from .zernike import (INDEX_CAP, ZernikeParams, _check_disk, _check_indices, _explicit_terms,
                      eval_explicit, jacobi_line)

__all__ = [
    "cauchy_monomial_closed",
    "cauchy_monomial_2f1",
    "cauchy_zernike_closed",
    "cauchy_closed_line",
    "cauchy_zernike_quad",
    "cauchy_direct_2d",
    "CAUCHY_ROUTES",
    "MONOMIAL_ROUTES",
]


def _check_monomial(p: int, q: int, k: int, gamma: float) -> tuple[int, int, int, float]:
    """Return the exponents p, q, k as ints and gamma as a float; raise
    DomainError unless each exponent is an integer >= 0 and gamma is a
    valid weight exponent."""
    p, q, k = (_check_count(v, 0, f"monomial exponent {name}")
               for v, name in zip((p, q, k), "pqk"))
    return p, q, k, _check_weight(gamma)


def cauchy_monomial_closed(p: int, q: int, k: int, gamma: float, z: complex) -> complex:
    """Transform of conj(z)^p z^q u^k via incomplete beta integrals.

    The angular charge chi = q - p picks the branch: for chi <= 0 only the
    radial part inside |z| contributes, for chi > 0 only the part outside.
    At z = 0, and wherever |z|^2 underflows to 0, the value is the full
    beta integral when the result charge chi - 1 vanishes, and zero
    otherwise; for chi <= 0 it is also zero wherever z^(1 - chi)
    underflows to 0.  |z|^2 is clamped at 1, the rim, where the branches
    take their limits from inside: the complete beta integral and 0.
    """
    p, q, k, gamma = _check_monomial(p, q, k, gamma)
    z = _check_disk(z)
    r2 = min(z.real * z.real + z.imag * z.imag, 1.0)
    chi = q - p
    if r2 == 0:
        if chi == 1:
            return complex(incomplete_beta(p + 1, gamma + k + 1, 1.0))
        return 0j
    if chi <= 0:
        w = z ** (1 - chi)
        if w == 0:
            # the value, about |z|^(p+q+1)/(p+1) <= |w|, underflows too
            return 0j
        return -incomplete_beta(p + 1, gamma + k + 1, r2) / w
    return z ** (chi - 1) * incomplete_beta(gamma + k + 1, p + 1, 1.0 - r2)


def cauchy_monomial_2f1(p: int, q: int, k: int, gamma: float, z: complex) -> complex:
    """Hypergeometric form of the monomial transform, for p >= q.

    Needs 0 < |z| <= 0.95 so the non-terminating series stays well away
    from its convergence boundary; a point whose |z|^2 underflows to 0
    counts as the origin.
    """
    p, q, k, gamma = _check_monomial(p, q, k, gamma)
    if p < q:
        raise DomainError(f"this route needs p >= q, got ({p}, {q})")
    z = _check_disk(z)
    r2 = z.real * z.real + z.imag * z.imag
    if not 0 < r2 <= 0.95**2:
        raise DomainError("this route needs 0 < |z| <= 0.95")
    u = 1.0 - r2
    f = hyp2f1(1.0, gamma + p + k + 2.0, p + 2.0, r2)
    # z^(q+k) conj(z)^(p+k+1) u^(gamma+1) (u/r2)^k with z^k conj(z)^k = r2^k
    # cancelled, so a subnormal r2 is never divided into
    return -z ** q * z.conjugate() ** (p + 1) / (p + 1) * u ** (gamma + 1 + k) * f


def cauchy_closed_line(k: int, gamma: float, z: complex | np.ndarray, s_max: int,
                       s_min: int = 0):
    """Yield the closed-form transform of the members (m, n) with n >= 1
    on the charge line n - m = k, for s = min(m, n-1) = s_min, ..., s_max.

    The transform of (m, n) at gamma is u^(gamma+1) times the member at
    (m, n-1) for weight exponent gamma+1, which lies on the line k - 1 at
    the same s: so the line is u^(gamma+1) times
    ``zernike.jacobi_line(k - 1, gamma + 1, z, s_max, s_min)``, and
    between two members it holds that line's state and the weight.  ``z``
    may be a scalar or an ndarray of points in the closed disk.  Before
    the line is shifted k is checked as an integer, and s_min and s_max as
    indices with s_max + k <= INDEX_CAP, the top member's n.
    """
    k = _check_count(k, 1 - INDEX_CAP, "line charge k")
    s_min, s_max = _check_indices(s_min, s_max)
    if s_max + k > INDEX_CAP:
        raise DomainError(f"indices must lie in [0, {INDEX_CAP}], got ({s_max}, {s_max + k})")
    gamma = _check_weight(gamma)
    z = _check_disk(z, arrays=True)
    u = 1.0 - (z.real * z.real + z.imag * z.imag)
    u = np.maximum(u, 0.0) if isinstance(z, np.ndarray) else max(u, 0.0)
    weight = u ** (gamma + 1.0)
    for v in jacobi_line(k - 1, gamma + 1.0, z, s_max, s_min):
        yield weight * v


def cauchy_zernike_closed(p: ZernikeParams, z: complex | np.ndarray) -> complex | np.ndarray:
    """Closed form on the polynomial family: u^(gamma+1) times the member
    at (m, n-1) for weight exponent gamma+1, the one-member line at
    s = min(m, n-1).  At n = 0 it is the member's one explicit term,
    -(gamma+1)_m B_{|z|^2}(m+1, gamma+1) z^(-m-1), through
    ``cauchy_monomial_closed`` point by point, as ``cauchy_zernike_quad``.

    ``z`` may be a scalar, which gives a Python complex, or an ndarray of
    points in the closed disk, which gives a complex array of its shape.
    """
    if p.n == 0:
        c = _explicit_terms(p.m, 0, p.gamma)[0][3]
        # 0 + gives a zero imaginary part the sign the quad route's sum gives
        one = lambda w: 0 + c * cauchy_monomial_closed(p.m, 0, 0, p.gamma, w)
        z = _check_disk(z, arrays=True)
        return np.vectorize(one, otypes=[complex])(z) if isinstance(z, np.ndarray) else one(z)
    s = min(p.m, p.n - 1)
    return next(cauchy_closed_line(p.n - p.m, p.gamma, z, s, s))


def cauchy_zernike_quad(p: ZernikeParams, z: complex) -> complex:
    """Term-by-term transform of the explicit sum through the monomial route."""
    z = _check_disk(z, strict=True)
    return sum(c * cauchy_monomial_closed(b, a, j, p.gamma, z)
               for a, b, j, c in _explicit_terms(p.m, p.n, p.gamma))


def cauchy_direct_2d(f, gamma: float, z: complex, n_r: int = 128,
                     n_theta: int = 256) -> complex:
    """Brute-force oracle: 2D quadrature in polar coordinates centred at z.

    The radial coordinate runs from z to the boundary, which removes the
    Cauchy kernel singularity (the Jacobian cancels it exactly).  On the
    ray at angle phi, with beta = Re(conj(z) e^(i phi)), the boundary lies
    at rho = reach, and 1 - |w|^2 = (reach - rho) (reach + rho + 2 beta).
    The substitution rho = reach (1 - c^(2q)), c = cos(pi tau / 2), with
    tau in [0, 1], clusters the nodes at the rim: reach - rho is
    reach c^(2q), free of the cancellation in 1 - |w|^2, and the Jacobian
    is reach q pi c^(2q-1) sin(pi tau / 2).  The weight's rim factor
    c^(2q gamma) and the Jacobian's c^(2q-1) are taken as one power
    c^(2q(gamma+1)-1), which cannot overflow, so the outer nodes still
    count where c^(2q) alone underflows (q = 200 at gamma = -0.99).  With
    q = max(1, ceil(2 / (gamma+1))) that power is at least c^3, so the
    radial integrand stays smooth for every gamma > -1; q = 1 is the
    sine-squared map.

    The whole n_theta x n_r grid is built as one array, and ``f`` is
    called once, on a 1-D complex array of the grid points in the disk;
    it must broadcast, returning an array of that shape or a scalar (a
    constant such as ``lambda w: 1.0`` works).
    """
    gamma = _check_weight(gamma)
    z = _check_disk(z, strict=True)
    n_theta = _check_count(n_theta, 8, "angular node count")
    rule = gauss_legendre(_check_count(n_r, 4, "radial node count"))
    tau = 0.5 * (rule.nodes + 1.0)
    q = max(1, math.ceil(2.0 / (gamma + 1.0)))
    c = np.cos(0.5 * np.pi * tau)
    radial = 0.5 * rule.weights * (q * np.pi * np.sin(0.5 * np.pi * tau)
                                   * c ** (2.0 * q * (gamma + 1.0) - 1.0))
    u0 = 1.0 - (z.real * z.real + z.imag * z.imag)
    phi = 2.0 * np.pi * np.arange(n_theta) / n_theta
    e = np.cos(phi) + 1j * np.sin(phi)
    beta = (z.conjugate() * e).real
    reach = -beta + np.sqrt(beta * beta + u0)
    # rows are angles, columns are radial nodes
    rho = reach[:, None] * (1.0 - c ** (2 * q))
    w = z + rho * e[:, None]
    # (1 - |w|^2) / c^(2q); 0 only on a ray of length 0, where u0 is
    # too small for reach to resolve
    base = reach[:, None] * (reach[:, None] + rho + 2.0 * beta[:, None])
    inside = base > 0.0
    vals = np.zeros(w.shape, complex)
    vals[inside] = f(w[inside]) * base[inside] ** gamma
    # elementwise, not ``@``: a complex matrix-vector product wakes the
    # BLAS thread pool, which costs more than the sum itself
    ring = (vals * radial).sum(axis=1)
    acc = np.sum(reach * ring * e.conjugate())
    return complex(acc * (2.0 * np.pi / n_theta) / np.pi)


# The transform routes by name: of a member, the 2D oracle included, and of a monomial.
CAUCHY_ROUTES = {
    "closed": cauchy_zernike_closed,
    "quad": cauchy_zernike_quad,
    "direct": lambda p, z: cauchy_direct_2d(lambda w: eval_explicit(p, w), p.gamma, z),
}
MONOMIAL_ROUTES = {"closed": cauchy_monomial_closed, "2f1": cauchy_monomial_2f1}
