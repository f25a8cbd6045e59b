"""Ladder operators and the twisted hyperbolic Laplacian, symbolically.

Everything in this module acts on exact expressions from the algebra
layer, so operator identities reduce to coefficient comparisons rather
than sampled evaluations.  The central object is the second-order
operator

    L_nu = -u^2 d_z d_zbar - nu u (z d_z - zbar d_zbar) + nu^2 z zbar

whose point spectrum below the continuum is nu(2m+1) - m(m+1) for
integers 0 <= m < nu - 1/2.  Eigenfunctions are built by applying the
raising operator repeatedly to the weight-dressed ground states, and a
rescaling by a u-power carries them onto the disk polynomial family.

The operators act termwise, in one pass.  On a canonical term
c z^a zbar^b u^(g+k), min(a, b) = 0, write q = g + k; the offset g is
kept.

  nabla(alpha)           a > 0: (q+alpha) c at (a-1, 0, k) and
                                -(q+alpha+a) c at (a-1, 0, k+1);
                         a = 0: (q+alpha) c at (0, b+1, k)
  nabla_star(alpha)      b > 0: (alpha+1-q) c at (0, b-1, k) and
                                (b-(alpha+1-q)) c at (0, b-1, k+1);
                         b = 0: (alpha+1-q) c at (a+1, 0, k)
  magnetic_laplacian(nu) (nu^2-q(q-1)) c at (a, b, k) and
                         (q(q+a+b)-nu(a-b)-nu^2) c at (a, b, k+1)

These follow from the compositions of d_z, d_zbar and products with u, z,
zbar and z zbar by z zbar = 1 - u, and they hold only for canonical input,
which every DiskExpr is.  Every image key is canonical too, and every
value is summed starting from 0, so the result is built by
``algebra._from_canonical``, without the constructor's reduction pass.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import algebra
from .algebra import DiskExpr, _from_canonical, add, max_abs_coeff, mul, scale
from .errors import DomainError
from .numerics import _check_count, _check_real, pochhammer
from .zernike import INDEX_CAP, ZernikeParams, explicit_expr

__all__ = [
    "SpectralParams",
    "nabla",
    "nabla_star",
    "magnetic_laplacian",
    "eigenvalue",
    "gamma_equivalent",
    "psi",
    "eigen_residual",
    "factorization_residuals",
    "bridge_pair",
]

@dataclass(frozen=True)
class SpectralParams:
    """Twist strength nu with an admissible level m and angular index n."""

    nu: float
    m: int
    n: int

    def __post_init__(self):
        nu = _check_real(self.nu, "twist strength")
        if nu <= 0.5:
            raise DomainError(f"discrete levels need nu > 1/2, got {nu}")
        m = _check_count(self.m, 0, "level")
        if not m < nu - 0.5:
            raise DomainError(f"level {m} is not below the continuum for nu = {nu}")
        n = _check_count(self.n, 0, "angular index", INDEX_CAP)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


def nabla(alpha: float, e: DiskExpr) -> DiskExpr:
    """Raising-type ladder operator -u d_z + alpha zbar, termwise."""
    g = e.base_offset
    out: dict[tuple[int, int, int], complex] = {}
    for (a, b, k), c in e.terms.items():
        w = (g + k + alpha) * c
        if a:
            key = (a - 1, 0, k)
            out[key] = out.get(key, 0) + w
            key = (a - 1, 0, k + 1)
            out[key] = out.get(key, 0) - w - a * c
        else:
            key = (0, b + 1, k)
            out[key] = out.get(key, 0) + w
    return _from_canonical(out, g)


def nabla_star(alpha: float, e: DiskExpr) -> DiskExpr:
    """Formal adjoint u d_zbar + (alpha + 1) z, termwise."""
    g = e.base_offset
    out: dict[tuple[int, int, int], complex] = {}
    for (a, b, k), c in e.terms.items():
        w = (alpha + 1 - (g + k)) * c
        if b:
            key = (0, b - 1, k)
            out[key] = out.get(key, 0) + w
            key = (0, b - 1, k + 1)
            out[key] = out.get(key, 0) + b * c - w
        else:
            key = (a + 1, 0, k)
            out[key] = out.get(key, 0) + w
    return _from_canonical(out, g)


def magnetic_laplacian(nu: float, e: DiskExpr) -> DiskExpr:
    """L_nu, termwise."""
    g = e.base_offset
    nu2 = nu * nu
    out: dict[tuple[int, int, int], complex] = {}
    for (a, b, k), c in e.terms.items():
        q = g + k
        key = (a, b, k)
        out[key] = out.get(key, 0) + (nu2 - q * (q - 1)) * c
        key = (a, b, k + 1)
        out[key] = out.get(key, 0) + (q * (q + a + b) - nu * (a - b) - nu2) * c
    return _from_canonical(out, g)


def eigenvalue(nu: float, m: int) -> float:
    return nu * (2 * m + 1) - m * (m + 1)


def gamma_equivalent(nu: float, m: int) -> float:
    """Weight exponent whose polynomial family this level rescales onto."""
    return 2 * (nu - m) - 1


# bounded; it serves the exact_gram benchmark, whose eigen_residual and
# bridge_pair ask for each level in turn (646 of 1292 lookups hit).
# suite_spectral walks its 45 eigen levels, then its 40 bridge levels, so
# none of verify's 90 lookups hit.
@lru_cache(maxsize=32)
def psi(sp: SpectralParams) -> DiskExpr:
    """Level-m eigenfunction: m ladder steps up from z^n u^(nu - m).

    Cached per level; the result is immutable, so callers share it.
    """
    e = DiskExpr({(sp.n, 0, 0): 1}, sp.nu - sp.m)
    for j in range(sp.m, 0, -1):
        e = nabla(sp.nu - j, e)
    return e


def eigen_residual(sp: SpectralParams) -> float:
    """Relative coefficient residual of (L_nu - lambda) applied to psi."""
    f = psi(sp)
    lap = magnetic_laplacian(sp.nu, f)
    lam = eigenvalue(sp.nu, sp.m)
    diff = add(lap, scale(f, -lam))
    ref = max(max_abs_coeff(lap), abs(lam) * max_abs_coeff(f), 1e-300)
    return max_abs_coeff(diff) / ref


def factorization_residuals(nu: float, e: DiskExpr) -> tuple[float, float, float]:
    """Relative residuals of the two factorizations and the intertwining law.

    In order: L_nu vs nabla_star(nu) nabla(nu) - nu, L_nu vs
    nabla(nu-1) nabla_star(nu-1) + nu, and L_nu nabla(nu-1) vs
    nabla(nu-1) (L_(nu-1) + 2 nu - 1).
    """
    lap = magnetic_laplacian(nu, e)

    c1 = add(nabla_star(nu, nabla(nu, e)), scale(e, -nu))
    c2 = add(nabla(nu - 1.0, nabla_star(nu - 1.0, e)), scale(e, nu))
    lhs3 = magnetic_laplacian(nu, nabla(nu - 1.0, e))
    rhs3 = nabla(nu - 1.0, add(magnetic_laplacian(nu - 1.0, e),
                               scale(e, 2.0 * nu - 1.0)))

    def rel(x: DiskExpr, y: DiskExpr) -> float:
        ref = max(max_abs_coeff(x), max_abs_coeff(y), 1e-300)
        return max_abs_coeff(add(x, scale(y, -1.0))) / ref

    return rel(lap, c1), rel(lap, c2), rel(lhs3, rhs3)


def bridge_pair(sp: SpectralParams) -> tuple[DiskExpr, DiskExpr]:
    """Both sides of the rescaling that maps psi onto a disk polynomial.

    Returns (polynomial expression, rescaled eigenfunction): the second
    entry is (gamma+m+1)_n u^(m - nu) psi for gamma = 2(nu - m) - 1, which
    should match the first coefficient-for-coefficient.
    """
    g = gamma_equivalent(sp.nu, sp.m)
    if g <= -1:
        raise DomainError(f"equivalent weight exponent {g:g} is out of range")
    lhs = explicit_expr(ZernikeParams(sp.m, sp.n, g))
    pref = pochhammer(g + sp.m + 1, sp.n)
    rhs = scale(mul(DiskExpr.u_power(sp.m - sp.nu), psi(sp)), pref)
    return lhs, algebra.prune(rhs, 1e-13)
