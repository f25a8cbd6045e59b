"""Disk polynomials on the unit disk: evaluation routes, Wirtinger ladder
algebra, and the weighted Cauchy transform, with verification suites that
cross-check every identity by at least two independent computations."""

from .errors import (
    DiskPolyError,
    DomainError,
    NonConvergentError,
    NZeroError,
    OffsetMismatchError,
    ParamMismatchError,
    PoleAtCError,
    TooLargeError,
)
from .numerics import (
    QuadratureRule,
    gauss_jacobi_radial,
    gauss_legendre,
    hyp2f1,
    incomplete_beta,
    jacobi_p,
    pochhammer,
)
from .algebra import (
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
from .zernike import (
    ROUTES,
    ZernikeParams,
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
from .spectral import (
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
from .cauchy import (
    cauchy_direct_2d,
    cauchy_monomial_2f1,
    cauchy_monomial_closed,
    cauchy_zernike_closed,
    cauchy_zernike_quad,
)

__version__ = "0.1.0"
