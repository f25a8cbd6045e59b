"""Disk polynomials on the unit disk: evaluation routes, Wirtinger ladder
algebra, and the weighted Cauchy transform, with verification suites that
cross-check every identity by at least two independent computations."""

from .errors import *
from .numerics import *
from .algebra import *
from .zernike import *
from .spectral import *
from .cauchy import *

__version__ = "0.1.0"
