"""Numerical splitting of vector fields on R^n into a conservative part
and a sphere-invariant part, with coercivity probing and equilibrium
location inside certified balls."""

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package
# republishes them, the use of wildcard imports that PEP 8 allows.
from . import errors, fields, dsl, quadrature, decomposition, radial, equilibria, sampling
from .errors import *
from .fields import *
from .dsl import *
from .quadrature import *
from .decomposition import *
from .radial import *
from .equilibria import *
from .sampling import *

__all__ = [
    "__version__",
    *errors.__all__,
    *fields.__all__,
    *dsl.__all__,
    *quadrature.__all__,
    *decomposition.__all__,
    *radial.__all__,
    *equilibria.__all__,
    *sampling.__all__,
]
