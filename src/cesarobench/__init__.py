"""Numerical workbench for measure-induced averaging operators between
coefficient-weighted sequence spaces.

A positive measure on [0,1) induces a lower-triangular coefficient
operator through its moment sequence.  This package evaluates moments
through independent routes, builds finite matrix sections of the induced
operator between weighted spaces, estimates their norms, and runs
cross-checking verdict engines for boundedness and compactness.

Each public name is listed once, in its own module's __all__; the package
re-exports all four lists.
"""

from . import analysis, measures, operators, spaces
from .analysis import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .spaces import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *measures.__all__,
    *spaces.__all__,
    *operators.__all__,
    *analysis.__all__,
]
