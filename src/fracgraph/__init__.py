"""Fractional p-Laplacian operators and doubly nonlinear flows on finite graphs."""

from .errors import *
from .graph import *
from .spectral import *
from .operators import *
from .flow import *
from .diagnostics import *

__version__ = "0.1.0"
