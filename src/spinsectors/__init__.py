"""Entanglement entropy statistics in SU(2) symmetry sectors of spin chains."""

__version__ = "0.1.0"

# each module's __all__ lists its public names, and the package re-exports them all
from .combinatorics import *
from .asymptotics import *
from .special import *
from .su2 import *
from .ensembles import *
from .spectra import *
