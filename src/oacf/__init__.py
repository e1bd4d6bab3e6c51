"""Odd-periodic autocorrelation toolkit for binary sequences.

Core objects: bit-packed BinarySequence, PACF/OACF kernels, the doubling
transformation and its inverse split, the OACF-preserving operations
(negation, nega-cyclic shift, nega-decimation), quartic cyclotomic
constructions of period 4p, and an exhaustive affine-witness equivalence
engine.
"""

# each module's __all__ is the one declaration of the package API
from .sequences import *
from .cyclotomy import *
from .constructions import *
from .equivalence import *

__version__ = "0.1.0"
