"""Cyclic-prefix based OFDM symbol-timing estimation and channel simulation."""

# Each module's __all__ is the one statement of its public names.
from .spectral import *
from .txgen import *
from .channel import *
from .sync import *
from .harness import *

__version__ = "0.1.0"

__all__ = spectral.__all__ + txgen.__all__ + channel.__all__ + sync.__all__ + harness.__all__
