"""Numerical toolkit for power-law time-rescaled (conformable) semigroups.

The package verifies, at desk scale, the correspondence between a semigroup
run on the rescaled clock s = t**delta / delta and its classical counterpart,
together with the calculus, weighted function spaces, and two model PDEs that
the correspondence transports.
"""

from . import (calculus, clock, config, drift_diffusion, dynamics, reports,
               semigroup, spaces, suites, transport)
from .calculus import *
from .clock import *
from .config import *
from .drift_diffusion import *
from .dynamics import *
from .reports import *
from .semigroup import *
from .spaces import *
from .suites import *
from .transport import *

# each module's __all__ is the package's public name list; the command line
# front end stays out, because `python -m confsemi.cli` must find it unimported
__all__ = [name for module in (calculus, clock, config, drift_diffusion,
                               dynamics, reports, semigroup, spaces, suites,
                               transport)
           for name in module.__all__]

__version__ = "0.1.0"
