"""Surprise-maximizing schedules over a finite horizon.

Closed-form solver, objective evaluation, independent numerical oracles,
and a deterministic Monte Carlo sampler.  See the README for the problem
statement and the command-line interface.  The public names are those in
the ``__all__`` of each submodule.
"""

from . import objective, oracles, rng, simulate, solver
from .objective import *
from .oracles import *
from .rng import *
from .simulate import *
from .solver import *

__version__ = "0.1.0"

__all__ = [
    *objective.__all__,
    *solver.__all__,
    *oracles.__all__,
    *rng.__all__,
    *simulate.__all__,
    "__version__",
]
