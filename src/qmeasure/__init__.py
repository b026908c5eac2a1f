"""Numerical laboratory for repeatable quantum measurements.

Builds instruments from state transformers, evolves the object with them
into an object-pointer vector, decomposes that final entangled vector into its
Schmidt canonical form, and verifies that the entanglement produced by the
measurement equals the incompatibility (coherence) entropy of the measured
observable, both in the final and in the initial state.

The public names are those of each module's ``__all__``.
"""

from . import errors, information, instruments, linalg, observables, pipeline, scenario, schmidt
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .observables import *  # noqa: F403
from .instruments import *  # noqa: F403
from .schmidt import *  # noqa: F403
from .information import *  # noqa: F403
from .scenario import *  # noqa: F403
from .pipeline import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, linalg, observables, instruments, schmidt, information, scenario, pipeline)
    for name in module.__all__
]
