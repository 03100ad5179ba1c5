"""Simulator and verification toolkit for a linear-optical Bell-state
analyzer that works on polarization, orbital angular momentum (OAM), and
path modes of single photons.

The package is layered bottom-up:

- ``state``: sparse single/two-photon states over (pol, OAM, path) modes
- ``elements``: wave plates, q-plates, prisms, splitters as mode maps
- ``gates``: the analyzer's composite gates and their element
  decompositions, with exact equivalence checking
- ``circuit``: text format, canonical printer, the stage-kind table
- ``engine``: compilation, static validation of the compiled plans,
  sparse propagation, dense matrix oracle
- ``blocks``: every op kind restated from the physics as a dense block
  for the oracle
- ``measurement``: sorter blocks and coincidence-pattern distributions
- ``analyzer``: Bell inputs, the 64-pattern classification table, and
  end-to-end verification

Each module's ``__all__`` names what the package re-exports from it; the
other module-level names are imported from their module.
"""

from .errors import *
from .state import *
from .elements import *
from .gates import *
from .circuit import *
from .engine import *
from .measurement import *
from .analyzer import *
from . import analyzer, circuit, elements, engine, errors, gates, measurement, state

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, state, elements, gates, circuit, engine, measurement, analyzer)
    for name in module.__all__
] + ["__version__"]
