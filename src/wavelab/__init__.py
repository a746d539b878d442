"""wavelab: exact computation and construction verification for permutation
pattern waves.

A pattern wave for a permutation pi of {1..k} is an increasing integer
sequence whose consecutive gaps compare exactly as pi's values do.  This
package decides wave membership, searches sets for waves, computes the
extremal quantities exactly at desk scale (largest wave-free subset of [n];
least M whose every r-coloring holds a monochromatic wave), executes the
recursive lower-bound colorings and the pigeonhole wave-extraction
procedures, and classifies patterns by their proven polylogarithmic
exponents.
"""

from . import constructions, perm, solvers, store, waves
from .constructions import *
from .perm import *
from .solvers import *
from .store import *
from .waves import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports all of them
__all__ = sorted(
    name for module in (constructions, perm, solvers, store, waves) for name in module.__all__
) + ["__version__"]
