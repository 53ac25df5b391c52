"""rectilt: exact computations with bound quiver algebras.

Tilting modules, torsion pairs, and the six-functor recollement of a
triangular vertex split, all over exact rational arithmetic, with every
mathematical claim backed by a recomputable certificate.
"""

from .linalg import Mat

# The one elimination kernel, ``linalg.reduce_rows``, is pure Python;
# benchmark records carry this name.
BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["BACKEND", "Mat", "__version__"]
