"""relshift: Shifting-Lemma variants on finite algebras.

A workbench for the relational characterizations of Mal'tsev
(2-permutable) and Goursat (3-permutable) settings at desk scale:
exact relation calculus, congruence lattices, Shifting-Lemma decision
procedures with witness extraction, term-condition search, and a
cross-validation suite over a bundled corpus of small algebras.

The package exports each module's ``__all__``.
"""

__version__ = "0.1.0"

from .relations import *  # noqa: F401,F403
from .algebras import *  # noqa: F401,F403
from .constructions import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403
from .terms import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
