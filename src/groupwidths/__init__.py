"""Palindromic and commutator widths of groups: exact oracles for finite
groups, quasi-homomorphism lower-bound certificates on wreath products,
constructive palindrome decompositions, and 2-nilpotent products.

The package exports the union of its modules' ``__all__`` lists; the name
``decompose`` is the function (the module is ``groupwidths.decompose`` in
``sys.modules``)."""

import sys

from .decompose import *
from .finite_groups import *
from .free_words import *
from .nilprod import *
from .pal_width import *
from .specs import *
from .wreath import *

_MODULES = ("decompose", "finite_groups", "free_words", "nilprod", "pal_width", "specs", "wreath")
__all__ = [name for module in _MODULES for name in sys.modules[f"{__name__}.{module}"].__all__]
__version__ = "0.1.0"
