"""Dependence-logic toolkit.

Parse dependence-logic formulas and existential function sentences,
evaluate them over finite structures (team semantics on one side,
function-table search on the other), rewrite each kind into the other
through a chain of small verified passes, classify sentences into
syntactic fragments with complexity upper bounds, and check translations
for equivalence by exhaustive enumeration of small structures.
"""
from .budget import *
from .errors import *
from .eso_eval import *
from .fragments import *
from .harness import *
from .structures import *
from .syntax import *
from .team_eval import *
from .transforms import *

__version__ = "0.1.0"
