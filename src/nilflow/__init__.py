"""Tensor calculus and geometric flows for left-invariant data on nilpotent Lie groups.

Structure-constant algebra, the algebraic exterior differential, Hodge
duality, (generalized) Ricci curvature, soliton fitting, Dorfman brackets,
and adaptive Dormand-Prince 5(4) and fixed-step RK4 drivers for bracket
flows and the gauge-fixed generalized Ricci flow, with a small CLI on top.

Each public name is declared once, in the __all__ of the module that defines
it; the package's __all__ is those lists joined.
"""

from . import config, curvature, dorfman, errors, flows, hodge, io, lie, soliton
from .config import *
from .curvature import *
from .dorfman import *
from .errors import *
from .flows import *
from .hodge import *
from .io import *
from .lie import *
from .soliton import *

__all__ = [name for module in (config, curvature, dorfman, errors, flows, hodge, io, lie, soliton)
           for name in module.__all__]

__version__ = "0.1.0"
