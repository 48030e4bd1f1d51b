"""ramseykit: exact tools for asymmetric Ramsey properties of uniform hypergraphs.

Build witness r-graphs as primal graphs of cleaned random s-graphs,
certify their non-arrowing exactly, decide arrowing on small instances,
and verify the minimal-cover inequalities behind the cleaning step.
"""

from . import arrows, construct, covers, fileio, hypergraph
from .arrows import *
from .construct import *
from .covers import *
from .fileio import *
from .hypergraph import *

__version__ = "0.1.0"

__all__ = sorted(
    arrows.__all__ + construct.__all__ + covers.__all__ + fileio.__all__ + hypergraph.__all__
)
