"""sumcross: exact sumset arithmetic, arc-graph crossing counts, the two
explicit constructions with distinct consecutive differences, and checkers
for the growth bounds that connect them."""

from .arcgraph import *
from .bounds import *
from .construct import *
from .sets import *
from .sidon import *

__version__ = "0.1.0"
