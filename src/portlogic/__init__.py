"""portlogic: weak models of anonymous distributed computing, executable.

Execute local algorithms under the port-numbering model and its weaker
variants, compile modal formulas to local algorithms and back, refine
(graded) bisimulations, and produce machine-checkable separation
certificates between the machine classes.

The library is used through its submodules (``portlogic.graphs``,
``portlogic.machines``, ...).  The package root names only the error base
every library error derives from, and the version.
"""

from .graphs import PortlogicError

__version__ = "0.1.0"
