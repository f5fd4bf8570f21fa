"""portlogic: weak models of anonymous distributed computing, executable.

Execute local algorithms under the port-numbering model and its weaker
variants, compile modal formulas to local algorithms and back, refine
(graded) bisimulations, and produce machine-checkable separation
certificates between the machine classes.
"""

from .graphs import (
    Graph,
    PortNumbering,
    PortedGraph,
    PortlogicError,
    consistent_port_numbering,
    cycle,
    has_one_factor,
    no_one_factor_cubic,
    random_port_numbering,
    star,
    symmetric_port_numbering,
    validate_port_numbering,
)
from .machines import (
    ClassTag,
    Machine,
    RunResult,
    SimpleMachine,
    check_class_conformance,
    run,
)
from .logic import (
    Formula,
    KripkeModel,
    Signature,
    eval_formula,
    format_formula,
    kripke_model,
    parse,
    validate_signature,
)
from .compiler import compile_formula, decompile_details, closure
from .bisim import (
    Partition,
    coarsest_bisimulation,
    coarsest_graded_bisimulation,
    impossibility_check,
    verify_bisimulation,
)
from .problems import (
    GraphProblem,
    leaf_election,
    leaf_election_machine,
    nonconstant_on_unmatchable,
    odd_odd,
    odd_odd_machine,
    parity_separation_pair,
    symmetry_break_machine,
)
from .simulate import (
    bcast_multiset_from_broadcast,
    multiset_from_vector,
    set_from_multiset,
)

__version__ = "0.1.0"
