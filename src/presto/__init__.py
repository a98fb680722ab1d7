"""Translation validation for dataflow Petri nets and FSMDs.

The package models safe Petri nets whose tokens carry integers and whose
transitions apply guarded transfer functions, converts such nets into
finite state machines with datapath by symbolic simulation, executes
nets concretely, and decides cardinality, functional and machine-level
path equivalence.
"""

from . import convert, dot, dsl, equiv, expr, fsmd, pres, sim, verdict
from .convert import FiringSet, pres_to_fsmd
from .dsl import parse_expression, parse_fsmd, parse_pres, parse_scenario, print_fsmd, print_net
from .equiv import PortMap, check_cardinality, check_fsmd_equivalence, check_functional
from .expr import evaluate, normalize, structurally_equivalent, substitute
from .fsmd import Fsmd, apply_update_set, path_enumerate, path_transformation, validate_fsmd
from .pres import PresNet, adjacency, classify_ports, enabled_transitions, validate_net
from .sim import SeededInterpretation, confluence_check, simulate_run
from .verdict import Verdict

__all__ = [
    "FiringSet", "Fsmd", "PortMap", "PresNet",
    "SeededInterpretation", "Verdict", "adjacency", "apply_update_set",
    "check_cardinality", "check_fsmd_equivalence", "check_functional",
    "classify_ports", "confluence_check", "convert", "dot", "dsl",
    "enabled_transitions", "equiv", "evaluate", "expr", "fsmd", "normalize",
    "parse_expression", "parse_fsmd", "parse_pres", "parse_scenario",
    "path_enumerate", "path_transformation", "pres", "pres_to_fsmd", "print_fsmd",
    "print_net", "sim", "simulate_run", "structurally_equivalent", "substitute",
    "validate_fsmd", "validate_net", "verdict",
]

__version__ = "0.1.0"
