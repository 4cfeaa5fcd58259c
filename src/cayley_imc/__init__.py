"""Cycle-accurate simulator of a Cayley-tree in-memory computing platform.

Bit-serial searching, max/min tournaments and repeated-extremum sorting
run as lockstep message-passing protocols over a tree of one-word
processing elements, with exact cycle and flag-space accounting checked
against brute-force oracles.
"""

from .algorithms import (
    ExtremumResult,
    LoadedTree,
    SearchResult,
    SortResult,
    compute_max,
    compute_min,
    load_list,
    resource_report,
    search,
    sort,
)
from .engine import (
    Configuration,
    ProtocolError,
    QuiescenceError,
    TraceEvent,
    run_until_quiescent,
    snapshot,
    step,
)
from .node import BitWord, Mode, NodeFlags, NodeState, circular_left_shift
from .topology import (
    CayleyTopology,
    Role,
    TreeParams,
    build_topology,
    node_count,
    required_height,
)

__all__ = [
    "BitWord",
    "CayleyTopology",
    "Configuration",
    "ExtremumResult",
    "LoadedTree",
    "Mode",
    "NodeFlags",
    "NodeState",
    "ProtocolError",
    "QuiescenceError",
    "Role",
    "SearchResult",
    "SortResult",
    "TraceEvent",
    "TreeParams",
    "build_topology",
    "circular_left_shift",
    "compute_max",
    "compute_min",
    "load_list",
    "node_count",
    "required_height",
    "resource_report",
    "run_until_quiescent",
    "search",
    "snapshot",
    "sort",
    "step",
]

__version__ = "0.1.0"
