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
from .planes import Mode, ProtocolError, QuiescenceError
from .topology import (
    CayleyTopology,
    Role,
    TreeParams,
    build_topology,
    node_count,
    required_height,
)

__all__ = [
    "CayleyTopology",
    "ExtremumResult",
    "LoadedTree",
    "Mode",
    "ProtocolError",
    "QuiescenceError",
    "Role",
    "SearchResult",
    "SortResult",
    "TreeParams",
    "build_topology",
    "compute_max",
    "compute_min",
    "load_list",
    "node_count",
    "required_height",
    "resource_report",
    "search",
    "sort",
]

__version__ = "0.1.0"
