"""Finite Cayley tree construction and counting.

A finite Cayley tree of order ``eta`` has a root with ``eta + 1`` children,
every other internal node with exactly ``eta`` children, and all leaves at
the same depth.  The tree size parameter ``height`` follows the level
expansion 1, eta+1, (eta+1)*eta, ... so a tree of height ``h`` has its
leaves at depth ``h - 1`` (root depth 0).  Node ids are dense integers
assigned breadth-first, root = 0, children ordered left to right, which
makes every construction deterministic and traces reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Role",
    "TreeParams",
    "CayleyTopology",
    "node_count",
    "required_height",
    "build_topology",
    "check_nodes",
    "MAX_NODES",
    "MAX_WORD_SIZE",
]

# node_count rejects counts that cannot be represented in a 64-bit signed
# integer; Python ints are unbounded but the platform being modelled is not.
_MAX_COUNT = 2**63 - 1

# Caps on what one simulation may allocate.  A built tree with a loaded
# list takes about 650 bytes per node (CPython 3.11, tracemalloc), so
# MAX_NODES bounds it near 2.7 GB; a word wider than a machine word has no
# hardware to model.
MAX_NODES = 1 << 22
MAX_WORD_SIZE = 64


class Role(Enum):
    ROOT = "root"
    INTERMEDIATE = "intermediate"
    LEAF = "leaf"


@dataclass(frozen=True)
class TreeParams:
    """Shape of the platform: branching order, height, and word width."""

    eta: int
    height: int
    word_size: int

    def __post_init__(self) -> None:
        if self.eta < 1:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if self.height < 1:
            raise ValueError(f"height must be >= 1, got {self.height}")
        if not 1 <= self.word_size <= MAX_WORD_SIZE:
            raise ValueError(
                f"word_size must be in 1..{MAX_WORD_SIZE}, got {self.word_size}")


def node_count(eta: int, height: int) -> int:
    """Total number of nodes in a finite Cayley tree of the given shape.

    A height-1 tree is the bare root.  Otherwise the root's eta+1 subtrees
    each contribute a geometric level series of order eta, which has a
    closed form, so the cost does not grow with the height.

    Raises OverflowError once the count exceeds the 64-bit platform limit.
    """
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    if eta == 1:
        total = 2 * height - 1
    elif (height - 1) * (eta.bit_length() - 1) >= 63:
        # eta^(h-1) >= 2^63 already; refuse before computing a huge power.
        total = _MAX_COUNT + 1
    else:
        total = 1 + (eta + 1) * (eta ** (height - 1) - 1) // (eta - 1)
    if total > _MAX_COUNT:
        raise OverflowError(f"node count for eta={eta}, height={height} exceeds 2^63-1")
    return total


def check_nodes(n: int, what: str) -> None:
    """Refuse ``what``, which needs ``n`` nodes, past the MAX_NODES cap."""
    if n > MAX_NODES:
        raise ValueError(f"{what} needs {n} nodes, over the limit of {MAX_NODES}")


def required_height(eta: int, list_len: int) -> int:
    """Minimal height whose non-root slots can hold ``list_len`` elements.

    The root never stores a list element, so a tree of height h offers
    node_count(eta, h) - 1 slots.  Heights below 2 have no slots at all;
    the smallest usable tree is returned even for empty lists.
    """
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if list_len < 0:
        raise ValueError(f"list_len must be >= 0, got {list_len}")
    h = 2
    while node_count(eta, h) - 1 < list_len:
        h += 1
    return h


@dataclass(frozen=True)
class CayleyTopology:
    """Immutable adjacency structure of one finite Cayley tree.

    All per-node maps are tuples indexed by node id.  ``parent_of`` is -1
    for the root.  ``parent_slot`` gives a node's position inside its
    parent's children list (the inbox slot its upward sends land in).
    Instances are safe to share across concurrent simulator runs.
    """

    params: TreeParams
    n: int
    parent_of: tuple[int, ...]
    children_of: tuple[tuple[int, ...], ...]
    role_of: tuple[Role, ...]
    depth_of: tuple[int, ...]
    parent_slot: tuple[int, ...]
    leaves: tuple[int, ...]


def build_topology(params: TreeParams) -> CayleyTopology:
    """Construct the tree for ``params`` with breadth-first node ids."""
    eta, h = params.eta, params.height
    n = node_count(eta, h)
    check_nodes(n, f"a tree with eta={eta}, height={h}")

    parent = [-1] * n
    children: list[tuple[int, ...]] = [()] * n
    role = [Role.LEAF] * n
    depth = [0] * n
    slot = [0] * n

    role[0] = Role.ROOT
    next_id = 1
    frontier = [0]
    for level in range(1, h):
        new_frontier: list[int] = []
        for node in frontier:
            fanout = eta + 1 if node == 0 else eta
            kids = tuple(range(next_id, next_id + fanout))
            next_id += fanout
            children[node] = kids
            if node != 0:
                role[node] = Role.INTERMEDIATE
            for i, kid in enumerate(kids):
                parent[kid] = node
                depth[kid] = level
                slot[kid] = i
            new_frontier.extend(kids)
        frontier = new_frontier
    assert next_id == n, "level expansion disagrees with node_count"

    leaves = tuple(i for i in range(n) if role[i] is Role.LEAF)
    return CayleyTopology(
        params=params,
        n=n,
        parent_of=tuple(parent),
        children_of=tuple(children),
        role_of=tuple(role),
        depth_of=tuple(depth),
        parent_slot=tuple(slot),
        leaves=leaves,
    )
