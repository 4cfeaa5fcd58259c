"""Finite Cayley tree arithmetic: node counts, level offsets, positions.

A finite Cayley tree of order ``eta`` has a root with ``eta + 1`` children,
every other internal node with exactly ``eta`` children, and all leaves at
the same depth.  The tree size parameter ``height`` follows the level
expansion 1, eta+1, (eta+1)*eta, ... so a tree of height ``h`` has its
leaves at depth ``h - 1`` (root depth 0).  Node ids are dense integers
assigned breadth-first, root = 0, children ordered left to right, which
makes every construction deterministic and traces reproducible.

A topology keeps only its level offsets: a node's depth, position, parent
and children are arithmetic on its id, and no table is kept per node.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from enum import Enum
from itertools import accumulate, compress, repeat
from operator import mul
from typing import NamedTuple

__all__ = [
    "Role",
    "TreeParams",
    "CayleyTopology",
    "node_count",
    "level_sizes",
    "required_height",
    "build_topology",
    "check_nodes",
    "MAX_NODES",
    "MAX_WORD_SIZE",
]

# node_count rejects counts that cannot be represented in a 64-bit signed
# integer; Python ints are unbounded but the platform being modelled is not.
_MAX_COUNT = 2**63 - 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # '0'/'1' digits to 0/1 bytes

# Caps on what one simulation may allocate.  Besides the list, a load keeps
# about 1.3 (w = 8) to 9 (w = 64) bytes per node and 260 + 36w per level (its
# _Level and w plane ints; 260 + 8w at eta = 1, two nodes a level, as CPython
# 3.11+ shares small ints) and peaks near 12 to 40 bytes per node and 8w per
# level more.  A traced run peaks near 480 (w = 8) to 630 bytes per node of
# trace text (1,200 at eta = 1) and keeps none of it once its recorder is gone
# (CPython 3.11, tracemalloc, random words).  So MAX_NODES bounds a load near
# 170 MB (2.8 GB at eta = 1), a trace near 2.6 GB (5 GB); a word wider than a
# machine word has no hardware to model.
MAX_NODES = 1 << 22
MAX_WORD_SIZE = 64


class Role(Enum):
    ROOT = "root"
    INTERMEDIATE = "intermediate"
    LEAF = "leaf"


class _Shape(NamedTuple):
    eta: int
    height: int
    word_size: int


class TreeParams(_Shape):
    """Shape of the platform: branching order, height, and word width."""

    __slots__ = ()

    def __new__(cls, eta: int, height: int, word_size: int) -> TreeParams:
        if eta < 1:
            raise ValueError(f"eta must be >= 1, got {eta}")
        if height < 1:
            raise ValueError(f"height must be >= 1, got {height}")
        if not 1 <= word_size <= MAX_WORD_SIZE:
            raise ValueError(f"word_size must be in 1..{MAX_WORD_SIZE}, got {word_size}")
        return super().__new__(cls, eta, height, word_size)


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


def level_sizes(eta: int, height: int) -> list[int]:
    """Nodes at each depth: 1, eta + 1, (eta + 1) * eta, ..."""
    return [1, *accumulate(repeat(eta, height - 2), mul, initial=eta + 1)][:height]


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
    if list_len < 0:
        raise ValueError(f"list_len must be >= 0, got {list_len}")
    h = 2
    while node_count(eta, h) - 1 < list_len:
        h += 1
    return h


class CayleyTopology(NamedTuple):
    """One finite Cayley tree, as arithmetic on its breadth-first node ids:
    depth ``d`` holds ids ``offsets[d]`` up to ``offsets[d + 1]``, and
    ``offsets[h]`` is ``n``.  Instances are safe to share across concurrent
    simulator runs.
    """

    params: TreeParams
    n: int
    offsets: tuple[int, ...]

    def fanout(self, depth: int) -> int:
        """Children of a node at ``depth``."""
        eta, h = self.params.eta, self.params.height
        return 0 if depth == h - 1 else eta + 1 if depth == 0 else eta

    def role(self, depth: int) -> Role:
        return (Role.ROOT if depth == 0 else
                Role.LEAF if depth == self.params.height - 1 else Role.INTERMEDIATE)

    def depth(self, node: int) -> int:
        return bisect_right(self.offsets, node) - 1

    def locate(self, node: int) -> tuple[int, int]:
        """Depth and slot-major position of ``node``: its index within its
        level with the mixed-radix digits (eta + 1 at the top) reversed."""
        offs, d = self.offsets, self.depth(node)
        index, position = node - offs[d], 0
        for e in range(d, 0, -1):
            index, slot = divmod(index, self.fanout(e - 1))
            position += slot * (offs[e] - offs[e - 1])
        return d, position

    def axes(self, depth: int) -> tuple[int, ...]:
        """The digits of an index within the level at ``depth``, top first:
        eta + 1, then eta (eta = 1 drops its size-1 axes: a memoryview takes
        at most 64).  Cast to them and read in Fortran order, a level in id
        order is in position order; cast to them reversed, a level in
        position order is in id order.  They lead every deeper level's."""
        eta = self.params.eta
        return (eta + 1,)[:depth] + (eta,) * (depth - 1) * (eta > 1)

    def layout(self) -> list[list[int]]:
        """Each level's node ids in position order."""
        return [array("q", memoryview(array("q", range(lo, hi))).cast("B")
                      .cast("q", self.axes(d)).tobytes("F")).tolist()
                for d, (lo, hi) in enumerate(zip(self.offsets, self.offsets[1:]))]

    def ids(self, depth: int, plane: int) -> list[int]:
        """The ids, ascending, of the nodes at ``depth`` whose bit is set in
        ``plane`` (bit ``p`` for the node at position ``p``)."""
        lo, hi = self.offsets[depth], self.offsets[depth + 1]
        bits = format(plane, f"0{hi - lo}b").encode()[::-1]  # position 0 first
        bits = memoryview(bits).cast("B", self.axes(depth)[::-1]).tobytes("F")
        return list(compress(range(lo, hi), bits.translate(_BITS)))

    def parent(self, node: int) -> tuple[int, int]:
        """The parent of ``node`` and the child slot it fills there; (-1, 0)
        for the root."""
        if not node:
            return -1, 0
        offs, d = self.offsets, self.depth(node)
        index, slot = divmod(node - offs[d], self.fanout(d - 1))
        return offs[d - 1] + index, slot

    def children(self, node: int) -> range:
        offs, d = self.offsets, self.depth(node)
        k = self.fanout(d)
        first = offs[d + 1] + (node - offs[d]) * k
        return range(first, first + k)


def build_topology(params: TreeParams) -> CayleyTopology:
    """The tree for ``params``: its node count and level offsets."""
    eta, h = params.eta, params.height
    n = node_count(eta, h)
    check_nodes(n, f"a tree with eta={eta}, height={h}")
    offsets = tuple(accumulate(level_sizes(eta, h), initial=0))
    assert offsets[-1] == n, "level expansion disagrees with node_count"
    return CayleyTopology(params=params, n=n, offsets=offsets)
