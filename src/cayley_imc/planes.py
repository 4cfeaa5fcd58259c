"""Bit-plane level engine: one whole untraced scheme run, level by level.

All nodes at one depth act in lockstep.  In a run that starts from the
reset state their control state (clock, ``start``, ``acted``, counters,
which inbox ports are latched) is therefore the same for every node of the
level at every cycle; only data bits differ from node to node.  Each level
keeps its control state as scalars and every per-node bit (a flag, one word
bit, a latched child bit) as one Python int, bit ``p`` belonging to the node
at position ``p``.

Positions are slot-major: a node's position is its slot times the size of
its parent's level plus its parent's position.  The children of the parent
at position ``q`` of a level of size ``N`` then sit at ``q, q + N, q + 2N,
...`` of the next level, so combining child bits at their parents is one
shift-and-OR per slot, and so is broadcasting a parent bit to its children.
Word rotation is a change of plane index.  A cycle costs O(h * eta) big-int
operations instead of O(n) Python calls.

The rules below mirror the transition functions of ``node.py`` one for one;
the tests compare every ``NodeState`` field after every cycle against the
object engine, which stays the executable specification.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import attrgetter, or_

from .engine import Configuration, _budget_exhausted, _validate_quiescent
from .node import BitWord, Mode

__all__ = ["PlaneRun", "run"]

_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TRUTH = b"0" + b"1" * 255  # flag byte to the digit of its truth value
_word_value = attrgetter("word.value")
_perm_disabled = attrgetter("flags.perm_disabled")


@lru_cache(maxsize=32)
def _layout(eta: int, height: int) -> tuple[tuple[int, ...], ...]:
    """Node ids of every level, in slot-major position order.

    Breadth-first ids give the node at position 0 of a level the level's
    lowest id, and the children of its j-th node the j-th run of ``k``
    consecutive ids of the next level.
    """
    levels = [(0,)]
    for d in range(1, height):
        parents, k = levels[-1], (eta + 1 if d == 1 else eta)
        low, first = parents[0], parents[0] + len(parents)
        levels.append(tuple(first + (p - low) * k + s for s in range(k) for p in parents))
    return tuple(levels)


def _bits(plane: int, n: int) -> bytes:
    """The ``n`` low bits of ``plane`` as 0/1 bytes, position 0 first."""
    return format(plane, f"0{n}b").encode().translate(_BITS)[::-1]


def _per_node(plane: int | None, n: int, k: int):
    """Per node of an ``n``-node level, its ``k`` bits of a child-level
    plane; ``None`` stands for ``k`` silent ports."""
    if plane is None or k == 0:
        return repeat((None,) * k)
    bits = _bits(plane, n * k)
    return zip(*[bits[s * n:(s + 1) * n] for s in range(k)])


def _combine(plane: int, n: int, k: int) -> int:
    """OR the ``k`` child slots of a child-level plane into parent positions."""
    out = 0
    for s in range(k):
        out |= plane >> (s * n)
    return out & ((1 << n) - 1)


def _spread(plane: int, n: int, k: int) -> int:
    """Copy a parent-level plane into all ``k`` child slots."""
    out = 0
    for s in range(k):
        out |= plane << (s * n)
    return out


class _Level:
    """One depth of the tree: per-node bit planes plus scalar control state.

    ``rot`` counts the word's left rotations, which at the root is also its
    ``writes`` counter.
    """

    __slots__ = ("nodes", "values", "n", "mask", "k", "words", "rot", "shown_rot",
                 "state", "start", "match", "link_mem", "links", "phase1_match",
                 "clock", "acted", "listen", "in_parent", "in_children")

    def __init__(self, nodes: list, k: int, w: int) -> None:
        self.nodes, self.k, self.n = nodes, k, len(nodes)
        self.mask = (1 << self.n) - 1
        self.values = list(map(_word_value, nodes))
        # Plane j holds word bit j (MSB first).  bin(v | 1 << w) spells every
        # word as "0b1" plus exactly w digits; reversing puts position 0 at
        # the low end of every int.
        text = "".join(map(bin, map(or_, reversed(self.values), repeat(1 << w))))
        self.words = [int(text[3 + j::w + 3], 2) for j in range(w)]
        self.link_mem = int(bytes(map(_perm_disabled, reversed(nodes))).translate(_TRUTH), 2)
        self.links = self.rot = self.shown_rot = self.clock = self.listen = 0
        self.acted = False
        self.phase1_match = self.in_parent = self.in_children = None


class PlaneRun:
    """One scheme run on bit planes, starting from the reset state.

    The constructor packs the words and ``perm_disabled`` flags of
    ``cfg.nodes`` and applies ``reset_flags`` for ``mode``.  ``step``
    advances one global cycle; ``write_back`` stores the full per-node
    state of the current cycle into ``cfg``.
    """

    def __init__(self, cfg: Configuration, mode: Mode, *,
                 phase1_only: bool = False) -> None:
        if mode is Mode.IDLE:
            raise ValueError("cannot reset a node into idle mode")
        p = cfg.topo.params
        self.cfg, self.mode, self.phase1_only = cfg, mode, phase1_only
        self.w = p.word_size
        self.cycle = 0
        layout = _layout(p.eta, p.height)
        last = len(layout) - 1
        self.levels = levels = []
        for d, ids in enumerate(layout):
            k = 0 if d == last else (p.eta + 1 if d == 0 else p.eta)
            lv = _Level([cfg.nodes[i] for i in ids], k, self.w)
            if mode is Mode.SEARCH:
                lv.state = lv.start = 0 if d else 1
                lv.match = lv.mask & ~lv.link_mem if d else 1
            else:
                lv.start = 1 if d == last and d else 0
                lv.state = lv.mask * lv.start
                lv.match = lv.mask
            levels.append(lv)

    def step(self) -> None:
        """Advance one global cycle.

        Dispatching here, instead of keeping a bound method on the instance,
        leaves the run free of reference cycles, so reference counting frees
        it, and the configuration it points to, as soon as it ends.
        """
        if self.mode is Mode.SEARCH:
            self._step_search()
        else:
            self._step_max()

    def _step_search(self) -> None:
        """receive_search then send_search, for every level."""
        w, levels = self.w, self.levels
        phase2 = not self.phase1_only
        root = levels[0]
        if root.clock > w and phase2:
            root.listen += 1
            if root.in_children:
                root.state = 1
        root.in_children = None
        for lv in levels[1:]:
            if lv.clock <= w:
                b = lv.in_parent
                if b is not None:
                    lv.state = lv.mask * b
                    if not lv.start:
                        lv.start = b
                    else:
                        plane = lv.words[lv.clock - 1]  # searching never rotates
                        lv.match &= plane if b else ~plane
                    lv.acted = True
            elif phase2:
                if lv.phase1_match is None:
                    lv.phase1_match = lv.match
                kids = lv.in_children
                lv.state = (_combine(kids, lv.n, lv.k) if kids else 0) | lv.match
                lv.match = 0
                lv.acted = True
            lv.in_parent = lv.in_children = None

        c = root.clock
        root.clock = c + 1
        if c <= w:
            # The initiate, then the key MSB first.
            down = root.words[c - 1] if c else 1
            root.state = 0 if c == w else down
            if len(levels) > 1:
                levels[1].in_parent = down
        for d in range(1, len(levels)):
            lv = levels[d]
            if lv.acted:
                lv.acted = False
                lv.clock += 1
                if lv.clock > w + 1:
                    levels[d - 1].in_children = lv.state
                elif d + 1 < len(levels):
                    # Key bits are broadcast, so the whole level holds one bit.
                    levels[d + 1].in_parent = 1 if lv.state else 0
        self.cycle += 1

    def _step_max(self) -> None:
        """receive_max then send_max, for every level.  Min runs as an OR
        tournament on inverted bits, so one set of rules serves both."""
        w, levels = self.w, self.levels
        invert = self.mode is Mode.MIN
        last = len(levels) - 1
        for d in range(last):
            lv = levels[d]
            kids = lv.in_children
            if kids is None:
                continue
            lv.in_children = None
            lv.acted = True
            if not lv.start:
                # The initiate: every child sends a 1 on its first cycle.
                lv.start = 1
                lv.state = lv.mask
                continue
            n, k = lv.n, lv.k
            if invert:
                kids ^= levels[d + 1].mask
            s = _combine(kids & ~lv.links, n, k)
            if d:
                own = lv.words[lv.rot % w] ^ (lv.mask if invert else 0)
                s |= own & ~lv.link_mem
                lv.link_mem |= s & ~own
            lv.links |= _spread(s, n, k) & ~kids
            lv.state = s ^ (lv.mask if invert else 0)
            if not d:
                lv.words[lv.rot % w] = lv.state
            lv.rot += 1

        if last and levels[last].clock <= w:
            leaves = levels[last]
            # At clock 0 the leaves send the initiate, the 1 that the reset
            # left in their state.
            if leaves.clock:
                msb = leaves.words[leaves.rot % w]
                leaves.state = msb | leaves.link_mem if invert else msb & ~leaves.link_mem
                leaves.rot += 1
            leaves.clock += 1
            levels[last - 1].in_children = leaves.state
        for d in range(1, last):
            lv = levels[d]
            if lv.acted:
                lv.acted = False
                lv.clock += 1
                levels[d - 1].in_children = lv.state
        levels[0].acted = False
        self.cycle += 1

    def quiescent(self) -> bool:
        """``engine._quiescent``, on levels."""
        w, levels = self.w, self.levels
        if self.mode is not Mode.SEARCH:
            return levels[0].rot >= w and (len(levels) == 1 or levels[-1].clock > w)
        if self.phase1_only:
            return all(lv.clock > w for lv in levels)
        return levels[0].clock > w and levels[0].listen >= 2 * len(levels) - 1

    def write_back(self) -> None:
        """Store every node's state, as the object engine would hold it."""
        cfg, w = self.cfg, self.w
        cfg.mode, cfg.global_cycle, cfg.phase1_only = self.mode, self.cycle, self.phase1_only
        neutral = 1 if self.mode is Mode.MIN else 0
        for d, lv in enumerate(self.levels):
            n, k, r = lv.n, lv.k, lv.rot % w
            if d == 0:
                value = 0
                for j in range(w):
                    value = (value << 1) | lv.words[(j + r) % w]
                lv.nodes[0].word = BitWord(w, value)
            elif r != lv.shown_rot:
                # The node objects still hold the words rotated by shown_rot.
                top = (1 << w) - 1
                for nd, v in zip(lv.nodes, lv.values):
                    nd.word = BitWord(w, ((v << r) | (v >> (w - r))) & top)
                lv.shown_rot = r
            start, clock, acted, listen, parent = \
                lv.start, lv.clock, lv.acted, lv.listen, lv.in_parent
            writes = 0 if d else lv.rot
            child_count = 0 if lv.in_children is None else k
            p1 = lv.phase1_match
            rows = zip(lv.nodes, _bits(lv.state, n), _bits(lv.match, n),
                       _bits(lv.link_mem, n), repeat(None) if p1 is None else _bits(p1, n),
                       _per_node(lv.links, n, k), _per_node(lv.in_children, n, k))
            for nd, state, match, link_mem, phase1_match, links, inbox in rows:
                f = nd.flags
                f.state, f.start, f.match, f.link_mem = state, start, match, link_mem
                f.link_child[:] = links
                nd.local_clock, nd.acted, nd.neutral = clock, acted, neutral
                nd.writes, nd.listen_steps = writes, listen
                nd.phase1_match = phase1_match
                ib = nd.inbox
                ib.parent, ib.child_count = parent, child_count
                ib.children[:] = inbox


def run(cfg: Configuration, mode: Mode, max_cycles: int, *,
        phase1_only: bool = False) -> int:
    """Reset ``cfg`` for ``mode`` and run it to quiescence on bit planes.

    Same contract as ``reset_configuration`` followed by
    ``run_until_quiescent``: returns the cycles used and leaves ``cfg`` in
    the state the object engine would leave it in, also when the budget
    runs out and ``QuiescenceError`` is raised.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    pr = PlaneRun(cfg, mode, phase1_only=phase1_only)
    for _ in range(max_cycles):
        pr.step()
        if pr.quiescent():
            pr.write_back()
            if mode is Mode.SEARCH and not phase1_only and any(
                    lv.state or lv.match for lv in pr.levels[1:]):
                _validate_quiescent(cfg)  # names the node that did not drain
            return pr.cycle
    pr.write_back()
    raise _budget_exhausted(cfg, max_cycles)
