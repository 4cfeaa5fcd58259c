"""Bit-plane level engine: every scheme run, level by level, from a per-shape
schedule.

All nodes at one depth act in lockstep.  In a run that starts from the
reset state their control state (clock, ``start``, counters, which inbox
ports are latched) is therefore the same for every node of the level at
every cycle; only data bits differ from node to node.  Each level keeps its
control state as scalars and every per-node bit (a flag, one word bit, a
child link) as one Python int, bit ``p`` belonging to the node at
position ``p``.

Positions are slot-major: a node's position is its slot times the size of
its parent's level plus its parent's position.  The children of the parent
at position ``q`` of a level of size ``N`` then sit at ``q, q + N, q + 2N,
...`` of the next level, so combining child bits at their parents is one
shift-and-OR per slot, and broadcasting a parent bit to its children is one
multiplication.  Word rotation is a change of plane index.  The word and
``perm_disabled`` planes last from run to run, so a loaded tree is its
planes and nothing else: no node objects and no per-node table.
Positions are arithmetic on the ids (see ``CayleyTopology.locate``), and
``load`` packs the whole tree with a few C-level passes (``_planes``).

The control state never depends on the data either: only on the mode, the
height, the word size and ``phase1_only``.  ``_schedule`` lists, once per
shape, each cycle's data operations as a few ``(op, range of depths)``
entries, and its length is the cycle count.  A tournament's step at the
root, which writes the root's word, is an op of its own, so the per-level
op below it tests no depth.  A search relays only above the deepest level
that holds an enabled node, since below it only 0 can rise.
``LoadedTree.run`` is the one run path, for observed, unobserved and
replayed runs alike: one loop per mode family (search, tournament), each
testing only its own ops, applies those operations to the planes, so a
run is its schedule.  The control values an observer reads (each level's
clock, ``start`` and rotation) are derived from (mode, ``phase1_only``,
cycle) before each of its calls.

The operations mirror the transition functions of ``node.py``, leaving out
only relay cycles of the leaves that change nothing.  The object engine
(``engine.step`` over those functions) stays the executable specification:
after every cycle the tests pack its nodes into planes, level by level,
and compare them with the tree's.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial
from typing import Callable, Sequence

from .engine import ProtocolError, _budget_exhausted, default_cycle_budget
from .node import Mode
from .topology import CayleyTopology

__all__ = ["LoadedTree"]

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# The masked swaps of an 8x8 bit transpose of each 8-byte block (Hacker's
# Delight 7-3): bit r of byte i trades places with bit i of byte r.
_SWAPS = [(k, m.to_bytes(8, "little"))
          for k, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0))]


def _planes(words, flags: bytes, w: int, topo: CayleyTopology) -> tuple[list[int], list[int]]:
    """Per level, its ``w`` planes of ``words`` (little-endian, in id order),
    MSB first, and the plane of its 0/1 ``flags``.  Cast to its ``axes``, a
    level is in position order read in Fortran order.  With levels padded
    to 8 nodes, a byte lane is a strided slice, an 8x8 bit transpose of it
    gives its planes, and a level is a byte range of each.  A word outside
    [0, 2^w) raises ValueError."""
    view, offs = memoryview(words), topo.offsets
    code, size, view = view.format, view.itemsize, view.cast("B")
    digits = topo.axes(len(offs) - 2)  # the deepest level's lead every level's
    tree, ends, perms, planes = [], [0], [], []
    for d, (lo, hi) in enumerate(zip(offs, offs[1:])):
        shape, pad = digits[:d], bytes((lo - hi) % 8 * size)
        tree += view[lo * size:hi * size].cast(code, shape).tobytes("F"), pad
        ends.append(ends[-1] + (hi - lo + 7) // 8)
        perms.append(int(memoryview(flags)[lo:hi].cast("B", shape).tobytes("F")
                         .translate(_DIGITS)[::-1], 2) if flags.count(1, lo, hi) else 0)
    tree = b"".join(tree)
    masks = [(k, int.from_bytes(m * ends[-1], "little")) for k, m in _SWAPS]
    for b in range(size):
        lane, width = tree[b::size], min(w - 8 * b, 8)
        if width < 8 and lane.translate(None, bytes(range(1 << max(width, 0)))):
            raise ValueError("a word is out of range")
        if width > 0:
            x = int.from_bytes(lane, "little")
            for k, m in masks:
                t = (x ^ x >> k) & m
                x ^= t ^ t << k
            lane = x.to_bytes(len(lane), "little")
            planes[:0] = [lane[r::8] for r in range(width - 1, -1, -1)]
    return [int.from_bytes(plane[cut], "little") for cut in map(slice, ends, ends[1:])
            for plane in planes], perms


# The data operations of a cycle, each over a range of depths.  Search: the
# root sends the initiate or a key bit, or reads the relay; a level takes the
# initiate or a key bit; a relaying level passes its match up and keeps it as
# its phase-1 match on its first relay cycle (FIRST), then sends 0 (DRAIN),
# then its latched child plane (RELAY).  Max/min: a level takes the initiate
# or a child plane (COMBINE below the root, ROOT at it), and the leaves send
# their next bit.
_SEND, _LISTEN, _INITIATE, _KEY, _FIRST, _DRAIN, _RELAY, _COMBINE, _ROOT, _LEAF = range(10)
# Only a schedule of at most this many cycles is cached: a longer one holds
# O(cycles) and would outlive its run.
_KEPT_CYCLES = 128


@lru_cache(maxsize=256)
def _schedule(search: bool, h: int, w: int, phase1_only: bool, deepest: int
              ) -> tuple[tuple[tuple[int, range], ...], ...] | None:
    """Per cycle of a run from the reset, its data operations as ``(op,
    depths)`` entries in depth order; None for a tournament on a lone root,
    which never starts.  The length is the run's cycle count.  Equal ranges
    and equal entries are one object each.

    Each level's control follows its local time: the cycle minus its depth
    in a search, minus its height above the leaves in a tournament.  A level
    below the root takes the initiate at local time 0 and a key bit or a
    child plane at 1..w; a searching level then relays from w + 1 on, with
    a child plane latched from w + 3 on.  A leaf's state and match stay 0
    from w + 2 on, so its later relay cycles change nothing and are left
    out.  So are the relay cycles of every depth from ``deepest`` down,
    the deepest depth that holds an enabled node: a search's reset clears
    the match of every disabled node, so below it only 0 is ever relayed.
    A run that does not relay passes h - 1.  The levels at one stage of
    that program are consecutive, so a cycle has a few entries at any
    height; SEND, LISTEN, INITIATE, FIRST, DRAIN, ROOT and LEAF cover one
    depth each.
    """
    last, phase2, end = h - 1, search and not phase1_only, w + 2 * h
    # Stages in depth order: (op, first and last local time, top and bottom depth).
    if search:
        relay = [(_LISTEN, w + 3, end, 0, 0), (_RELAY, w + 3, end, 1, deepest - 1),
                 (_DRAIN, w + 2, w + 2, 1, last), (_FIRST, w + 1, w + 1, 1, last)]
        stages = ([(_SEND, 0, w, 0, 0)] + relay * (phase2 and last > 0)
                  + [(_KEY, 1, w, 1, last), (_INITIATE, 0, 0, 1, last)])
    elif last:
        stages = [(_INITIATE, 0, 0, 0, last - 1), (_ROOT, 1, w, 0, 0),
                  (_COMBINE, 1, w, 1, last - 1), (_LEAF, 1, w, last, last)]
    else:
        return None
    n = end if phase2 else w + h
    cycles, interned = [[] for _ in range(n)], {}
    for op, first, final, top, bottom in stages:
        # The cycles at which a depth in [top, bottom] is at a local time in [first, final].
        if search:
            start, stop = top + first, bottom + final
        else:
            start, stop = first + last - bottom, final + last - top
        for t in range(start, min(stop + 1, n)):
            lo, hi = (t - final, t - first) if search else (first + last - t, final + last - t)
            lo, hi = max(lo, top), min(hi, bottom) + 1
            if lo < hi:  # one object per distinct range and per distinct entry
                depths = interned.setdefault((lo, hi), range(lo, hi))
                cycles[t].append(interned.setdefault((op, lo, hi), (op, depths)))
    return tuple(map(tuple, cycles))


class _Level:
    """One depth of the tree: per-node bit planes plus scalar control state.

    ``words`` and ``perm`` (the ``perm_disabled`` flags) last from run to
    run.  ``rot`` counts this run's word rotations (at the root, ``writes``)
    as last derived; only a tournament its observer aborted stops short of a
    whole turn.
    """

    __slots__ = ("n", "mask", "k", "shifts", "spread", "words", "perm", "rot", "state",
                 "start", "match", "link_mem", "links", "phase1_match", "clock")

    def __init__(self, words: list[int], perm: int, n: int, k: int) -> None:
        self.n, self.k, self.words, self.perm = n, k, words, perm
        self.mask = (1 << n) - 1
        # Child slot s of a position sits s * n bits above it.  Copies of an
        # n-bit plane at those offsets never overlap, so one product by
        # ``spread`` broadcasts a plane to all k slots.
        self.shifts = range(n, k * n, n)
        self.spread = sum(1 << s for s in range(0, k * n, n))
        self.rot = 0

    def aligned(self, w: int) -> list[int]:
        """The word planes rotated so plane j holds bit j of the words as
        they now stand."""
        r = self.rot % w
        return self.words[r:] + self.words[:r]


class LoadedTree:
    """One input list in a tree, ready to run: its words and flags as bit
    planes, and the scheme runs on them.

    ``load`` is the only constructor.
    """

    @classmethod
    def load(cls, topo: CayleyTopology, mode: Mode, root_word: int,
             elements: Sequence[int], pad_word: int, perm_disabled: bytes) -> LoadedTree:
        """Node 0 holds ``root_word``, nodes 1..len(elements) the elements,
        the rest ``pad_word``; node ``i`` is permanently disabled if
        ``perm_disabled[i]`` is 1.  The tree is left in the reset state of
        ``mode``.  An element outside [0, 2^w) is named by the first one in
        list order."""
        tree = cls()
        offs, w = topo.offsets, topo.params.word_size
        tree.topo, tree.w, tree.occupied = topo, w, range(1, len(elements) + 1)
        try:  # 2-byte arrays take a list 3x slower than 4-byte ones
            pack = bytes if w <= 8 else partial(array, "IQ"[w > 32])
            words = pack((root_word,)) + pack(elements)
            words += pack((pad_word,)) * (topo.n - len(words))
            if w > 8 and sys.byteorder == "big":
                words.byteswap()
            bits, perms = _planes(words, perm_disabled, w, topo)
        except (ValueError, OverflowError):
            bad = next(x for x in (*elements, root_word, pad_word) if not 0 <= x < 1 << w)
            raise ValueError(f"element {bad} out of range [0, 2^{w})") from None
        tree.levels = [_Level(bits[d * w:d * w + w], perm, hi - lo, topo.fanout(d))
                       for d, (lo, hi, perm) in enumerate(zip(offs, offs[1:], perms))]
        tree.rearm(mode)
        return tree

    def rearm(self, mode: Mode, *, phase1_only: bool = False) -> None:
        """Apply ``reset_flags`` for ``mode`` to the planes a run reads; the
        words keep their value, and ``link_mem`` comes up from ``perm``."""
        if mode is Mode.IDLE:
            raise ValueError("cannot reset a node into idle mode")
        self.mode, self.phase1_only = mode, phase1_only
        levels, w, search = self.levels, self.w, mode is Mode.SEARCH
        for lv in levels:
            # A tournament whose observer raised part way leaves its words part
            # rotated, as the object engine does; the next run reads them so.
            if lv.rot % w:
                lv.words = lv.aligned(w)
            lv.link_mem, lv.links, lv.rot, lv.phase1_match, lv.state = lv.perm, 0, 0, None, 0
            lv.match = lv.mask & ~lv.perm if search else lv.mask
        if search:  # the root sends, and its match stays armed
            levels[0].state = levels[0].match = 1
        elif len(levels) > 1:  # the leaves start a tournament
            levels[-1].state = levels[-1].mask

    def check_mode(self, mode: Mode) -> None:
        """Refuse a run in a mode other than the one last loaded or reset."""
        if self.mode is not mode:
            raise ValueError(f"tree is loaded for {self.mode.value}, not {mode.value}")

    @property
    def root_word(self) -> int:
        word = 0
        for bit in self.levels[0].aligned(self.w):  # w one-bit planes, MSB first
            word = word << 1 | bit
        return word

    @root_word.setter
    def root_word(self, word: int) -> None:
        root, w = self.levels[0], self.w
        root.words, root.rot = [(word >> (w - 1 - j)) & 1 for j in range(w)], 0

    def run(self, mode: Mode, *, phase1_only: bool = False,
            on_step: Callable[[LoadedTree], object] | None = None) -> int:
        """``rearm``, then run the shape's schedule to quiescence; return the
        cycles.  ``on_step(tree)`` follows the ``rearm`` and every cycle, with
        the control values derived for it to read.  A tournament on a lone
        root never starts: it is refused as the object engine's budget
        refuses it."""
        levels, w, search = self.levels, self.w, mode is Mode.SEARCH
        last = deepest = len(levels) - 1
        if search and not phase1_only:  # the deepest level with an enabled node
            while deepest and not levels[deepest].mask & ~levels[deepest].perm:
                deepest -= 1
        schedule = _schedule if w + 2 * len(levels) <= _KEPT_CYCLES else _schedule.__wrapped__
        cycles = schedule(search, len(levels), w, phase1_only, deepest)
        if cycles is None:
            raise _budget_exhausted(mode, self.topo.params, default_cycle_budget(self.topo))
        self.rearm(mode, phase1_only=phase1_only)
        root = levels[0]
        if on_step is not None:
            self._set_control(0)
            on_step(self)
        if search:
            key = root.words  # searching never rotates
            for t, entries in enumerate(cycles):
                for op, depths in entries:
                    if op == _KEY:  # key bit j reaches depth d at cycle d + j + 1
                        for d in depths:
                            lv, j = levels[d], t - d - 1
                            plane = lv.words[j] if key[j] else ~lv.words[j]
                            lv.state, lv.match = lv.mask * key[j], lv.match & plane
                    elif op == _RELAY:
                        for d in depths:
                            lv, s = levels[d], levels[d + 1].state
                            if s:  # the relay wave is sparse in depth
                                x = s
                                for shift in lv.shifts:
                                    s |= x >> shift
                            lv.state = s & lv.mask  # FIRST spent the match
                    elif op == _SEND:  # the initiate, then the key MSB first
                        root.state = 0 if t == w else key[t - 1] if t else 1
                    elif op == _LISTEN:
                        if levels[1].state:
                            root.state = 1
                    elif op == _INITIATE:
                        lv = levels[depths.start]
                        lv.state = lv.mask
                    else:  # _FIRST or _DRAIN: no child plane is latched
                        lv = levels[depths.start]
                        if op == _FIRST:
                            lv.phase1_match = lv.match
                        lv.state, lv.match = lv.match, 0
                if on_step is not None:
                    self._set_control(t + 1)
                    on_step(self)
        else:
            inv = mode is Mode.MIN
            for t, entries in enumerate(cycles):
                for op, depths in entries:
                    if op == _COMBINE:  # receive_max; the j-th child plane turns rot to j
                        for d in depths:
                            lv, below = levels[d], levels[d + 1]
                            r = t - last + d - 1
                            kids = below.state ^ below.mask if inv else below.state
                            s = x = kids & ~lv.links
                            for shift in lv.shifts:  # OR the child slots together
                                s |= x >> shift
                            s &= lv.mask
                            own = lv.words[r] ^ lv.mask if inv else lv.words[r]
                            s |= own & ~lv.link_mem
                            lv.link_mem |= s & ~own
                            lv.links |= s * lv.spread & ~kids
                            lv.state = s ^ lv.mask if inv else s
                    elif op == _ROOT:  # the root enters no word of its own; it writes its state
                        below = levels[1]
                        kids = below.state ^ below.mask if inv else below.state
                        s = x = kids & ~root.links
                        for shift in root.shifts:
                            s |= x >> shift
                        s &= 1
                        root.links |= s * root.spread & ~kids
                        root.state = root.words[t - last - 1] = s ^ 1 if inv else s
                    elif op == _LEAF:
                        lv = levels[last]
                        msb = lv.words[t - 1]
                        lv.state = msb | lv.link_mem if inv else msb & ~lv.link_mem
                    else:  # _INITIATE
                        lv = levels[depths.start]
                        lv.state = lv.mask
                if on_step is not None:
                    self._set_control(t + 1)
                    on_step(self)
        if search and not phase1_only:
            for d, lv in enumerate(levels):
                if d and lv.state | lv.match:  # ids grow with depth: the lowest is here
                    i = self.topo.ids(d, lv.state | lv.match)[0]
                    p = self.topo.locate(i)[1]
                    raise ProtocolError(
                        f"search quiescence reached but node {i} has not drained "
                        f"(state={lv.state >> p & 1}, match={lv.match >> p & 1})")
        return len(cycles)

    def _set_control(self, cycle: int) -> None:
        """Derive every level's clock, ``start`` and rotation after ``cycle``
        cycles of the run from its local time (see ``_schedule``)."""
        self.cycle, levels, w = cycle, self.levels, self.w
        last, search = len(levels) - 1, self.mode is Mode.SEARCH
        phase2 = search and not self.phase1_only
        for d, lv in enumerate(levels):
            if search:
                tau = cycle - d
                lv.clock = cycle if not d else max(tau, 0) if phase2 else min(max(tau, 0), w + 1)
                lv.start = int(tau > 0 or not d)
            else:
                tau = cycle - last + d if last else -1  # a lone root never starts
                taken = min(max(tau, 0), w + 1)  # the initiate, then the bits or planes
                lv.start, lv.rot = int(taken > 0 or d == last > 0), max(taken - 1, 0)
                lv.clock = taken if d else 0
