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
``load`` packs each level from its slice of the list with a few C-level
passes (``_gather`` and ``_pack``).

The control state never depends on the data either: only on the mode, the
height, the word size and ``phase1_only``.  ``_schedule`` lists, once per
shape, each cycle's data operations as a few ranges of depths, and its
length is the cycle count.  ``LoadedTree.run`` is the one run loop, for
observed, unobserved and replayed runs alike: it applies only those
operations to the planes, so a run is its schedule.  The control values
an observer reads (each level's clock, ``start`` and rotation) are derived
from (mode, ``phase1_only``, cycle) before each of its calls.

The operations mirror the transition functions of ``node.py``, leaving out
only relay cycles of the leaves that change nothing.  The object engine
(``engine.step`` over those functions) stays the executable specification:
after every cycle the tests pack its nodes into planes, level by level,
and compare them with the tree's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import and_, itemgetter, rshift
from typing import Callable, Sequence

from .engine import ProtocolError, _budget_exhausted, default_cycle_budget
from .node import Mode
from .topology import CayleyTopology

__all__ = ["LoadedTree"]

_BITS = bytes.maketrans(b"01", b"\x00\x01")
# Per bit, the translation of a byte to the digit of that bit.
_DIGITS = [(b"0" * (1 << bit) + b"1" * (1 << bit)) * (128 >> bit) for bit in range(8)]


def _pack(values: list[int], w: int) -> list[int]:
    """The word planes of ``values``, MSB first, position 0 at the low end:
    per byte of the words, one ``translate`` to digits and one
    ``int(..., 2)`` per bit.  A value outside [0, 2^w) raises ValueError:
    ``bytes`` refuses its top byte, or that byte is too wide."""
    planes, top = [], (w - 1) // 8
    for lane in range(top, -1, -1):
        shifted = map(rshift, values, repeat(8 * lane)) if lane else values
        raw = bytes(shifted if lane == top else map(and_, shifted, repeat(255)))[::-1]
        width = w - 8 * top if lane == top else 8
        if width < 8 and raw.translate(None, bytes(range(1 << width))):
            raise ValueError("a word is out of range")
        planes += [int(raw.translate(_DIGITS[bit]), 2) for bit in range(width - 1, -1, -1)]
    return planes


def _gather(level: Sequence, parents: list[int], k: int) -> list:
    """A level's values, given in breadth-first order, in position order:
    slot ``s`` of the parent at breadth-first index ``q`` is
    ``level[q * k + s]``, so each slot is one strided slice taken through
    ``parents``, the parent level's indices in position order."""
    if len(parents) == 1:  # the root or its children: positions are breadth-first
        return list(level)
    get, values = itemgetter(*parents), []
    for s in range(k):
        values += get(level[s::k])
    return values


def _unpack(planes: list[int], n: int) -> list[int]:
    """Per position, the word whose bit j (MSB first) is its bit of ``planes[j]``."""
    columns = [format(plane, f"0{n}b") for plane in planes]
    return [int("".join(bits), 2) for bits in zip(*columns)][::-1]


def _bits(plane: int, n: int) -> bytes:
    """The ``n`` low bits of ``plane`` as 0/1 bytes, position 0 first."""
    return format(plane, f"0{n}b").encode().translate(_BITS)[::-1]


# The data operations of a cycle, each over a range of depths.  Search: the
# root sends the initiate or a key bit, or reads the relay; a level takes the
# initiate or a key bit; a relaying level passes its match up and keeps it as
# its phase-1 match on its first relay cycle (FIRST), then sends 0 (DRAIN),
# then its latched child plane (RELAY).  Max/min: a level takes the initiate
# or a child plane (COMBINE), and the leaves send their next bit.
_SEND, _LISTEN, _INITIATE, _KEY, _FIRST, _DRAIN, _RELAY, _COMBINE, _LEAF = range(9)


@lru_cache(maxsize=256)
def _schedule(search: bool, h: int, w: int, phase1_only: bool
              ) -> tuple[tuple[tuple[int, int, int], ...], ...] | None:
    """Per cycle of a run from the reset, its data operations as ``(op,
    first depth, last depth + 1)`` ranges in depth order; None for a
    tournament on a lone root, which never starts.  The length is the run's
    cycle count.

    Each level's control follows its local time: the cycle minus its depth
    in a search, minus its height above the leaves in a tournament.  A level
    below the root takes the initiate at local time 0 and a key bit or a
    child plane at 1..w; a searching level then relays from w + 1 on, with
    a child plane latched from w + 3 on.  A leaf's state and match stay 0
    from w + 2 on, so its later relay cycles change nothing and are left
    out.  The levels at one stage of that program are consecutive, so a
    cycle has a few ranges at any height.
    """
    last, phase2, end = h - 1, search and not phase1_only, w + 2 * h
    # Stages in depth order: (op, first and last local time, top and bottom depth).
    if search:
        relay = [(_LISTEN, w + 3, end, 0, 0), (_RELAY, w + 3, end, 1, last - 1),
                 (_DRAIN, w + 2, w + 2, 1, last), (_FIRST, w + 1, w + 1, 1, last)]
        stages = ([(_SEND, 0, w, 0, 0)] + relay * (phase2 and last > 0)
                  + [(_KEY, 1, w, 1, last), (_INITIATE, 0, 0, 1, last)])
    elif last:
        stages = [(_INITIATE, 0, 0, 0, last - 1), (_COMBINE, 1, w, 0, last - 1),
                  (_LEAF, 1, w, last, last)]
    else:
        return None
    cycles = []
    for t in range(end if phase2 else w + h):
        ranges = []
        for op, first, final, top, bottom in stages:
            lo, hi = (t - final, t - first) if search else (first + last - t, final + last - t)
            lo, hi = max(lo, top), min(hi, bottom) + 1
            if lo < hi:
                ranges.append((op, lo, hi))
        cycles.append(tuple(ranges))
    return tuple(cycles)


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
        ``mode``.  Each level is gathered from its breadth-first slice of
        the words and flags; an element outside [0, 2^w) is named by the
        first one in list order."""
        tree = cls()
        p, offs = topo.params, topo.offsets
        tree.topo, tree.w, w = topo, p.word_size, p.word_size
        tree.occupied, tree.levels = range(1, len(elements) + 1), []
        words = [root_word, *elements, *repeat(pad_word, topo.n - 1 - len(elements))]
        orders, parents, k = topo.level_orders(), [0], 1  # the root: slot 0 of one parent
        for d in range(p.height):
            lo, n = offs[d], offs[d + 1] - offs[d]
            flags, perm = perm_disabled[lo:lo + n], 0
            if 1 in flags:
                perm = _pack(_gather(flags, parents, k), 1)[0]
            try:
                planes = _pack(_gather(words[lo:lo + n], parents, k), w)
            except ValueError:
                bad = next(x for x in (*elements, root_word, pad_word) if not 0 <= x < 1 << w)
                raise ValueError(f"element {bad} out of range [0, 2^{w})") from None
            k = topo.fanout(d)
            tree.levels.append(_Level(planes, perm, n, k))
            parents = next(orders) if k else None
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
        levels, w = self.levels, self.w
        cycles = _schedule(mode is Mode.SEARCH, len(levels), w, phase1_only)
        if cycles is None:
            raise _budget_exhausted(mode, self.topo.params, default_cycle_budget(self.topo))
        self.rearm(mode, phase1_only=phase1_only)
        last, root = len(levels) - 1, levels[0]
        if on_step is not None:
            self._set_control(0)
            on_step(self)
        key, inv = root.words, mode is Mode.MIN  # searching never rotates
        for t, ranges in enumerate(cycles):
            for op, lo, hi in ranges:
                if op == _COMBINE:  # receive_max; the j-th child plane turns rot to j
                    for d in range(lo, hi):
                        lv, below = levels[d], levels[d + 1]
                        r = t - last + d - 1
                        kids = below.state ^ below.mask if inv else below.state
                        s = x = kids & ~lv.links
                        for shift in lv.shifts:  # OR the child slots together
                            s |= x >> shift
                        s &= lv.mask
                        if d:
                            own = lv.words[r] ^ lv.mask if inv else lv.words[r]
                            s |= own & ~lv.link_mem
                            lv.link_mem |= s & ~own
                        lv.links |= s * lv.spread & ~kids
                        lv.state = s ^ lv.mask if inv else s
                        if not d:
                            lv.words[r] = lv.state
                elif op == _RELAY:
                    for d in range(lo, hi):
                        lv, s = levels[d], levels[d + 1].state
                        if s:  # the relay wave is sparse in depth
                            x = s
                            for shift in lv.shifts:
                                s |= x >> shift
                        lv.state = s & lv.mask  # FIRST spent the match
                elif op == _KEY:  # key bit j reaches depth d at cycle d + j + 1
                    for d in range(lo, hi):
                        lv, j = levels[d], t - d - 1
                        plane = lv.words[j] if key[j] else ~lv.words[j]
                        lv.state, lv.match = lv.mask * key[j], lv.match & plane
                elif op == _LEAF:
                    lv = levels[last]
                    msb = lv.words[t - 1]
                    lv.state = msb | lv.link_mem if inv else msb & ~lv.link_mem
                elif op == _INITIATE:
                    for lv in levels[lo:hi]:
                        lv.state = lv.mask
                elif op == _SEND:  # the initiate, then the key MSB first
                    root.state = 0 if t == w else key[t - 1] if t else 1
                elif op == _LISTEN:
                    if levels[1].state:
                        root.state = 1
                else:  # _FIRST or _DRAIN: no child plane is latched
                    for lv in levels[lo:hi]:
                        if op == _FIRST:
                            lv.phase1_match = lv.match
                        lv.state, lv.match = lv.match, 0
            if on_step is not None:
                self._set_control(t + 1)
                on_step(self)
        if mode is Mode.SEARCH and not phase1_only:
            for d, lv in enumerate(levels):
                if d and lv.state | lv.match:  # ids grow with depth: the lowest is here
                    i, p = min((i, p) for p, (i, b) in enumerate(
                        zip(self.topo.layout()[d], _bits(lv.state | lv.match, lv.n))) if b)
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
