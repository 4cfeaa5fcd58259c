"""Bit-plane level engine: every scheme run, level by level, from a per-shape
schedule.

All nodes at one depth act in lockstep.  In a run that starts from the
reset state their control state (clock, ``start``, counters, which inbox
ports are latched) is therefore the same for every node of the level at
every cycle; only data bits differ from node to node.  Each level keeps its
control state as scalars and every per-node bit (a flag, one word bit, a
latched child bit) as one Python int, bit ``p`` belonging to the node at
position ``p``.

Positions are slot-major: a node's position is its slot times the size of
its parent's level plus its parent's position.  The children of the parent
at position ``q`` of a level of size ``N`` then sit at ``q, q + N, q + 2N,
...`` of the next level, so combining child bits at their parents is one
shift-and-OR per slot, and broadcasting a parent bit to its children is one
multiplication.  Word rotation is a change of plane index.  The word and
``perm_disabled`` planes last from run to run, so a loaded tree needs no
node objects; ``LoadedTree.configuration`` builds them as a copy.

The control state never depends on the data either: only on the mode, the
height, the word size and ``phase1_only``.  ``_schedule`` lists, once per
shape, each cycle's data operations as a few ranges of depths, and its
length is the cycle count.  ``LoadedTree.run`` is the one run loop, for
observed, unobserved, budgeted and replayed runs alike: it applies those
operations to the planes and writes the control values into the levels
after each cycle only when an observer watches, at a budget cut, and once
at the end.

The operations mirror the transition functions of ``node.py``, leaving out
only relay cycles of the leaves that change nothing; the tests compare
every ``NodeState`` field after every cycle against the object engine,
which stays the executable specification.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, repeat
from operator import attrgetter, or_
from typing import Callable, Iterable, Sequence

from .engine import Configuration, _budget_exhausted, _validate_quiescent
from .node import Mode, make_node
from .topology import CayleyTopology

__all__ = ["LoadedTree"]

_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TRUTH = b"0" + b"1" * 255  # flag byte to the digit of its truth value


@lru_cache(maxsize=32)
def _layout(eta: int, height: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """Node ids of every level, in slot-major position order, and the
    depth and position of every node id.

    Breadth-first ids give the node at position 0 of a level the level's
    lowest id, and the children of its j-th node the j-th run of ``k``
    consecutive ids of the next level.
    """
    levels = [(0,)]
    for d in range(1, height):
        parents, k = levels[-1], (eta + 1 if d == 1 else eta)
        low, first = parents[0], parents[0] + len(parents)
        levels.append(tuple(first + (p - low) * k + s for s in range(k) for p in parents))
    return tuple(levels), {i: (d, p) for d, ids in enumerate(levels) for p, i in enumerate(ids)}


def _unpack(planes: list[int], n: int) -> list[int]:
    """Per position, the word whose bit j (MSB first) is its bit of ``planes[j]``."""
    columns = [format(plane, f"0{n}b") for plane in planes]
    return [int("".join(bits), 2) for bits in zip(*columns)][::-1]


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


# The data operations of a cycle, each over a range of depths.  Search: the
# root sends the initiate or a key bit, or reads the relay; a level takes the
# initiate or a key bit; a relaying level keeps its phase-1 match on its
# first relay cycle and passes its match up with (RELAY) or without (FIRST,
# DRAIN) a latched child plane.  Max/min: a level takes the initiate or a
# child plane (COMBINE), and the leaves send their next bit.
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
    run.  ``rot`` counts this run's word rotations (at the root, ``writes``).
    """

    __slots__ = ("n", "mask", "k", "shifts", "spread", "words", "perm", "rot", "state",
                 "start", "match", "link_mem", "links", "phase1_match", "clock", "listen",
                 "in_parent", "in_children")

    def __init__(self, values: list[int], perm: int, k: int, w: int) -> None:
        self.n, self.k, self.perm = len(values), k, perm
        self.mask = (1 << self.n) - 1
        # Child slot s of a position sits s * n bits above it.  Copies of an
        # n-bit plane at those offsets never overlap, so one product by
        # ``spread`` broadcasts a plane to all k slots.
        self.shifts = range(self.n, k * self.n, self.n)
        self.spread = sum(1 << s for s in range(0, k * self.n, self.n))
        # Plane j holds word bit j (MSB first).  bin(v | 1 << w) spells every
        # word as "0b1" plus exactly w digits; reversing puts position 0 at
        # the low end of every int.
        text = "".join(map(bin, map(or_, reversed(values), repeat(1 << w))))
        self.words = [int(text[3 + j::w + 3], 2) for j in range(w)]
        self.rot = 0

    def aligned(self, w: int) -> list[int]:
        """The word planes rotated so plane j holds bit j of the words as
        they now stand."""
        r = self.rot % w
        return self.words[r:] + self.words[:r]


class LoadedTree:
    """One input list in a tree, ready to run: its words and flags as bit
    planes, and the scheme runs on them.

    ``load`` is the only constructor; ``layout`` lists each level's ids by
    position.  ``configuration`` copies the state into node objects.
    """

    @classmethod
    def load(cls, topo: CayleyTopology, mode: Mode, root_word: int,
             elements: Sequence[int], pad_word: int, *, disable_padding: bool) -> LoadedTree:
        """Node 0 holds ``root_word``, nodes 1..len(elements) the elements,
        the rest ``pad_word``, permanently disabled if ``disable_padding``."""
        tree = cls()
        p = topo.params
        tree.topo, tree.w = topo, p.word_size
        tree.layout, tree._where = _layout(p.eta, p.height)
        tree.occupied = frozenset(range(1, len(elements) + 1))
        pad = topo.n - 1 - len(elements)
        words = [root_word, *elements, *repeat(pad_word, pad)]
        perm = bytes(1 + len(elements)) + bytes([disable_padding]) * pad
        last = len(tree.layout) - 1
        tree.levels = [
            _Level(list(map(words.__getitem__, ids)),
                   int(bytes(map(perm.__getitem__, reversed(ids))).translate(_TRUTH), 2),
                   0 if d == last else (p.eta + 1 if d == 0 else p.eta), tree.w)
            for d, ids in enumerate(tree.layout)]
        tree.mode = mode  # the next run, or rearm, resets the flags
        return tree

    def rearm(self, mode: Mode, *, phase1_only: bool = False) -> None:
        """Apply ``reset_flags`` for ``mode`` to every level; the words keep
        their value, and ``link_mem`` comes up from ``perm``."""
        if mode is Mode.IDLE:
            raise ValueError("cannot reset a node into idle mode")
        self.mode, self.phase1_only, self.cycle = mode, phase1_only, 0
        last = len(self.levels) - 1
        for d, lv in enumerate(self.levels):
            lv.words = lv.aligned(self.w)
            lv.link_mem = lv.perm
            lv.links = lv.rot = lv.clock = lv.listen = 0
            lv.phase1_match = lv.in_parent = lv.in_children = None
            if mode is Mode.SEARCH:
                lv.state = lv.start = 0 if d else 1
                lv.match = lv.mask & ~lv.link_mem if d else 1
            else:
                lv.start = 1 if d == last and d else 0
                lv.state = lv.mask * lv.start
                lv.match = lv.mask

    def check_mode(self, mode: Mode) -> None:
        """Refuse a run in a mode other than the one last loaded or reset."""
        if self.mode is not mode:
            raise ValueError(f"tree is loaded for {self.mode.value}, not {mode.value}")

    @property
    def root_word(self) -> int:
        return _unpack(self.levels[0].aligned(self.w), 1)[0]

    @root_word.setter
    def root_word(self, word: int) -> None:
        root, w = self.levels[0], self.w
        root.words, root.rot = [(word >> (w - 1 - j)) & 1 for j in range(w)], 0

    def bit(self, name: str, node: int) -> int:
        """Node ``node``'s ``state``, ``match`` or ``phase1_match`` bit (0 if unset)."""
        d, p = self._where[node]
        plane = getattr(self.levels[d], name)
        return 0 if plane is None else (plane >> p) & 1

    def disable(self, nodes: Iterable[int]) -> None:
        """Set ``perm_disabled`` on ``nodes``; the next ``rearm`` applies it."""
        for i in nodes:
            d, p = self._where[i]
            self.levels[d].perm |= 1 << p

    def run(self, mode: Mode, max_cycles: int, *, phase1_only: bool = False,
            on_step: Callable[[LoadedTree], object] | None = None) -> int:
        """``rearm``, then run the shape's schedule to quiescence; return the
        cycles.  ``on_step(tree)`` follows the ``rearm`` and every cycle, with
        the control values written for it to read."""
        self.rearm(mode, phase1_only=phase1_only)
        levels, w = self.levels, self.w
        last, root = len(levels) - 1, levels[0]
        cycles = _schedule(mode is Mode.SEARCH, len(levels), w, phase1_only)
        if on_step is not None:
            on_step(self)
        key, inv = root.words, mode is Mode.MIN  # searching never rotates
        steps = repeat((), max_cycles) if cycles is None else islice(cycles, max_cycles)
        for t, ranges in enumerate(steps):
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
                        lv.state, lv.match = s & lv.mask | lv.match, 0
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
        if cycles is None or len(cycles) > max_cycles:
            self._set_control(max_cycles)
            raise _budget_exhausted(mode, self.topo.params, max_cycles)
        if on_step is None:
            self._set_control(len(cycles))
        if mode is Mode.SEARCH and not phase1_only and any(
                lv.state or lv.match for lv in levels[1:]):
            _validate_quiescent(self.configuration())  # names the node
        return self.cycle

    def _set_control(self, cycle: int) -> None:
        """Write every level's control values after ``cycle`` cycles of the
        run, from its local time (see ``_schedule``); a latched bit or plane
        is read off its sender."""
        self.cycle, levels, w = cycle, self.levels, self.w
        last = len(levels) - 1
        if self.mode is Mode.SEARCH:
            phase2, key = not self.phase1_only, levels[0].words
            for d, lv in enumerate(levels):
                tau = cycle - d
                lv.clock = cycle if not d else max(tau, 0) if phase2 else min(max(tau, 0), w + 1)
                lv.start = int(tau > 0 or not d)
                lv.in_parent = (key[tau - 1] if tau else 1) if d and 0 <= tau <= w else None
                relayed = phase2 and d < last and tau >= w + 3  # by the level below
                lv.in_children = levels[d + 1].state if relayed else None
            levels[0].listen = max(cycle - w - 1, 0) if phase2 else 0
        elif last:
            for d, lv in enumerate(levels):
                tau = cycle - last + d
                taken = min(max(tau, 0), w + 1)  # the initiate, then the bits or planes
                lv.start, lv.rot = int(taken > 0 or d == last), max(taken - 1, 0)
                lv.clock = taken if d else 0
                lv.in_children = levels[d + 1].state if d < last and 0 <= tau <= w else None

    def configuration(self) -> Configuration:
        """A new ``Configuration`` holding the tree's current state, every
        ``NodeState`` field as the object engine would hold it.  Runs never
        change the copy, and writes to it never reach the tree."""
        topo, w = self.topo, self.w
        neutral = 1 if self.mode is Mode.MIN else 0
        nodes = []
        for d, (lv, ids) in enumerate(zip(self.levels, self.layout)):
            n, k = lv.n, lv.k
            start, clock, listen, parent = lv.start, lv.clock, lv.listen, lv.in_parent
            writes = 0 if d else lv.rot
            child_count = 0 if lv.in_children is None else k
            p1 = lv.phase1_match
            rows = zip(ids, _unpack(lv.aligned(w), n), _bits(lv.perm, n),
                       _bits(lv.state, n), _bits(lv.match, n), _bits(lv.link_mem, n),
                       repeat(None) if p1 is None else _bits(p1, n),
                       _per_node(lv.links, n, k), _per_node(lv.in_children, n, k))
            for i, word, perm, state, match, link_mem, phase1_match, links, inbox in rows:
                nd = make_node(topo, i, word)
                f = nd.flags
                f.state, f.start, f.match, f.link_mem = state, start, match, link_mem
                f.perm_disabled = perm
                f.link_child[:] = links
                nd.local_clock, nd.neutral = clock, neutral
                nd.writes, nd.listen_steps = writes, listen
                nd.phase1_match = phase1_match
                ib = nd.inbox
                ib.parent, ib.child_count = parent, child_count
                ib.children[:] = inbox
                nodes.append(nd)
        nodes.sort(key=attrgetter("id"))
        return Configuration(topo, nodes, self.mode, self.cycle, self.phase1_only)
