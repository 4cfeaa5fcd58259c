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
operations instead of O(n) Python calls.  The word and ``perm_disabled``
planes can last from run to run, so a loaded tree needs no node objects.

The rules below mirror the transition functions of ``node.py`` one for one;
the tests compare every ``NodeState`` field after every cycle against the
object engine, which stays the executable specification.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
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

    ``words`` and ``perm`` (the ``perm_disabled`` flags) last from run to
    run.  ``rot`` counts this run's word rotations (at the root, ``writes``).
    """

    __slots__ = ("nodes", "n", "mask", "k", "words", "perm", "rot", "shown_rot",
                 "state", "start", "match", "link_mem", "links", "phase1_match",
                 "clock", "acted", "listen", "in_parent", "in_children")

    def __init__(self, values: list[int], perm: int, k: int, w: int) -> None:
        self.n, self.k, self.perm = len(values), k, perm
        self.mask = (1 << self.n) - 1
        # Plane j holds word bit j (MSB first).  bin(v | 1 << w) spells every
        # word as "0b1" plus exactly w digits; reversing puts position 0 at
        # the low end of every int.
        text = "".join(map(bin, map(or_, reversed(values), repeat(1 << w))))
        self.words = [int(text[3 + j::w + 3], 2) for j in range(w)]
        self.nodes, self.rot = None, 0

    def aligned(self, w: int) -> list[int]:
        """The word planes rotated so plane j holds bit j of the words as
        they now stand."""
        r = self.rot % w
        return self.words[r:] + self.words[:r]


class LoadedTree:
    """One input list in a tree, ready to run: its words and flags as bit
    planes, and the scheme runs on them.

    ``load`` is the only constructor; ``layout`` lists each level's ids by
    position.  The tree stays in planes until ``cfg`` is first read, which
    builds node objects holding the current state.
    From then on the tree is in object form: every ``rearm`` packs the words
    and ``perm_disabled`` flags from ``cfg``, every plane run writes every
    node's state back, and results are read from ``cfg``, so a
    configuration or node a caller holds is never stale.
    """

    @classmethod
    def load(cls, topo: CayleyTopology, mode: Mode, root_word: int,
             elements: Sequence[int], pad_word: int, *, disable_padding: bool) -> LoadedTree:
        """Node 0 holds ``root_word``, nodes 1..len(elements) the elements,
        the rest ``pad_word``, permanently disabled if ``disable_padding``."""
        tree = cls()
        p = topo.params
        tree.topo, tree.w, tree._cfg = topo, p.word_size, None
        tree.layout, tree._where = _layout(p.eta, p.height)
        tree.occupied = frozenset(range(1, len(elements) + 1))
        pad = topo.n - 1 - len(elements)
        tree._pack([root_word, *elements, *repeat(pad_word, pad)],
                   bytes(1 + len(elements)) + bytes([disable_padding]) * pad)
        tree.rearm(mode)
        return tree

    def _pack(self, words: Sequence[int], perm: Sequence[int]) -> None:
        p = self.topo.params
        last = len(self.layout) - 1
        self.levels = [
            _Level(list(map(words.__getitem__, ids)),
                   int(bytes(map(perm.__getitem__, reversed(ids))).translate(_TRUTH), 2),
                   0 if d == last else (p.eta + 1 if d == 0 else p.eta), self.w)
            for d, ids in enumerate(self.layout)]

    def rearm(self, mode: Mode, *, phase1_only: bool = False) -> None:
        """Apply ``reset_flags`` for ``mode`` to every level; the words keep
        their value, and ``link_mem`` comes up from ``perm``."""
        if mode is Mode.IDLE:
            raise ValueError("cannot reset a node into idle mode")
        cfg = self._cfg
        if cfg is not None:
            self._pack(list(map(attrgetter("word"), cfg.nodes)),
                       list(map(attrgetter("flags.perm_disabled"), cfg.nodes)))
            for lv, ids in zip(self.levels, self.layout):
                lv.nodes = list(map(cfg.nodes.__getitem__, ids))
        self.mode, self.phase1_only, self.cycle = mode, phase1_only, 0
        last = len(self.levels) - 1
        for d, lv in enumerate(self.levels):
            lv.words = lv.aligned(self.w)
            lv.link_mem = lv.perm
            lv.links = lv.rot = lv.shown_rot = lv.clock = lv.listen = 0
            lv.acted = False
            lv.phase1_match = lv.in_parent = lv.in_children = None
            if mode is Mode.SEARCH:
                lv.state = lv.start = 0 if d else 1
                lv.match = lv.mask & ~lv.link_mem if d else 1
            else:
                lv.start = 1 if d == last and d else 0
                lv.state = lv.mask * lv.start
                lv.match = lv.mask

    @property
    def cfg(self) -> Configuration:
        """The tree as node objects.  The first read builds them holding the
        current state, which is the reset state if nothing has stepped since
        ``rearm``."""
        if self._cfg is None:
            topo, nodes = self.topo, []
            for lv, ids in zip(self.levels, self.layout):
                lv.nodes = list(map(make_node, repeat(topo), ids, _unpack(lv.aligned(self.w), lv.n)))
                lv.shown_rot = lv.rot % self.w
                for nd, perm in zip(lv.nodes, _bits(lv.perm, lv.n)):
                    nd.flags.perm_disabled = perm
                nodes += lv.nodes
            nodes.sort(key=attrgetter("id"))
            self._cfg = Configuration(topo=topo, nodes=nodes)
            self.write_back()
        return self._cfg

    def check_mode(self, mode: Mode) -> None:
        """Refuse a run in a mode other than the one last loaded or reset."""
        loaded = self.mode if self._cfg is None else self._cfg.mode
        if loaded is not mode:
            raise ValueError(f"tree is loaded for {loaded.value}, not {mode.value}")

    @property
    def root_word(self) -> int:
        if self._cfg is not None:
            return self._cfg.root.word
        return _unpack(self.levels[0].aligned(self.w), 1)[0]

    @root_word.setter
    def root_word(self, word: int) -> None:
        if self._cfg is not None:
            self._cfg.root.word = word
            return
        root, w = self.levels[0], self.w
        root.words, root.rot = [(word >> (w - 1 - j)) & 1 for j in range(w)], 0

    def bit(self, name: str, node: int) -> int:
        """Node ``node``'s ``state``, ``match`` or ``phase1_match`` bit (0 if unset)."""
        if self._cfg is not None:
            nd = self._cfg.nodes[node]
            return (nd.phase1_match or 0) if name == "phase1_match" else getattr(nd.flags, name)
        d, p = self._where[node]
        plane = getattr(self.levels[d], name)
        return 0 if plane is None else (plane >> p) & 1

    def disable(self, nodes: Iterable[int]) -> None:
        """Set ``perm_disabled`` on ``nodes``; the next ``rearm`` applies it."""
        for i in nodes:
            if self._cfg is not None:
                self._cfg.nodes[i].flags.perm_disabled = 1
            else:
                d, p = self._where[i]
                self.levels[d].perm |= 1 << p

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

    def run(self, mode: Mode, max_cycles: int, *, phase1_only: bool = False,
            on_step: Callable[[LoadedTree], object] | None = None) -> int:
        """``rearm`` and step to quiescence; return the cycles.  ``on_step(tree)``
        follows the ``rearm`` and every cycle.  A tree in object form gets
        the final state, also on ``QuiescenceError``."""
        self.rearm(mode, phase1_only=phase1_only)
        if on_step is not None:
            on_step(self)
        try:
            for _ in range(max_cycles):
                self.step()
                if on_step is not None:
                    on_step(self)
                if self.quiescent():
                    break
            else:
                raise _budget_exhausted(mode, self.topo.params, max_cycles)
        finally:
            if self._cfg is not None:
                self.write_back()
        if mode is Mode.SEARCH and not phase1_only and any(
                lv.state or lv.match for lv in self.levels[1:]):
            _validate_quiescent(self.cfg)  # names the node
        return self.cycle

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
        cfg, w = self._cfg, self.w
        cfg.mode, cfg.global_cycle, cfg.phase1_only = self.mode, self.cycle, self.phase1_only
        neutral = 1 if self.mode is Mode.MIN else 0
        for d, lv in enumerate(self.levels):
            n, k, r = lv.n, lv.k, lv.rot % w
            if d == 0:
                lv.nodes[0].word = _unpack(lv.aligned(w), 1)[0]
            elif r != lv.shown_rot:  # the nodes hold the words rotated by shown_rot
                for nd, v in zip(lv.nodes, _unpack(lv.aligned(w), n)):
                    nd.word = v
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

