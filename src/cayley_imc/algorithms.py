"""The three in-memory schemes, orchestrated over the engine.

Elements live in the non-root nodes (breadth-first from node 1); unused
slots are padded so they can never influence an answer: word 0 under the
OR tournament, all-ones under AND, and a pre-cleared match flag for
searching.  The root's word carries the search key, and after a max/min
run it carries the answer.

Sorting alternates extremum rounds with key-comparison rounds: compute the
current extremum, report it, find every node holding it, permanently
disable their memories, repeat.  Each round retires one distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal, Sequence

from . import planes
from .engine import (
    Configuration,
    ProtocolError,
    default_cycle_budget,
    reset_configuration,
    run_until_quiescent,
)
from .node import Mode
from .topology import CayleyTopology, TreeParams, node_count

__all__ = [
    "LoadedTree",
    "SearchResult",
    "ExtremumResult",
    "SortResult",
    "load_list",
    "search",
    "compute_max",
    "compute_min",
    "sort",
    "resource_report",
]

if TYPE_CHECKING:
    # Per-cycle observer: called with emissions None once at cycle 0, right
    # after the reset, then with the per-node emissions after every cycle.
    # Only type checkers build it: a subscripted Callable is cached inside
    # typing and would keep this module's classes alive after a reload.
    StepObserver = Callable[[Configuration, list[dict[str, int]] | None], None]


class LoadedTree:
    """One input list in a tree, ready to run.

    The tree stays in bit planes (a ``planes.PlaneRun``) until ``cfg`` is
    first read; from then on every run reads and writes ``cfg``.
    """

    def __init__(self, run: planes.PlaneRun, occupied: frozenset[int]) -> None:
        self.topo, self.occupied = run.topo, occupied
        self._planes: planes.PlaneRun | None = run
        self._cfg: Configuration | None = None

    @property
    def cfg(self) -> Configuration:
        if self._planes is not None:
            self._cfg = self._planes.cfg or self._planes.configuration()
            self._planes = None
        return self._cfg

    @property
    def _root_word(self) -> int:
        return self._cfg.root.word if self._planes is None else self._planes.root_word

    def _bit(self, name: str, node: int) -> int:
        if self._planes is not None:
            return self._planes.bit(name, node)
        nd = self._cfg.nodes[node]
        return (nd.phase1_match or 0) if name == "phase1_match" else getattr(nd.flags, name)

    def _check(self, mode: Mode) -> None:
        loaded = self._cfg.mode if self._planes is None else self._planes.mode
        if loaded is not mode:
            raise ValueError(f"tree is loaded for {loaded.value}, not {mode.value}")


@dataclass(frozen=True)
class SearchResult:
    found: int
    cycles: int
    matched_nodes: frozenset[int] = frozenset()


@dataclass(frozen=True)
class ExtremumResult:
    value: int
    cycles: int


@dataclass(frozen=True)
class SortResult:
    output: list[int]
    cycles_total: int
    rounds: int
    per_round_cycles: list[int]


def load_list(topo: CayleyTopology, elements: Sequence[int], mode: Mode,
              *, key: int | None = None) -> LoadedTree:
    """Distribute ``elements`` over the non-root nodes and initialise flags.

    Elements fill nodes 1..len(elements) in breadth-first order.  The root
    word is the search key, 0 for max, all-ones for min.  Search padding
    nodes are permanently disabled with match pre-forced to 0, so a key
    that happens to equal the padding word can never produce a false hit.
    """
    return _load(topo, elements, mode, key, disable_padding=mode is Mode.SEARCH)


def _load(topo: CayleyTopology, elements: Sequence[int], mode: Mode,
          key: int | None, *, disable_padding: bool) -> LoadedTree:
    if mode not in (Mode.SEARCH, Mode.MAX, Mode.MIN):
        raise ValueError(f"cannot load a tree for mode {mode}")
    if topo.params.height < 2:
        raise ValueError("height-1 trees have no data slots")
    w = topo.params.word_size
    limit = 1 << w
    if len(elements) > topo.n - 1:
        raise ValueError(
            f"{len(elements)} elements exceed the {topo.n - 1} non-root slots"
        )
    for x in elements:
        if not 0 <= x < limit:
            raise ValueError(f"element {x} out of range [0, 2^{w})")

    if mode is Mode.SEARCH:
        if key is None:
            raise ValueError("search mode requires a key")
        if not 0 <= key < limit:
            raise ValueError(f"key {key} out of range [0, 2^{w})")
    pad_word = limit - 1 if mode is Mode.MIN else 0
    root_word = key if mode is Mode.SEARCH else pad_word
    run = planes.PlaneRun.load(topo, mode, root_word, elements, pad_word,
                               disable_padding=disable_padding)
    return LoadedTree(run, frozenset(range(1, len(elements) + 1)))


def _run(tree: LoadedTree, mode: Mode, on_step: StepObserver | None = None, *,
         phase1_only: bool = False) -> int:
    """Reset ``tree`` for ``mode`` and run it to quiescence; return the cycles.

    Without an observer the bit-plane engine runs the whole segment, in the
    tree's own planes while it is in plane form.  With one, the object
    engine steps it so the observer sees every cycle.
    """
    budget = default_cycle_budget(tree.topo)
    if on_step is None:
        run = tree._planes or planes.PlaneRun(tree.cfg, mode)
        return run.run(mode, budget, phase1_only=phase1_only)
    cfg = tree.cfg
    reset_configuration(cfg, mode, phase1_only=phase1_only)
    on_step(cfg, None)
    return run_until_quiescent(cfg, budget, on_step)[1]


def search(tree: LoadedTree, key: int, collect_matches: bool = False,
           on_step: StepObserver | None = None) -> SearchResult:
    """Run the full two-phase search; found means the root absorbed a 1.

    With ``collect_matches`` the result also carries every occupied node
    whose element equals the key, read from the match value each node held
    when its own comparison phase ended (the relay phase consumes the live
    flags afterwards).  ``on_step`` observes every cycle of the run.
    """
    tree._check(Mode.SEARCH)
    w = tree.topo.params.word_size
    if not 0 <= key < (1 << w):
        raise ValueError(f"key {key} out of range [0, 2^{w})")
    if tree._planes is None:
        tree.cfg.root.word = key
    else:
        tree._planes.root_word = key
    cycles = _run(tree, Mode.SEARCH, on_step)
    matched: frozenset[int] = frozenset()
    if collect_matches:
        matched = frozenset(i for i in tree.occupied if tree._bit("phase1_match", i))
    return SearchResult(found=tree._bit("state", 0), cycles=cycles,
                        matched_nodes=matched)


def _run_extremum(tree: LoadedTree, mode: Mode,
                  on_step: StepObserver | None) -> ExtremumResult:
    tree._check(mode)
    cycles = _run(tree, mode, on_step)
    return ExtremumResult(value=tree._root_word, cycles=cycles)


def compute_max(tree: LoadedTree, on_step: StepObserver | None = None) -> ExtremumResult:
    """OR-tournament over all enabled words; 0 when nothing is enabled."""
    return _run_extremum(tree, Mode.MAX, on_step)


def compute_min(tree: LoadedTree, on_step: StepObserver | None = None) -> ExtremumResult:
    """AND-tournament over all enabled words; all-ones when nothing is enabled."""
    return _run_extremum(tree, Mode.MIN, on_step)


def sort(topo: CayleyTopology, elements: Sequence[int],
         order: Literal["desc", "asc"] = "desc",
         on_step: StepObserver | None = None) -> SortResult:
    """Sort by repeated extremum extraction, descending by default.

    Each round: run the tournament (the root ends up holding the current
    extremum, which doubles as the next search key), reset for searching,
    run the comparison phase only, then permanently disable every occupied
    node whose match survived and append the value once per such node.
    Rounds repeat until every occupied node is retired, so the round count
    equals the number of distinct values.  ``on_step`` observes every cycle
    of both runs of every round; an empty list runs nothing.
    """
    if order not in ("desc", "asc"):
        raise ValueError(f"order must be 'desc' or 'asc', got {order!r}")
    mode = Mode.MAX if order == "desc" else Mode.MIN
    if not elements:
        return SortResult(output=[], cycles_total=0, rounds=0, per_round_cycles=[])

    # Padding slots sit out the whole sort; only occupied nodes count for
    # termination, otherwise an empty slot would inject its padding word.
    tree = _load(topo, elements, mode, None, disable_padding=True)
    output: list[int] = []
    per_round: list[int] = []
    live = set(tree.occupied)
    while live:
        cycles_a = _run(tree, mode, on_step)
        value = tree._root_word

        cycles_b = _run(tree, Mode.SEARCH, on_step, phase1_only=True)

        matched = [i for i in live if tree._bit("match", i)]
        if not matched:
            raise ProtocolError(
                f"sort round found no node holding {value}; live set {sorted(live)}"
            )
        if tree._planes is not None:
            tree._planes.disable(matched)
        else:
            for i in matched:
                tree.cfg.nodes[i].flags.perm_disabled = 1
        live.difference_update(matched)
        output.extend([value] * len(matched))
        per_round.append(cycles_a + cycles_b)
    return SortResult(
        output=output,
        cycles_total=sum(per_round),
        rounds=len(per_round),
        per_round_cycles=per_round,
    )


def resource_report(params: TreeParams, scheme: Literal["search", "sort"]) -> int:
    """Flag-overhead bits of a scheme on the whole tree.

    Searching needs three one-bit flags per node.  Sorting needs the search
    flags plus the tournament's memory, child and parent links, and the
    per-node word itself is counted with them.
    """
    n = node_count(params.eta, params.height)
    if scheme == "search":
        return 3 * n
    if scheme == "sort":
        return n * (params.word_size + params.eta + 5)
    raise ValueError(f"unknown scheme {scheme!r}")
