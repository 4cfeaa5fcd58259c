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

# Unused here, but perfbench/tracing.py replaces run_until_quiescent in this namespace.
from .engine import ProtocolError, run_until_quiescent  # noqa: F401
from .node import Mode
from .planes import LoadedTree
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
    # Per-cycle observer of LoadedTree.run.  Only type checkers build it: a
    # subscripted Callable is cached inside typing and would keep this
    # module's classes alive after a reload.
    StepObserver = Callable[[LoadedTree], object]


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
    return _load(topo, elements, mode, key, int(mode is Mode.SEARCH))


def _load(topo: CayleyTopology, elements: Sequence[int], mode: Mode,
          key: int | None, padding_perm: int) -> LoadedTree:
    """``load_list``; each padding node's ``perm_disabled`` is ``padding_perm``."""
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
    pad_word = limit - 1 if mode is Mode.MIN else 0
    flags = bytes(len(elements) + 1) + bytes([padding_perm]) * (topo.n - 1 - len(elements))
    tree = LoadedTree.load(topo, mode, pad_word, elements, pad_word, flags)  # checks the elements
    if mode is Mode.SEARCH:
        if key is None:
            raise ValueError("search mode requires a key")
        if not 0 <= key < limit:
            raise ValueError(f"key {key} out of range [0, 2^{w})")
        tree.root_word = key
    return tree


def search(tree: LoadedTree, key: int, collect_matches: bool = False,
           on_step: StepObserver | None = None) -> SearchResult:
    """Run the full two-phase search; found means the root absorbed a 1.

    With ``collect_matches`` the result also carries every occupied node
    whose element equals the key, read from the match value each node held
    when its own comparison phase ended (the relay phase consumes the live
    flags afterwards).  ``on_step`` observes every cycle of the run.
    """
    tree.check_mode(Mode.SEARCH)
    w = tree.topo.params.word_size
    if not 0 <= key < (1 << w):
        raise ValueError(f"key {key} out of range [0, 2^{w})")
    tree.root_word = key
    cycles = tree.run(Mode.SEARCH, on_step=on_step)
    levels = enumerate(tree.levels) if collect_matches else ()  # each level's phase-1 matches
    matched = frozenset(i for d, lv in levels if lv.phase1_match
                        for i in tree.topo.ids(d, lv.phase1_match) if i in tree.occupied)
    return SearchResult(found=tree.levels[0].state, cycles=cycles,
                        matched_nodes=matched)


def _run_extremum(tree: LoadedTree, mode: Mode,
                  on_step: StepObserver | None) -> ExtremumResult:
    tree.check_mode(mode)
    cycles = tree.run(mode, on_step=on_step)
    return ExtremumResult(value=tree.root_word, cycles=cycles)


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
    run the comparison phase only, then permanently disable every node whose
    match survived and append the value once per such node.  The live set is
    the enabled nodes below the root, so each level's ``match`` plane is
    what the round retires.  Rounds repeat until every occupied node is
    retired, so the round count equals the number of distinct values.
    ``on_step`` observes every cycle of both runs of every round; an empty
    list runs nothing.
    """
    if order not in ("desc", "asc"):
        raise ValueError(f"order must be 'desc' or 'asc', got {order!r}")
    mode = Mode.MAX if order == "desc" else Mode.MIN
    if not elements:
        return SortResult(output=[], cycles_total=0, rounds=0, per_round_cycles=[])

    # Padding slots sit out the whole sort; only occupied nodes count for
    # termination, otherwise an empty slot would inject its padding word.
    tree = _load(topo, elements, mode, None, 1)
    output: list[int] = []
    per_round: list[int] = []
    below, remaining = tree.levels[1:], len(elements)
    while remaining:
        cycles_a = tree.run(mode, on_step=on_step)
        value = tree.root_word

        cycles_b = tree.run(Mode.SEARCH, phase1_only=True, on_step=on_step)

        copies = 0
        for lv in below:  # count the round's matches and move them into perm
            copies += lv.match.bit_count()
            lv.perm, lv.match = lv.perm | lv.match, 0
        if not copies:
            live = [i for d, lv in enumerate(below, 1)
                    for i in tree.topo.ids(d, lv.mask & ~lv.perm)]
            raise ProtocolError(
                f"sort round found no node holding {value}; live set {live}")
        remaining -= copies
        output.extend([value] * copies)
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
