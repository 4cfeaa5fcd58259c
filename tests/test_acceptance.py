"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The cycle-accounting offsets below were derived once by simulating the
height-3, order-2, 4-bit worked examples and are frozen as regression
values:

* a full search run takes w + 2h cycles            -> SEARCH_OFFSET  =  0
* a max/min run takes w + h cycles                 -> EXTREMUM_OFFSET = -1
  (stated against the w + h + 1 step budget)
* one sort round takes 2(w + h) cycles             -> ROUND_OFFSET   = -2
  (stated against the 2(w + h + 1) step budget)

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import random
import time
from contextlib import contextmanager

from cayley_imc.algorithms import (
    compute_max,
    compute_min,
    load_list,
    resource_report,
    search,
    sort,
)
from cayley_imc.engine import step
from cayley_imc.node import Mode
from cayley_imc.oracle import oracle_extremum, oracle_search, oracle_sort_desc
from cayley_imc.topology import TreeParams, build_topology, node_count

from conftest import cached_topology, loaded_by_nodes, random_elements, random_params, words_of

SEARCH_OFFSET = 0
EXTREMUM_OFFSET = -1
ROUND_OFFSET = -2

SEARCH_LIST = [14, 9, 6, 10, 14, 7, 11, 11, 10]
MAX_LIST = [14, 9, 5, 14, 7, 11, 10, 10]


@contextmanager
def criterion(name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[PASS] {name} ({elapsed:.2f} s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"{name}: {elapsed:.2f} s over the {budget_s} s budget"


def test_node_count_formula_matches_construction():
    with criterion("node-count formula vs construct-and-count", budget_s=1.0):
        for eta in range(1, 5):
            for h in range(1, 9):
                topo = build_topology(TreeParams(eta, h, 4))
                assert topo.n == node_count(eta, h)
                reached, frontier = 1, [0]
                while frontier:  # walk the tree from its root
                    frontier = [c for u in frontier for c in topo.children(u)]
                    reached += len(frontier)
                assert reached == topo.n


def test_worked_example_search():
    with criterion("worked example: search", budget_s=1.0):
        topo = cached_topology(2, 3, 4)
        tree = load_list(topo, SEARCH_LIST, Mode.SEARCH, key=9)
        assert search(tree, 9).found == 1 == oracle_search(SEARCH_LIST, 9)
        assert search(tree, 15).found == 0 == oracle_search(SEARCH_LIST, 15)
        assert search(tree, 0).found == 0 == oracle_search(SEARCH_LIST, 0)


def test_worked_example_max():
    with criterion("worked example: max", budget_s=1.0):
        topo = cached_topology(2, 3, 4)
        tree = load_list(topo, MAX_LIST, Mode.MAX)
        before = words_of(tree)[1:]
        result = compute_max(tree)
        assert result.value == 14
        after = words_of(tree)[1:]
        assert after == before


def test_oracle_equivalence_fuzz():
    with criterion("oracle equivalence fuzz, 10^4 instances per scheme",
                   budget_s=60.0):
        rng = random.Random(0xC0FFEE)
        for _ in range(10_000):
            eta, h, w = random_params(rng)
            topo = cached_topology(eta, h, w)
            els = random_elements(rng, topo.n - 1, w, max_len=16)
            limit = 1 << w

            key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)
            tree = load_list(topo, els, Mode.SEARCH, key=key)
            found = search(tree, key)
            assert found.found == oracle_search(els, key), (els, key)
            assert found.cycles == w + 2 * h + SEARCH_OFFSET

            tree = load_list(topo, els, Mode.MAX)
            top = compute_max(tree)
            assert top.value == oracle_extremum(els, "max", 0), els
            assert top.cycles == (h + w + 1) + EXTREMUM_OFFSET

            tree = load_list(topo, els, Mode.MIN)
            assert compute_min(tree).value == \
                oracle_extremum(els, "min", limit - 1), els

            eta, h, w = random_params(rng, small=True)
            topo = cached_topology(eta, h, w)
            cap = 12 if h <= 4 else (6 if h == 5 else 4)
            els = random_elements(rng, topo.n - 1, w, max_len=cap,
                                  few_distinct=True)
            assert sort(topo, els).output == oracle_sort_desc(els), els


def test_latency_scaling():
    with criterion("latency scaling with frozen accounting constants"):
        # derivation anchors: the worked examples
        topo = cached_topology(2, 3, 4)
        tree = load_list(topo, SEARCH_LIST, Mode.SEARCH, key=9)
        assert search(tree, 9).cycles == 4 + 2 * 3 + SEARCH_OFFSET
        tree = load_list(topo, MAX_LIST, Mode.MAX)
        assert compute_max(tree).cycles == (3 + 4 + 1) + EXTREMUM_OFFSET

        w = 8
        search_cycles = []
        max_cycles = []
        for h in range(2, 11):
            topo = cached_topology(2, h, w)
            tree = load_list(topo, [3, 1, 2], Mode.SEARCH, key=2)
            c = search(tree, 2).cycles
            assert c == w + 2 * h + SEARCH_OFFSET, (h, c)
            search_cycles.append(c)
            tree = load_list(topo, [3, 1, 2], Mode.MAX)
            c = compute_max(tree).cycles
            assert c == (h + w + 1) + EXTREMUM_OFFSET, (h, c)
            max_cycles.append(c)
            tree = load_list(topo, [3, 1, 2], Mode.MIN)
            assert compute_min(tree).cycles == c
        # linear growth in h: constant first differences
        assert {b - a for a, b in zip(search_cycles, search_cycles[1:])} == {2}
        assert {b - a for a, b in zip(max_cycles, max_cycles[1:])} == {1}


def test_sort_round_structure():
    with criterion("sort round structure"):
        rng = random.Random(0xBEEF)
        for _ in range(1_500):
            eta, h, w = random_params(rng, small=True)
            topo = cached_topology(eta, h, w)
            cap = 12 if h <= 4 else 5
            els = random_elements(rng, topo.n - 1, w, max_len=cap,
                                  few_distinct=True)
            result = sort(topo, els)
            assert result.rounds == len(set(els)), els
            bound = 2 * (w + h + 1) + ROUND_OFFSET
            assert all(c <= bound for c in result.per_round_cycles), els
        # all-equal input is the best case: exactly one round
        for value, count in ((7, 4), (0, 3), (15, 9)):
            topo = cached_topology(2, 3, 4)
            result = sort(topo, [value] * count)
            assert result.rounds == 1
            assert result.output == [value] * count


def test_space_claim_arithmetic():
    with criterion("space-claim arithmetic"):
        for eta in range(1, 5):
            for h in range(1, 7):
                for w in (4, 8, 16):
                    params = TreeParams(eta, h, w)
                    n = node_count(eta, h)
                    assert resource_report(params, "search") == 3 * n
                    assert resource_report(params, "sort") == n * (w + eta + 5)
        assert resource_report(TreeParams(2, 3, 4), "search") == 30
        assert resource_report(TreeParams(2, 3, 4), "sort") == 110
        assert resource_report(TreeParams(2, 1, 4), "search") == 3


def _observe_search_monotonicity(topo, els, key):
    w = topo.params.word_size
    cfg = loaded_by_nodes(topo, els, Mode.SEARCH, key)
    prev_match = {n.id: n.flags.match for n in cfg.nodes}
    prev_root_state = None
    for _ in range(w + 2 * topo.params.height):
        step(cfg)
        for n in cfg.nodes[1:]:
            m = n.flags.match
            if n.local_clock <= w:  # still inside the comparison phase
                assert not (prev_match[n.id] == 0 and m == 1), \
                    f"match rose 0->1 at node {n.id}"
            prev_match[n.id] = m
        root = cfg.root
        if root.local_clock > w:  # listen phase
            s = root.flags.state
            if prev_root_state is not None:
                assert not (prev_root_state == 1 and s == 0), "root state fell 1->0"
            prev_root_state = s


def _observe_link_monotonicity(topo, els, mode):
    cfg = loaded_by_nodes(topo, els, mode)
    prev = [(n.flags.link_mem, tuple(n.flags.link_child)) for n in cfg.nodes]
    for _ in range(topo.params.word_size + topo.params.height):
        step(cfg)
        for n, (pm, pc) in zip(cfg.nodes, prev):
            assert n.flags.link_mem >= pm, f"l_m fell at node {n.id}"
            assert all(b >= p for b, p in zip(n.flags.link_child, pc)), \
                f"child link fell at node {n.id}"
        prev = [(n.flags.link_mem, tuple(n.flags.link_child)) for n in cfg.nodes]


def test_monotonicity_invariants():
    with criterion("monotonicity invariants over traced fuzz runs"):
        rng = random.Random(0xFEED)
        for _ in range(500):
            eta, h, w = random_params(rng, small=True)
            topo = cached_topology(eta, h, w)
            els = random_elements(rng, topo.n - 1, w, max_len=12)
            limit = 1 << w
            key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)
            _observe_search_monotonicity(topo, els, key)
            _observe_link_monotonicity(topo, els, rng.choice((Mode.MAX, Mode.MIN)))


def _subtree_nodes(topo, child):
    out = [child]
    frontier = [child]
    while frontier:
        nxt = []
        for u in frontier:
            nxt.extend(topo.children(u))
        out.extend(nxt)
        frontier = nxt
    return out


def test_disabled_subtree_soundness():
    with criterion("disabled-subtree soundness, 10^3 adversarial cases"):
        rng = random.Random(0xD15AB1E)
        for _ in range(1_000):
            eta, h, w = random_params(rng, small=True)
            topo = cached_topology(eta, h, w)
            els = random_elements(rng, topo.n - 1, w, max_len=12)
            mode = rng.choice((Mode.MAX, Mode.MIN))
            limit = 1 << w
            expected = oracle_extremum(
                els, "max" if mode is Mode.MAX else "min",
                0 if mode is Mode.MAX else limit - 1)
            # the adversarial fill is the value that would win if it leaked
            poison = limit - 1 if mode is Mode.MAX else 0
            cfg = loaded_by_nodes(topo, els, mode)
            for _ in range(w + h):
                step(cfg)
                for n in cfg.nodes:
                    for slot, cut in enumerate(n.flags.link_child):
                        if cut:
                            child = topo.children(n.id)[slot]
                            for v in _subtree_nodes(topo, child):
                                value = poison if rng.random() < 0.7 \
                                    else rng.randrange(limit)
                                cfg.nodes[v].word = value
                    if n.id != 0 and n.flags.link_mem:
                        cfg.nodes[n.id].word = poison
            assert cfg.root.word == expected, (els, mode)
