"""The bit-plane engine against the object engine, cycle by cycle.

The object engine (``engine.step`` over the transition rules of ``node.py``)
is the reference.  Each cycle-by-cycle check loads a configuration for it
and a tree alike, runs the same scheme on both, and compares after every
cycle the trace lines the recorder writes from the tree's planes with the
object engine's snapshot, and every ``NodeState`` field of a copy of the
tree's configuration with the object engine's; then the results and final
states of whole runs through the library entry points.
"""

import gc
import random
from functools import partial

import pytest

from cayley_imc import algorithms
from cayley_imc.algorithms import compute_max, compute_min, load_list, search, sort
from cayley_imc.engine import (
    Configuration,
    ProtocolError,
    QuiescenceError,
    _quiescent,
    default_cycle_budget,
    reset_configuration,
    run_until_quiescent,
    snapshot,
    step,
)
from cayley_imc.node import Mode, make_node
from cayley_imc.oracle import oracle_search, oracle_sort_desc
from cayley_imc.planes import _schedule
from cayley_imc.tracefile import Recorder, trace_header

from conftest import (cached_topology, full_state, object_extremum, object_search,
                      random_elements)

# The seeds of the acceptance fuzz tests.
SEEDS = (0xC0FFEE, 0xBEEF, 0xFEED, 0xD15AB1E)
SHAPES = ([(eta, h, w) for eta in (1, 2, 3) for h in range(2, 7) for w in (4, 8)]
          # The recorder's emission rules turn on w: narrow words too.
          + [(eta, h, w) for eta in (1, 2, 3) for h in (2, 4) for w in (1, 2)])


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _lockstep(obj, tree, mode, phase1_only=False) -> int:
    """Run ``mode`` on the planes of ``tree`` and, one step per observed
    cycle, on the object engine over ``obj``, both from the reset state;
    return the cycles of the tree's run.

    After the reset and after every cycle, the recorder's output for the
    tree must equal the object engine's snapshot with its emissions, and a
    copy of the tree's configuration the object engine's full state.  The
    object engine must first be quiescent after the run's last cycle.
    """
    reset_configuration(obj, mode, phase1_only=phase1_only)
    written, quiet = [], []
    record = Recorder(written.append)

    def compare(t):
        if t.cycle:
            expected = _text(e.to_json() for e in snapshot(obj, step(obj, capture=True)))
        else:
            expected = _text([trace_header(obj)] + [e.to_json() for e in snapshot(obj)])
        record(t)
        where = (mode, phase1_only, t.cycle)
        assert written == [expected], where
        written.clear()
        assert full_state(t.configuration()) == full_state(obj), where
        quiet.append(_quiescent(obj))

    cycles = tree.run(mode, default_cycle_budget(tree.topo), phase1_only=phase1_only,
                      on_step=compare)
    assert quiet.index(True) == cycles == len(quiet) - 1
    return cycles


def _twins(topo, els, mode, key=None):
    """A configuration for the object engine and a tree for the planes,
    loaded alike."""
    return load_list(topo, els, mode, key=key).configuration(), load_list(topo, els, mode, key=key)


def _disable_some(rng, topo, obj, tree):
    ids = [i for i in range(1, topo.n) if rng.random() < 0.2]
    for i in ids:
        obj.nodes[i].flags.perm_disabled = 1
    tree.disable(ids)


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_every_cycle_matches_the_object_engine(eta, h, w):
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)

        obj, tree = _twins(topo, els, Mode.SEARCH, key)
        assert _lockstep(obj, tree, Mode.SEARCH) == w + 2 * h
        # The comparison phase of sorting, on the state the full run left.
        assert _lockstep(obj, tree, Mode.SEARCH, phase1_only=True) == w + h

        for mode in (Mode.MAX, Mode.MIN):
            obj, tree = _twins(topo, els, mode)
            _disable_some(rng, topo, obj, tree)
            assert _lockstep(obj, tree, mode) == w + h


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_every_sort_round_matches_the_object_engine(eta, h, w):
    topo = cached_topology(eta, h, w)
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:sort")
        els = random_elements(rng, topo.n - 1, w, max_len=12, few_distinct=True)
        mode = rng.choice((Mode.MAX, Mode.MIN))
        obj, tree = _twins(topo, els, mode)
        # As in sort(): padding slots sit out every round.
        for i in range(len(els) + 1, topo.n):
            obj.nodes[i].flags.perm_disabled = 1
        tree.disable(range(len(els) + 1, topo.n))
        live = set(range(1, len(els) + 1))
        output = []
        while live:
            _lockstep(obj, tree, mode)
            value = obj.root.word
            _lockstep(obj, tree, Mode.SEARCH, phase1_only=True)
            matched = [i for i in live if obj.nodes[i].flags.match == 1]
            assert matched
            for i in matched:
                obj.nodes[i].flags.perm_disabled = 1
                live.remove(i)
            tree.disable(matched)
            output += [value] * len(matched)
        expected = oracle_sort_desc(els)
        assert output == (expected if mode is Mode.MAX else expected[::-1])


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_whole_runs_match_through_the_entry_points(eta, h, w):
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:runs")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        pl = load_list(topo, els, Mode.SEARCH, key=0)
        obj = load_list(topo, els, Mode.SEARCH, key=0).configuration()
        for _ in range(3):
            key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)
            got = search(pl, key, collect_matches=True)
            assert got == object_search(obj, key, pl.occupied)
            assert full_state(pl.configuration()) == full_state(obj)
        for mode, run in ((Mode.MAX, compute_max), (Mode.MIN, compute_min)):
            pl = load_list(topo, els, mode)
            obj = load_list(topo, els, mode).configuration()
            _disable_some(rng, topo, obj, pl)
            for _ in range(2):
                assert run(pl) == object_extremum(obj, mode)
                assert full_state(pl.configuration()) == full_state(obj)


def _loaded_by_nodes(topo, els, mode, key=None):
    """The state a load held when it built node objects: padding words,
    perm_disabled on search padding, then the reset for ``mode``."""
    pad = (1 << topo.params.word_size) - 1 if mode is Mode.MIN else 0
    words = [key if mode is Mode.SEARCH else pad, *els] + [pad] * (topo.n - 1 - len(els))
    cfg = Configuration(topo=topo, nodes=[make_node(topo, i, v) for i, v in enumerate(words)])
    if mode is Mode.SEARCH:
        for nd in cfg.nodes[len(els) + 1:]:
            nd.flags.perm_disabled = 1
    return reset_configuration(cfg, mode)


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_plane_form_trees_match_the_object_engine(eta, h, w):
    """Straight after the load, a copy must hold the state a node-by-node
    load gives.  Runs on loaded trees are checked through the entry points
    above."""
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:planes")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        for mode in (Mode.SEARCH, Mode.MAX, Mode.MIN):
            key = rng.randrange(limit)
            fresh = load_list(topo, els, mode, key=key)
            assert full_state(fresh.configuration()) == full_state(_loaded_by_nodes(topo, els, mode, key))


@pytest.mark.parametrize("mode", [Mode.SEARCH, Mode.MAX])
def test_budget_exhaustion_in_plane_form(topo_2_3_4, monkeypatch, mode):
    read, rerun = (load_list(topo_2_3_4, [3, 1, 2], mode, key=0) for _ in range(2))
    twin = load_list(topo_2_3_4, [3, 1, 2], mode, key=0).configuration()
    if mode is Mode.SEARCH:
        run, run_twin = partial(search, key=2), partial(object_search, twin, 2, ())
    else:
        run, run_twin = compute_max, partial(object_extremum, twin, mode)
    with monkeypatch.context() as m:
        m.setattr(algorithms, "default_cycle_budget", lambda topo: 3)
        for tree in (read, rerun):
            with pytest.raises(QuiescenceError):
                run(tree)
    with pytest.raises(QuiescenceError):
        run_twin(budget=3)
    assert full_state(read.configuration()) == full_state(twin)
    # The next run starts from the words the cut-off run left part rotated.
    assert run(rerun) == run_twin()
    assert full_state(rerun.configuration()) == full_state(twin)


def test_configuration_is_a_copy(topo_2_3_4):
    tree = load_list(topo_2_3_4, [3, 1, 2, 7], Mode.SEARCH, key=0)
    search(tree, 3)
    held, again = tree.configuration(), tree.configuration()
    assert held is not again and full_state(held) == full_state(again)
    assert not {id(nd) for nd in held.nodes} & {id(nd) for nd in again.nodes}
    kept = full_state(again)
    held.nodes[4].word = 5  # would make node 4 match key 5
    held.nodes[1].flags.perm_disabled = 1  # would retire node 1, which holds 3
    got = search(tree, 5, collect_matches=True)
    assert (got.found, got.matched_nodes) == (0, frozenset())
    assert search(tree, 3, collect_matches=True).matched_nodes == {1}
    assert full_state(again) == kept  # runs leave a copy alone
    later = tree.configuration()
    assert later.nodes[4].word == 7 and later.nodes[1].flags.perm_disabled == 0


def test_budget_exhaustion_leaves_the_object_engine_state(topo_2_3_4):
    obj, tree = _twins(topo_2_3_4, [3, 1, 2], Mode.SEARCH, key=2)
    reset_configuration(obj, Mode.SEARCH)
    with pytest.raises(QuiescenceError):
        run_until_quiescent(obj, 3)
    with pytest.raises(QuiescenceError):
        tree.run(Mode.SEARCH, 3)
    assert full_state(tree.configuration()) == full_state(obj)


def test_search_refuses_a_tree_that_has_not_drained(topo_2_3_4):
    """A match bit left at a leaf once a full search is quiescent is a
    protocol error, and the next search on the tree starts clean."""
    els = [3, 1, 2, 7, 3]
    tree = load_list(topo_2_3_4, els, Mode.SEARCH, key=0)

    def stray_match(t):
        if t.cycle == 4 + 2 * 3:  # w + 2h, the run's last cycle
            t.levels[-1].match |= 1

    with pytest.raises(ProtocolError, match="node 4 has not drained"):
        search(tree, 3, on_step=stray_match)
    for key in (3, 5):
        got = search(tree, key, collect_matches=True)
        assert got.found == oracle_search(els, key)
        assert got.matched_nodes == {i for i, x in enumerate(els, 1) if x == key}


def test_runs_leave_no_reference_cycles(topo_2_3_4):
    """A finished run is freed by reference counting alone.  A cycle would
    keep the run's planes alive until the cyclic collector ran, and that
    collection would land inside some later run."""
    els = [3, 1, 2, 3, 0]
    gc.collect()
    gc.disable()
    try:
        tree = load_list(topo_2_3_4, els, Mode.SEARCH, key=0)
        search(tree, 3)
        search(tree, 5)
        compute_max(load_list(topo_2_3_4, els, Mode.MAX))
        compute_min(load_list(topo_2_3_4, els, Mode.MIN))
        sort(topo_2_3_4, els)
        # Chained runs with no copy between them, then a copy.
        chained = load_list(topo_2_3_4, els, Mode.SEARCH, key=0)
        search(chained, 3)
        search(chained, 5)
        compute_max(load_list(topo_2_3_4, els, Mode.MAX))
        assert chained.configuration().root.word == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_schedule_length_is_the_cycle_formula():
    """A shape's schedule has one entry per cycle of its run."""
    for h in range(1, 13):
        for w in range(1, 17):
            assert len(_schedule(True, h, w, False)) == w + 2 * h
            assert len(_schedule(True, h, w, True)) == w + h
            tournament = _schedule(False, h, w, False)
            # A tournament on a lone root has no leaves to start it.
            assert tournament is None if h == 1 else len(tournament) == w + h


def test_a_deep_cycle_has_as_few_ranges_as_a_shallow_one():
    """The key bits, the relay and the tournament move as wavefronts, so a
    cycle of an eta=1 tree of height 2000 needs no more depth ranges than a
    cycle at height 16, and its ranges are in depth order.  (From height
    w + 5 on, a search cycle can hold all six of its operations at once.)"""
    for search, phase1_only in ((True, False), (True, True), (False, False)):
        shallow = max(map(len, _schedule(search, 16, 8, phase1_only)))
        deep = _schedule(search, 2000, 8, phase1_only)
        assert max(map(len, deep)) == shallow <= 6
        for ranges in deep:
            bounds = [d for _, lo, hi in ranges for d in (lo, hi)]
            assert bounds == sorted(bounds) and 0 <= min(bounds, default=0)
            assert max(bounds, default=0) <= 2000


def test_sort_refuses_a_round_that_retires_nothing(topo_2_3_4):
    """The live set is the enabled nodes below the root, as planes.  A round
    whose comparison phase leaves no match set is a protocol error naming
    the round's value and the live node ids."""
    comparisons = []

    def clear_matches(t):
        if t.phase1_only and t.cycle == 4 + 3:  # w + h, the comparison's last cycle
            comparisons.append(t.cycle)
            if len(comparisons) == 2:
                for lv in t.levels:
                    lv.match = 0

    # The first round retires 7 at node 4; the second finds the 3s cleared.
    with pytest.raises(ProtocolError, match=r"no node holding 3; live set \[1, 2, 3, 5\]$"):
        sort(topo_2_3_4, [3, 1, 2, 7, 3], on_step=clear_matches)
