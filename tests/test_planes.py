"""The bit-plane engine against the object engine, cycle by cycle.

The object engine (``engine.step`` over the transition rules of ``node.py``)
is the reference.  Each cycle-by-cycle check loads a configuration for it
and two trees alike, one read into object form and one left in planes,
runs the same scheme on all three, and compares after every cycle the trace
lines the recorder writes from each tree's planes with the object engine's
snapshot, and every ``NodeState`` field of the object-form tree; then the
results and final states of whole runs through the library entry points.
"""

import gc
import random
from functools import partial

import pytest

from cayley_imc import algorithms
from cayley_imc.algorithms import compute_max, compute_min, load_list, search, sort
from cayley_imc.engine import (
    Configuration,
    QuiescenceError,
    _quiescent,
    reset_configuration,
    run_until_quiescent,
    snapshot,
    step,
)
from cayley_imc.node import Mode, make_node
from cayley_imc.oracle import oracle_sort_desc
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


def _lockstep(obj, trees, mode, phase1_only=False) -> int:
    """Run ``mode`` on the object engine over ``obj`` and on the planes of
    each of ``trees`` from the reset state; return the cycles to quiescence.

    After the reset and after every cycle, the recorder's output for each
    tree must equal the object engine's snapshot with its emissions, and a
    tree in object form must hold the object engine's full state.
    """
    reset_configuration(obj, mode, phase1_only=phase1_only)
    outputs = []
    for tree in trees:
        tree.rearm(mode, phase1_only=phase1_only)
        written = []
        record = Recorder(written.append)
        record(tree)
        outputs.append((tree, record, written))
    expected = _text([trace_header(obj)] + [e.to_json() for e in snapshot(obj)])
    cycles = 0
    while True:
        where = (mode, phase1_only, cycles)
        done = _quiescent(obj)
        for tree, _, written in outputs:
            assert written == [expected], where
            written.clear()
            if tree._cfg is not None:
                tree.write_back()
                assert full_state(tree.cfg) == full_state(obj), where
            assert tree.quiescent() == done, where
        if done:
            return cycles
        expected = _text(e.to_json() for e in snapshot(obj, step(obj, capture=True)))
        for tree, record, _ in outputs:
            tree.step()
            record(tree)
        cycles += 1


def _twins(topo, els, mode, key=None):
    """A configuration for the object engine and two trees for the planes
    loaded alike: the first in object form, the second left in planes."""
    trees = [load_list(topo, els, mode, key=key) for _ in range(2)]
    trees[0].cfg  # the first read builds the node objects
    return load_list(topo, els, mode, key=key).cfg, trees


def _disable_some(rng, topo, obj, trees):
    ids = [i for i in range(1, topo.n) if rng.random() < 0.2]
    for i in ids:
        obj.nodes[i].flags.perm_disabled = 1
    for tree in trees:
        tree.disable(ids)


def _forms_kept(trees):
    """The runs left the object-form tree in object form and built no node
    objects for the plane-form one."""
    return [tree._cfg is not None for tree in trees] == [True, False]


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_every_cycle_matches_the_object_engine(eta, h, w):
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)

        obj, trees = _twins(topo, els, Mode.SEARCH, key)
        assert _lockstep(obj, trees, Mode.SEARCH) == w + 2 * h
        # The comparison phase of sorting, on the state the full run left.
        assert _lockstep(obj, trees, Mode.SEARCH, phase1_only=True) == w + h
        assert _forms_kept(trees)

        for mode in (Mode.MAX, Mode.MIN):
            obj, trees = _twins(topo, els, mode)
            _disable_some(rng, topo, obj, trees)
            assert _lockstep(obj, trees, mode) == w + h
            assert _forms_kept(trees)


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_every_sort_round_matches_the_object_engine(eta, h, w):
    topo = cached_topology(eta, h, w)
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:sort")
        els = random_elements(rng, topo.n - 1, w, max_len=12, few_distinct=True)
        mode = rng.choice((Mode.MAX, Mode.MIN))
        obj, trees = _twins(topo, els, mode)
        # As in sort(): padding slots sit out every round.
        for i in range(len(els) + 1, topo.n):
            obj.nodes[i].flags.perm_disabled = 1
        for tree in trees:
            tree.disable(range(len(els) + 1, topo.n))
        live = set(range(1, len(els) + 1))
        output = []
        while live:
            _lockstep(obj, trees, mode)
            value = obj.root.word
            _lockstep(obj, trees, Mode.SEARCH, phase1_only=True)
            matched = [i for i in live if obj.nodes[i].flags.match == 1]
            assert matched
            for i in matched:
                obj.nodes[i].flags.perm_disabled = 1
                live.remove(i)
            for tree in trees:
                tree.disable(matched)
            output += [value] * len(matched)
        assert _forms_kept(trees)
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
        obj = load_list(topo, els, Mode.SEARCH, key=0).cfg
        for _ in range(3):
            key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)
            got = search(pl, key, collect_matches=True)
            assert got == object_search(obj, key, pl.occupied)
            assert full_state(pl.cfg) == full_state(obj)
        for mode, run in ((Mode.MAX, compute_max), (Mode.MIN, compute_min)):
            pl = load_list(topo, els, mode)
            obj = load_list(topo, els, mode).cfg
            pl.cfg  # object form before the first run
            _disable_some(rng, topo, obj, [pl])
            for _ in range(2):
                assert run(pl) == object_extremum(obj, mode)
                assert full_state(pl.cfg) == full_state(obj)


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
    """Runs on trees nobody has read stay in planes; reading ``cfg`` only at
    the end must give the object engine's state, and straight after the
    load the state a node-by-node load gives."""
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:planes")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        for mode in (Mode.SEARCH, Mode.MAX, Mode.MIN):
            key = rng.randrange(limit)
            fresh = load_list(topo, els, mode, key=key)
            assert full_state(fresh.cfg) == full_state(_loaded_by_nodes(topo, els, mode, key))
            tree = load_list(topo, els, mode, key=key)
            twin = load_list(topo, els, mode, key=key).cfg
            for _ in range(rng.randint(3, 5)):
                if mode is Mode.SEARCH:
                    key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)
                    got = search(tree, key, collect_matches=True)
                    assert got == object_search(twin, key, tree.occupied)
                else:
                    run = compute_max if mode is Mode.MAX else compute_min
                    assert run(tree) == object_extremum(twin, mode)
            assert tree._cfg is None, "the runs built node objects"
            assert full_state(tree.cfg) == full_state(twin)


@pytest.mark.parametrize("mode", [Mode.SEARCH, Mode.MAX])
def test_budget_exhaustion_in_plane_form(topo_2_3_4, monkeypatch, mode):
    read, rerun = (load_list(topo_2_3_4, [3, 1, 2], mode, key=0) for _ in range(2))
    twin = load_list(topo_2_3_4, [3, 1, 2], mode, key=0).cfg
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
    assert full_state(read.cfg) == full_state(twin)
    # The next run starts from the words the cut-off run left part rotated.
    assert run(rerun) == run_twin()
    assert rerun._cfg is None
    assert full_state(rerun.cfg) == full_state(twin)


def test_a_held_configuration_stays_live(topo_2_3_4):
    tree = load_list(topo_2_3_4, [3, 1, 2, 7], Mode.SEARCH, key=0)
    search(tree, 3)
    cfg = tree.cfg
    for key in (2, 5):
        found = search(tree, key).found
        assert cfg.root.flags.state == found == (key == 2)
    cfg.nodes[4].word = 5
    assert search(tree, 5, collect_matches=True).matched_nodes == {4}
    assert tree.cfg is cfg


def test_budget_exhaustion_leaves_the_object_engine_state(topo_2_3_4):
    obj, (tree, _) = _twins(topo_2_3_4, [3, 1, 2], Mode.SEARCH, key=2)
    pl = tree.cfg
    reset_configuration(obj, Mode.SEARCH)
    with pytest.raises(QuiescenceError):
        run_until_quiescent(obj, 3)
    with pytest.raises(QuiescenceError):
        tree.run(Mode.SEARCH, 3)
    assert full_state(pl) == full_state(obj)


def test_runs_leave_no_reference_cycles(topo_2_3_4):
    """A finished run is freed by reference counting alone.  A cycle would
    keep the run's planes and node lists alive until the cyclic collector
    ran, and that collection would land inside some later run."""
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
        # Chained runs on trees nobody has read, then a first read of cfg.
        chained = load_list(topo_2_3_4, els, Mode.SEARCH, key=0)
        search(chained, 3)
        search(chained, 5)
        compute_max(load_list(topo_2_3_4, els, Mode.MAX))
        assert chained.cfg.root.word == 5
        assert gc.collect() == 0
    finally:
        gc.enable()
