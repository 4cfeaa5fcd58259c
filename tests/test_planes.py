"""The bit-plane engine against the object engine, cycle by cycle.

The object engine (``engine.step`` over the transition rules of ``node.py``)
is the reference.  Each cycle-by-cycle check loads a configuration for it
and a tree alike, runs the same scheme on both, and compares after every
cycle the trace lines the recorder writes from the tree's planes with the
object engine's snapshot, and the tree's planes and per-level control with
the object engine's nodes packed into planes level by level; then the
results and final planes of whole runs through the library entry points.
"""

import gc
import random
import sys
import tracemalloc
from functools import partial

import pytest

from cayley_imc.algorithms import (compute_max, compute_min, load_list, resource_report,
                                   search, sort)
from cayley_imc.engine import (
    ProtocolError,
    QuiescenceError,
    _quiescent,
    _validate_quiescent,
    default_cycle_budget,
    reset_configuration,
    run_until_quiescent,
    snapshot,
    step,
)
from cayley_imc.node import Mode
from cayley_imc.oracle import oracle_search, oracle_sort_desc
from cayley_imc.planes import (_COMBINE, _DRAIN, _FIRST, _INITIATE, _LEAF, _LISTEN, _RELAY,
                               _ROOT, _SEND, LoadedTree, _schedule)
from cayley_imc.topology import TreeParams
from cayley_imc.tracefile import Recorder, trace_header

from conftest import (cached_topology, data_planes, disable, loaded_by_nodes, object_extremum,
                      object_search, random_elements, spec_planes, words_of)

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
    tree must equal the object engine's snapshot with its emissions (every
    bit it latches in an inbox), and each level of the tree its nodes in
    the object engine: the data planes, and the clock and ``start`` that
    every node of the level holds, and at the root the rotation that is its
    count of writes.  The object engine must first be quiescent after the
    run's last cycle, so the root's listen count is checked in search.
    """
    reset_configuration(obj, mode, phase1_only=phase1_only)
    written, quiet = [], []
    record = Recorder(written.append)
    layout = obj.topo.layout()

    def compare(t):
        if t.cycle:
            expected = _text(e.to_json() for e in snapshot(obj, step(obj, capture=True)))
        else:
            expected = _text([trace_header(obj)] + [e.to_json() for e in snapshot(obj)])
        record(t)
        where = (mode, phase1_only, t.cycle)
        assert written == [expected], where
        written.clear()
        for d, (lv, ids, planes, spec) in enumerate(
                zip(t.levels, layout, data_planes(t), spec_planes(obj))):
            assert planes == spec, (where, d)
            held = {(obj.nodes[i].local_clock, obj.nodes[i].flags.start) for i in ids}
            assert held == {(lv.clock, lv.start)}, (where, d)
        assert t.levels[0].rot == obj.root.writes, where
        quiet.append(_quiescent(obj))

    cycles = tree.run(mode, phase1_only=phase1_only, on_step=compare)
    assert quiet.index(True) == cycles == len(quiet) - 1
    return cycles


class _Abort(Exception):
    """Raised by an observer to stop a run part way."""


def _stop_at(cycle):
    """An observer of a tree's run that aborts it after ``cycle`` cycles."""
    def stop(t):
        if t.cycle == cycle:
            raise _Abort
    return stop


def _object_stop_at(cycle):
    """An observer of the object engine that aborts its run after ``cycle``
    cycles (``cycle`` >= 1: it first sees the state after one)."""
    def stop(cfg, emissions):
        if cfg.global_cycle == cycle:
            raise _Abort
    return stop


def _twins(topo, els, mode, key=None):
    """A configuration for the object engine and a tree for the planes,
    loaded alike."""
    return loaded_by_nodes(topo, els, mode, key), load_list(topo, els, mode, key=key)


def _disable_some(rng, topo, obj, tree):
    ids = [i for i in range(1, topo.n) if rng.random() < 0.2]
    for i in ids:
        obj.nodes[i].flags.perm_disabled = 1
    disable(tree, ids)


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_every_cycle_matches_the_object_engine(eta, h, w):
    _every_cycle(eta, h, w, SEEDS)


# Words in the recorder's 16-, 32- and 64-bit fields, and fan-outs past the
# four children of one hex digit.
@pytest.mark.parametrize("eta,h,w", [(eta, h, w) for w in (9, 16, 17, 33, 64)
                                     for eta in (1, 2, 3) for h in (2, 3)]
                         + [(eta, h, 4) for eta in (5, 9) for h in (2, 3)])
def test_wide_words_and_fanouts_match_the_object_engine(eta, h, w):
    _every_cycle(eta, h, w, SEEDS[:2])


def _every_cycle(eta, h, w, seeds):
    """Every cycle of a search, its comparison phase alone, a max and a min
    on random lists, in lockstep with the object engine."""
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in seeds:
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
        disable(tree, range(len(els) + 1, topo.n))
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
            disable(tree, matched)
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
        obj, pl = _twins(topo, els, Mode.SEARCH, 0)
        for _ in range(3):
            key = rng.choice(els) if els and rng.random() < 0.5 else rng.randrange(limit)
            got = search(pl, key, collect_matches=True)
            assert got == object_search(obj, key, pl.occupied)
            assert data_planes(pl) == spec_planes(obj)
        for mode, run in ((Mode.MAX, compute_max), (Mode.MIN, compute_min)):
            obj, pl = _twins(topo, els, mode)
            _disable_some(rng, topo, obj, pl)
            for _ in range(2):
                assert run(pl) == object_extremum(obj, mode)
                assert data_planes(pl) == spec_planes(obj)


@pytest.mark.parametrize("mode", [Mode.SEARCH, Mode.MAX, Mode.MIN])
def test_a_lone_root_matches_the_object_engine(mode):
    """A height-1 tree (only a replayed trace builds one) is its root.  A
    search takes w + 2 cycles, every one matching the object engine.  A
    tournament has no leaves to start it, so the object engine's budget
    runs out; the tree refuses it before its first cycle, with the same
    message."""
    topo = cached_topology(2, 1, 4)
    tree = LoadedTree.load(topo, mode, 5, [], 0, bytes(1))
    obj = loaded_by_nodes(topo, [], mode, 5, pad=5)
    if mode is Mode.SEARCH:
        assert _lockstep(obj, tree, mode) == 4 + 2
        return
    reset_configuration(obj, mode)
    with pytest.raises(QuiescenceError) as spec:
        run_until_quiescent(obj, default_cycle_budget(topo))
    seen = []
    with pytest.raises(QuiescenceError) as planes:
        tree.run(mode, on_step=seen.append)
    assert str(planes.value) == str(spec.value)
    assert str(spec.value) == f"{mode.value} run not quiescent after 32 cycles (eta=2, h=1, w=4)"
    assert seen == []


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_plane_form_trees_match_the_object_engine(eta, h, w):
    """Straight after the load, the planes must hold the state a
    node-by-node load gives.  Runs on loaded trees are checked through the
    entry points above."""
    topo = cached_topology(eta, h, w)
    limit = 1 << w
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:planes")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        for mode in (Mode.SEARCH, Mode.MAX, Mode.MIN):
            key = rng.randrange(limit)
            fresh = load_list(topo, els, mode, key=key)
            assert data_planes(fresh) == spec_planes(loaded_by_nodes(topo, els, mode, key))


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_a_fresh_load_is_in_its_modes_reset_state(eta, h, w):
    """``LoadedTree.load`` alone, as the trace rebuild calls it, leaves the
    tree in its mode's reset state before any run: with no node disabled,
    with the padding disabled, and with any nodes disabled, the root among
    them."""
    topo = cached_topology(eta, h, w)
    rng = random.Random(f"{eta}:{h}:{w}:fresh")
    for mode in (Mode.SEARCH, Mode.MAX, Mode.MIN):
        for flags in ("none", "padding", "any"):
            els = random_elements(rng, topo.n - 1, w, max_len=16)
            root, pad = rng.randrange(1 << w), rng.randrange(1 << w)
            perm = {"none": bytes(topo.n),
                    "padding": bytes(len(els) + 1) + b"\1" * (topo.n - 1 - len(els)),
                    "any": bytes(rng.random() < 0.3 for _ in range(topo.n))}[flags]
            tree = LoadedTree.load(topo, mode, root, els, pad, perm)
            expected = loaded_by_nodes(topo, els, mode, root if mode is Mode.SEARCH else None,
                                       pad=pad, perm=perm)
            if mode is not Mode.SEARCH:
                expected.root.word = root
            assert data_planes(tree) == spec_planes(expected)


_WIDTHS = (1, 7, 8, 9, 16, 17, 32, 33, 63, 64)


@pytest.mark.parametrize("w", _WIDTHS)
def test_word_planes_round_trip_every_word(w):
    """The packing, from one byte lane or from wider ones, keeps every bit
    of every word, at both ends of the range."""
    topo = cached_topology(2, 4, w)
    rng = random.Random(f"{w}:pack")
    els = [0, (1 << w) - 1, 1, 1 << (w - 1)] + [rng.getrandbits(w) for _ in range(topo.n - 5)]
    tree = load_list(topo, els, Mode.MAX)
    assert words_of(tree) == [0, *els]


# Every height up to 12 that keeps a tree under about 1,600 nodes (height 1 is
# the lone root), and an eta = 1 tree with more levels than a memoryview has
# axes if its size-1 axes were kept.
_LOAD_SHAPES = [(eta, h) for eta, top in ((1, 12), (2, 10), (3, 7), (9, 4))
                for h in range(1, top + 1)] + [(1, 80)]


@pytest.mark.parametrize("eta,h", _LOAD_SHAPES)
def test_a_fresh_load_puts_each_bit_where_locate_says(eta, h):
    """Straight from ``LoadedTree.load``, with (d, p) = ``topo.locate(i)``,
    bit j of node i's word is bit p of level d's plane for bit j (planes
    MSB first), and node i's ``perm_disabled`` flag is bit p of that
    level's perm plane; no plane has a bit at or past its level's size.
    Every width, with random words, root and padding, and no, some or all
    nodes disabled."""
    for w in _WIDTHS:
        topo = cached_topology(eta, h, w)
        rng = random.Random(f"{eta}:{h}:{w}:locate")
        els = [rng.getrandbits(w) for _ in range(rng.randrange(topo.n))]
        root, pad = rng.getrandbits(w), rng.getrandbits(w)
        share = rng.choice((0, 0.3, 1))
        perm = bytes(rng.random() < share for _ in range(topo.n))
        tree = LoadedTree.load(topo, Mode.MAX, root, els, pad, perm)
        words = [root, *els] + [pad] * (topo.n - 1 - len(els))
        for i, (word, flag) in enumerate(zip(words, perm)):
            d, p = topo.locate(i)
            lv = tree.levels[d]
            assert [plane >> p & 1 for plane in lv.words] == \
                [word >> j & 1 for j in range(w - 1, -1, -1)], (w, i)
            assert lv.perm >> p & 1 == flag, (w, i)
        for lv in tree.levels:
            assert all(plane >> lv.n == 0 for plane in (*lv.words, lv.perm)), w


@pytest.mark.parametrize("w", _WIDTHS)
def test_a_bad_element_is_named_first_in_list_order(w):
    """Elements are checked by the packing; a bad one gives the one-line
    error naming the first offender in list order, not in tree order."""
    topo = cached_topology(2, 4, w)
    lane = 1 << 8 * ((w + 7) // 8)  # past the bytes that hold w bits
    bad = [-1, 1 << w, -(1 << w), lane] + ([(1 << w) + 1] if lane > 1 << w else [])
    for x in bad:
        top = (1 << w) - 1
        for els in ([x], [1, 0, x, 1], [top, 1, x, lane - 1, -2], [0] * 15 + [x]):
            for mode in (Mode.SEARCH, Mode.MAX, Mode.MIN):
                with pytest.raises(ValueError) as info:
                    load_list(topo, els, mode, key=0)
                assert str(info.value) == f"element {x} out of range [0, 2^{w})", els


@pytest.mark.parametrize("call,message", [
    # Without the slot check the surplus would be dropped: the max of
    # [1, 2, 3, 9, 9] would read 3, and a search for 9 would miss.
    (lambda: load_list(cached_topology(2, 2, 4), [1, 2, 3, 9, 9], Mode.MAX),
     "5 elements exceed the 3 non-root slots"),
    (lambda: load_list(cached_topology(2, 1, 4), [], Mode.MAX), "height-1 trees have no data slots"),
    (lambda: load_list(cached_topology(2, 2, 4), [1], Mode.IDLE), "cannot load a tree for mode"),
    (lambda: load_list(cached_topology(2, 2, 4), [1], Mode.SEARCH, key=16),
     r"key 16 out of range \[0, 2\^4\)"),
    (lambda: load_list(cached_topology(2, 2, 4), [1], Mode.MAX).run(Mode.IDLE),
     "cannot reset a node into idle mode"),
    (lambda: resource_report(TreeParams(2, 2, 4), "x"), "unknown scheme 'x'"),
], ids=["surplus", "height-1", "idle-load", "key-range", "idle-run", "scheme"])
def test_bad_loads_and_runs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("mode", [Mode.SEARCH, Mode.MAX, Mode.MIN])
def test_an_aborted_run_in_plane_form(topo_2_3_4, mode):
    """An observer that raises stops a run through the entry points after
    any of its cycles.  The tree is left as the object engine is left by the
    same abort, and the next run, which starts from the words an aborted
    tournament left part rotated, gives the same result and state."""
    els = [3, 1, 2, 7, 12, 5]
    length = len(_schedule(mode is Mode.SEARCH, 3, 4, False, 2))
    for cycle in range(1, length + 1):
        twin, tree = _twins(topo_2_3_4, els, mode, 0)
        if mode is Mode.SEARCH:
            run, run_twin = partial(search, key=2), partial(object_search, twin, 2, ())
        else:
            run = compute_max if mode is Mode.MAX else compute_min
            run_twin = partial(object_extremum, twin, mode)
        with pytest.raises(_Abort):
            run(tree, on_step=_stop_at(cycle))
        with pytest.raises(_Abort):
            run_twin(on_step=_object_stop_at(cycle))
        assert data_planes(tree) == spec_planes(twin), cycle
        assert run(tree) == run_twin(), cycle
        assert data_planes(tree) == spec_planes(twin), cycle


def test_an_aborted_run_leaves_the_object_engine_state(topo_2_3_4):
    """``LoadedTree.run`` stopped by its observer after any cycle of any
    mode, the comparison phase of sorting included, leaves the state the
    object engine holds when the same observer stops it."""
    els = [3, 1, 2, 7, 12, 5]
    for mode, phase1_only in ((Mode.SEARCH, False), (Mode.SEARCH, True), (Mode.MAX, False),
                              (Mode.MIN, False)):
        length = len(_schedule(mode is Mode.SEARCH, 3, 4, phase1_only, 2))
        for cycle in range(1, length + 1):
            obj, tree = _twins(topo_2_3_4, els, mode, key=2)
            reset_configuration(obj, mode, phase1_only=phase1_only)
            with pytest.raises(_Abort):
                run_until_quiescent(obj, default_cycle_budget(topo_2_3_4), _object_stop_at(cycle))
            with pytest.raises(_Abort):
                tree.run(mode, phase1_only=phase1_only, on_step=_stop_at(cycle))
            assert data_planes(tree) == spec_planes(obj), (mode, phase1_only, cycle)


def _unobserved_and_observed(pair, mode, stop=None, phase1_only=False):
    """The data planes of ``pair[0]`` after a run, unobserved or aborted
    after cycle ``stop`` by an observer that reads nothing, and those an
    observer reads off ``pair[1]`` on the last cycle of the same run."""
    h, w = len(pair[0].levels), pair[0].w
    last = len(_schedule(mode is Mode.SEARCH, h, w, phase1_only, h - 1)) if stop is None else stop
    seen = []

    def observe(t):
        if t.cycle == last:
            seen.append(data_planes(t))
            if stop is not None:
                raise _Abort

    for tree, on_step in ((pair[0], None if stop is None else _stop_at(stop)),
                          (pair[1], observe)):
        try:
            tree.run(mode, phase1_only=phase1_only, on_step=on_step)
        except _Abort:
            pass
    return data_planes(pair[0]), seen.pop()


@pytest.mark.parametrize("eta,h,w", SHAPES)
def test_derived_control_equals_the_observed_control(eta, h, w):
    """An unobserved run derives no control values, the words' rotation
    among them.  Whether the run finishes or its observer aborts it, the
    planes after it, words as they stand included, must equal those an
    observer reads on its last cycle, and chained runs must start from the
    same state."""
    topo = cached_topology(eta, h, w)
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{eta}:{h}:{w}:derived")
        els = random_elements(rng, topo.n - 1, w, max_len=16)
        cut = rng.randrange(w + h)  # short of every run, rotation included
        key = rng.randrange(1 << w)
        pair = [load_list(topo, els, Mode.SEARCH, key=key) for _ in range(2)]
        for stop, phase1_only in ((None, False), (None, True), (cut, False), (cut, True),
                                  (None, False)):
            quiet, watched = _unobserved_and_observed(pair, Mode.SEARCH, stop, phase1_only)
            assert quiet == watched, (stop, phase1_only)
        for mode in (Mode.MAX, Mode.MIN):
            pair = [load_list(topo, els, mode) for _ in range(2)]
            ids = [i for i in range(1, topo.n) if rng.random() < 0.2]
            for tree in pair:
                disable(tree, ids)
            for stop in (None, cut, None):
                quiet, watched = _unobserved_and_observed(pair, mode, stop)
                assert quiet == watched, (mode, stop)


@pytest.mark.parametrize("eta,h,w", [(2, 3, 4), (1, 5, 8), (3, 2, 2)])
def test_root_word_reads_the_rotated_planes(eta, h, w):
    """``root_word`` folds the root's one-bit word planes at the root's
    rotation into the object engine's root word: after every cycle of an
    observed tournament, after a finished unobserved one, and after one its
    observer aborted part way through its writes."""
    topo = cached_topology(eta, h, w)
    els = random_elements(random.Random(f"{eta}:{h}:{w}:root"), topo.n - 1, w, max_len=16)
    for mode, run in ((Mode.MAX, compute_max), (Mode.MIN, compute_min)):
        seen = []
        obj, tree = _twins(topo, els, mode)

        def check(t):
            if t.cycle:
                step(obj)
            assert t.root_word == obj.root.word, (mode, t.cycle)
            seen.append(t.cycle)

        run(tree, on_step=check)
        assert seen == list(range(w + h + 1))
        run(tree)
        object_extremum(obj, mode)
        assert tree.root_word == obj.root.word, mode
        for cycle in range(w + h):
            with pytest.raises(_Abort):
                tree.run(mode, on_step=_stop_at(cycle))
            reset_configuration(obj, mode)
            for _ in range(cycle):
                step(obj)
            assert tree.root_word == obj.root.word, (mode, cycle)


def test_search_refuses_a_tree_that_has_not_drained(topo_2_3_4, monkeypatch):
    """A state or match bit left at a leaf once a full search is quiescent
    is a protocol error naming the lowest such node id, as the object
    engine's drain check does on the same bits; the next search on the
    tree starts clean.  A search reads no id layout: not to drain, not to
    name the node and not to collect its matches."""
    els = [3, 1, 2, 7, 3]
    obj, tree = _twins(topo_2_3_4, els, Mode.SEARCH, 0)
    object_search(obj, 3, ())
    leaves = topo_2_3_4.layout()[-1]
    monkeypatch.setattr(type(topo_2_3_4), "layout", None)
    assert search(tree, 3).found == 1
    # Leaf positions 0..3 hold nodes 4, 6, 8 and 5: position order and id
    # order differ at positions 1 and 3.
    for state, match, node in ((0, 0b1010, 5), (0b1000, 0b10, 5), (0b10, 0, 6),
                               (1, 0b1000, 4)):
        expected = []

        def stray_bits(t):
            if t.cycle == 4 + 2 * 3:  # w + 2h, the run's last cycle
                t.levels[-1].state |= state
                t.levels[-1].match |= match
                for p, i in enumerate(leaves):  # the same bits in the drained object engine
                    f = obj.nodes[i].flags
                    f.state, f.match = state >> p & 1, match >> p & 1
                with pytest.raises(ProtocolError) as spec:
                    _validate_quiescent(obj)
                expected.append(str(spec.value))

        with pytest.raises(ProtocolError) as info:
            search(tree, 3, on_step=stray_bits)
        assert str(info.value) == expected.pop()
        assert f"node {node} has not drained" in str(info.value)
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
        # Chained runs with nothing read between them, then a read.
        chained = load_list(topo_2_3_4, els, Mode.SEARCH, key=0)
        search(chained, 3)
        search(chained, 5)
        compute_max(load_list(topo_2_3_4, els, Mode.MAX))
        assert chained.root_word == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_schedule_length_is_the_cycle_formula():
    """A shape's schedule has one entry per cycle of its run."""
    for h in range(1, 13):
        for w in range(1, 17):
            assert len(_schedule(True, h, w, False, h - 1)) == w + 2 * h
            assert len(_schedule(True, h, w, True, h - 1)) == w + h
            tournament = _schedule(False, h, w, False, h - 1)
            # A tournament on a lone root has no leaves to start it.
            assert tournament is None if h == 1 else len(tournament) == w + h


def test_a_deep_cycle_has_as_few_ranges_as_a_shallow_one():
    """The key bits, the relay and the tournament move as wavefronts, so a
    cycle of an eta=1 tree of height 2000 needs no more ``(op, depths)``
    entries than a cycle at height 16, and its entries are in depth order.
    (From height w + 5 on, a search cycle can hold all six of its
    operations at once.)"""
    for search, phase1_only in ((True, False), (True, True), (False, False)):
        shallow = max(map(len, _schedule(search, 16, 8, phase1_only, 15)))
        deep = _schedule(search, 2000, 8, phase1_only, 1999)
        assert max(map(len, deep)) == shallow <= 6
        for entries in deep:
            bounds = [d for _, depths in entries for d in (depths.start, depths.stop)]
            assert bounds == sorted(bounds) and 0 <= min(bounds, default=0)
            assert max(bounds, default=0) <= 2000


def test_single_depth_ops_cover_one_depth_and_combine_skips_the_root():
    """The run loop reads only the first depth of SEND, LISTEN, INITIATE,
    FIRST, DRAIN, LEAF and the root's tournament step, so each covers
    exactly one depth: the root for SEND, LISTEN and ROOT, the leaves for
    LEAF.  COMBINE, which reads a word plane of its own level, never covers
    the root, and no entry is empty."""
    single = {_SEND, _LISTEN, _INITIATE, _FIRST, _DRAIN, _LEAF, _ROOT}
    for h in range(1, 13):
        for w in range(1, 10):
            shapes = [(True, True, h - 1), (False, False, h - 1)]
            shapes += [(True, False, deepest) for deepest in range(h)]
            for search, phase1_only, deepest in shapes:
                for entries in _schedule(search, h, w, phase1_only, deepest) or ():
                    for op, depths in entries:
                        assert len(depths) == 1 if op in single else len(depths) >= 1
                        assert op != _COMBINE or depths.start >= 1
                        if op in (_SEND, _LISTEN, _ROOT):
                            assert depths == range(1)
                        elif op == _LEAF:
                            assert depths == range(h - 1, h)


def test_a_sparse_deep_search_relays_only_above_its_deepest_element(monkeypatch):
    """A search's reset clears the match of every disabled node, so below
    the deepest level that holds an enabled node only 0 can rise, and the
    run relays only above it.  On an eta=1 tree of height 2000 holding
    three elements, the run's relay covers at most one depth per cycle,
    not O(h) of them, and every key gets the answer and the matches of a
    scan."""
    h, w, els = 2000, 8, [1, 2, 3]  # node 3 is at depth 2
    tree = load_list(cached_topology(1, h, w), els, Mode.SEARCH, key=0)
    built, build = [], _schedule.__wrapped__

    def spy(*shape):  # the run builds a schedule this long afresh, uncached
        built.append(build(*shape))
        return built[-1]

    monkeypatch.setattr(_schedule, "__wrapped__", spy)
    for key in range(5):
        got = search(tree, key, collect_matches=True)
        assert got.cycles == w + 2 * h == len(built[-1])
        assert got.found == oracle_search(els, key), key
        assert got.matched_nodes == {i for i, x in enumerate(els, 1) if x == key}
        relays = sum(len(depths) for entries in built.pop() for op, depths in entries
                     if op == _RELAY)
        assert relays <= w + 2 * h, key


def test_a_deep_run_leaves_no_schedule_behind():
    """Only a short schedule is cached, since a long one holds O(cycles)
    entries: a search's schedule at eta=1, h=5000 holds about 5 MB.  After
    a search and after a max there, with the tree dropped, less than 1 MB
    of what the run allocated is still held (the interpreter's tuple free
    lists keep some of it)."""
    topo = cached_topology(1, 5000, 8)
    for mode, run in ((Mode.SEARCH, partial(search, key=3)), (Mode.MAX, compute_max)):
        tree = load_list(topo, [1, 2, 3], mode, key=0)
        tracemalloc.start()
        try:
            run(tree)
            del tree
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20, (mode, kept)


def test_sort_refuses_a_round_that_retires_nothing(topo_2_3_4, monkeypatch):
    """The live set is the enabled nodes below the root, as planes.  A round
    whose comparison phase leaves no match set is a protocol error naming
    the round's value and the live node ids, read with no id layout."""
    monkeypatch.setattr(type(topo_2_3_4), "layout", None)
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


@pytest.mark.parametrize("eta,h", [(eta, h) for eta in (1, 2, 3) for h in range(2, 7)])
def test_matches_and_the_live_set_are_the_ids_a_scan_finds(eta, h, monkeypatch):
    """``collect_matches`` and the live set of a sort round that retires
    nothing name the node ids a scan of the list finds, read off the planes
    with no id layout."""
    topo = cached_topology(eta, h, 4)
    monkeypatch.setattr(type(topo), "layout", None)
    rng = random.Random(f"{eta}:{h}:ids")
    els = [rng.randrange(5) for _ in range(rng.randint(1, topo.n - 1))]  # values repeat
    tree = load_list(topo, els, Mode.SEARCH, key=0)
    for key in range(16):
        want = {i for i, x in enumerate(els, 1) if x == key}
        assert search(tree, key, collect_matches=True).matched_nodes == want, key
    values = sorted(set(els), reverse=True)
    for r, value in enumerate(values):  # the rounds before r retire values[:r]
        comparisons = []

        def clear_matches(t):
            if t.phase1_only and t.cycle == 4 + h:  # w + h, the comparison's last cycle
                comparisons.append(t.cycle)
                if len(comparisons) == r + 1:
                    for lv in t.levels:
                        lv.match = 0

        live = [i for i, x in enumerate(els, 1) if x <= value]
        with pytest.raises(ProtocolError) as info:
            sort(topo, els, on_step=clear_matches)
        assert str(info.value) == f"sort round found no node holding {value}; live set {live}"


@pytest.mark.parametrize("eta,h", [(1, 5000), (2, 12)])
@pytest.mark.parametrize("w", [8, 64])
def test_a_load_keeps_and_peaks_at_the_bytes_the_node_cap_states(eta, h, w):
    """The figures of the comment on ``topology.MAX_NODES``, within 20%: a
    load of random words keeps about 1.3 (w = 8) to 9 (w = 64) bytes per
    node and 260 + 36w per level (260 + 8w at eta = 1 on CPython 3.11+),
    and peaks near 12 to 40 bytes per node and 8w more per level."""
    topo = cached_topology(eta, h, w)
    rng = random.Random(f"{eta}:{h}:{w}:bytes")
    els = [rng.getrandbits(w) for _ in range(topo.n - 1)]
    tracemalloc.start()
    try:
        tree = load_list(topo, els, Mode.MAX)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.levels) == h
    level = 260 + (8 if eta == 1 and sys.version_info >= (3, 11) else 36) * w
    for got, node, level in zip((kept, peak), {8: (1.3, 12), 64: (9, 40)}[w],
                                (level, level + 8 * w)):
        stated = node * topo.n + level * h
        assert 0.8 < got / stated < 1.2, (got / topo.n, stated / topo.n)  # bytes per node
