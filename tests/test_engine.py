"""Lockstep engine: stepping, determinism, quiescence, traces."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from cayley_imc.engine import (
    Configuration,
    ProtocolError,
    QuiescenceError,
    TraceEvent,
    default_cycle_budget,
    reset_configuration,
    run_until_quiescent,
    snapshot,
    step,
)
from cayley_imc.node import Mode, make_node
from cayley_imc.topology import Role
from cayley_imc.tracefile import Recorder, parse_trace, trace_header, tree_from_events

from conftest import cached_topology, loaded_by_nodes

ELEMENTS = [14, 9, 6, 10, 14, 7, 11, 11, 10]


def _search_cfg(topo, key=9):
    return loaded_by_nodes(topo, ELEMENTS[: topo.n - 1], Mode.SEARCH, key)


def test_idle_configuration_cannot_step(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    cfg.mode = Mode.IDLE
    with pytest.raises(ProtocolError):
        step(cfg)


def test_initiate_travels_one_level_per_cycle():
    topo = cached_topology(2, 4, 4)
    cfg = _search_cfg(topo)
    for depth in range(1, topo.params.height):
        at_depth = range(topo.offsets[depth], topo.offsets[depth + 1])
        assert all(cfg.nodes[i].flags.start == 0 for i in at_depth)
        # the step that begins at global_cycle == depth delivers the initiate
        while cfg.global_cycle <= depth:
            step(cfg)
        assert all(cfg.nodes[i].flags.start == 1 for i in at_depth)


def test_max_initiate_travels_upward(topo_2_3_4):
    cfg = loaded_by_nodes(topo_2_3_4, ELEMENTS[:8], Mode.MAX)
    assert cfg.root.flags.start == 0
    step(cfg)  # leaves emit the initiate
    assert all(cfg.nodes[i].flags.start == 0 for i in (1, 2, 3))
    step(cfg)  # intermediates latch it and forward
    assert all(cfg.nodes[i].flags.start == 1 for i in (1, 2, 3))
    assert cfg.root.flags.start == 0
    step(cfg)  # root latches it
    assert cfg.root.flags.start == 1


def test_budget_exhaustion_raises(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    with pytest.raises(QuiescenceError):
        run_until_quiescent(cfg, 1)
    cfg2 = _search_cfg(topo_2_3_4)
    with pytest.raises(ValueError):
        run_until_quiescent(cfg2, 0)


def test_determinism_across_runs_and_orders(topo_2_3_4):
    def run(order_seed=None):
        cfg = _search_cfg(topo_2_3_4)
        stream = [e.to_json() for e in snapshot(cfg)]
        rng = random.Random(order_seed)
        for _ in range(10):
            order = list(range(topo_2_3_4.n))
            if order_seed is not None:
                rng.shuffle(order)
            emissions = step(cfg, capture=True, order=order)
            stream.extend(e.to_json() for e in snapshot(cfg, emissions))
        return stream

    baseline = run()
    assert run() == baseline
    assert run(order_seed=7) == baseline
    assert run(order_seed=99) == baseline


def test_exact_cycle_counts(topo_2_3_4):
    w, h = 4, 3
    cfg = _search_cfg(topo_2_3_4)
    _, cycles = run_until_quiescent(cfg, default_cycle_budget(topo_2_3_4))
    assert cycles == w + 2 * h
    cfg = loaded_by_nodes(topo_2_3_4, ELEMENTS[:8], Mode.MAX)
    _, cycles = run_until_quiescent(cfg, default_cycle_budget(topo_2_3_4))
    assert cycles == w + h
    cfg = loaded_by_nodes(topo_2_3_4, ELEMENTS[:8], Mode.SEARCH, 3)
    cfg = reset_configuration(cfg, Mode.SEARCH, phase1_only=True)
    _, cycles = run_until_quiescent(cfg, default_cycle_budget(topo_2_3_4))
    assert cycles == w + h


def test_snapshot_copies_state(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    events = snapshot(cfg)
    assert len(events) == topo_2_3_4.n
    root_event = events[0]
    assert root_event.word == 9
    assert all(e.match == 1 for e in events if e.node in range(1, 10))
    cfg.nodes[1].flags.match = 0
    assert events[1].match == 1  # copied, not aliased


def test_snapshot_after_max_run_shows_answer_at_root(topo_2_3_4):
    cfg = loaded_by_nodes(topo_2_3_4, [14, 9, 5, 14, 7, 11, 10, 10], Mode.MAX)
    run_until_quiescent(cfg, default_cycle_budget(topo_2_3_4))
    assert snapshot(cfg)[0].word == 14


def test_trace_stream_round_trip(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    lines = [trace_header(cfg)]
    lines += [e.to_json() for e in snapshot(cfg)]

    def on_step(c, emissions):
        lines.extend(e.to_json() for e in snapshot(c, emissions))

    run_until_quiescent(cfg, default_cycle_budget(topo_2_3_4), on_step)

    segments = parse_trace(lines)
    assert len(segments) == 1
    meta, events = segments[0]
    assert meta["mode"] == "search"

    # A rebuilt tree is in its cycle-0 state; its run records the same events.
    replay, out = tree_from_events(meta, events), []
    replay.run(replay.mode, on_step=Recorder(lambda text: out.extend(text.splitlines())))
    assert out[0] == lines[0]
    assert [json.loads(x) for x in out[1:]] == events


def test_trace_rejects_incomplete_initial_snapshot(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    lines = [trace_header(cfg)] + [e.to_json() for e in snapshot(cfg)][:-1]
    meta, events = parse_trace(lines)[0]
    with pytest.raises(ValueError):
        tree_from_events(meta, events)


def test_trace_event_field_set(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    event = json.loads(snapshot(cfg)[0].to_json())
    assert set(event) == {
        "cycle", "node", "depth", "role", "word", "state", "start",
        "match", "l_m", "l_children", "perm_disabled", "emitted",
    }


def test_trace_event_fields_equal_its_parsed_json_line(topo_2_3_4):
    # Trace replay compares events with parsed records field by field.
    cfg = loaded_by_nodes(topo_2_3_4, ELEMENTS[:8], Mode.MAX)
    events = snapshot(cfg, step(cfg, capture=True))
    assert [json.loads(e.to_json()) for e in events] == [e._asdict() for e in events]


def test_emitted_ports_in_trace(topo_2_3_4):
    cfg = _search_cfg(topo_2_3_4)
    emissions = step(cfg, capture=True)
    events = snapshot(cfg, emissions)
    assert events[0].emitted == {"c0": 1, "c1": 1, "c2": 1}  # root initiate
    cfg2 = loaded_by_nodes(topo_2_3_4, ELEMENTS[:8], Mode.MAX)
    emissions = step(cfg2, capture=True)
    events = snapshot(cfg2, emissions)
    assert all(e.emitted == {"parent": 1} for e in events[4:])  # the leaves, nodes 4-9


_BIT = st.integers(0, 1)
_EMITTED = st.one_of(
    st.just({}),
    _BIT.map(lambda b: {"parent": b}),
    st.tuples(st.integers(1, 5), _BIT).map(lambda kb: {f"c{k}": kb[1] for k in range(kb[0])}),
)


@given(st.builds(
    TraceEvent,
    cycle=st.integers(0, 10_000), node=st.integers(0, 1 << 22), depth=st.integers(0, 30),
    role=st.sampled_from([r.value for r in Role]), word=st.integers(0, (1 << 64) - 1),
    state=_BIT, start=_BIT, match=_BIT, l_m=_BIT, l_children=st.lists(_BIT, max_size=4),
    perm_disabled=_BIT, emitted=_EMITTED))
def test_to_json_is_compact_json_dumps(event):
    assert event.to_json() == json.dumps(event._asdict(), separators=(",", ":"))


@pytest.mark.parametrize("eta,height", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 3)])
def test_snapshot_roles_are_the_topology_roles(eta, height):
    topo = cached_topology(eta, height, 4)
    cfg = Configuration(topo, [make_node(topo, i, 0) for i in range(topo.n)])
    leaves = topo.n - topo.offsets[-2] if height > 1 else 0  # the last level
    assert [e.role for e in snapshot(cfg)] == (
        ["root"] + ["intermediate"] * (topo.n - 1 - leaves) + ["leaf"] * leaves)
