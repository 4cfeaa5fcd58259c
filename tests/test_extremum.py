"""Computing max and min in-memory against linear-scan oracles."""

import random

import pytest

from cayley_imc.algorithms import compute_max, compute_min, load_list
from cayley_imc.engine import step
from cayley_imc.node import Mode
from cayley_imc.oracle import oracle_extremum
from cayley_imc.topology import required_height

from conftest import cached_topology, loaded_by_nodes, words_of

FIG_ELEMENTS = [14, 9, 5, 14, 7, 11, 10, 10]


def test_worked_example_max(topo_2_3_4):
    tree = load_list(topo_2_3_4, FIG_ELEMENTS, Mode.MAX)
    result = compute_max(tree)
    assert result.value == 14
    assert result.cycles == 4 + 3


def test_worked_example_restores_words(topo_2_3_4):
    tree = load_list(topo_2_3_4, FIG_ELEMENTS, Mode.MAX)
    compute_max(tree)
    values = words_of(tree)[1:10]
    assert values == FIG_ELEMENTS + [0]  # originals plus one padding slot


def test_min_of_worked_example(topo_2_3_4):
    tree = load_list(topo_2_3_4, FIG_ELEMENTS, Mode.MIN)
    assert compute_min(tree).value == 5


def test_all_equal_list_disables_nothing(topo_2_3_4):
    tree = load_list(topo_2_3_4, [5, 5, 5, 5, 5, 5, 5, 5, 5], Mode.MAX)
    assert compute_max(tree).value == 5
    for lv in tree.levels:
        assert lv.link_mem == lv.links == 0


def test_single_element(topo_2_3_4):
    for x in (0, 7, 15):
        tree = load_list(topo_2_3_4, [x], Mode.MIN)
        assert compute_min(tree).value == x
        tree = load_list(topo_2_3_4, [x], Mode.MAX)
        assert compute_max(tree).value == x


def test_empty_list_yields_identity(topo_2_3_4):
    assert compute_max(load_list(topo_2_3_4, [], Mode.MAX)).value == 0
    assert compute_min(load_list(topo_2_3_4, [], Mode.MIN)).value == 15


def test_all_ones_fixed_point(topo_2_3_4):
    tree = load_list(topo_2_3_4, [15, 15, 15], Mode.MIN)
    assert compute_min(tree).value == 15


def test_wrong_mode_rejected(topo_2_3_4):
    tree = load_list(topo_2_3_4, FIG_ELEMENTS, Mode.MAX)
    with pytest.raises(ValueError):
        compute_min(tree)


def test_two_hundred_random_byte_lists():
    rng = random.Random(202)
    for _ in range(200):
        m = rng.randrange(0, 22)
        els = [rng.randrange(256) for _ in range(m)]
        topo = cached_topology(2, required_height(2, m), 8)
        assert compute_max(load_list(topo, els, Mode.MAX)).value == \
            oracle_extremum(els, "max", 0)
        assert compute_min(load_list(topo, els, Mode.MIN)).value == \
            oracle_extremum(els, "min", 255)


def test_order_independence(topo_2_3_4):
    rng = random.Random(7)
    for _ in range(20):
        els = list(FIG_ELEMENTS)
        rng.shuffle(els)
        assert compute_max(load_list(topo_2_3_4, els, Mode.MAX)).value == 14
        assert compute_min(load_list(topo_2_3_4, els, Mode.MIN)).value == 5


def test_cycle_count_over_shapes():
    for eta, h, w in [(2, 2, 4), (2, 4, 4), (3, 3, 8), (2, 6, 8)]:
        topo = cached_topology(eta, h, w)
        tree = load_list(topo, [1, 2, 3], Mode.MAX)
        assert compute_max(tree).cycles == w + h


def test_link_flags_only_rise_within_a_run(topo_2_3_4):
    rng = random.Random(11)
    for _ in range(30):
        els = [rng.randrange(16) for _ in range(9)]
        cfg = loaded_by_nodes(topo_2_3_4, els, Mode.MAX)
        prev = [(n.flags.link_mem, tuple(n.flags.link_child)) for n in cfg.nodes]
        for _ in range(7):
            step(cfg)
            for n, (pm, pc) in zip(cfg.nodes, prev):
                assert n.flags.link_mem >= pm
                assert all(b >= p for b, p in zip(n.flags.link_child, pc))
            prev = [(n.flags.link_mem, tuple(n.flags.link_child)) for n in cfg.nodes]


def _subtree(topo, child):
    out = [child]
    frontier = [child]
    while frontier:
        nxt = []
        for u in frontier:
            nxt.extend(topo.children(u))
        out.extend(nxt)
        frontier = nxt
    return out


def test_cut_subtrees_cannot_change_the_answer(topo_2_3_4):
    # corrupt every word behind a disabled link mid-run; result must hold
    rng = random.Random(23)
    topo = topo_2_3_4
    for _ in range(50):
        els = [rng.randrange(16) for _ in range(9)]
        cfg = loaded_by_nodes(topo, els, Mode.MAX)
        expected = max(els)
        for _ in range(7):
            step(cfg)
            for node in cfg.nodes:
                for slot, cut in enumerate(node.flags.link_child):
                    if cut:
                        child = topo.children(node.id)[slot]
                        for v in _subtree(topo, child):
                            cfg.nodes[v].word = 15
                if node.flags.link_mem and node.id != 0:
                    cfg.nodes[node.id].word = 15
        assert cfg.root.word == expected
