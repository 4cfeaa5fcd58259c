"""In-memory sorting: output, round structure, cycle accounting."""

import random

import pytest

from cayley_imc.algorithms import load_list, sort
from cayley_imc.node import Mode
from cayley_imc.oracle import oracle_sort_desc
from cayley_imc.topology import required_height

from conftest import cached_topology, loaded_by_nodes, words_of

ELEMENTS = [14, 9, 6, 10, 14, 7, 11, 11, 10]


def test_worked_example(topo_2_3_4):
    result = sort(topo_2_3_4, ELEMENTS)
    assert result.output == [14, 14, 11, 11, 10, 10, 9, 7, 6]
    assert result.rounds == 6  # six distinct values
    assert result.per_round_cycles == [14] * 6  # 2*(w+h) each
    assert result.cycles_total == 84


def test_all_equal_completes_in_one_round(topo_2_3_4):
    result = sort(topo_2_3_4, [7, 7, 7, 7])
    assert result.output == [7, 7, 7, 7]
    assert result.rounds == 1


def test_empty_list(topo_2_3_4):
    result = sort(topo_2_3_4, [])
    assert result.output == []
    assert result.rounds == 0
    assert result.cycles_total == 0


def test_ascending_option(topo_2_3_4):
    result = sort(topo_2_3_4, ELEMENTS, order="asc")
    assert result.output == sorted(ELEMENTS)
    assert result.rounds == 6


def test_bad_order_rejected(topo_2_3_4):
    with pytest.raises(ValueError):
        sort(topo_2_3_4, ELEMENTS, order="up")


def test_zero_and_top_values(topo_2_3_4):
    # 0 shares its word with padding; the occupied filter keeps it apart
    result = sort(topo_2_3_4, [0, 15, 0, 15])
    assert result.output == [15, 15, 0, 0]
    assert result.rounds == 2
    result = sort(topo_2_3_4, [0])
    assert result.output == [0]


def test_ascending_with_top_value_padding_collision(topo_2_3_4):
    # ascending padding holds all-ones; occupied 15s must still be reported
    result = sort(topo_2_3_4, [15, 3, 15], order="asc")
    assert result.output == [3, 15, 15]
    assert result.rounds == 2


def test_words_survive_the_whole_sort(topo_2_3_4):
    # reuse the loading path, then compare in-tree words with the input
    tree = load_list(topo_2_3_4, ELEMENTS, Mode.MAX)
    result = sort(topo_2_3_4, ELEMENTS)
    assert result.output == oracle_sort_desc(ELEMENTS)
    # sort() builds its own tree, so check by sorting a fresh load manually
    assert words_of(tree)[1:len(ELEMENTS) + 1] == ELEMENTS


def test_order_independence(topo_2_3_4):
    rng = random.Random(3)
    expected = oracle_sort_desc(ELEMENTS)
    for _ in range(10):
        els = list(ELEMENTS)
        rng.shuffle(els)
        assert sort(topo_2_3_4, els).output == expected


def test_rounds_equal_distinct_values():
    rng = random.Random(17)
    for _ in range(60):
        w = rng.choice((4, 8))
        m = rng.randrange(0, 12)
        els = [rng.randrange(1 << w) for _ in range(m)]
        topo = cached_topology(2, required_height(2, m), w)
        result = sort(topo, els)
        assert result.output == oracle_sort_desc(els)
        assert result.rounds == len(set(els))
        h = topo.params.height
        assert all(c == 2 * (w + h) for c in result.per_round_cycles)


def test_sort_on_larger_tree():
    rng = random.Random(5)
    els = [rng.randrange(256) for _ in range(50)]
    topo = cached_topology(2, required_height(2, 50), 8)
    result = sort(topo, els)
    assert result.output == oracle_sort_desc(els)
    assert sort(topo, els, order="asc").output == sorted(els)


def test_words_restored_before_every_round(topo_2_3_4):
    # replay the round loop by hand and check restoration at each boundary
    from cayley_imc.engine import (
        default_cycle_budget,
        reset_configuration,
        run_until_quiescent,
    )

    cfg = loaded_by_nodes(topo_2_3_4, ELEMENTS, Mode.MAX)
    budget = default_cycle_budget(topo_2_3_4)
    live = set(range(1, len(ELEMENTS) + 1))
    rounds = 0
    while live and rounds < 10:
        reset_configuration(cfg, Mode.MAX)
        run_until_quiescent(cfg, budget)
        value = cfg.root.word
        for i, x in enumerate(ELEMENTS, start=1):
            assert cfg.nodes[i].word == x  # restored after the tournament
        reset_configuration(cfg, Mode.SEARCH, phase1_only=True)
        run_until_quiescent(cfg, budget)
        for i, x in enumerate(ELEMENTS, start=1):
            assert cfg.nodes[i].word == x  # searching never shifts
        matched = [i for i in live if cfg.nodes[i].flags.match == 1]
        assert matched and all(ELEMENTS[i - 1] == value for i in matched)
        for i in matched:
            cfg.nodes[i].flags.perm_disabled = 1
            live.remove(i)
        rounds += 1
    assert not live and rounds == 6
