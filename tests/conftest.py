"""Shared fixtures: cached topologies, random instance generation, and the
object engine (``engine.step`` over ``node.py``) as the specification the
bit planes are compared with."""

from __future__ import annotations

import random

import pytest

from cayley_imc.algorithms import ExtremumResult, SearchResult
from cayley_imc.engine import (Configuration, default_cycle_budget, reset_configuration,
                               run_until_quiescent)
from cayley_imc.node import Mode, make_node
from cayley_imc.topology import TreeParams, build_topology

_TOPO_CACHE: dict[tuple[int, int, int], object] = {}


def cached_topology(eta: int, height: int, word_size: int):
    key = (eta, height, word_size)
    topo = _TOPO_CACHE.get(key)
    if topo is None:
        topo = build_topology(TreeParams(eta, height, word_size))
        _TOPO_CACHE[key] = topo
    return topo


@pytest.fixture
def topo_2_3_4():
    """The tree of the worked examples: order 2, height 3, 4-bit words."""
    return cached_topology(2, 3, 4)


# Weighted towards small trees so large fuzz counts stay fast, while still
# touching every (eta, h, w) combination in the required grid.
_H_CHOICES = [2] * 46 + [3] * 30 + [4] * 15 + [5] * 6 + [6] * 3
_H_CHOICES_SMALL = [2] * 55 + [3] * 30 + [4] * 11 + [5] * 3 + [6] * 1


def random_params(rng: random.Random, *, small: bool = False) -> tuple[int, int, int]:
    h = rng.choice(_H_CHOICES_SMALL if small else _H_CHOICES)
    if h >= 5:
        eta = 2 if rng.random() < 0.9 else 3
    else:
        eta = 2 if rng.random() < 0.6 else 3
    w = rng.choice((4, 8))
    return eta, h, w


def random_elements(rng: random.Random, n_slots: int, word_size: int,
                    max_len: int, *, few_distinct: bool = False) -> list[int]:
    limit = 1 << word_size
    m = rng.randrange(0, min(n_slots, max_len) + 1)
    roll = rng.random()
    if roll < 0.03:
        return []
    if roll < 0.08:
        return [rng.randrange(limit)] * max(m, 1)
    if few_distinct:
        domain = [rng.randrange(limit) for _ in range(rng.randrange(1, 7))]
        return [rng.choice(domain) for _ in range(max(m, 1))]
    if roll < 0.15:
        # force boundary values in
        els = [rng.randrange(limit) for _ in range(max(m, 2))]
        els[0] = 0
        els[1] = limit - 1
        return els
    return [rng.randrange(limit) for _ in range(m)]


def disable(tree, nodes) -> None:
    """Set ``perm_disabled`` on ``nodes`` of the LoadedTree ``tree``; its next
    run applies it."""
    for i in nodes:
        d, p = tree.topo.locate(i)
        tree.levels[d].perm |= 1 << p


def loaded_by_nodes(topo, els, mode, key=None, *, pad=None, perm=None) -> Configuration:
    """The configuration of node objects that ``load_list(topo, els, mode,
    key=key)`` loads as planes: padding words, ``perm_disabled`` from the
    breadth-first flags ``perm`` (by default, on search padding), then the
    reset for ``mode``."""
    if pad is None:
        pad = (1 << topo.params.word_size) - 1 if mode is Mode.MIN else 0
    if perm is None:
        perm = bytes(len(els) + 1) + bytes([mode is Mode.SEARCH]) * (topo.n - 1 - len(els))
    words = [key if mode is Mode.SEARCH else pad, *els] + [pad] * (topo.n - 1 - len(els))
    cfg = Configuration(topo=topo, nodes=[make_node(topo, i, v) for i, v in enumerate(words)])
    for nd, flag in zip(cfg.nodes, perm):
        nd.flags.perm_disabled = flag
    return reset_configuration(cfg, mode)


def _plane(bits) -> int:
    """The plane whose bit ``p`` is ``bits[p]``."""
    return int("".join(map(str, bits))[::-1] or "0", 2)


def data_planes(tree) -> list[tuple]:
    """Per level of the LoadedTree ``tree``: its word planes as the words
    now stand (MSB first), then its perm, state, match, link_mem, links and
    phase1_match planes."""
    return [(lv.aligned(tree.w), lv.perm, lv.state, lv.match, lv.link_mem, lv.links,
             lv.phase1_match) for lv in tree.levels]


def spec_planes(cfg) -> list[tuple]:
    """``data_planes`` packed from the node objects of ``cfg``, each level's
    nodes in position order; child slot ``s`` of the node at position ``p``
    of an ``n``-node level is bit ``s * n + p`` of its links plane."""
    w, levels = cfg.topo.params.word_size, []
    for ids in cfg.topo.layout():
        nodes = [cfg.nodes[i] for i in ids]
        flags = [nd.flags for nd in nodes]
        p1 = [nd.phase1_match for nd in nodes]
        levels.append((
            [_plane([nd.word >> j & 1 for nd in nodes]) for j in range(w - 1, -1, -1)],
            _plane([f.perm_disabled for f in flags]), _plane([f.state for f in flags]),
            _plane([f.match for f in flags]), _plane([f.link_mem for f in flags]),
            _plane([f.link_child[s] for s in range(len(flags[0].link_child)) for f in flags]),
            None if p1 == [None] * len(p1) else _plane(p1)))
    return levels


def bits_of(tree, name) -> list[int]:
    """Each node's bit of the ``name`` planes of ``tree``, by node id."""
    bits = [0] * tree.topo.n
    for lv, ids in zip(tree.levels, tree.topo.layout()):
        for p, i in enumerate(ids):
            bits[i] = getattr(lv, name) >> p & 1
    return bits


def words_of(tree) -> list[int]:
    """The words of ``tree`` as they now stand, by node id."""
    words = [0] * tree.topo.n
    for lv, ids in zip(tree.levels, tree.topo.layout()):
        for plane in lv.aligned(tree.w):
            for p, i in enumerate(ids):
                words[i] = words[i] << 1 | plane >> p & 1
    return words


def _object_run(cfg, mode, on_step) -> int:
    reset_configuration(cfg, mode)
    return run_until_quiescent(cfg, default_cycle_budget(cfg.topo), on_step)[1]


def object_search(cfg, key, occupied, on_step=None) -> SearchResult:
    """``search`` with matches collected from ``occupied``, run by the
    object engine alone on the configuration ``cfg``."""
    cfg.root.word = key
    cycles = _object_run(cfg, Mode.SEARCH, on_step)
    return SearchResult(found=cfg.root.flags.state, cycles=cycles,
                        matched_nodes=frozenset(i for i in occupied if cfg.nodes[i].phase1_match))


def object_extremum(cfg, mode, on_step=None) -> ExtremumResult:
    """``compute_max`` or ``compute_min``, run by the object engine alone on
    the configuration ``cfg``."""
    cycles = _object_run(cfg, mode, on_step)
    return ExtremumResult(value=cfg.root.word, cycles=cycles)
