"""Shared fixtures: cached topologies and random instance generation."""

from __future__ import annotations

import random

import pytest

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


def full_state(cfg) -> tuple:
    """Every field of every NodeState, inbox included, plus the run header."""
    rows = []
    for nd in cfg.nodes:
        f, ib = nd.flags, nd.inbox
        rows.append((
            nd.id, nd.width, nd.word,
            f.state, f.start, f.match, f.link_mem, tuple(f.link_child),
            f.perm_disabled,
            nd.local_clock, nd.acted, nd.neutral, nd.writes, nd.listen_steps,
            nd.phase1_match,
            ib.parent, tuple(ib.children), ib.child_count,
        ))
    return (cfg.mode, cfg.global_cycle, cfg.phase1_only, tuple(rows))
