"""Tree arithmetic and construction."""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayley_imc.topology import (
    MAX_NODES,
    MAX_WORD_SIZE,
    Role,
    TreeParams,
    build_topology,
    node_count,
    required_height,
)

from conftest import cached_topology


class TestNodeCount:
    @pytest.mark.parametrize("eta,height,expected", [
        (2, 4, 22),
        (5, 1, 1),
        (3, 3, 17),
        (2, 1, 1),
        (2, 2, 4),
        (2, 3, 10),
        (1, 5, 9),
    ])
    def test_values(self, eta, height, expected):
        assert node_count(eta, height) == expected

    @pytest.mark.parametrize("eta,height", [(0, 3), (2, 0), (-1, 2)])
    def test_rejects_bad_args(self, eta, height):
        with pytest.raises(ValueError):
            node_count(eta, height)

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            node_count(4, 40)

    @given(st.integers(1, 4), st.integers(1, 8))
    def test_matches_construction(self, eta, height):
        topo = build_topology(TreeParams(eta, height, 4))
        assert topo.n == node_count(eta, height) == len(_breadth_first(eta, height))


class TestRequiredHeight:
    @pytest.mark.parametrize("eta,m,expected", [
        (2, 9, 3),
        (2, 1, 2),
        (2, 0, 2),
        (2, 21, 4),
        (2, 22, 5),
        (3, 4, 2),
    ])
    def test_values(self, eta, m, expected):
        assert required_height(eta, m) == expected

    @given(st.integers(1, 4), st.integers(0, 500))
    def test_minimal(self, eta, m):
        h = required_height(eta, m)
        assert h >= 2
        assert node_count(eta, h) - 1 >= m
        if h > 2:
            assert node_count(eta, h - 1) - 1 < m


class TestBuildTopology:
    def test_degenerate_single_root(self):
        topo = build_topology(TreeParams(2, 1, 4))
        assert topo.n == 1
        assert topo.children(0) == range(0)
        assert topo.parent(0) == (-1, 0)
        assert topo.role(topo.depth(0)) is Role.ROOT

    def test_example_tree(self):
        topo = cached_topology(2, 3, 4)
        assert topo.n == 10
        assert topo.children(0) == range(1, 4)
        for mid in (1, 2, 3):
            assert len(topo.children(mid)) == 2
            assert topo.role(topo.depth(mid)) is Role.INTERMEDIATE
        leaves = [i for i in range(10) if topo.role(topo.depth(i)) is Role.LEAF]
        assert leaves == [4, 5, 6, 7, 8, 9]

    def test_height_four(self):
        topo = cached_topology(2, 4, 4)
        assert topo.n == 22
        leaves = [i for i in range(22) if not topo.children(i)]
        assert len(leaves) == 12
        assert all(topo.depth(leaf) == 3 for leaf in leaves)

    @given(st.integers(1, 4), st.integers(2, 6))
    def test_invariants(self, eta, height):
        topo = build_topology(TreeParams(eta, height, 4))
        assert len(topo.children(0)) == eta + 1
        for i in range(topo.n):
            role = topo.role(topo.depth(i))
            kids = topo.children(i)
            if role is Role.ROOT:
                assert topo.parent(i) == (-1, 0)
            else:
                p, slot = topo.parent(i)
                assert topo.children(p)[slot] == i
                assert topo.depth(i) == topo.depth(p) + 1
            if role is Role.INTERMEDIATE:
                assert len(kids) == eta
            if role is Role.LEAF:
                assert not kids
                assert topo.depth(i) == height - 1
            if kids:
                depths = {topo.depth(c) for c in kids}
                assert len(depths) == 1
            for s, c in enumerate(kids):
                assert topo.parent(c) == (i, s)

    def test_tree_just_past_the_node_cap_is_refused(self):
        height = MAX_NODES // 2 + 1  # eta=1 trees have 2h - 1 nodes
        assert node_count(1, height) == MAX_NODES + 1
        with pytest.raises(ValueError, match="limit"):
            build_topology(TreeParams(1, height, 4))

    @pytest.mark.parametrize("call,message", [
        (lambda: TreeParams(0, 3, 4), "eta must be >= 1, got 0"),
        (lambda: TreeParams(2, 0, 4), "height must be >= 1, got 0"),
        (lambda: required_height(0, 3), "eta must be >= 1, got 0"),
        (lambda: required_height(2, -1), "list_len must be >= 0, got -1"),
    ], ids=["params-eta", "params-height", "height-eta", "height-length"])
    def test_bad_shapes_are_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_word_size_cap(self):
        assert TreeParams(2, 3, MAX_WORD_SIZE).word_size == MAX_WORD_SIZE
        with pytest.raises(ValueError, match="word_size"):
            TreeParams(2, 3, MAX_WORD_SIZE + 1)

    def test_breadth_first_ids_are_dense_and_ordered(self):
        topo = cached_topology(3, 4, 4)
        by_depth = [topo.depth(i) for i in range(topo.n)]
        assert by_depth == sorted(by_depth)


@lru_cache(maxsize=64)
def _breadth_first(eta: int, height: int) -> tuple[tuple, ...]:
    """Per node, the (parent, child slot), children, role and depth of an
    eager breadth-first construction: the frontier of each level hands out
    consecutive ids to its nodes' children, left to right."""
    n = node_count(eta, height)
    parent, children = [-1] * n, [()] * n
    role, depth, slot = [Role.LEAF] * n, [0] * n, [0] * n
    role[0] = Role.ROOT
    next_id, frontier = 1, [0]
    for level in range(1, height):
        new_frontier = []
        for node in frontier:
            fanout = eta + 1 if node == 0 else eta
            kids = tuple(range(next_id, next_id + fanout))
            next_id += fanout
            children[node] = kids
            if node != 0:
                role[node] = Role.INTERMEDIATE
            for i, kid in enumerate(kids):
                parent[kid], depth[kid], slot[kid] = node, level, i
            new_frontier.extend(kids)
        frontier = new_frontier
    assert next_id == n
    return tuple(zip(zip(parent, slot), children, role, depth))


def _reference_layout(eta: int, height: int):
    """Each level's ids in slot-major position order, built level by level
    from the breadth-first ids: the node at position 0 of a level has the
    level's lowest id, and the children of its j-th node are the j-th run
    of ``k`` consecutive ids of the next level."""
    levels = [(0,)]
    for d in range(1, height):
        parents, k = levels[-1], (eta + 1 if d == 1 else eta)
        low, first = parents[0], parents[0] + len(parents)
        levels.append(tuple(first + (p - low) * k + s for s in range(k) for p in parents))
    return levels


class TestArithmetic:
    """The closed forms against the breadth-first construction."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 12), st.randoms(use_true_random=False))
    def test_positions_and_layout_match_the_construction(self, eta, height, rng):
        assume(node_count(eta, height) <= 40_000)
        topo = build_topology(TreeParams(eta, height, 4))
        levels = _reference_layout(eta, height)
        assert list(map(tuple, topo.layout())) == levels
        assert topo.offsets == tuple([ids[0] for ids in levels] + [topo.n])
        # locate inverts the layout, on every node; ids reads a plane's
        # set positions as the layout names them, in id order.
        for depth, ids in enumerate(levels):
            assert [topo.locate(i) for i in ids] == [(depth, q) for q in range(len(ids))]
            assert {topo.depth(i) for i in ids} == {depth}
            plane = rng.getrandbits(len(ids))
            assert topo.ids(depth, plane) == sorted(i for q, i in enumerate(ids) if plane >> q & 1)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 4), st.integers(1, 12))
    def test_parent_and_children_equal_an_eager_build(self, eta, height):
        assume(node_count(eta, height) <= 40_000)
        topo = build_topology(TreeParams(eta, height, 4))
        assert set(vars(topo)) == {"params", "n", "offsets"}  # nothing per node
        for i, (parent, children, role, depth) in enumerate(_breadth_first(eta, height)):
            assert topo.parent(i) == parent, i
            assert tuple(topo.children(i)) == children, i
            d = topo.depth(i)
            assert (topo.role(d), d, topo.fanout(d)) == (role, depth, len(children)), i
