"""One loaded tree reused across many runs, with nodes permanently disabled
between runs, checked against the oracles and an object-engine twin."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from cayley_imc.algorithms import compute_max, compute_min, load_list, search
from cayley_imc.node import Mode
from cayley_imc.oracle import oracle_extremum, oracle_search

from conftest import cached_topology, disable, full_state, object_extremum, object_search

SHAPES = [(1, 3, 4), (2, 2, 4), (2, 3, 4), (2, 4, 8), (3, 3, 8)]


class ReusedTree(RuleBasedStateMachine):
    """``tree`` runs on the bit-plane engine; ``twin``, a configuration of
    node objects, runs on the object engine.

    Both see the same runs and the same nodes disabled between runs, so any
    state the plane engine fails to carry from run to run shows up as a
    difference in answers or in full node state.
    """

    @initialize(shape=st.sampled_from(SHAPES),
                mode=st.sampled_from((Mode.SEARCH, Mode.MAX, Mode.MIN)),
                data=st.data())
    def load(self, shape, mode, data):
        eta, h, w = shape
        self.topo = cached_topology(eta, h, w)
        self.w = w
        self.mode = mode
        els = data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=self.topo.n - 1))
        key = 0 if mode is Mode.SEARCH else None
        self.tree = load_list(self.topo, els, mode, key=key)
        self.twin = load_list(self.topo, els, mode, key=key).configuration()

    def _live_words(self):
        return [nd.word for nd in self.tree.configuration().nodes[1:]
                if not nd.flags.perm_disabled]

    @rule(data=st.data())
    def run(self, data):
        if self.mode is Mode.SEARCH:
            key = data.draw(st.integers(0, (1 << self.w) - 1))
            got = search(self.tree, key, collect_matches=True)
            assert got == object_search(self.twin, key, self.tree.occupied)
            assert got.found == oracle_search(self._live_words(), key)
            nodes = self.tree.configuration().nodes
            assert got.matched_nodes == {
                i for i in self.tree.occupied
                if not nodes[i].flags.perm_disabled and nodes[i].word == key}
        else:
            which = "max" if self.mode is Mode.MAX else "min"
            compute = compute_max if self.mode is Mode.MAX else compute_min
            identity = 0 if self.mode is Mode.MAX else (1 << self.w) - 1
            expected = oracle_extremum(self._live_words(), which, identity)
            got = compute(self.tree)
            assert got == object_extremum(self.twin, self.mode)
            assert got.value == expected

    @rule(data=st.data())
    def disable(self, data):
        i = data.draw(st.integers(1, self.topo.n - 1))
        disable(self.tree, [i])
        self.twin.nodes[i].flags.perm_disabled = 1

    @invariant()
    def same_state(self):
        if hasattr(self, "tree"):
            assert full_state(self.tree.configuration()) == full_state(self.twin)


ReusedTree.TestCase.settings = settings(max_examples=60, stateful_step_count=12,
                                        deadline=None)
TestReusedTree = ReusedTree.TestCase
