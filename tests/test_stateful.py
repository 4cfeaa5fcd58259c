"""One loaded tree reused across many runs, with words and flags changed
between runs, checked against the oracles and an object-engine twin."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from cayley_imc.algorithms import compute_max, compute_min, load_list, search
from cayley_imc.node import Mode
from cayley_imc.oracle import oracle_extremum, oracle_search

from conftest import cached_topology, full_state

SHAPES = [(1, 3, 4), (2, 2, 4), (2, 3, 4), (2, 4, 8), (3, 3, 8)]


def _ignore(cfg, emissions):
    """An observer that records nothing; it selects the object engine."""


class ReusedTree(RuleBasedStateMachine):
    """``tree`` runs on the bit-plane engine, ``twin`` on the object engine.

    Both see the same runs and the same writes between runs, so any state
    the plane engine fails to repack or write back shows up as a
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
        self.twin = load_list(self.topo, els, mode, key=key)

    def _live_words(self):
        return [nd.word for nd in self.tree.cfg.nodes[1:]
                if not nd.flags.perm_disabled]

    @rule(data=st.data())
    def run(self, data):
        if self.mode is Mode.SEARCH:
            key = data.draw(st.integers(0, (1 << self.w) - 1))
            got = search(self.tree, key, collect_matches=True)
            assert got == search(self.twin, key, collect_matches=True, on_step=_ignore)
            assert got.found == oracle_search(self._live_words(), key)
            assert got.matched_nodes == {
                i for i in self.tree.occupied
                if not self.tree.cfg.nodes[i].flags.perm_disabled
                and self.tree.cfg.nodes[i].word == key}
        else:
            which = "max" if self.mode is Mode.MAX else "min"
            compute = compute_max if self.mode is Mode.MAX else compute_min
            identity = 0 if self.mode is Mode.MAX else (1 << self.w) - 1
            expected = oracle_extremum(self._live_words(), which, identity)
            got = compute(self.tree)
            assert got == compute(self.twin, on_step=_ignore)
            assert got.value == expected

    @rule(data=st.data())
    def replace_word(self, data):
        i = data.draw(st.integers(1, self.topo.n - 1))
        value = data.draw(st.integers(0, (1 << self.w) - 1))
        for tree in (self.tree, self.twin):
            tree.cfg.nodes[i].word = value

    @rule(data=st.data())
    def set_perm_disabled(self, data):
        i = data.draw(st.integers(1, self.topo.n - 1))
        flag = data.draw(st.integers(0, 1))
        for tree in (self.tree, self.twin):
            tree.cfg.nodes[i].flags.perm_disabled = flag

    @invariant()
    def same_state(self):
        if hasattr(self, "tree"):
            assert full_state(self.tree.cfg) == full_state(self.twin.cfg)


ReusedTree.TestCase.settings = settings(max_examples=60, stateful_step_count=12,
                                        deadline=None)
TestReusedTree = ReusedTree.TestCase
