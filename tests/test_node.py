"""Unit behaviour of words, flags, and the per-node transition functions."""

import pytest
from hypothesis import given, strategies as st

from cayley_imc.node import (
    BitWord,
    Mode,
    circular_left_shift,
    make_node,
    receive_max,
    receive_search,
    reset_flags,
    send_max,
    send_search,
)


class TestBitWord:
    def test_bits_are_msb_first(self):
        word = BitWord(4, 0b1001)
        assert [word.bit(k) for k in range(4)] == [1, 0, 0, 1]
        assert word.msb == 1

    def test_rotation_examples(self):
        assert circular_left_shift(BitWord(4, 0b1001)).value == 0b0011
        assert circular_left_shift(BitWord(4, 0)).value == 0
        w = BitWord(4, 14)
        for _ in range(4):
            w = circular_left_shift(w)
        assert w.value == 14

    def test_with_msb(self):
        assert BitWord(4, 0b0110).with_msb(1).value == 0b1110
        assert BitWord(4, 0b1110).with_msb(0).value == 0b0110

    def test_validation(self):
        with pytest.raises(ValueError):
            BitWord(0, 0)
        with pytest.raises(ValueError):
            BitWord(4, 16)
        with pytest.raises(IndexError):
            BitWord(4, 0).bit(4)

    @given(st.integers(1, 16), st.data())
    def test_full_rotation_is_identity(self, width, data):
        value = data.draw(st.integers(0, (1 << width) - 1))
        word = BitWord(width, value)
        out = word
        for _ in range(width):
            out = circular_left_shift(out)
        assert out == word


def _fresh(topo, node_id, value, mode):
    node = make_node(topo, node_id, BitWord(topo.params.word_size, value))
    reset_flags(node, mode)
    return node


def _parent_bit(node, bit):
    """Latch ``bit`` on the node's parent port, as a cycle's send would."""
    node.inbox.clear()
    node.inbox.parent = bit
    return node


def _child_bits(node, bits):
    """Latch one bit per child port."""
    node.inbox.clear()
    for slot, b in enumerate(bits):
        node.inbox.put_child(slot, b)
    return node


class TestResetFlags:
    def test_root_search_reset(self, topo_2_3_4):
        root = _fresh(topo_2_3_4, 0, 9, Mode.SEARCH)
        assert (root.flags.state, root.flags.start, root.flags.match) == (1, 1, 1)

    def test_leaf_max_reset(self, topo_2_3_4):
        leaf = _fresh(topo_2_3_4, 4, 7, Mode.MAX)
        assert (leaf.flags.state, leaf.flags.start) == (1, 1)
        assert leaf.flags.link_mem == 0

    def test_perm_disabled_survives_reset(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 4, 7, Mode.MAX)
        node.flags.perm_disabled = 1
        reset_flags(node, Mode.MAX)
        assert node.flags.link_mem == 1
        reset_flags(node, Mode.SEARCH)
        assert node.flags.link_mem == 1
        assert node.flags.match == 0  # can never report a hit again

    def test_dynamic_links_reenable(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 7, Mode.MAX)
        node.flags.link_child[0] = 1
        node.flags.link_mem = 1
        reset_flags(node, Mode.MAX)
        assert node.flags.link_child == [0, 0]
        assert node.flags.link_mem == 0

    def test_idle_rejected(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 7, Mode.MAX)
        with pytest.raises(ValueError):
            reset_flags(node, Mode.IDLE)


class TestReceiveSearch:
    def test_initiate_sets_start(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 14, Mode.SEARCH)
        receive_search(_parent_bit(node, 1))
        assert node.flags.start == 1
        assert node.flags.state == 1

    def test_match_holds_on_equal_bit(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1001, Mode.SEARCH)
        receive_search(_parent_bit(node, 1))  # initiate
        node.local_clock = 1  # one send performed
        receive_search(_parent_bit(node, 1))  # key MSB 1
        assert node.flags.match == 1

    def test_match_clears_on_mismatch_and_sticks(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1001, Mode.SEARCH)
        receive_search(_parent_bit(node, 1))
        node.local_clock = 1
        receive_search(_parent_bit(node, 0))  # MSB is 1
        assert node.flags.match == 0
        node.local_clock = 2
        receive_search(_parent_bit(node, 0))  # equal bit now
        assert node.flags.match == 0

    def test_dormant_without_parent_bit(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 14, Mode.SEARCH)
        receive_search(node)
        assert node.flags.start == 0
        assert node.acted is False


class TestSendSearch:
    def test_root_emits_initiate_then_key_bits(self, topo_2_3_4):
        root = _fresh(topo_2_3_4, 0, 0b1001, Mode.SEARCH)
        _, em = send_search(root, topo_2_3_4)
        assert em.to_children == 1  # initiate
        _, em = send_search(root, topo_2_3_4)
        assert em.to_children == 1  # MSB of 1001
        _, em = send_search(root, topo_2_3_4)
        assert em.to_children == 0
        _, em = send_search(root, topo_2_3_4)
        assert em.to_children == 0
        _, em = send_search(root, topo_2_3_4)
        assert em.to_children == 1  # LSB
        assert root.flags.state == 0  # latch cleared entering the listen phase
        _, em = send_search(root, topo_2_3_4)
        assert em is None  # waits from now on

    def test_leaf_relays_upward_after_key(self, topo_2_3_4):
        leaf = _fresh(topo_2_3_4, 4, 0b1001, Mode.SEARCH)
        leaf.local_clock = 5  # past the w+1 phase-one sends
        leaf.flags.state = 1
        leaf.acted = True
        _, em = send_search(leaf, topo_2_3_4)
        assert em.to_parent == 1
        assert em.to_children is None

    def test_silent_when_not_driven(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 14, Mode.SEARCH)
        _, em = send_search(node, topo_2_3_4)
        assert em is None


class TestReceiveMax:
    def test_or_round_disables_losing_child(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1000, Mode.MAX)  # MSB 1
        node.flags.start = 1
        receive_max(_child_bits(node, [0, 1]))
        assert node.flags.state == 1
        assert node.flags.link_child == [1, 0]
        assert node.flags.link_mem == 0

    def test_losing_memory_is_disabled(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b0111, Mode.MAX)  # MSB 0
        node.flags.start = 1
        receive_max(_child_bits(node, [1, 1]))
        assert node.flags.state == 1
        assert node.flags.link_mem == 1

    def test_and_round_is_the_dual(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1000, Mode.MIN)  # MSB 1
        node.flags.start = 1
        receive_max(_child_bits(node, [1, 0]))
        assert node.flags.state == 0
        assert node.flags.link_child == [1, 0]  # the 1-sender lost
        assert node.flags.link_mem == 1  # and so did the MSB

    def test_word_rotates_every_round(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1110, Mode.MAX)
        node.flags.start = 1
        receive_max(_child_bits(node, [0, 0]))
        assert node.word.value == 0b1101

    def test_initiate_only_raises_start(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1110, Mode.MAX)
        receive_max(_child_bits(node, [1, 1]))
        assert node.flags.start == 1
        assert node.word.value == 0b1110  # no data round yet
        assert node.flags.link_child == [0, 0]

    def test_disabled_participants_are_ignored(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b0000, Mode.MAX)
        node.flags.start = 1
        node.flags.link_child[1] = 1
        node.flags.link_mem = 1
        receive_max(_child_bits(node, [0, 1]))
        assert node.flags.state == 0  # only the enabled 0-sender counts

    def test_empty_participant_set_yields_identity(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0b1111, Mode.MAX)
        node.flags.start = 1
        node.flags.link_child = [1, 1]
        node.flags.link_mem = 1
        receive_max(_child_bits(node, [1, 1]))
        assert node.flags.state == 0
        node2 = _fresh(topo_2_3_4, 1, 0b0000, Mode.MIN)
        node2.flags.start = 1
        node2.flags.link_child = [1, 1]
        node2.flags.link_mem = 1
        receive_max(_child_bits(node2, [0, 0]))
        assert node2.flags.state == 1

    def test_root_writes_result_into_msb(self, topo_2_3_4):
        root = _fresh(topo_2_3_4, 0, 0, Mode.MAX)
        root.flags.start = 1
        receive_max(_child_bits(root, [0, 1, 0]))
        # wrote 1 into the MSB, then rotated it down to the LSB
        assert root.word.value == 0b0001
        assert root.writes == 1


class TestSendMax:
    def test_leaf_initiate(self, topo_2_3_4):
        leaf = _fresh(topo_2_3_4, 4, 0b1110, Mode.MAX)
        _, em = send_max(leaf, topo_2_3_4)
        assert em.to_parent == 1
        assert leaf.word.value == 0b1110  # initiate does not shift

    def test_leaf_streams_msb_and_rotates(self, topo_2_3_4):
        leaf = _fresh(topo_2_3_4, 4, 0b1110, Mode.MAX)
        send_max(leaf, topo_2_3_4)
        _, em = send_max(leaf, topo_2_3_4)
        assert em.to_parent == 1
        assert leaf.word.value == 0b1101

    def test_leaf_stops_after_w_bits(self, topo_2_3_4):
        leaf = _fresh(topo_2_3_4, 4, 0b1010, Mode.MAX)
        bits = []
        send_max(leaf, topo_2_3_4)
        for _ in range(4):
            _, em = send_max(leaf, topo_2_3_4)
            bits.append(em.to_parent)
        assert bits == [1, 0, 1, 0]
        assert leaf.word.value == 0b1010  # restored after w rotations
        _, em = send_max(leaf, topo_2_3_4)
        assert em is None

    def test_disabled_leaf_streams_neutral_bits(self, topo_2_3_4):
        leaf = _fresh(topo_2_3_4, 4, 0b1111, Mode.MAX)
        leaf.flags.perm_disabled = 1
        reset_flags(leaf, Mode.MAX)
        send_max(leaf, topo_2_3_4)
        for _ in range(4):
            _, em = send_max(leaf, topo_2_3_4)
            assert em.to_parent == 0  # OR identity, not its real bits
        leaf_min = _fresh(topo_2_3_4, 4, 0b0000, Mode.MIN)
        leaf_min.flags.perm_disabled = 1
        reset_flags(leaf_min, Mode.MIN)
        send_max(leaf_min, topo_2_3_4)
        for _ in range(4):
            _, em = send_max(leaf_min, topo_2_3_4)
            assert em.to_parent == 1  # AND identity

    def test_intermediate_forwards_state_when_acted(self, topo_2_3_4):
        node = _fresh(topo_2_3_4, 1, 0, Mode.MAX)
        _, em = send_max(node, topo_2_3_4)
        assert em is None
        node.flags.state = 0
        node.acted = True
        _, em = send_max(node, topo_2_3_4)
        assert em.to_parent == 0

    def test_root_never_sends(self, topo_2_3_4):
        root = _fresh(topo_2_3_4, 0, 0, Mode.MAX)
        root.acted = True
        _, em = send_max(root, topo_2_3_4)
        assert em is None
