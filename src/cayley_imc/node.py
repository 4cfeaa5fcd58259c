"""Per-node processing element: memory word, flag registers, transitions.

Every tree node is a tiny machine holding one w-bit word plus single-bit
flags.  Two families of transition functions drive it:

* search mode: the root broadcasts an initiate bit followed by the key,
  most significant bit first.  A non-root node compares the arriving key
  bits against its own word (``match`` is sticky at 0 on the first
  mismatch) while forwarding them down, then switches to relaying match
  results up to the root, where a 1 is absorbed permanently.

* max/min mode: leaves stream their words up, one bit per cycle starting
  at the most significant bit, rotating the word as they go.  Every inner
  node combines the bits of its still-linked children and (unless its
  memory link is disabled) its own current MSB with OR (max) or AND (min),
  forwards the result, and cuts the link of any participant whose bit lost
  that round.  After w rounds the root's word spells the winning value and
  every other word has rotated back to its original state.

A node acts only when driven: it stays dormant until the first bit reaches
it, then performs one receive and one send per global cycle.  Its local
clock counts its own send steps, which makes the clock thresholds in the
transition rules line up with the bit indices they compare against.

Transitions read only the node's own state and its latched inbox, so the
engine may evaluate nodes in any order within a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .topology import CayleyTopology, Role

__all__ = [
    "BitWord",
    "Mode",
    "NodeFlags",
    "Inbox",
    "Emission",
    "NodeState",
    "circular_left_shift",
    "make_node",
    "reset_flags",
    "receive_search",
    "send_search",
    "receive_max",
    "send_max",
]


class BitWord:
    """Fixed-width word; bit index 0 is the most significant bit.

    Instances are immutable by convention; every operation returns a new
    word.  Plain slots keep construction cheap, since the tournament
    rotates millions of these in a large fuzz run.
    """

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} out of range for width {width}")
        self.width = width
        self.value = value

    def bit(self, k: int) -> int:
        """Bit k counted from the MSB (k = 0) down to the LSB (k = w-1)."""
        if not 0 <= k < self.width:
            raise IndexError(f"bit index {k} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - k)) & 1

    @property
    def msb(self) -> int:
        return self.value >> (self.width - 1)

    def with_msb(self, bit: int) -> "BitWord":
        top = 1 << (self.width - 1)
        return BitWord(self.width, (self.value & (top - 1)) | (top if bit else 0))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitWord)
                and self.width == other.width and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __repr__(self) -> str:
        return f"BitWord({self.width}, 0b{self.value:0{self.width}b})"


def circular_left_shift(word: BitWord) -> BitWord:
    """One-bit left rotation: the MSB wraps around to the LSB."""
    w = word.width
    # Rotation preserves the width invariant, so skip re-validation.
    out = BitWord.__new__(BitWord)
    out.width = w
    out.value = ((word.value << 1) | (word.value >> (w - 1))) & ((1 << w) - 1)
    return out


class Mode(Enum):
    SEARCH = "search"
    MAX = "max"
    MIN = "min"
    IDLE = "idle"


@dataclass
class NodeFlags:
    """One node's flag registers.

    ``link_child`` has one slot per child (eta + 1 slots on the root, which
    repurposes its unused parent link for the extra child).  ``perm_disabled``
    is the sticky exclusion used by sorting: once set, ``link_mem`` comes back
    up as 1 after every reset, so the node's word sits out all later rounds.
    """

    state: int = 0
    start: int = 0
    match: int = 1
    link_mem: int = 0
    link_child: list[int] = field(default_factory=list)
    perm_disabled: int = 0


class Inbox:
    """Bits latched from the previous cycle's sends, one slot per port."""

    __slots__ = ("parent", "children", "child_count")

    def __init__(self, n_children: int) -> None:
        self.parent: int | None = None
        self.children: list[int | None] = [None] * n_children
        self.child_count = 0

    def clear(self) -> None:
        self.parent = None
        if self.child_count:
            kids = self.children
            for i in range(len(kids)):
                kids[i] = None
            self.child_count = 0

    def put_child(self, slot: int, bit: int) -> None:
        self.children[slot] = bit
        self.child_count += 1


class Emission(NamedTuple):
    """Bits a node puts on its ports this cycle (None = port silent)."""

    to_parent: int | None = None
    to_children: int | None = None


# Every emission is one bit on one port, so the four possible values are
# shared singletons.
_TO_PARENT = (Emission(to_parent=0), Emission(to_parent=1))
_TO_CHILDREN = (Emission(to_children=0), Emission(to_children=1))


class NodeState:
    """Full state of one processing element.

    Carries the word, the flags, the local clock (one tick per send step)
    and the latched inbox, plus bookkeeping counters the engine observes
    for termination: data bits written at the root, listen cycles at the
    root, and the match value each node held when its key-comparison phase
    ended.  ``neutral`` is the tournament's identity bit, 0 for max (an OR
    tournament) and 1 for min (an AND tournament).
    """

    __slots__ = (
        "id",
        "role",
        "depth",
        "n_children",
        "word",
        "flags",
        "local_clock",
        "inbox",
        "acted",
        "neutral",
        "writes",
        "listen_steps",
        "phase1_match",
    )

    def __init__(self, node_id: int, role: Role, depth: int, word: BitWord,
                 n_children: int) -> None:
        self.id = node_id
        self.role = role
        self.depth = depth
        self.n_children = n_children
        self.word = word
        self.flags = NodeFlags(link_child=[0] * n_children)
        self.local_clock = 0
        self.inbox = Inbox(n_children)
        self.acted = False
        self.neutral = 0
        self.writes = 0
        self.listen_steps = 0
        self.phase1_match: int | None = None


def make_node(topo: CayleyTopology, node_id: int, word: BitWord) -> NodeState:
    return NodeState(
        node_id,
        topo.role_of[node_id],
        topo.depth_of[node_id],
        word,
        len(topo.children_of[node_id]),
    )


def reset_flags(node: NodeState, next_mode: Mode) -> NodeState:
    """Re-initialise flags, clock and counters for the next run segment.

    Search: root wakes with all flags 1; everyone else sleeps with match
    armed, except permanently disabled nodes whose match is pre-forced to 0
    so they can never report a hit.  Max/min: leaves wake with state and
    start 1, everyone else sleeps, match is armed but unused.  Link flags
    all re-enable except the memory link of permanently disabled nodes.
    The word is deliberately left untouched.
    """
    if next_mode is Mode.IDLE:
        raise ValueError("cannot reset a node into idle mode")
    f = node.flags
    perm = f.perm_disabled
    if next_mode is Mode.SEARCH:
        if node.role is Role.ROOT:
            f.state = f.start = f.match = 1
        else:
            f.state = f.start = 0
            f.match = 0 if perm else 1
    else:
        if node.role is Role.LEAF:
            f.state = f.start = 1
        else:
            f.state = f.start = 0
        f.match = 1
    f.link_mem = 1 if perm else 0
    for i in range(len(f.link_child)):
        f.link_child[i] = 0
    node.local_clock = 0
    node.inbox.clear()
    node.acted = False
    node.neutral = 1 if next_mode is Mode.MIN else 0
    node.writes = 0
    node.listen_steps = 0
    node.phase1_match = None
    return node


def receive_search(node: NodeState, *, phase2: bool = True) -> NodeState:
    """Consume the node's latched inbox in search mode.

    Root: ignores everything while broadcasting; once done it absorbs the
    OR of its children's relayed match bits, sticking at 1.  Non-root with
    key bits still due: the parent bit becomes the node's state; the first
    one is the initiate (sets start), later ones are key bits compared
    against the node's own word, match sticking at 0 on a mismatch.  After
    the last key bit the node relays upward every cycle: state becomes the
    OR of its children's states or'd with its own match, which is then
    consumed.  With ``phase2`` false the node freezes at the end of the
    comparison phase instead, leaving match readable (sorting uses this).
    """
    incoming = node.inbox
    w = node.word.width
    f = node.flags
    if node.role is Role.ROOT:
        if node.local_clock <= w or not phase2:
            return node
        node.listen_steps += 1
        if incoming.child_count and any(incoming.children):
            f.state = 1
        return node

    if node.local_clock <= w:
        b = incoming.parent
        if b is None:
            return node
        f.state = b
        if not f.start:
            f.start = b
        elif f.match:
            # Key bit number clock compares against word bit clock-1 (MSB
            # first), i.e. the bit w-clock positions above the LSB.
            f.match = 1 if b == (node.word.value >> (w - node.local_clock)) & 1 else 0
        node.acted = True
        return node

    if not phase2:
        return node
    if node.phase1_match is None:
        node.phase1_match = f.match
    f.state = 1 if f.match or (incoming.child_count and any(incoming.children)) else 0
    f.match = 0
    node.acted = True
    return node


def send_search(node: NodeState, topo: CayleyTopology) -> tuple[NodeState, Emission | None]:
    """Produce this cycle's outgoing bits in search mode.

    The root emits the initiate bit at clock 0 and key bits at clocks 1..w,
    clearing its state latch after the last one so the listen phase starts
    from 0; afterwards it only waits (the wait still costs a clock tick).
    A non-root node emits only on cycles it acted: downward while key bits
    are flowing, upward afterwards.
    """
    w = node.word.width
    f = node.flags
    if node.role is Role.ROOT:
        c = node.local_clock
        node.local_clock += 1
        if c == 0:
            f.state = 1
            return node, _TO_CHILDREN[1]
        if c <= w:
            bit = node.word.bit(c - 1)
            f.state = 0 if c == w else bit
            return node, _TO_CHILDREN[bit]
        return node, None

    if not node.acted:
        return node, None
    node.acted = False
    c = node.local_clock
    node.local_clock += 1
    if c <= w:
        return node, _TO_CHILDREN[f.state]
    return node, _TO_PARENT[f.state]


def receive_max(node: NodeState) -> NodeState:
    """Consume the node's latched inbox in max/min mode.

    The first arriving bit is the initiate and only raises ``start``.  From
    then on, each cycle with child data is one tournament round: combine
    the bits of children whose links are up, plus the node's own MSB when
    its memory link is up (never at the root), with OR when ``neutral`` is
    0 (max) and AND when it is 1 (min).  Any participant whose bit differs
    from the round's result has its link cut for the rest of the run.  The
    result becomes the state; the root also writes it into its MSB.  Every
    round ends with a one-bit left rotation of the word, so w rounds
    restore it.  An empty participant set yields ``neutral``, the identity
    of the reduction.
    """
    incoming = node.inbox
    f = node.flags
    if node.role is Role.LEAF:
        return node
    if not f.start:
        # Only a nonzero bit is the initiate; data cannot be mistaken for
        # it because children stay silent until they have started too.
        if incoming.child_count and any(incoming.children):
            f.start = 1
            f.state = 1
            node.acted = True
        return node
    if not incoming.child_count:
        return node

    if incoming.child_count != node.n_children:
        raise ValueError(
            f"node {node.id}: partial child data ({incoming.child_count} of "
            f"{node.n_children}); tournament rounds must arrive in lockstep"
        )
    links = f.link_child
    use_and = s = node.neutral
    for i, b in enumerate(incoming.children):
        if not links[i]:
            s = (s & b) if use_and else (s | b)
    own = -1
    if node.role is Role.INTERMEDIATE and not f.link_mem:
        own = node.word.msb
        s = (s & own) if use_and else (s | own)
    for i, b in enumerate(incoming.children):
        if not links[i] and b != s:
            links[i] = 1
    if own >= 0 and own != s:
        f.link_mem = 1
    f.state = s
    if node.role is Role.ROOT:
        node.word = node.word.with_msb(s)
        node.writes += 1
    node.word = circular_left_shift(node.word)
    node.acted = True
    return node


def send_max(node: NodeState, topo: CayleyTopology) -> tuple[NodeState, Emission | None]:
    """Produce this cycle's outgoing bits in max/min mode.

    Leaves self-start: initiate at clock 0, then one word bit per cycle
    (MSB, rotate) until all w bits are out.  A leaf whose memory link is
    disabled streams ``neutral`` instead, keeping the pipeline full without
    letting its value compete.  Intermediates forward their state on
    cycles they acted.  The root never sends.
    """
    w = node.word.width
    f = node.flags
    if node.role is Role.LEAF:
        c = node.local_clock
        if c > w:
            return node, None
        node.local_clock += 1
        if c == 0:
            f.state = 1
            return node, _TO_PARENT[1]
        f.state = node.word.msb if not f.link_mem else node.neutral
        node.word = circular_left_shift(node.word)
        return node, _TO_PARENT[f.state]

    if node.role is Role.INTERMEDIATE:
        if not node.acted:
            return node, None
        node.acted = False
        node.local_clock += 1
        return node, _TO_PARENT[f.state]

    node.acted = False
    return node, None
