"""Synchronous lockstep scheduler over one tree of nodes.

Each global cycle every node first consumes the bits latched in its inbox,
then produces outgoing bits that are latched into its neighbours' inboxes
for the next cycle.  Signals therefore travel exactly one tree level per
cycle.  Within a cycle the per-node transitions are independent, so the
evaluation order never changes the outcome; runs are fully deterministic.

Termination is detected centrally by observing per-node progress counters
rather than by extra wire signals: the root's data-write count and the
leaves' send clocks for max/min, the relay drain after the key broadcast
for search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .node import (
    Mode,
    NodeState,
    receive_max,
    receive_search,
    reset_flags,
    send_max,
    send_search,
)
from .topology import CayleyTopology, TreeParams

__all__ = [
    "Configuration",
    "TraceEvent",
    "ProtocolError",
    "QuiescenceError",
    "step",
    "run_until_quiescent",
    "reset_configuration",
    "snapshot",
    "default_cycle_budget",
]


class ProtocolError(RuntimeError):
    """The simulated protocol violated one of its own guarantees."""


class QuiescenceError(ProtocolError):
    """A run exhausted its cycle budget without reaching quiescence."""


@dataclass
class Configuration:
    """Global snapshot: one NodeState per node plus the cycle counter.

    ``phase1_only`` freezes search-mode nodes at the end of their key
    comparison phase instead of letting them relay match bits upward;
    sorting uses it to read the settled match flags.
    """

    topo: CayleyTopology
    nodes: list[NodeState]
    mode: Mode = Mode.IDLE
    global_cycle: int = 0
    phase1_only: bool = False

    def __post_init__(self) -> None:
        if len(self.nodes) != self.topo.n:
            raise ValueError(
                f"configuration has {len(self.nodes)} nodes, topology has {self.topo.n}"
            )

    @property
    def root(self) -> NodeState:
        return self.nodes[0]


class TraceEvent(NamedTuple):
    """One node's externally visible state at the end of one cycle."""

    cycle: int
    node: int
    depth: int
    role: str
    word: int
    state: int
    start: int
    match: int
    l_m: int
    l_children: list[int]
    perm_disabled: int
    emitted: dict[str, int]

    def to_json(self) -> str:
        """Compact JSON in field order: what ``json.dumps(self._asdict(),
        separators=(",", ":"))`` writes for the values the engine records."""
        (cycle, node, depth, role, word, state, start, match, l_m, l_children,
         perm_disabled, emitted) = self
        em = ",".join([f'"{k}":{v}' for k, v in emitted.items()]) if emitted else ""
        return (f'{{"cycle":{cycle},"node":{node},"depth":{depth},"role":"{role}",'
                f'"word":{word},"state":{state},"start":{start},"match":{match},'
                f'"l_m":{l_m},"l_children":{str(l_children).replace(" ", "")},'
                f'"perm_disabled":{perm_disabled},"emitted":{{{em}}}}}')


def reset_configuration(cfg: Configuration, mode: Mode, *,
                        phase1_only: bool = False) -> Configuration:
    """Reset every node's flags for ``mode`` and rewind the cycle counter."""
    for node in cfg.nodes:
        reset_flags(node, mode)
    cfg.mode = mode
    cfg.global_cycle = 0
    cfg.phase1_only = phase1_only
    return cfg


def step(cfg: Configuration, *, capture: bool = False,
         order: Iterable[int] | None = None) -> list[dict[str, int]] | None:
    """Advance every node one receive+send round.

    Returns the per-node emissions (port name to bit) when ``capture`` is
    set, for trace recording.  ``order`` overrides the node evaluation
    order; results are identical for any permutation.
    """
    if cfg.mode is Mode.IDLE:
        raise ProtocolError("cannot step an idle configuration")
    topo = cfg.topo
    nodes = cfg.nodes
    ids = range(topo.n) if order is None else list(order)

    # A node's receive only reads its own latched inbox, so the slot can be
    # cleared immediately afterwards, ready for this cycle's sends.
    mode = cfg.mode
    if mode is Mode.SEARCH:
        phase2 = not cfg.phase1_only
        for i in ids:
            n = nodes[i]
            receive_search(n, phase2=phase2)
            n.inbox.clear()
    else:
        for i in ids:
            n = nodes[i]
            receive_max(n)
            n.inbox.clear()

    emitted: list[dict[str, int]] | None = [{} for _ in nodes] if capture else None
    send = send_search if mode is Mode.SEARCH else send_max
    parent_of = topo.parent_of
    parent_slot = topo.parent_slot
    children_of = topo.children_of
    for i in ids:
        n = nodes[i]
        _, em = send(n, topo)
        if em is None:
            continue
        if em.to_children is not None:
            bit = em.to_children
            for c in children_of[i]:
                nodes[c].inbox.parent = bit
            if emitted is not None:
                rec = emitted[i]
                for k, c in enumerate(children_of[i]):
                    rec[f"c{k}"] = bit
        if em.to_parent is not None:
            p = parent_of[i]
            if p >= 0:
                nodes[p].inbox.put_child(parent_slot[i], em.to_parent)
                if emitted is not None:
                    emitted[i]["parent"] = em.to_parent
    cfg.global_cycle += 1
    return emitted


def _quiescent(cfg: Configuration) -> bool:
    topo = cfg.topo
    nodes = cfg.nodes
    w = topo.params.word_size
    if cfg.mode is Mode.SEARCH:
        if cfg.phase1_only:
            # Done once every node has sent the initiate plus all w key bits.
            return all(n.local_clock >= w + 1 for n in nodes)
        # After the root's last send, key bits need h-1 more cycles to reach
        # the leaves, and the deepest match relay needs h further cycles to
        # climb back: 2h-1 listen cycles drain every signal in flight.
        h = topo.params.height
        root = nodes[0]
        return root.local_clock > w and root.listen_steps >= 2 * h - 1
    # Max/min: the root has assembled all w result bits and every leaf has
    # streamed out its whole word.
    if nodes[0].writes < w:
        return False
    return all(nodes[i].local_clock >= w + 1 for i in topo.leaves)


def _validate_quiescent(cfg: Configuration) -> None:
    if cfg.mode is Mode.SEARCH and not cfg.phase1_only:
        for n in cfg.nodes[1:]:
            if n.flags.match != 0 or n.flags.state != 0:
                raise ProtocolError(
                    f"search quiescence reached but node {n.id} has not drained "
                    f"(state={n.flags.state}, match={n.flags.match})"
                )


def default_cycle_budget(topo: CayleyTopology) -> int:
    """Generous step budget; exceeding it means the protocol is broken."""
    p = topo.params
    return 4 * (p.word_size + 2 * p.height + 2)


def run_until_quiescent(
    cfg: Configuration,
    max_cycles: int,
    on_step: Callable[[Configuration, list[dict[str, int]]], None] | None = None,
) -> tuple[Configuration, int]:
    """Step until the active mode's termination condition holds.

    Returns the configuration and the exact number of cycles used.  Raises
    QuiescenceError if ``max_cycles`` steps pass without quiescence; the
    budget is never silently truncated into a wrong answer.
    """
    if cfg.mode is Mode.IDLE:
        raise ProtocolError("cannot run an idle configuration")
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    start = cfg.global_cycle
    for _ in range(max_cycles):
        emissions = step(cfg, capture=on_step is not None)
        if on_step is not None:
            on_step(cfg, emissions or [])
        if _quiescent(cfg):
            _validate_quiescent(cfg)
            return cfg, cfg.global_cycle - start
    raise _budget_exhausted(cfg.mode, cfg.topo.params, max_cycles)


def _budget_exhausted(mode: Mode, p: TreeParams, max_cycles: int) -> QuiescenceError:
    return QuiescenceError(
        f"{mode.value} run not quiescent after {max_cycles} cycles "
        f"(eta={p.eta}, h={p.height}, w={p.word_size})"
    )


def snapshot(cfg: Configuration,
             emissions: list[dict[str, int]] | None = None) -> list[TraceEvent]:
    """One TraceEvent per node for the current cycle, values copied."""
    cycle = cfg.global_cycle
    events = []
    for n in cfg.nodes:
        f = n.flags
        events.append(TraceEvent(
            cycle, n.id, n.depth, n.role.value, n.word, f.state, f.start, f.match,
            f.link_mem, f.link_child[:], f.perm_disabled,
            dict(emissions[n.id]) if emissions is not None else {}))
    return events
