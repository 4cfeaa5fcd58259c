"""Trace files: the segment header, parsing, and rebuilding for replay.

A trace file is a stream of one-line JSON ``TraceEvent``s.  Each run
segment is preceded by a '#'-prefixed header recording the run parameters,
which event consumers skip and the replayer uses to rebuild the cycle-0
configuration.  Trace files come from outside the program, so the rebuild
checks every field it reads.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable

from .engine import Configuration
from .node import Mode, NodeState, make_node
from .topology import TreeParams, build_topology, node_count

__all__ = ["trace_header", "split_trace", "parse_trace", "configuration_from_events"]

_HEADER_PREFIX = "# cayley-imc-trace "


def trace_header(cfg: Configuration) -> str:
    p = cfg.topo.params
    meta = {
        "eta": p.eta,
        "height": p.height,
        "word_size": p.word_size,
        "mode": cfg.mode.value,
        "phase1_only": cfg.phase1_only,
    }
    return _HEADER_PREFIX + json.dumps(meta, separators=(",", ":"))


def split_trace(lines: Iterable[str], parse_event=str) -> list[tuple[dict, list]]:
    """Split a trace stream into (header meta, events) segments.

    Each stripped event line goes through ``parse_event``: kept as text by
    default, so a caller can compare lines without parsing them.
    """
    segments: list[tuple[dict, list]] = []
    lineno = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                if line.startswith(_HEADER_PREFIX):
                    segments.append((json.loads(line[len(_HEADER_PREFIX):]), []))
                continue
            if not segments:
                raise ValueError(f"trace line {lineno}: event before any segment header")
            segments[-1][1].append(parse_event(line))
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace line {lineno}: {exc}") from None
    except RecursionError:
        # json raises this, not a ValueError, on deeply nested arrays.
        raise ValueError(f"trace line {lineno}: JSON nested too deeply") from None
    return segments


def parse_trace(lines: Iterable[str]) -> list[tuple[dict, list[dict]]]:
    """Split a trace stream into (header meta, event dict) segments."""
    return split_trace(lines, json.loads)


_FLAG_FIELDS = ("state", "start", "match", "l_m", "perm_disabled")


def _int_field(record: dict, name: str, where: str) -> int:
    value = record.get(name)
    if type(value) is not int:
        raise ValueError(f"{where}: field {name!r} must be an integer, got {value!r}")
    return value


def configuration_from_events(meta: dict, events: list[dict]) -> Configuration:
    """Rebuild a fresh (cycle 0) configuration from a trace segment.

    Checks the header and the leading cycle-0 events, the only ones the
    rebuild reads, and raises ValueError on the first bad field.  Later
    events are left to the replay comparison.
    """
    if not isinstance(meta, dict):
        raise ValueError("trace header is not a JSON object")
    for name in ("eta", "height", "word_size"):
        if _int_field(meta, name, "trace header") < 1:
            raise ValueError(f"trace header: field {name!r} must be >= 1, got {meta[name]}")
    if meta.get("mode") not in (Mode.SEARCH.value, Mode.MAX.value, Mode.MIN.value):
        raise ValueError(
            f"trace header: field 'mode' must be search, max or min, got {meta.get('mode')!r}")
    phase1_only = meta.get("phase1_only", False)
    if type(phase1_only) is not bool:
        raise ValueError(
            f"trace header: field 'phase1_only' must be true or false, got {phase1_only!r}")

    initial = list(itertools.takewhile(
        lambda e: isinstance(e, dict) and e.get("cycle") == 0, events))
    # Count before building, so a header naming a huge tree allocates nothing.
    n = node_count(meta["eta"], meta["height"])
    if len(initial) != n:
        raise ValueError(
            f"trace segment has {len(initial)} cycle-0 events, topology needs {n}"
        )
    topo = build_topology(TreeParams(meta["eta"], meta["height"], meta["word_size"]))
    w = topo.params.word_size
    mode = Mode(meta["mode"])
    nodes: list[NodeState] = [None] * n  # type: ignore[list-item]
    for e in initial:
        i = _int_field(e, "node", "cycle-0 event")
        where = f"cycle-0 event of node {i}"
        if not 0 <= i < n:
            raise ValueError(f"{where}: no such node in a {n}-node tree")
        if nodes[i] is not None:
            raise ValueError(f"{where}: node appears twice")
        word = _int_field(e, "word", where)
        if not 0 <= word < 1 << w:
            raise ValueError(f"{where}: word {word} out of range [0, 2^{w})")
        flags = [_int_field(e, name, where) for name in _FLAG_FIELDS]
        links = e.get("l_children")
        n_children = len(topo.children_of[i])
        if type(links) is not list or len(links) != n_children:
            raise ValueError(f"{where}: field 'l_children' must list {n_children} bits")
        if any(b not in (0, 1) or type(b) is not int for b in flags + links):
            raise ValueError(f"{where}: flag and link fields must be 0 or 1")
        node = make_node(topo, i, word)
        f = node.flags
        f.state, f.start, f.match, f.link_mem, f.perm_disabled = flags
        f.link_child[:] = links
        node.neutral = 1 if mode is Mode.MIN else 0
        nodes[i] = node
    return Configuration(
        topo=topo,
        nodes=nodes,
        mode=mode,
        global_cycle=0,
        phase1_only=phase1_only,
    )
