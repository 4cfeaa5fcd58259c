"""Trace files: the segment header, the recorder, parsing, and rebuilding
for replay.

A trace file is a stream of one-line JSON ``TraceEvent``s.  Each run
segment is preceded by a '#'-prefixed header recording the run parameters,
which event consumers skip and the replayer uses to rebuild the cycle-0
tree.  Trace files come from outside the program, so the rebuild checks
every field it reads.
"""

from __future__ import annotations

import json
from itertools import repeat, takewhile
from typing import Callable, Iterable

from .node import Mode
from .planes import LoadedTree, _unpack
from .topology import TreeParams, build_topology, node_count

__all__ = ["trace_header", "Recorder", "split_trace", "parse_trace", "tree_from_events"]

_HEADER_PREFIX = "# cayley-imc-trace "
_UP = {"0": '{"parent":0}', "1": '{"parent":1}'}


def trace_header(tree) -> str:
    """Header line of the segment ``tree`` (a LoadedTree or a Configuration) runs."""
    p = tree.topo.params
    meta = {"eta": p.eta, "height": p.height, "word_size": p.word_size,
            "mode": tree.mode.value, "phase1_only": tree.phase1_only}
    return _HEADER_PREFIX + json.dumps(meta, separators=(",", ":"))


class Recorder:
    """``on_step`` observer of ``LoadedTree.run``: per cycle, one ``write`` of
    the lines ``snapshot(...).to_json()`` gives, read off the planes, after
    the header at cycle 0.  A level whose clock advanced in the cycle sent
    one bit down, in search only (the root while its clock was at most w,
    others while it is at most w + 1), or else its ``state`` plane up.  A
    level's lines are rebuilt only when its planes changed, and its word
    strings only when its rotation did."""

    def __init__(self, write: Callable[[str], object]) -> None:
        self.write = write

    def __call__(self, tree: LoadedTree) -> None:
        levels, w, search = tree.levels, tree.w, tree.mode is Mode.SEARCH
        head = text = f'{{"cycle":{tree.cycle}'
        if not tree.cycle:
            layout, role = tree.topo.layout(), tree.topo.role
            self.idents = [[f',"node":{i},"depth":{d},"role":"{role(d).value}","word":'
                            for i in ids] for d, ids in enumerate(layout)]
            self.order = [sorted(range(len(ids)), key=ids.__getitem__) for ids in layout]
            self.clocks, self.keys = [0] * len(levels), [None] * len(levels)
            self.tails, self.words = [""] * tree.topo.n, [(None, None)] * len(levels)
            text = trace_header(tree) + "\n" + head
        for d, (lv, first) in enumerate(zip(levels, tree.topo.offsets)):
            n, k, prev = lv.n, lv.k, self.clocks[d]
            self.clocks[d] = lv.clock
            down = None  # the bit sent to the children, or 2 for the state plane up
            if lv.clock != prev and d:
                down = (1 if lv.state else 0) if search and lv.clock <= w + 1 else 2
            elif lv.clock != prev and prev <= w:  # only a searching root's clock moves
                down = lv.words[prev - 1] if prev else 1
            key = (lv.rot, lv.state, lv.start, lv.match, lv.link_mem, lv.links, down)
            if key == self.keys[d]:
                continue
            self.keys[d] = key
            state, match, l_m, perm = (format(plane, f"0{n}b")[::-1]
                                       for plane in (lv.state, lv.match, lv.link_mem, lv.perm))
            kids = repeat(f"[{','.join('0' * k)}]")
            if lv.links:
                bits = format(lv.links, f"0{n * k}b")[::-1]
                kids = [f"[{','.join(bits[p::n])}]" for p in range(n)]  # slot s at s * n + p
            ports = ",".join([f'"c{s}":{down}' for s in range(k)]) if down in (0, 1) else ""
            emitted = map(_UP.__getitem__, state) if down == 2 else repeat("{" + ports + "}")
            if self.words[d][0] != lv.rot:  # a root write also turns rot
                self.words[d] = lv.rot, list(map(str, _unpack(lv.aligned(w), n)))
            words = self.words[d][1]
            mid = f',"start":{lv.start},"match":'
            tails = [f'{ident}{v},"state":{s}{mid}{m},"l_m":{lm},"l_children":{lc},'
                     f'"perm_disabled":{p},"emitted":{e}}}'
                     for ident, v, s, m, lm, lc, p, e in zip(
                         self.idents[d], words, state, match, l_m, kids, perm, emitted)]
            self.tails[first:first + n] = map(tails.__getitem__, self.order[d])
        self.write(text + ("\n" + head).join(self.tails) + "\n")


def split_trace(lines: Iterable[str], parse_event=str) -> list[tuple[dict, list]]:
    """Split a trace stream into (header meta, events) segments.

    The lines are stripped in one pass; only blank, comment and header
    lines are then handled one by one, and the event lines between them
    are taken as slices.  Each stripped event line goes through
    ``parse_event``: kept as text by default, so a caller can compare lines
    without parsing them.
    """
    lines = list(map(str.strip, lines))
    marks = [i for i, line in enumerate(lines) if not line or line[0] == "#"]
    segments: list[tuple[dict, list]] = []
    lineno = start = 0
    try:
        for mark in marks + [len(lines)]:
            if start < mark:  # event lines start + 1 .. mark
                if not segments:
                    raise ValueError(f"trace line {start + 1}: event before any segment header")
                events = segments[-1][1]
                if parse_event is str:
                    events += lines[start:mark]
                else:
                    for lineno in range(start + 1, mark + 1):
                        events.append(parse_event(lines[lineno - 1]))
            lineno = start = mark + 1
            if mark < len(lines) and lines[mark].startswith(_HEADER_PREFIX):
                segments.append((json.loads(lines[mark][len(_HEADER_PREFIX):]), []))
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


def tree_from_events(meta: dict, events: list[dict]) -> LoadedTree:
    """Rebuild a segment's tree from its cycle-0 events, loaded in the
    segment mode's reset state; its run applies the header's ``phase1_only``.

    Checks the header and the leading cycle-0 events, the only ones the
    rebuild reads, and raises ValueError on the first bad field, or on an
    event that is not the mode's reset state.  Later events are left to
    the replay comparison.
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

    initial = list(takewhile(
        lambda e: isinstance(e, dict) and e.get("cycle") == 0, events))
    # Count before building, so a header naming a huge tree allocates nothing.
    n = node_count(meta["eta"], meta["height"])
    if len(initial) != n:
        raise ValueError(
            f"trace segment has {len(initial)} cycle-0 events, topology needs {n}"
        )
    topo = build_topology(TreeParams(meta["eta"], meta["height"], meta["word_size"]))
    w, last = topo.params.word_size, topo.params.height - 1
    mode = Mode(meta["mode"])
    words: list[int | None] = [None] * n
    perm = bytearray(n)
    for e in initial:
        i = _int_field(e, "node", "cycle-0 event")
        where = f"cycle-0 event of node {i}"
        if not 0 <= i < n:
            raise ValueError(f"{where}: no such node in a {n}-node tree")
        if words[i] is not None:
            raise ValueError(f"{where}: node appears twice")
        word = _int_field(e, "word", where)
        if not 0 <= word < 1 << w:
            raise ValueError(f"{where}: word {word} out of range [0, 2^{w})")
        flags = [_int_field(e, name, where) for name in _FLAG_FIELDS]
        links = e.get("l_children")
        n_children = topo.fanout(d := topo.depth(i))
        if type(links) is not list or len(links) != n_children:
            raise ValueError(f"{where}: field 'l_children' must list {n_children} bits")
        if any(b not in (0, 1) or type(b) is not int for b in flags + links):
            raise ValueError(f"{where}: flag and link fields must be 0 or 1")
        # Planes hold only words and perm_disabled flags; the rest must be as
        # reset_flags leaves it: state and start 1 on the searching root and
        # on max/min leaves, match 0 only on disabled non-root search nodes.
        p = flags[4]
        awake = d == 0 if mode is Mode.SEARCH else d == last > 0
        if flags[:4] != [awake, awake, 1 - p if d and mode is Mode.SEARCH else 1, p] or any(links):
            raise ValueError(f"{where}: not the {mode.value} reset state of a "
                             f"{topo.role(d).value} with perm_disabled {p}")
        words[i], perm[i] = word, p
    return LoadedTree.load(topo, mode, words[0], words[1:], 0, perm)
