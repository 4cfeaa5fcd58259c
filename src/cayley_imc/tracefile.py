"""Trace files: the segment header, the recorder, and replay, as text or
parsed.

A trace file is a stream of one-line JSON ``TraceEvent``s.  Each run
segment is preceded by a '#'-prefixed header recording the run parameters,
which event consumers skip and the replayer uses to rebuild the cycle-0
tree.  Trace files come from outside the program, so the parsed rebuild
checks every field it reads; replay as text needs no check of its own.
"""

from __future__ import annotations

import json
import re
from itertools import repeat, takewhile
from typing import Callable, Iterable

from .node import Mode
from .planes import LoadedTree, _unpack
from .topology import CayleyTopology, TreeParams, build_topology, node_count

__all__ = ["trace_header", "Recorder", "replay_text", "parse_trace", "tree_from_events"]

_HEADER_PREFIX = "# cayley-imc-trace "
_UP = {"0": '{"parent":0}', "1": '{"parent":1}'}
# A segment's cycle-0 lines, and the two fields of each a rebuild reads, as
# the recorder writes them; compiled on first use (``re`` caches them).
_CYCLE0_LINES = r'(?:\{"cycle":0,[^\n]*\n)*'
_CYCLE0_FIELDS = (r'"word":([0-9]+),"state":[01],"start":[01],"match":[01],"l_m":[01],'
                  r'"l_children":\[[01,]*\],"perm_disabled":([01]),')
# A blank line, or a '#' line that is not a header, with the newline before
# it: the lines ``parse_trace`` skips.
_SKIPPED = r'\n[^\S\n]*(?:#(?!' + re.escape(_HEADER_PREFIX[1:]) + r')[^\n]*)?(?=\n)'


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
    strings only when its rotation did, from its cycle-0 words rotated: only
    the root's words, which a tournament writes, are unpacked again."""

    def __init__(self, write: Callable[[str], object]) -> None:
        self.write = write

    def __call__(self, tree: LoadedTree) -> None:
        levels, w, search = tree.levels, tree.w, tree.mode is Mode.SEARCH
        head = text = f'{{"cycle":{tree.cycle}'
        if not tree.cycle:
            layout, role = tree.topo.layout(), tree.topo.role
            where = [f',"depth":{d},"role":"{role(d).value}","word":' for d in range(len(layout))]
            self.idents = [[f',"node":{i}{where[d]}' for i in ids] for d, ids in enumerate(layout)]
            self.order = [sorted(range(len(ids)), key=ids.__getitem__) for ids in layout]
            self.clocks, self.keys = [0] * len(levels), [None] * len(levels)
            self.tails, self.words = [""] * tree.topo.n, [(None, None)] * len(levels)
            self.base = [_unpack(lv.words, lv.n) for lv in levels]  # rot is 0 at cycle 0
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
                r, mask = lv.rot, (1 << w) - 1
                words = ([(v << r | v >> w - r) & mask for v in self.base[d]] if d
                         else _unpack(lv.aligned(w), n))
                self.words[d] = r, list(map(str, words))
            words = self.words[d][1]
            mid = f',"start":{lv.start},"match":'
            tails = [f'{ident}{v},"state":{s}{mid}{m},"l_m":{lm},"l_children":{lc},'
                     f'"perm_disabled":{p},"emitted":{e}}}'
                     for ident, v, s, m, lm, lc, p, e in zip(
                         self.idents[d], words, state, match, l_m, kids, perm, emitted)]
            self.tails[first:first + n] = map(tails.__getitem__, self.order[d])
        self.write(text + ("\n" + head).join(self.tails) + "\n")


def replay_text(text: str) -> tuple[int, int]:
    """Replay each segment of a trace file's ``text``, comparing every chunk
    the recorder writes with the text where it stands; return the numbers
    of segments and events, or raise ValueError at the first difference.
    A text that differs is replayed once more without the blank lines and
    comments ``parse_trace`` skips, so a byte-equal text pays nothing for
    them.  Only headers are parsed: the replay writes them and every cycle-0
    line itself, so a match needs no field check."""
    try:
        return _replay_segments(text)
    except ValueError:
        kept = re.compile(_SKIPPED).sub("", f"\n{text}\n")[1:]  # every line between newlines
        if kept == text:
            raise
        return _replay_segments(kept)


def _replay_segments(text: str) -> tuple[int, int]:
    pos = segments = events = 0

    def compare(chunk: str) -> None:
        nonlocal pos
        if not text.startswith(chunk, pos):
            raise ValueError("trace text differs from its replay")
        pos += len(chunk)

    while pos < len(text) or not segments:  # each segment's first chunk starts with its header
        if not text.startswith(_HEADER_PREFIX, pos):
            raise ValueError("trace text has no segment header where its replay has one")
        start = text.index("\n", pos) + 1
        meta = json.loads(text[pos + len(_HEADER_PREFIX):start - 1])
        end = re.compile(_CYCLE0_LINES).match(text, start).end()
        fields = re.compile(_CYCLE0_FIELDS).findall(text, start, end)
        topo, mode, phase1_only = _segment(meta, len(fields))
        words, perm = zip(*fields)
        tree = LoadedTree.load(topo, mode, int(words[0]), list(map(int, words[1:])), 0,
                               bytes(map(int, perm)))
        cycles = tree.run(mode, phase1_only=phase1_only, on_step=Recorder(compare))
        segments, events = segments + 1, events + topo.n * (cycles + 1)  # n lines per cycle
    return segments, events


def parse_trace(lines: Iterable[str]) -> list[tuple[dict, list[dict]]]:
    """Split a trace stream into (header meta, event dict) segments, each
    line stripped; blank lines and other '#' lines are skipped."""
    segments: list[tuple[dict, list]] = []
    lineno = 0
    try:
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            if line.startswith(_HEADER_PREFIX):
                segments.append((json.loads(line[len(_HEADER_PREFIX):]), []))
            elif line and line[0] != "#":
                if not segments:
                    raise ValueError(f"trace line {lineno}: event before any segment header")
                segments[-1][1].append(json.loads(line))
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace line {lineno}: {exc}") from None
    except RecursionError:
        # json raises this, not a ValueError, on deeply nested arrays.
        raise ValueError(f"trace line {lineno}: JSON nested too deeply") from None
    return segments


_FLAG_FIELDS = ("state", "start", "match", "l_m", "perm_disabled")


def _int_field(record: dict, name: str, where: str) -> int:
    value = record.get(name)
    if type(value) is not int:
        raise ValueError(f"{where}: field {name!r} must be an integer, got {value!r}")
    return value


def _segment(meta, cycle0: int) -> tuple[CayleyTopology, Mode, bool]:
    """The topology, mode and ``phase1_only`` of a segment with ``cycle0``
    leading cycle-0 lines; raises ValueError on the first bad header field,
    or unless there is one line per node.  The lines are counted before
    anything is built, so a header naming a huge tree allocates nothing."""
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
    n = node_count(meta["eta"], meta["height"])
    if cycle0 != n:
        raise ValueError(f"trace segment has {cycle0} cycle-0 events, topology needs {n}")
    topo = build_topology(TreeParams(meta["eta"], meta["height"], meta["word_size"]))
    return topo, Mode(meta["mode"]), phase1_only


def tree_from_events(meta: dict, events: list[dict]) -> LoadedTree:
    """Rebuild a segment's tree from its cycle-0 events, loaded in the
    segment mode's reset state and carrying the header's ``phase1_only``
    for its run.

    Checks the header and the leading cycle-0 events, the only ones the
    rebuild reads, and raises ValueError on the first bad field, or on an
    event that is not the mode's reset state.  Later events are left to
    the replay comparison.
    """
    initial = list(takewhile(
        lambda e: isinstance(e, dict) and e.get("cycle") == 0, events))
    topo, mode, phase1_only = _segment(meta, len(initial))
    n, w, last = topo.n, topo.params.word_size, topo.params.height - 1
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
    tree = LoadedTree.load(topo, mode, words[0], words[1:], 0, perm)
    tree.phase1_only = phase1_only
    return tree
