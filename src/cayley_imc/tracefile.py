"""Trace files: the segment header, the recorder, and ``verify``, which
replays a file as text, or parsed where the text differs.

A trace file is a stream of one-line JSON ``TraceEvent``s.  Each run
segment is preceded by a '#'-prefixed header recording the run parameters,
which event consumers skip and the replayer uses to rebuild the cycle-0
tree.  Trace files come from outside the program, so the parsed rebuild
checks every field it reads; replay as text needs no check of its own.
"""

from __future__ import annotations

import contextlib
import json
import re
import struct
from array import array
from functools import lru_cache
from itertools import takewhile
from operator import itemgetter
from typing import Callable, Iterable

from .node import Mode
from .planes import LoadedTree
from .topology import _BITS, CayleyTopology, TreeParams, build_topology, node_count

__all__ = ["trace_header", "Recorder", "Divergence", "verify", "parse_trace", "tree_from_events"]

_HEADER_PREFIX = "# cayley-imc-trace "
_DECIMALS = tuple(map(str, range(256)))  # the words of w <= 8 bits
# A blank line, or a '#' line that is not a header: the lines ``parse_trace``
# skips.  Patterns are compiled on first use (``re`` caches them).
_NOTE = r'[^\S\n]*(?:#(?!' + re.escape(_HEADER_PREFIX[1:]) + r')[^\n]*)?'
_SKIPPED = r'\n' + _NOTE + r'(?=\n)'  # with the newline before it
# A segment's cycle-0 lines, notes among them, and the two fields of each a
# rebuild reads, as the recorder writes them.
_CYCLE0_LINES = r'(?:(?:\{"cycle":0,[^\n]*|' + _NOTE + r')\n)*'
_CYCLE0_FIELDS = (r'"word":([0-9]+),"state":[01],"start":[01],"match":[01],"l_m":[01],'
                  r'"l_children":\[[01,]*\],"perm_disabled":([01]),')


def trace_header(tree) -> str:
    """Header line of the segment ``tree`` (a LoadedTree or a Configuration) runs."""
    p = tree.topo.params
    meta = {"eta": p.eta, "height": p.height, "word_size": p.word_size,
            "mode": tree.mode.value, "phase1_only": tree.phase1_only}
    return _HEADER_PREFIX + json.dumps(meta, separators=(",", ":"))


def _shape(topo: CayleyTopology) -> tuple[list[str], list[itemgetter]]:
    """A cycle's four pieces per node (see ``Recorder``) with each node's
    ``,"node":i,...,"word":`` text in place, and per level the picker that
    puts a sequence in position order in id order."""
    parts, picks, offsets = [""] * (4 * topo.n), [], topo.offsets
    for d, (first, stop) in enumerate(zip(offsets, offsets[1:])):
        where = f',"depth":{d},"role":"{topo.role(d).value}","word":'
        parts[4 * first + 1:4 * stop:4] = [f',"node":{i}{where}' for i in range(first, stop)]
        order = array("q", memoryview(array("q", range(stop - first))).cast("B")
                      .cast("q", topo.axes(d)[::-1]).tobytes("F"))  # each id's position
        picks.append(itemgetter(*order) if d else itemgetter(slice(None)))  # a lone root
    return parts, picks


@lru_cache(maxsize=64)
def _flag_text(start: int, down: int | None, k: int) -> tuple[dict, dict, dict]:
    """Per code character (bits ``state``, ``match``, ``l_m``, ``perm_disabled``
    from 0): a level's text up to its child links, after them, and unlinked."""
    ports = ",".join([f'"c{s}":{down}' for s in range(k)]) if down in (0, 1) else ""
    heads = {f"{c:x}": f',"state":{c & 1},"start":{start},"match":{c >> 1 & 1},'
                       f'"l_m":{c >> 2 & 1},"l_children":[' for c in range(16)}
    ends = {f"{c:x}": f'],"perm_disabled":{c >> 3},"emitted":{{'
                      + (f'"parent":{c & 1}' if down == 2 else ports) + "}}\n" for c in range(16)}
    return {c: heads[c] + ",".join("0" * k) + ends[c] for c in heads}, heads, ends


def _lookup(table, keys) -> Iterable[str]:
    """``table[key]`` for each of ``keys``, in one C-level pass."""
    return itemgetter(*keys)(table) if len(keys) > 1 else [table[keys[0]]]


class Recorder:
    """``on_step`` observer of ``LoadedTree.run``: per cycle, one ``write`` of
    the lines ``snapshot(...).to_json()`` gives, read off the planes, after
    the header at cycle 0.  A level whose clock advanced in the cycle sent
    one bit down, in search only (the root while its clock was at most w,
    others while it is at most w + 1), or else its ``state`` plane up.

    A cycle's text is one join of four pieces per node in id order: cycle,
    fixed text, word and flags.  A level's pieces are rebuilt only when its
    planes changed, by C-level passes: its flag planes, read as hex so a
    node's bit has a nibble, OR into one code character per node, which
    picks its flag text from a table; its cycle-0 words, in 8- to 64-bit
    fields, turn all at once by two masks and two shifts (the root's, which
    a tournament writes, are read off the planes); its picker puts codes,
    words and link lists in id order.  Fixed text and pickers are kept for
    the recorder's next segment only, and only if it has the same shape."""

    def __init__(self, write: Callable[[str], object]) -> None:
        self.write, self.topo = write, None

    def __call__(self, tree: LoadedTree) -> None:
        levels, w, search, text = tree.levels, tree.w, tree.mode is Mode.SEARCH, ""
        if not tree.cycle:
            field = "BHIQ"[((w - 1) // 8).bit_length()]  # the narrowest that holds w bits
            size, n, h = struct.calcsize(field), tree.topo.n, len(levels)
            words = 0  # field i holds the word at the i-th position of the tree; rot is 0
            for j in range(w):  # plane j of every level, MSB first
                bits = "".join([format(lv.words[j], f"0{lv.n}b") for lv in reversed(levels)])
                spread = bytearray(size * n)
                spread[size - 1::size] = bits.encode().translate(_BITS)
                words = words << 1 | int.from_bytes(spread, "big")
            words, one = words.to_bytes(size * n, "little"), b"\1".ljust(size, b"\0")
            self.base = [(struct.Struct(f"<{lv.n}{field}"), int.from_bytes(one * lv.n, "little"),
                          int.from_bytes(words[size * first:size * (first + lv.n)], "little"))
                         for lv, first in zip(levels, tree.topo.offsets)]
            if tree.topo != self.topo:  # a later segment of this shape keeps them
                self.topo, (self.parts, self.picks) = tree.topo, _shape(tree.topo)
            self.clocks, self.keys, self.kids = [0] * h, [(None,) * 7] * h, [()] * h
            text = trace_header(tree) + "\n"
        self.parts[::4] = [f'{{"cycle":{tree.cycle}'] * tree.topo.n
        for d, (lv, first, pick) in enumerate(zip(levels, tree.topo.offsets, self.picks)):
            n, k, prev, old = lv.n, lv.k, self.clocks[d], self.keys[d]
            self.clocks[d] = lv.clock
            down = None  # the bit sent to the children, or 2 for the state plane up
            if lv.clock != prev and d:
                down = (1 if lv.state else 0) if search and lv.clock <= w + 1 else 2
            elif lv.clock != prev and prev <= w:  # only a searching root's clock moves
                down = lv.words[prev - 1] if prev else 1
            self.keys[d] = (lv.rot, lv.state, lv.start, lv.match, lv.link_mem, lv.links, down)
            if self.keys[d] == old:
                continue
            if old[0] != lv.rot:  # a root write also turns rot
                (fields, ones, x), r = self.base[d], lv.rot
                x = (x & ((1 << w - r) - 1) * ones) << r | x >> w - r & ((1 << r) - 1) * ones
                words = pick(fields.unpack(x.to_bytes(fields.size, "little")))
                words = words if d else [tree.root_word]
                self.parts[4 * first + 2:4 * (first + n):4] = (
                    _lookup(_DECIMALS, words) if w <= 8 else map(str, words))
            code = (int(format(lv.state, "b"), 16) | int(format(lv.match, "b"), 16) << 1
                    | int(format(lv.link_mem, "b"), 16) << 2 | int(format(lv.perm, "b"), 16) << 3)
            codes = pick(format(code, f"0{n}x")[::-1])  # position 0 first
            unlinked, heads, ends = _flag_text(lv.start, down, k)
            if lv.links and old[5] != lv.links:  # cut since the last rebuild (key[5])
                bits = format(lv.links, f"0{n * k}b")[::-1]  # slot s, position p: s * n + p
                self.kids[d] = pick(list(map(",".join, zip(*[bits[s * n:s * n + n]
                                                             for s in range(k)]))))
            self.parts[4 * first + 3:4 * (first + n):4] = (
                map("".join, zip(_lookup(heads, codes), self.kids[d], _lookup(ends, codes)))
                if lv.links else _lookup(unlinked, codes))
        self.write(text + "".join(self.parts))


class Divergence(Exception):
    """A trace that differs from its replay; not a ValueError, which marks a bad file."""


def verify(text: str) -> tuple[int, int]:
    """Replay each segment of a trace file's ``text``; return the numbers of
    segments and events, or raise ``Divergence``, or ValueError on a bad
    file.  A text that is not the replay's is parsed and compared record by
    record, and errors and divergences are reported from there."""
    with contextlib.suppress(Exception):  # the parsed comparison raises or reports it again
        return _replay_text(text)
    segments = parse_trace(text.split("\n"))
    for seg_idx, (meta, events) in enumerate(segments):
        tree, out = tree_from_events(meta, events), []
        tree.run(tree.mode, phase1_only=tree.phase1_only,
                 on_step=Recorder(lambda chunk: out.extend(chunk.splitlines())))
        replayed = list(map(json.loads, out[1:]))  # after the header
        if replayed != events:
            report = [f"trace: segment {seg_idx} diverges from replay"]
            for i, (a, b) in enumerate(zip(events, replayed)):
                if a != b:
                    report += [f"  first difference at event {i}:",
                               f"    recorded: {json.dumps(a, separators=(',', ':'))}",
                               f"    replayed: {json.dumps(b, separators=(',', ':'))}"]
                    break
            else:
                report.append(f"  recorded {len(events)} events, replay produced {len(replayed)}")
            raise Divergence("\n".join(report))
    return len(segments), sum(len(events) for _, events in segments)


def _replay_text(text: str) -> tuple[int, int]:
    """Replay each segment, comparing every chunk the recorder writes with
    the text where it stands; raise ValueError at the first difference.
    A miss drops the lines ``parse_trace`` skips from the rest of the text
    and compares again.  Only headers are parsed: the replay writes them
    and every cycle-0 line itself."""

    def at(chunk: str) -> bool:
        nonlocal text, pos
        if not text.startswith(chunk, pos):  # after one drop, a later one drops nothing
            # The rest, between newlines so its first and last lines go too.
            text, pos = re.compile(_SKIPPED).sub("", f"\n{text[pos:]}\n"), 1
        return text.startswith(chunk, pos)

    def compare(chunk: str) -> None:
        nonlocal pos
        if not at(chunk):
            raise ValueError("trace text differs from its replay")
        pos += len(chunk)

    record, pos, segments, events = Recorder(compare), 0, 0, 0  # one recorder for all segments
    while pos < len(text) or not segments:  # each segment's first chunk starts with its header
        if not at(_HEADER_PREFIX):
            if segments and pos == len(text):  # only dropped lines were left
                break
            raise ValueError("trace text has no segment header where its replay has one")
        start = text.index("\n", pos) + 1
        meta = json.loads(text[pos + len(_HEADER_PREFIX):start - 1])
        end = re.compile(_CYCLE0_LINES).match(text, start).end()
        fields = re.compile(_CYCLE0_FIELDS).findall(text, start, end)
        topo, mode, phase1_only = _segment(meta, len(fields))
        words, perm = zip(*fields)
        tree = LoadedTree.load(topo, mode, int(words[0]), list(map(int, words[1:])), 0,
                               bytes(map(int, perm)))
        cycles = tree.run(mode, phase1_only=phase1_only, on_step=record)
        segments, events = segments + 1, events + topo.n * (cycles + 1)  # n lines per cycle
    return segments, events


def parse_trace(lines: Iterable[str]) -> list[tuple[dict, list[dict]]]:
    """Split a trace stream into (header meta, event dict) segments, each
    line stripped; blank lines and other '#' lines are skipped."""
    segments: list[tuple[dict, list]] = []
    try:
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            if line.startswith(_HEADER_PREFIX):
                segments.append((json.loads(line[len(_HEADER_PREFIX):]), []))
            elif line and line[0] != "#":
                if not segments:
                    raise ValueError("event before any segment header")
                segments[-1][1].append(json.loads(line))
    except ValueError as exc:  # json's, CPython's digit limit among them, or the one above
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
