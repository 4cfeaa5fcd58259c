"""Hypothesis fuzz of the CLI: every input ends in exit 0, 1 or 2.

Exit 1 must come with exactly one line on stderr and no traceback, and
trace replay's whole-text comparison must print what the parsed comparison
prints.  Output is captured with ``contextlib`` redirects and files live in
a ``tempfile`` directory, because the function-scoped ``capsys`` and
``tmp_path`` fixtures are not reset between Hypothesis examples.
"""

import contextlib
import functools
import io
import json
import os
import re
import tempfile
from itertools import takewhile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cayley_imc import cli, planes, tracefile

_HEADER_PREFIX = "# cayley-imc-trace "


def _main(*argv):
    """Run ``cli.main``; return (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))  # usage errors too return, with status 1
    return status, out.getvalue(), err.getvalue()


def _check_exit(status, err):
    assert status in (0, 1, 2), status
    if status == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), err


@settings(deadline=None, max_examples=200)
@given(st.text(), st.integers(1, 64))
def test_parse_input_values_fit_or_value_error(text, word_size):
    try:
        values = cli.parse_input(text, word_size)
    except ValueError:  # what main turns into exit 1
        return
    assert all(type(v) is int and 0 <= v < 1 << word_size for v in values)


def _scan(text, word_size):
    """The reference for ``parse_input``: each line that is not a comment,
    each token of it in turn, the first bad token named."""
    values, limit = [], 1 << word_size
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.lstrip().startswith("#"):
            for match in re.finditer(r"[^\s,]+", line):
                token, where = match.group(), f"line {lineno}, column {match.start() + 1}"
                if not (token.isascii() and token.isdigit()):
                    shown = repr(token)  # past 20 characters, its first 20 and its length
                    if len(token) > 20:
                        shown = f"{token[:20]!r}... ({len(token)} characters)"
                    return f"{where}: {shown} is not a non-negative decimal integer"
                if int(token) >= limit:
                    value = str(int(token))  # past 20 digits, its first 20 and their count
                    if len(value) > 20:
                        value = f"{value[:20]}... ({len(value)} digits)"
                    return (f"{where}: value {value} does not fit in a {word_size}-bit word "
                            f"(max {limit - 1})")
                values.append(int(token))
    return values


# Digits, separators, line breaks that splitlines() knows and "\n" does not,
# whitespace that is no line break, comments, and tokens that are not
# decimal integers or only look like one.
_PIECES = st.sampled_from(["0", "7", "255", "256", "18446744073709551616", "0" * 30 + "1",
                           " ", ",", "\t", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1f",
                           "\x85", "\u2028", "\u00a0", "#", "# 5", "x", "-1", "\u0663", "\u00b2"])


@settings(deadline=None, max_examples=300)
@given(st.lists(_PIECES, max_size=30).map("".join), st.integers(1, 64))
def test_parse_input_is_the_token_scan(text, word_size):
    """The whole-text pass accepts exactly what the scan accepts, with the
    same values, and otherwise the same first bad token is named."""
    try:
        got = cli.parse_input(text, word_size)
    except cli.InputError as exc:
        got = str(exc)
    assert got == _scan(text, word_size)


_TOKENS = st.one_of(st.integers(0, 300).map(str),
                    st.sampled_from(("-1", "x", "1.5", "# 3", "", " ")))


@st.composite
def _argv(draw):
    """A subcommand plus options; trees stay under about 2,000 nodes.  About
    one option value in ten is not an integer, and about one argv in ten
    carries an unknown option."""
    command = draw(st.sampled_from(("search", "max", "min", "sort", "info")))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--list=" + ",".join(draw(st.lists(_TOKENS, max_size=12))))
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(0, 3))}")
    options = [("--count", st.integers(-3, 40)), ("--eta", st.integers(-1, 4)),
               ("--height", st.integers(-1, 6)), ("--word-size", st.integers(-1, 66))]
    if command == "search":
        options.append(("--key", st.integers(-2, 300)))
    for flag, values in options:
        if draw(st.booleans()):
            value = draw(values) if draw(st.integers(0, 9)) else "x"
            argv.append(f"{flag}={value}")
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


@settings(deadline=None, max_examples=150)
@given(_argv())
def test_scheme_and_info_commands_exit_cleanly(argv):
    status, _, err = _main(*argv)
    _check_exit(status, err)


_TRACE_RUNS = {
    "search": ("search", "--list", "5,2,7", "--key", "2", "--word-size", "3"),
    "max": ("max", "--list", "14,9,5,14,7,11,10,10", "--word-size", "4"),
    # Two rounds: four segments.
    "sort": ("sort", "--list", "3,1,3", "--word-size", "2"),
}


@functools.lru_cache(maxsize=None)
def _recorded_trace(kind: str = "search") -> tuple[str, ...]:
    """The trace lines of a 4-node search, a 10-node max or a 4-node sort,
    written by the CLI itself."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{kind}.trace")
        status, _, _ = _main(*_TRACE_RUNS[kind], "--trace-out", path)
        assert status == 0
        with open(path, encoding="utf-8") as fh:
            return tuple(fh.read().splitlines())


def _replay(content: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.trace")
        with open(path, "wb") as fh:
            fh.write(content)
        return _main("trace", path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 70), 1 << 70)
    | st.integers(-2, 10) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@settings(deadline=None, max_examples=100)
@given(st.binary(max_size=300))
def test_trace_of_random_bytes_exits_cleanly(content):
    status, _, err = _replay(content)
    _check_exit(status, err)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_trace_with_a_bad_header_or_cycle0_field_exits_cleanly(data):
    lines = list(_recorded_trace())
    # Line 0 is the header; lines 1..4 are the cycle-0 events of the 4 nodes,
    # where "word" is drawn more often: the rebuild is its only check.
    i = data.draw(st.integers(0, 4))
    prefix = _HEADER_PREFIX if i == 0 else ""
    record = json.loads(lines[i][len(prefix):])
    name = data.draw(st.sampled_from(sorted(record) + ([] if i == 0 else ["word"] * 3)))
    if data.draw(st.integers(0, 9)) == 0:
        del record[name]
    elif name == "word":
        record[name] = data.draw(st.integers(-3, 10) | st.integers(1 << 62, 1 << 66) | _JSON)
    else:
        record[name] = data.draw(_JSON)
    lines[i] = prefix + json.dumps(record)
    status, _, err = _replay("\n".join(lines).encode() + b"\n")
    _check_exit(status, err)
    if name == "word" and i:
        word = record.get(name)
        if type(word) is not int:
            assert status == 1 and "'word'" in err, err
        elif not 0 <= word < 8:
            assert status == 1 and "out of range" in err, err


def _refuse(*args, **kwargs):
    raise RuntimeError("switched off in this test")


def _replay_parsed_only(content: bytes):
    """Replay with the whole-text comparison switched off."""
    with mock.patch.object(tracefile, "_replay_text", _refuse):
        return _replay(content)


_LINE_EDITS = ("value", "spaced", "shuffled", "delete", "duplicate", "corrupt", "trailing",
               "blank", "comment", "swapped", "header_key", "truncated")
# Edits after which the file still matches its replay.
_EQUAL_EDITS = ("spaced", "shuffled", "trailing", "blank", "comment", "header_key")


@settings(deadline=None, max_examples=250)
@given(st.sampled_from(sorted(_TRACE_RUNS)), st.sampled_from(_LINE_EDITS), st.data())
def test_text_first_replay_reports_what_the_parsed_comparison_reports(kind, edit, data):
    lines = list(_recorded_trace(kind))
    headers = [j for j, line in enumerate(lines) if line.startswith(_HEADER_PREFIX)]
    i = data.draw(st.sampled_from(sorted(set(range(len(lines))) - set(headers))))
    seg = data.draw(st.sampled_from(headers))  # a segment's header line
    if edit in ("value", "spaced", "shuffled"):
        record = json.loads(lines[i])
    if edit == "value":
        name = data.draw(st.sampled_from(sorted(record)))
        record[name] = data.draw(st.integers(0, 3) | _JSON)
        lines[i] = json.dumps(record, separators=(",", ":"))
    elif edit == "spaced":
        lines[i] = json.dumps(record)
    elif edit == "shuffled":
        keys = data.draw(st.permutations(sorted(record)))
        lines[i] = json.dumps({k: record[k] for k in keys}, separators=(",", ":"))
    elif edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "corrupt":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
    elif edit == "trailing":
        lines[i] += "  "
    elif edit == "blank":
        lines.insert(i, "")
    elif edit == "comment":
        lines.insert(i, "# a note")
    elif edit == "swapped":  # two of a segment's cycle-0 lines
        cycle0 = list(takewhile(lambda j: lines[j].startswith('{"cycle":0,'),
                                range(seg + 1, len(lines))))
        a, b = data.draw(st.permutations(cycle0))[:2]
        lines[a], lines[b] = lines[b], lines[a]
    elif edit == "header_key":
        lines[seg] = lines[seg][:-1] + ',"note":1}'
    else:  # a later segment, where there is one, cut short
        seg = data.draw(st.sampled_from(headers[1:] or headers))
        end = next((j for j in headers if j > seg), len(lines))
        del lines[data.draw(st.integers(seg + 1, end - 1)):end]
    content = "\n".join(lines).encode() + b"\n"
    result = _replay(content)
    assert result == _replay_parsed_only(content)
    if edit in _EQUAL_EDITS:
        assert result[0] == 0, result
    if edit in ("swapped", "truncated"):
        assert result[0] != 0, result


def _assert_matched_as_text(lines, headers):
    """The trace ``lines`` match their replay with the parsed comparison
    switched off, only the ``headers`` reach ``json.loads``, and each
    segment is run once."""
    content = "\n".join(lines).encode() + b"\n"
    parsed, loads = [], json.loads
    runs, run = [], planes.LoadedTree.run

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    def counted(tree, *args, **kwargs):
        runs.append(tree)
        return run(tree, *args, **kwargs)

    # tracefile calls the json module's loads; cli imports the same module.
    assert tracefile.json is cli.json is json
    with mock.patch.object(tracefile, "parse_trace", _refuse), \
            mock.patch.object(json, "loads", spy), \
            mock.patch.object(planes.LoadedTree, "run", counted):
        status, out, err = _replay(content)
    assert (status, err) == (0, "") and out.endswith(" replay matches\n"), (out, err)
    assert parsed == [line[len(_HEADER_PREFIX):] for line in headers]
    assert len(runs) == len(headers)


def _headers(lines):
    return [line for line in lines if line.startswith(_HEADER_PREFIX)]


@pytest.mark.parametrize("kind", sorted(_TRACE_RUNS))
def test_unchanged_trace_is_matched_as_text(kind):
    lines = _recorded_trace(kind)
    _assert_matched_as_text(lines, _headers(lines))


@pytest.mark.parametrize("kind", sorted(_TRACE_RUNS))
def test_annotated_trace_is_matched_as_text(kind):
    # The lines parse_trace skips are dropped before the text comparison.
    lines = list(_recorded_trace(kind))
    annotated = ["# a note"] + lines[:3] + [""] + lines[3:] + ["  # the end"]
    _assert_matched_as_text(annotated, _headers(lines))


@pytest.mark.parametrize("kind", sorted(_TRACE_RUNS))
@pytest.mark.parametrize("place", ["cycle0", "end"])
def test_a_lone_note_is_matched_as_text(kind, place):
    # The first miss is at the note: among the cycle-0 lines, which the
    # rebuild reads around it, or after the last segment, which it ends.
    lines = list(_recorded_trace(kind))
    at = 2 if place == "cycle0" else len(lines)
    _assert_matched_as_text(lines[:at] + ["# a note"] + lines[at:], _headers(lines))


@pytest.mark.parametrize("kind", sorted(_TRACE_RUNS))
def test_reformatted_equal_trace_still_matches(kind):
    # Default json.dumps separators, CRLF line ends, comments and blank lines.
    lines = []
    for k, line in enumerate(_recorded_trace(kind)):
        prefix = _HEADER_PREFIX if line.startswith(_HEADER_PREFIX) else ""
        lines += [prefix + json.dumps(json.loads(line[len(prefix):])),
                  "# a comment" if k % 2 else ""]
    status, out, err = _replay("\r\n".join(lines).encode() + b"\r\n")
    events = sum(1 for line in _recorded_trace(kind) if line[0] == "{")
    segments = len(_recorded_trace(kind)) - events
    assert (status, out, err) == (
        0, f"trace: {segments} segment(s), {events} events, replay matches\n", "")
