"""Hypothesis fuzz of the CLI: every input ends in exit 0, 1 or 2.

Exit 1 must come with exactly one line on stderr and no traceback.  Output
is captured with ``contextlib`` redirects and files live in a
``tempfile`` directory, because the function-scoped ``capsys`` and
``tmp_path`` fixtures are not reset between Hypothesis examples.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from cayley_imc import cli

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


@functools.lru_cache(maxsize=None)
def _recorded_trace() -> tuple[str, ...]:
    """The trace lines of a 4-node search, written by the CLI itself."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "search.trace")
        status, _, _ = _main("search", "--list", "5,2,7", "--key", "2",
                             "--word-size", "3", "--trace-out", path)
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
