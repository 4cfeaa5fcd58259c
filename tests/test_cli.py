"""Command-line surface: parsing, result blocks, traces, exit codes."""

import hashlib
import json
import re

import pytest

from cayley_imc import cli, node, planes, tracefile
from cayley_imc.cli import InputError, main, parse_input
from cayley_imc.topology import MAX_NODES, MAX_WORD_SIZE, Role, TreeParams, build_topology

# Past the 4,300 digits that CPython (3.10.7 and later) lets int() read from a
# string: each number from outside is sized by its digits first.
_LONG = "9" * 5000
_PADDED_7 = "0" * 5000 + "7"

class TestParseInput:
    def test_worked_example_list(self):
        assert parse_input("14,9,6,10,14,7,11,11,10", 4) == \
            [14, 9, 6, 10, 14, 7, 11, 11, 10]

    def test_separators_and_comments(self):
        text = "# a comment\n5\n1, 2\t\n3 4\n"
        assert parse_input(text, 4) == [5, 1, 2, 3, 4]

    def test_range_error_names_value_and_width(self):
        with pytest.raises(InputError) as err:
            parse_input("16", 4)
        assert "16" in str(err.value) and "4-bit" in str(err.value)

    def test_malformed_token_reports_position(self):
        with pytest.raises(InputError) as err:
            parse_input("1 2\nx 4", 4)
        assert "line 2" in str(err.value)

    # Unicode digits pass str.isdigit; only ASCII 0-9 spell a decimal integer.
    @pytest.mark.parametrize("token", ["\u0663", "\u00b2"],
                             ids=["arabic-indic-three", "superscript-two"])
    def test_non_ascii_digit_reports_position(self, token):
        with pytest.raises(InputError) as err:
            parse_input(f"1 2\n{token} 4", 8)
        assert "line 2, column 1" in str(err.value)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            parse_input("-3", 8)

    # The whole-text pass only accepts; the first bad token in text order is
    # named by its line and column, as splitlines() numbers the lines.
    @pytest.mark.parametrize("text,message", [
        ("# 1 x\n2 3\n# y\n4 x5", "line 4, column 3: 'x5' is not a non-negative decimal integer"),
        ("1\r\n2, 3\r\n\r\n4,y\r\n", "line 4, column 3: 'y' is not a non-negative decimal integer"),
        ("1\t2,3 ,\t,4,\t z", "line 1, column 14: 'z' is not a non-negative decimal integer"),
        ("1 2\n3 \u0663", "line 2, column 3: '\u0663' is not a non-negative decimal integer"),
        ("255,0\n7 256 9999", "line 2, column 3: value 256 does not fit in a 8-bit word (max 255)"),
    ], ids=["after-comments", "crlf", "tabs-and-commas", "non-ascii-digit", "one-past-limit"])
    def test_bad_token_is_named_by_line_and_column(self, text, message):
        with pytest.raises(InputError) as err:
            parse_input(text, 8)
        assert str(err.value) == message

    def test_a_comment_ends_at_any_line_break(self):
        assert parse_input("1\n # 2\r3\x1c#4\n5", 8) == [1, 3, 5]

    def test_an_over_long_value_is_named_by_line_and_column(self):
        with pytest.raises(InputError) as err:
            parse_input(f"# {_LONG}\n1 2\n3, {_LONG}", 8)
        assert str(err.value) == \
            f"line 3, column 4: value {_LONG} does not fit in a 8-bit word (max 255)"

    def test_zero_padding_is_read_by_its_digits(self):
        assert parse_input(f"{_PADDED_7},00255\n0000", 8) == [7, 255, 0]
        with pytest.raises(InputError) as err:
            parse_input(f"1\n{_PADDED_7} 0256", 8)
        assert str(err.value) == "line 2, column 5003: value 256 does not fit in a 8-bit word (max 255)"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestSchemeCommands:
    def test_search_found(self, capsys):
        status, out, _ = run_cli(
            capsys, "search", "--list", "14,9,6,10,14,7,11,11,10",
            "--word-size", "4", "--key", "9")
        assert status == 0
        assert "found: yes" in out
        assert "cycles: 10" in out
        assert "overhead_bits: 30" in out
        assert "oracle: agree" in out

    def test_search_absent(self, capsys):
        status, out, _ = run_cli(
            capsys, "search", "--list", "14,9,6,10,14,7,11,11,10",
            "--word-size", "4", "--key", "15")
        assert status == 0
        assert "found: no" in out

    def test_search_requires_key(self, capsys):
        status, _, err = run_cli(capsys, "search", "--list", "1,2")
        assert status == 1
        assert "--key" in err

    def test_max_json_block(self, capsys):
        status, out, _ = run_cli(
            capsys, "max", "--list", "14,9,5,14,7,11,10,10",
            "--word-size", "4", "--json")
        assert status == 0
        block = json.loads(out)
        assert block["value"] == 14
        assert block["cycles"] == 7
        assert block["n"] == 10
        assert block["oracle"] == "agree"

    def test_min(self, capsys):
        status, out, _ = run_cli(
            capsys, "min", "--list", "14,9,5,14,7,11,10,10", "--word-size", "4")
        assert status == 0
        assert "value: 5" in out

    def test_sort_block(self, capsys):
        status, out, _ = run_cli(
            capsys, "sort", "--list", "14,9,6,10,14,7,11,11,10",
            "--word-size", "4")
        assert status == 0
        assert "output: 14,14,11,11,10,10,9,7,6" in out
        assert "rounds: 6" in out
        assert "overhead_bits: 110" in out

    def test_sort_ascending(self, capsys):
        status, out, _ = run_cli(
            capsys, "sort", "--list", "3,1,2", "--word-size", "4",
            "--order", "asc")
        assert status == 0
        assert "output: 1,2,3" in out

    def test_seeded_generation_is_deterministic(self, capsys):
        args = ("sort", "--seed", "11", "--count", "12")
        status1, out1, _ = run_cli(capsys, *args)
        status2, out2, _ = run_cli(capsys, *args)
        assert status1 == status2 == 0
        assert out1 == out2

    def test_explicit_height_too_small(self, capsys):
        status, _, err = run_cli(
            capsys, "search", "--list", "1,2,3,4", "--height", "2",
            "--key", "1")
        assert status == 1
        assert "height" in err

    def test_explicit_height_larger_is_padding(self, capsys):
        status, out, _ = run_cli(
            capsys, "search", "--list", "1,2,3", "--height", "4", "--key", "2",
            "--word-size", "4")
        assert status == 0
        assert "n: 22" in out
        assert "found: yes" in out

    def test_no_verify_omits_oracle(self, capsys):
        status, out, _ = run_cli(
            capsys, "max", "--list", "1,2", "--no-verify")
        assert status == 0
        assert "oracle" not in out

    def test_divergence_exit_code(self, capsys, monkeypatch):
        # force the oracle to lie; the CLI must notice and exit 2
        monkeypatch.setattr(cli.oracle, "oracle_search", lambda els, key: 0)
        status, out, _ = run_cli(
            capsys, "search", "--list", "5", "--key", "5", "--word-size", "4")
        assert status == 2
        assert "DIVERGENCE" in out
        assert "oracle_detail: " in out

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# elements\n14, 9 6\n10\n")
        status, out, _ = run_cli(
            capsys, "max", "--input", str(path), "--word-size", "4")
        assert status == 0
        assert "value: 14" in out

    def test_missing_input(self, capsys):
        status, _, err = run_cli(capsys, "max")
        assert status == 1
        assert "--input" in err or "--list" in err


class TestInfo:
    def test_info_is_arithmetic(self, capsys, monkeypatch):
        expected = {}
        for eta in (1, 2, 3):
            for height in range(1, 6):
                topo = build_topology(TreeParams(eta, height, 8))
                depths = list(map(topo.depth, range(topo.n)))
                per_level = list(map(depths.count, range(height)))
                leaves = sum(topo.role(d) is Role.LEAF for d in depths)
                expected[eta, height] = (topo.n, leaves, per_level)

        def no_build(params):
            raise AssertionError("info must not build the topology")

        monkeypatch.setattr(cli, "build_topology", no_build)
        for (eta, height), (n, leaves, per_level) in expected.items():
            status, out, _ = run_cli(
                capsys, "info", "--eta", str(eta), "--height", str(height), "--json")
            assert status == 0
            block = json.loads(out)
            assert block["n"] == n and block["slots"] == n - 1
            assert block["leaves"] == leaves
            assert block["nodes_per_level"] == ",".join(map(str, per_level))

    def test_info_block(self, capsys):
        status, out, _ = run_cli(
            capsys, "info", "--eta", "2", "--height", "3", "--word-size", "4")
        assert status == 0
        assert "n: 10" in out
        assert "slots: 9" in out
        assert "leaves: 6" in out
        assert "nodes_per_level: 1,3,6" in out
        assert "search_overhead_bits: 30" in out
        assert "sort_overhead_bits: 110" in out

    def test_info_from_list(self, capsys):
        status, out, _ = run_cli(capsys, "info", "--list", "1,2,3,4")
        assert status == 0
        assert "height: 3" in out
        assert "elements: 4" in out


class TestTrace:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "run.trace"
        status, out, _ = run_cli(
            capsys, "search", "--list", "14,9,6,10,14,7,11,11,10",
            "--word-size", "4", "--key", "9", "--trace-out", str(path))
        assert status == 0
        assert f"trace: {path}" in out
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert status == 0
        assert "replay matches" in out

    def test_max_trace_round_trip(self, capsys, tmp_path):
        path = tmp_path / "max.trace"
        status, _, _ = run_cli(
            capsys, "max", "--list", "14,9,5,14,7,11,10,10",
            "--word-size", "4", "--trace-out", str(path))
        assert status == 0
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert status == 0
        assert "replay matches" in out

    def test_min_trace_round_trip(self, capsys, tmp_path):
        path = tmp_path / "min.trace"
        status, _, _ = run_cli(
            capsys, "min", "--list", "14,9,5", "--word-size", "4",
            "--trace-out", str(path))
        assert status == 0
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert status == 0
        assert "replay matches" in out

    # SHA-256 of whole trace files.  The planes-vs-object gate and replay
    # both pass if the transition rules and the trace format change
    # together; these pin the bytes themselves.
    @pytest.mark.parametrize("argv,size,digest", [
        (("search", "--list", "14,9,6,10,14,7,11,11,10", "--word-size", "4",
          "--key", "9"), 16_469,
         "34714dc4c1008e955ae13b608b6653f59618c8edc8d0123baf69fae9fcdde46f"),
        (("max", "--list", "14,9,5,14,7,11,10,10", "--word-size", "4"), 12_001,
         "5500061cfa6765f15c0e0f331abd03bd3527e77d7bac0e02c18f8819c5822167"),
        (("min", "--eta", "3", "--seed", "5", "--count", "40", "--word-size", "8"),
         105_163,
         "4a21a6cbbf00a3e902ebc32e4e1153780feca994e2db3aa680d7f30bfff1c863"),
        # A sort's eight segments (both runs of every round), and a
        # tournament whose one-bit words give each level one data cycle.
        (("sort", "--list", "9,1,5,5,3", "--word-size", "4"), 95_103,
         "173fb913cc56b8ee5a740e89d4fefd08319fcf9c1e73c0ac9c2bf943d19a5653"),
        (("max", "--eta", "3", "--seed", "5", "--count", "12", "--word-size", "1"), 12_552,
         "8e9c0ca75bdfd6d0c4bb355584c41b4fbe42f7a8c4282b07278d096b327c5f6b"),
        # Words in 16-bit fields, and 64-bit words under a fan-out of 9 and 10.
        (("max", "--seed", "2", "--count", "40", "--word-size", "16"), 158_359,
         "afda89d07aa4bc139e2d7447c10871aa03590fb727d50faccdcef68b878caa17"),
        (("search", "--eta", "9", "--seed", "2", "--count", "30", "--word-size", "64",
          "--key", "11777717384603786643"), 1_117_149,
         "4bcb87aa48221558a4a723a73a23cf7583ff8032be0a34edb3c5943c03f31758"),
    ])
    def test_trace_bytes_are_pinned(self, capsys, tmp_path, argv, size, digest):
        path = tmp_path / "run.trace"
        status, _, _ = run_cli(capsys, *argv, "--trace-out", str(path))
        assert status == 0
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    def test_sort_trace_round_trip(self, capsys, tmp_path):
        # Four distinct values: four rounds of two segments, each segment
        # 10 nodes x (1 + its cycles) events.
        path = tmp_path / "sort.trace"
        status, out, _ = run_cli(
            capsys, "sort", "--list", "9,1,5,5,3", "--word-size", "4",
            "--trace-out", str(path))
        assert status == 0
        assert f"trace: {path}" in out
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert status == 0
        assert out == "trace: 8 segment(s), 640 events, replay matches\n"

    def test_replay_resets_each_segment_twice(self, capsys, tmp_path, monkeypatch):
        # Once by the rebuild's load and once by the run: no third reset to
        # apply perm_disabled or phase1_only.
        path = tmp_path / "sort.trace"
        run_cli(capsys, "sort", "--list", "9,1,5,5,3", "--word-size", "4",
                "--trace-out", str(path))
        resets, rearm = [], planes.LoadedTree.rearm

        def counted(tree, *args, **kwargs):
            resets.append(tree)
            rearm(tree, *args, **kwargs)

        monkeypatch.setattr(planes.LoadedTree, "rearm", counted)
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert (status, out) == (0, "trace: 8 segment(s), 640 events, replay matches\n")
        assert len(resets) == 2 * 8

    def test_one_file_of_several_shapes_is_matched_as_text(self, capsys, tmp_path, monkeypatch):
        # The text replay runs every segment through one recorder, which
        # must rebuild its per-shape text when the shape changes.
        text = ""
        for i, argv in enumerate([("max", "--list", "9,1,5,5,3"),
                                  ("search", "--eta", "3", "--word-size", "16", "--key", "7",
                                   "--list", "9,1,5,5,3,7,2,8"),
                                  ("min", "--list", "9,1,5,5,3")]):
            path = tmp_path / f"{i}.trace"
            assert run_cli(capsys, *argv, "--trace-out", str(path))[0] == 0, argv
            text += path.read_text()
        path.write_text(text)

        def refuse(*args):
            raise AssertionError("the text replay did not match")

        monkeypatch.setattr(tracefile, "parse_trace", refuse)
        events = sum(line[0] == "{" for line in text.splitlines())
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert (status, out) == (0, f"trace: 3 segment(s), {events} events, replay matches\n")

    def test_runs_and_replays_build_no_node_objects(self, capsys, tmp_path, monkeypatch):
        # Node objects are the object engine's, which only the tests run.
        def refuse(*args):
            raise AssertionError("a node object was built")

        monkeypatch.setattr(node.NodeState, "__init__", refuse)
        for i, argv in enumerate([("search", "--key", "5", "--height", "4"), ("max",), ("min",),
                                  ("sort",), ("sort", "--order", "asc")]):
            path = tmp_path / f"{i}.trace"
            status, out, err = run_cli(capsys, *argv, "--list", "9,1,5,5,3", "--word-size", "4",
                                       "--trace-out", str(path))
            assert (status, err) == (0, ""), argv
            assert "oracle: agree" in out.splitlines(), argv
            status, out, _ = run_cli(capsys, "trace", str(path))
            assert (status, out.endswith("replay matches\n")) == (0, True), argv

    def test_empty_sort_trace_is_refused_by_replay(self, capsys, tmp_path):
        path = tmp_path / "empty.trace"
        status, _, _ = run_cli(capsys, "sort", "--list", "", "--trace-out", str(path))
        assert status == 0
        assert path.read_bytes() == b""
        status, _, err = run_cli(capsys, "trace", str(path))
        assert status == 1
        assert "no trace segments" in err

    def test_tampered_trace_detected(self, capsys, tmp_path):
        path = tmp_path / "run.trace"
        run_cli(capsys, "search", "--list", "1,2,3", "--word-size", "4",
                "--key", "2", "--trace-out", str(path))
        lines = path.read_text().splitlines()
        # flip a word value on some mid-run event line
        idx = len(lines) // 2
        written = lines[idx]
        event = json.loads(written)
        event["word"] ^= 1
        lines[idx] = json.dumps(event, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert status == 2
        # Line 0 is the segment header, so event numbers are one behind.
        assert out.splitlines() == [
            "trace: segment 0 diverges from replay",
            f"  first difference at event {idx - 1}:",
            f"    recorded: {lines[idx]}",
            f"    replayed: {written}",
        ]

    def test_missing_file(self, capsys):
        status, _, err = run_cli(capsys, "trace", "/nonexistent/file.trace")
        assert status == 1

    def _rejected(self, capsys, path, needle):
        status, out, err = run_cli(capsys, "trace", str(path))
        assert status == 1
        assert out == ""
        assert err.count("\n") == 1 and needle in err, err

    def test_header_missing_fields_rejected(self, capsys, tmp_path):
        path = tmp_path / "header.trace"
        path.write_text('# cayley-imc-trace {"height":3}\n')
        self._rejected(capsys, path, "'eta'")

    def test_event_without_word_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.trace"
        run_cli(capsys, "search", "--list", "1,2,3", "--word-size", "4",
                "--key", "2", "--trace-out", str(path))
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines[1:]]
        for e in events:
            if e["cycle"] == 0:
                del e["word"]
        path.write_text("\n".join([lines[0]] + [json.dumps(e) for e in events]) + "\n")
        self._rejected(capsys, path, "'word'")

    def test_deeply_nested_event_rejected(self, capsys, tmp_path):
        path = tmp_path / "deep.trace"
        header = '# cayley-imc-trace {"eta":2,"height":2,"word_size":4,"mode":"max"}'
        path.write_text(header + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        self._rejected(capsys, path, "line 2")

    @pytest.mark.parametrize("index", [0, 10])
    def test_malformed_json_names_its_trace_line(self, capsys, tmp_path, index):
        path = tmp_path / "run.trace"
        run_cli(capsys, "max", "--list", "1,2,3", "--word-size", "4",
                "--trace-out", str(path))
        lines = path.read_text().splitlines()
        lines[index] = lines[index][:-1] + ',"emitted":{"c0'  # unterminated string
        path.write_text("\n".join(lines) + "\n")
        self._rejected(capsys, path, f"trace line {index + 1}:")

    @pytest.mark.parametrize("index,field", [(0, "eta"), (1, "word"), (3, "word")])
    def test_an_over_long_number_names_its_trace_line(self, capsys, tmp_path, index, field):
        path = tmp_path / "run.trace"
        run_cli(capsys, "max", "--list", "1,2,3", "--word-size", "4",
                "--trace-out", str(path))
        lines = path.read_text().splitlines()
        lines[index] = re.sub(f'"{field}":[0-9]+', f'"{field}":{_LONG}', lines[index], count=1)
        path.write_text("\n".join(lines) + "\n")
        self._rejected(capsys, path, f"error: trace line {index + 1}: ")

    def test_an_event_before_any_header_names_its_line_once(self, capsys, tmp_path):
        path = tmp_path / "run.trace"
        path.write_text('# a note\n\n{"cycle":0}\n')
        status, out, err = run_cli(capsys, "trace", str(path))
        assert (status, out, err) == (1, "", "error: trace line 3: event before any segment header\n")

    @pytest.mark.parametrize("header,edit,needle", [
        ({"mode": "idle"}, None, "'mode'"),
        ({"eta": "2"}, None, "'eta'"),
        ({"height": 0}, None, "'height'"),
        ({"phase1_only": 1}, None, "'phase1_only'"),
        # a huge tree is refused by its node count, before anything is built
        ({"height": 60}, None, "cycle-0 events"),
        (None, {"node": 99}, "no such node"),
        (None, {"node": 2}, "twice"),
        (None, {"word": 16}, "out of range"),
        (None, {"l_children": [0]}, "'l_children'"),
        (None, {"match": 2}, "0 or 1"),
        (None, {"state": None}, "'state'"),
        # refused by the tree parameters, before the word range is computed
        ({"word_size": MAX_WORD_SIZE + 1}, None, "word_size"),
        # a max leaf starts the run with start 1
        (None, {"start": 0}, "not the max reset state of a leaf"),
        ([1], None, "trace header is not a JSON object"),
        # named by the rebuild, before the load would refuse it as an element
        (None, {"word": 17}, "cycle-0 event of node 1: word 17 out of range"),
    ])
    def test_bad_header_or_cycle0_event_rejected(self, capsys, tmp_path,
                                                  header, edit, needle):
        path = tmp_path / "run.trace"
        run_cli(capsys, "max", "--list", "1,2,3", "--word-size", "4",
                "--trace-out", str(path))
        lines = path.read_text().splitlines()
        prefix = "# cayley-imc-trace "
        if header is not None:
            meta = json.loads(lines[0][len(prefix):])
            meta = {**meta, **header} if isinstance(header, dict) else header
            lines[0] = prefix + json.dumps(meta)
        if edit is not None:
            event = json.loads(lines[2])  # node 1, a leaf, at cycle 0
            event.update(edit)
            lines[2] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n")
        self._rejected(capsys, path, needle)

    def test_a_huge_header_is_refused_before_anything_is_built(self, capsys, tmp_path,
                                                               monkeypatch):
        # One cycle-0 line per node is counted first, so what a header makes
        # the replay allocate is bounded by the file.
        path = tmp_path / "run.trace"
        run_cli(capsys, "max", "--list", "1,2,3", "--word-size", "4",
                "--trace-out", str(path))
        lines = path.read_text().splitlines()
        header = '# cayley-imc-trace {"eta":1,"height":1000000,"word_size":4,"mode":"max"}'
        path.write_text("\n".join([header] + lines[1:3]) + "\n")

        def refuse(*args):
            raise AssertionError("a topology was built")

        monkeypatch.setattr(tracefile, "build_topology", refuse)
        self._rejected(capsys, path, "trace segment has 2 cycle-0 events, topology needs 1999999")

    def test_search_cycle0_match_0_on_an_enabled_node_rejected(self, capsys, tmp_path):
        # A search run arms match on every node not permanently disabled.
        path = tmp_path / "run.trace"
        run_cli(capsys, "search", "--list", "1,2,3", "--word-size", "4",
                "--key", "2", "--trace-out", str(path))
        lines = path.read_text().splitlines()
        event = json.loads(lines[2])  # node 1, enabled, at cycle 0
        assert (event["match"], event["perm_disabled"]) == (1, 0)
        event["match"] = 0
        lines[2] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n")
        self._rejected(capsys, path, "node 1: not the search reset state of a leaf")

    @staticmethod
    def _lone_root(path, mode, word, awake):
        """A height-1 segment: its header and the lone root's reset state."""
        path.write_text(
            f'# cayley-imc-trace {{"eta":2,"height":1,"word_size":4,"mode":"{mode}"}}\n'
            f'{{"cycle":0,"node":0,"depth":0,"role":"root","word":{word},"state":{awake},'
            f'"start":{awake},"match":1,"l_m":0,"l_children":[],"perm_disabled":0,'
            f'"emitted":{{}}}}\n')

    @pytest.mark.parametrize("mode,word", [("max", 0), ("min", 15)])
    def test_lone_root_tournament_trace_refused(self, capsys, tmp_path, mode, word):
        # A lone root has no leaves to start a tournament, so the replayed
        # run never quiesces.
        path = tmp_path / "root.trace"
        self._lone_root(path, mode, word, 0)
        self._rejected(
            capsys, path,
            f"protocol error: {mode} run not quiescent after 32 cycles (eta=2, h=1, w=4)")

    def test_lone_root_search_trace_diverges(self, capsys, tmp_path):
        # A lone root searches in w + 2 cycles; the file records only cycle 0.
        path = tmp_path / "root.trace"
        self._lone_root(path, "search", 3, 1)
        status, out, _ = run_cli(capsys, "trace", str(path))
        assert status == 2
        assert out.splitlines() == ["trace: segment 0 diverges from replay",
                                    "  recorded 1 events, replay produced 7"]


# Each value is just past its cap, or below 0 for --count, where the check
# fires before anything is drawn or built; --sizes refuses a negative entry too.
_PAST_NODE_CAP = str(MAX_NODES // 2 + 1)  # an eta=1 height with MAX_NODES + 1 nodes


@pytest.mark.parametrize("argv,needle", [
    (("max", "--seed", "1", "--count", str(MAX_NODES)), "--count"),
    (("bench", "--sizes", f"4,{MAX_NODES}"), "--sizes"),
    (("info", "--eta", "1", "--height", _PAST_NODE_CAP), "limit"),
    (("max", "--eta", "1", "--height", _PAST_NODE_CAP, "--list", "1"), "limit"),
    (("max", "--list", "1", "--word-size", str(MAX_WORD_SIZE + 1)), "--word-size"),
    (("max", "--seed", "1", "--count", "-1"), "--count"),
    (("bench", "--sizes", "4,-3"), "--sizes"),
])
def test_sizes_past_a_cap_are_refused(capsys, argv, needle):
    status, out, err = run_cli(capsys, *argv)
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and needle in err, err


@pytest.mark.parametrize("argv,message", [
    (("max", "--list", f"1,{_LONG}"),
     f"line 1, column 3: value {_LONG} does not fit in a 8-bit word (max 255)"),
    (("bench", "--sizes", f"4,{_LONG}"),
     f"--sizes entry {_LONG} needs over the limit of {MAX_NODES} nodes"),
], ids=["list", "sizes"])
def test_an_over_long_number_is_refused_with_one_line(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv)
    assert (status, out, err) == (1, "", f"error: {message}\n")


def test_an_over_long_value_in_an_input_file_is_named(capsys, tmp_path):
    path = tmp_path / "list.txt"
    path.write_text(f"# values\n1 2\n  {_LONG}\n")
    status, out, err = run_cli(capsys, "max", "--input", str(path))
    assert (status, out) == (1, "")
    assert err == f"error: line 3, column 3: value {_LONG} does not fit in a 8-bit word (max 255)\n"


@pytest.mark.parametrize("argv,line", [
    (("max", "--list", f"1,{_PADDED_7},3"), "value: 7"),
    (("bench", "--sizes", f"{_PADDED_7},0010"), "7 in-memory 154 -"),
], ids=["list", "sizes"])
def test_zero_padded_numbers_are_accepted(capsys, argv, line):
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0 and line.split() in map(str.split, out.splitlines()), out


@pytest.mark.parametrize("argv,needle", [
    (("max", "--eta", "x"), "invalid int value"),
    (("search", "--list", "1", "--key"), "expected one argument"),
    (("sort", "--list", "1", "--order", "up"), "invalid choice"),
    ((), "required"),
    (("max", "--list", "1", "--bogus", "a\nb"), "unrecognized arguments"),
    (("bench", "--sizes", "4,x"), "--sizes"),
    (("max", "--input", "list.txt", "--list", "1"), "give either --input or --list, not both"),
    (("info",), "info needs --height or an input list"),
    (("search", "--list", "1", "--key", "16", "--word-size", "4"),
     "--key 16 does not fit in a 4-bit word"),
])
def test_usage_errors_exit_1_with_one_line(capsys, argv, needle):
    status, out, err = run_cli(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err, err


def test_consecutive_calls_leak_no_options(capsys):
    # The parser is built once per process; each call starts from its defaults.
    status, out, _ = run_cli(capsys, "search", "--list", "1,2,3", "--key", "3", "--json")
    assert status == 0 and json.loads(out)["key"] == 3
    status, out, _ = run_cli(capsys, "max", "--list", "1,2,3")
    assert status == 0
    assert out.startswith("command: max\n") and "key" not in out


@pytest.mark.parametrize("argv", [("-h",), ("sort", "-h")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage: cayley-imc" in capsys.readouterr().out


class TestBench:
    def test_bench_smoke(self, capsys):
        status, out, _ = run_cli(
            capsys, "bench", "--sizes", "6,10", "--seed", "4")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[:4] == ["size", "algorithm", "cycles", "comparisons"]
        assert sum("in-memory" in line for line in lines) == 2
        assert sum("radix" in line for line in lines) == 2

    def test_bench_divergence_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.oracle, "run_baseline", lambda name, elements: ([], 0))
        status, out, _ = run_cli(capsys, "bench", "--sizes", "6", "--seed", "4")
        assert status == 2
        assert out == "bench: insertion disagrees with in-memory sort on size 6\n"


def test_cli_determinism_byte_identical(capsys):
    argv = ["sort", "--list", "9,1,5,5,3", "--word-size", "4", "--json"]
    status1, out1, _ = run_cli(capsys, *argv)
    status2, out2, _ = run_cli(capsys, *argv)
    assert (status1, out1) == (status2, out2)
