"""Mutation catalogue: small edits to the package that the tests must catch.

Run from anywhere:  python tests/mutants.py

Each entry names a file under ``src/cayley_imc``, an old text that must
occur in it exactly once, the new text that replaces it, and the test
selection (pytest node ids, space-separated) that must then fail.  For each
entry the script copies ``src/`` to a temporary directory of its own,
applies the edit there and runs ``pytest -x -q`` on the selection with
``PYTHONPATH`` pointing at the copy.  The entries run concurrently, one
per core the script may use (at most 8), and their results are printed
in catalogue order.  The script exits non-zero if any mutant survives, or
if an entry's old text does not occur exactly once, so the catalogue
stays in step with the code.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FUZZ = "tests/test_fuzz_cli.py"
_AS_TEXT = (f"{_FUZZ}::test_annotated_trace_is_matched_as_text "
            f"{_FUZZ}::test_a_lone_note_is_matched_as_text")
_TRACE = "tests/test_cli.py::TestTrace"
_REFUSED = "tests/test_planes.py::test_bad_loads_and_runs_are_refused"
_USAGE = "tests/test_cli.py::test_usage_errors_exit_1_with_one_line"
_PLANES = "tests/test_planes.py"
_SHAPES = "tests/test_topology.py::TestBuildTopology::test_bad_shapes_are_refused"
_IDS = ("tests/test_topology.py::TestArithmetic "
        "tests/test_planes.py::test_matches_and_the_live_set_are_the_ids_a_scan_finds")

# (file, old text, new text, test selection)
MUTANTS = [
    # The trace verifier.  The annotation lines are never dropped:
    ("tracefile.py", "if not text.startswith(chunk, pos):  # after one drop",
     "if False:  # after one drop", _AS_TEXT),
    # ... or not at a segment header:
    ("tracefile.py", "if not at(_HEADER_PREFIX):",
     "if not text.startswith(_HEADER_PREFIX, pos):", _AS_TEXT),
    # ... and the rebuild does not read the cycle-0 lines around them:
    ("tracefile.py", "|' + _NOTE + r')\\n)*'", ")\\n)*'", _AS_TEXT),
    # Notes after the last segment are not its end:
    ("tracefile.py", "            if segments and pos == len(text):  # only dropped lines were left\n"
                     "                break\n", "", _AS_TEXT),
    # A comparison that always passes:
    ("tracefile.py", "        if not at(chunk):\n", "        if False:\n", _TRACE),
    # A divergence that is never raised:
    ("tracefile.py", 'raise Divergence("\\n".join(report))', "pass", _TRACE),
    # ... or that exits 0:
    ("cli.py", "        print(exc)\n        return EXIT_DIVERGENCE", "        print(exc)\n        return EXIT_OK",
     _TRACE),
    # The recorder rotates words the wrong way:
    ("tracefile.py",
     "x = (x & ((1 << w - r) - 1) * ones) << r | x >> w - r & ((1 << r) - 1) * ones",
     "x = x >> r & ((1 << w - r) - 1) * ones | (x & ((1 << r) - 1) * ones) << w - r", _TRACE),
    # ... keys the root on rot % w, which a write leaves as it is when w = 1:
    ("tracefile.py",
     "(lv.rot, lv.state, lv.start, lv.match, lv.link_mem, lv.links, down)\n"
     "            if self.keys[d] == old:\n                continue\n"
     "            if old[0] != lv.rot:",
     "(lv.rot % w, lv.state, lv.start, lv.match, lv.link_mem, lv.links, down)\n"
     "            if self.keys[d] == old:\n                continue\n"
     "            if old[0] != lv.rot % w:", _TRACE),
    # ... swaps match and l_m in the code character:
    ("tracefile.py",
     'int(format(lv.match, "b"), 16) << 1\n                    | int(format(lv.link_mem, "b"), 16) << 2',
     'int(format(lv.match, "b"), 16) << 2\n                    | int(format(lv.link_mem, "b"), 16) << 1',
     _TRACE),
    # ... keeps a level's lines in position order, not id order, or casts
    # the positions to the level's axes unreversed:
    ("tracefile.py", "picks.append(itemgetter(*order) if d",
     "picks.append(itemgetter(slice(None)) if d", _TRACE),
    ("tracefile.py", '.cast("q", topo.axes(d)[::-1])', '.cast("q", topo.axes(d))', _TRACE),
    # ... lists child links last slot first:
    ("tracefile.py", "zip(*[bits[s * n:s * n + n]", "zip(*[bits[(k - 1 - s) * n:(k - s) * n]", _TRACE),
    # ... reads the code characters from the wrong end:
    ("tracefile.py", 'pick(format(code, f"0{n}x")[::-1])', 'pick(format(code, f"0{n}x"))', _TRACE),
    # ... keeps one shape's fixed text for a segment of another shape:
    ("tracefile.py", "if tree.topo != self.topo:", "if self.topo is None:", _TRACE),
    # The text replay ignores phase1_only, and so does the parsed rebuild:
    ("tracefile.py", "tree.run(mode, phase1_only=phase1_only, on_step=record)",
     "tree.run(mode, on_step=record)", _AS_TEXT),
    ("tracefile.py", "    tree.phase1_only = phase1_only\n", "",
     f"{_FUZZ}::test_reformatted_equal_trace_still_matches"),
    # A number past CPython's digit cap on int() leaves the trace unlocated:
    ("tracefile.py", "    except ValueError as exc:  # json's", "    except json.JSONDecodeError as exc:  # json's",
     _TRACE),
    # Rebuild checks: the cycle-0 lines are not counted before building, a
    # header that is not an object reaches the field checks, and a word out
    # of range is left to the load, whose message names no node.
    ("tracefile.py", "    if cycle0 != n:", "    if False:", _TRACE),
    ("tracefile.py", "    if not isinstance(meta, dict):", "    if False:", _TRACE),
    ("tracefile.py", "        if not 0 <= word < 1 << w:", "        if False:", _TRACE),
    # The plane engine against its specification.  COMBINE cuts no links:
    ("planes.py", "lv.links |= s * lv.spread & ~kids", "lv.links |= 0", _PLANES),
    # KEY reads key bit j + 1:
    ("planes.py", "lv, j = levels[d], t - d - 1", "lv, j = levels[d], min(t - d, w - 1)", _PLANES),
    # A leaf sends its bit through a cut memory link:
    ("planes.py", "lv.state = msb | lv.link_mem if inv else msb & ~lv.link_mem", "lv.state = msb",
     _PLANES),
    # FIRST keeps no phase-1 match:
    ("planes.py", "lv.phase1_match = lv.match", "pass", _PLANES),
    # rearm does not raise link_mem from perm:
    ("planes.py", "lv.link_mem, lv.links, lv.rot, lv.phase1_match, lv.state = lv.perm,",
     "lv.link_mem, lv.links, lv.rot, lv.phase1_match, lv.state = 0,", _PLANES),
    # A searching level's clock runs one cycle late:
    ("planes.py", "                tau = cycle - d\n", "                tau = cycle - d - 1\n", _PLANES),
    # The key stage ends a cycle early:
    ("planes.py", "(_KEY, 1, w, 1, last)", "(_KEY, 1, w - 1, 1, last)", _PLANES),
    # The root's tournament step keeps the bits its child slots shifted
    # past it, or writes its word before the min inversion:
    ("planes.py", "                        s &= 1\n", "", _PLANES),
    ("planes.py", "root.state = root.words[t - last - 1] = s ^ 1 if inv else s",
     "root.words[t - last - 1] = s\n                        root.state = s ^ 1 if inv else s",
     _PLANES),
    # The root's step is given an op that only the search loop tests for:
    ("planes.py", "(_ROOT, 1, w, 0, 0)", "(_SEND, 1, w, 0, 0)", _PLANES),
    # The relay stops one depth short of, or goes one past, the deepest
    # enabled depth:
    ("planes.py", "(_RELAY, w + 3, end, 1, deepest - 1)", "(_RELAY, w + 3, end, 1, deepest - 2)",
     _PLANES),
    ("planes.py", "(_RELAY, w + 3, end, 1, deepest - 1)", "(_RELAY, w + 3, end, 1, deepest)", _PLANES),
    # The scan for that depth always stops at the leaves:
    ("planes.py", "while deepest and not levels[deepest].mask", "while False and not levels[deepest].mask",
     f"{_PLANES}::test_a_sparse_deep_search_relays_only_above_its_deepest_element"),
    # Long schedules are cached too:
    ("planes.py", "schedule = _schedule if w + 2 * len(levels) <= _KEPT_CYCLES else _schedule.__wrapped__",
     "schedule = _schedule", f"{_PLANES}::test_a_deep_run_leaves_no_schedule_behind"),
    # The load takes the byte lanes in the other byte order:
    ("planes.py", "lane, width = tree[b::size],", "lane, width = tree[size - 1 - b::size],", _PLANES),
    # ... puts a level in breadth-first order, not position order:
    ("planes.py", '.cast(code, shape).tobytes("F")', '.cast(code, shape).tobytes("C")', _PLANES),
    # ... shifts by 8 in the first round of the bit transpose:
    ("planes.py", "((7, 0x00AA00AA00AA00AA)", "((8, 0x00AA00AA00AA00AA)", _PLANES),
    # ... ends a level one byte late when its size is a multiple of 8:
    ("planes.py", "ends.append(ends[-1] + (hi - lo + 7) // 8)",
     "ends.append(ends[-1] + (hi - lo) // 8 + 1)", _PLANES),
    # ... packs the flags last position first, and checks no byte lane's range:
    ("planes.py", ".translate(_DIGITS)[::-1], 2)", ".translate(_DIGITS), 2)", _PLANES),
    ("planes.py", "if width < 8 and lane.translate(", "if False and lane.translate(",
     "tests/test_planes.py::test_a_bad_element_is_named_first_in_list_order"),
    # ... keeps the size-1 axes of eta = 1, more than a memoryview has past 64 levels:
    ("topology.py", "(eta,) * (depth - 1) * (eta > 1)", "(eta,) * (depth - 1)", _PLANES),
    # The layout casts a level to its axes reversed:
    ("topology.py", '.cast("q", self.axes(d))', '.cast("q", self.axes(d)[::-1])',
     "tests/test_topology.py"),
    # ids casts a plane's bits to the axes unreversed, leaves them last
    # position first, or names the ids one past its level's:
    ("topology.py", 'cast("B", self.axes(depth)[::-1])', 'cast("B", self.axes(depth))', _IDS),
    ("topology.py", '.encode()[::-1]  # position 0 first', '.encode()  # position 0 first', _IDS),
    ("topology.py", "compress(range(lo, hi),", "compress(range(lo + 1, hi + 1),", _IDS),
    # locate swaps a node's slot and its parent's index:
    ("topology.py", "index, slot = divmod(index, self.fanout(e - 1))",
     "slot, index = divmod(index, self.fanout(e - 1))", "tests/test_topology.py " + _PLANES),
    # Refusals of the library.
    ("algorithms.py", "    if len(elements) > topo.n - 1:", "    if False:", _REFUSED),
    ("algorithms.py", "    if topo.params.height < 2:", "    if False:", _REFUSED),
    ("algorithms.py", "    if mode not in (Mode.SEARCH, Mode.MAX, Mode.MIN):", "    if False:", _REFUSED),
    ("algorithms.py", "        if not 0 <= key < limit:", "        if False:", _REFUSED),
    ("algorithms.py", 'raise ValueError(f"unknown scheme {scheme!r}")', "return 0", _REFUSED),
    ("planes.py", "        if mode is Mode.IDLE:", "        if False:", _REFUSED),
    ("topology.py", "        if self.eta < 1:", "        if False:", _SHAPES),
    ("topology.py", "        if self.height < 1:", "        if False:", _SHAPES),
    ("topology.py", "    if list_len < 0:", "    if False:", _SHAPES),
    # A sort round counts its matches after it has moved them into perm:
    ("algorithms.py", "            copies += lv.match.bit_count()\n"
                      "            lv.perm, lv.match = lv.perm | lv.match, 0\n",
     "            lv.perm, lv.match = lv.perm | lv.match, 0\n"
     "            copies += lv.match.bit_count()\n", "tests/test_sort.py"),
    # An empty sort loads nothing, so a lone root is no error:
    ("algorithms.py", "        return SortResult(output=[], cycles_total=0, rounds=0, per_round_cycles=[])",
     "        pass", "tests/test_sort.py::test_empty_list"),
    # Refusals and output of the command line.
    ("cli.py", "    if args.input and args.list:", "    if False:", _USAGE),
    # parse_input's one pass lets a value equal to the limit through:
    ("cli.py", "if max(values := list(map(int, tokens))) < limit:",
     "if max(values := list(map(int, tokens))) <= limit:", "tests/test_cli.py::TestParseInput"),
    # ... its scan refuses a value with as many digits as the limit, or names
    # the line or the column of a bad token one off:
    ("cli.py", "elif len(digits) > places or", "elif len(digits) >= places or",
     "tests/test_cli.py::TestParseInput"),
    ("cli.py", 'line, column = text.count("\\n", 0, start) + 1,', 'line, column = text.count("\\n", 0, start),',
     "tests/test_cli.py::TestParseInput"),
    ("cli.py", 'start - text.rfind("\\n", 0, start)', 'start - text.rfind("\\n", 0, start) - 1',
     "tests/test_cli.py::TestParseInput"),
    # bench hands a --sizes entry of any length to int():
    ("cli.py", "        if len(digits) > len(str(MAX_NODES)):", "        if False:",
     "tests/test_cli.py::test_an_over_long_number_is_refused_with_one_line"),
    ("cli.py", '        raise InputError("info needs --height or an input list")', "        pass", _USAGE),
    ("cli.py", "        if not 0 <= key < limit:", "        if False:", _USAGE),
    ("cli.py", '        pairs.insert(6, ("elements", n_elements))', "        pass",
     "tests/test_cli.py::TestInfo"),
    ("cli.py", '            pairs.append(("oracle_detail", report.detail))', "            pass",
     "tests/test_cli.py::TestSchemeCommands::test_divergence_exit_code"),
    ("cli.py", "                return EXIT_DIVERGENCE\n", "                pass\n",
     "tests/test_cli.py::TestBench"),
]


def _killed(entry: tuple[str, str, str, str]) -> str | None:
    """Apply one mutant to a fresh copy of ``src/`` of its own; None if its
    tests fail, else why it counts as surviving."""
    file, old, new, tests = entry
    text = (ROOT / "src" / "cayley_imc" / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "cayley_imc" / file).write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests.split()],
            cwd=ROOT, env=env, capture_output=True, text=True)
    # Exit status 1 is a failed test; any other is a pass or a broken selection.
    return None if run.returncode == 1 else f"pytest exit status {run.returncode}"


def main() -> int:
    """Run the entries concurrently, one pytest per usable core (at most 8)
    at a time, and print their results in catalogue order."""
    survived = 0
    # The cores this process may run on, which a container may hold below the host's.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(cores or 1, 8)) as pool:
        for (file, old, _, _), why in zip(MUTANTS, pool.map(_killed, MUTANTS)):
            survived += why is not None
            where = old.strip().splitlines()[0]
            print(f"{'killed' if why is None else 'SURVIVED (' + why + ')'}  {file}: {where}",
                  flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
