"""The four benchmark workloads: seeded inputs, the timed op and its gate.

A workload object has

* ``make_data(seed)``: inputs generated once, before set-up (search words);
* ``setup(m, data, workdir)``: the one-time work a user pays before the first op,
  such as ``build_topology`` and a load; it returns the workload state;
* ``ops(seed, state)``: an endless, seeded stream of op inputs;
* ``prepare(state, inp)``: untimed per-op preparation (writing a list file);
* ``run(m, state, prepared)``: the timed op;
* ``check(m, state, inp, result)``: the correctness gate, run outside the
  timed span.  It raises ``GateError`` on an oracle divergence or a cycle
  count that differs from its formula, and otherwise returns the op's
  simulated node-steps (nodes times cycles);
* ``count_extras(m, state, inp, result, counts)``: exact counts that only
  this workload produces (sort rounds, baseline comparisons, trace size).

``m`` is a namespace of freshly imported ``cayley_imc`` modules.  Every
library call goes through a module attribute (``m.algorithms.search``), so
the tracing wrappers installed on those attributes see it.  The program
only ever receives generated inputs; the seed stays in the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Iterator


class GateError(Exception):
    """An op's output or cycle count disagrees with the oracle or formula."""


def _rng(seed: int, name: str, stream: str) -> random.Random:
    # String seeds hash with SHA-512, so streams are independent and stable
    # across processes and Python versions.
    return random.Random(f"{seed}:{name}:{stream}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


class SearchLookups:
    name = "search-lookups"
    why = ("search-mode engine.step at n=3070 on a tree loaded once; "
           "no tournament, trace or CLI path")
    modules = ("topology", "node", "algorithms", "engine", "oracle")
    eta, height, word_size = 2, 11, 16

    def make_data(self, seed: int) -> list[int]:
        rng = _rng(seed, self.name, "words")
        slots = _node_count(self.eta, self.height) - 1
        return [rng.randrange(1 << self.word_size) for _ in range(slots)]

    def setup(self, m, words, workdir):
        topo = m.topology.build_topology(
            m.topology.TreeParams(self.eta, self.height, self.word_size))
        tree = m.algorithms.load_list(topo, words, m.node.Mode.SEARCH, key=0)
        return {"topo": topo, "tree": tree, "words": words}

    def ops(self, seed: int, state) -> Iterator[int]:
        rng = _rng(seed, self.name, "ops")
        words = state["words"]
        i = 0
        while True:
            # Half the keys come from the list, half are uniform and hit
            # only by chance.
            yield rng.choice(words) if i % 2 == 0 else rng.randrange(1 << self.word_size)
            i += 1

    def prepare(self, state, key):
        return key

    def run(self, m, state, key):
        return m.algorithms.search(state["tree"], key)

    def check(self, m, state, key, res) -> int:
        w, h, n = self.word_size, self.height, state["topo"].n
        _expect(res.found == m.oracle.oracle_search(state["words"], key),
                f"search({key}) found={res.found}")
        _expect(res.cycles == w + 2 * h, f"search cycles {res.cycles} != w+2h")
        return n * res.cycles

    def count_extras(self, m, state, key, res, counts) -> None:
        pass


class ExtremumTournament:
    name = "extremum-tournament"
    why = ("load_list plus a max or min tournament at n=1457 with eta=3 "
           "fan-out, partial fill, padding and link cuts")
    modules = ("topology", "node", "algorithms", "engine", "oracle")
    eta, height, word_size = 3, 7, 8

    def make_data(self, seed: int):
        return None

    def setup(self, m, data, workdir):
        topo = m.topology.build_topology(
            m.topology.TreeParams(self.eta, self.height, self.word_size))
        return {"topo": topo}

    def ops(self, seed: int, state) -> Iterator[tuple[str, list[int]]]:
        rng = _rng(seed, self.name, "ops")
        slots = state["topo"].n - 1
        i = 0
        while True:
            length = rng.randint(slots // 2, slots)
            xs = [rng.randrange(1 << self.word_size) for _ in range(length)]
            yield ("max" if i % 2 == 0 else "min"), xs
            i += 1

    def prepare(self, state, inp):
        return inp

    def run(self, m, state, inp):
        which, xs = inp
        alg, mode = m.algorithms, m.node.Mode
        if which == "max":
            return alg.compute_max(alg.load_list(state["topo"], xs, mode.MAX))
        return alg.compute_min(alg.load_list(state["topo"], xs, mode.MIN))

    def check(self, m, state, inp, res) -> int:
        which, xs = inp
        w, h, n = self.word_size, self.height, state["topo"].n
        identity = 0 if which == "max" else (1 << w) - 1
        expected = m.oracle.oracle_extremum(xs, which, identity)
        _expect(res.value == expected, f"{which} = {res.value}, oracle {expected}")
        _expect(res.cycles == w + h, f"{which} cycles {res.cycles} != w+h")
        return n * res.cycles

    def count_extras(self, m, state, inp, res, counts) -> None:
        pass


class SortRounds:
    name = "sort-rounds"
    why = ("48-element sorts on a 94-node tree: per-round fixed costs "
           "(two resets, quiescence and live-set scans) outweigh node work")
    modules = ("topology", "node", "algorithms", "engine", "oracle")
    eta, word_size, length = 2, 8, 48
    # Distinct values (so sort rounds) of successive lists, cycled; the seed
    # picks the values and their order.  The two ends match a heavy-duplicate
    # list (at most 16 values) and a near-distinct one (48 draws from 256
    # values give about 43).  The middle level holds the median op: with
    # only the two ends, the median would fall in the gap between two
    # clusters of op times and jump from seed to seed.
    rounds = (30, 16, 44)

    def make_data(self, seed: int):
        return None

    def setup(self, m, data, workdir):
        t = m.topology
        height = t.required_height(self.eta, self.length)
        topo = t.build_topology(t.TreeParams(self.eta, height, self.word_size))
        return {"topo": topo}

    def ops(self, seed: int, state) -> Iterator[list[int]]:
        rng = _rng(seed, self.name, "ops")
        i = 0
        while True:
            distinct = rng.sample(range(1 << self.word_size), self.rounds[i % len(self.rounds)])
            xs = distinct + [rng.choice(distinct) for _ in range(self.length - len(distinct))]
            rng.shuffle(xs)
            yield xs
            i += 1

    def prepare(self, state, xs):
        return xs

    def run(self, m, state, xs):
        return m.algorithms.sort(state["topo"], xs)

    def check(self, m, state, xs, res) -> int:
        p = state["topo"].params
        per_round = 2 * (p.word_size + p.height)
        _expect(res.output == m.oracle.oracle_sort_desc(xs), "sort output diverges")
        _expect(res.rounds == len(set(xs)),
                f"sort rounds {res.rounds} != {len(set(xs))} distinct values")
        _expect(all(c == per_round for c in res.per_round_cycles),
                "sort round cycles != 2(w+h)")
        _expect(res.cycles_total == res.rounds * per_round, "sort cycle total")
        return state["topo"].n * res.cycles_total

    def count_extras(self, m, state, xs, res, counts) -> None:
        counts["algorithms.sort_rounds"] += res.rounds
        expected = m.oracle.oracle_sort_desc(xs)
        for name in m.oracle.BASELINE_SORTS:
            out, comps = m.oracle.run_baseline(name, xs)
            _expect(out == expected, f"baseline {name} output diverges")
            counts[f"oracle.{name}_comparisons"] += comps


@dataclass
class CliRun:
    argv: list[str]
    trace_path: str


class CliTrace:
    name = "cli-trace"
    why = ("cli.main writes a search/max/min trace of a 100-element list "
           "and replays it: argument parsing, snapshots, JSON and file I/O")
    modules = ("topology", "node", "algorithms", "engine", "oracle", "cli")
    eta, word_size, length = 2, 8, 100

    def make_data(self, seed: int):
        return None

    def setup(self, m, data, workdir):
        height = m.topology.required_height(self.eta, self.length)
        return {"dir": workdir, "n": _node_count(self.eta, height),
                "height": height, "op": 0, "files": ()}

    def ops(self, seed: int, state) -> Iterator[tuple[str, list[int], int | None]]:
        rng = _rng(seed, self.name, "ops")
        limit = 1 << self.word_size
        i = 0
        while True:
            cmd = ("max", "min", "search")[i % 3]
            xs = [rng.randrange(limit) for _ in range(self.length)]
            key = None
            if cmd == "search":
                key = rng.choice(xs) if (i // 3) % 2 == 0 else rng.randrange(limit)
            yield cmd, xs, key
            i += 1

    def prepare(self, state, inp) -> CliRun:
        cmd, xs, key = inp
        # Every op gets new files, and the previous op's are removed here,
        # outside the timed span.  Rewriting one trace file would truncate it
        # on every op; ext4 (auto_da_alloc) then starts writing it to disk on
        # close, and the next op's truncate waits for that write, so the
        # shared disk's latency would set the op time's tail.
        for path in state["files"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        state["op"] += 1
        list_path = os.path.join(state["dir"], f"list-{state['op']}.txt")
        trace_path = os.path.join(state["dir"], f"run-{state['op']}.trace")
        state["files"] = (list_path, trace_path)
        with open(list_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(str, xs)) + "\n")
        argv = [cmd, "--input", list_path, "--trace-out", trace_path, "--json"]
        if key is not None:
            argv += ["--key", str(key)]
        return CliRun(argv, trace_path)

    def run(self, m, state, run: CliRun):
        out_run, out_trace, err = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            with contextlib.redirect_stdout(out_run):
                rc_run = m.cli.main(run.argv)
            with contextlib.redirect_stdout(out_trace):
                rc_trace = m.cli.main(["trace", run.trace_path])
        return rc_run, rc_trace, out_run.getvalue(), out_trace.getvalue(), err.getvalue()

    def check(self, m, state, inp, result) -> int:
        cmd, xs, key = inp
        rc_run, rc_trace, out_run, out_trace, err = result
        _expect(rc_run == 0, f"cli {cmd} exited {rc_run}: {err.strip()}")
        _expect(rc_trace == 0, f"cli trace exited {rc_trace}: {out_trace.strip()}")
        block = json.loads(out_run)
        w, h, n = self.word_size, state["height"], state["n"]
        _expect(block["height"] == h and block["n"] == n, "cli tree shape")
        _expect(block["oracle"] == "agree", f"cli oracle: {block['oracle']}")
        if cmd == "search":
            expected = "yes" if m.oracle.oracle_search(xs, key) else "no"
            _expect(block["found"] == expected, f"cli search({key}) {block['found']}")
            cycles = w + 2 * h
        else:
            identity = 0 if cmd == "max" else (1 << w) - 1
            expected = m.oracle.oracle_extremum(xs, cmd, identity)
            _expect(block["value"] == expected, f"cli {cmd} {block['value']}")
            cycles = w + h
        _expect(block["cycles"] == cycles, f"cli {cmd} cycles {block['cycles']}")
        events = n * (cycles + 1)
        _expect(out_trace == f"trace: 1 segment(s), {events} events, replay matches\n",
                f"cli trace replay: {out_trace.strip()}")
        # The recorded run plus its replay.
        return 2 * n * cycles

    def count_extras(self, m, state, inp, result, counts) -> None:
        path = state["files"][1]
        with open(path, "rb") as fh:
            data = fh.read()
        counts["engine.trace_bytes"] += len(data)
        counts["engine.trace_events"] += sum(
            1 for line in data.splitlines() if line and not line.startswith(b"#"))


def _node_count(eta: int, height: int) -> int:
    # Benchmark-side copy of the shape arithmetic, so inputs are generated
    # before the program under test is imported.
    total, level = 1, eta + 1
    for _ in range(height - 1):
        total += level
        level *= eta
    return total


WORKLOADS = {w.name: w for w in (SearchLookups(), ExtremumTournament(),
                                 SortRounds(), CliTrace())}
