"""Host-time benchmark of the cayley-imc simulator.

Run from the repository root:

    python3 perfbench/run.py --workload search-lookups --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

One workload runs in one process with no extra threads, as a closed loop:
a single client starts each op when the previous one has returned.  The
package is imported from ``src/`` next to this directory.  With ``--trace
0`` the last stdout line is a JSON object carrying the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (see
README.md).  The line before it records the run's context.  Any op that
fails its correctness gate makes the exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import islice
from types import SimpleNamespace
from typing import NoReturn

from calibrate import NOMINAL_NS, Calibrator
from tracing import Counters, SpanTracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_REPS = 15     # set-ups per run; setup_s is their median
MIN_OPS = 100       # p90 needs ten samples beyond it
P90_BLOCKS = 5      # op_ms_p90 is the median of this many blocks' p90s
COUNT_OPS = 8       # ops in the exact-count pass of a traced run
KEEP_OPS = 2        # traced ops whose raw spans are written out

# Per-layer time metrics: (metric, span names, "self" or "total" time).
LAYER_TIMES = (
    ("topology.build_ms", ("topology.build",), "self"),
    ("algorithms.load_list_ms", ("algorithms.load_list",), "self"),
    ("algorithms.search_ms", ("algorithms.search",), "total"),
    ("algorithms.extremum_ms", ("algorithms.extremum",), "total"),
    ("algorithms.sort_ms", ("algorithms.sort",), "total"),
    ("algorithms.self_ms",
     ("algorithms.search", "algorithms.extremum", "algorithms.sort"), "self"),
    ("engine.reset_ms", ("engine.reset",), "self"),
    ("engine.step_ms", ("engine.step.search", "engine.step.tournament"), "self"),
    ("engine.quiesce_ms", ("engine.quiesce",), "self"),
    ("engine.snapshot_ms", ("engine.snapshot",), "self"),
    ("engine.trace_encode_ms", ("engine.trace_encode",), "self"),
    ("engine.parse_trace_ms", ("engine.parse_trace",), "self"),
    ("engine.rebuild_ms", ("engine.rebuild",), "self"),
    ("cli.self_ms", ("cli.main", "cli.on_step"), "self"),
    ("cli.trace_verify_ms", ("cli.trace_verify",), "self"),
    ("oracle.verify_ms", ("oracle.verify",), "self"),
    ("package.import_ms", ("import",), "self"),
    ("harness.self_ms", ("setup", "op"), "self"),
)
COUNT_METRICS = (
    "engine.cycles", "node.steps", "node.active_steps", "node.msgs_up",
    "node.msgs_down", "node.link_cuts", "algorithms.sort_rounds",
    "engine.trace_events", "engine.trace_bytes",
)


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_fresh(names) -> SimpleNamespace:
    """Import the package from ``src/`` anew, as a fresh process would."""
    for key in [k for k in sys.modules if k.split(".")[0] == "cayley_imc"]:
        del sys.modules[key]
    m = SimpleNamespace(**{n: importlib.import_module(f"cayley_imc.{n}") for n in names})
    if not os.path.abspath(m.engine.__file__).startswith(SRC + os.sep):
        fail(f"imported cayley_imc from {m.engine.__file__}, not {SRC}")
    return m


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cayley_imc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def p90(values: list[float]) -> float:
    """Median of the 90th percentiles of P90_BLOCKS consecutive blocks.

    Interference from other tenants comes in bursts.  A burst that covers
    part of a run lifts the p90 of the blocks it falls in, where it would
    lift a single p90 over the whole run.
    """
    n = len(values)
    blocks = [values[i * n // P90_BLOCKS:(i + 1) * n // P90_BLOCKS]
              for i in range(P90_BLOCKS)]
    return statistics.median(statistics.quantiles(b, n=10)[-1] for b in blocks)


class Run:
    """One workload run: set-up, the timed closed loop and, when traced,
    the exact-count pass."""

    def __init__(self, args, workdir: str) -> None:
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.workdir = workdir
        self.tracer = SpanTracer() if args.trace else None
        self.calib = Calibrator()
        self.calibs: list[int] = []  # kernel times, in the order they ran
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        data = self.wl.make_data(self.args.seed)
        tracer = self.tracer
        self.setup_ns: list[tuple[int, int]] = []  # (host ns, kernel index)
        for rep in range(SETUP_REPS):
            # Free the previous repetition's modules and tree first, so that
            # collecting them does not land inside this one.
            gc.collect()
            calib = self.calibrate()
            t0 = time.perf_counter_ns()
            if tracer is None:
                self.m, self.state = self._setup_once(data)
            else:
                tracer.begin(("setup", rep), record=True)
                self.m, self.state = tracer.call("setup", self._setup_once, data)
            self.setup_ns.append((time.perf_counter_ns() - t0, calib))
            if tracer is not None:
                tracer.restore()

    def _setup_once(self, data):
        tracer = self.tracer
        if tracer is None:
            m = import_fresh(self.wl.modules)
        else:
            m = tracer.call("import", import_fresh, self.wl.modules)
            tracer.install(m)
        return m, self.wl.setup(m, data, self.workdir)

    def calibrate(self) -> int:
        """Run the reference kernel; return the index of its time."""
        self.calibs.append(self.calib.measure())
        return len(self.calibs) - 1

    def factors(self, samples: list[tuple[int, int]]) -> list[float]:
        """Per sample, NOMINAL_NS / the kernel time around it.

        A sample's speed is the mean of the kernel runs just before and
        just after it, which follows a change of speed during the sample
        better than either run alone.
        """
        c = self.calibs
        return [2 * NOMINAL_NS / (c[k] + c[k + 1]) for _, k in samples]

    def normalised(self, samples: list[tuple[int, int]]) -> list[float]:
        """Host ns rescaled to the speed at which the kernel takes NOMINAL_NS."""
        return [raw * f for (raw, _), f in zip(samples, self.factors(samples))]

    def gate(self, inp, result, error) -> int:
        """Check one op outside its timed span; return its node-steps."""
        self.attempted += 1
        if error is None:
            try:
                return self.wl.check(self.m, self.state, inp, result)
            except Exception as exc:  # a malformed result fails the op too
                error = exc
        self.failed += 1
        print(f"perfbench: op {self.attempted} failed: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 0

    def timed_loop(self) -> None:
        wl, m, state, tracer = self.wl, self.m, self.state, self.tracer
        self.op_ns: list[tuple[int, int]] = []      # untraced (host ns, kernel index)
        self.off_cpu_ns: list[int] = []  # untraced host ns minus thread CPU ns
        self.traced_ns: list[tuple[int, int]] = []  # the same for traced ops
        self.node_steps = 0
        self.traced_rounds = 0
        ops = wl.ops(self.args.seed, state)
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while time.perf_counter() < deadline or i < MIN_OPS:
            inp = next(ops)
            prepared = wl.prepare(state, inp)
            # A traced run alternates untraced and traced ops, so the
            # tracing overhead is measured under the same conditions.
            traced = tracer is not None and i % 2 == 1
            run = wl.run
            if traced:
                tracer.install(m)
                j = len(self.traced_ns)
                tracer.begin(("op", j), record=j < KEEP_OPS)
                run = functools.partial(tracer.call, "op", wl.run)
            calib = self.calibrate()
            result = error = None
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = run(m, state, prepared)
            except Exception as exc:  # counted by the gate
                error = exc
            t1 = time.perf_counter_ns()
            c1 = time.thread_time_ns()
            if traced:
                tracer.restore()
            steps = self.gate(inp, result, error)
            if traced:
                self.traced_ns.append((t1 - t0, calib))
                self.traced_rounds += getattr(result, "rounds", 0)
            else:
                self.op_ns.append((t1 - t0, calib))
                self.off_cpu_ns.append((t1 - t0) - (c1 - c0))
                self.node_steps += steps
            i += 1
        self.calibrate()  # the last op's closing kernel run

    def count_pass(self) -> Counters:
        """Exact counts over the first COUNT_OPS ops of the seeded stream."""
        wl, m, state = self.wl, self.m, self.state
        counters = Counters()
        counters.install(m)
        try:
            for inp in islice(wl.ops(self.args.seed, state), COUNT_OPS):
                result = error = None
                try:
                    result = wl.run(m, state, wl.prepare(state, inp))
                except Exception as exc:  # counted by the gate
                    error = exc
                if self.gate(inp, result, error):
                    wl.count_extras(m, state, inp, result, counters.counts)
        finally:
            counters.restore()
        return counters

    def end_to_end(self) -> dict:
        ms = [t / 1e6 for t in self.normalised(self.op_ns)]
        return {
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_p90": (p90(ms), "ms"),
            "node_steps_per_s": (self.node_steps / (sum(ms) / 1e3), "1/s"),
            "setup_s": (statistics.median(self.normalised(self.setup_ns)) / 1e9, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    def raw_times(self) -> dict:
        """Host times before normalisation, for the context line."""
        ms = [raw / 1e6 for raw, _ in self.op_ns or self.traced_ns]
        out = {
            "op_ms_p50": statistics.median(ms),
            "setup_s": statistics.median(raw for raw, _ in self.setup_ns) / 1e9,
            "calibration_ms_p50": statistics.median(self.calibs) / 1e6,
        }
        if len(ms) >= 2 * P90_BLOCKS:
            out["op_ms_p90"] = p90(ms)
        if self.off_cpu_ns:
            # Time an op spent off the CPU (waiting on I/O, or descheduled):
            # where it is large, the host, not the program, set the tail.
            off = [ns / 1e6 for ns in self.off_cpu_ns]
            out["off_cpu_ms_p50"] = statistics.median(off)
            out["off_cpu_ms_max"] = max(off)
        return out

    def per_layer(self, counters: Counters) -> dict:
        tr = self.tracer
        # Normalised ns per span name: the mean over set-ups plus the mean
        # over traced ops, each record scaled by its own kernel factor.
        self_ns, total_ns, steps = Counter(), Counter(), Counter()
        for phase, samples in (("setup", self.setup_ns), ("op", self.traced_ns)):
            for j, f in enumerate(self.factors(samples)):
                rec_self, rec_total, rec_steps = tr.records[(phase, j)]
                for name, ns in rec_self.items():
                    self_ns[name] += f * ns / len(samples)
                for name, ns in rec_total.items():
                    total_ns[name] += f * ns / len(samples)
                steps.update(rec_steps)

        def layer_ms(names, kind) -> float:
            src = self_ns if kind == "self" else total_ns
            return sum(src[n] for n in names) / 1e6

        out = {name: (layer_ms(spans, kind), "ms") for name, spans, kind in LAYER_TIMES}
        rounds = self.traced_rounds
        out["algorithms.sort_round_ms"] = (
            total_ns["algorithms.sort"] * len(self.traced_ns) / rounds / 1e6 if rounds else 0.0,
            "ms")
        for mode in ("search", "tournament"):
            span = f"engine.step.{mode}"
            # Mean per op times ops, over the node-steps of all traced ops.
            out[f"engine.step.{mode}_ns_per_node_step"] = (
                self_ns[span] * len(self.traced_ns) / steps[span] if steps[span] else 0.0,
                "ns")
        untraced = statistics.median(self.normalised(self.op_ns)) / 1e6
        traced = statistics.median(self.normalised(self.traced_ns)) / 1e6
        out["trace.op_ms_p50_untraced"] = (untraced, "ms")
        out["trace.op_ms_p50_traced"] = (traced, "ms")
        out["trace.overhead_ratio"] = (traced / untraced, "ratio")
        c = counters.counts
        for name in COUNT_METRICS:
            out[name] = (c[name], "count")
        out["node.active_ratio"] = (
            c["node.active_steps"] / c["node.steps"] if c["node.steps"] else 0.0, "ratio")
        for name in self.m.oracle.BASELINE_SORTS:
            out[f"oracle.{name}_comparisons"] = (c[f"oracle.{name}_comparisons"], "count")
        return out

    def write_spans(self, path: str) -> None:
        tr = self.tracer
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in tr.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "cayley_imc", "__init__.py")):
        fail(f"no cayley_imc package under {SRC}")
    sys.path.insert(0, SRC)
    info = context(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = Run(args, workdir)
        run.setup()
        run.timed_loop()
        if args.trace:
            counters = run.count_pass()
            metrics = run.per_layer(counters)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            run.write_spans(spans_path)
            info["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["samples"] = {"ops": len(run.op_ns), "traced_ops": len(run.traced_ns),
                       "setups": SETUP_REPS, "count_pass_ops": COUNT_OPS if args.trace else 0}
    info["fail_rate"] = run.failed / run.attempted
    info["raw_host_time"] = run.raw_times()
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"{name} exited {proc.returncode} without a result")
        status = max(status, proc.returncode)
        results[name] = json.loads(lines[-1])
        for metric, v in results[name]["metrics"].items():
            print(f"{name:20s} {metric:42s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
