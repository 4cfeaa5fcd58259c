"""Spans and exact counters, attached to the library from outside.

Both work by replacing module attributes with wrappers and putting the
originals back afterwards.  A wrapper goes into the namespace of the module
that calls the function: ``engine.step`` because ``run_until_quiescent``
looks it up in the engine module, and ``algorithms.load_list``,
``algorithms.run_until_quiescent`` and ``algorithms.reset_configuration``
because ``algorithms`` imported them by name.  Nothing in ``src/`` changes.

``SpanTracer`` records (op, span id, parent id, name, start, end) for the
ops it is asked to keep, and for every op accumulates each span name's
self time (its duration minus the part covered by its child spans) and
total time.
``Counters`` counts simulated work (cycles, node-steps, active node-steps,
messages, link cuts); it wraps per-node calls, so it runs in its own pass
and never inside a timed span.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns


class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj: object, attr: str, value: object) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


def _callers(m, attr: str) -> list[object]:
    """Modules of ``m`` whose namespace holds the function ``attr``."""
    return [mod for mod in vars(m).values() if hasattr(mod, attr)]


class SpanTracer:
    def __init__(self) -> None:
        # One record per set-up repetition or traced op, keyed by
        # (phase, index): span name -> self ns, total ns and node-steps.
        self.records: dict[tuple[str, int], tuple[Counter, Counter, Counter]] = {}
        self.spans: list[tuple] = []
        self.record = False
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches = Patches()

    def begin(self, op: tuple[str, int], record: bool = False) -> None:
        """Send the following spans to a fresh record for ``op``."""
        self.op = op
        self.record = record
        self.self_ns, self.total_ns, self.node_steps = self.records.setdefault(
            op, (Counter(), Counter(), Counter()))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            d = t1 - t0
            self.self_ns[name] += d - frame[1]
            self.total_ns[name] += d
            parent = None
            if stack:
                stack[-1][1] += d
                parent = stack[-1][0]
            if self.record:
                self.spans.append(("%s%d" % self.op, sid, parent, name, t0, t1))

    def wrap(self, name: str, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return wrapper

    def install(self, m) -> None:
        """Wrap every public entry point the workloads reach in ``m``."""
        p = self._patches
        e, a = m.engine, m.algorithms
        search_mode = m.node.Mode.SEARCH
        for attr, name in (
            ("build_topology", "topology.build"),
            ("load_list", "algorithms.load_list"),
            ("search", "algorithms.search"),
            ("compute_max", "algorithms.extremum"),
            ("compute_min", "algorithms.extremum"),
            ("sort", "algorithms.sort"),
            ("reset_configuration", "engine.reset"),
            ("snapshot", "engine.snapshot"),
            ("trace_header", "engine.trace_encode"),
            ("parse_trace", "engine.parse_trace"),
            ("configuration_from_events", "engine.rebuild"),
            ("oracle_search", "oracle.verify"),
            ("oracle_extremum", "oracle.verify"),
            ("oracle_sort_desc", "oracle.verify"),
            ("compare", "oracle.verify"),
            ("_run_trace_verify", "cli.trace_verify"),
            ("main", "cli.main"),
        ):
            mods = _callers(m, attr)
            if mods:
                wrapped = self.wrap(name, getattr(mods[0], attr))
                for mod in mods:
                    p.set(mod, attr, wrapped)
        p.set(e.TraceEvent, "to_json", self.wrap("engine.trace_encode", e.TraceEvent.to_json))

        step = e.step
        call = self.call

        def traced_step(cfg, *args, **kwargs):
            name = ("engine.step.search" if cfg.mode is search_mode
                    else "engine.step.tournament")
            self.node_steps[name] += cfg.topo.n
            return call(name, step, cfg, *args, **kwargs)

        p.set(e, "step", traced_step)

        run = e.run_until_quiescent
        wrap = self.wrap

        def traced_run(cfg, max_cycles, on_step=None):
            # The per-cycle callback belongs to its caller (the CLI's trace
            # writer or replayer), not to the engine loop.
            if on_step is not None:
                on_step = wrap("cli.on_step", on_step)
            return call("engine.quiesce", run, cfg, max_cycles, on_step)

        for mod in (e, a):
            p.set(mod, "run_until_quiescent", traced_run)

    def restore(self) -> None:
        self._patches.restore()


class Counters:
    """Exact counts of simulated work, from wrapped engine calls."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._patches = Patches()

    def install(self, m) -> None:
        p, c, e = self._patches, self.counts, m.engine
        tournament = (m.node.Mode.MAX, m.node.Mode.MIN)
        step = e.step

        def counted_step(cfg, *args, **kwargs):
            c["engine.cycles"] += 1
            c["node.steps"] += cfg.topo.n
            return step(cfg, *args, **kwargs)

        def counted_send(send):
            def wrapper(node, topo):
                node, em = send(node, topo)
                if em is not None:
                    c["node.active_steps"] += 1
                    if em.to_parent is not None and node.depth:
                        c["node.msgs_up"] += 1
                    if em.to_children is not None:
                        c["node.msgs_down"] += node.n_children
                return node, em
            return wrapper

        run = e.run_until_quiescent

        def counted_run(cfg, *args, **kwargs):
            out = run(cfg, *args, **kwargs)
            if cfg.mode in tournament:
                # Links only go down during a run and every reset raises
                # them again, so the links down at the end are this run's
                # cuts.  A permanently disabled memory link is not a cut.
                for nd in cfg.nodes:
                    f = nd.flags
                    c["node.link_cuts"] += sum(f.link_child) + (f.link_mem and not f.perm_disabled)
            return out

        p.set(e, "step", counted_step)
        p.set(e, "send_search", counted_send(e.send_search))
        p.set(e, "send_max", counted_send(e.send_max))
        for mod in (e, m.algorithms):
            p.set(mod, "run_until_quiescent", counted_run)

    def restore(self) -> None:
        self._patches.restore()
