"""Per-layer spans recorded from outside the package.

The package modules bind their imports by name (``from .vi_solver import
solve_vi_psor``), so each wrapper is installed on the name where the
call is looked up: ``dynamics.solve_vi_psor``, ``cli.solve_vi_psor``,
``oracle.solve_vi_psor`` and so on.  Spans are aggregated in memory as
they close (calls, total and self time per span name, plus the work
counts read off arguments and results) and turned into metrics once the
traced pass has ended.  A span's self time is its duration minus the
durations of the spans it directly encloses.
"""

import functools
import math
import os
import time

# bytes touched by one node update of the PSOR sweep, computed from the
# arrays the update reads (b, four couplings, 1/diag, the node and its
# four neighbours) and writes (the node): 12 float64 values
BYTES_PER_NODE_UPDATE = 12 * 8

# span name -> the metric its time feeds; "self" spans exclude children
_TIME_METRICS = {
    "psor": ("vi_solver.psor_s", "total"),
    "assemble": ("vi_solver.assemble_s", "total"),
    "integrate": ("dynamics.integrate_self_s", "self"),
    "eval": ("dynamics.eval_self_s", "self"),
    "monitor": ("dynamics.monitor_s", "total"),
    "bracket": ("steady.bracket_s", "self"),
    "bisect": ("steady.bisect_s", "self"),
    "write": ("cli.write_s", "total"),
    "dispatch": ("cli.other_s", "self"),
}


class Tracer:
    """Span stack plus running counts for one traced pass."""

    def __init__(self):
        self.stack = []  # open spans: [seconds in child spans, PSOR solves inside]
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.solve_seconds = []
        self.active = {}  # span name -> open spans of that name
        self.counts = {
            "solves": 0,
            "sweeps": 0,
            "cold_solves": 0,
            "cold_sweeps": 0,
            "warm_solves": 0,
            "warm_sweeps": 0,
            "node_updates": 0,
            "noconv": 0,
            "evals_without_solve": 0,
            "steady_evals": 0,
            "steps_accepted": 0,
            "steps_rejected": 0,
            "step_solves": 0,
            "recorded_sweeps": 0,
            "bytes_written": 0,
        }

    def wrap(self, fn, name, on_result=None):
        """Return fn wrapped in a span named name.

        on_result(result, args, kwargs, frame, elapsed) adds the work counts
        of a call that returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            self.stack.append(frame)
            self.active[name] = self.active.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.active[name] -= 1
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + elapsed
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[0]
                if self.stack:
                    self.stack[-1][0] += elapsed
                    self.stack[-1][1] += frame[1]
            if on_result is not None:
                on_result(result, args, kwargs, frame, elapsed)
            return result

        return traced

    # -- count hooks -----------------------------------------------------

    def _psor_done(self, result, args, kwargs, frame, elapsed):
        self._count_solve(args[0], result.iterations, kwargs.get("warm_start") is not None)
        self.solve_seconds.append(elapsed)

    def _count_solve(self, system, sweeps, warm):
        c = self.counts
        c["solves"] += 1
        c["sweeps"] += sweeps
        kind = "warm" if warm else "cold"
        c[kind + "_solves"] += 1
        c[kind + "_sweeps"] += sweeps
        c["node_updates"] += sweeps * system.grid.nx * system.grid.ny
        if self.active.get("integrate"):
            c["step_solves"] += 1
        if self.stack:
            self.stack[-1][1] += 1

    def _eval_done(self, result, args, kwargs, frame, elapsed):
        if frame[1] == 0:
            self.counts["evals_without_solve"] += 1
        if self.active.get("bracket") or self.active.get("bisect"):
            self.counts["steady_evals"] += 1

    def _integrate_done(self, traj, args, kwargs, frame, elapsed):
        self.counts["steps_accepted"] += len(traj) - 1
        self.counts["steps_rejected"] += traj.n_rejected
        self.counts["recorded_sweeps"] += int(traj.psor_iters.sum())

    def _csv_done(self, result, args, kwargs, frame, elapsed):
        self.counts["bytes_written"] += os.path.getsize(args[1])

    def _json_done(self, result, args, kwargs, frame, elapsed):
        self.counts["bytes_written"] += os.path.getsize(args[0])

    def _psor_noconv(self, fn):
        """Wrap solve_vi_psor so a non-converged solve is counted, then re-raised."""
        from sliderfilm.errors import NoConvergence

        @functools.wraps(fn)
        def counted(system, *args, **kwargs):
            try:
                return fn(system, *args, **kwargs)
            except NoConvergence as exc:
                self.counts["noconv"] += 1
                self._count_solve(system, exc.iterations, kwargs.get("warm_start") is not None)
                raise

        return counted

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name in the imported package; call once per process."""
        from sliderfilm import cli, dynamics, oracle

        psor = self.wrap(self._psor_noconv(dynamics.solve_vi_psor), "psor", self._psor_done)
        assemble = self.wrap(dynamics.assemble_system, "assemble")
        for mod in (dynamics, cli, oracle):
            mod.solve_vi_psor = psor
            mod.assemble_system = assemble

        integrate = self.wrap(dynamics.integrate_trajectory, "integrate", self._integrate_done)
        dynamics.integrate_trajectory = integrate
        cli.integrate_trajectory = integrate
        dynamics.GEvaluator.eval = self.wrap(dynamics.GEvaluator.eval, "eval", self._eval_done)
        dynamics.monitor_energies = self.wrap(dynamics.monitor_energies, "monitor")

        cli.find_bracket = self.wrap(cli.find_bracket, "bracket")
        cli.find_steady = self.wrap(cli.find_steady, "bisect")

        dynamics.Trajectory.to_csv = self.wrap(dynamics.Trajectory.to_csv, "write", self._csv_done)
        cli._write_json = self.wrap(cli._write_json, "write", self._json_done)
        cli.dispatch = self.wrap(cli.dispatch, "dispatch")

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as {name: (value, unit)}."""
        c = self.counts
        m = {}
        for span, (metric, kind) in _TIME_METRICS.items():
            source = self.self_time if kind == "self" else self.total
            m[metric] = (source.get(span, 0.0), "s")

        m["vi_solver.solves"] = (c["solves"], "count")
        m["vi_solver.sweeps"] = (c["sweeps"], "count")
        m["vi_solver.sweeps_per_solve.cold"] = (_ratio(c["cold_sweeps"], c["cold_solves"]), "sweeps")
        m["vi_solver.sweeps_per_solve.warm"] = (_ratio(c["warm_sweeps"], c["warm_solves"]), "sweeps")
        m["vi_solver.node_updates"] = (c["node_updates"], "count")
        m["vi_solver.bytes_computed"] = (c["node_updates"] * BYTES_PER_NODE_UPDATE, "B")
        m["vi_solver.ns_per_node_update"] = (
            _ratio(1e9 * self.total.get("psor", 0.0), c["node_updates"]),
            "ns",
        )
        p50, tail, tail_pct = solve_percentiles(self.solve_seconds)
        m["vi_solver.solve_ms.p50"] = (1e3 * p50, "ms")
        m["vi_solver.solve_ms.tail"] = (1e3 * tail, "ms")
        m["vi_solver.solve_ms.tail_pct"] = (tail_pct, "%")
        m["vi_solver.assemble_calls"] = (self.calls.get("assemble", 0), "count")
        m["vi_solver.noconv"] = (c["noconv"], "count")

        evals = self.calls.get("eval", 0)
        steps = c["steps_accepted"] + c["steps_rejected"]
        m["dynamics.evals"] = (evals, "count")
        m["dynamics.evals_without_solve"] = (c["evals_without_solve"], "count")
        m["dynamics.shortcut_ratio"] = (_ratio(c["evals_without_solve"], evals), "ratio")
        m["dynamics.steps_accepted"] = (c["steps_accepted"], "count")
        m["dynamics.steps_rejected"] = (c["steps_rejected"], "count")
        m["dynamics.accept_ratio"] = (_ratio(c["steps_accepted"], steps), "ratio")
        m["dynamics.solves_per_step"] = (_ratio(c["step_solves"], steps), "solves")
        m["dynamics.recorded_sweeps"] = (c["recorded_sweeps"], "count")
        m["steady.evals"] = (c["steady_evals"], "count")
        m["cli.bytes_written"] = (c["bytes_written"], "B")
        return m


def _ratio(num, den):
    return num / den if den else 0.0


def solve_percentiles(samples):
    """Median and the highest of p99.9/p99/p95/p90/p75 with >= 10 samples beyond it.

    With too few samples for any of those, the tail is the maximum and
    its percentile reads 100.
    """
    if not samples:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    n = len(xs)
    p50 = xs[(n - 1) // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return p50, xs[min(n - 1, math.ceil(pct / 100.0 * n) - 1)], pct
    return p50, xs[-1], 100.0
