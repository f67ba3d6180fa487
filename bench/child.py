"""One measured pass of a workload, in a fresh interpreter.

Reads a JSON spec on stdin and prints one JSON result line on stdout.
The spec names the source tree, the invocations and their output
directories, and whether to trace, to check outputs, or only to time
set-up.  Nothing from numpy or the package is imported before the
set-up clock starts.
"""

import contextlib
import hashlib
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

PROBE_PERIOD_S = 0.05
PROBE_REPS = 400  # a few milliseconds of work per probe


class SpeedProbe:
    """Samples how fast this CPU runs while the commands execute.

    Other tenants of a shared host slow a process down by up to 2x for
    seconds at a time, on one CPU and not the other, so a reference
    computation timed before or after a pass, or on another CPU, does not
    see what the pass saw.  Every PROBE_PERIOD_S a timer signal runs a
    fixed computation that shares no code with the package (small-array
    numpy calls and scalar float arithmetic, the mix of the sweeps and the
    integrator) on the same CPU.  The pass's time outside the probes,
    divided by the mean probe duration, is its cost in probe units.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.linspace(0.0, 1.0, 64)
        self.b = np.empty_like(self.a)
        self.samples = []

    def _probe(self, signum, frame):
        np, a, b = self.np, self.a, self.b
        start = time.perf_counter()
        x = 0.0
        for _ in range(PROBE_REPS):
            np.multiply(a, 1.0001, out=b)
            np.add(b, a, out=b)
            np.maximum(b, 0.5, out=b)
            x += float(b.max())
            for _ in range(10):
                x = x * 0.999 + 0.001
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass shorter than one period still gets a speed
            self._probe(None, None)


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f.relative_to(out).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def main() -> None:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    texts = [json.dumps(doc) for _, doc in spec["invocations"]]

    start = time.perf_counter()
    import sliderfilm
    from sliderfilm import cli

    parse_start = time.perf_counter()
    configs = [sliderfilm.parse_config(text) for text in texts]
    parse_s = time.perf_counter() - parse_start
    for config in configs:
        cli.build_problem(config)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "parse_s": parse_s}
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outs = [Path(o) for o in spec["outs"]]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    rcs, errors, wall = [], [], 0.0
    probe = SpeedProbe()
    with probe if tracer is None else contextlib.nullcontext():
        for (command, _), config, out in zip(spec["invocations"], configs, outs):
            t0 = time.perf_counter()
            try:
                rc = cli.dispatch(config, command, out)
                err = None
            except Exception:  # a crash is a failed invocation, not a failed benchmark
                rc, err = None, traceback.format_exc(limit=3)
            wall += time.perf_counter() - t0
            rcs.append(rc)
            errors.append(err)
    if tracer is None:
        # the probes interrupt the commands; their time is not the commands'
        wall -= sum(probe.samples)
        result["wall_norm"] = wall * len(probe.samples) / sum(probe.samples)
    result["wall_s"] = wall
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}

    result["digests"] = [_digest(out) for out in outs]
    check_start = time.perf_counter()
    failures = []
    for (_, doc), out, rc, err in zip(spec["invocations"], outs, rcs, errors):
        if err is not None:
            failures.append(err)
        elif spec["check"]:
            import workloads

            try:
                failures.append(workloads.check(spec["workload"], doc, out, rc))
            except Exception:  # missing or malformed artifacts fail the check
                failures.append(traceback.format_exc(limit=3))
        else:
            failures.append(None if rc == 0 else f"exit code {rc}")
    result["failures"] = failures
    result["check_s"] = time.perf_counter() - check_start
    print(json.dumps(result))


if __name__ == "__main__":
    main()
