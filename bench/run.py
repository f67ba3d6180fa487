"""Benchmark of the sliderfilm commands: end-to-end and per-layer metrics.

    python3 bench/run.py --workload transient [--seed 0] [--seconds 25] [--trace 0]

Runs one workload (see bench/workloads.py) from the root of a source
checkout.  Every pass runs the workload's invocations through
``cli.dispatch`` in a fresh interpreter, so set-up and peak memory are
those of a real run.  Passes repeat until ``--seconds`` of measuring is
spent; the first pass's artifacts are checked for correctness and every
later pass must reproduce them byte for byte.

End-to-end metrics, each the median over the run's passes:

- ``wall_norm``: the commands' wall time divided by the mean duration of
  a fixed reference computation sampled on the same CPU while they run
  (``SpeedProbe`` in bench/child.py).  On a shared host the raw wall
  time of one input drifts by a factor of up to 2 within minutes; the
  ratio does not.
- ``setup_s``: importing the package, ``parse_config`` and
  ``build_problem``, also timed in extra set-up-only processes.
- ``peak_rss_mib``: peak resident memory of the pass's process.
- ``ok_frac``: the share of invocations that exited 0 and passed their
  output check and the determinism check.

The raw ``wall_s`` (probe time excluded) is printed and stored as well.
With ``--trace 1`` one more pass runs with spans around each layer and
the result reports the per-layer metrics (bench/tracer.py).  The last
line of stdout is one JSON object; a fuller record with run metadata
goes to ``.benchrun/results/``.  BLAS and OpenMP pools are pinned to one
thread.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".benchrun"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every child process ends within this long after the run starts
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# the end-to-end metrics the result line carries; raw wall_s is only reported
END_TO_END = {"wall_norm": "probes", "setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio"}
UNITS = {"wall_s": "s", **END_TO_END}


class PassFailed(Exception):
    pass


def run_child(spec: dict, timeout: float) -> dict:
    """Run child.py on a spec and return its JSON result."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_spec(workload, invs, *, trace=False, check=False, setup_only=False) -> dict:
    return {
        "src": str(ROOT / "src"),
        "workload": workload,
        "invocations": invs,
        "outs": [str(STATE / "out" / workload / str(i)) for i in range(len(invs))],
        "trace": trace,
        "check": check,
        "setup_only": setup_only,
    }


def source_digest() -> str:
    """sha256 of the package sources and shipped configs the artifacts depend on."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json"))
    for f in files:
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def metadata() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def record_digests(key: str, digests: list) -> list:
    """Store this run's artifact digests; return indices that disagree with an earlier run."""
    path = STATE / "digests.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    known = record.setdefault(key, digests)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return [i for i, (a, b) in enumerate(zip(known, digests)) if a != b]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    meta = metadata()
    invs = workloads.invocations(workload, seed, ROOT)
    n_inv = len(invs)
    setups, walls, norms, rss = [], [], [], []
    passes = []  # per pass, one failure reason or None per invocation
    reference = None  # first pass's digests; later passes must match them
    traced = None

    def account(res):
        nonlocal reference
        bad = list(res["failures"])
        if reference is None:
            reference = res["digests"]
        for i, d in enumerate(res["digests"]):
            if d != reference[i] and bad[i] is None:
                bad[i] = f"artifacts differ from the first pass (invocation {i})"
        passes.append(bad)

    try:
        for _ in range(SETUP_PROBES):
            setups.append(run_child(make_spec(workload, invs, setup_only=True), left())["setup_s"])
        spent = 0.0
        reserve = 2.0 if trace else 1.0  # a traced pass needs room after the untraced ones
        while True:
            t0 = time.perf_counter()
            res = run_child(make_spec(workload, invs, check=not walls), left())
            took = time.perf_counter() - t0 - res["check_s"]
            spent += took
            walls.append(res["wall_s"])
            norms.append(res["wall_norm"])
            rss.append(res["peak_rss_mib"])
            setups.append(res["setup_s"])
            account(res)
            if spent + reserve * took > seconds:
                break
        if trace:
            traced = run_child(make_spec(workload, invs, trace=True), left())
            account(traced)
    except PassFailed as exc:
        passes.append([str(exc)] * n_inv)

    inputs = hashlib.sha256(json.dumps(invs, sort_keys=True).encode()).hexdigest()
    key = f"{meta['source_sha256']}/numpy-{meta['numpy']}/{workload}/{inputs}"
    if reference is not None:
        for i in record_digests(key, reference):
            if passes[0][i] is None:
                passes[0][i] = f"artifacts differ from an earlier run (invocation {i})"

    attempted = n_inv * len(passes)
    failed = sum(f is not None for p in passes for f in p)
    samples = {
        "wall_s": walls,
        "wall_norm": norms,
        "setup_s": setups,
        "peak_rss_mib": rss,
    }
    e2e = {}
    for name, values in samples.items():
        if values:
            q1, med, q3 = quartiles(values)
            e2e[name] = {
                "value": med,
                "unit": UNITS[name],
                "n": len(values),
                "q1": q1,
                "q3": q3,
                "samples": values,
            }
    e2e["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio", "n": attempted}

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metadata": meta,
        "invocations": invs,
        "digests": reference,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p if f is not None],
        "end_to_end": e2e,
        "per_layer": per_layer(traced, walls) if traced is not None else {},
    }


def per_layer(traced: dict, untraced_walls: list) -> dict:
    """Per-layer metrics of a traced pass; overhead is against the untraced median."""
    layers = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    layers["config.parse_s"] = {"value": traced["parse_s"], "unit": "s"}
    layers["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    layers["trace.overhead_s"] = {
        "value": traced["wall_s"] - statistics.median(untraced_walls),
        "unit": "s",
    }
    return layers


def print_report(report: dict) -> None:
    meta = report["metadata"]
    print(
        f"# {report['workload']} seed={report['seed']} seconds={report['seconds']} "
        f"trace={int(report['trace'])}"
    )
    print(
        f"# cpu={meta['cpu_model']!r} nproc={meta['nproc']} python={meta['python']} "
        f"numpy={meta['numpy']} commit={meta['git_commit']} source={meta['source_sha256'][:12]} "
        f"blas_threads=1"
    )
    for reason in report["failures"]:
        print(f"# FAILED: {reason.strip().splitlines()[-1]}")
    print(f"{'metric':<34}{'value':>16}  {'unit':<8}{'n':>6}  quartiles")
    for name, m in report["end_to_end"].items():
        qs = f"{m['q1']:.6g} .. {m['q3']:.6g}" if "q1" in m else ""
        print(f"{name:<34}{m['value']:>16.6g}  {m['unit']:<8}{m['n']:>6}  {qs}")
    layers = report["per_layer"]
    if layers:
        wall = layers["trace.wall_s"]["value"]
        print(f"\n{'layer metric':<34}{'value':>16}  {'unit':<8}{'share of traced wall_s':>24}")
        for name, m in sorted(layers.items()):
            share = f"{m['value'] / wall:>23.1%}" if m["unit"] == "s" and wall > 0 else ""
            print(f"{name:<34}{m['value']:>16.6g}  {m['unit']:<8}{share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/sliderfilm/cli.py", "configs/flat_decay.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a sliderfilm source checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    STATE.mkdir(exist_ok=True)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")

    print_report(report)
    if args.trace:
        chosen = report["per_layer"]
    else:
        chosen = {k: m for k, m in report["end_to_end"].items() if k in END_TO_END}
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in chosen.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
