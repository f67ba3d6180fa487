"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest bench/check_bench.py

Two traced passes of one seed must report identical work counts and
identical artifacts, and the metric names and units the harness reports
must be the ones BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
COUNTS = (
    "vi_solver.solves",
    "vi_solver.sweeps",
    "vi_solver.node_updates",
    "vi_solver.assemble_calls",
    "vi_solver.noconv",
    "dynamics.evals",
    "dynamics.evals_without_solve",
    "dynamics.steps_accepted",
    "dynamics.steps_rejected",
    "dynamics.recorded_sweeps",
    "steady.evals",
    "cli.bytes_written",
)


def traced_pass(workload: str) -> dict:
    invs = workloads.invocations(workload, SEED, run.ROOT)
    run.STATE.mkdir(exist_ok=True)
    return run.run_child(run.make_spec(workload, invs, trace=True), run.RUN_LIMIT_S)


@pytest.fixture(scope="module", params=workloads.NAMES)
def two_passes(request):
    return request.param, traced_pass(request.param), traced_pass(request.param)


def test_counts_and_artifacts_repeat_exactly(two_passes):
    workload, a, b = two_passes
    assert a["failures"] == [None] * len(a["failures"])
    assert b["failures"] == a["failures"]
    assert a["digests"] == b["digests"]
    for name in COUNTS:
        assert a["layers"][name] == b["layers"][name], name
    if workload == "transient":
        # Trajectory.psor_iters records one stage per accepted step, not
        # every solve: the known undercount that run statistics must close
        recorded = a["layers"]["dynamics.recorded_sweeps"][0]
        assert 0 < recorded < a["layers"]["vi_solver.sweeps"][0]


def test_metric_names_match_benchmark_json(two_passes):
    _, a, _ = two_passes
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = {k: m["unit"] for k, m in run.per_layer(a, [a["wall_s"]]).items()}
    assert layers == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert run.END_TO_END == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert sorted(workloads.NAMES) == sorted(w["name"] for w in declared["workloads"])
