"""The three workloads: inputs drawn from the seed, and their output checks.

Each workload is a list of command invocations (command name plus a
config document) that one pass runs through ``cli.dispatch``.  Where a
seeded parameter changes how much work a command does, a pass spreads
its draws over the whole range (equal strata for ``transient``, a value
and its mirror for ``steady``), so a pass's total work depends less on
the seed.

The ``verify`` command is not a workload: for about 2% of config seeds
its PSOR-versus-enumeration check reads just over its 1e-9 limit (the
PSOR stop test understates the error), so a seeded ``verify`` workload
fails on some seeds.
"""

import json
import random
from pathlib import Path

NAMES = ("transient", "steady", "flat_decay")

WHY = {
    "transient": "warm-started PSOR solves on a 32x32 line contact through the initial "
    "transient; PSOR is nearly all of the time",
    "steady": "bracket-and-bisect steady searches on 64x64 line and point contacts; "
    "few solves on a larger grid, no integrator",
    "flat_decay": "flat-profile decay: one solve, then hundreds of thousands of cached "
    "force evaluations, integrator steps and a large CSV; bypasses PSOR",
}

TRANSIENT_STRATA = 8
TRANSIENT_T_END = 0.25


def _config(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal parts of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def invocations(name: str, seed: int, root: Path) -> list[tuple[str, dict]]:
    """The (command, config document) pairs one pass of a workload runs."""
    rng = random.Random(seed)
    if name == "transient":
        # criterion 6's problem: line contact, alpha 2, 32x32 on [-1,1]^2,
        # near-optimal relaxation, tol 1e-9
        from sliderfilm import DomainRect, build_grid, suggested_omega

        n = 32
        omega = float(suggested_omega(build_grid(DomainRect(-1.0, 1.0, -1.0, 1.0), n, n)))
        out = []
        for eta1 in _stratified(rng, -0.5, 0.5, TRANSIENT_STRATA):
            doc = {
                "domain": {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0},
                "shape": {"variant": "line_contact", "alpha": 2.0},
                "grid": {"nx": n, "ny": n},
                "physics": {"F": 1.0, "eta0": 0.5, "eta1": eta1},
                "solver": {"omega": omega, "tol": 1e-9},
                "integrator": {"t_end": TRANSIENT_T_END, "rel_tol": 1e-6, "abs_tol": 1e-9},
            }
            out.append(("simulate", doc))
        return out
    if name == "steady":
        # both searches do more work the larger beta_init is, so the line
        # contact takes u and the point contact 1 - u: a pass's total work
        # then barely depends on the seed
        u = rng.random()
        out = []
        for cfg, v in (("line_contact.json", u), ("point_contact.json", 1.0 - u)):
            doc = _config(root, cfg)
            doc["steady"]["beta_init"] = 0.25 + 0.75 * v
            out.append(("steady", doc))
        return out
    if name == "flat_decay":
        doc = _config(root, "flat_decay.json")
        doc["physics"]["eta1"] = rng.uniform(-0.5, 0.5)
        return [("simulate", doc)]
    raise ValueError(f"unknown workload {name!r}")


# -- output checks (run after the timed region) ------------------------


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_columns(path: Path, names, rows=None):
    """Selected float columns of a CSV artifact, optionally at selected rows."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = [header.index(n) for n in names]
    body = lines[1:]
    if rows is not None:
        body = [body[r] for r in rows]
    cols = [[] for _ in names]
    for line in body:
        fields = line.split(",")
        for c, i in zip(cols, idx):
            c.append(float(fields[i]))
    return cols


def check(name: str, doc: dict, out: Path, rc: int) -> str | None:
    """Return None when the invocation's artifacts are correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if name == "transient":
        return _check_transient(out)
    if name == "steady":
        res = _read_json(out / "steady.json")
        tol = doc["steady"]["tol_residual"]
        if not abs(res["g_at_root"]) <= tol:
            return f"|g_at_root| = {abs(res['g_at_root'])} > {tol}"
        return None
    if name == "flat_decay":
        return _check_flat_decay(doc, out)
    raise ValueError(f"unknown workload {name!r}")


def _check_transient(out: Path) -> str | None:
    """Criterion 6: horizon reached, V2/D2/V3 bounds hold, energy monitor passes."""
    summary = _read_json(out / "summary.json")
    if summary["termination"]["kind"] != "reached_horizon":
        return f"terminated with {summary['termination']['kind']}"
    b = summary["bounds"]
    eta, eta_dot = _csv_columns(out / "trajectory.csv", ("eta", "eta_dot"))
    if not all(v < b["V2"] for v in eta_dot):
        return "eta' reached the V2 ceiling"
    if not all(v > -b["V3"] for v in eta_dot):
        return "eta' reached the -V3 floor"
    if not all(0.0 < e < b["D2"] for e in eta):
        return "eta left (0, D2)"
    if not summary["monitor"]["passed"]:
        return f"energy monitor failed: {summary['monitor']['worst_violation']}"
    return None


def _check_flat_decay(doc: dict, out: Path) -> str | None:
    """Criterion 7: horizon reached and within 1e-2 of the scalar reference."""
    import numpy as np
    from sliderfilm import DomainRect
    from sliderfilm.oracle import flat_model, flat_reference_trajectory

    summary = _read_json(out / "summary.json")
    if summary["termination"]["kind"] != "reached_horizon":
        return f"terminated with {summary['termination']['kind']}"
    pick = np.unique(np.linspace(0, summary["samples"] - 1, 400).astype(int)).tolist()
    t, eta = _csv_columns(out / "trajectory.csv", ("t", "eta"), rows=pick)
    d, p = doc["domain"], doc["physics"]
    domain = DomainRect(d["x1_min"], d["x1_max"], d["x2_min"], d["x2_max"])
    model = flat_model(domain, p["F"], p["eta0"], p["eta1"], cutoff=99)
    ref = flat_reference_trajectory(model, doc["integrator"]["t_end"], fine_tol=1e-8, t_eval=t)
    if ref.t.size != len(pick):
        return "reference trajectory missed sample times"
    worst = max(abs(e - r) / r for e, r in zip(eta, ref.eta.tolist()))
    if not worst <= 1e-2:
        return f"relative error against the reference {worst:.3e} > 1e-2"
    return None
