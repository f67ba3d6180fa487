import json
import math
import re
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sliderfilm.cli import (
    EXIT_DOMAIN,
    EXIT_NOCONV,
    EXIT_OK,
    EXIT_USAGE,
    _COMMANDS,
    _write_json,
    build_problem,
    dispatch,
    main,
)
from sliderfilm.config import RunConfig, default_gcurve_betas, parse_config
from sliderfilm.dynamics import GEvaluator, SolverParams
from sliderfilm.errors import ParseError, ValidationError
from sliderfilm.geometry import SliderShape, build_grid
from sliderfilm.vi_solver import load_integral, young_omega

from .conftest import lattice_csv_rows

MINIMAL_FLAT = """
{
  "domain": {"x1_min": -0.5, "x1_max": 0.5, "x2_min": -0.5, "x2_max": 0.5},
  "shape": {"variant": "flat"},
  "grid": {"nx": 16, "ny": 16},
  "physics": {"F": 1.0, "eta0": 1.0, "eta1": 0.0},
  "solver": {"omega": 1.7, "tol": 1e-9},
  "integrator": {"t_end": 2.0}
}
"""

SMALL_LINE = """
{
  "shape": {"variant": "line_contact", "alpha": 2.0},
  "grid": {"nx": 12, "ny": 12},
  "physics": {"F": 1.0, "eta0": 0.5, "eta1": 0.0},
  "solver": {"omega": 1.6, "tol": 1e-8},
  "integrator": {"t_end": 1.0},
  "gcurve": {"betas": [0.1, 0.3, 1.0]},
  "seed": 3
}
"""


class TestParse:
    def test_minimal_doc_fills_defaults(self):
        cfg = parse_config(MINIMAL_FLAT)
        assert cfg.shape.variant == "flat"
        assert cfg.shape.alpha is None
        assert cfg.integrator.rel_tol == 1e-6
        assert cfg.steady.beta_init == 0.5
        assert cfg.seed == 0

    def test_empty_doc_is_all_defaults(self):
        cfg = parse_config("{}")
        assert cfg == RunConfig()

    def test_negative_eta0_rejected_with_path(self):
        doc = json.loads(MINIMAL_FLAT)
        doc["physics"]["eta0"] = -1.0
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "physics.eta0"
        assert "> 0" in exc.value.constraint

    def test_unknown_key_rejected_with_path(self):
        doc = json.loads(MINIMAL_FLAT)
        doc["shape"]["alpha_exp"] = 2.0
        with pytest.raises(ParseError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "shape.alpha_exp"

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError) as exc:
            parse_config('{"phyzics": {}}')
        assert exc.value.path == "phyzics"

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config('{\n  "grid": {,}\n}')
        assert exc.value.line == 2

    def test_omega_range_checked(self):
        with pytest.raises(ValidationError) as exc:
            parse_config('{"solver": {"omega": 2.0}}')
        assert exc.value.path == "solver.omega"

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"integrator": {"t_end": NaN}}', "integrator.t_end"),
            ('{"solver": {"tol": Infinity}}', "solver.tol"),
            ('{"physics": {"eta1": -Infinity}}', "physics.eta1"),
            ('{"gcurve": {"betas": [0.1, 1e400]}}', "gcurve.betas[1]"),
            ('{"steady": {"beta_init": 1' + "0" * 400 + '}}', "steady.beta_init"),
        ],
    )
    def test_non_finite_number_rejected_with_path(self, text, path):
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.path == path
        assert "finite" in exc.value.constraint

    def test_unset_omega_resolves_to_young_omega(self):
        cfg = parse_config('{"grid": {"nx": 12, "ny": 20}}')
        prob = build_problem(cfg)
        assert prob.solver.omega is None  # resolved by each solve, from its own system
        system = prob.assemble(0.3, -0.3)
        pinned = replace(prob, solver=SolverParams(omega=young_omega(system, system.b > 0.0)))
        unset, explicit = GEvaluator(prob).field(0.3, -0.3), GEvaluator(pinned).field(0.3, -0.3)
        assert unset.iterations == explicit.iterations > 0
        assert np.array_equal(unset.values, explicit.values)
        assert build_problem(parse_config(SMALL_LINE)).solver.omega == 1.6

    def test_to_json_refuses_non_finite(self):
        cfg = RunConfig()
        cfg.physics.eta1 = float("nan")
        with pytest.raises(ValueError):
            cfg.to_json()

    def test_domain_must_contain_origin(self):
        with pytest.raises(ValidationError):
            parse_config('{"domain": {"x1_min": 0.1}}')

    def test_tabulated_requires_path(self):
        with pytest.raises(ValidationError) as exc:
            parse_config('{"shape": {"variant": "tabulated"}}')
        assert exc.value.path == "shape.table_path"

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValidationError):
            parse_config('{"shape": {"variant": "point_contact", "alpha": 0.9}}')

    def test_roundtrip_identity(self):
        for text in (MINIMAL_FLAT, SMALL_LINE, "{}"):
            cfg = parse_config(text)
            again = parse_config(cfg.to_json())
            assert again == cfg


SCHEMA = [
    (section.name, f.name)
    for section in fields(RunConfig)
    if section.name != "seed"
    for f in fields(getattr(RunConfig(), section.name))
]
# the fields that accept null: the X | None fields, and gcurve.betas (the default list)
NULLABLE = {
    "shape.alpha",
    "shape.table_path",
    "solver.omega",
    "gcurve.betas",
}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(heading):
    """(header, body rows) of the first table under README's `## heading`,
    each row a list of its cells with backslash-escaped pipes unescaped."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("|"))
    end = next((k for k in range(start, len(lines)) if not lines[k].startswith("|")), len(lines))
    rows = [
        [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in lines[start:end]
    ]
    return rows[0], rows[2:]


# a README constraint (its first code span) -> (values beyond its boundary,
# a value inside); the domain rows' `x1_min < 0 < x1_max` are read apart
README_BOUNDS = {
    "> 0": ([0.0, -1.0], 0.5),
    ">= 3": ([2], 3),
    ">= 1": ([math.nextafter(1.0, 0.0)], 1.0),
    "(0, 2)": ([0.0, 2.0], 1.0),
    ">= 0": ([-1], 0),
}
# (key, type, constraint) of each README row with a range
RANGED = [
    (key.strip("`"), kind, span)
    for key, kind, _, cell, _ in readme_table("Configuration")[1]
    for span in re.findall(r"`([^`]*)`", cell)[:1]
    if span in README_BOUNDS or re.fullmatch(r"x[12]_min < 0 < x[12]_max", span)
]
# the keys with no range: a choice, a path, and the free initial velocity
UNRANGED = {"shape.variant", "shape.table_path", "physics.eta1"}


@pytest.mark.parametrize("section, name", SCHEMA, ids=[f"{s}.{n}" for s, n in SCHEMA])
class TestSchemaField:
    def test_absent_takes_run_config_default(self, section, name):
        cfg = parse_config(json.dumps({section: {}}))
        assert getattr(getattr(cfg, section), name) == getattr(getattr(RunConfig(), section), name)

    def test_wrong_type_rejected_with_path(self, section, name):
        bad = 5 if (section, name) in {("shape", "variant"), ("shape", "table_path")} else "x"
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps({section: {name: bad}}))
        assert exc.value.path == f"{section}.{name}"

    def test_null_accepted_exactly_where_declared(self, section, name):
        # flat takes neither alpha nor table_path, so a null one is all it checks
        base = {"variant": "flat"} if section == "shape" and name != "variant" else {}
        text = json.dumps({section: {**base, name: None}})
        if f"{section}.{name}" not in NULLABLE:
            with pytest.raises(ValidationError) as exc:
                parse_config(text)
            assert exc.value.path == f"{section}.{name}"
            return
        value = getattr(getattr(parse_config(text), section), name)
        assert value == (default_gcurve_betas() if name == "betas" else None)


class TestSchema:
    def test_accepted_keys(self):
        keys = {name: sorted(sec) for name, sec in RunConfig().to_dict().items() if name != "seed"}
        assert keys == {
            "domain": ["x1_max", "x1_min", "x2_max", "x2_min"],
            "shape": ["alpha", "table_path", "variant"],
            "grid": ["nx", "ny"],
            "physics": ["F", "eta0", "eta1"],
            "solver": ["omega", "tol"],
            "integrator": ["abs_tol", "rel_tol", "t_end"],
            "steady": ["beta_init", "tol_residual"],
            "gcurve": ["betas"],
        }
        assert sum(map(len, keys.values())) + 1 == 21  # and the seed

    def test_readme_schema_table_matches_run_config(self):
        header, rows = readme_table("Configuration")
        assert header == ["key", "type", "default", "constraint", "`null` means"]
        documented = {}
        for key, _, default, _, _ in rows:
            default = default.strip("`")
            documented[key.strip("`")] = (
                default_gcurve_betas() if default == "default_gcurve_betas()" else json.loads(default)
            )
        expected = {
            f"{name}.{key}": value
            for name, section in RunConfig().to_dict().items()
            if name != "seed"
            for key, value in section.items()
        }
        expected["seed"] = RunConfig().seed
        assert list(documented) == list(expected)
        assert documented == expected
        assert len(rows) == 21
        # a null value is documented with a meaning exactly where the parser takes one
        assert {key.strip("`") for key, *_, null in rows if null != "—"} == NULLABLE

    def test_readme_constraints_cover_every_ranged_key(self):
        assert [key for key, *_ in RANGED] == [
            f"{s}.{n}" for s, n in SCHEMA if f"{s}.{n}" not in UNRANGED
        ] + ["seed"]

    @pytest.mark.parametrize("key, kind, constraint", RANGED, ids=[key for key, *_ in RANGED])
    def test_readme_constraint_matches_the_code(self, key, kind, constraint):
        # the README row's first code span, for example `> 0`: parse_config
        # rejects the value beyond its boundary under the row's key and
        # accepts one inside; a domain row reports x1_min or x2_min
        if constraint in README_BOUNDS:
            (rejected, accepted), path = README_BOUNDS[constraint], key
        else:
            rejected, accepted = [0.0], (-0.5 if key.endswith("_min") else 0.5)
            path = key[:-4] + "_min"
        if kind == "list of float":
            rejected, accepted = [[v] for v in rejected], [accepted]
        section, _, name = key.rpartition(".")

        def doc(value):
            return json.dumps({section: {name: value}} if section else {name: value})

        for value in rejected:
            with pytest.raises(ValidationError) as exc:
                parse_config(doc(value))
            assert exc.value.path == path
        parse_config(doc(accepted))

    def test_readme_command_table_matches_the_cli(self):
        header, rows = readme_table("Command line")
        assert header == ["command", "artifacts", "purpose"]
        assert [row[0].strip("`") for row in rows] == list(_COMMANDS)

    @pytest.mark.parametrize(
        "shape, path",
        [
            ({"variant": "flat", "alpha": 2.0}, "shape.alpha"),
            ({"variant": "tabulated", "table_path": "t.csv", "alpha": 2.0}, "shape.alpha"),
            ({"variant": "line_contact", "table_path": "t.csv"}, "shape.table_path"),
            ({"variant": "point_contact", "alpha": 2.0, "table_path": ""}, "shape.table_path"),
            ({"variant": "flat", "table_path": "t.csv"}, "shape.table_path"),
        ],
    )
    def test_shape_field_of_another_variant_rejected(self, tmp_path, shape, path):
        text = json.dumps({"shape": shape})
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.path == path
        assert exc.value.constraint.startswith("applies only to")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["bounds", "--config", str(cfgfile), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_warm_start_switch_is_unknown(self, tmp_path):
        text = '{"solver": {"warm_start": true}}'
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert exc.value.path == "solver.warm_start"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["bounds", "--config", str(cfgfile), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_steady_width_knob_is_unknown(self, tmp_path):
        # the steady search's width rule is the constant 1e-9 * beta, so no key sets it
        text = '{"steady": {"tol_beta": 1e-12}}'
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert exc.value.path == "steady.tol_beta"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["steady", "--config", str(cfgfile), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_fourier_cutoff_is_unknown(self, tmp_path):
        # verify's series constant always takes 99 terms, so no key sets it
        text = '{"oracle": {"fourier_cutoff": 99}}'
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert exc.value.path == "oracle"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["verify", "--config", str(cfgfile), "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "key, path",
        [
            ("solver.max_iter", "solver.max_iter"),
            ("integrator.max_samples", "integrator.max_samples"),
            ("integrator.eps_contact", "integrator.eps_contact"),
            ("steady.max_expansions", "steady.max_expansions"),
            ("steady.max_bisections", "steady.max_bisections"),
            # the oracle section is gone whole, so the unknown key is the section
            ("oracle.fine_grid", "oracle"),
            ("oracle.lcp_cases", "oracle"),
            ("oracle.comparison_cases", "oracle"),
            ("oracle", "oracle"),
        ],
    )
    def test_work_budget_is_unknown(self, tmp_path, capsys, key, path):
        # the solver, integrator, search and verify work budgets and the
        # contact guard are constants, so no key sets them
        section, _, name = key.partition(".")
        doc = {section: {name: 1} if name else {}}
        with pytest.raises(ParseError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == path
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        assert f"unknown key '{path}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_integrator_tolerance_reported_under_its_own_path(self, tmp_path, name, value):
        text = json.dumps({"integrator": {name: value}})
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.path == f"integrator.{name}"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        assert main(["bounds", "--config", str(cfgfile), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_null_shape_fields_accepted_and_round_trip(self):
        for shape in (
            {"variant": "flat", "alpha": None, "table_path": None},
            {"variant": "tabulated", "alpha": None, "table_path": "t.csv"},
            {"variant": "point_contact", "alpha": 1.5, "table_path": None},
        ):
            cfg = parse_config(json.dumps({"shape": shape}))
            assert cfg.shape.alpha == shape["alpha"]
            assert parse_config(cfg.to_json()) == cfg


class TestDispatch:
    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_FLAT)
        code = dispatch(cfg, "simulate", tmp_path)
        assert code == EXIT_OK
        csv = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert csv[0] == "t,eta,eta_dot,G,load,E1,E2,psor_iters"
        t = np.array([float(line.split(",")[0]) for line in csv[1:]])
        assert np.all(np.diff(t) > 0.0)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"]["kind"] == "reached_horizon"
        assert summary["monitor"]["passed"] is True
        assert summary["bounds"]["V1"] == 0.0

    def test_steady_on_flat_returns_documented_error(self, tmp_path):
        cfg = parse_config(MINIMAL_FLAT)
        code = dispatch(cfg, "steady", tmp_path)
        assert code == EXIT_DOMAIN
        doc = json.loads((tmp_path / "steady.json").read_text())
        assert doc["reason"] == "no stationary solution for flat slider"

    def test_steady_on_line_contact(self, tmp_path):
        cfg = parse_config(SMALL_LINE)
        code = dispatch(cfg, "steady", tmp_path)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "steady.json").read_text())
        assert abs(doc["g_at_root"]) <= cfg.steady.tol_residual
        assert doc["bracket"][0] <= doc["beta_star"] <= doc["bracket"][1]
        # solves and sweeps cover the whole command, bracket search included
        assert doc["solves"] > doc["evaluations"] > 0
        assert doc["sweeps"] >= doc["solves"]
        assert doc["omega_estimates"] == 0  # omega is pinned

    def test_steady_reports_the_load_error_of_g_at_root(self, tmp_path, monkeypatch):
        # g_error is area(Omega) tol max(1, ||p||_inf) of the solve that
        # g_at_root comes from, the last solve at beta_star
        solved = {}
        field = GEvaluator.field

        def recording_field(self, beta, gamma, tol=None):
            solved[beta] = (tol, field(self, beta, gamma, tol))
            return solved[beta][1]

        monkeypatch.setattr(GEvaluator, "field", recording_field)
        cfg = parse_config(SMALL_LINE)
        assert dispatch(cfg, "steady", tmp_path) == EXIT_OK
        doc = json.loads((tmp_path / "steady.json").read_text())
        tol, fld = solved[doc["beta_star"]]
        assert tol is None
        grid = build_problem(cfg).grid
        assert doc["g_error"] == grid.domain.area * cfg.solver.tol * max(1.0, float(fld.values.max()))
        assert doc["g_at_root"] == load_integral(fld, grid) - cfg.physics.F
        assert abs(doc["g_at_root"]) <= min(cfg.steady.tol_residual, doc["g_error"])

    def test_steady_estimates_an_unset_omega_less_often_than_it_solves(self, tmp_path):
        cfg = parse_config(SMALL_LINE.replace('"omega": 1.6, ', ""))
        assert cfg.solver.omega is None
        assert dispatch(cfg, "steady", tmp_path) == EXIT_OK
        doc = json.loads((tmp_path / "steady.json").read_text())
        assert 0 < doc["omega_estimates"] < doc["solves"]

    @pytest.mark.parametrize("doc", [SMALL_LINE, MINIMAL_FLAT])
    def test_simulate_counts_every_film_solve(self, tmp_path, monkeypatch, doc):
        # an external count of dynamics.solve_vi_psor, which every film solve
        # goes through: the start probe and the stages of rejected steps included
        import sliderfilm.dynamics as dynamics

        counted = {"solves": 0, "sweeps": 0}
        real_solve = dynamics.solve_vi_psor

        def solve_vi_psor(*args, **kwargs):
            fld = real_solve(*args, **kwargs)
            counted["solves"] += 1
            counted["sweeps"] += fld.iterations
            return fld

        monkeypatch.setattr(dynamics, "solve_vi_psor", solve_vi_psor)
        assert dispatch(parse_config(doc), "simulate", tmp_path) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        if doc is MINIMAL_FLAT:  # the flat force is a closed-form load: no solve
            assert counted == {"solves": 0, "sweeps": 0}
        else:
            assert counted["solves"] > 0
        assert {k: summary[k] for k in counted} == counted
        assert summary["omega_estimates"] == 0  # both configs pin omega

    def test_gcurve_csv(self, tmp_path):
        cfg = parse_config(SMALL_LINE)
        assert dispatch(cfg, "gcurve", tmp_path) == EXIT_OK
        lines = (tmp_path / "gcurve.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3

    def test_bounds_json(self, tmp_path):
        cfg = parse_config(SMALL_LINE)
        assert dispatch(cfg, "bounds", tmp_path) == EXIT_OK
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["s1"] == 1.0 and doc["s2"] == 0.5
        assert doc["D3_D4"].startswith("not computable")

    def test_verify_passes_on_small_config(self, tmp_path):
        cfg = parse_config(SMALL_LINE)
        assert dispatch(cfg, "verify", tmp_path) == EXIT_OK
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "fourier_vs_grid",
            "cutoff_exactness",
            "lcp_enumeration_equivalence",
            "comparison_principle",
            "flat_reference_match",
        }

    def test_verify_flat_reference_covers_the_stiff_phase(self, tmp_path, monkeypatch):
        # check 5's descent to t = 10 switches to RODAS 4(3) at t ~ 2.85, so
        # the scalar reference also checks samples of the stiff stepper
        import sliderfilm.oracle as oracle

        real, runs = oracle.integrate_trajectory, []

        def integrate(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(oracle, "integrate_trajectory", integrate)
        assert dispatch(parse_config(SMALL_LINE), "verify", tmp_path) == EXIT_OK
        (traj,) = runs
        assert traj.t[-1] == 10.0
        assert traj.stiff_from is not None and traj.stiff_from < 10.0
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert next(c for c in checks if c["name"] == "flat_reference_match")["passed"] is True

    def test_verify_enumeration_check_at_stop_test_edge(self, tmp_path):
        # config seed 3844556615 draws, as its tenth case, a flat case at
        # beta ~ 0.05 with p ~ 3e3, where a relative stop test at tol 1e-12
        # ends more than 1e-9 from the exact solution
        doc = json.loads(SMALL_LINE)
        doc["seed"] = 3844556615
        cfg = parse_config(json.dumps(doc))
        assert dispatch(cfg, "verify", tmp_path) == EXIT_OK
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        lcp = next(c for c in checks if c["name"] == "lcp_enumeration_equivalence")
        assert lcp["cases"] == 100
        assert lcp["passed"] is True

    def test_failed_check_fails_verify(self, tmp_path, monkeypatch):
        import sliderfilm.oracle as oracle

        failed = {"name": "cutoff_exactness", "passed": False}
        monkeypatch.setattr(oracle, "cutoff_exactness", lambda problems: failed)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(SMALL_LINE)
        assert dispatch(parse_config(SMALL_LINE), "verify", tmp_path / "a") == EXIT_DOMAIN
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_DOMAIN
        for out in ("a", "b"):
            doc = json.loads((tmp_path / out / "verify.json").read_text())
            assert doc["passed"] is False and doc["checks"][1] == failed

    def test_unknown_command_is_usage_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(parse_config(SMALL_LINE), "bogus", out) == EXIT_USAGE
        assert "unknown command 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(SMALL_LINE)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            for command in ("simulate", "steady", "verify"):
                assert dispatch(cfg, command, out) == EXIT_OK
        for name in ("trajectory.csv", "summary.json", "steady.json", "verify.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_build_problem_tabulated(self, tmp_path, domain_sym):
        rows = lattice_csv_rows(SliderShape.line_contact(2.0), build_grid(domain_sym, 5, 5))
        rows = ["x1,x2,h0,dh0_dx1"] + [",".join(row) for row in rows]
        table = tmp_path / "shape.csv"
        table.write_text("\n".join(rows) + "\n")
        doc = {
            "domain": {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0},
            "shape": {"variant": "tabulated", "table_path": str(table)},
            "grid": {"nx": 5, "ny": 5},
        }
        prob = build_problem(parse_config(json.dumps(doc)))
        assert prob.shape.kind.value == "tabulated"


class TestMain:
    def test_missing_config_is_usage_error(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == EXIT_USAGE

    def test_bad_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope}")
        assert main(["bounds", "--config", str(bad)]) == EXIT_USAGE

    def test_non_finite_config_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"integrator": {"t_end": NaN}}')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        assert "integrator.t_end" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_out_is_usage_error(self, tmp_path, capsys, below):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(MINIMAL_FLAT)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "out" if below else taken
        assert main(["bounds", "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "steady"])
    def test_solver_cap_is_nonconvergence(self, tmp_path, capsys, monkeypatch, command):
        # every film solve of a run stops at a 1-sweep cap
        import sliderfilm.dynamics as dynamics

        monkeypatch.setattr(dynamics, "solve_vi_psor", partial(dynamics.solve_vi_psor, max_iter=1))
        doc = json.loads(SMALL_LINE)
        doc["grid"] = {"nx": 16, "ny": 16}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_NOCONV
        assert "did not converge" in capsys.readouterr().err

    def test_overflowing_clearance_fails_before_solving(self, tmp_path, capsys):
        # unchecked, the solve at beta 1e110 runs all 204,800 sweeps of the
        # 64x64 grid on NaN coefficients and exits 3
        doc = {
            "shape": {"variant": "line_contact", "alpha": 2.0},
            "grid": {"nx": 64, "ny": 64},
            "solver": {"omega": 1.9, "tol": 1e-8},
            "gcurve": {"betas": [0.3, 1e110]},
        }
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["gcurve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_DOMAIN
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: assembly requires 0 < beta") and err.count("\n") == 1

    def test_overflowing_flat_clearance_exits_1(self, tmp_path, capsys):
        # the flat profile's cached-load shortcut divided by beta**3 in
        # Python floats and ended in an OverflowError traceback
        doc = json.loads(MINIMAL_FLAT)
        doc["physics"]["eta0"] = 1e110
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == (
            EXIT_DOMAIN
        )
        err = capsys.readouterr().err
        assert err.startswith("error: assembly requires 0 < beta") and err.count("\n") == 1

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_domain_overflowing_the_profile_is_usage_error(self, tmp_path, capsys, command):
        # the film's (h0 + beta)^3 = (x1^2 + beta)^3 overflows on this domain:
        # building the problem rejects it
        doc = {"domain": {"x1_min": -1, "x1_max": 1e100, "x2_min": -1, "x2_max": 1},
               "grid": {"nx": 8, "ny": 8}}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: domain: ") and err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "domain",
        [(-1e308, 1e308, -1, 1), (-1e200, 1e200, -1e200, 1e200), (-1e160, 1e160, -1, 1)],
        ids=["side", "squares", "square"],
    )
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_domain_beyond_the_float_range_is_usage_error(self, tmp_path, capsys, command, domain):
        # a side or its square overflows: these ended in tracebacks from
        # build_grid, poincare_lambda1, flat_unit_load and flat_C_omega
        doc = {"domain": dict(zip(("x1_min", "x1_max", "x2_min", "x2_max"), domain)),
               "shape": {"variant": "flat"}, "grid": {"nx": 8, "ny": 8}}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: domain.x1_min: ") and err.count("\n") == 1
        assert not out.exists()

    def test_json_artifacts_refuse_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"worst_margin": float("inf")})

    def test_full_run(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(MINIMAL_FLAT)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        assert (out / "summary.json").exists()

    def test_seed_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(SMALL_LINE)
        out = tmp_path / "out"
        assert main(
            ["verify", "--config", str(cfgfile), "--out", str(out), "--seed", "11"]
        ) == EXIT_OK

    @pytest.mark.parametrize(
        "case",
        ["missing_file", "non_numeric", "nan_gradient", "inf_height", "row_missing",
         "node_uncovered", "off_lattice"],
    )
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_bad_table_is_usage_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, domain_sym, case, command
    ):
        import sliderfilm.dynamics as dynamics
        import sliderfilm.oracle as oracle

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the table was checked")

        for mod, name in ((dynamics, "solve_vi_psor"), (oracle, "solve_vi_psor"),
                          (oracle, "solve_linear")):
            monkeypatch.setattr(mod, name, no_solve)
        rows = lattice_csv_rows(SliderShape.line_contact(2.0), build_grid(domain_sym, 5, 5))
        if case == "non_numeric":
            rows[3][2] = "abc"
        elif case == "nan_gradient":
            rows[7][3] = "nan"
        elif case == "inf_height":
            rows[7][2] = "inf"
        elif case == "row_missing":
            del rows[-1]
        elif case == "node_uncovered":
            rows[-1] = rows[0]
        elif case == "off_lattice":
            rows[-1][0] = "5.0"
        table = tmp_path / "shape.csv"
        if case != "missing_file":
            table.write_text("x1,x2,h0,dh0_dx1\n" + "".join(",".join(r) + "\n" for r in rows))
        doc = json.loads(SMALL_LINE)
        doc["shape"] = {"variant": "tabulated", "table_path": str(table)}
        doc["grid"] = {"nx": 5, "ny": 5}
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        assert "shape.table_path" in capsys.readouterr().err
        assert list(out.iterdir()) == []
