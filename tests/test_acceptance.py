"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion pins
its tolerance and its runtime budget; budgets are asserted, with wide
margins on current hardware.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from sliderfilm.dynamics import (
    GEvaluator,
    Problem,
    SolverParams,
    StepControl,
    TerminationKind,
    bounds_report,
    integrate_trajectory,
    monitor_energies,
    spring_damper_decomposition,
)
from sliderfilm.errors import InadmissibleShape
from sliderfilm.geometry import DomainRect, SliderShape, build_grid, contact_box
from sliderfilm.oracle import (
    comparison_principle,
    cutoff_exactness,
    flat_C_omega,
    flat_model,
    flat_reference_gap,
    lcp_enumeration_equivalence,
)
from sliderfilm.steady import find_bracket, find_steady
from sliderfilm.vi_solver import load_integral, suggested_omega

from .conftest import tabulated_from

UNIT = DomainRect(-0.5, 0.5, -0.5, 0.5)
SYM = DomainRect(-1.0, 1.0, -1.0, 1.0)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label} ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.1f}s <= {budget_s:.0f}s)")
    assert elapsed <= budget_s


def problem_on(shape, domain, n, tol=1e-9, **phys):
    grid = build_grid(domain, n, n)
    phys = {"F": 1.0, "eta0": 0.5, "eta1": 0.0, **phys}
    return Problem(
        shape=shape, grid=grid,
        solver=SolverParams(omega=suggested_omega(grid), tol=tol), **phys,
    )


def test_criterion_1_flat_force_law():
    with criterion(1, "flat-case force law, second-order convergence", 30.0):
        C = flat_C_omega(UNIT, 99).value
        errors = {}
        for n in (32, 64):
            prob = problem_on(SliderShape.flat(), UNIT, n, tol=1e-10, eta0=1.0)
            for beta in (0.5, 1.0, 2.0):
                for gamma in (-2.0, -1.0, -0.1):
                    g = load_integral(GEvaluator(prob).field(beta, gamma), prob.grid) - prob.F
                    exact = -gamma * C / beta**3 - 1.0
                    errors[(n, beta, gamma)] = abs(g - exact)
                    if n == 64:
                        assert abs(g - exact) / abs(exact) <= 0.02
        for beta in (0.5, 1.0, 2.0):
            for gamma in (-2.0, -1.0, -0.1):
                ratio = errors[(32, beta, gamma)] / errors[(64, beta, gamma)]
                assert ratio >= 3.5


def test_criterion_2_exact_cutoff():
    with criterion(2, "exact pressure cutoff above the slope supremum", 5.0):
        grid_tab = build_grid(SYM, 11, 11)
        cases = [
            (SliderShape.line_contact(2.0), 32),
            (SliderShape.point_contact(2.0), 32),
            (SliderShape.flat(), 32),
            (tabulated_from(SliderShape.line_contact(2.0), grid_tab), 11),
        ]
        check = cutoff_exactness([problem_on(shape, SYM, n) for shape, n in cases])
        assert check["worst_load"] == 0.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "sweep solver equals the pivoting oracle (100 cases)", 10.0):
        rng = np.random.default_rng(12345)
        check = lcp_enumeration_equivalence(rng, SYM, 100, tol=1e-12)
        assert check["worst_abs_diff"] <= 1e-9


def test_criterion_4_comparison_principle():
    with criterion(4, "constrained solution dominates sub-region solves", 60.0):
        rng = np.random.default_rng(2024)
        grid_tab = build_grid(SYM, 11, 11)
        shapes = [
            (SliderShape.line_contact(2.0), 24),
            (SliderShape.point_contact(2.0), 24),
            (SliderShape.flat(), 24),
            (tabulated_from(SliderShape.line_contact(2.0), grid_tab), 11),
        ]
        for shape, n in shapes:
            check = comparison_principle(rng, problem_on(shape, SYM, n, tol=1e-9), 20)
            assert check["passed"], (shape.describe(), check)


def test_criterion_5_steady_state_existence():
    with criterion(5, "steady clearances exist and are grid-stable", 300.0):
        for make in (SliderShape.line_contact, SliderShape.point_contact):
            roots = {}
            for n in (96, 128):
                prob = problem_on(make(2.0), SYM, n)
                ev = GEvaluator(prob)
                res = find_steady(ev, find_bracket(ev, 0.5), tol_residual=1e-6)
                assert abs(res.g_at_root) <= 1e-6
                roots[n] = res.beta_star
            assert abs(roots[96] - roots[128]) / roots[128] <= 5e-2
        flat_prob = problem_on(SliderShape.flat(), SYM, 16)
        with pytest.raises(InadmissibleShape, match="no stationary solution for flat slider"):
            find_bracket(GEvaluator(flat_prob), 0.5)


def test_criterion_6_trajectory_bounds_and_energies():
    with criterion(6, "long-horizon bounds and energy monotonicity", 600.0):
        sweeps = rejected = 0
        for eta1 in (-0.5, 0.0, 0.5):
            prob = problem_on(SliderShape.line_contact(2.0), SYM, 32, eta1=eta1)
            br = bounds_report(prob)
            traj = integrate_trajectory(prob, 50.0, StepControl(rel_tol=1e-6, abs_tol=1e-9))
            assert traj.termination.kind is TerminationKind.REACHED_HORIZON
            assert np.all(traj.eta_dot < br.V2)
            assert np.all(traj.eta < br.D2)
            assert np.all(traj.eta_dot > -br.V3)
            assert traj.eta.min() > 0.0
            rep = monitor_energies(traj, tol=1e-4)
            assert rep.passed, f"eta1={eta1}: worst violation {rep.worst_violation}"
            sweeps += traj.n_sweeps
            rejected += traj.n_rejected
        # 47,821 sweeps and 97 rejected steps; the bound fails a return to
        # the secant start or to solving every stage at tol 1e-9
        assert sweeps <= 51_850 and rejected <= 99, (sweeps, rejected)


def test_criterion_7_flat_decay():
    with criterion(7, "flat-case decay matches the scalar reference", 300.0):
        for eta1 in (-0.5, 0.5):
            prob = problem_on(SliderShape.flat(), SYM, 32, eta0=1.0, eta1=eta1)
            traj = integrate_trajectory(prob, 200.0, StepControl(rel_tol=1e-6, abs_tol=1e-9))
            assert traj.termination.kind is TerminationKind.REACHED_HORIZON

            gap = flat_reference_gap(traj, flat_model(SYM, 1.0, 1.0, eta1, cutoff=99), 200.0, 400)
            assert gap.ref.t.size == gap.pick.size
            assert gap.passed, (gap.max_rel_diff, gap.max_envelope_violation)

            past_peak = np.flatnonzero(traj.eta_dot <= -1e-3)
            assert past_peak.size > 0
            tail = traj.eta[past_peak[0]:]
            assert np.all(np.diff(tail) < 0.0)
            assert traj.eta[-1] < 0.2 * prob.eta0


def test_criterion_8_spring_damper_lower_bound():
    with criterion(8, "wedge spring-damper force bound", 120.0):
        shape = SliderShape.line_contact(2.0)
        prob = problem_on(shape, SYM, 64, tol=1e-9)
        for beta in (0.02, 0.05, 0.1):
            box = contact_box(shape, SYM, beta, delta=0.5)
            sd = spring_damper_decomposition(
                prob, beta, box, check_gammas=(-1.0, -0.3, 0.0), check_tol=1e-6
            )
            assert sd.passed
            for chk in sd.checks:
                assert chk.G >= chk.lower_bound - 1e-6
