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
from sliderfilm.geometry import (
    DomainRect,
    SliderShape,
    build_grid,
    compute_V1,
    contact_box,
)
from sliderfilm.oracle import (
    comparison_check,
    flat_C_omega,
    flat_envelope,
    flat_model,
    flat_reference_trajectory,
    lcp_enumerate,
)
from sliderfilm.steady import find_bracket, find_steady
from sliderfilm.vi_solver import assemble_system, load_integral, solve_vi_psor, suggested_omega

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
                    g = load_integral(prob.solve_film(beta, gamma), prob.grid) - prob.F
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
        for shape, n in cases:
            prob = problem_on(shape, SYM, n)
            v1 = compute_V1(shape, prob.grid)
            for beta in (0.1, 1.0):
                load = load_integral(prob.solve_film(beta, v1 + 0.1), prob.grid)
                assert load - prob.F == -prob.F
                assert abs(load) <= 1e-10


def test_criterion_3_oracle_equivalence():
    with criterion(3, "sweep solver equals active-set enumeration (100 cases)", 10.0):
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(100):
            nx = int(rng.integers(3, 5))
            ny = int(rng.integers(3, 5))
            grid = build_grid(SYM, nx, ny)
            pick = rng.integers(0, 3)
            if pick == 0:
                shape = SliderShape.line_contact(float(rng.uniform(1.0, 3.0)))
            elif pick == 1:
                shape = SliderShape.point_contact(float(rng.uniform(1.0, 3.0)))
            else:
                shape = SliderShape.flat()
            beta = float(rng.uniform(0.05, 2.0))
            v1 = compute_V1(shape, grid)
            gamma = float(rng.uniform(-2.0, v1 + 1.0))
            system = assemble_system(grid, shape, beta, gamma)
            psor = solve_vi_psor(system, tol=1e-12, max_iter=100_000)
            enum = lcp_enumerate(system)
            worst = max(worst, float(np.max(np.abs(psor.values - enum.values))))
        assert worst <= 1e-9


def test_criterion_4_comparison_principle():
    with criterion(4, "constrained solution dominates sub-region solves", 60.0):
        rng = np.random.default_rng(2024)
        tol = 1e-9
        grid_tab = build_grid(SYM, 11, 11)
        shapes = [
            (SliderShape.line_contact(2.0), 24),
            (SliderShape.point_contact(2.0), 24),
            (SliderShape.flat(), 24),
            (tabulated_from(SliderShape.line_contact(2.0), grid_tab), 11),
        ]
        for shape, n in shapes:
            prob = problem_on(shape, SYM, n, tol=tol)
            done = 0
            while done < 20:
                xa, xb = np.sort(rng.uniform(-1.0, 1.0, size=2))
                ya, yb = np.sort(rng.uniform(-1.0, 1.0, size=2))
                if xb - xa < 0.2 or yb - ya < 0.2:
                    continue
                beta = float(rng.uniform(0.05, 1.0))
                gamma = float(rng.uniform(-1.0, 0.0))
                verdict = comparison_check(prob, beta, gamma, (xa, xb, ya, yb))
                assert verdict.worst_margin >= -10.0 * tol
                done += 1


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


def test_criterion_7_flat_decay():
    with criterion(7, "flat-case decay matches the scalar reference", 300.0):
        for eta1 in (-0.5, 0.5):
            prob = problem_on(SliderShape.flat(), SYM, 32, eta0=1.0, eta1=eta1)
            traj = integrate_trajectory(prob, 200.0, StepControl(rel_tol=1e-6, abs_tol=1e-9))
            assert traj.termination.kind is TerminationKind.REACHED_HORIZON

            model = flat_model(SYM, 1.0, 1.0, eta1, cutoff=99)
            pick = np.unique(np.linspace(0, len(traj) - 1, 400).astype(int))
            ref = flat_reference_trajectory(model, 200.0, fine_tol=1e-8, t_eval=traj.t[pick])
            assert ref.t.size == pick.size
            rel = np.abs(traj.eta[pick] - ref.eta) / ref.eta
            assert np.max(rel) <= 1e-2

            env = flat_envelope(model, traj.t)
            assert np.min(traj.eta / env) >= 1.0 - 2e-2

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
