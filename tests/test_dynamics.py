import math
import operator
import re
from dataclasses import FrozenInstanceError, replace
from functools import reduce

import numpy as np
import pytest

import sliderfilm.dynamics as dynamics
from sliderfilm.dynamics import (
    _DP_A,
    _DP_B5,
    _DP_E,
    _DT_MIN_FRACTION,
    _SOLVE_TOL_MAX,
    _StageContact,
    _dp_step,
    _initial_step,
    _rodas4_step,
    _step_solve_tol,
    _warm_start,
    GEvaluator,
    MonitorReport,
    MonitorSegment,
    Problem,
    SolverParams,
    StepControl,
    Termination,
    TerminationKind,
    Trajectory,
    bounds_report,
    c1_constant,
    integrate_trajectory,
    monitor_energies,
    poincare_lambda1,
    spring_damper_decomposition,
)
from sliderfilm.errors import NonPositiveClearance
from sliderfilm.geometry import (
    BoxKind,
    ContactBox,
    DomainRect,
    SliderShape,
    build_grid,
    compute_V1,
    contact_box,
    region_node_mask,
)
from sliderfilm.oracle import comparison_check, flat_C_omega, flat_model
from sliderfilm.vi_solver import flat_unit_load, load_integral, suggested_omega

from .conftest import all_variant_shapes, solve_at_settings


def make_problem(shape, domain, n=16, F=1.0, eta0=0.5, eta1=0.0, tol=1e-9):
    grid = build_grid(domain, n, n)
    return Problem(
        shape=shape, grid=grid, F=F, eta0=eta0, eta1=eta1,
        solver=SolverParams(omega=suggested_omega(grid), tol=tol),
    )


def film_force(prob, beta, gamma):
    """G = film load - F of one full solve, and the pressure field."""
    field = solve_at_settings(prob, beta, gamma)
    return load_integral(field, prob.grid) - prob.F, field


class TestEvalG:
    def test_cutoff_exact_for_all_variants(self, domain_sym):
        grid = build_grid(domain_sym, 11, 11)
        for shape in all_variant_shapes(grid):
            prob = Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0)
            v1 = compute_V1(shape, grid)
            for beta in (0.1, 1.0):
                g, field = film_force(prob, beta, v1 + 1.0)
                assert g == -1.0
                assert np.all(field.values == 0.0)

    def test_flat_value_against_series(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=48)
        g, _ = film_force(prob, 1.0, -1.0)
        series = flat_C_omega(unit_domain, 99).value
        assert g == pytest.approx(series - 1.0, abs=3e-4)

    def test_flat_zero_speed_gives_minus_F(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        g, _ = film_force(prob, 0.7, 0.0)
        assert g == -1.0

    def test_nonpositive_clearance(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        with pytest.raises(NonPositiveClearance):
            film_force(prob, 0.0, -1.0)
        ev = GEvaluator(prob)
        with pytest.raises(NonPositiveClearance):  # checked before the cutoff
            ev.field(0.0, ev.V1 + 1.0)

    def test_lipschitz_estimate_stable_under_refinement(self, domain_sym):
        # finite sampled slope in gamma, stable between resolutions
        slopes = []
        for n in (12, 24):
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=n, tol=1e-10)
            gammas = np.linspace(-1.0, 0.5, 16)
            ev = GEvaluator(prob)
            vals = np.array([ev.eval(0.3, g)[0] for g in gammas])
            slopes.append(np.max(np.abs(np.diff(vals) / np.diff(gammas))))
        assert np.isfinite(slopes).all()
        assert abs(slopes[1] - slopes[0]) <= 0.5 * max(slopes)


class TestGEvaluatorFastPaths:
    def test_flat_cache_matches_direct_solve(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=24, tol=1e-11)
        ev = GEvaluator(prob)
        for beta, gamma in ((0.5, -2.0), (1.0, -0.1), (2.0, -1.0)):
            g_fast, load_fast, _ = ev.eval(beta, gamma)
            g_ref, field = film_force(prob, beta, gamma)
            assert g_fast == pytest.approx(g_ref, abs=1e-9)
            fld = ev.field(beta, gamma)
            assert np.max(np.abs(fld.values - field.values)) <= 1e-9

    def test_flat_eval_makes_no_solve(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        ev = GEvaluator(prob)
        for beta in (0.5, 1.0, 2.0):
            assert ev.eval(beta, -1.0)[2] == 0
        assert (ev.n_solves, ev.n_sweeps, ev.n_omega_estimates) == (0, 0, 0)

    def test_flat_run_makes_no_solve(self, unit_domain, monkeypatch):
        # a decay into the stiff phase, omega unset: neither PSOR nor the
        # relaxation estimate is reached, and every sample reports 0 sweeps
        import sliderfilm.vi_solver as vi_solver

        def unreachable(*args, **kwargs):
            raise AssertionError("a flat run makes no film solve")

        monkeypatch.setattr(dynamics, "solve_vi_psor", unreachable)
        monkeypatch.setattr(vi_solver, "young_omega", unreachable)
        prob = Problem(shape=SliderShape.flat(), grid=build_grid(unit_domain, 16, 16), F=1.0,
                       eta0=1.0, eta1=-0.5, solver=SolverParams(tol=1e-9))
        traj = integrate_trajectory(prob, 10.0)
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from is not None
        assert (traj.n_solves, traj.n_sweeps, traj.n_omega_estimates) == (0, 0, 0)
        assert not traj.psor_iters.any()

    def test_shortcut_above_v1(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        g, load, iters = ev.eval(0.3, ev.V1 + 0.01)
        assert (g, load, iters) == (-1.0, 0.0, 0)
        assert ev.n_solves == 0

    def test_sweeps_summed_beside_solves(self, domain_sym):
        ev = GEvaluator(make_problem(SliderShape.line_contact(2.0), domain_sym, n=12))
        sweeps = [ev.eval(beta, 0.0)[2] for beta in (0.3, 0.4)]
        ev.eval(0.3, ev.V1)
        assert (ev.n_solves, ev.n_sweeps) == (2, sum(sweeps))

    @pytest.mark.parametrize(
        "beta, gamma, error",
        [
            (math.nan, -0.5, NonPositiveClearance),
            (math.inf, -0.5, NonPositiveClearance),
            (0.0, -0.5, NonPositiveClearance),
            (0.3, math.nan, ValueError),
            (0.3, -math.inf, ValueError),
            (0.3, math.inf, ValueError),
        ],
    )
    def test_non_finite_state_rejected_before_any_solve(self, domain_sym, beta, gamma, error):
        ev = GEvaluator(make_problem(SliderShape.line_contact(2.0), domain_sym, n=12))
        with pytest.raises(error, match="film force undefined"):
            ev.field(beta, gamma)
        with pytest.raises(error, match="film force undefined"):
            ev.eval(beta, gamma)
        assert (ev.n_solves, ev.n_sweeps) == (0, 0)

    @pytest.mark.parametrize(
        "beta, gamma, error",
        [(math.nan, -0.5, NonPositiveClearance), (0.3, math.nan, ValueError)],
    )
    def test_flat_shortcut_passes_nan_to_the_check(self, unit_domain, beta, gamma, error):
        ev = GEvaluator(make_problem(SliderShape.flat(), unit_domain, n=8))
        with pytest.raises(error, match="film force undefined"):
            ev.eval(beta, gamma)
        assert ev.n_solves == 0

    @pytest.mark.parametrize(
        "beta, gamma, error",
        [(math.inf, -0.5, NonPositiveClearance), (0.5, -math.inf, ValueError)],
    )
    def test_flat_shortcut_rejects_infinite_state(self, unit_domain, beta, gamma, error):
        ev = GEvaluator(make_problem(SliderShape.flat(), unit_domain, n=8))
        with pytest.raises(error, match="film force undefined"):
            ev.eval(beta, gamma)
        assert (ev.n_solves, ev.n_sweeps) == (0, 0)


class TestSecantWarmStart:
    def test_exact_on_a_linear_path(self, unit_domain):
        # flat profile at fixed beta: p is exactly linear in gamma, so the
        # third solve starts within the solver tolerance of its answer
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        ev = GEvaluator(prob)
        ev.field(0.5, -0.2)
        ev.field(0.5, -0.4)
        fld = ev.field(0.5, -0.6)
        assert fld.iterations <= 3
        cold = solve_at_settings(prob, 0.5, -0.6)
        scale = max(1.0, np.max(cold.values))
        assert np.max(np.abs(fld.values - cold.values)) <= prob.solver.tol * scale

    def test_start_is_the_extrapolated_field(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        p0, p1 = ev.field(0.25, -0.125), ev.field(0.5, -0.25)
        # (0.625, -0.25) projects to s = 0.03125 / 0.078125 = 0.4 on the
        # step from p0 to p1
        start = p1.values + 0.4 * (p1.values - p0.values)
        ref = solve_at_settings(prob, 0.625, -0.25, warm_start=start)
        fld = ev.field(0.625, -0.25)
        assert fld.iterations == ref.iterations
        assert np.array_equal(fld.values, ref.values)

    def test_point_behind_the_last_solve_starts_from_it(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        ev.field(0.3, 0.0)
        p1 = ev.field(0.4, 0.0)
        ref = solve_at_settings(prob, 0.35, 0.0, warm_start=p1.values)
        fld = ev.field(0.35, 0.0)
        assert fld.iterations == ref.iterations
        assert np.array_equal(fld.values, ref.values)

    def test_without_a_warm_field_the_solve_is_cold(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        ev.field(0.3, 0.0)
        ev.field(0.4, 0.0)
        ev._history.clear()
        fld = ev.field(0.5, 0.0)
        ref = solve_at_settings(prob, 0.5, 0.0)
        assert fld.iterations == ref.iterations
        assert np.array_equal(fld.values, ref.values)


def _affine_field(beta, gamma):
    """A synthetic 'solve' affine in (beta, gamma) on a 4x5 grid."""
    base = np.arange(20.0).reshape(4, 5)
    return 0.5 + 0.25 * base + beta * (1.0 - 0.1 * base) + gamma * np.cos(base)


def _secant(history, beta, gamma):
    """The start from the last two solves only, p1 + max(0, s) (p1 - p0)."""
    (beta0, gamma0, p0), (beta1, gamma1, p1) = history[-2:]
    db, dg = beta1 - beta0, gamma1 - gamma0
    s = max(0.0, ((beta - beta1) * db + (gamma - gamma1) * dg) / (db * db + dg * dg))
    return p1 + s * (p1 - p0)


THREE_SOLVES = ((0.3, -0.2), (0.32, -0.1), (0.31, 0.05))


class TestPlaneWarmStart:
    def test_affine_field_from_three_non_collinear_solves(self):
        history = [(b, g, _affine_field(b, g)) for b, g in THREE_SOLVES]
        for beta, gamma in ((0.33, 0.1), (0.29, -0.3), (0.31, 0.05)):
            start = _warm_start(history, beta, gamma)
            assert np.allclose(start, _affine_field(beta, gamma), rtol=0.0, atol=1e-13)

    def test_near_coincident_prior_is_skipped(self):
        # stages 6 and 7 of a Dormand-Prince step: 1e-9 apart, and the
        # earlier one off by a solve error that extrapolating it would magnify
        stage6 = (0.31 + 1e-9, 0.05, _affine_field(0.31, 0.05) + 1e-6)
        history = [(b, g, _affine_field(b, g)) for b, g in THREE_SOLVES]
        with_stage6 = history[:2] + [stage6] + history[2:]
        start = _warm_start(with_stage6, 0.33, 0.1)
        assert np.array_equal(start, _warm_start(history, 0.33, 0.1))
        assert np.allclose(start, _affine_field(0.33, 0.1), rtol=0.0, atol=1e-13)
        # on a line the secant passes through the first point that qualifies
        line = [(b, 0.0, _affine_field(b, 0.0)) for b in (0.2, 0.31 + 1e-9, 0.31)]
        line[1] = (*line[1][:2], line[1][2] + 1e-6)
        start = _warm_start(line, 0.4, 0.0)
        assert np.array_equal(start, _secant(line[::2], 0.4, 0.0))
        assert np.allclose(start, _affine_field(0.4, 0.0), rtol=0.0, atol=1e-13)

    def test_points_at_one_gamma_give_the_secant_bitwise(self):
        history = [(b, 0.0, _affine_field(b, 0.0) ** 2) for b in (0.2, 0.4, 0.3, 0.35)]
        for beta in (0.5, 0.36, 0.3, 0.35):  # ahead, nearby, behind, on the last solve
            assert np.array_equal(_warm_start(history, beta, 0.0), _secant(history, beta, 0.0))

    def test_no_prior_or_a_single_prior_as_before(self):
        p = _affine_field(0.3, -0.2)
        assert _warm_start([], 0.3, -0.2) is None
        assert _warm_start([(0.3, -0.2, p)], 0.5, 0.1) is p
        # two solves: the secant, also through a prior too close to qualify
        for prior in ((0.2, -0.1), (0.3 + 1e-9, -0.2)):
            history = [(*prior, _affine_field(*prior) + 1e-3), (0.3, -0.2, p)]
            assert np.array_equal(_warm_start(history, 0.5, -0.4), _secant(history, 0.5, -0.4))

    def test_evaluator_keeps_the_last_seven_solves(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8)
        ev = GEvaluator(prob)
        points = [(0.3 + 0.01 * k, -0.1 * (k % 3)) for k in range(9)]
        for beta, gamma in points[:-1]:
            ev.field(beta, gamma)
        assert [(b, g) for b, g, _ in ev._history] == points[1:-1]
        start = _warm_start(ev._history, *points[-1])
        ref = solve_at_settings(prob, *points[-1], warm_start=start)
        fld = ev.field(*points[-1])
        assert fld.iterations == ref.iterations
        assert np.array_equal(fld.values, ref.values)


class TestInitialStep:
    @staticmethod
    def _free_fall(y, v):
        return -1.0, 0.0, 0

    def test_rule_on_free_fall(self):
        # unit weights: d0 = d1 = 1, h0 = 0.01, d2 = |(-0.01, 0)| / h0 = 0.707,
        # so h1 = 0.01^(1/5) sets the step unless the horizon is shorter
        args = (self._free_fall, 1.0, 1.0, 1.0, -1.0, 0.0, 1.0)
        assert _initial_step(*args, 10.0) == pytest.approx(10.0**-0.4, rel=1e-14)
        assert _initial_step(*args, 0.1) == 0.1

    def test_probe_at_the_guard_starts_at_h0(self):
        def guarded(y, v):
            raise _StageContact

        # d0 = 1, d1 = |(-1, 0)| = 0.707: h0 = 0.01 * sqrt(2)
        h = _initial_step(guarded, 1.0, -1.0, -1.0, 0.0, 0.0, 1.0, 10.0)
        assert h == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-14)

    def test_at_rest_in_equilibrium(self):
        # f0 = f1 = 0: h0 = 1e-6 and h1 = max(1e-6, 1e-3 h0)
        h = _initial_step(lambda y, v: (0.0, 0.0, 0), 1.0, 0.0, 0.0, 0.0, 1e-9, 1e-6, 10.0)
        assert h == 1e-6

    def test_first_step_independent_of_the_horizon(self, domain_sym, monkeypatch):
        monkeypatch.setattr("sliderfilm.dynamics._MAX_SAMPLES", 2)
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=32, eta1=-0.5)
        control = StepControl(rel_tol=1e-6, abs_tol=1e-9)
        short = integrate_trajectory(prob, 0.25, control)
        long = integrate_trajectory(prob, 50.0, control)
        assert len(short) == len(long) == 2
        assert short.t[1] == long.t[1]

    def test_probe_below_the_guard_ends_at_the_guard(self, unit_domain, monkeypatch):
        monkeypatch.setattr(dynamics, "_CONTACT_GUARD", 0.999)
        prob = make_problem(SliderShape.flat(), unit_domain, n=8, eta0=1.0, eta1=-1.0)
        sc = StepControl()
        ev = GEvaluator(prob)
        probes = []

        def f(y, v):
            probes.append(y)
            return ev.eval(y, v)

        _initial_step(f, 1.0, -1.0, -1.0, ev.eval(1.0, -1.0)[0], sc.abs_tol, sc.rel_tol, 5.0)
        assert probes[0] <= 0.999 * prob.eta0
        traj = integrate_trajectory(prob, 5.0, sc)
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert len(traj) == 1 and traj.termination.time == 0.0

    def test_trajectory_counts_every_solve(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8, eta1=-0.5)
        traj = integrate_trajectory(prob, 1.0, StepControl())
        # the start solve, one start probe and six stages per attempted step
        assert traj.n_solves == 2 + 6 * (len(traj) - 1 + traj.n_rejected)


class TestJacobian:
    @pytest.mark.parametrize("beta, gamma", [(0.4, -0.7), (0.1, -0.05), (2.0, -3.0)])
    def test_flat_matches_central_differences(self, domain_sym, beta, gamma):
        ev = GEvaluator(make_problem(SliderShape.flat(), domain_sym, n=16, tol=1e-12))
        assert gamma < ev.V1
        jb, jg = ev.jacobian(beta, gamma)
        h = 1e-6 * beta
        fd_b = (ev.eval(beta + h, gamma)[0] - ev.eval(beta - h, gamma)[0]) / (2.0 * h)
        fd_g = (ev.eval(beta, gamma + h)[0] - ev.eval(beta, gamma - h)[0]) / (2.0 * h)
        assert jb == pytest.approx(fd_b, rel=1e-6)
        assert jg == pytest.approx(fd_g, rel=1e-6)
        assert jb < 0.0 and jg < 0.0
        assert ev.n_solves == 0  # the unit load is a closed-form sum

    def test_zero_at_the_cutoff(self, domain_sym):
        ev = GEvaluator(make_problem(SliderShape.flat(), domain_sym, n=12))
        assert ev.jacobian(0.3, ev.V1) == (0.0, 0.0)
        assert ev.n_solves == 0
        with pytest.raises(NonPositiveClearance):
            ev.jacobian(0.0, -1.0)

    def test_clearance_beyond_the_model_range(self, domain_sym):
        # beta**3 and beta**4 in Python floats overflowed above about 5.6e102
        # and 1.2e77: the shortcut now rejects what the assembly rejects
        ev = GEvaluator(make_problem(SliderShape.flat(), domain_sym, n=12))
        beta_max = ev.problem._geometry.beta_max
        for call in (ev.eval, ev.jacobian):
            with pytest.raises(NonPositiveClearance, match=re.escape(f"beta <= {beta_max:.6g}")):
                call(1e110, -0.5)
        assert ev.n_solves == 0
        jb, jg = ev.jacobian(1e100, -0.5)  # below beta_max: tiny, finite
        unit = ev.eval(1.0, -1.0)[1]
        assert (jb, jg) == (-3.0 * -0.5 / 1e100 * (-unit / 1e300), -unit / 1e300)
        assert ev.eval(beta_max, -0.5)[1] == 0.5 * unit / beta_max**3

    def test_flat_profile_only(self, domain_sym):
        ev = GEvaluator(make_problem(SliderShape.line_contact(2.0), domain_sym, n=12))
        with pytest.raises(ValueError, match="flat profile only"):
            ev.jacobian(0.3, -0.5)
        assert ev.n_solves == 0

    @pytest.mark.parametrize(
        "beta, gamma, error",
        [
            (math.nan, -0.5, NonPositiveClearance),
            (math.inf, -0.5, NonPositiveClearance),
            (0.5, math.nan, ValueError),
            (0.5, -math.inf, ValueError),
            (0.5, math.inf, ValueError),
        ],
    )
    def test_non_finite_state_rejected(self, unit_domain, beta, gamma, error):
        # the same check and message as field, before any solve
        ev = GEvaluator(make_problem(SliderShape.flat(), unit_domain, n=8))
        with pytest.raises(error, match="film force undefined"):
            ev.jacobian(beta, gamma)
        assert ev.n_solves == 0


class TestSingleFilmSolvePath:
    """Every film pressure comes from GEvaluator's solve_vi_psor with the problem's settings."""

    @pytest.fixture
    def psor_calls(self, monkeypatch):
        calls = []
        real = dynamics.solve_vi_psor

        def recorder(system, **kwargs):  # system positional, settings by keyword
            calls.append(kwargs)
            return real(system, **kwargs)

        monkeypatch.setattr(dynamics, "solve_vi_psor", recorder)
        return calls

    @staticmethod
    def _problem(shape, domain):
        grid = build_grid(domain, 10, 10)
        solver = SolverParams(omega=1.7, tol=1e-9)
        return Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0, solver=solver)

    def test_every_route_reaches_the_problem_settings(self, psor_calls, monkeypatch, domain_sym):
        import sliderfilm.vi_solver as vi_solver

        def no_estimate(system, free):
            raise AssertionError("an explicit omega needs no estimate")

        monkeypatch.setattr(vi_solver, "young_omega", no_estimate)
        shape = SliderShape.line_contact(2.0)
        prob = self._problem(shape, domain_sym)
        flat = self._problem(SliderShape.flat(), domain_sym)
        box = contact_box(shape, domain_sym, 0.1, delta=0.5)
        chain = GEvaluator(prob)
        routes = {
            "eval": lambda: [chain.eval(0.3, g) for g in (-0.2, -0.1)],
            "field": lambda: GEvaluator(prob).field(0.3, -0.2),
            "flat_eval": lambda: GEvaluator(flat).eval(0.3, -0.2),
            "spring_damper": lambda: spring_damper_decomposition(
                prob, 0.1, box, check_gammas=(-1.0, -0.5)
            ),
            "comparison_check": lambda: comparison_check(prob, 0.3, -0.2, (-0.5, 0.5, -0.5, 0.5)),
        }
        expected = {  # route: (solves, tol)
            "eval": (2, 1e-9),
            "field": (1, 1e-9),
            "flat_eval": (0, None),  # the closed-form unit load solves nothing
            "spring_damper": (2, 1e-9),
            "comparison_check": (1, 1e-9),
        }
        for name, route in routes.items():
            psor_calls.clear()
            route()
            n, tol = expected[name]
            assert len(psor_calls) == n, name
            for kw in psor_calls:
                # no sweep cap is passed: solve_vi_psor applies its own
                assert (kw["omega"], kw["tol"], "max_iter" in kw) == (1.7, tol, False), name
            if n == 2:
                assert psor_calls[0]["warm_start"] is None, name
                assert psor_calls[1]["warm_start"] is not None, name

    def test_unset_omega_is_estimated_once_per_warm_chain(self, psor_calls, monkeypatch,
                                                          domain_sym):
        # a solve reuses the chain's last estimate while the free set of the
        # newest solution differs from that estimate's in at most 10% of its
        # nodes; the first solve estimates on b > 0
        import sliderfilm.vi_solver as vi_solver

        estimates = []
        real = vi_solver.young_omega

        def spy(system, free):
            omega = real(system, free)
            estimates.append((len(psor_calls), free, omega))
            return omega

        monkeypatch.setattr(vi_solver, "young_omega", spy)
        prob = Problem(shape=SliderShape.line_contact(2.0), grid=build_grid(domain_sym, 16, 16),
                       F=1.0, eta0=0.5, eta1=0.0, solver=SolverParams(tol=1e-9))
        ev = GEvaluator(prob)
        states = [(0.3, -0.3), (0.3, -0.29), (0.3, -0.28), (0.3, -0.27), (0.05, 0.5), (0.05, 0.49)]
        solutions = [ev.field(beta, gamma).values for beta, gamma in states]
        assert ev.n_solves == len(psor_calls) == len(states)
        assert ev.n_omega_estimates == len(estimates)
        fresh = {at: (free, omega) for at, free, omega in estimates}
        kept = None
        for k, call in enumerate(psor_calls):
            if k == 0:  # cold: the estimate is on b > 0
                assert np.array_equal(fresh[0][0], prob.assemble(*states[0]).b > 0.0)
                kept = fresh[0]
            elif k in fresh:  # estimated just before this solve, from the newest solution
                free = solutions[k - 1] > 0.0
                assert np.count_nonzero(free != kept[0]) > 0.1 * kept[0].sum()
                assert np.array_equal(fresh[k][0], free)
                kept = fresh[k]
            else:
                free = solutions[k - 1] > 0.0
                assert np.count_nonzero(free != kept[0]) <= 0.1 * kept[0].sum()
            assert call["omega"] == kept[1]
        assert 1 < len(estimates) < len(states) - 1  # both branches taken

    def test_patching_vi_solver_young_omega_alone_intercepts_every_estimate(
        self, psor_calls, monkeypatch, domain_sym
    ):
        # the relaxation rule lives in vi_solver alone: a chain and a lone
        # solve with omega unset both take the factor the patched name gives
        import sliderfilm.vi_solver as vi_solver

        estimates = []

        def fixed(system, free):
            estimates.append(free)
            return 1.5

        monkeypatch.setattr(vi_solver, "young_omega", fixed)
        prob = Problem(shape=SliderShape.line_contact(2.0), grid=build_grid(domain_sym, 12, 12),
                       F=1.0, eta0=0.5, eta1=0.0, solver=SolverParams(tol=1e-9))
        ev = GEvaluator(prob)
        for beta, gamma in ((0.3, -0.3), (0.3, -0.29), (0.05, 0.5)):
            ev.eval(beta, gamma)
        assert ev.n_omega_estimates == len(estimates) > 0
        assert [call["omega"] for call in psor_calls] == [1.5] * 3
        system = prob.assemble(0.3, -0.3)
        lone = vi_solver.solve_vi_psor(system, tol=1e-9)
        assert len(estimates) == ev.n_omega_estimates + 1
        assert np.array_equal(estimates[-1], system.b > 0.0)
        pinned = vi_solver.solve_vi_psor(system, omega=1.5, tol=1e-9)
        assert lone.iterations == pinned.iterations > 0
        assert np.array_equal(lone.values, pinned.values)

    @pytest.mark.parametrize("omega", [None, 1.7])
    def test_fresh_field_is_the_plain_solve_at_the_problem_settings(self, domain_sym, omega):
        # the film solve that comparison_check takes: one GEvaluator field
        # equals solve_vi_psor of the problem's system bit for bit
        for shape in all_variant_shapes(build_grid(domain_sym, 11, 11)):
            prob = Problem(shape=shape, grid=build_grid(domain_sym, 11, 11), F=1.0, eta0=0.5,
                           eta1=0.0, solver=SolverParams(omega=omega, tol=1e-9))
            fld = GEvaluator(prob).field(0.3, -0.3)
            ref = solve_at_settings(prob, 0.3, -0.3)
            assert fld.iterations == ref.iterations > 0
            assert np.array_equal(fld.values, ref.values)
            assert (fld.residual_comp, fld.residual_lin) == (ref.residual_comp, ref.residual_lin)

    def test_unset_omega_cutoff_solve_estimates_nothing(self, domain_sym):
        # V1 is the grid's exact cutoff: below it the load vector has a
        # positive entry, from it on none.  Between it and the continuum
        # bound compute_V1 the field is the zero one with no solve and no
        # estimate, cold or warm, and it leaves the chain as it was
        prob = Problem(shape=SliderShape.line_contact(2.0), grid=build_grid(domain_sym, 16, 16),
                       F=1.0, eta0=0.5, eta1=0.0, solver=SolverParams(tol=1e-9))
        cold = GEvaluator(prob)
        assert np.any(prob.assemble(0.3, math.nextafter(cold.V1, -math.inf)).b > 0.0)
        assert np.all(prob.assemble(0.3, cold.V1).b <= 0.0)
        gamma = compute_V1(prob.shape, prob.grid) - 1e-3
        assert cold.V1 < gamma
        assert cold.eval(0.3, gamma) == (-prob.F, 0.0, 0)
        assert (cold.n_solves, cold.n_sweeps, cold.n_omega_estimates) == (0, 0, 0)
        warm, ref = GEvaluator(prob), GEvaluator(prob)
        warm.eval(0.3, -0.3)
        assert warm.n_omega_estimates == 1
        assert warm.eval(0.3, gamma) == (-prob.F, 0.0, 0)
        assert (warm.n_solves, warm.n_omega_estimates) == (1, 1)
        ref.eval(0.3, -0.3)
        assert warm.eval(0.31, -0.3) == ref.eval(0.31, -0.3)
        assert (warm.n_solves, warm.n_omega_estimates) == (ref.n_solves, ref.n_omega_estimates)

    def test_comparison_check_on_empty_region_solves_nothing(self, psor_calls, domain_sym):
        prob = self._problem(SliderShape.line_contact(2.0), domain_sym)
        region = (0.01, 0.02, 0.01, 0.02)  # between nodes 2/11 apart
        assert not np.any(region_node_mask(prob.grid, region))
        verdict = comparison_check(prob, 0.3, -0.2, region)
        assert (verdict.n_nodes, verdict.passed, verdict.worst_margin) == (0, True, 0.0)
        assert psor_calls == []

    def test_eval_is_the_load_of_field_bitwise(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        a, b = GEvaluator(prob), GEvaluator(prob)
        probes = [(0.3, -0.5), (0.31, -0.4), (0.3, a.V1 + 0.1), (0.2, 0.0), (0.5, -1.0)]
        seq_a = [a.eval(beta, gamma) for beta, gamma in probes]
        seq_b = []
        for beta, gamma in probes:
            fld = b.field(beta, gamma)
            load = load_integral(fld, prob.grid)
            seq_b.append((load - prob.F, load, fld.iterations))
        assert seq_a == seq_b
        assert a.n_solves == b.n_solves == 4

    def test_solver_settings_are_frozen(self, domain_sym):
        # the Problem keeps the caller's settings, which nothing can write back to
        settings = SolverParams(omega=1.7)
        prob = Problem(shape=SliderShape.flat(), grid=build_grid(domain_sym, 6, 6),
                       F=1.0, eta0=1.0, eta1=0.0, solver=settings)
        assert prob.solver is settings
        with pytest.raises(FrozenInstanceError):
            prob.solver.omega = 1.5
        assert settings.omega == 1.7

    def test_replace_onto_a_coarser_grid_solves_like_a_fresh_problem(self, domain_sym):
        # an unset omega follows the system of each solve, so it cannot stay
        # at a 64x64 value on a 16x16 grid
        shape = SliderShape.line_contact(2.0)
        fine = Problem(shape=shape, grid=build_grid(domain_sym, 64, 64), F=1.0, eta0=0.5,
                       eta1=0.0, solver=SolverParams(tol=1e-8))
        coarse = build_grid(domain_sym, 16, 16)
        moved = GEvaluator(replace(fine, grid=coarse)).field(0.3, -0.3)
        fresh = GEvaluator(Problem(shape=shape, grid=coarse, F=1.0, eta0=0.5, eta1=0.0,
                                   solver=SolverParams(tol=1e-8))).field(0.3, -0.3)
        assert moved.iterations == fresh.iterations == 39
        assert np.array_equal(moved.values, fresh.values)

    def test_problem_is_frozen_and_replace_rebuilds_its_geometry(self, domain_sym):
        # the assembly data built once per Problem must not go stale
        grid = build_grid(domain_sym, 6, 6)
        prob = Problem(shape=SliderShape.flat(), grid=grid, F=1.0, eta0=1.0, eta1=0.0)
        with pytest.raises(FrozenInstanceError):
            prob.shape = SliderShape.line_contact(2.0)
        line = SliderShape.line_contact(2.0)
        moved = GEvaluator(replace(prob, shape=line)).field(0.3, -0.2)
        fresh = GEvaluator(Problem(shape=line, grid=grid, F=1.0, eta0=1.0, eta1=0.0)).field(
            0.3, -0.2
        )
        assert np.array_equal(moved.values, fresh.values)
        assert moved.iterations == fresh.iterations

    @pytest.mark.parametrize("name", ["F", "eta0", "eta1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_problem_rejects_non_finite_inputs(self, domain_sym, name, value):
        kwargs = dict(F=1.0, eta0=1.0, eta1=0.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{name}: must be finite"):
            Problem(shape=SliderShape.flat(), grid=build_grid(domain_sym, 6, 6), **kwargs)


class TestStepSolveTolerance:
    """A Dormand-Prince step's film solves stop at its share of the error budget."""

    def test_rule_between_the_solver_tol_and_the_ceiling(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8, tol=1e-9)
        e_sum = sum(abs(e) for e in _DP_E)
        assert e_sum == pytest.approx(0.160, abs=5e-4)
        step_tol = _step_solve_tol(prob, 1e-9, 1e-6)
        budget = 0.3 * (1e-9 + 1e-6 * 0.5)
        assert step_tol(-0.5, 1.0) == pytest.approx(budget / (domain_sym.area * e_sum), rel=1e-12)
        assert step_tol(-0.5, 1e3) == 1e-9  # the floor, solver.tol
        assert step_tol(-0.5, 1e-3) == 1e-6  # the ceiling

    def test_start_at_the_solver_tol_stages_at_their_step_tol(self, domain_sym, monkeypatch):
        tols, real = [], dynamics.solve_vi_psor

        def recorder(system, **kwargs):
            tols.append(kwargs["tol"])
            return real(system, **kwargs)

        monkeypatch.setattr(dynamics, "solve_vi_psor", recorder)
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8, eta1=-0.5)
        traj = integrate_trajectory(prob, 1.0, StepControl())
        # the start solve at the solver tol and the start probe at the
        # loosest stage tol, then six stages per attempted step
        assert len(tols) == traj.n_solves == 2 + 6 * (len(traj) - 1 + traj.n_rejected)
        assert tols[:2] == [1e-9, 1e-6]
        steps = [tols[k:k + 6] for k in range(2, len(tols), 6)]
        assert all(len(set(step)) == 1 and 1e-9 <= step[0] <= 1e-6 for step in steps)
        assert any(step[0] > 1e-9 for step in steps)

    def test_default_tol_is_the_solver_tol_bitwise(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        probes = [(0.3, -0.2), (0.31, -0.1), (0.32, 0.0)]
        a, b = GEvaluator(prob), GEvaluator(prob)
        assert [a.eval(*p) for p in probes] == [b.eval(*p, prob.solver.tol) for p in probes]
        assert (a.n_solves, a.n_sweeps) == (b.n_solves, b.n_sweeps)
        assert a.n_solves == 3

    def test_looser_tol_takes_no_more_sweeps(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16, tol=1e-10)
        sweeps = []
        for tol in (1e-10, 1e-8, 1e-6):
            ev = GEvaluator(prob)
            for beta, gamma in ((0.3, -0.2), (0.31, -0.15)):  # the same warm chain
                ev.eval(beta, gamma)
            sweeps.append(ev.eval(0.32, -0.1, tol)[2])
        assert sweeps[0] >= sweeps[1] >= sweeps[2]
        assert sweeps[0] > sweeps[2]

    def test_flat_shortcut_ignores_tol(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        ref = GEvaluator(prob).eval(0.5, -1.0)
        for tol in (1e-12, 1e-6, 1e-3):
            assert GEvaluator(prob).eval(0.5, -1.0, tol) == ref

    def test_flat_run_ignores_the_rule_and_keeps_its_artifacts(self, tmp_path):
        # a flat run's loads never reach PSOR, so the step solve tolerance
        # leaves its artifacts as the closed-form unit load and the
        # Jacobian's switch rule write them (sha256, x86-64, numpy 2.4)
        import hashlib
        from pathlib import Path

        from sliderfilm.cli import EXIT_OK, dispatch
        from sliderfilm.config import parse_config

        config = Path(__file__).resolve().parents[1] / "configs" / "flat_decay.json"
        assert dispatch(parse_config(config.read_text()), "simulate", tmp_path) == EXIT_OK
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("summary.json", "trajectory.csv")
        }
        assert digests == {
            "summary.json": "c7ca51d835c3b7cc017c43b8d39c102fb69bd15747edb8fb36f8e0a4e0943858",
            "trajectory.csv": "387110000c3c169a49bd69e97fa2b003b8f5d5b1210a793fe648fea04258456e",
        }

    def test_transient_within_rel_tol_of_a_tight_reference(self, domain_sym, monkeypatch):
        # the CI transient against a run at solve tol 1e-13, rel_tol 1e-11
        grid = build_grid(domain_sym, 32, 32)

        def run(tol, sc):
            prob = Problem(
                shape=SliderShape.line_contact(2.0), grid=grid, F=1.0, eta0=0.5, eta1=-0.5,
                solver=SolverParams(tol=tol),
            )
            traj = integrate_trajectory(prob, 0.25, sc)
            assert traj.termination.kind is TerminationKind.REACHED_HORIZON
            return traj

        sc = StepControl(rel_tol=1e-6, abs_tol=1e-9)
        traj = run(1e-9, sc)
        # with the ceiling at the floor, every reference solve stops at 1e-13
        monkeypatch.setattr(dynamics, "_SOLVE_TOL_MAX", 1e-13)
        ref = run(1e-13, StepControl(rel_tol=1e-11, abs_tol=1e-14))
        monkeypatch.undo()
        assert abs(traj.eta[-1] / ref.eta[-1] - 1.0) <= sc.rel_tol
        assert abs(traj.eta_dot[-1] - ref.eta_dot[-1]) <= 10.0 * sc.rel_tol


class TestBoundsReport:
    def test_flat(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        br = bounds_report(prob)
        assert br.V1 == 0.0
        assert br.s1 is None and br.s2 is None
        assert br.steady_state_guaranteed is False
        assert br.c1 == 0.0 and br.D1 == 0.0
        assert np.isfinite(br.D2) and np.isfinite(br.V3)

    def test_line_contact_exponents(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16)
        br = bounds_report(prob)
        assert br.s1 == pytest.approx(1.0)
        assert br.s2 == pytest.approx(0.5)
        assert br.steady_state_guaranteed and br.global_bounds_guaranteed

    def test_point_contact_exponents(self, domain_sym):
        prob = make_problem(SliderShape.point_contact(2.0), domain_sym, n=16)
        br = bounds_report(prob)
        assert br.s1 == pytest.approx(0.5)
        assert br.s2 == pytest.approx(0.0)

    def test_threshold_verdicts(self, domain_sym):
        br = bounds_report(make_problem(SliderShape.line_contact(1.2), domain_sym, n=16))
        assert br.steady_state_guaranteed and not br.global_bounds_guaranteed
        br = bounds_report(make_problem(SliderShape.point_contact(1.4), domain_sym, n=16))
        assert not br.steady_state_guaranteed and not br.global_bounds_guaranteed

    def test_structural_invariants(self, domain_sym):
        for eta1 in (-0.5, 0.0, 2.5):
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16, eta1=eta1)
            br = bounds_report(prob)
            assert br.V2 > prob.eta1
            assert br.V2 >= br.V1
            assert br.D2 >= 2.0 * max(prob.eta0, br.D1)
            assert br.s1 > 0.0 and br.s2 >= 0.0

    def test_c1_poincare_value(self, domain_sym):
        # |Omega| = 4, sup h0 = 1, lambda1 = pi^2/2 on [-1,1]^2
        assert poincare_lambda1(domain_sym) == pytest.approx(np.pi**2 / 2.0)
        c1 = c1_constant(SliderShape.line_contact(2.0), domain_sym)
        assert c1 == pytest.approx(4.0 / np.sqrt(np.pi**2 / 2.0))


class TestInputChecks:
    """integrate_trajectory rejects a horizon or tolerance with no meaning
    before it makes any film solve; a StepControl rejects its own fields
    when built, so each one is built inside the test."""

    @staticmethod
    def _run(monkeypatch, t_end, control):
        def unreachable(*args, **kwargs):
            raise AssertionError("a film solve was reached")

        monkeypatch.setattr(dynamics, "solve_vi_psor", unreachable)
        prob = make_problem(SliderShape.line_contact(2.0), DomainRect(-1.0, 1.0, -1.0, 1.0), n=8)
        control = None if control is None else StepControl(**control)
        return integrate_trajectory(prob, t_end, control)

    @pytest.mark.parametrize(
        "t_end, control",
        [
            (1.0, dict(rel_tol=0.0, abs_tol=0.0)),
            (1.0, dict(rel_tol=-1e-6, abs_tol=-1e-9)),
            (1.0, dict(rel_tol=0.0)),
            (1.0, dict(abs_tol=-1e-9)),
            (1.0, dict(rel_tol=math.nan)),
            (1.0, dict(abs_tol=math.nan)),
            (1.0, dict(rel_tol=math.inf)),
            (1.0, dict(abs_tol=math.inf)),
            (0.0, None),
            (-1.0, None),
            (math.nan, None),
            (math.inf, None),
        ],
        ids=[
            "tols_zero", "tols_negative", "rel_tol_zero", "abs_tol_negative",
            "rel_tol_nan", "abs_tol_nan", "rel_tol_inf", "abs_tol_inf",
            "t_end_zero", "t_end_negative", "t_end_nan", "t_end_inf",
        ],
    )
    def test_raises_before_any_solve(self, monkeypatch, t_end, control):
        with pytest.raises(ValueError):
            self._run(monkeypatch, t_end, control)

    def test_valid_input_reaches_the_solve(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_CONTACT_GUARD", 2e-3)  # 1e-3 at eta0 0.5
        with pytest.raises(AssertionError, match="film solve was reached"):
            self._run(monkeypatch, 1.0, {})


class TestIntegration:
    def test_flat_coast_is_exact_parabola(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=0.5)
        traj = integrate_trajectory(prob, 0.5, StepControl(rel_tol=1e-8, abs_tol=1e-12))
        exact = -0.5 * traj.t**2 + 0.5 * traj.t + 1.0
        assert np.max(np.abs(traj.eta - exact)) <= 1e-10
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON

    def test_fast_arc_above_v1(self, domain_sym):
        # while eta' >= V1 the film exerts no load: free fall under F
        shape = SliderShape.line_contact(2.0)
        prob = make_problem(shape, domain_sym, n=12, eta0=0.5, eta1=2.5)
        v1 = compute_V1(shape, prob.grid)
        t_stop = (prob.eta1 - v1) / prob.F  # eta' stays >= V1 this long
        traj = integrate_trajectory(prob, t_stop, StepControl(rel_tol=1e-9, abs_tol=1e-12))
        exact = -0.5 * traj.t**2 + 2.5 * traj.t + 0.5
        assert np.max(np.abs(traj.eta - exact)) <= 1e-9
        assert np.all(traj.G == -prob.F)

    @pytest.mark.parametrize("variant", ["flat", "line"])
    def test_a_sample_lands_on_the_end_of_the_coast(self, unit_domain, domain_sym, variant):
        # G = -F exactly while eta' >= V1, the evaluator's grid cutoff, and
        # has a kink in eta' where that ends, at t = (eta1 - V1) / F: a step
        # ends there, not across it.  On the line contact that is past the
        # end of a coast at the continuum bound compute_V1
        if variant == "flat":
            shape, domain, n = SliderShape.flat(), unit_domain, 16
        else:
            shape, domain, n = SliderShape.line_contact(2.0), domain_sym, 8
        eta1 = compute_V1(shape, build_grid(domain, n, n)) + 0.5
        prob = make_problem(shape, domain, n=n, F=2.0, eta0=1.0, eta1=eta1)
        v1 = GEvaluator(prob).V1
        t_kink = (eta1 - v1) / 2.0
        traj = integrate_trajectory(prob, 1.0, StepControl())
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        k = int(np.argmin(np.abs(traj.t - t_kink)))
        assert abs(traj.t[k] - t_kink) <= 4.0 * math.ulp(t_kink)
        assert np.all(traj.G[: k + 1] == -2.0) and traj.G[k + 1] > -2.0
        assert traj.eta_dot[k] == pytest.approx(v1, abs=1e-12)

    def test_a_coast_shorter_than_the_step_floor_is_stepped_across(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=1e-14)
        traj = integrate_trajectory(prob, 1.0, StepControl())
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.t[1] > 1e-12

    def test_g_consistency_bitwise(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        traj = integrate_trajectory(prob, 2.0, StepControl())
        assert np.all(traj.G == traj.load - prob.F)

    def test_energies_recomputable(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        traj = integrate_trajectory(prob, 2.0, StepControl())
        c1 = c1_constant(prob.shape, prob.grid.domain)
        e1 = 0.5 * traj.eta_dot**2 + prob.F * traj.eta
        e2 = e1 + c1 / (2.0 * traj.eta**2)
        assert np.array_equal(traj.E1, e1)
        assert np.max(np.abs(traj.E2 - e2)) <= 1e-14

    def test_contact_guard_fires(self, unit_domain, monkeypatch):
        monkeypatch.setattr(dynamics, "_CONTACT_GUARD", 0.5)
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=-1.0)
        traj = integrate_trajectory(prob, 5.0, StepControl())
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert np.all(traj.eta > 0.5)
        assert traj.termination.time <= 5.0

    def test_max_samples_step_failure(self, unit_domain, monkeypatch):
        monkeypatch.setattr("sliderfilm.dynamics._MAX_SAMPLES", 5)
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=-0.5)
        traj = integrate_trajectory(prob, 5.0, StepControl())
        assert traj.termination.kind is TerminationKind.STEP_FAILURE
        assert traj.termination.detail == "sample cap 5 reached"
        assert len(traj) == 5
        assert traj.termination.time == traj.t[-1]

    def test_sample_times_strictly_increasing(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        traj = integrate_trajectory(prob, 3.0, StepControl())
        assert np.all(np.diff(traj.t) > 0.0)

    def test_bounds_hold_on_short_run(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16, eta1=-0.5)
        br = bounds_report(prob)
        traj = integrate_trajectory(prob, 5.0, StepControl())
        assert np.all(traj.eta_dot < br.V2)
        assert np.all(traj.eta < br.D2)
        assert np.all(traj.eta_dot > -br.V3)
        assert traj.eta.min() > 0.0

    def test_two_tolerance_agreement_long_horizon(self, domain_sym):
        # independent confirmation: min/max stable to 3 significant digits
        # across a 100x change in step tolerance
        stats = []
        for rel_tol in (1e-6, 1e-4):
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16, eta1=0.0)
            traj = integrate_trajectory(
                prob, 50.0, StepControl(rel_tol=rel_tol, abs_tol=rel_tol * 1e-3)
            )
            assert traj.termination.kind is TerminationKind.REACHED_HORIZON
            stats.append((traj.eta.min(), traj.eta.max(), np.abs(traj.eta_dot).max()))
        for a, b in zip(*stats):
            assert a == pytest.approx(b, rel=5e-3)

    def test_csv_roundtrip(self, tmp_path, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        traj = integrate_trajectory(prob, 1.0, StepControl())
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(traj), 8)
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.eta)


def fold(terms):
    """The plain left fold 0.0 + t0 + t1 + ...: sum() of floats is
    compensated from Python 3.12."""
    return reduce(operator.add, terms, 0.0)


def generic_dp_columns(problem, t_end, sc):
    """The Dormand-Prince loop applied through the generic tableau sums.

    Same controller, guard, FSAL bookkeeping, start-probe and per-step
    solve tolerances as integrate_trajectory, with every stage combination
    written as a left fold from 0.0 of a[r] * k[r] over the coefficient
    tables and the energies computed per sample in Python.
    """
    eps_contact = dynamics._CONTACT_GUARD * problem.eta0
    dt_min = _DT_MIN_FRACTION * t_end
    ev = GEvaluator(problem)
    step_tol = _step_solve_tol(problem, sc.abs_tol, sc.rel_tol)
    c1 = c1_constant(problem.shape, problem.grid.domain)
    F = problem.F
    cols = {k: [] for k in ("t", "eta", "eta_dot", "G", "load", "E1", "E2", "psor_iters")}

    def record(t, eta, v, g, load, iters):
        for key, val in zip(cols, (t, eta, v, g, load)):
            cols[key].append(val)
        cols["E1"].append(0.5 * v * v + F * eta)
        cols["E2"].append(0.5 * v * v + F * eta + (c1 / (2.0 * eta * eta) if c1 else 0.0))
        cols["psor_iters"].append(iters)

    def done(kind):
        return {k: np.array(v) for k, v in cols.items()}, kind, n_rejected

    def guarded(eta, v):  # the start probe
        if eta <= eps_contact:
            raise _StageContact
        return ev.eval(eta, v, max(problem.solver.tol, _SOLVE_TOL_MAX))

    t, y, v, n_rejected = 0.0, problem.eta0, problem.eta1, 0
    k1v, load1, it1 = ev.eval(y, v)
    k1y = v
    record(t, y, v, k1v, load1, it1)
    dt = _initial_step(guarded, y, v, k1y, k1v, sc.abs_tol, sc.rel_tol, t_end)
    ky, kv = [0.0] * 7, [0.0] * 7
    while t < t_end * (1.0 - 1e-15):
        dt = min(dt, t_end - t)
        if dt < dt_min:
            return done(TerminationKind.STEP_FAILURE)
        ky[0], kv[0] = k1y, k1v
        solve_tol = step_tol(v, dt)
        contact = False
        for s in range(1, 7):
            a = _DP_A[s]
            ys = y + dt * fold(a[r] * ky[r] for r in range(s))
            vs = v + dt * fold(a[r] * kv[r] for r in range(s))
            if ys <= eps_contact:
                contact = True
                break
            ky[s] = vs
            kv[s], load7, it7 = ev.eval(ys, vs, solve_tol)
        if contact:
            if dt * 0.25 < dt_min or y <= 2.0 * eps_contact:
                return done(TerminationKind.CONTACT_GUARD)
            dt *= 0.25
            n_rejected += 1
            continue
        y5 = y + dt * fold(_DP_B5[s] * ky[s] for s in range(7))
        v5 = v + dt * fold(_DP_B5[s] * kv[s] for s in range(7))
        err_y = dt * fold(_DP_E[s] * ky[s] for s in range(7))
        err_v = dt * fold(_DP_E[s] * kv[s] for s in range(7))
        sy = sc.abs_tol + sc.rel_tol * max(abs(y), abs(y5))
        sv = sc.abs_tol + sc.rel_tol * max(abs(v), abs(v5))
        err = math.sqrt(0.5 * ((err_y / sy) ** 2 + (err_v / sv) ** 2))
        if not math.isfinite(err):
            dt *= 0.2
            n_rejected += 1
            continue
        if err <= 1.0:
            if y5 <= eps_contact:
                return done(TerminationKind.CONTACT_GUARD)
            t, y, v = t + dt, y5, v5
            k1y, k1v = ky[6], kv[6]
            record(t, y, v, kv[6], load7, it7)
            dt *= min(5.0, max(0.2, 0.9 * err**-0.2)) if err > 0.0 else 5.0
        else:
            n_rejected += 1
            dt *= max(0.2, 0.9 * err**-0.2)
    return done(TerminationKind.REACHED_HORIZON)


# (variant, eta0, eta1, t_end, guard): each stays on Dormand-Prince throughout;
# guard is dynamics._CONTACT_GUARD for the case, None keeping the default
UNROLLED_CASES = [
    ("flat", 1.0, -0.5, 2.5, None),  # the stiff switch would come at t ~ 2.85
    ("flat", 1.0, -1.0, 5.0, 0.3),  # stage probes below the guard at t ~ 1.86 < 2.37, the switch
    ("line", 0.5, -0.5, 1.0, None),  # error-controlled rejections
]


class TestUnrolledStages:
    @pytest.mark.parametrize("variant, eta0, eta1, t_end, guard", UNROLLED_CASES)
    def test_columns_equal_generic_tableau_loop(
        self, domain_sym, monkeypatch, variant, eta0, eta1, t_end, guard
    ):
        if guard is not None:
            monkeypatch.setattr(dynamics, "_CONTACT_GUARD", guard)
        if variant == "flat":
            prob = make_problem(SliderShape.flat(), domain_sym, n=16, eta0=eta0, eta1=eta1)
        else:
            shape = SliderShape.line_contact(2.0)
            prob = make_problem(shape, domain_sym, n=8, eta0=eta0, eta1=eta1)
        sc = StepControl()
        traj = integrate_trajectory(prob, t_end, sc)
        cols, kind, n_rejected = generic_dp_columns(prob, t_end, sc)
        assert traj.n_rejected == n_rejected > 0
        assert traj.termination.kind is kind
        assert len(traj) > 4
        for name, ref in cols.items():
            got = getattr(traj, name)
            assert got.dtype == ref.dtype, name
            assert np.array_equal(got, ref), name


class TestDpStep:
    @staticmethod
    def _damped(n, t_end=2.0):
        """eta'' = -eta - eta'/2 from (1, 0) in n Dormand-Prince steps; the
        arguments of the last force evaluation are returned too."""
        calls = []

        def f(a, b):
            calls.append((a, b))
            return (-a - 0.5 * b,)

        y, v, h = 1.0, 0.0, t_end / n
        g = f(y, v)[0]
        for _ in range(n):
            y, v, _, _, f7 = _dp_step(f, y, v, g, h)
            g = f7[0]
        return y, v, calls[-1]

    def test_fifth_order_at_fixed_steps(self):
        # exact: eta = exp(-t/4) (cos wt + sin(wt) / (4w)), w^2 = 15/16
        w, t = math.sqrt(15.0) / 4.0, 2.0
        y_ex = math.exp(-t / 4.0) * (math.cos(w * t) + math.sin(w * t) / (4.0 * w))
        v_ex = -math.exp(-t / 4.0) * math.sin(w * t) / w
        errors = []
        for n in (10, 20, 40, 80):
            y, v, last = self._damped(n)
            assert last == (y, v)  # stage 7 is the new state (FSAL)
            errors.append(math.hypot(y - y_ex, v - v_ex))
        for coarse, fine in zip(errors, errors[1:]):
            assert 4.8 <= math.log2(coarse / fine) <= 5.2


class TestRodas4Step:
    @staticmethod
    def _vdp(y, v):
        return (1.0 - y * y) * v - y

    @staticmethod
    def _rk4(acc, y, v, t_end, n=400):
        """Classical RK4 in n steps: exact to about 1e-14 over these steps."""
        h = t_end / n
        for _ in range(n):
            k1 = (v, acc(y, v))
            k2 = (v + 0.5 * h * k1[1], acc(y + 0.5 * h * k1[0], v + 0.5 * h * k1[1]))
            k3 = (v + 0.5 * h * k2[1], acc(y + 0.5 * h * k2[0], v + 0.5 * h * k2[1]))
            k4 = (v + h * k3[1], acc(y + h * k3[0], v + h * k3[1]))
            y += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        return y, v

    def test_fourth_order_one_step_error(self):
        # one step from (2, 0) with the exact Jacobian: the local error of
        # an order-4 pair falls like h^5, on Van der Pol (mu = 1) and on the
        # linear damper eta'' = -eta - eta'/2
        cases = (
            (self._vdp, lambda y, v: (-2.0 * y * v - 1.0, 1.0 - y * y)),
            (lambda y, v: -y - 0.5 * v, lambda y, v: (-1.0, -0.5)),
        )
        for acc, jac in cases:
            errors = []
            for h in (0.1, 0.05, 0.025, 0.0125):
                y, v, _, _ = _rodas4_step(
                    lambda a, b: (acc(a, b),), 2.0, 0.0, acc(2.0, 0.0), *jac(2.0, 0.0), h
                )
                y_ex, v_ex = self._rk4(acc, 2.0, 0.0, h)
                errors.append(math.hypot(y - y_ex, v - v_ex))
            for coarse, fine in zip(errors, errors[1:]):
                assert 4.8 <= math.log2(coarse / fine) <= 5.3

    def test_error_estimate_is_of_order_three(self):
        # K6, the gap to the embedded order-3 solution, falls like h^4 on
        # the linear damper
        estimates = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            _, _, err_y, err_v = _rodas4_step(
                lambda a, b: (-a - 0.5 * b,), 2.0, 0.0, -2.0, -1.0, -0.5, h
            )
            estimates.append(math.hypot(err_y, err_v))
        for coarse, fine in zip(estimates, estimates[1:]):
            assert 3.9 <= math.log2(coarse / fine) <= 4.1

    def test_l_stable_on_a_stiff_damper(self):
        # eta'' = -k eta': one step with h k = 1e8 all but removes the velocity
        k, h = 1e8, 1.0
        y, v, _, err_v = _rodas4_step(lambda a, b: (-k * b,), 1.0, 1.0, -k, 0.0, -k, h)
        assert abs(v) < 1e-6 and abs(err_v) < 1e-6
        assert y == pytest.approx(1.0 + 1.0 / k, rel=1e-6)


class TestStiffSwitch:
    @staticmethod
    def _decay(n=16, eta1=-0.5):
        """Criterion 7's flat decay; it turns stiff as the height falls."""
        return make_problem(SliderShape.flat(), DomainRect(-1.0, 1.0, -1.0, 1.0), n=n,
                            eta0=1.0, eta1=eta1)

    @pytest.mark.parametrize("eta1", [-0.5, 0.5])
    def test_criterion_7_case_switches_early(self, eta1):
        traj = integrate_trajectory(self._decay(32, eta1), 200.0,
                                    StepControl(rel_tol=1e-6, abs_tol=1e-9))
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert 0.0 < traj.stiff_from < 5.0
        assert traj.stiff_from in traj.t
        assert len(traj) < 265  # about 10% above the measured sample counts
        assert traj.monitor.passed

    @pytest.mark.parametrize("eta1", [-0.5, 0.5])
    def test_first_integral_holds_after_the_coast(self, eta1):
        # After the coast eta' <= 0, so I = eta' - L / (2 eta^2) + F t keeps its
        # value at the coast end t0 (oracle.FlatModel), L the run's unit load,
        # up to a drift of the order of rel_tol.
        prob = self._decay(32, eta1)
        traj = integrate_trajectory(prob, 200.0, StepControl(rel_tol=1e-6, abs_tol=1e-9))
        L = flat_unit_load(prob.grid)
        m = flat_model(DomainRect(-1.0, 1.0, -1.0, 1.0), 1.0, 1.0, eta1)
        I0 = min(eta1, 0.0) - L / (2.0 * m.eta0_hat**2) + m.F * m.t0
        after = traj.t >= m.t0
        load = L / (2.0 * traj.eta[after] ** 2)
        drift = np.abs(traj.eta_dot[after] - load + m.F * traj.t[after] - I0)
        assert np.all(drift <= 5e-6 * np.maximum(1.0, load)), np.max(drift / np.maximum(1.0, load))

    @pytest.mark.parametrize("variant, eta0, eta1, t_end, guard", UNROLLED_CASES)
    def test_unrolled_stage_cases_stay_explicit(
        self, domain_sym, monkeypatch, variant, eta0, eta1, t_end, guard
    ):
        if guard is not None:
            monkeypatch.setattr(dynamics, "_CONTACT_GUARD", guard)
        if variant == "flat":
            prob = make_problem(SliderShape.flat(), domain_sym, n=16, eta0=eta0, eta1=eta1)
        else:
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8, eta0=eta0,
                                eta1=eta1)
        traj = integrate_trajectory(prob, t_end, StepControl())
        assert traj.stiff_from is None

    @pytest.mark.parametrize("eta1", [-0.5, 0.5])
    def test_transient_stays_explicit(self, domain_sym, eta1):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=32, eta1=eta1)
        traj = integrate_trajectory(prob, 0.25, StepControl(rel_tol=1e-6, abs_tol=1e-9))
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from is None

    def test_non_flat_run_never_switches(self, domain_sym, monkeypatch):
        # a settled line contact; with every step stiff, a flat run would
        # switch at its first accepted step
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12, eta1=-0.5)
        control = StepControl(rel_tol=1e-6, abs_tol=1e-9)
        ref = integrate_trajectory(prob, 50.0, control)
        monkeypatch.setattr(dynamics, "_STIFF_RHO", 0.0)
        traj = integrate_trajectory(prob, 50.0, control)
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from is None and ref.stiff_from is None
        for name in ("t", "eta", "eta_dot", "G", "psor_iters"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name

    def _assert_prefix_of_full_run(self, traj):
        full = integrate_trajectory(self._decay(), 200.0, StepControl())
        n = len(traj)
        assert traj.stiff_from == full.stiff_from is not None
        assert traj.termination.time == traj.t[-1]
        for name in ("t", "eta", "eta_dot", "G"):
            assert np.array_equal(getattr(traj, name), getattr(full, name)[:n]), name
        return full

    def test_max_samples_on_the_stiff_path(self, monkeypatch):
        full = integrate_trajectory(self._decay(), 200.0, StepControl())
        cap = int(np.flatnonzero(full.t == full.stiff_from)[0]) + 6
        monkeypatch.setattr("sliderfilm.dynamics._MAX_SAMPLES", cap)
        traj = integrate_trajectory(self._decay(), 200.0, StepControl())
        assert traj.termination.kind is TerminationKind.STEP_FAILURE
        assert "sample cap" in traj.termination.detail
        assert len(traj) == cap
        self._assert_prefix_of_full_run(traj)

    def test_contact_guard_on_the_stiff_path(self, monkeypatch):
        eps = 0.05  # below the height at the switch, above the height at t = 200
        monkeypatch.setattr(dynamics, "_CONTACT_GUARD", eps)  # eta0 is 1
        traj = integrate_trajectory(self._decay(), 200.0, StepControl())
        monkeypatch.undo()
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert traj.stiff_from < traj.termination.time < 200.0
        assert np.all(traj.eta > eps) and traj.eta[-1] <= 2.0 * eps
        self._assert_prefix_of_full_run(traj)

    def test_contact_guard_on_a_stiff_end_point(self, monkeypatch):
        # a RODAS 4(3) step that ends below the guard is retried smaller, as
        # a stage below the guard is; its end point is never evaluated
        eps = 1e-3
        monkeypatch.setattr(dynamics, "_CONTACT_GUARD", eps)  # eta0 is 1
        monkeypatch.setattr(dynamics, "_rodas4_step", lambda f, y, v, *_: (0.5 * eps, v, 0.0, 0.0))
        traj = integrate_trajectory(self._decay(), 200.0, StepControl())
        monkeypatch.undo()
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert traj.termination.time == traj.stiff_from
        self._assert_prefix_of_full_run(traj)

    def test_error_rejection_on_the_stiff_path(self, monkeypatch):
        # the first RODAS 4(3) step reports an error of about 8 tolerances;
        # its retry is shrunk by the rule of its order-3 estimate, 0.9 err^(-1/4)
        real_step, control, steps = dynamics._rodas4_step, StepControl(), []

        def step(f, y, v, g, jb, jg, h):
            y_new, v_new, err_y, err_v = real_step(f, y, v, g, jb, jg, h)
            if not steps:
                sv = control.abs_tol + control.rel_tol * max(abs(v), abs(v_new))
                err_y, err_v = 0.0, 8.0 * math.sqrt(2.0) * sv
            steps.append((h, y, v, y_new, v_new, err_y, err_v))
            return y_new, v_new, err_y, err_v

        monkeypatch.setattr(dynamics, "_rodas4_step", step)
        traj = integrate_trajectory(self._decay(), 200.0, control)
        monkeypatch.undo()
        full = integrate_trajectory(self._decay(), 200.0, control)
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.n_rejected == full.n_rejected + 1
        (h, y, v, y_new, v_new, err_y, err_v), retry = steps[0], steps[1]
        assert retry[1:3] == (y, v)  # the retry starts from the same sample
        sy = control.abs_tol + control.rel_tol * max(abs(y), abs(y_new))
        sv = control.abs_tol + control.rel_tol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((err_y / sy) ** 2 + (err_v / sv) ** 2))
        assert err == pytest.approx(8.0)
        assert retry[0] == pytest.approx(h * max(0.2, 0.9 * err ** -0.25), rel=1e-12)

    def test_loose_tolerance_switches(self, monkeypatch):
        # a loose tolerance takes large steps early; the test at _STIFF_RHO
        # switches earlier than at DOPRI5's 3.25 and saves steps
        monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 5000)
        control = StepControl(rel_tol=1e-3)
        traj = integrate_trajectory(self._decay(), 200.0, control)
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from is not None
        assert traj.monitor.passed
        monkeypatch.setattr(dynamics, "_STIFF_RHO", 3.25)
        dopri5 = integrate_trajectory(self._decay(), 200.0, control)
        assert dopri5.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from < dopri5.stiff_from
        assert len(traj) < len(dopri5)

    @pytest.mark.parametrize("eta1", [-0.5, 0.5])
    def test_threshold_takes_no_more_samples_than_half_or_twice_it(self, monkeypatch, eta1):
        # _STIFF_RHO is set for RODAS 4(3) by sample count: from either
        # eta1, this decay takes no fewer samples at half or twice it
        control, shipped, samples = StepControl(rel_tol=1e-6, abs_tol=1e-9), dynamics._STIFF_RHO, {}
        for rho in (0.5 * shipped, shipped, 2.0 * shipped):
            monkeypatch.setattr(dynamics, "_STIFF_RHO", rho)
            traj = integrate_trajectory(self._decay(16, eta1), 200.0, control)
            assert traj.termination.kind is TerminationKind.REACHED_HORIZON
            samples[rho] = len(traj)
        assert samples[shipped] <= min(samples.values()), samples

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6])
    def test_switch_at_the_first_step_past_the_stability_bound(self, rel_tol):
        # stiff_from is the first sample k with (t_k - t_(k-1)) rho(J_k) above
        # _STIFF_RHO, rho the spectral radius of [[0, 1], [dG/deta, dG/deta']]
        # at sample k
        prob = self._decay()
        traj = integrate_trajectory(prob, 200.0, StepControl(rel_tol=rel_tol))
        ev = GEvaluator(prob)

        def h_rho(k):
            jac = np.array([[0.0, 1.0], ev.jacobian(traj.eta[k], traj.eta_dot[k])])
            return (traj.t[k] - traj.t[k - 1]) * np.abs(np.linalg.eigvals(jac)).max()

        k = next(k for k in range(1, len(traj)) if h_rho(k) > dynamics._STIFF_RHO)
        assert traj.stiff_from == traj.t[k]

    def test_step_underflow_on_the_stiff_path(self, monkeypatch):
        # every force evaluation after the Jacobian at the switch is NaN,
        # so every RODAS 4(3) step is rejected until the step size underflows
        full = integrate_trajectory(self._decay(), 200.0, StepControl())
        eta_at_switch = full.eta[full.t == full.stiff_from][0]
        real_eval, real_jacobian = GEvaluator.eval, GEvaluator.jacobian

        def jacobian(self, beta, gamma):
            if beta == eta_at_switch:
                self.broken = True
            return real_jacobian(self, beta, gamma)

        def evaluate(self, beta, gamma, tol=None):
            if getattr(self, "broken", False):
                return math.nan, math.nan, 0
            return real_eval(self, beta, gamma, tol)

        monkeypatch.setattr(GEvaluator, "jacobian", jacobian)
        monkeypatch.setattr(GEvaluator, "eval", evaluate)
        traj = integrate_trajectory(self._decay(), 200.0, StepControl())
        monkeypatch.undo()
        assert traj.termination.kind is TerminationKind.STEP_FAILURE
        assert "step size underflow" in traj.termination.detail
        assert traj.termination.time == traj.stiff_from
        self._assert_prefix_of_full_run(traj)


def scalar_monitor(trajectory, tol):
    """The energy monitor as a pair-by-pair loop."""
    n = len(trajectory)
    segments = []
    worst = 0.0
    if n >= 2:
        v, e1, e2 = trajectory.eta_dot, trajectory.E1, trajectory.E2
        kind_prev, seg_start, seg_worst = None, 0, 0.0

        def close(stop):
            nonlocal worst
            if kind_prev is not None:
                segments.append(
                    MonitorSegment(seg_start, stop, kind_prev, seg_worst, seg_worst <= tol)
                )
                worst = max(worst, seg_worst)

        for k in range(n - 1):
            if v[k] <= 0.0 and v[k + 1] <= 0.0:
                kind, violation = "descent", max(0.0, float(e1[k + 1] - e1[k]))
            elif v[k] >= 0.0 and v[k + 1] >= 0.0:
                kind, violation = "ascent", max(0.0, float(e2[k + 1] - e2[k]))
            else:
                kind, violation = None, 0.0
            if kind != kind_prev:
                close(k)
                kind_prev, seg_start, seg_worst = kind, k, 0.0
            seg_worst = max(seg_worst, violation)
        close(n - 1)
    return MonitorReport(tuple(segments), worst, worst <= tol, tol)


class TestMonitor:
    def _fake_trajectory(self, t, eta, eta_dot, F=1.0, c1=1.0):
        e1 = 0.5 * eta_dot**2 + F * eta
        e2 = e1 + c1 / (2.0 * eta**2)
        n = t.size
        return Trajectory(
            t=t, eta=eta, eta_dot=eta_dot, G=np.zeros(n), load=np.zeros(n),
            E1=e1, E2=e2, psor_iters=np.zeros(n, dtype=int),
            termination=Termination(TerminationKind.REACHED_HORIZON, float(t[-1])),
            n_rejected=0,
        )

    def test_constructed_violation_detected(self):
        # descending but gaining energy: physically impossible, must fail
        t = np.linspace(0.0, 1.0, 5)
        eta = np.array([1.0, 0.9, 0.8, 0.7, 0.6])
        eta_dot = np.full(5, -0.1)
        traj = self._fake_trajectory(t, eta, eta_dot)
        # E1 = 0.005 + eta decreases here; force an increase instead
        traj.E1[:] = np.array([1.0, 1.2, 1.1, 1.4, 1.3])
        rep = monitor_energies(traj, tol=1e-4)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(0.3)
        kinds = {s.kind for s in rep.segments}
        assert kinds == {"descent"}

    def test_flat_descent_passes(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=-0.3)
        traj = integrate_trajectory(prob, 10.0, StepControl())
        rep = monitor_energies(traj, tol=1e-6)
        assert rep.passed

    def test_ascent_arc_passes(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12, eta1=2.5)
        traj = integrate_trajectory(prob, 0.4, StepControl())
        rep = monitor_energies(traj, tol=1e-8)
        assert rep.passed
        assert any(s.kind == "ascent" for s in rep.segments)

    def test_sign_change_pairs_unconstrained(self):
        t = np.linspace(0.0, 1.0, 4)
        eta = np.array([0.5, 0.45, 0.44, 0.47])
        eta_dot = np.array([-0.2, -0.05, 0.05, 0.2])
        traj = self._fake_trajectory(t, eta, eta_dot)
        rep = monitor_energies(traj, tol=1e-4)
        # exactly one descent pair and one ascent pair; the middle pair straddles
        assert sum(s.stop - s.start for s in rep.segments) == 2

    def _assert_matches_scalar_loop(self, traj, tol):
        rep = monitor_energies(traj, tol=tol)
        assert rep == scalar_monitor(traj, tol)
        # plain Python scalars, so summary.json serializes them as before
        assert type(rep.worst_violation) is float
        for seg in rep.segments:
            assert type(seg.start) is int and type(seg.stop) is int
            assert type(seg.worst_violation) is float and type(seg.passed) is bool

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_equals_scalar_loop_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 400))
        # signs with exact zeros (both +0.0 and -0.0) and runs of each sign
        sign = np.repeat(rng.choice([-1.0, 0.0, 1.0], size=n), rng.integers(1, 4, size=n))[:n]
        eta_dot = sign * rng.random(n)
        eta_dot[rng.random(n) < 0.05] = -0.0
        t = np.arange(n, dtype=float)
        traj = self._fake_trajectory(t, 1.0 + rng.random(n), eta_dot)
        traj.E1[:] = np.cumsum(rng.normal(-1e-4, 1e-4, n))
        traj.E2[:] = np.cumsum(rng.normal(-1e-4, 1e-4, n))
        if seed % 2:
            traj.E1[rng.integers(n)] = np.nan
        for tol in (0.0, 1e-4, 1.0):
            self._assert_matches_scalar_loop(traj, tol)

    @pytest.mark.parametrize(
        "eta_dot",
        [
            [-0.3],  # n = 1: no pairs
            [-0.3, -0.1],  # n = 2: one descent pair
            [0.2, 0.0],  # n = 2: one ascent pair ending at rest
            [-0.2, 0.1, -0.3, 0.4, -0.1],  # every pair straddles a sign change
            list(-np.linspace(1.0, 0.1, 50)),  # one long descent segment
        ],
    )
    def test_vectorized_equals_scalar_loop_edge_cases(self, eta_dot):
        eta_dot = np.array(eta_dot)
        n = eta_dot.size
        traj = self._fake_trajectory(np.arange(n, dtype=float), np.linspace(1.0, 0.5, n), eta_dot)
        traj.E1[:] = np.sin(np.arange(n))
        traj.E2[:] = np.cos(np.arange(n))
        self._assert_matches_scalar_loop(traj, 1e-4)


class TestSpringDamper:
    def test_flat_region_has_zero_spring_positive_damping(self, domain_sym):
        prob = make_problem(SliderShape.flat(), domain_sym, n=16, eta0=1.0)
        region = ContactBox(kind=BoxKind.LINE_BOX, beta=0.1,
                            x1_lo=-0.6, x1_hi=-0.1, x2_lo=-0.5, x2_hi=0.5)
        sd = spring_damper_decomposition(prob, 0.1, region)
        assert sd.F_S == pytest.approx(0.0, abs=1e-12)
        assert sd.d > 0.0
        assert sd.passed

    def test_line_contact_bound_holds(self, domain_sym):
        shape = SliderShape.line_contact(2.0)
        prob = make_problem(shape, domain_sym, n=24, tol=1e-10)
        box = contact_box(shape, domain_sym, 0.05, delta=0.5)
        sd = spring_damper_decomposition(prob, 0.05, box, check_gammas=(-1.0, -0.3, 0.0))
        assert sd.F_S > 0.0 and sd.d > 0.0
        assert sd.passed
        gm1 = [c for c in sd.checks if c.gamma == -1.0][0]
        assert gm1.G >= sd.F_S + sd.d - prob.F - 1e-6

    def test_damping_grows_as_clearance_closes(self, domain_sym):
        shape = SliderShape.line_contact(2.0)
        prob = make_problem(shape, domain_sym, n=32, tol=1e-10)
        ds = []
        for beta in (0.1, 0.05):
            box = contact_box(shape, domain_sym, beta, delta=0.5)
            sd = spring_damper_decomposition(prob, beta, box, check_gammas=(0.0,))
            ds.append(sd.d)
        assert ds[1] > ds[0]
