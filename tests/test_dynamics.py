import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sliderfilm.dynamics import (
    _DP_A,
    _DP_B5,
    _DP_E,
    _DT_MIN_FRACTION,
    _StageContact,
    _dp_step,
    _initial_step,
    _rodas3_step,
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
from sliderfilm.oracle import comparison_check, flat_C_omega
from sliderfilm.vi_solver import load_integral, suggested_omega

from .conftest import all_variant_shapes


def make_problem(shape, domain, n=16, F=1.0, eta0=0.5, eta1=0.0, tol=1e-9):
    grid = build_grid(domain, n, n)
    return Problem(
        shape=shape, grid=grid, F=F, eta0=eta0, eta1=eta1,
        solver=SolverParams(omega=suggested_omega(grid), tol=tol),
    )


def film_force(prob, beta, gamma):
    """G = film load - F of one full solve, and the pressure field."""
    field = prob.solve_film(beta, gamma)
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

    def test_cache_counts_one_solve(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16)
        ev = GEvaluator(prob)
        for beta in (0.5, 1.0, 2.0):
            ev.eval(beta, -1.0)
        assert ev.n_solves == 1

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
        cold = prob.solve_film(0.5, -0.6)
        scale = max(1.0, np.max(cold.values))
        assert np.max(np.abs(fld.values - cold.values)) <= prob.solver.tol * scale

    def test_start_is_the_extrapolated_field(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        p0, p1 = ev.field(0.25, -0.125), ev.field(0.5, -0.25)
        # (0.625, -0.25) projects to s = 0.03125 / 0.078125 = 0.4 on the
        # step from p0 to p1
        start = p1.values + 0.4 * (p1.values - p0.values)
        ref = prob.solve_film(0.625, -0.25, warm_start=start)
        fld = ev.field(0.625, -0.25)
        assert fld.iterations == ref.iterations
        assert np.array_equal(fld.values, ref.values)

    def test_point_behind_the_last_solve_starts_from_it(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        ev.field(0.3, 0.0)
        p1 = ev.field(0.4, 0.0)
        ref = prob.solve_film(0.35, 0.0, warm_start=p1.values)
        fld = ev.field(0.35, 0.0)
        assert fld.iterations == ref.iterations
        assert np.array_equal(fld.values, ref.values)

    def test_without_a_warm_field_the_solve_is_cold(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12)
        ev = GEvaluator(prob)
        ev.field(0.3, 0.0)
        ev.field(0.4, 0.0)
        ev._warm = None
        fld = ev.field(0.5, 0.0)
        ref = prob.solve_film(0.5, 0.0)
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

    def test_first_step_independent_of_the_horizon(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=32, eta1=-0.5)
        control = StepControl(rel_tol=1e-6, abs_tol=1e-9, max_samples=2)
        short = integrate_trajectory(prob, 0.25, control)
        long = integrate_trajectory(prob, 50.0, control)
        assert len(short) == len(long) == 2
        assert short.t[1] == long.t[1]

    def test_probe_below_the_guard_ends_at_the_guard(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=8, eta0=1.0, eta1=-1.0)
        sc = StepControl(eps_contact=0.999)
        ev = GEvaluator(prob)
        probes = []

        def f(y, v):
            probes.append(y)
            return ev.eval(y, v)

        _initial_step(f, 1.0, -1.0, -1.0, ev.eval(1.0, -1.0)[0], sc.abs_tol, sc.rel_tol, 5.0)
        assert probes[0] <= sc.eps_contact
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
        assert ev.n_solves == 1  # the unit solve only

    def test_zero_at_the_cutoff(self, domain_sym):
        ev = GEvaluator(make_problem(SliderShape.flat(), domain_sym, n=12))
        assert ev.jacobian(0.3, ev.V1) == (0.0, 0.0)
        assert ev.n_solves == 0
        with pytest.raises(NonPositiveClearance):
            ev.jacobian(0.0, -1.0)

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
    """Every film pressure comes from Problem.solve_film with the problem's settings."""

    @pytest.fixture
    def psor_calls(self, monkeypatch):
        import sliderfilm.dynamics as dynamics

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
        solver = SolverParams(omega=1.7, tol=1e-9, max_iter=4000)
        return Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0, solver=solver)

    def test_every_route_reaches_the_problem_settings(self, psor_calls, domain_sym):
        shape = SliderShape.line_contact(2.0)
        prob = self._problem(shape, domain_sym)
        flat = self._problem(SliderShape.flat(), domain_sym)
        box = contact_box(shape, domain_sym, 0.1, delta=0.5)
        chain = GEvaluator(prob)
        routes = {
            "eval": lambda: [chain.eval(0.3, g) for g in (-0.2, -0.1)],
            "field": lambda: GEvaluator(prob).field(0.3, -0.2),
            "flat_cache": lambda: GEvaluator(flat).eval(0.3, -0.2),
            "spring_damper": lambda: spring_damper_decomposition(
                prob, 0.1, box, check_gammas=(-1.0, -0.5)
            ),
            "comparison_check": lambda: comparison_check(prob, 0.3, -0.2, (-0.5, 0.5, -0.5, 0.5)),
        }
        expected = {  # route: (solves, tol)
            "eval": (2, 1e-9),
            "field": (1, 1e-9),
            "flat_cache": (1, 1e-10),
            "spring_damper": (2, 1e-9),
            "comparison_check": (1, 1e-9),
        }
        for name, route in routes.items():
            psor_calls.clear()
            route()
            n, tol = expected[name]
            assert len(psor_calls) == n, name
            for kw in psor_calls:
                assert (kw["omega"], kw["tol"], kw["max_iter"]) == (1.7, tol, 4000), name
            if n == 2:
                assert psor_calls[0]["warm_start"] is None, name
                assert psor_calls[1]["warm_start"] is not None, name

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
        # an unset omega follows the grid of each solve, so it cannot stay
        # at the 64x64 value (1.9078) on a 16x16 grid (1.6895)
        shape = SliderShape.line_contact(2.0)
        fine = Problem(shape=shape, grid=build_grid(domain_sym, 64, 64), F=1.0, eta0=0.5,
                       eta1=0.0, solver=SolverParams(tol=1e-8))
        coarse = build_grid(domain_sym, 16, 16)
        moved = replace(fine, grid=coarse).solve_film(0.3, -0.3)
        fresh = Problem(shape=shape, grid=coarse, F=1.0, eta0=0.5, eta1=0.0,
                        solver=SolverParams(tol=1e-8)).solve_film(0.3, -0.3)
        assert moved.iterations == fresh.iterations == 50
        assert np.array_equal(moved.values, fresh.values)

    def test_problem_is_frozen_and_replace_rebuilds_its_geometry(self, domain_sym):
        # the assembly data built once per Problem must not go stale
        grid = build_grid(domain_sym, 6, 6)
        prob = Problem(shape=SliderShape.flat(), grid=grid, F=1.0, eta0=1.0, eta1=0.0)
        with pytest.raises(FrozenInstanceError):
            prob.shape = SliderShape.line_contact(2.0)
        line = SliderShape.line_contact(2.0)
        moved = replace(prob, shape=line).solve_film(0.3, -0.2)
        fresh = Problem(shape=line, grid=grid, F=1.0, eta0=1.0, eta1=0.0).solve_film(0.3, -0.2)
        assert np.array_equal(moved.values, fresh.values)
        assert moved.iterations == fresh.iterations

    @pytest.mark.parametrize("name", ["F", "eta0", "eta1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_problem_rejects_non_finite_inputs(self, domain_sym, name, value):
        kwargs = dict(F=1.0, eta0=1.0, eta1=0.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            Problem(shape=SliderShape.flat(), grid=build_grid(domain_sym, 6, 6), **kwargs)


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

    def test_contact_guard_fires(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=-1.0)
        traj = integrate_trajectory(
            prob, 5.0, StepControl(eps_contact=0.5)
        )
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert np.all(traj.eta > 0.5)
        assert traj.termination.time <= 5.0

    def test_max_samples_step_failure(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=1.0, eta1=-0.5)
        traj = integrate_trajectory(prob, 5.0, StepControl(max_samples=5))
        assert traj.termination.kind is TerminationKind.STEP_FAILURE
        assert "max_samples" in traj.termination.detail
        assert len(traj) == 5
        assert traj.termination.time == traj.t[-1]
        for cap in (0, 1):  # a cap of 1 could never accept a step
            with pytest.raises(ValueError, match="max_samples"):
                integrate_trajectory(prob, 5.0, StepControl(max_samples=cap))

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

    @pytest.mark.slow
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


def generic_dp_columns(problem, t_end, sc):
    """The Dormand-Prince loop applied through the generic tableau sums.

    Same controller, guard and FSAL bookkeeping as integrate_trajectory,
    with every stage combination written as sum(a[r] * k[r] ...) over the
    coefficient tables and the energies computed per sample in Python.
    """
    eps_contact = sc.eps_contact if sc.eps_contact is not None else 1e-4 * problem.eta0
    dt_min = _DT_MIN_FRACTION * t_end
    ev = GEvaluator(problem)
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

    def guarded(eta, v):
        if eta <= eps_contact:
            raise _StageContact
        return ev.eval(eta, v)

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
        contact = False
        for s in range(1, 7):
            a = _DP_A[s]
            ys = y + dt * sum(a[r] * ky[r] for r in range(s))
            vs = v + dt * sum(a[r] * kv[r] for r in range(s))
            if ys <= eps_contact:
                contact = True
                break
            ky[s] = vs
            kv[s], load7, it7 = ev.eval(ys, vs)
        if contact:
            if dt * 0.25 < dt_min or y <= 2.0 * eps_contact:
                return done(TerminationKind.CONTACT_GUARD)
            dt *= 0.25
            n_rejected += 1
            continue
        y5 = y + dt * sum(_DP_B5[s] * ky[s] for s in range(7))
        v5 = v + dt * sum(_DP_B5[s] * kv[s] for s in range(7))
        err_y = dt * sum(_DP_E[s] * ky[s] for s in range(7))
        err_v = dt * sum(_DP_E[s] * kv[s] for s in range(7))
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


# (variant, eta0, eta1, t_end, eps_contact): each stays on Dormand-Prince throughout
UNROLLED_CASES = [
    ("flat", 1.0, -0.5, 5.0, None),
    ("flat", 1.0, -1.0, 5.0, 0.25),  # stage probes below the guard
    ("line", 0.5, -0.5, 1.0, None),  # error-controlled rejections
]


class TestUnrolledStages:
    @pytest.mark.parametrize("variant, eta0, eta1, t_end, eps_contact", UNROLLED_CASES)
    def test_columns_equal_generic_tableau_loop(
        self, unit_domain, domain_sym, variant, eta0, eta1, t_end, eps_contact
    ):
        if variant == "flat":
            prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=eta0, eta1=eta1)
        else:
            shape = SliderShape.line_contact(2.0)
            prob = make_problem(shape, domain_sym, n=8, eta0=eta0, eta1=eta1)
        sc = StepControl(eps_contact=eps_contact)
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
            y, v, _, _, f7, _ = _dp_step(f, y, v, g, h)
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


class TestRodas3Step:
    @staticmethod
    def _vdp(y, v):
        return (1.0 - y * y) * v - y

    def _fixed_steps(self, n, t_end=2.0):
        """Van der Pol (mu = 1) from (2, 0) in n RODAS3 steps, exact Jacobian."""
        y, v, h = 2.0, 0.0, t_end / n
        for _ in range(n):
            y, v, _, _ = _rodas3_step(
                lambda a, b: (self._vdp(a, b),), y, v, self._vdp(y, v),
                -2.0 * y * v - 1.0, 1.0 - y * y, h,
            )
        return y, v

    def test_third_order_at_fixed_steps(self):
        # classical RK4 at 20k steps is exact to ~1e-15 here
        y, v, h = 2.0, 0.0, 2.0 / 20000
        for _ in range(20000):
            k1 = (v, self._vdp(y, v))
            k2 = (v + 0.5 * h * k1[1], self._vdp(y + 0.5 * h * k1[0], v + 0.5 * h * k1[1]))
            k3 = (v + 0.5 * h * k2[1], self._vdp(y + 0.5 * h * k2[0], v + 0.5 * h * k2[1]))
            k4 = (v + h * k3[1], self._vdp(y + h * k3[0], v + h * k3[1]))
            y += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            v += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        errors = [math.hypot(a - y, b - v) for a, b in map(self._fixed_steps, (80, 160, 320))]
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.8 <= math.log2(coarse / fine) <= 3.2

    def test_l_stable_on_a_stiff_damper(self):
        # eta'' = -k eta': one step with h k = 1e8 all but removes the velocity
        k, h = 1e8, 1.0
        y, v, _, err_v = _rodas3_step(lambda a, b: (-k * b,), 1.0, 1.0, -k, 0.0, -k, h)
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
        assert 0.0 < traj.stiff_from < 20.0
        assert traj.stiff_from in traj.t
        assert len(traj) < 5000
        assert traj.monitor.passed

    @pytest.mark.parametrize("variant, eta0, eta1, t_end, eps_contact", UNROLLED_CASES)
    def test_unrolled_stage_cases_stay_explicit(
        self, unit_domain, domain_sym, variant, eta0, eta1, t_end, eps_contact
    ):
        if variant == "flat":
            prob = make_problem(SliderShape.flat(), unit_domain, n=16, eta0=eta0, eta1=eta1)
        else:
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8, eta0=eta0,
                                eta1=eta1)
        traj = integrate_trajectory(prob, t_end, StepControl(eps_contact=eps_contact))
        assert traj.stiff_from is None

    @pytest.mark.parametrize("eta1", [-0.5, 0.5])
    def test_transient_stays_explicit(self, domain_sym, eta1):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=32, eta1=eta1)
        traj = integrate_trajectory(prob, 0.25, StepControl(rel_tol=1e-6, abs_tol=1e-9))
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from is None

    def test_non_flat_run_never_switches(self, domain_sym, monkeypatch):
        # a settled line contact; with one stiff step enough to switch, a
        # flat run would switch at its first accepted step
        import sliderfilm.dynamics as dynamics

        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=12, eta1=-0.5)
        control = StepControl(rel_tol=1e-6, abs_tol=1e-9)
        ref = integrate_trajectory(prob, 50.0, control)
        monkeypatch.setattr(dynamics, "_STIFF_RHO", 0.0)
        monkeypatch.setattr(dynamics, "_STIFF_STEPS", 1)
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

    def test_max_samples_on_the_stiff_path(self):
        full = integrate_trajectory(self._decay(), 200.0, StepControl())
        cap = int(np.flatnonzero(full.t == full.stiff_from)[0]) + 6
        traj = integrate_trajectory(self._decay(), 200.0, StepControl(max_samples=cap))
        assert traj.termination.kind is TerminationKind.STEP_FAILURE
        assert "max_samples" in traj.termination.detail
        assert len(traj) == cap
        self._assert_prefix_of_full_run(traj)

    def test_contact_guard_on_the_stiff_path(self):
        eps = 0.05  # below the height at the switch, above the height at t = 200
        traj = integrate_trajectory(self._decay(), 200.0, StepControl(eps_contact=eps))
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert traj.stiff_from < traj.termination.time < 200.0
        assert np.all(traj.eta > eps) and traj.eta[-1] <= 2.0 * eps
        self._assert_prefix_of_full_run(traj)

    def test_contact_guard_on_a_stiff_end_point(self, monkeypatch):
        # a RODAS3 step that ends below the guard is retried smaller, as a
        # stage below the guard is; its end point is never evaluated
        import sliderfilm.dynamics as dynamics

        eps = 1e-3
        monkeypatch.setattr(dynamics, "_rodas3_step", lambda f, y, v, *_: (0.5 * eps, v, 0.0, 0.0))
        traj = integrate_trajectory(self._decay(), 200.0, StepControl(eps_contact=eps))
        monkeypatch.undo()
        assert traj.termination.kind is TerminationKind.CONTACT_GUARD
        assert traj.termination.time == traj.stiff_from
        self._assert_prefix_of_full_run(traj)

    def test_error_rejection_on_the_stiff_path(self, monkeypatch):
        # the first RODAS3 step reports an error of about 8 tolerances; its
        # retry is shrunk by the order-3 rule, 0.9 err^(-1/3)
        import sliderfilm.dynamics as dynamics

        real_step, control, steps = dynamics._rodas3_step, StepControl(), []

        def step(f, y, v, g, jb, jg, h):
            y_new, v_new, err_y, err_v = real_step(f, y, v, g, jb, jg, h)
            if not steps:
                sv = control.abs_tol + control.rel_tol * max(abs(v), abs(v_new))
                err_y, err_v = 0.0, 8.0 * math.sqrt(2.0) * sv
            steps.append((h, y, v, y_new, v_new, err_y, err_v))
            return y_new, v_new, err_y, err_v

        monkeypatch.setattr(dynamics, "_rodas3_step", step)
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
        assert retry[0] == pytest.approx(h * max(0.2, 0.9 * err ** (-1.0 / 3.0)), rel=1e-12)

    def test_loose_tolerance_switches(self):
        # rel_tol 1e-3 interleaves non-stiff steps with the stiff ones; a
        # count that any non-stiff step restarts never reaches 15
        control = StepControl(rel_tol=1e-3, max_samples=5000)
        traj = integrate_trajectory(self._decay(), 200.0, control)
        assert traj.termination.kind is TerminationKind.REACHED_HORIZON
        assert traj.stiff_from is not None
        assert traj.monitor.passed

    @pytest.mark.parametrize("calm, switch_at", [(5, 20), (6, 35)])
    def test_dopri5_stiffness_count(self, monkeypatch, calm, switch_at):
        # the steps from samples 0..13 are stiff, the next `calm` are not,
        # and every later one is: 5 non-stiff steps keep the count of 14,
        # and the 6th resets it to 0
        import sliderfilm.dynamics as dynamics

        real_step, starts = dynamics._dp_step, []

        def step(f, y, v, g, h):
            if not starts or starts[-1] != y:
                starts.append(y)
            *out, _ = real_step(f, y, v, g, h)
            k = len(starts) - 1  # the sample the step starts from
            return (*out, not 14 <= k < 14 + calm)

        monkeypatch.setattr(dynamics, "_dp_step", step)
        traj = integrate_trajectory(self._decay(), 200.0, StepControl())
        monkeypatch.undo()
        assert traj.stiff_from == traj.t[switch_at]

    def test_step_underflow_on_the_stiff_path(self, monkeypatch):
        # every force evaluation after the first Jacobian is NaN, so every
        # RODAS3 step is rejected until the step size underflows
        real_eval, real_jacobian = GEvaluator.eval, GEvaluator.jacobian

        def jacobian(self, beta, gamma):
            jac = real_jacobian(self, beta, gamma)
            self.broken = True
            return jac

        def evaluate(self, beta, gamma):
            if getattr(self, "broken", False):
                return math.nan, math.nan, 0
            return real_eval(self, beta, gamma)

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
