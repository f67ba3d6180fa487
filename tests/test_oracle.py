import numpy as np
import pytest

from sliderfilm.dynamics import Problem, SolverParams
from sliderfilm.errors import TooLarge
from sliderfilm.geometry import DomainRect, SliderShape, build_grid, compute_V1, contact_box
from sliderfilm.oracle import (
    _CK_A,
    _CK_B4,
    _CK_B5,
    RefTrajectory,
    comparison_check,
    flat_C_omega,
    flat_envelope,
    flat_model,
    flat_reference_trajectory,
    lcp_enumerate,
)
from sliderfilm.vi_solver import assemble_system, load_integral, solve_linear


class TestFourierConstant:
    def test_leading_term_unit_square(self, unit_domain):
        assert flat_C_omega(unit_domain, 1).value == pytest.approx(32.0 / np.pi**6, rel=1e-14)

    def test_monotone_and_tail_bound(self, unit_domain):
        values = [flat_C_omega(unit_domain, k) for k in (1, 9, 49, 99, 499)]
        for a, b in zip(values, values[1:]):
            assert b.value > a.value
        limit = values[-1].value
        for fc in values[:-1]:
            assert limit - fc.value <= fc.tail_bound

    def test_quartic_scaling(self):
        base = flat_C_omega(DomainRect(-0.5, 0.5, -0.5, 0.5), 99).value
        scaled = flat_C_omega(DomainRect(-1.5, 1.5, -1.5, 1.5), 99).value
        assert scaled == pytest.approx(3.0**4 * base, rel=1e-12)

    def test_cross_validated_against_grid_solve(self, unit_domain):
        # mandatory before this value backs any other check
        grid = build_grid(unit_domain, 128, 128)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        w = solve_linear(system, tol=1e-11)
        series = flat_C_omega(unit_domain, 99).value
        assert abs(load_integral(w, grid) - series) / series <= 5e-3


class TestFlatModel:
    def test_descent_constants(self, domain_sym):
        m = flat_model(domain_sym, F=2.0, eta0=1.0, eta1=-0.5)
        assert m.t0 == 0.0
        assert m.eta0_hat == 1.0
        assert m.a == pytest.approx(np.sqrt(m.C_omega / 4.0))
        assert m.t0 + m.b > 0.0

    def test_coast_constants(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=0.5)
        assert m.t0 == pytest.approx(0.5)
        assert m.eta0_hat == pytest.approx(1.125)
        assert m.t0 + m.b > 0.0

    def test_envelope_below_initial_height(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=-0.2)
        t = np.linspace(0.0, 50.0, 200)
        env = flat_envelope(m, t)
        assert np.all(env <= 1.0 + 1e-12)
        assert np.all(np.diff(env) < 0.0)

    def test_decay_bound_matches_envelope_asymptotics(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=-0.2)
        t = np.linspace(m.t0 + 1.0, 500.0, 50)
        assert np.all(flat_envelope(m, t) >= m.a / np.sqrt(t + m.b) - 1e-12)


class TestReferenceTrajectory:
    def test_initial_acceleration_is_minus_F(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=0.0)
        ref = flat_reference_trajectory(m, 0.1, fine_tol=1e-10)
        # eta''(0+) = -F: the descent starts immediately, velocity ~ -F t
        k = 1 + np.argmax(ref.t[1:] > 0.0)
        assert ref.eta_dot[k] < 0.0
        assert ref.eta_dot[k] / ref.t[k] == pytest.approx(-1.0, rel=1e-2)

    def test_coast_phase_is_exact_parabola(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=0.5)
        ref = flat_reference_trajectory(m, 0.4, fine_tol=1e-10)
        exact = -0.5 * ref.t**2 + 0.5 * ref.t + 1.0
        assert np.max(np.abs(ref.eta - exact)) <= 1e-14

    def test_envelope_and_decay_hold_long_horizon(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=-0.5)
        ref = flat_reference_trajectory(m, 100.0, fine_tol=1e-9)
        env = flat_envelope(m, ref.t)
        assert np.all(ref.eta >= env * (1.0 - 1e-6))
        after = ref.t >= m.t0
        assert np.all(ref.eta[after] * np.sqrt(ref.t[after] + m.b) >= m.a * (1.0 - 1e-6))

    def test_descent_energy_monotone(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=-0.1)
        ref = flat_reference_trajectory(m, 20.0, fine_tol=1e-10)
        e1 = 0.5 * ref.eta_dot**2 + m.F * ref.eta
        assert np.all(np.diff(e1) <= 1e-10)

    def test_t_eval_hits_exact_times(self, domain_sym):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=-0.5)
        t_eval = np.array([0.0, 0.5, 1.7, 3.0])
        ref = flat_reference_trajectory(m, 3.0, fine_tol=1e-8, t_eval=t_eval)
        assert np.allclose(ref.t, t_eval, atol=1e-10)


def generic_reference_trajectory(model, t_end, fine_tol=1e-8, t_eval=None):
    """flat_reference_trajectory with its Cash-Karp stages as the loop
    over the coefficient tables, each combination a sum() over them."""
    F = model.F
    targets = None if t_eval is None else np.asarray(t_eval, dtype=float)
    ts, etas, vs = [], [], []

    def record(t, eta, v):
        ts.append(t)
        etas.append(eta)
        vs.append(v)

    t_start, y, v = 0.0, model.eta0, model.eta1
    if model.eta1 > 0.0:
        t0 = min(model.t0, t_end)
        if targets is None:
            for t in np.linspace(0.0, t0, 65):
                record(t, -0.5 * F * t * t + model.eta1 * t + model.eta0, model.eta1 - F * t)
        else:
            for t in targets[targets <= t0 + 1e-14]:
                record(t, -0.5 * F * t * t + model.eta1 * t + model.eta0, model.eta1 - F * t)
        if t0 >= t_end:
            return RefTrajectory(np.array(ts), np.array(etas), np.array(vs), n_steps=0)
        t_start, y, v = t0, model.eta0_hat, 0.0
        pending = None if targets is None else targets[targets > t0 + 1e-14]
    else:
        pending = targets
        if targets is None or (targets.size and abs(targets[0]) < 1e-14):
            record(0.0, model.eta0, model.eta1)
            if pending is not None:
                pending = pending[1:]

    atol = fine_tol * 1e-3
    t, dt = t_start, min(1e-3, t_end - t_start)
    n_steps = 0
    next_idx = 0
    while t < t_end - 1e-14:
        target = None
        if pending is not None and next_idx < pending.size:
            target = pending[next_idx]
            dt = min(dt, target - t)
        dt = min(dt, t_end - t)
        ky = [0.0] * 6
        kv = [0.0] * 6
        for s in range(6):
            ys = y + dt * sum(_CK_A[s][r] * ky[r] for r in range(s))
            vs_ = v + dt * sum(_CK_A[s][r] * kv[r] for r in range(s))
            if ys <= 0.0:
                ys = 1e-300
            ky[s] = vs_
            kv[s] = model.acceleration(ys, vs_)
        y5 = y + dt * sum(_CK_B5[s] * ky[s] for s in range(6))
        v5 = v + dt * sum(_CK_B5[s] * kv[s] for s in range(6))
        y4 = y + dt * sum(_CK_B4[s] * ky[s] for s in range(6))
        v4 = v + dt * sum(_CK_B4[s] * kv[s] for s in range(6))
        sy = atol + fine_tol * max(abs(y), abs(y5))
        sv = atol + fine_tol * max(abs(v), abs(v5))
        err = np.sqrt(0.5 * (((y5 - y4) / sy) ** 2 + ((v5 - v4) / sv) ** 2))
        if err <= 1.0 and y5 > 0.0:
            t += dt
            y, v = y5, v5
            n_steps += 1
            if pending is None:
                record(t, y, v)
            elif target is not None and t >= target - 1e-12:
                record(t, y, v)
                next_idx += 1
        fac = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        dt *= min(5.0, max(0.2, fac))
        if dt < 1e-14 * max(1.0, t_end):
            raise RuntimeError("reference integrator step underflow")
    return RefTrajectory(np.array(ts), np.array(etas), np.array(vs), n_steps=n_steps)


class TestUnrolledReference:
    @pytest.mark.parametrize("eta1", [-0.5, 0.0, 0.5])  # descent from t = 0, or after a coast
    @pytest.mark.parametrize("with_t_eval", [False, True])
    def test_equals_generic_tableau_loop(self, domain_sym, eta1, with_t_eval):
        m = flat_model(domain_sym, F=1.0, eta0=1.0, eta1=eta1)
        t_eval = np.linspace(0.0, 20.0, 57) if with_t_eval else None
        ref = flat_reference_trajectory(m, 20.0, fine_tol=1e-8, t_eval=t_eval)
        gen = generic_reference_trajectory(m, 20.0, fine_tol=1e-8, t_eval=t_eval)
        assert ref.n_steps == gen.n_steps > 100
        for name in ("t", "eta", "eta_dot"):
            assert np.array_equal(getattr(ref, name), getattr(gen, name)), name


class TestEnumeration:
    def _system(self, gamma, domain):
        grid = build_grid(domain, 3, 3)
        return assemble_system(grid, SliderShape.line_contact(2.0), 0.3, gamma)

    def test_all_active_for_nonpositive_rhs(self, domain_sym):
        shape = SliderShape.line_contact(2.0)
        grid = build_grid(domain_sym, 3, 3)
        v1 = compute_V1(shape, grid)
        sol = lcp_enumerate(assemble_system(grid, shape, 0.3, v1 + 1.0))
        assert np.all(sol.values == 0.0)

    def test_all_free_for_nonnegative_rhs(self, domain_sym):
        grid = build_grid(domain_sym, 3, 3)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        sol = lcp_enumerate(system)
        A, b = system.dense()
        assert np.allclose(sol.values.ravel(), np.linalg.solve(A, b), atol=1e-12)
        assert np.all(sol.values > 0.0)

    def test_too_large(self, domain_sym):
        grid = build_grid(domain_sym, 5, 4)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(TooLarge):
            lcp_enumerate(system)

    def test_residuals_tiny(self, domain_sym):
        sol = lcp_enumerate(self._system(0.5, domain_sym))
        assert sol.residual_comp <= 1e-12
        assert sol.residual_lin <= 1e-12


class TestComparison:
    def _problem(self, shape, domain, n=16):
        grid = build_grid(domain, n, n)
        return Problem(
            shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0,
            solver=SolverParams(omega=1.6, tol=1e-10),
        )

    def test_whole_interior_inactive_constraint(self, domain_sym):
        # b >= 0 everywhere: constrained and unconstrained solves coincide
        prob = self._problem(SliderShape.flat(), domain_sym)
        d = domain_sym
        verdict = comparison_check(
            prob, 1.0, -1.0, (d.x1_min, d.x1_max, d.x2_min, d.x2_max)
        )
        assert verdict.passed
        assert abs(verdict.worst_margin) <= 1e-8

    def test_contact_box_region(self, domain_sym):
        shape = SliderShape.line_contact(2.0)
        prob = self._problem(shape, domain_sym, n=24)
        box = contact_box(shape, domain_sym, 0.05, delta=0.5)
        verdict = comparison_check(prob, 0.05, -0.5, box)
        assert verdict.n_nodes > 0
        assert verdict.passed
        assert verdict.worst_margin > 0.0

    def test_random_subrectangles(self, domain_sym):
        rng = np.random.default_rng(7)
        prob = self._problem(SliderShape.point_contact(2.0), domain_sym, n=16)
        for _ in range(20):
            xa, xb = np.sort(rng.uniform(-1.0, 1.0, size=2))
            ya, yb = np.sort(rng.uniform(-1.0, 1.0, size=2))
            if xb - xa < 0.2 or yb - ya < 0.2:
                continue
            beta = float(rng.uniform(0.05, 1.0))
            gamma = float(rng.uniform(-1.0, 0.0))
            verdict = comparison_check(prob, beta, gamma, (xa, xb, ya, yb))
            assert verdict.passed
