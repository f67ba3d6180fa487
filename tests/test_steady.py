import numpy as np
import pytest

from sliderfilm.dynamics import GEvaluator, Problem, SolverParams, bounds_report
from sliderfilm.errors import InadmissibleShape
from sliderfilm.geometry import SliderShape, build_grid
from sliderfilm.steady import _require_admissible, find_bracket, find_steady, g_curve
from sliderfilm.vi_solver import suggested_omega


def make_problem(shape, domain, n=32, F=1.0):
    grid = build_grid(domain, n, n)
    return Problem(
        shape=shape, grid=grid, F=F, eta0=0.5, eta1=0.0,
        solver=SolverParams(omega=suggested_omega(grid), tol=1e-9),
    )


class TestAdmissibility:
    def test_flat_rejected_with_documented_reason(self, domain_sym):
        prob = make_problem(SliderShape.flat(), domain_sym, n=8)
        with pytest.raises(InadmissibleShape, match="no stationary solution for flat slider"):
            find_bracket(prob, 0.5)

    def test_threshold_alphas_rejected(self, domain_sym):
        with pytest.raises(InadmissibleShape):
            find_bracket(make_problem(SliderShape.line_contact(1.0), domain_sym, n=8), 0.5)
        with pytest.raises(InadmissibleShape):
            find_bracket(make_problem(SliderShape.point_contact(1.5), domain_sym, n=8), 0.5)

    def test_tabulated_rejected(self, tabulated_line):
        shape, grid = tabulated_line
        prob = Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0)
        with pytest.raises(InadmissibleShape):
            find_bracket(prob, 0.5)

    @pytest.mark.parametrize("alpha", [1.0, 1.0001, 1.5, 1.5001, 2.0])
    def test_bounds_verdict_agrees_with_steady_search(self, tabulated_line, alpha):
        tabulated, grid = tabulated_line
        cases = [  # the paper's thresholds: line contact alpha > 1, point contact alpha > 3/2
            (SliderShape.line_contact(alpha), alpha > 1.0),
            (SliderShape.point_contact(alpha), alpha > 1.5),
            (SliderShape.flat(), False),
            (tabulated, None),
        ]
        for shape, verdict in cases:
            prob = Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0)
            assert bounds_report(prob).steady_state_guaranteed is verdict
            if verdict:
                _require_admissible(prob)
            else:
                with pytest.raises(InadmissibleShape):
                    _require_admissible(prob)


class TestBracketAndRoot:
    def test_line_contact_root(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym)
        ev = GEvaluator(prob)
        lo, hi = find_bracket(prob, 0.5, evaluator=ev)
        assert 0.0 < lo < hi
        res = find_steady(prob, (lo, hi), tol_residual=1e-6, evaluator=ev)
        assert abs(res.g_at_root) <= 1e-6
        assert lo <= res.beta_star <= hi

    def test_sign_structure_on_log_sweep(self, domain_sym):
        # exactly one sign-change region at this resolution
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym)
        curve = g_curve(prob, np.logspace(-3, 1, 20))
        signs = np.sign(curve.g)
        changes = np.count_nonzero(np.diff(signs))
        assert changes == 1
        assert curve.g[0] > 0.0 and curve.g[-1] < 0.0

    def test_near_endpoint_short_circuit(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym)
        ev = GEvaluator(prob)
        lo, hi = find_bracket(prob, 0.5, evaluator=ev)
        res = find_steady(prob, (lo, hi), tol_residual=1e-6, evaluator=ev)
        # re-run with the root as an endpoint: returned immediately
        res2 = find_steady(
            prob, (res.beta_star, hi), tol_residual=1e-6, evaluator=GEvaluator(prob)
        )
        assert res2.beta_star == res.beta_star
        assert res2.evaluations == 2

    def test_root_independent_of_warm_start(self, domain_sym):
        class ColdEvaluator(GEvaluator):
            """Drops the warm start before every solve."""

            def field(self, beta, gamma):
                self._warm = None
                return super().field(beta, gamma)

        grid = build_grid(domain_sym, 32, 32)
        prob = Problem(
            shape=SliderShape.line_contact(2.0), grid=grid, F=1.0, eta0=0.5, eta1=0.0,
            solver=SolverParams(omega=suggested_omega(grid), tol=1e-10),
        )
        roots = []
        for ev in (GEvaluator(prob), ColdEvaluator(prob)):
            res = find_steady(prob, find_bracket(prob, 0.5, evaluator=ev), evaluator=ev)
            roots.append(res.beta_star)
        assert roots[0] == pytest.approx(roots[1], rel=1e-9)

    def test_load_increase_lowers_clearance(self, domain_sym):
        # reported trend: heavier load rides on a thinner film
        roots = []
        for F in (0.5, 1.0, 2.0):
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, F=F)
            ev = GEvaluator(prob)
            res = find_steady(prob, find_bracket(prob, 0.5, evaluator=ev), evaluator=ev)
            roots.append(res.beta_star)
        print(f"steady clearance vs load 0.5/1/2: {roots}")
        assert all(np.isfinite(roots))
        assert roots[0] > roots[1] > roots[2]


class TestGCurve:
    def test_flat_curve_is_minus_F(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=8)
        curve = g_curve(prob, [0.1, 0.5, 1.0, 3.0])
        assert np.all(curve.g == -1.0)
        assert np.all(curve.load == 0.0)
        assert np.all(curve.active_fraction == 1.0)

    def test_g_above_minus_F(self, domain_sym):
        prob = make_problem(SliderShape.point_contact(2.0), domain_sym, n=16)
        curve = g_curve(prob, np.logspace(-2, 1, 8))
        assert np.all(curve.g > -prob.F)

    def test_large_beta_within_upper_bound(self, domain_sym):
        from sliderfilm.dynamics import c1_constant

        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16)
        c1 = c1_constant(prob.shape, domain_sym)
        betas = np.array([2.0, 5.0, 10.0])
        assert np.all(betas > (c1 / prob.F) ** (1.0 / 3.0))
        curve = g_curve(prob, betas)
        assert np.all(curve.g <= c1 / betas**3 - prob.F + 1e-9)
        assert np.all(curve.g < 0.0)  # past the capacity clearance the film loses

    def test_resolution_flag(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16)
        curve = g_curve(prob, [1e-4, 1.0])
        assert not curve.resolved[0]
        assert curve.resolved[1]

    def test_csv_format(self, tmp_path, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8)
        curve = g_curve(prob, [0.5, 1.0])
        path = tmp_path / "gcurve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "beta,g,load,active_fraction,psor_iters,resolved"
        assert len(lines) == 3
        assert lines[1].split(",")[-1] in ("true", "false")
