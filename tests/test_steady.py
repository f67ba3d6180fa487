import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sliderfilm import steady
from sliderfilm.config import default_gcurve_betas
from sliderfilm.dynamics import GEvaluator, Problem, SolverParams, bounds_report
from sliderfilm.errors import BracketFailure, InadmissibleShape
from sliderfilm.geometry import DomainRect, SliderShape, build_grid
from sliderfilm.steady import (
    _SIGN_TOL,
    Bracket,
    GPoint,
    _require_admissible,
    _signed_g,
    find_bracket,
    find_steady,
    g_curve,
)
from sliderfilm.vi_solver import PressureField, solve_vi_psor, suggested_omega


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
            find_bracket(GEvaluator(prob), 0.5)

    def test_threshold_alphas_rejected(self, domain_sym):
        with pytest.raises(InadmissibleShape):
            find_bracket(GEvaluator(make_problem(SliderShape.line_contact(1.0), domain_sym, n=8)))
        with pytest.raises(InadmissibleShape):
            find_bracket(GEvaluator(make_problem(SliderShape.point_contact(1.5), domain_sym, n=8)))

    def test_tabulated_rejected(self, tabulated_line):
        shape, grid = tabulated_line
        prob = Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0)
        with pytest.raises(InadmissibleShape):
            find_bracket(GEvaluator(prob), 0.5)

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
        br = find_bracket(ev, 0.5)
        assert 0.0 < br.lo.beta < br.hi.beta
        res = find_steady(ev, br, tol_residual=1e-6)
        assert abs(res.g_at_root) <= 1e-6
        assert br.lo.beta <= res.beta_star <= br.hi.beta

    def test_sign_structure_on_log_sweep(self, domain_sym):
        # exactly one sign-change region at this resolution
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym)
        curve = g_curve(GEvaluator(prob), np.logspace(-3, 1, 20))
        signs = np.sign(curve.g)
        changes = np.count_nonzero(np.diff(signs))
        assert changes == 1
        assert curve.g[0] > 0.0 and curve.g[-1] < 0.0

    def test_near_endpoint_short_circuit(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym)
        ev = GEvaluator(prob)
        br = find_bracket(ev, 0.5)
        res = find_steady(ev, br, tol_residual=1e-6)
        # re-run with the root as an endpoint: returned immediately
        fresh = GEvaluator(prob)
        at_root = Bracket(GPoint(res.beta_star, res.g_at_root), br.hi)
        res2 = find_steady(fresh, at_root, tol_residual=1e-6)
        assert res2.beta_star == res.beta_star
        assert res2.evaluations == fresh.n_solves == 0

    @pytest.mark.parametrize("make", [SliderShape.line_contact, SliderShape.point_contact])
    def test_search_evaluations_with_bracket_values(self, domain_sym, make):
        # Brent on (log beta, log L/F) takes 4 (line) and 3 (point) evaluations
        # here; it stops once |g| is within its solve's load error, or else
        # by the width rule
        prob = make_problem(make(2.0), domain_sym)
        ev = GEvaluator(prob)
        br = find_bracket(ev, 0.5)
        solves = ev.n_solves
        res = find_steady(ev, br, tol_residual=1e-6)
        assert ev.n_solves - solves == res.evaluations <= 4
        assert abs(res.g_at_root) <= 1e-6
        lo, hi = res.bracket
        assert abs(res.g_at_root) <= min(1e-6, res.g_error) or hi - lo <= 1e-9 * res.beta_star

    def test_search_work_over_starting_points(self, domain_sym):
        # 14 searches (line and point contact, 32^2, beta_init at 7 points in
        # [0.25, 1]) take 5,039 sweeps in 105 solves; with Brent's method
        # narrowing the bracket to 1e-9 beta they took 5,262 sweeps in 142
        # solves, with every bracket point solved at solver.tol as well
        # 8,701 sweeps in 140 solves, and on (beta, g), with find_bracket
        # keeping beta_init as the upper end, 13,103 sweeps in 190 solves
        sweeps = solves = 0
        for make in (SliderShape.line_contact, SliderShape.point_contact):
            prob = make_problem(make(2.0), domain_sym)
            for beta_init in np.linspace(0.25, 1.0, 7):
                ev = GEvaluator(prob)
                res = find_steady(ev, find_bracket(ev, beta_init))
                assert abs(res.g_at_root) <= 1e-6
                sweeps += ev.n_sweeps
                solves += ev.n_solves
        assert sweeps <= 5_500
        assert solves <= 115

    def test_root_agrees_with_a_tight_search(self, domain_sym):
        # 14 searches as above against searches at solver.tol 1e-12 and
        # tol_residual 1e-10: the worst relative error in beta* is 2.0e-8
        # (point contact, beta_init 0.25, 0.5 and 1)
        for make in (SliderShape.line_contact, SliderShape.point_contact):
            prob = make_problem(make(2.0), domain_sym)
            tight = replace(prob, solver=replace(prob.solver, tol=1e-12))
            for beta_init in np.linspace(0.25, 1.0, 7):
                ev, ev_tight = GEvaluator(prob), GEvaluator(tight)
                res = find_steady(ev, find_bracket(ev, beta_init))
                ref = find_steady(ev_tight, find_bracket(ev_tight, beta_init), tol_residual=1e-10)
                assert res.beta_star == pytest.approx(ref.beta_star, rel=5e-8)

    @pytest.mark.parametrize("make", [SliderShape.line_contact, SliderShape.point_contact])
    def test_bracket_signs_hold_at_a_tight_cold_solve(self, domain_sym, make):
        # every end find_bracket returns, most of them from a loose solve,
        # has the sign of a cold solve at tol 1e-12
        prob = make_problem(make(2.0), domain_sym)
        tight = replace(prob, solver=replace(prob.solver, tol=1e-12))
        loose_ends = 0
        for beta_init in np.linspace(0.25, 1.0, 7):
            br = find_bracket(GEvaluator(prob), beta_init)
            for end in (br.lo, br.hi):
                g_tight, _, _ = GEvaluator(tight).eval(end.beta, 0.0)
                assert end.g != 0.0 and g_tight != 0.0
                assert (end.g > 0.0) == (g_tight > 0.0)
                loose_ends += end.tol == _SIGN_TOL
        assert loose_ends >= 10

    def test_g_at_root_from_an_end_comes_from_a_full_solve(self, domain_sym):
        # with tol_residual 0.5, g ~ -0.28 of the loosely solved upper
        # end is a root: find_steady solves it again at solver.tol first
        class TolRecorder(GEvaluator):
            def field(self, beta, gamma, tol=None):
                self.tols.append((beta, tol))
                return super().field(beta, gamma, tol)

        prob = make_problem(SliderShape.line_contact(2.0), domain_sym)
        ev = TolRecorder(prob)
        ev.tols = []
        br = find_bracket(ev, 0.5)
        assert br.hi.tol == _SIGN_TOL and 0.0 > br.hi.g >= -0.5
        res = find_steady(ev, br, tol_residual=0.5)
        assert res.beta_star == br.hi.beta and res.evaluations == 1
        assert ev.tols[-1] == (br.hi.beta, None)
        g_cold, _, _ = GEvaluator(prob).eval(br.hi.beta, 0.0)
        assert res.g_at_root == pytest.approx(g_cold, abs=1e-8)
        assert abs(res.g_at_root - g_cold) < abs(br.hi.g - g_cold)

    def test_root_independent_of_warm_start(self, domain_sym):
        class ColdEvaluator(GEvaluator):
            """Drops the warm start before every solve."""

            def field(self, beta, gamma, tol=None):
                self._history.clear()
                return super().field(beta, gamma, tol)

        grid = build_grid(domain_sym, 32, 32)
        prob = Problem(
            shape=SliderShape.line_contact(2.0), grid=grid, F=1.0, eta0=0.5, eta1=0.0,
            solver=SolverParams(omega=suggested_omega(grid), tol=1e-10),
        )
        roots = []
        for ev in (GEvaluator(prob), ColdEvaluator(prob)):
            res = find_steady(ev, find_bracket(ev, 0.5))
            roots.append(res.beta_star)
        assert roots[0] == pytest.approx(roots[1], rel=1e-9)

    def test_load_increase_lowers_clearance(self, domain_sym):
        # reported trend: heavier load rides on a thinner film
        roots = []
        for F in (0.5, 1.0, 2.0):
            prob = make_problem(SliderShape.line_contact(2.0), domain_sym, F=F)
            ev = GEvaluator(prob)
            res = find_steady(ev, find_bracket(ev, 0.5))
            roots.append(res.beta_star)
        print(f"steady clearance vs load 0.5/1/2: {roots}")
        assert all(np.isfinite(roots))
        assert roots[0] > roots[1] > roots[2]


def stub_problem(tol=0.0):
    """What the search reads of a Problem, for StubEvaluator: F = 1 and a
    7x7 grid of [-1, 1]^2, cell area 1/16 and area(Omega) 4.  At
    solver.tol 0 g carries no load error; otherwise the load error of a
    solve at tol is 4 tol max(1, 16 L), L = g + 1 (stub_error)."""
    return SimpleNamespace(
        grid=build_grid(DomainRect(-1.0, 1.0, -1.0, 1.0), 7, 7),
        F=1.0,
        solver=SimpleNamespace(tol=tol),  # a SolverParams refuses tol 0
    )


def read(g, x):
    """g(x) as the search reads it from StubEvaluator: L - F, L = g + 1."""
    return g(x) + 1.0 - 1.0


def stub_error(g, x, tol):
    """The load error of StubEvaluator's solve at x and tol: its field is
    one node of value 16 L, on area(Omega) 4."""
    return 4.0 * tol * max(1.0, 16.0 * (g(x) + 1.0))


class StubEvaluator:
    """Stands in for GEvaluator: g from a plain function, no film solve.
    field puts the whole load g + F on one node; on a grid whose cell
    area is a power of two, load_integral gives it back exactly, so the
    search reads g + F - F: read(g, x) on the default problem,
    stub_problem().  calls lists the betas of field in order, tols the
    tolerance of each."""

    def __init__(self, g, problem=None):
        self.g = g
        self.problem = stub_problem() if problem is None else problem
        self.calls = []
        self.tols = []

    def field(self, beta, gamma, tol=None):
        assert gamma == 0.0
        self.calls.append(beta)
        self.tols.append(tol)
        load = self.g(beta) + self.problem.F
        values = np.array([[load / self.problem.grid.cell_area]])
        return PressureField(values=values, residual_comp=0.0, residual_lin=0.0, iterations=0)


def stub_bracket(g, ends):
    lo, hi = ends
    return Bracket(GPoint(lo, g(lo)), GPoint(hi, g(hi)))


def assert_sign_bracket(g, res):
    lo, hi = res.bracket
    assert g(lo) > 0.0 > g(hi)
    assert lo <= res.beta_star <= hi


THREE_ROOTS = (lambda x: -(x - 0.2) * (x - 0.5) * (x - 0.9), (0.1, 1.5))
# g is below 1e-6 over about +-0.05 around its root and carries a 1e-9
# ripple, so its sign there is noise
FLAT_AT_ROOT = (lambda x: 1e-2 * (0.3 - x) ** 3 + 1e-9 * math.sin(1e9 * x), (0.05, 2.0))
# the stubs' load is L = g + 1, so F = 1.  LOAD_LIKE's L = 1/x^3 is an exact
# power law, on which the log-log secant step is exact; TWO_POWERS's local
# slope d log L / d log x runs from -3 to -1, as the film load's does over a
# narrower range, and its root is the real root of x^3 - x^2 - 1
LOAD_LIKE = (lambda x: 1.0 / x**3 - 1.0, (0.5, 2.0))
TWO_POWERS = (lambda x: 1.0 / x**3 + 1.0 / x - 1.0, (0.5, 3.0))
# its load 2 - x is negative at the upper end, where log(L/F) is undefined
NEGATIVE_LOAD = (lambda x: 1.0 - x, (0.5, 3.0))


class TestBrent:
    @pytest.mark.parametrize("case", [THREE_ROOTS, FLAT_AT_ROOT, TWO_POWERS])
    def test_keeps_a_sign_bracket_to_the_stop_rule(self, case):
        g, bracket = case
        ev = StubEvaluator(g)
        res = find_steady(ev, stub_bracket(g, bracket), tol_residual=1e-6)
        assert_sign_bracket(g, res)
        lo, hi = res.bracket
        assert abs(res.g_at_root) <= 1e-6
        assert hi - lo <= 1e-9 * res.beta_star
        assert res.evaluations == len(ev.calls)

    @pytest.mark.parametrize("case", [THREE_ROOTS, FLAT_AT_ROOT, TWO_POWERS])
    @pytest.mark.parametrize("tol", [0.0, 1e-30])
    def test_g_within_its_error_only_at_the_root_stops_by_the_width(self, case, tol):
        # at solver.tol 0 (the stubs' g is exact) or 1e-30 no point but an
        # exact root has |g| within its load error: the width rule stops
        g, bracket = case
        ev = StubEvaluator(g, stub_problem(tol))
        res = find_steady(ev, stub_bracket(g, bracket), tol_residual=1e-6)
        assert_sign_bracket(g, res)
        assert abs(res.g_at_root) <= 1e-6
        assert res.bracket[1] - res.bracket[0] <= 1e-9 * res.beta_star
        assert res.g_error == stub_error(g, res.beta_star, tol)

    @pytest.mark.parametrize("case", [THREE_ROOTS, FLAT_AT_ROOT, TWO_POWERS])
    @pytest.mark.parametrize("tol", [2.5e-9, 1e-3])
    def test_stops_at_the_first_point_within_its_load_error(self, case, tol):
        # the stub's load error is 4 tol max(1, 16 L): 1.6e-7 near the root
        # at tol 2.5e-9, where it decides, and 0.064 at tol 1e-3, where
        # tol_residual does
        g, bracket = case
        ev = StubEvaluator(g, stub_problem(tol))
        res = find_steady(ev, stub_bracket(g, bracket), tol_residual=1e-6)
        error = [stub_error(g, x, tol) for x in ev.calls]
        inside = [abs(read(g, x)) <= min(1e-6, e) for x, e in zip(ev.calls, error)]
        assert inside == [False] * (len(inside) - 1) + [True]
        x = ev.calls[-1]
        assert (res.beta_star, res.g_at_root, res.g_error) == (x, read(g, x), error[-1])
        assert res.beta_star in res.bracket
        assert_sign_bracket(g, res)
        exact = find_steady(StubEvaluator(g), stub_bracket(g, bracket), tol_residual=1e-6)
        assert res.evaluations < exact.evaluations

    def test_converges_to_one_of_three_roots(self):
        g, bracket = THREE_ROOTS
        res = find_steady(StubEvaluator(g), stub_bracket(g, bracket))
        assert min(abs(res.beta_star - r) for r in (0.2, 0.5, 0.9)) <= 1e-9

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_iteration_cap(self, cap, monkeypatch):
        # tol_residual 0.01 is first met on the third step, long before the
        # width rule: the cap alone decides the outcome
        monkeypatch.setattr(steady, "_MAX_BISECTIONS", cap)
        g, bracket = TWO_POWERS
        ev = StubEvaluator(g)
        if cap < 3:
            with pytest.raises(BracketFailure, match="Brent's method stalled"):
                find_steady(ev, stub_bracket(g, bracket), tol_residual=0.01)
        else:
            res = find_steady(ev, stub_bracket(g, bracket), tol_residual=0.01)
            assert_sign_bracket(g, res)
            assert abs(res.g_at_root) <= 0.01
            assert res.bracket[1] - res.bracket[0] > 1e-9 * res.beta_star
            assert res.evaluations == 3
        assert len(ev.calls) == cap

    def test_exact_zero_ends_the_search(self):
        # on a power-law load the first secant step lands on the root
        g, bracket = LOAD_LIKE
        ev = StubEvaluator(g)
        res = find_steady(ev, stub_bracket(g, bracket))
        assert (res.beta_star, res.g_at_root, res.bracket) == (1.0, 0.0, (0.5, 2.0))
        assert ev.calls == [1.0]

    def test_non_positive_load_takes_the_bisection_branch(self):
        # the first step bisects in log beta
        g, bracket = NEGATIVE_LOAD
        ev = StubEvaluator(g)
        res = find_steady(ev, stub_bracket(g, bracket), tol_residual=1e-6)
        assert ev.calls[0] == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert_sign_bracket(g, res)
        assert abs(res.g_at_root) <= 1e-6
        assert res.evaluations == len(ev.calls)

    def test_bracket_values_make_no_endpoint_solve(self):
        g, (lo, hi) = LOAD_LIKE
        ev = StubEvaluator(g)
        res = find_steady(ev, stub_bracket(g, (lo, hi)))
        assert lo not in ev.calls and hi not in ev.calls
        assert res.evaluations == len(ev.calls)

    @pytest.mark.parametrize("tol_end", [None, _SIGN_TOL])
    @pytest.mark.parametrize("end, ends", [("lo", (1.2, 3.0)), ("hi", (0.5, 3.0))])
    def test_end_within_tol_residual_is_the_root(self, end, ends, tol_end):
        # the bracket's g at the end, 0.9 g, stands for a loose solve's value:
        # an end solved only to its sign (tol_end set) is solved again at
        # solver.tol (tol None) and that g is reported, while an end solved
        # at solver.tol is returned as it is
        g, _ = TWO_POWERS
        beta = ends[end == "hi"]
        br = stub_bracket(g, ends)
        br = replace(br, **{end: GPoint(beta, 0.9 * g(beta), tol=tol_end)})
        ev = StubEvaluator(g)
        res = find_steady(ev, br, tol_residual=0.7)
        assert res.beta_star == beta
        if tol_end is None:
            assert (ev.calls, res.g_at_root, res.evaluations) == ([], 0.9 * g(beta), 0)
        else:
            assert (ev.calls, ev.tols, res.g_at_root, res.evaluations) == ([beta], [None], read(g, beta), 1)


class TestBracketSearch:
    # on [-1, 1]^2 with 7 nodes a side the cell area is 1/16, a power of two
    # (see StubEvaluator); area(Omega) is 4 and solver.tol 1e-9

    @pytest.mark.parametrize(
        "beta_init, calls, bracket",
        [
            # g(1) == 0 in the first and last cases: a sign that is not
            # certain, so 1 is solved again at solver.tol
            (4.0, [4.0, 2.0, 1.0, 1.0, 0.5], (0.5, 2.0)),  # halvings only; 2 is the last g < 0
            (0.3, [0.3, 0.6, 1.2], (0.6, 1.2)),  # the last doubling's lower end is reused
            (0.25, [0.25, 0.5, 1.0, 1.0, 2.0, 0.5], (0.5, 2.0)),  # g(1) == 0: still halves
        ],
    )
    def test_solves_each_point_once(self, domain_sym, beta_init, calls, bracket):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=7)
        g = LOAD_LIKE[0]
        ev = StubEvaluator(g, prob)
        br = find_bracket(ev, beta_init)
        assert ev.calls == calls
        # a point whose sign is clear is solved once, at the loose tolerance
        assert ev.tols == [None if b == prev else _SIGN_TOL for b, prev in zip(calls, [None] + calls)]
        assert (br.lo.beta, br.hi.beta) == bracket
        assert (br.lo.g, br.hi.g) == (g(bracket[0]), g(bracket[1]))
        assert (br.lo.tol, br.hi.tol) == (_SIGN_TOL, _SIGN_TOL)

    @pytest.mark.parametrize(
        "g, calls, reason",
        [
            (lambda x: 1.0, [1.0, 2.0, 4.0, 8.0], "no negative g up to beta = 8.0"),
            (
                lambda x: -0.5,
                [1.0, 0.5, 0.25, 0.125, 0.0625],
                "no positive g down to beta = 0.0625",
            ),
        ],
        ids=["doubling", "halving"],
    )
    def test_expansion_cap(self, domain_sym, monkeypatch, g, calls, reason):
        # three doublings, or three halvings past 0.5 beta_init, without a
        # sign change fail the search
        monkeypatch.setattr(steady, "_MAX_EXPANSIONS", 3)
        ev = StubEvaluator(g, make_problem(SliderShape.line_contact(2.0), domain_sym, n=7))
        with pytest.raises(BracketFailure, match=reason):
            find_bracket(ev, 1.0)
        assert ev.calls == calls

    def test_point_inside_the_margin_is_solved_once_more(self, domain_sym):
        # g(1.2) = -1e-3 is inside the loose solve's margin, 20 * 4 * 1e-4 * 16 L
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=7)

        def g(x):
            return 1.0 / x**3 - 1.0 / 1.2**3 - 1e-3

        ev = StubEvaluator(g, prob)
        br = find_bracket(ev, 0.3)
        assert ev.calls == [0.3, 0.6, 1.2, 1.2]
        assert ev.tols == [_SIGN_TOL, _SIGN_TOL, _SIGN_TOL, None]
        assert (br.lo.beta, br.hi.beta, br.lo.tol, br.hi.tol) == (0.6, 1.2, _SIGN_TOL, None)
        assert br.hi.g == pytest.approx(-1e-3, rel=1e-12)
        # each end carries the load error of the solve its g comes from: the
        # loose one at the lower end, the one at solver.tol at the upper
        assert br.lo.e == stub_error(g, 0.6, _SIGN_TOL)
        assert br.hi.e == stub_error(g, 1.2, 1e-9)

    @pytest.mark.parametrize("k, tols", [(0.99, [_SIGN_TOL, None]), (1.01, [_SIGN_TOL])])
    def test_margin_is_20_times_the_stop_tests_load_error(self, domain_sym, k, tols):
        # the stub's field is one node of value 16 L, so the margin is
        # 20 * 4 * 1e-4 * 16 L = 0.128 L; |g| = 1 - L = 0.128 k L
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=7)
        load = 1.0 / (1.0 + 0.128 * k)
        ev = StubEvaluator(lambda x: load - 1.0, prob)
        point = _signed_g(ev, 1.0)
        assert ev.tols == tols
        assert point.tol == (None if k < 1.0 else _SIGN_TOL)
        assert point.g == pytest.approx(load - 1.0, rel=1e-12)

    def test_no_loose_solve_at_a_loose_solver_tol(self, domain_sym):
        # solver.tol at or above the loose tolerance: one solve at solver.tol
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=7)
        prob = replace(prob, solver=replace(prob.solver, tol=1e-3))
        ev = StubEvaluator(lambda x: 1e-9, prob)
        assert _signed_g(ev, 1.0).tol is None
        assert ev.tols == [None]


@pytest.mark.parametrize(
    "call",
    [
        lambda ev: find_steady(ev, stub_bracket(*FLAT_AT_ROOT), tol_residual=math.nan),
        lambda ev: find_steady(ev, stub_bracket(*FLAT_AT_ROOT), tol_residual=-1.0),
        lambda ev: find_steady(ev, stub_bracket(*FLAT_AT_ROOT), tol_residual=math.inf),
        lambda ev: find_steady(ev, stub_bracket(FLAT_AT_ROOT[0], (2.0, 0.05))),
        lambda ev: find_bracket(ev, math.nan),
        lambda ev: find_bracket(ev, math.inf),
        lambda ev: find_bracket(ev, 0.0),
        lambda ev: g_curve(ev, [0.5, math.nan]),
        lambda ev: g_curve(ev, [math.inf]),
    ],
)
def test_bad_arguments_raise_before_any_solve(domain_sym, call):
    ev = StubEvaluator(FLAT_AT_ROOT[0], make_problem(SliderShape.line_contact(2.0), domain_sym, n=7))
    with pytest.raises(ValueError):
        call(ev)
    assert ev.calls == []


class TestGCurve:
    def test_flat_curve_is_minus_F(self, unit_domain):
        prob = make_problem(SliderShape.flat(), unit_domain, n=8)
        curve = g_curve(GEvaluator(prob), [0.1, 0.5, 1.0, 3.0])
        assert np.all(curve.g == -1.0)
        assert np.all(curve.load == 0.0)
        assert np.all(curve.active_fraction == 1.0)

    def test_g_above_minus_F(self, domain_sym):
        prob = make_problem(SliderShape.point_contact(2.0), domain_sym, n=16)
        curve = g_curve(GEvaluator(prob), np.logspace(-2, 1, 8))
        assert np.all(curve.g > -prob.F)

    def test_large_beta_within_upper_bound(self, domain_sym):
        from sliderfilm.dynamics import c1_constant

        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16)
        c1 = c1_constant(prob.shape, domain_sym)
        betas = np.array([2.0, 5.0, 10.0])
        assert np.all(betas > (c1 / prob.F) ** (1.0 / 3.0))
        curve = g_curve(GEvaluator(prob), betas)
        assert np.all(curve.g <= c1 / betas**3 - prob.F + 1e-9)
        assert np.all(curve.g < 0.0)  # past the capacity clearance the film loses

    def test_resolution_flag(self, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=16)
        curve = g_curve(GEvaluator(prob), [1e-4, 1.0])
        assert not curve.resolved[0]
        assert curve.resolved[1]

    @pytest.mark.parametrize(
        "shape", [SliderShape.line_contact(2.0), SliderShape.point_contact(2.0)], ids=["line", "point"]
    )
    def test_warm_chain_costs_no_more_than_cold_solves(self, domain_sym, shape):
        # omega unset: the chain estimates on the newest solution's free set;
        # on the extrapolated start's it took 2,017 sweeps against 916 (line)
        # and 1,573 against 826 (point)
        grid = build_grid(domain_sym, 16, 16)
        prob = Problem(
            shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0, solver=SolverParams(tol=1e-8)
        )
        betas = default_gcurve_betas()
        warm = int(g_curve(GEvaluator(prob), betas).psor_iters.sum())
        cold = sum(solve_vi_psor(prob.assemble(b, 0.0), tol=1e-8).iterations for b in betas)
        assert warm <= 1.1 * cold

    def test_csv_format(self, tmp_path, domain_sym):
        prob = make_problem(SliderShape.line_contact(2.0), domain_sym, n=8)
        curve = g_curve(GEvaluator(prob), [0.5, 1.0])
        path = tmp_path / "gcurve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "beta,g,load,active_fraction,psor_iters,resolved"
        assert len(lines) == 3
        assert lines[1].split(",")[-1] in ("true", "false")
