import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliderfilm.dynamics import GEvaluator, Problem, SolverParams
from sliderfilm.errors import NoConvergence, NonPositiveClearance
from sliderfilm.geometry import (
    DomainRect,
    Grid,
    SliderShape,
    TabulatedData,
    build_grid,
    compute_V1,
)
from sliderfilm.oracle import flat_C_omega, fourier_vs_grid, lcp_pivot
from sliderfilm.vi_solver import (
    _red_black_lattices,
    assemble_system,
    film_geometry,
    flat_unit_load,
    free_set,
    PressureField,
    lcp_residuals,
    load_integral,
    solve_linear,
    solve_vi_psor,
    suggested_omega,
    young_omega,
)


@pytest.fixture
def grid9(domain_sym):
    return build_grid(domain_sym, 3, 3)


class TestAssembly:
    def test_flat_is_scaled_laplacian(self, domain_sym):
        grid = build_grid(domain_sym, 3, 3)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        # dx = dy: the stencil is beta^3 * (4, -1, -1, -1, -1)
        assert np.allclose(system.diag, 4.0)
        assert np.allclose(system.cw, 1.0)
        assert np.allclose(system.b, grid.cell_area)

    def test_wedge_load_at_known_node(self, domain_sym):
        grid = build_grid(domain_sym, 3, 3)
        system = assemble_system(grid, SliderShape.line_contact(2.0), 0.1, 0.0)
        # node at x1 = -0.5 has -dh0/dx1 = 1.0
        assert system.b[0, 0] == pytest.approx(1.0 * grid.cell_area)

    def test_b_nonpositive_at_cutoff_speed(self, domain_sym):
        grid = build_grid(domain_sym, 8, 8)
        for shape in (SliderShape.line_contact(2.0), SliderShape.point_contact(2.0)):
            v1 = compute_V1(shape, grid)
            system = assemble_system(grid, shape, 1.0, v1)
            assert np.all(system.b <= 0.0)

    def test_symmetric_m_matrix(self, domain_sym):
        grid = build_grid(domain_sym, 4, 5)
        system = assemble_system(grid, SliderShape.point_contact(2.0), 0.3, -0.7)
        A, _ = system.dense()
        assert np.allclose(A, A.T)
        off = A - np.diag(np.diag(A))
        assert np.all(off <= 0.0)
        assert np.all(np.diag(A) > 0.0)
        # weak diagonal dominance, strict near the boundary
        assert np.all(np.abs(off).sum(axis=1) <= np.diag(A) + 1e-14)

    def test_nonpositive_clearance_rejected(self, grid9):
        with pytest.raises(NonPositiveClearance):
            assemble_system(grid9, SliderShape.flat(), 0.0, -1.0)

    @pytest.mark.parametrize(
        "beta, gamma, error",
        [
            (math.nan, 0.0, NonPositiveClearance),
            (0.3, math.nan, ValueError),
            (math.inf, -1.0, NonPositiveClearance),
            (1e110, -1.0, NonPositiveClearance),  # (h0 + beta)^3 overflows
        ],
    )
    def test_non_finite_state_rejected_at_assembly(self, domain_sym, beta, gamma, error):
        # unchecked, such a system makes the solve run all 3,200 sweeps of
        # an 8x8 grid and raise NoConvergence
        grid = build_grid(domain_sym, 8, 8)
        with pytest.raises(error):
            assemble_system(grid, SliderShape.line_contact(2.0), beta, gamma)

    def test_largest_clearance_still_solves(self, domain_sym):
        grid = build_grid(domain_sym, 8, 8)
        shape = SliderShape.line_contact(2.0)
        geometry = film_geometry(grid, shape)
        beta_max = geometry.beta_max
        assert 1e102 < beta_max < 1e103
        sol = solve_vi_psor(assemble_system(grid, shape, beta_max, -0.3, geometry=geometry))
        assert np.all(np.isfinite(sol.values)) and sol.residual_comp <= 1e-7
        with pytest.raises(NonPositiveClearance):
            assemble_system(grid, shape, math.nextafter(beta_max, math.inf), -0.3)

    def test_coefficient_depends_on_beta_cubed(self, domain_sym):
        grid = build_grid(domain_sym, 5, 5)
        s1 = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        s2 = assemble_system(grid, SliderShape.flat(), 2.0, -1.0)
        assert np.allclose(s2.diag, 8.0 * s1.diag)
        assert np.allclose(s2.b, s1.b)


class TestPSOR:
    def test_nonpositive_rhs_gives_zero(self, domain_sym):
        grid = build_grid(domain_sym, 6, 6)
        shape = SliderShape.line_contact(2.0)
        v1 = compute_V1(shape, grid)
        system = assemble_system(grid, shape, 1.0, v1 + 0.5)
        sol = solve_vi_psor(system)
        assert np.all(sol.values == 0.0)
        assert sol.residual_comp == 0.0

    def test_nonnegative_rhs_matches_linear_solve(self, domain_sym):
        grid = build_grid(domain_sym, 8, 8)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        tol = 1e-11
        p = solve_vi_psor(system, tol=tol, omega=1.7)
        q = solve_linear(system, tol=1e-13)
        assert np.max(np.abs(p.values - q.values)) <= 10 * tol

    def test_matches_enumeration_on_3x3(self, domain_sym):
        grid = build_grid(domain_sym, 3, 3)
        system = assemble_system(grid, SliderShape.line_contact(2.0), 0.3, 0.5)
        p = solve_vi_psor(system, tol=1e-12)
        e = lcp_pivot(system)
        assert np.max(np.abs(p.values - e.values)) <= 1e-10
        assert lcp_residuals(system, p.values)[0] <= 1e-9
        assert 0 < np.count_nonzero(p.values == 0.0) < system.n  # genuinely mixed case

    def test_warm_start_reaches_same_solution(self, domain_sym):
        grid = build_grid(domain_sym, 8, 8)
        shape = SliderShape.line_contact(2.0)
        sys_a = assemble_system(grid, shape, 0.2, 0.0)
        sys_b = assemble_system(grid, shape, 0.21, 0.0)
        cold = solve_vi_psor(sys_b, tol=1e-11)
        warm = solve_vi_psor(sys_b, tol=1e-11, warm_start=solve_vi_psor(sys_a, tol=1e-11).values)
        assert np.max(np.abs(cold.values - warm.values)) <= 1e-9

    def test_deterministic(self, domain_sym):
        grid = build_grid(domain_sym, 7, 6)
        system = assemble_system(grid, SliderShape.point_contact(2.0), 0.15, -0.2)
        a = solve_vi_psor(system, tol=1e-10)
        b = solve_vi_psor(system, tol=1e-10)
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations

    def test_no_convergence_carries_iterate(self, domain_sym):
        grid = build_grid(domain_sym, 8, 8)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(NoConvergence) as exc:
            solve_vi_psor(system, tol=1e-12, max_iter=3)
        assert exc.value.field is not None
        assert exc.value.field.values.shape == (8, 8)

    def test_default_omega_is_young_omega_of_the_start_bitwise(self, domain_sym):
        # an unset omega resolves per solve, from its own system and start:
        # b > 0 when cold, the start's p > 0 when warm
        grid = build_grid(domain_sym, 16, 12)
        shape = SliderShape.line_contact(2.0)
        system = assemble_system(grid, shape, 0.3, -0.3)
        start = solve_vi_psor(assemble_system(grid, shape, 0.31, -0.3)).values
        assert np.array_equal(free_set(system, None), system.b > 0.0)
        assert np.array_equal(free_set(system, -start), system.b > 0.0)
        for warm, free in ((None, system.b > 0.0), (start, start > 0.0)):
            default = solve_vi_psor(system, warm_start=warm)
            explicit = solve_vi_psor(system, omega=young_omega(system, free), warm_start=warm)
            assert default.iterations == explicit.iterations > 0
            assert np.array_equal(default.values, explicit.values)
            assert (default.residual_comp, default.residual_lin) == (
                explicit.residual_comp, explicit.residual_lin
            )

    def test_invalid_omega(self, domain_sym):
        grid = build_grid(domain_sym, 3, 3)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(ValueError):
            solve_vi_psor(system, omega=2.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_invalid_tol(self, domain_sym, tol):
        system = assemble_system(build_grid(domain_sym, 3, 3), SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(ValueError, match="tol"):
            solve_vi_psor(system, tol=tol)

    @settings(deadline=None, max_examples=15)
    @given(
        g1=st.floats(-1.5, 1.0),
        dg=st.floats(0.05, 1.0),
        beta=st.floats(0.1, 1.5),
    )
    def test_monotone_in_gamma(self, g1, dg, beta):
        # larger squeeze velocity can only lower the pressure, nodewise
        grid = build_grid(DomainRect(-1.0, 1.0, -1.0, 1.0), 5, 5)
        shape = SliderShape.line_contact(2.0)
        tol = 1e-11
        p_lo = solve_vi_psor(assemble_system(grid, shape, beta, g1), tol=tol)
        p_hi = solve_vi_psor(assemble_system(grid, shape, beta, g1 + dg), tol=tol)
        assert np.all(p_lo.values >= p_hi.values - 10 * tol)

    def test_flat_scaling_law(self, domain_sym):
        # p(beta, gamma) = (beta'/beta)^3 p(beta', gamma) for the flat profile
        grid = build_grid(domain_sym, 8, 8)
        tol = 1e-12
        p1 = solve_vi_psor(assemble_system(grid, SliderShape.flat(), 1.0, -1.0), tol=tol)
        p2 = solve_vi_psor(assemble_system(grid, SliderShape.flat(), 2.0, -1.0), tol=tol)
        assert np.max(np.abs(p1.values - 8.0 * p2.values)) <= 1e-9

    def test_red_black_sweep_equals_scalar_loop_bitwise(self, domain_sym):
        # the production sweep updates strided sub-lattices; that must
        # reproduce the plain node-by-node red-then-black sweep bit for bit
        # (same neighbours old/new, same expression order).  build_grid
        # refuses a 1-high grid, so the grids are built by hand; that one's
        # odd-row sub-lattices are empty.
        omega, sweeps = 1.4, 3
        for nx, ny in ((6, 5), (5, 7), (4, 1), (7, 4)):
            dx = domain_sym.length1 / (nx + 1)
            dy = domain_sym.length2 / (ny + 1)
            grid = Grid(
                domain=domain_sym, nx=nx, ny=ny, dx=dx, dy=dy,
                xs=domain_sym.x1_min + dx * np.arange(nx + 2),
                ys=domain_sym.x2_min + dy * np.arange(ny + 2),
            )
            system = assemble_system(grid, SliderShape.point_contact(2.0), 0.2, 0.3)

            with pytest.raises(NoConvergence) as exc:
                solve_vi_psor(system, omega=omega, tol=1e-300, max_iter=sweeps)
            fast = exc.value.field.values

            red_black = [
                (j, i) for colour in (0, 1) for j in range(ny) for i in range(nx)
                if (i + j) % 2 == colour
            ]
            pad = np.zeros((ny + 2, nx + 2))
            for _ in range(sweeps):
                _scalar_sweep(system, pad, omega, red_black)
            assert np.array_equal(fast, pad[1:-1, 1:-1]), (nx, ny)

    def test_converged_red_black_matches_lexicographic_loop(self, domain_sym):
        # the two sweep orders differ update by update but share the
        # solution; at tol 1e-12 both stop well within 1e-9 of it
        grid = build_grid(domain_sym, 8, 8)
        system = assemble_system(grid, SliderShape.line_contact(2.0), 0.3, 0.5)
        omega, tol = 1.5, 1e-12
        fast = solve_vi_psor(system, omega=omega, tol=tol)
        assert 0 < np.count_nonzero(fast.values == 0.0) < system.n

        lexicographic = [(j, i) for j in range(8) for i in range(8)]
        pad = np.zeros((10, 10))
        while _scalar_sweep(system, pad, omega, lexicographic) > tol * max(1.0, pad.max()):
            pass
        assert np.max(np.abs(fast.values - pad[1:-1, 1:-1])) <= 1e-9

    @pytest.mark.parametrize("nx, ny", [(8, 8), (9, 6), (1, 5), (5, 1)])
    def test_converged_solves_equal_four_sublattice_sweep(self, domain_sym, nx, ny):
        # the two colour slices of the flat padded iterate must equal the
        # same sweep over four 2-D sub-lattices bit for bit: values, sweep
        # counts and residuals, cold and warm started, for both row-width
        # cases (even and odd nx) and for grids one node wide or high
        grid = _grid_by_hand(domain_sym, nx, ny)
        omega, tol = suggested_omega(grid), 1e-10
        line, point = SliderShape.line_contact(2.0), SliderShape.point_contact(2.0)
        for shape, gamma in ((line, -0.3), (point, -0.1)):
            prev = None
            for beta in (0.3, 0.32):
                system = assemble_system(grid, shape, beta, gamma)
                fast = solve_vi_psor(system, omega=omega, tol=tol, warm_start=prev)
                ref = _four_sublattice_solve(system, omega, tol, warm_start=prev)
                assert fast.iterations > 0
                assert np.array_equal(fast.values, ref.values)
                assert (fast.iterations, fast.residual_comp, fast.residual_lin) == (
                    ref.iterations, ref.residual_comp, ref.residual_lin
                )
                prev = fast.values

    @pytest.mark.parametrize("nx, ny", [(8, 8), (16, 16), (9, 6)])
    def test_large_pressures_stop_on_the_exact_norm(self, domain_sym, nx, ny):
        # flat profile at beta 0.2: ||p||_inf is about 36, so the stop
        # test's tol * max(1, ||p||_inf) depends on it.  The solver reads
        # ||p||_inf only when a running upper bound cannot reject the
        # sweep, and the exact value must still decide every stop: cold
        # and warm solves stop at the same sweep as the reference, which
        # reads ||p||_inf on every sweep
        grid = _grid_by_hand(domain_sym, nx, ny)
        omega = suggested_omega(grid)
        flat = SliderShape.flat()
        system = assemble_system(grid, flat, 0.2, -1.0)
        for tol in (1e-8, 1e-10, 1e-12):
            starts = [None] + [
                solve_vi_psor(assemble_system(grid, flat, beta, gamma), omega=omega, tol=tol).values
                for beta, gamma in ((0.19, -1.0), (0.2, -1.1))
            ]
            for start in starts:
                fast = solve_vi_psor(system, omega=omega, tol=tol, warm_start=start)
                ref = _four_sublattice_solve(system, omega, tol, warm_start=start)
                assert fast.values.max() > 30.0
                assert np.array_equal(fast.values, ref.values)
                assert (fast.iterations, fast.residual_comp, fast.residual_lin) == (
                    ref.iterations, ref.residual_comp, ref.residual_lin
                )

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros(8), r"shape \(8,\), the grid's interior is \(8, 8\)"),
            (np.zeros((1, 8)), r"shape \(1, 8\), the grid's interior is \(8, 8\)"),
            (np.array(0.5), r"shape \(\), the grid's interior is \(8, 8\)"),
            (np.where(np.eye(8) > 0, np.nan, 0.1), "finite"),
            (np.where(np.eye(8) > 0, np.inf, 0.1), "finite"),
        ],
        ids=["row_vector", "one_row", "scalar", "nan", "inf"],
    )
    def test_bad_warm_start_rejected_before_any_sweep(self, domain_sym, values, message):
        # broadcast before; a NaN or inf start ran all 3,200 sweeps and
        # raised NoConvergence
        system = assemble_system(build_grid(domain_sym, 8, 8), SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(ValueError, match=message):
            solve_vi_psor(system, warm_start=values)


class TestLayoutAndFilmPath:
    @pytest.mark.parametrize("nx, ny", [(8, 8), (9, 6), (1, 5), (5, 1), (4, 1), (1, 1)])
    def test_gathered_layout_and_problem_solve(self, domain_sym, nx, ny):
        # the split iterate's halves are the even and odd entries of the
        # np.pad layout, and per colour the range, the strided neighbour
        # view, b' and the couplings equal its stride-2 slices and their
        # W/E/S/N shifts, boundary and ghost entries exactly 0;
        # a fresh GEvaluator's field, which assembles from the problem's
        # stored geometry, equals the plain assembly and solve bitwise
        grid = _grid_by_hand(domain_sym, nx, ny)
        omega = suggested_omega(grid)
        w = nx + 2 if nx % 2 else nx + 3
        end = (ny + 1) * w
        pad = ((1, 1), (1, w - nx - 1))
        for shape in (
            SliderShape.line_contact(2.0),
            SliderShape.point_contact(2.0),
            SliderShape.flat(),
            _tabulated_parabola(grid),
        ):
            system = assemble_system(grid, shape, 0.3, -0.3)
            p, interior, lattices = _red_black_lattices(system, omega)
            p_int = 1.0 + np.arange(nx * ny).reshape(ny, nx)
            p[interior] = p_int.ravel()
            iterate = np.pad(p_int, pad).ravel()
            half = (iterate.size + 1) // 2
            assert np.array_equal(p[:half], iterate[0::2])
            assert np.array_equal(p[half:], iterate[1::2])
            scale = omega / system.diag
            coefs = [
                np.pad(a * scale, pad).ravel()
                for a in (system.b, system.cs, system.cw, system.ce, system.cn)
            ]
            for start, lattice in zip((w + 1, w), lattices):
                pd, neighbours, couplings, *_, bd = lattice
                colour = slice(start, end, 2)
                outside = iterate[colour] == 0.0
                assert np.array_equal(pd, iterate[colour])
                # [[south, west], [east, north]]
                shifted = [iterate[start + k : end + k : 2] for k in (-w, -1, 1, w)]
                assert np.array_equal(neighbours.reshape(4, -1), shifted)
                for got, ref in zip((bd, *couplings.reshape(4, -1)), coefs):
                    assert np.array_equal(got, ref[colour])
                    assert np.all(got[outside] == 0.0)

            problem = Problem(shape=shape, grid=grid, F=1.0, eta0=0.5, eta1=0.0,
                              solver=SolverParams(tol=1e-10))
            film = GEvaluator(problem).field(0.3, -0.3)
            plain = solve_vi_psor(system, omega=problem.solver.omega, tol=1e-10)
            assert film.iterations > 0
            assert np.array_equal(film.values, plain.values)
            assert (film.iterations, film.residual_comp, film.residual_lin) == (
                plain.iterations, plain.residual_comp, plain.residual_lin
            )

    @pytest.mark.parametrize("nx", range(1, 10))
    def test_neighbour_views_stay_inside_the_half_they_read(self, domain_sym, nx):
        # each colour's neighbour view is strided by hand over the other
        # colour's half: red reads the odd half, black the even one.  Its
        # first element must not come before that half, its last not after
        for ny in range(1, 10):
            grid = _grid_by_hand(domain_sym, nx, ny)
            system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
            p, _, lattices = _red_black_lattices(system, 1.5)
            half = (p.size + 1) // 2
            for lattice, (lo, hi) in zip(lattices, ((half, p.size), (0, half))):
                view = lattice[1]
                assert view.size > 0
                first = _offset(view, p)
                last = first + sum((d - 1) * s for d, s in zip(view.shape, view.strides))
                assert lo * p.itemsize <= first, (nx, ny)
                assert last < hi * p.itemsize, (nx, ny)


def _tabulated_parabola(grid):
    """Tabulated (x1 - c)^2 with c the node column nearest x1 = 0, where
    tabulated data must vanish."""
    c = grid.xs[np.argmin(np.abs(grid.xs))]
    X1 = np.broadcast_to(grid.xs - c, (grid.ys.size, grid.xs.size))
    return SliderShape.tabulated(
        TabulatedData(xs=grid.xs, ys=grid.ys, heights=X1**2, grad_x1=2.0 * X1)
    )


def _offset(view, base):
    """Byte offset of view's first element from base's first element."""
    return view.__array_interface__["data"][0] - base.__array_interface__["data"][0]


def _grid_by_hand(domain, nx, ny):
    """Grid with nx-by-ny interior nodes; unlike build_grid, allows 1 and 2."""
    dx = domain.length1 / (nx + 1)
    dy = domain.length2 / (ny + 1)
    return Grid(
        domain=domain, nx=nx, ny=ny, dx=dx, dy=dy,
        xs=domain.x1_min + dx * np.arange(nx + 2),
        ys=domain.x2_min + dy * np.arange(ny + 2),
    )


def _four_sublattice_solve(system, omega, tol, warm_start=None):
    """Converged red-black PSOR over four 2-D strided sub-lattices.

    Red is sub-lattice (j even, i even) then (j odd, i odd), black
    (j even, i odd) then (j odd, i even), each updated as one block of
    the padded 2-D iterate with the production's folded update and
    expression order, stop test and warm start.
    """
    ny, nx = system.b.shape
    p_pad = np.zeros((ny + 2, nx + 2))
    if warm_start is not None:
        p_pad[1:-1, 1:-1] = np.maximum(warm_start, 0.0)
    b, cw, ce, cs, cn = _folded(system, omega)
    lattices = []
    for jo, io in ((0, 0), (1, 1), (0, 1), (1, 0)):
        sub = (slice(jo, None, 2), slice(io, None, 2))
        if system.b[sub].size == 0:
            continue
        rows, cols = slice(1 + jo, ny + 1, 2), slice(1 + io, nx + 1, 2)
        lattices.append((
            p_pad[rows, cols],
            p_pad[rows, io:nx:2], p_pad[rows, 2 + io:nx + 2:2],
            p_pad[jo:ny:2, cols], p_pad[2 + jo:ny + 2:2, cols],
            b[sub], cw[sub], ce[sub], cs[sub], cn[sub],
        ))
    for sweeps in range(1, 50 * nx * ny + 1):
        max_delta = 0.0
        for pd, wv, ev, sv, nv, bd, cw_d, ce_d, cs_d, cn_d in lattices:
            t1 = cw_d * wv
            t1 += bd
            t1 += ce_d * ev
            t1 += cs_d * sv
            t1 += cn_d * nv
            t1 += pd * (1.0 - omega)
            t1 = np.maximum(t1, 0.0)
            max_delta = max(max_delta, float(np.abs(t1 - pd).max()))
            pd[:] = t1
        if max_delta <= tol * max(1.0, float(p_pad.max())):
            p = p_pad[1:-1, 1:-1].copy()
            comp, lin = lcp_residuals(system, p)
            if comp <= 10.0 * tol:
                return PressureField(p, comp, lin, sweeps)
    raise AssertionError("reference sweep did not converge")


def _folded(system, omega):
    """b and the couplings scaled by s = omega / diag, as the solver folds them."""
    scale = omega / system.diag
    return tuple(a * scale for a in (system.b, system.cw, system.ce, system.cs, system.cn))


def _scalar_sweep(system, pad, omega, nodes):
    """One projected SOR sweep over the interior nodes in the given order.

    Updates the padded iterate in place, node by node, with the
    production expression order of the folded update; returns the
    largest update.
    """
    b, cw, ce, cs, cn = _folded(system, omega)
    max_delta = 0.0
    for j, i in nodes:
        old = pad[j + 1, i + 1]
        acc = cw[j, i] * pad[j + 1, i]
        acc = acc + b[j, i]
        acc = acc + ce[j, i] * pad[j + 1, i + 2]
        acc = acc + cs[j, i] * pad[j, i + 1]
        acc = acc + cn[j, i] * pad[j + 2, i + 1]
        acc = acc + old * (1.0 - omega)
        pad[j + 1, i + 1] = max(acc, 0.0)
        max_delta = max(max_delta, abs(pad[j + 1, i + 1] - old))
    return max_delta


class TestLinearSolve:
    def test_unit_load_integral_matches_series(self, unit_domain):
        assert fourier_vs_grid(unit_domain, 64)["rel_diff"] <= 2e-3

    def test_odd_load_integrates_to_zero(self, domain_sym):
        # even coefficient, odd load: the solution is odd, so its integral vanishes
        grid = build_grid(domain_sym, 9, 9)
        system = assemble_system(grid, SliderShape.line_contact(2.0), 0.5, 0.0)
        sol = solve_linear(system, tol=1e-12)
        assert abs(load_integral(sol, grid)) <= 1e-10

    def test_zero_rhs_gives_zero(self, domain_sym):
        grid = build_grid(domain_sym, 5, 5)
        system = assemble_system(grid, SliderShape.flat(), 1.0, 0.0)
        sol = solve_linear(system, rhs_override=np.zeros((5, 5)))
        assert np.all(sol.values == 0.0)
        assert sol.iterations == 0

    def test_masked_solve_matches_dense_restriction(self, domain_sym):
        grid = build_grid(domain_sym, 6, 6)
        system = assemble_system(grid, SliderShape.point_contact(2.0), 0.4, -0.3)
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:4, 2:5] = True
        sol = solve_linear(system, tol=1e-12, mask=mask)
        A, b = system.dense()
        sub = np.flatnonzero(mask.ravel())
        ref = np.linalg.solve(A[np.ix_(sub, sub)], b[sub])
        assert np.allclose(sol.values.ravel()[sub], ref, atol=1e-10)
        assert np.all(sol.values[~mask] == 0.0)


    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_invalid_tol(self, domain_sym, tol):
        system = assemble_system(build_grid(domain_sym, 3, 3), SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(ValueError, match="tol"):
            solve_linear(system, tol=tol)


class TestReportsAndDumps:
    def test_report_on_exact_solution(self, domain_sym):
        grid = build_grid(domain_sym, 4, 4)
        system = assemble_system(grid, SliderShape.flat(), 1.0, 0.5)
        sol = solve_vi_psor(system)
        assert lcp_residuals(system, sol.values)[0] == 0.0
        assert np.count_nonzero(sol.values == 0.0) == 16

    def test_linear_solution_violates_lcp(self, domain_sym):
        # negative entries from an unconstrained solve show up as residual
        grid = build_grid(domain_sym, 7, 7)
        system = assemble_system(grid, SliderShape.line_contact(2.0), 0.15, 0.4)
        lin = solve_linear(system, tol=1e-12)
        assert np.min(lin.values) < 0.0
        assert lcp_residuals(system, lin.values)[0] > 1e-6
        assert np.isnan(lin.residual_comp)  # no complementarity residual of its own

    def test_load_integral_constant_field(self, domain_sym):
        from sliderfilm.vi_solver import PressureField

        grid = build_grid(domain_sym, 63, 63)
        c = 0.37
        field = PressureField(
            values=np.full((63, 63), c), residual_comp=0.0, residual_lin=0.0, iterations=0
        )
        # Riemann sum of a constant over [-1,1]^2 up to the boundary layer
        assert load_integral(field, grid) == pytest.approx(4.0 * c, rel=2.0 / 64)

    def test_suggested_omega_range(self, domain_sym):
        for n in (3, 16, 128):
            grid = build_grid(domain_sym, n, n)
            om = suggested_omega(grid)
            assert 1.0 < om < 2.0


class TestYoungOmega:
    def test_fully_free_square_gives_the_laplacian_optimum(self, domain_sym):
        # the flat operator is beta^3 times the Laplacian, whose Jacobi radius
        # on the n x n square is cos(pi / (n + 1)): Young's omega is then
        # suggested_omega exactly
        grid = build_grid(domain_sym, 32, 32)
        system = assemble_system(grid, SliderShape.flat(), 0.7, -1.0)
        free = free_set(system, None)
        assert free.all()
        assert young_omega(system, free) == pytest.approx(suggested_omega(grid), abs=1e-4)

    def test_fully_free_64_square_relaxes_as_the_laplacian_optimum(self, domain_sym):
        # the Lanczos run grows with the free set, so a larger fully free
        # square still reaches Young's optimum: no more sweeps than at
        # suggested_omega, where a fixed 24-step run took more
        grid = build_grid(domain_sym, 64, 64)
        system = assemble_system(grid, SliderShape.flat(), 1.0, -1.0)
        rule = solve_vi_psor(system)
        fixed = solve_vi_psor(system, omega=suggested_omega(grid))
        assert rule.iterations <= fixed.iterations

    @pytest.mark.parametrize("contact", ["line", "point"])
    def test_matches_the_dense_jacobi_radius_on_a_cavitated_free_set(self, contact):
        # a free set that is neither the whole grid nor a rectangle, on a grid
        # with nx != ny: the dense Jacobi matrix of A on it is the reference
        shape = {"line": SliderShape.line_contact(2.0), "point": SliderShape.point_contact(2.0)}
        grid = build_grid(DomainRect(-1.0, 1.0, -0.5, 0.5), 14, 9)
        system = assemble_system(grid, shape[contact], 0.2, -0.4)
        free = solve_vi_psor(system, omega=1.5).values > 0.0
        assert 0 < free.sum() < free.size
        A = system.dense()[0]
        idx = np.flatnonzero(free.ravel())
        A_ff = A[np.ix_(idx, idx)]
        scale = 1.0 / np.sqrt(np.diag(A_ff))
        jacobi = (np.diag(np.diag(A_ff)) - A_ff) * scale[:, None] * scale[None, :]
        mu = np.max(np.abs(np.linalg.eigvalsh(jacobi)))
        assert young_omega(system, free) == pytest.approx(2.0 / (1.0 + np.sqrt(1.0 - mu**2)),
                                                          abs=1e-5)

    def test_empty_free_set_is_rejected(self, domain_sym):
        system = assemble_system(build_grid(domain_sym, 5, 5), SliderShape.flat(), 1.0, -1.0)
        with pytest.raises(ValueError, match="no node"):
            young_omega(system, np.zeros((5, 5), dtype=bool))

    def test_single_free_node_is_not_relaxed(self, domain_sym):
        # a free set without a free neighbour pair has Jacobi radius 0
        system = assemble_system(build_grid(domain_sym, 5, 5), SliderShape.flat(), 1.0, -1.0)
        free = np.zeros((5, 5), dtype=bool)
        free[2, 2] = True
        assert young_omega(system, free) == 1.0

    def test_fewer_cold_sweeps_than_the_laplacian_optimum(self, domain_sym):
        # the cavitated line contact relaxes best below suggested_omega
        # (best fixed omega on a 0.02 grid: 56 sweeps against 88)
        grid = build_grid(domain_sym, 32, 32)
        system = assemble_system(grid, SliderShape.line_contact(2.0), 0.3, -0.3)
        rule = solve_vi_psor(system)
        fixed = solve_vi_psor(system, omega=suggested_omega(grid))
        assert rule.iterations < fixed.iterations
        assert np.max(np.abs(rule.values - fixed.values)) <= 1e-6


class TestFlatUnitLoad:
    """The closed-form unit load against the solvers and the series constant."""

    GRIDS = [
        (DomainRect(-1.0, 1.0, -1.0, 1.0), 32, 32),
        (DomainRect(-3.0, 2.0, -0.5, 1.0), 17, 40),  # dx != dy, nx odd, ny even
    ]

    @staticmethod
    def _unit_system(domain, nx, ny):
        grid = build_grid(domain, nx, ny)
        return grid, assemble_system(grid, SliderShape.flat(), 1.0, -1.0)

    @pytest.mark.parametrize("domain, nx, ny", GRIDS)
    def test_matches_conjugate_gradients(self, domain, nx, ny):
        grid, system = self._unit_system(domain, nx, ny)
        cg = load_integral(solve_linear(system, tol=1e-13), grid)
        assert abs(flat_unit_load(grid) / cg - 1.0) <= 1e-12

    @pytest.mark.parametrize("domain, nx, ny", GRIDS)
    def test_matches_psor(self, domain, nx, ny):
        # b > 0 everywhere, so the complementarity solution is the linear one
        grid, system = self._unit_system(domain, nx, ny)
        psor = load_integral(solve_vi_psor(system, tol=1e-13), grid)
        assert abs(flat_unit_load(grid) / psor - 1.0) <= 1e-11

    def test_second_order_against_the_series(self, domain_sym):
        # the grid's error falls like h^2: halving h divides it by about 4
        series = flat_C_omega(domain_sym, 199).value
        errs = [abs(flat_unit_load(build_grid(domain_sym, n, n)) / series - 1.0) for n in (32, 64)]
        assert errs[0] >= 3.5 * errs[1]


class TestFlatGridConvergence:
    def test_second_order_load_convergence(self, unit_domain):
        # integral of the pressure converges at second order in dx
        series = flat_C_omega(unit_domain, 199).value
        errs = []
        for n in (16, 32):
            grid = build_grid(unit_domain, n, n)
            system = assemble_system(grid, SliderShape.flat(), 1.0, -2.0)
            sol = solve_vi_psor(system, tol=1e-11, omega=suggested_omega(grid))
            errs.append(abs(load_integral(sol, grid) - 2.0 * series))
        assert errs[0] / errs[1] >= 3.0
