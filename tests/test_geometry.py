import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliderfilm.errors import (
    BoxOutsideDomain,
    InvalidDomain,
    TooCoarse,
    UnsupportedShape,
)
from sliderfilm.geometry import (
    _grad_x1_analytic,
    _height_analytic,
    DomainRect,
    Sector,
    SliderShape,
    build_grid,
    compute_V1,
    contact_box,
    lattice_grad_x1,
    lattice_heights,
    load_tabulated_csv,
    region_node_mask,
    sup_height,
)

from .conftest import lattice_csv_rows, tabulated_from


class TestDomainAndGrid:
    def test_basic_grid_spacing(self, domain_sym):
        grid = build_grid(domain_sym, 3, 3)
        assert grid.dx == 0.5 and grid.dy == 0.5
        assert grid.n_interior == 9

    def test_anisotropic_grid(self):
        grid = build_grid(DomainRect(-1, 1, -0.5, 0.5), 7, 3)
        assert grid.dx == 0.25 and grid.dy == 0.25

    def test_origin_must_be_interior(self):
        with pytest.raises(InvalidDomain):
            DomainRect(0.1, 1.0, -1.0, 1.0)
        with pytest.raises(InvalidDomain):
            DomainRect(-1.0, 1.0, -1.0, 0.0)

    def test_too_coarse(self, domain_sym):
        with pytest.raises(TooCoarse):
            build_grid(domain_sym, 2, 8)

    def test_node_coordinates_cover_domain(self, domain_sym):
        grid = build_grid(domain_sym, 5, 7)
        assert grid.xs[0] == domain_sym.x1_min
        assert grid.xs[-1] == pytest.approx(domain_sym.x1_max)
        assert grid.ys.size == 9


class TestHeights:
    def test_line_contact_height(self):
        shape = SliderShape.line_contact(2.0)
        assert _height_analytic(shape, -0.5, 0.3) == pytest.approx(0.25)

    def test_point_contact_height(self):
        shape = SliderShape.point_contact(2.0)
        assert _height_analytic(shape, 0.3, 0.4) == pytest.approx(0.25)

    def test_flat_height(self):
        assert _height_analytic(SliderShape.flat(), 0.7, -0.2) == 0.0

    @given(
        x1=st.floats(-1.0, 1.0),
        x2=st.floats(-1.0, 1.0),
        alpha=st.floats(1.0, 4.0),
    )
    def test_heights_nonnegative(self, x1, x2, alpha):
        for shape in (SliderShape.line_contact(alpha), SliderShape.point_contact(alpha)):
            assert _height_analytic(shape, x1, x2) >= 0.0

    def test_alpha_below_one_rejected(self):
        with pytest.raises(InvalidDomain):
            SliderShape.line_contact(0.5)


class TestGradients:
    def test_line_contact_gradient(self):
        shape = SliderShape.line_contact(2.0)
        assert _grad_x1_analytic(shape, -0.5, 0.0) == pytest.approx(-1.0)
        assert _grad_x1_analytic(shape, 0.0, 0.3) == 0.0

    def test_point_contact_gradient(self):
        shape = SliderShape.point_contact(2.0)
        assert _grad_x1_analytic(shape, 0.3, 0.4) == pytest.approx(0.6)
        assert _grad_x1_analytic(shape, 0.0, 0.0) == 0.0

    def test_flat_gradient(self):
        assert _grad_x1_analytic(SliderShape.flat(), 0.1, 0.9) == 0.0

    def test_kink_flag_alpha_one(self):
        assert SliderShape.line_contact(1.0).gradient_kink
        assert not SliderShape.line_contact(1.5).gradient_kink
        # convention: slope reported as 0 on the contact set
        assert _grad_x1_analytic(SliderShape.line_contact(1.0), 0.0, 0.2) == 0.0
        assert _grad_x1_analytic(SliderShape.point_contact(1.0), 0.0, 0.0) == 0.0

    def test_line_alpha_one_slope_is_the_sign(self, domain_sym):
        # the general line formula at alpha 1, bit for bit, the zero's sign included
        grid = build_grid(domain_sym, 9, 9)  # xs holds +0.0
        X1, X2 = np.meshgrid(np.append(grid.xs, -0.0), grid.ys, indexing="xy")
        slope = _grad_x1_analytic(SliderShape.line_contact(1.0), X1, X2)
        assert np.array_equal(slope, np.sign(X1))
        assert np.array_equal(np.signbit(slope), np.signbit(np.sign(X1)))

    def test_gradient_matches_finite_differences(self):
        # continuity/accuracy across the contact set for alpha > 1
        rng = np.random.default_rng(42)
        for shape in (SliderShape.line_contact(2.0), SliderShape.point_contact(3.0)):
            pts = rng.uniform(-0.9, 0.9, size=(10, 2))
            for x1, x2 in pts:
                exact = _grad_x1_analytic(shape, x1, x2)
                errs = []
                for eps in (1e-3, 1e-4, 1e-5):
                    fd = (
                        _height_analytic(shape, x1 + eps, x2)
                        - _height_analytic(shape, x1 - eps, x2)
                    ) / (2.0 * eps)
                    errs.append(abs(fd - exact))
                # error vanishes with eps (up to the fp noise floor of the quotient)
                assert errs[-1] <= 1e-6 + 1e-4 * abs(exact)
                assert errs[-1] <= errs[0] + 1e-9


class TestV1:
    def test_flat_is_zero(self, domain_sym):
        grid = build_grid(domain_sym, 8, 8)
        assert compute_V1(SliderShape.flat(), grid) == 0.0

    def test_line_contact_sup(self, domain_sym):
        grid = build_grid(domain_sym, 16, 16)
        assert compute_V1(SliderShape.line_contact(2.0), grid) == pytest.approx(2.0, abs=1e-6)

    def test_point_contact_sup(self, domain_sym):
        # dense sampling oracle over the closed domain
        grid = build_grid(domain_sym, 16, 16)
        v1 = compute_V1(SliderShape.point_contact(2.0), grid)
        xs = np.linspace(-1, 1, 401)
        X, Y = np.meshgrid(xs, xs)
        dense = np.max(-2.0 * X)
        assert v1 == pytest.approx(dense, abs=1e-2)

    def test_monotone_under_nested_refinement(self, domain_sym):
        prev = -np.inf
        for n in (3, 7, 15, 31):
            grid = build_grid(domain_sym, n, n)
            v1 = compute_V1(SliderShape.point_contact(2.5), grid)
            assert v1 >= prev - 1e-15
            prev = v1

    def test_min_nodal_height_vanishes_under_refinement(self, domain_sym):
        for shape in (SliderShape.line_contact(2.0), SliderShape.point_contact(2.0)):
            mins = []
            for n in (4, 8, 16, 32):
                grid = build_grid(domain_sym, n, n)
                mins.append(float(np.min(lattice_heights(shape, grid))))
            assert all(b < a for a, b in zip(mins, mins[1:]))
            assert mins[-1] <= grid.dx**2  # nearest node within one cell of contact

    def test_tabulated_uses_nodal_gradients(self, tabulated_line):
        shape, grid = tabulated_line
        v1 = compute_V1(shape, grid)
        assert v1 == pytest.approx(2.0, abs=1e-12)  # boundary nodes carry the sup

    def test_point_contact_sup_on_the_axis_below_alpha_2(self):
        # for alpha < 2 the sup sits on the axis, at (x1_min, 0), which no
        # node or edge sample of this asymmetric x2 range reaches: 1.5 * 0.5**0.5
        grid = build_grid(DomainRect(-0.5, 2.0, -2.0, 0.3), 16, 16)
        assert compute_V1(SliderShape.point_contact(1.5), grid) == 1.0606601717798214

    @pytest.mark.parametrize("kind", ["line_contact", "point_contact"])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_closed_form_equals_boundary_sampling_on_symmetric_domains(self, kind, alpha):
        shape = getattr(SliderShape, kind)(alpha)
        for domain in (
            DomainRect(-1.0, 1.0, -1.0, 1.0),
            DomainRect(-0.5, 0.5, -0.5, 0.5),
            DomainRect(-2.0, 2.0, -0.3, 0.3),
            DomainRect(-0.7, 0.7, -1.9, 1.9),
        ):
            for nx, ny in ((3, 3), (8, 5), (16, 16), (33, 20)):
                grid = build_grid(domain, nx, ny)
                assert compute_V1(shape, grid) == _sampled_V1(shape, grid), (domain, nx, ny)

    def test_bounds_every_interior_slope(self):
        # the cutoff's safety property: at gamma = V1 every entry of b is <= 0
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            x1_min, x2_min = -rng.uniform(0.05, 3.0, size=2)
            x1_max, x2_max = rng.uniform(0.05, 3.0, size=2)
            grid = build_grid(
                DomainRect(x1_min, x1_max, x2_min, x2_max), *rng.integers(3, 40, size=2)
            )
            alpha = rng.uniform(1.0, 4.0)
            for shape in (SliderShape.line_contact(alpha), SliderShape.point_contact(alpha)):
                slopes = -lattice_grad_x1(shape, grid)[1:-1, 1:-1]
                assert compute_V1(shape, grid) >= slopes.max()


def _sampled_V1(shape, grid, samples=4001):
    """sup(-dh0/dx1) as the lattice maximum and dense samples of the four edges."""
    v1 = float(np.max(-lattice_grad_x1(shape, grid)))
    d = grid.domain
    t1 = np.linspace(d.x1_min, d.x1_max, samples)
    t2 = np.linspace(d.x2_min, d.x2_max, samples)
    for x1, x2 in (
        (t1, np.full_like(t1, d.x2_min)),
        (t1, np.full_like(t1, d.x2_max)),
        (np.full_like(t2, d.x1_min), t2),
        (np.full_like(t2, d.x1_max), t2),
    ):
        v1 = max(v1, float(np.max(-_grad_x1_analytic(shape, x1, x2))))
    return max(0.0, v1)


class TestContactBox:
    def test_line_box_bounds(self, domain_sym):
        box = contact_box(SliderShape.line_contact(2.0), domain_sym, 0.01, delta=0.5)
        x1_lo, x1_hi, x2_lo, x2_hi = box
        assert x1_lo == pytest.approx(-0.2)
        assert x1_hi == pytest.approx(-0.1)
        assert (x2_lo, x2_hi) == (-0.5, 0.5)

    def test_sector_box_bounds(self, domain_sym):
        box = contact_box(
            SliderShape.point_contact(2.0), domain_sym, 0.01, theta0=np.pi / 6.0
        )
        assert isinstance(box, Sector)
        assert box.rho_lo == pytest.approx(0.1)
        assert box.rho_hi == pytest.approx(0.2)
        assert box.theta_half == pytest.approx(np.pi / 6.0)

    def test_flat_unsupported(self, domain_sym):
        with pytest.raises(UnsupportedShape):
            contact_box(SliderShape.flat(), domain_sym, 0.01, delta=0.5)

    def test_box_outside_domain(self, domain_sym):
        with pytest.raises(BoxOutsideDomain):
            contact_box(SliderShape.line_contact(2.0), domain_sym, 0.5, delta=1.5)
        with pytest.raises(BoxOutsideDomain):
            contact_box(SliderShape.line_contact(2.0), domain_sym, 0.9, delta=0.5)

    def test_gradient_negative_on_box_nodes(self, domain_sym):
        grid = build_grid(domain_sym, 40, 40)
        for shape, kw in (
            (SliderShape.line_contact(2.0), {"delta": 0.5}),
            (SliderShape.point_contact(2.0), {"theta0": np.pi / 6.0}),
        ):
            box = contact_box(shape, domain_sym, 0.05, **kw)
            mask = region_node_mask(grid, box)
            assert np.any(mask)
            assert np.all(lattice_grad_x1(shape, grid)[1:-1, 1:-1][mask] < 0.0)

    def test_region_mask_tuple(self, domain_sym):
        grid = build_grid(domain_sym, 9, 9)
        mask = region_node_mask(grid, (-0.5, 0.5, -0.5, 0.5))
        X1, _ = grid.interior_mesh()
        assert mask.shape == X1.shape
        assert np.count_nonzero(mask) > 0

    def test_line_box_mask_is_the_open_rectangle(self, domain_sym):
        grid = build_grid(domain_sym, 9, 9)  # interior nodes at -0.8, -0.6, ..., 0.8
        X1, X2 = grid.interior_mesh()
        x1 = X1[0]
        # x1 bounds on nodes (excluded, the box is open), x2 bounds between nodes
        mask = region_node_mask(grid, (x1[2], x1[6], -0.3, 0.7))
        assert np.count_nonzero(mask) == 3 * 5
        assert np.array_equal(np.unique(X1[mask]), x1[3:6])
        assert np.allclose(np.unique(X2[mask]), [-0.2, 0.0, 0.2, 0.4, 0.6])


class TestSupHeight:
    def test_line(self, domain_sym):
        assert sup_height(SliderShape.line_contact(2.0), domain_sym) == pytest.approx(1.0)

    def test_point(self, domain_sym):
        assert sup_height(SliderShape.point_contact(2.0), domain_sym) == pytest.approx(2.0)

    def test_flat(self, domain_sym):
        assert sup_height(SliderShape.flat(), domain_sym) == 0.0


class TestTabulated:
    def test_roundtrip_csv(self, tmp_path, domain_sym):
        grid = build_grid(domain_sym, 5, 4)
        shape = SliderShape.line_contact(2.0)
        rows = ["x1,x2,h0,dh0_dx1"] + [",".join(row) for row in lattice_csv_rows(shape, grid)]
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        tab = load_tabulated_csv(path, grid)
        assert np.array_equal(lattice_heights(tab, grid), lattice_heights(shape, grid))
        assert np.array_equal(lattice_grad_x1(tab, grid), lattice_grad_x1(shape, grid))
        assert lattice_heights(tab, grid)[1, 2] == pytest.approx(grid.xs[2] ** 2)

    def test_min_zero_near_origin_enforced(self, domain_sym):
        grid = build_grid(domain_sym, 5, 5)
        from sliderfilm.geometry import TabulatedData

        heights = np.ones((grid.ny + 2, grid.nx + 2))
        grads = np.zeros_like(heights)
        with pytest.raises(InvalidDomain):
            TabulatedData(xs=grid.xs, ys=grid.ys, heights=heights, grad_x1=grads)

    def test_negative_heights_rejected(self, domain_sym):
        grid = build_grid(domain_sym, 5, 5)
        from sliderfilm.geometry import TabulatedData

        heights = np.zeros((grid.ny + 2, grid.nx + 2))
        heights[0, 0] = -0.1
        with pytest.raises(InvalidDomain):
            TabulatedData(xs=grid.xs, ys=grid.ys, heights=heights, grad_x1=np.zeros_like(heights))

    def test_csv_must_cover_lattice(self, tmp_path, domain_sym):
        grid = build_grid(domain_sym, 4, 4)
        path = tmp_path / "short.csv"
        path.write_text("x1,x2,h0,dh0_dx1\n0.0,0.0,0.0,0.0\n")
        with pytest.raises(InvalidDomain):
            load_tabulated_csv(path, grid)
