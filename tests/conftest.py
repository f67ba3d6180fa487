import numpy as np
import pytest

from sliderfilm.geometry import (
    DomainRect,
    SliderShape,
    TabulatedData,
    build_grid,
    lattice_grad_x1,
    lattice_heights,
)
from sliderfilm.vi_solver import solve_vi_psor


@pytest.fixture
def domain_sym():
    """[-1, 1]^2, the workhorse domain."""
    return DomainRect(-1.0, 1.0, -1.0, 1.0)


@pytest.fixture
def unit_domain():
    """Unit square centered at the origin."""
    return DomainRect(-0.5, 0.5, -0.5, 0.5)


def tabulated_from(shape: SliderShape, grid):
    """Tabulated copy of an analytic shape on a grid lattice.

    The node counts must place a node on the contact set (odd nx for the
    symmetric domains used here), otherwise the min-height invariant of
    tabulated data rejects the table.
    """
    return SliderShape.tabulated(
        TabulatedData(
            xs=grid.xs,
            ys=grid.ys,
            heights=lattice_heights(shape, grid),
            grad_x1=lattice_grad_x1(shape, grid),
        )
    )


def lattice_csv_rows(shape: SliderShape, grid):
    """shape's rows x1, x2, h0, dh0_dx1 on grid's node lattice, each a list of
    repr strings, in the column order of a tabulated-shape CSV."""
    X1, X2 = np.meshgrid(grid.xs, grid.ys, indexing="xy")
    columns = (X1, X2, lattice_heights(shape, grid), lattice_grad_x1(shape, grid))
    return [[repr(float(v)) for v in row] for row in zip(*map(np.ravel, columns))]


@pytest.fixture
def tabulated_line(domain_sym):
    grid = build_grid(domain_sym, 11, 11)
    return tabulated_from(SliderShape.line_contact(2.0), grid), grid


def solve_at_settings(problem, beta, gamma, warm_start=None):
    """One plain solve_vi_psor of problem's system at (beta, gamma) with the
    problem's solver settings: no V1 shortcut, no kept relaxation."""
    s = problem.solver
    return solve_vi_psor(
        problem.assemble(beta, gamma), omega=s.omega, tol=s.tol, warm_start=warm_start
    )


def all_variant_shapes(grid):
    """One shape per variant, tabulated derived from the line profile."""
    return [
        SliderShape.line_contact(2.0),
        SliderShape.point_contact(2.0),
        SliderShape.flat(),
        tabulated_from(SliderShape.line_contact(2.0), grid),
    ]
