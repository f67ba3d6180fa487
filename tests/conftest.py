from dataclasses import replace

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


def solve_as_evaluator(problem, beta, gamma, warm_start=None):
    """solve_at_settings of the system GEvaluator solves: on a mirror fold,
    the kept rows' system from the kept rows of warm_start, its solution
    mirrored onto the whole grid."""
    s = problem.solver
    system = problem.assemble(beta, gamma, half=True)
    ny = system.grid.ny
    start = None if warm_start is None else warm_start[:ny]
    sol = solve_vi_psor(system, omega=s.omega, tol=s.tol, warm_start=start)
    if ny < problem.grid.ny:
        rows = np.arange(problem.grid.ny)
        sol = replace(sol, values=sol.values[np.minimum(rows, rows[::-1])])
    return sol


def within_tol(field, ref, tol):
    """True when two solves of one problem at stop tolerance tol agree within
    10 tol max(1, ||p||_inf): ten times the last update either stop test
    allows, which understates a solve's error (solve_vi_psor)."""
    scale = max(1.0, float(np.max(ref.values)))
    return float(np.max(np.abs(field.values - ref.values))) <= 10.0 * tol * scale


def all_variant_shapes(grid):
    """One shape per variant, tabulated derived from the line profile."""
    return [
        SliderShape.line_contact(2.0),
        SliderShape.point_contact(2.0),
        SliderShape.flat(),
        tabulated_from(SliderShape.line_contact(2.0), grid),
    ]
