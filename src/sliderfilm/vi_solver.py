"""Discrete film-pressure problem and its solvers.

The pressure at clearance beta and squeeze velocity gamma solves the
complementarity problem

    p >= 0,   A p - b >= 0,   p . (A p - b) = 0,

with A the five-point operator of -div((h0 + beta)^3 grad .) assembled
with edge-midpoint coefficients and b_i = -(dh0/dx1(x_i) + gamma) dx dy,
both with zero Dirichlet boundary.  A is a symmetric M-matrix, so the
problem has a unique solution and projected SOR converges.

The production solver sweeps nodes in red-black (checkerboard) order:
first every node with i + j even, then every node with i + j odd.  For
the five-point stencil all neighbours of a node have the other colour,
so the order within a colour does not matter and each colour is updated
at once.  The padded iterate is stored as its even-index entries followed
by its odd-index ones, which makes each colour one contiguous range and
its four neighbours one strided view of the other half.  The
five-point operator is consistently ordered, so this ordering has the
same asymptotic SOR rate at the same omega as the lexicographic one
(Young, Iterative Solution of Large Linear Systems, 1971).  Both orders
converge to the same solution, so their results differ by the solve
error, not bit for bit.

The relaxation is folded into the coefficients once per solve: with
s = omega / diag, c' = c * s for each coupling and b' = b * s, so a node
update is

    new = max(0, c'_w p_w + b' + c'_e p_e + c'_s p_s + c'_n p_n + (1 - omega) p),

summed left to right in that order.  It equals the textbook
p + omega ((b + sum c p_nb) / diag - p) up to rounding.  A colour takes
8 numpy calls: one product of the neighbour view with the four couplings,
five adds, the (1 - omega) p product and the projection, written straight
into the iterate.  With one copy, difference, abs and max of the whole
iterate for the largest update, a sweep takes 20.  ||p||_inf is read
(one more call) only on sweeps that a running upper bound on it cannot
already reject.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonPositiveClearance
from .geometry import Grid, SliderShape, edge_midpoint_heights, lattice_grad_x1

__all__ = [
    "DiscreteSystem",
    "FilmGeometry",
    "PressureField",
    "film_geometry",
    "assemble_system",
    "solve_vi_psor",
    "solve_linear",
    "load_integral",
    "lcp_residuals",
    "suggested_omega",
]


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """Five-point operator and load vector on the interior nodes.

    cw/ce/cs/cn are the positive coupling magnitudes to the west, east,
    south and north neighbours (off-diagonal entries of A are their
    negatives); diag is their row sum.  All arrays have shape (ny, nx).
    """

    grid: Grid
    beta: float
    gamma: float
    diag: np.ndarray
    cw: np.ndarray
    ce: np.ndarray
    cs: np.ndarray
    cn: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n_interior

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Matrix-vector product A p for p of shape (ny, nx)."""
        ny, nx = p.shape
        pad = np.zeros((ny + 2, nx + 2))
        pad[1:-1, 1:-1] = p
        return (
            self.diag * p
            - self.cw * pad[1:-1, :-2]
            - self.ce * pad[1:-1, 2:]
            - self.cs * pad[:-2, 1:-1]
            - self.cn * pad[2:, 1:-1]
        )

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (A, b) with linear index j*nx + i; for small grids only."""
        nx, ny = self.grid.nx, self.grid.ny
        n = nx * ny
        A = np.zeros((n, n))
        for j in range(ny):
            for i in range(nx):
                k = j * nx + i
                A[k, k] = self.diag[j, i]
                if i > 0:
                    A[k, k - 1] = -self.cw[j, i]
                if i < nx - 1:
                    A[k, k + 1] = -self.ce[j, i]
                if j > 0:
                    A[k, k - nx] = -self.cs[j, i]
                if j < ny - 1:
                    A[k, k + nx] = -self.cn[j, i]
        return A, self.b.ravel().copy()


@dataclass(eq=False)
class PressureField:
    """Nodal solution with solver metadata.

    For complementarity solves, residual_comp = max |min(p, Ap - b)| and
    residual_lin = max violation of Ap >= b.  For plain linear solves,
    residual_comp is NaN, residual_lin holds the relative linear residual
    instead and values may be negative.
    """

    values: np.ndarray
    residual_comp: float
    residual_lin: float
    iterations: int


@dataclass(frozen=True, eq=False)
class FilmGeometry:
    """The part of the assembly that does not depend on beta or gamma.

    h_v and h_h are the edge-midpoint heights of edge_midpoint_heights,
    grad is dh0/dx1 at the interior nodes (shape (ny, nx)).  Up to beta_max
    the diagonal, at most 4 (h0 + beta)^3 max(dx/dy, dy/dx), stays < float max / 2.
    """

    h_v: np.ndarray
    h_h: np.ndarray
    grad: np.ndarray
    beta_max: float


def film_geometry(grid: Grid, shape: SliderShape) -> FilmGeometry:
    """The beta-independent assembly data of a profile on a grid."""
    h_v, h_h = edge_midpoint_heights(shape, grid)
    span = sys.float_info.max / (8.0 * max(grid.dx / grid.dy, grid.dy / grid.dx))
    beta_max = float(span ** (1.0 / 3.0) - max(h_v.max(), h_h.max()))
    grad = lattice_grad_x1(shape, grid)[1:-1, 1:-1]
    return FilmGeometry(h_v=h_v, h_h=h_h, grad=grad, beta_max=beta_max)


def assemble_system(
    grid: Grid,
    shape: SliderShape,
    beta: float,
    gamma: float,
    geometry: FilmGeometry | None = None,
) -> DiscreteSystem:
    """Assemble the five-point system for clearance beta, squeeze gamma.

    geometry, when given, must be film_geometry(grid, shape); a caller
    that assembles many systems of one profile computes it once.  A beta
    outside (0, geometry.beta_max] raises NonPositiveClearance and a
    non-finite gamma ValueError, before any array work on beta.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"assembly requires a finite gamma, got {gamma}")
    geo = film_geometry(grid, shape) if geometry is None else geometry
    if not (0.0 < beta <= geo.beta_max):
        raise NonPositiveClearance(f"assembly requires 0 < beta <= {geo.beta_max:.6g}, got {beta}")
    coef_v = (geo.h_v + beta) ** 3 * (grid.dy / grid.dx)
    coef_h = (geo.h_h + beta) ** 3 * (grid.dx / grid.dy)
    cw, ce = coef_v[:, :-1], coef_v[:, 1:]
    cs, cn = coef_h[:-1, :], coef_h[1:, :]
    diag = cw + ce + cs + cn
    b = -(geo.grad + gamma) * grid.cell_area
    return DiscreteSystem(
        grid=grid, beta=beta, gamma=gamma, diag=diag, cw=cw, ce=ce, cs=cs, cn=cn, b=b
    )


@functools.lru_cache(maxsize=32)
def _colour_maps(ny: int, nx: int) -> tuple[int, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Row width w, per colour the gather map of its range, and the interior map.

    Rows of odd width w = 2h + 1 (nx + 2, plus a ghost column for even
    nx) put interior node (j, i) at padded flat index (j + 1) * w + i + 1,
    which is even exactly when i + j is.  The iterate stores the even
    entries of that padded array, then the odd ones, so red is the
    contiguous range of the even half from h + 1 and black the one of
    the odd half from h, both up to padded index (ny + 1) * w.  A colour
    map holds, for each entry of its range, the row-major interior index
    j * nx + i, or ny * nx at boundary and ghost entries.  The interior
    map is its inverse: for each interior node in row-major order, its
    position in the split iterate.
    """
    w = nx + 2 if nx % 2 else nx + 3
    h = w // 2
    end = (ny + 1) * w
    index = np.full((ny + 2, w), ny * nx)
    index[1:-1, 1 : nx + 1] = np.arange(ny * nx).reshape(ny, nx)
    split = np.concatenate((index.ravel()[0::2], index.ravel()[1::2]))
    half = (split.size + 1) // 2
    maps = (split[h + 1 : (end + 1) // 2], split[half + h : half + end // 2])
    interior = np.empty(ny * nx + 1, dtype=np.intp)
    interior[split] = np.arange(split.size)
    interior = interior[:-1]
    for a in (*maps, interior):
        a.flags.writeable = False
    return w, maps, interior


def _red_black_lattices(system: DiscreteSystem, omega: float):
    """Split iterate, its interior map and, per colour, views and buffers.

    A red node at index r of the even half (see _colour_maps) has its
    south, west, east and north neighbours at r - h - 1, r - 1, r and
    r + h of the odd half; a black node at r of the odd half has them at
    r - h, r, r + 1 and r + h + 1 of the even half.  Over a colour's
    range these four are one read-only (2, 2, m) view of the other half,
    [[south, west], [east, north]], with element strides (h + 1, h, 1);
    it starts at the first entry of that half and ends at its last.  b
    and the couplings, pre-scaled by omega / diag, are gathered into the
    same layout, the couplings as one (2, 2, m) array in the view's
    order, with zeros at the boundary and ghost entries, which therefore
    compute exactly 0 on every sweep.  Per colour: its range of the
    iterate, the neighbour view, the couplings, a (2, 2, m) product
    buffer, that buffer's west, east, south and north rows, and b'.
    """
    ny, nx = system.b.shape
    w, maps, interior = _colour_maps(ny, nx)
    h = w // 2
    n = ny * nx
    scale = omega / system.diag
    # b, then the couplings in the neighbour view's order
    coefs = np.zeros((5, n + 1))
    for row, a in zip(coefs, (system.b, system.cs, system.cw, system.ce, system.cn)):
        np.multiply(a, scale, out=row[:n].reshape(ny, nx))
    p = np.zeros((ny + 2) * w)
    item = p.itemsize
    half = (p.size + 1) // 2
    even, odd = p[:half], p[half:]
    out = []
    for pd, other, m in ((even[h + 1 :], odd, maps[0]), (odd[h:], even, maps[1])):
        size = m.size
        # ndarray refuses a view that reaches past the end of its buffer
        neighbours = np.ndarray(
            (2, 2, size), buffer=other, strides=(item * (h + 1), item * h, item)
        )
        neighbours.flags.writeable = False
        # take, unlike coefs[:, m], returns rows that are contiguous
        gathered = np.take(coefs, m, axis=1)
        prod = np.empty((2, 2, size))
        out.append(
            (
                pd[:size],
                neighbours,
                gathered[1:].reshape(2, 2, size),
                prod,
                prod[0, 1],
                prod[1, 0],
                prod[0, 0],
                prod[1, 1],
                gathered[0],
            )
        )
    return p, interior, out


def lcp_residuals(system: DiscreteSystem, p: np.ndarray) -> tuple[float, float]:
    """(max |min(p, Ap - b)|, max violation of Ap >= b) of a candidate p."""
    slack = system.apply(p) - system.b
    comp = float(np.max(np.abs(np.minimum(p, slack))))
    lin = float(max(0.0, -np.min(slack)))
    return comp, lin


def solve_vi_psor(
    system: DiscreteSystem,
    omega: float | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
    warm_start: np.ndarray | None = None,
) -> PressureField:
    """Projected SOR solve of the pressure complementarity problem.

    Parameters
    ----------
    system : DiscreteSystem
        Assembled operator and load vector.
    omega : float, optional
        Relaxation factor in (0, 2); None, the default, means
        suggested_omega(system.grid), the grid of this solve.
    tol : float
        Convergence threshold, finite and positive: the largest nodal update of a sweep must
        fall below tol * max(1, ||p||_inf) and the complementarity
        residual below 10 * tol.
    max_iter : int, optional
        Sweep cap; defaults to 50 * nx * ny.
    warm_start : ndarray, optional
        Initial iterate (projected onto p >= 0); the converged solution
        does not depend on it, only the sweep count does.  It must be
        finite and of shape (ny, nx), else ValueError.

    Returns
    -------
    PressureField
        Nonnegative nodal pressure with residuals and the sweep count.

    Notes
    -----
    Sweep order is red-black: nodes with i + j even, then nodes with
    i + j odd (see module docstring); results are deterministic for
    fixed inputs.  s = omega / diag is folded into the coefficients
    once per solve, c' = c * s for each coupling and b' = b * s, so a
    node update is

        new = max(0, c'_w p_w + b' + c'_e p_e + c'_s p_s + c'_n p_n + (1 - omega) p),

    summed left to right.  The iterate is stored split by colour (see
    _colour_maps), so a colour is 8 numpy calls and a sweep 20.  The stop
    test needs ||p||_inf; it is read only when an upper bound, the last
    exact value plus the largest updates since, inflated by a relative
    1e-12 per sweep, cannot already reject the sweep, and the exact
    value decides every stop.  A nonpositive load vector returns the
    exact zero solution immediately.
    """
    omega = suggested_omega(system.grid) if omega is None else omega
    if not (0.0 < omega < 2.0):
        raise ValueError(f"relaxation omega must lie in (0, 2), got {omega}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    nx, ny = system.grid.nx, system.grid.ny
    if max_iter is None:
        max_iter = 50 * nx * ny
    if warm_start is not None:
        if np.shape(warm_start) != (ny, nx):
            raise ValueError(
                f"warm start has shape {np.shape(warm_start)}, the grid's interior is {(ny, nx)}"
            )
        if not np.isfinite(warm_start).all():
            raise ValueError("warm start must be finite")

    if np.all(system.b <= 0.0):
        # exact cutoff: p = 0 solves the problem (slack -b >= 0)
        return PressureField(
            values=np.zeros((ny, nx)), residual_comp=0.0, residual_lin=0.0, iterations=0
        )

    p_split, interior, lattices = _red_black_lattices(system, omega)
    if warm_start is not None:
        p_split[interior] = np.maximum(warm_start, 0.0).ravel()
    previous = np.empty_like(p_split)

    keep = 1.0 - omega
    # upper bound on ||p||_inf: its last exact value plus the updates since
    p_bound = math.inf
    sweeps = 0
    while sweeps < max_iter:
        np.copyto(previous, p_split)
        for pd, nb, c, prod, acc, pe, ps, pn, bd in lattices:
            # the sum builds up in the west product, and the east one,
            # once added, holds the (1 - omega) p term
            np.multiply(nb, c, out=prod)
            acc += bd
            acc += pe
            acc += ps
            acc += pn
            np.multiply(pd, keep, out=pe)
            acc += pe
            np.maximum(acc, 0.0, out=pd)
        sweeps += 1
        delta = np.subtract(p_split, previous, out=previous)  # previous is spent
        np.abs(delta, out=delta)
        step = float(delta.max())
        # no entry moved by more than step; the factor covers the rounding
        p_bound = (p_bound + step) * (1.0 + 1e-12)
        if step <= tol * max(1.0, p_bound):
            # p_split is zero off the interior and p >= 0, so its max is ||p||_inf
            p_bound = float(p_split.max())
            if step <= tol * max(1.0, p_bound):
                p = p_split[interior].reshape(ny, nx)
                comp, lin = lcp_residuals(system, p)
                if comp <= 10.0 * tol:
                    return PressureField(
                        values=p, residual_comp=comp, residual_lin=lin, iterations=sweeps
                    )

    p = p_split[interior].reshape(ny, nx)
    comp, lin = lcp_residuals(system, p)
    field = PressureField(values=p, residual_comp=comp, residual_lin=lin, iterations=sweeps)
    raise NoConvergence(
        f"PSOR did not converge in {sweeps} sweeps (delta tol {tol}, "
        f"complementarity residual {comp:.3e})",
        field=field,
        iterations=sweeps,
    )


def solve_linear(
    system: DiscreteSystem,
    rhs_override: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    mask: np.ndarray | None = None,
) -> PressureField:
    """Unconstrained conjugate-gradient solve of A p = rhs.

    With a boolean mask, solves the restriction of A to the masked nodes
    with zero values elsewhere (zero Dirichlet data on the inner
    boundary); this is the operator of the auxiliary problems posed on a
    sub-region.  Values may be negative.  residual_lin reports the final
    relative residual; residual_comp is NaN, since an unconstrained solve
    has no complementarity residual (lcp_residuals measures one).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    rhs = system.b if rhs_override is None else rhs_override
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != system.b.shape:
        raise ValueError(f"rhs shape {rhs.shape} does not match grid {system.b.shape}")
    if mask is not None:
        rhs = np.where(mask, rhs, 0.0)
        n_unknown = int(np.count_nonzero(mask))
    else:
        n_unknown = system.n
    if max_iter is None:
        max_iter = 4 * n_unknown + 200

    bnorm = float(np.linalg.norm(rhs))
    zero = np.zeros_like(rhs)
    if bnorm == 0.0 or n_unknown == 0:
        return PressureField(values=zero, residual_comp=math.nan, residual_lin=0.0, iterations=0)

    def op(v):
        av = system.apply(v)
        if mask is not None:
            av = np.where(mask, av, 0.0)
        return av

    p = zero.copy()
    r = rhs.copy()
    d = r.copy()
    rs = float(np.vdot(r, r))
    it = 0
    while np.sqrt(rs) > tol * bnorm and it < max_iter:
        ad = op(d)
        alpha = rs / float(np.vdot(d, ad))
        p += alpha * d
        r -= alpha * ad
        rs_new = float(np.vdot(r, r))
        d = r + (rs_new / rs) * d
        rs = rs_new
        it += 1

    rel = float(np.sqrt(rs) / bnorm)
    field = PressureField(values=p, residual_comp=math.nan, residual_lin=rel, iterations=it)
    if np.sqrt(rs) > tol * bnorm:
        raise NoConvergence(
            f"CG did not converge in {it} iterations (relative residual {rel:.3e})",
            field=field,
            iterations=it,
        )
    return field


def load_integral(field: PressureField, grid: Grid) -> float:
    """Integral of the nodal field over the domain (boundary contributes 0)."""
    return float(np.sum(field.values)) * grid.cell_area


def suggested_omega(grid: Grid) -> float:
    """Near-optimal SOR relaxation for the five-point operator at this resolution."""
    n = max(grid.nx, grid.ny)
    return 2.0 / (1.0 + np.sin(np.pi / (n + 1)))

