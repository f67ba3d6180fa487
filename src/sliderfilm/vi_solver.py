"""Discrete film-pressure problem and its solvers.

The pressure at clearance beta and squeeze velocity gamma solves the
complementarity problem

    p >= 0,   A p - b >= 0,   p . (A p - b) = 0,

with A the five-point operator of -div((h0 + beta)^3 grad .) assembled
with edge-midpoint coefficients and b_i = -(dh0/dx1(x_i) + gamma) dx dy,
both with zero Dirichlet boundary.  A is a symmetric M-matrix, so the
problem has a unique solution and projected SOR converges.

solve_vi_psor is the production solver, projected SOR in red-black
order; its Notes hold the sweep and the stop test.  An unset relaxation
factor is chosen by relaxation.  solve_linear (conjugate gradients) and
flat_unit_load (the flat profile's load in closed form) serve the
oracles and the flat-profile shortcut.
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
    "free_set",
    "relaxation",
    "assemble_system",
    "solve_vi_psor",
    "solve_linear",
    "load_integral",
    "flat_unit_load",
    "lcp_residuals",
    "suggested_omega",
    "young_omega",
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
    A height beyond the float range makes beta_max -inf or nan (Problem).
    """

    h_v: np.ndarray
    h_h: np.ndarray
    grad: np.ndarray
    beta_max: float


def film_geometry(grid: Grid, shape: SliderShape) -> FilmGeometry:
    """The beta-independent assembly data of a profile on a grid."""
    with np.errstate(over="ignore", invalid="ignore"):  # FilmGeometry: inf or nan
        h_v, h_h = edge_midpoint_heights(shape, grid)
        grad = lattice_grad_x1(shape, grid)[1:-1, 1:-1]
    span = sys.float_info.max / (8.0 * max(grid.dx / grid.dy, grid.dy / grid.dx))
    beta_max = float(span ** (1.0 / 3.0) - max(h_v.max(), h_h.max()))
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
        Relaxation factor in (0, 2), used as given.  None, the default,
        means relaxation(system, warm_start)[1], estimated in this solve
        after the argument checks.  A caller that makes many nearby
        solves, as GEvaluator does, passes its own factor.
    tol : float
        Stop tolerance, finite and positive (Notes).
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

    Raises
    ------
    NoConvergence
        After max_iter sweeps, carrying the last iterate.

    Notes
    -----
    A load vector with no positive entry returns the exact zero
    solution at once (slack -b >= 0), with no sweep and no estimate.

    Sweep order is red-black: every node with i + j even, then every
    node with i + j odd.  All neighbours of a node have the other colour,
    so each colour is updated at once.  The five-point operator is
    consistently ordered, so this order has the SOR rate of the
    lexicographic one at the same omega (Young, Iterative Solution of
    Large Linear Systems, 1971); the two converge to the same solution
    and differ by the solve error, not bit for bit.  Results are
    deterministic for fixed inputs.  s = omega / diag is folded into
    the coefficients once per solve, c' = c * s for each coupling and
    b' = b * s, so a node update is

        new = max(0, c'_w p_w + b' + c'_e p_e + c'_s p_s + c'_n p_n + (1 - omega) p),

    summed left to right, which equals the textbook
    p + omega ((b + sum c p_nb) / diag - p) up to rounding.  The iterate
    is stored split by colour (_colour_maps), so a colour is 8 numpy
    calls: one product of the neighbour view with the four couplings,
    five adds, the (1 - omega) p product and the projection.  With one
    copy, difference, abs and max of the whole iterate for the largest
    update, a sweep takes 20.

    The stop test: a solve stops after the first sweep whose largest
    nodal update is at most tol * max(1, ||p||_inf) and whose
    complementarity residual max |min(p, Ap - b)| is at most 10 * tol.
    ||p||_inf costs one more call, made only when an upper bound on it,
    the last exact value plus the largest updates since, inflated by a
    relative 1e-12 per sweep, cannot already reject the sweep; the exact
    value decides every stop.  The test bounds the last update, not the
    distance to the solution, which can be larger.
    """
    if omega is not None and not (0.0 < omega < 2.0):
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
    if omega is None:
        omega = relaxation(system, warm_start)[1]

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
    mask: np.ndarray | None = None,
) -> PressureField:
    """Unconstrained conjugate-gradient solve of A p = rhs, in at most
    4 n + 200 iterations for n unknowns, else NoConvergence.

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


def flat_unit_load(grid: Grid) -> float:
    """load_integral of the flat profile's solution at beta 1, gamma -1, in closed form.

    There b = dx dy > 0 at every node, so every node is free and the
    solution is A^-1 b, with A = (dy/dx) T_x + (dx/dy) T_y and T the
    tridiagonal (-1, 2, -1) along each axis.  The sine basis
    diagonalises A (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    1970), and the ones vector has a sine coefficient only on odd modes,
    the one of mode j being proportional to cot(theta_j).  With
    theta_j = j pi / (2 (nx + 1)) and phi_k = k pi / (2 (ny + 1)):

        L = (dx dy)^2 4 / ((nx + 1)(ny + 1)) sum over odd j <= nx, odd k <= ny of
            cot^2 theta_j cot^2 phi_k / (4 sin^2 theta_j dy/dx + 4 sin^2 phi_k dx/dy),

    the exact discrete load: every term is positive, so it holds to
    rounding.  TestFlatUnitLoad checks it against CG and PSOR solves.
    """
    nx, ny = grid.nx, grid.ny
    theta = np.arange(1, nx + 1, 2) * (math.pi / (2 * (nx + 1)))
    phi = np.arange(1, ny + 1, 2) * (math.pi / (2 * (ny + 1)))
    eig = (4.0 * (grid.dy / grid.dx) * np.sin(theta)[:, None] ** 2
           + 4.0 * (grid.dx / grid.dy) * np.sin(phi)[None, :] ** 2)
    terms = (np.tan(theta)[:, None] * np.tan(phi)[None, :]) ** -2 / eig
    return float(grid.cell_area**2 * 4.0 / ((nx + 1) * (ny + 1)) * terms.sum())


def suggested_omega(grid: Grid) -> float:
    """Near-optimal SOR relaxation for the five-point operator at this resolution."""
    n = max(grid.nx, grid.ny)
    return 2.0 / (1.0 + np.sin(np.pi / (n + 1)))


# the check interval and settle fraction of young_omega's Lanczos run
_LANCZOS_CHECK = 8
_LANCZOS_SETTLE = 0.01
# the share of a kept free set's nodes that may change before relaxation
# estimates again
_FREE_SET_DRIFT = 0.1


def free_set(system: DiscreteSystem, start: np.ndarray | None) -> np.ndarray:
    """The free set of a start iterate: its nodes with p > 0, or the nodes
    with b > 0 when there is no start or none of its entries is positive
    (the first sweep from p = 0 makes exactly those positive)."""
    if start is not None:
        free = np.asarray(start) > 0.0
        if free.any():
            return free
    return system.b > 0.0


def relaxation(
    system: DiscreteSystem,
    start: np.ndarray | None,
    kept: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, float]:
    """(free set, omega) to relax a solve of system near the field start:
    the rule behind every unset omega.

    The factor is young_omega on free_set(system, start).  start is the
    field whose free set stands for the solve's.  A GEvaluator chain
    passes its newest solution, None before its first solve, and never
    its extrapolated warm start, which can hold free nodes that no
    solution has; a plain solve_vi_psor call passes its warm start.
    kept is the pair of an earlier estimate for nearby solves.  It is
    returned as is while start's free set (p > 0) differs from kept's in
    at most _FREE_SET_DRIFT of kept's nodes, so a chain estimates again
    only when its free set drifts; otherwise, and always for a start of
    None, the pair is a new estimate.  The free set must hold a node, so
    a cutoff system (b <= 0 everywhere) needs a start with a positive
    entry; solve_vi_psor then skips the estimate, GEvaluator the solve.
    """
    if start is not None and kept is not None and (
        np.count_nonzero((start > 0.0) != kept[0]) <= _FREE_SET_DRIFT * np.count_nonzero(kept[0])
    ):
        return kept
    free = free_set(system, start)
    return free, young_omega(system, free)


def young_omega(system: DiscreteSystem, free: np.ndarray) -> float:
    """Young's SOR factor 2 / (1 + sqrt(1 - mu^2)) for A restricted to a free set.

    mu is the spectral radius of the Jacobi matrix D^-1/2 (D - A)_FF D^-1/2
    of A on the nodes F of the boolean mask free (shape (ny, nx), at least
    one node), estimated as the largest Ritz value of a Lanczos run
    started from F's indicator.  Every _LANCZOS_CHECK steps the run
    takes the top eigenvalue of its tridiagonal matrix, and it stops once
    that value has risen since the last check by at most _LANCZOS_SETTLE
    of its distance to 1 (or at an invariant subspace, or after |F|
    steps).  1 - mu shrinks as the free set grows, and Lanczos needs
    more steps for it, so the rule sizes the run to the free set, where
    a fixed step count leaves mu low on large free sets.  A_FF is the
    operator PSOR iterates on once the active set has settled; it is
    consistently ordered, so Young's rule gives its optimal SOR factor
    (Young, Iterative Solution of Large Linear Systems, 1971).  A Ritz
    value never exceeds mu, so the estimate errs low, where SOR is the
    more sensitive to omega.  TestYoungOmega checks the factor against
    the dense Jacobi radius of a cavitated free set and, on fully free
    squares, against suggested_omega.
    """
    n_free = int(np.count_nonzero(free))
    if n_free == 0:
        raise ValueError("the free set has no node")
    # the run works on the free set's bounding box: no node outside it couples
    rows = np.flatnonzero(free.any(axis=1))
    cols = np.flatnonzero(free.any(axis=0))
    box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    free = free[box]
    nx = free.shape[1]
    f = np.where(free, 1.0 / np.sqrt(system.diag[box]), 0.0)
    # the Jacobi matrix D^-1/2 (D - A) D^-1/2 on the free nodes, with the
    # box's nodes in row order: ex couples each node to the next (its east
    # neighbour, 0 across a row end), ey to the one nx on (its north one)
    ex = (system.ce[box] * f * np.pad(f[:, 1:], ((0, 0), (0, 1)))).ravel()[:-1]
    ey = (system.cn[box][:-1] * f[:-1] * f[1:]).ravel()
    q = (free / math.sqrt(n_free)).ravel()
    q_prev = np.zeros_like(q)
    w = np.empty_like(q)
    alphas, betas = [], []
    beta, mu = 0.0, -1.0
    for k in range(1, n_free + 1):
        np.multiply(ex, q[1:], out=w[:-1])
        w[-1] = 0.0
        w[1:] += ex * q[:-1]
        w[:-nx] += ey * q[nx:]
        w[nx:] += ey * q[:-nx]
        alpha = float(np.vdot(w, q))
        alphas.append(alpha)
        w -= alpha * q
        w -= beta * q_prev
        beta = math.sqrt(float(np.vdot(w, w)))
        last = beta <= 1e-12 or k == n_free
        if last or k % _LANCZOS_CHECK == 0:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            prev, mu = mu, float(np.linalg.eigvalsh(tri)[-1])
            if last or mu - prev <= _LANCZOS_SETTLE * (1.0 - mu):
                break
        betas.append(beta)
        q_prev, q, w = q, w / beta, q_prev
    return 2.0 / (1.0 + math.sqrt(max(0.0, 1.0 - mu * mu)))
