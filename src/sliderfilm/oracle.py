"""Reference computations and the `verify` checks built on them.

The references are independent of the production paths: the flat-case
constant comes from a Fourier series, the reference descent integrates
a scalar ODE with a Cash-Karp 4(5) pair (the production integrator uses
Dormand-Prince, switching to RODAS 4(3) when stiff), and complementarity
problems are solved exactly by least-index principal pivoting on dense
linear algebra.  The comparison-principle check differs by design: it
checks the production film solve (a fresh GEvaluator's field) against an
unconstrained sub-region solve.  The five `verify` checks close the module, each
returning its `verify.json` record; the tests and scripts share them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import GEvaluator, Problem, SolverParams, integrate_trajectory
from .errors import NoSolution
from .geometry import DomainRect, SliderShape, build_grid, compute_V1, region_node_mask
from .vi_solver import (
    DiscreteSystem,
    PressureField,
    assemble_system,
    flat_unit_load,
    lcp_residuals,
    load_integral,
    solve_linear,
    solve_vi_psor,
)

__all__ = [
    "FourierConstant",
    "FlatModel",
    "RefTrajectory",
    "flat_C_omega",
    "flat_model",
    "flat_envelope",
    "flat_reference_trajectory",
    "FlatReferenceGap",
    "flat_reference_gap",
    "lcp_pivot",
    "comparison_check",
    "ComparisonVerdict",
    "fourier_vs_grid",
    "cutoff_exactness",
    "lcp_enumeration_equivalence",
    "comparison_principle",
    "flat_reference_match",
]


@dataclass(frozen=True)
class FourierConstant:
    """Truncated series value for the domain constant, with a tail bound."""

    value: float
    tail_bound: float
    cutoff: int


def flat_C_omega(domain: DomainRect, cutoff: int = 99) -> FourierConstant:
    """Domain constant: integral of the torsion-type function w, -lap w = 1, w = 0 on the boundary.

    On the rectangle with side lengths L1, L2 the double sine series gives

        C = sum over odd m, n of  64 L1^3 L2^3 / (pi^6 m^2 n^2 (m^2 L2^2 + n^2 L1^2)).

    All terms are positive, so truncations increase monotonically; the
    reported tail bound majorizes the discarded modes.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    L1, L2 = domain.length1, domain.length2
    m = np.arange(1, cutoff + 1, 2, dtype=float)
    M, N = np.meshgrid(m, m, indexing="ij")
    terms = 64.0 * L1**3 * L2**3 / (np.pi**6 * M**2 * N**2 * (M**2 * L2**2 + N**2 * L1**2))
    # tail: bound m^2 L2^2 + n^2 L1^2 below by each term separately and use
    # sum over odd n of 1/n^2 = pi^2/8, sum over odd m > K of 1/m^4 <= 1/(6 K^3)
    tail = 4.0 * L1 * L2 * (L1**2 + L2**2) / (3.0 * np.pi**4 * cutoff**3)
    return FourierConstant(value=float(terms.sum()), tail_bound=float(tail), cutoff=cutoff)


@dataclass(frozen=True)
class FlatModel:
    """Closed-form descent model for the flat slider.

    The height obeys eta'' = C (eta')^- / eta^3 - F.  After the initial
    coast (empty when eta1 <= 0) the height decays while staying above
    a / sqrt(t + b) for t >= t0.
    """

    C_omega: float
    F: float
    eta0: float
    eta1: float
    t0: float
    eta0_hat: float
    a: float
    b: float

    def acceleration(self, eta: float, eta_dot: float) -> float:
        neg_part = -eta_dot if eta_dot < 0.0 else 0.0
        return self.C_omega * neg_part / eta**3 - self.F


def flat_model(
    domain: DomainRect, F: float, eta0: float, eta1: float, cutoff: int = 99
) -> FlatModel:
    """Instantiate the flat-case model with its decay envelope constants."""
    C = flat_C_omega(domain, cutoff).value
    if eta1 > 0.0:
        t0 = eta1 / F
        eta0_hat = eta0 + eta1**2 / (2.0 * F)
        b = C / (2.0 * eta0_hat**2 * F) - t0
    else:
        t0 = 0.0
        eta0_hat = eta0
        b = C / (2.0 * eta0**2 * F) - eta1 / F
    a = np.sqrt(C / (2.0 * F))
    return FlatModel(
        C_omega=C, F=F, eta0=eta0, eta1=eta1, t0=t0, eta0_hat=eta0_hat, a=float(a), b=float(b)
    )


def flat_envelope(model: FlatModel, t) -> np.ndarray:
    """Pointwise lower bound on the flat-case height.

    For eta1 > 0 the height equals the free parabola up to t0 and is
    bounded below by the square-root envelope afterwards; for eta1 <= 0
    the envelope applies from t = 0 with the initial-velocity correction.
    """
    t = np.asarray(t, dtype=float)
    C, F = model.C_omega, model.F
    if model.eta1 > 0.0:
        parab = -0.5 * F * t**2 + model.eta1 * t + model.eta0
        h = model.eta0_hat
        tail = h * np.sqrt(C / (C + 2.0 * h**2 * F * np.maximum(t - model.t0, 0.0)))
        return np.where(t <= model.t0, parab, tail)
    h = model.eta0
    return h * np.sqrt(C / (C + 2.0 * h**2 * (F * t - model.eta1)))


@dataclass(eq=False)
class RefTrajectory:
    t: np.ndarray
    eta: np.ndarray
    eta_dot: np.ndarray
    n_steps: int


# Cash-Karp embedded 4(5) coefficients
_CK_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_C = (0.0, 0.2, 0.3, 0.6, 1.0, 7.0 / 8.0)
_CK_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0, 277.0 / 14336.0, 0.25)


def flat_reference_trajectory(
    model: FlatModel,
    t_end: float,
    fine_tol: float = 1e-8,
    t_eval: np.ndarray | None = None,
) -> RefTrajectory:
    """Integrate the scalar descent ODE; no film solves involved.

    The coast phase for eta1 > 0 is emitted analytically (exact
    parabola); the remainder is integrated adaptively with the Cash-Karp
    pair at relative tolerance fine_tol.  If t_eval is given, steps land
    exactly on those times and only they are recorded.
    """
    F = model.F
    targets = None if t_eval is None else np.asarray(t_eval, dtype=float)

    ts, etas, vs = [], [], []

    def record(t, eta, v):
        ts.append(t)
        etas.append(eta)
        vs.append(v)

    # analytic coast while the velocity is still upward
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
    # Python floats step faster than numpy scalars, with the same values
    pending = None if pending is None else pending.tolist()
    acceleration = model.acceleration

    def accel(eta, eta_dot):
        # eta <= 0 forces rejection via error blow-up
        return acceleration(eta if eta > 0.0 else 1e-300, eta_dot)

    # The stages on (eta, eta') unrolled, with b the 5th-order and d the
    # 4th-order weights.  Each combination is sum()'s left fold: it starts
    # from 0.0 and keeps the zero-coefficient terms, so every value is
    # bit-equal to the loop over the coefficient tables.
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _CK_A[1:5]
    a61, a62, a63, a64, a65 = _CK_A[5]
    b1, b2, b3, b4, b5, b6 = _CK_B5
    d1, d2, d3, d4, d5, d6 = _CK_B4
    while t < t_end - 1e-14:
        target = None
        if pending is not None and next_idx < len(pending):
            target = pending[next_idx]
            dt = min(dt, target - t)
        dt = min(dt, t_end - t)
        k1y = v + dt * 0.0
        k1v = accel(y + dt * 0.0, k1y)
        k2y = v + dt * (0.0 + a21 * k1v)
        k2v = accel(y + dt * (0.0 + a21 * k1y), k2y)
        k3y = v + dt * (0.0 + a31 * k1v + a32 * k2v)
        k3v = accel(y + dt * (0.0 + a31 * k1y + a32 * k2y), k3y)
        k4y = v + dt * (0.0 + a41 * k1v + a42 * k2v + a43 * k3v)
        k4v = accel(y + dt * (0.0 + a41 * k1y + a42 * k2y + a43 * k3y), k4y)
        k5y = v + dt * (0.0 + a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
        k5v = accel(y + dt * (0.0 + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y), k5y)
        k6y = v + dt * (0.0 + a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
        k6v = accel(
            y + dt * (0.0 + a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y), k6y
        )
        y5 = y + dt * (0.0 + b1 * k1y + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
        v5 = v + dt * (0.0 + b1 * k1v + b2 * k2v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        y4 = y + dt * (0.0 + d1 * k1y + d2 * k2y + d3 * k3y + d4 * k4y + d5 * k5y + d6 * k6y)
        v4 = v + dt * (0.0 + d1 * k1v + d2 * k2v + d3 * k3v + d4 * k4v + d5 * k5v + d6 * k6v)
        sy = atol + fine_tol * max(abs(y), abs(y5))
        sv = atol + fine_tol * max(abs(v), abs(v5))
        err = math.sqrt(0.5 * (((y5 - y4) / sy) ** 2 + ((v5 - v4) / sv) ** 2))
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


@dataclass(frozen=True, eq=False)
class FlatReferenceGap:
    """A flat-profile run against the scalar reference (flat_reference_gap)."""

    pick: np.ndarray
    ref: RefTrajectory
    max_rel_diff: float
    max_envelope_violation: float

    @property
    def passed(self) -> bool:
        return self.max_rel_diff <= 1e-2 and self.max_envelope_violation <= 2e-2


def flat_reference_gap(traj, model: FlatModel, t_end: float, samples: int) -> FlatReferenceGap:
    """Largest |eta_ref - eta| / eta_ref at `samples` evenly spaced samples of a flat
    run (the reference integrated to t_end at fine_tol 1e-8), and largest shortfall
    (env - eta) / env below flat_envelope over all of its samples."""
    pick = np.unique(np.linspace(0, len(traj) - 1, samples).astype(int))
    ref = flat_reference_trajectory(model, t_end, fine_tol=1e-8, t_eval=traj.t[pick])
    rel = float(np.max(np.abs(ref.eta - traj.eta[pick]) / ref.eta))
    env = flat_envelope(model, traj.t)
    return FlatReferenceGap(pick, ref, rel, float(np.max((env - traj.eta) / env)))


def lcp_pivot(system: DiscreteSystem) -> PressureField:
    """Solve the complementarity problem by least-index principal pivoting.

    Murty's method (Opsearch 11, 1974): start with every node active
    (p = 0); on the current free set F solve A_FF p_F = b_F densely; flip
    the least index that breaks p >= -1e-10 (1 + ||p||_inf) on a free node
    or slack >= -1e-10 (1 + ||slack||_inf) on an active node, until none
    does.  The assembled operator is a symmetric M-matrix, hence a
    P-matrix, so the solution is unique and the method never revisits a
    set: 2**n pivots bound it exactly.  The solution shares nothing with
    the sweep solver beyond the assembled system; only its residuals are
    computed by the shared lcp_residuals.
    """
    A, b = system.dense()
    free = np.zeros(system.n, dtype=bool)
    for _ in range(2**system.n):
        p = np.zeros(system.n)
        F = np.flatnonzero(free)
        p[F] = np.linalg.solve(A[np.ix_(F, F)], b[F])
        slack = A @ p - b
        ptol = 1e-10 * (1.0 + np.max(np.abs(p)))
        stol = 1e-10 * (1.0 + np.max(np.abs(slack)))
        broken = np.flatnonzero(np.where(free, p < -ptol, slack < -stol))
        if not broken.size:
            p = np.maximum(p, 0.0).reshape(system.b.shape)
            comp, lin = lcp_residuals(system, p)
            return PressureField(values=p, residual_comp=comp, residual_lin=lin, iterations=0)
        free[broken[0]] = not free[broken[0]]
    raise NoSolution(f"no solution after 2**{system.n} pivots; the operator is not a P-matrix?")


@dataclass(frozen=True)
class ComparisonVerdict:
    worst_margin: float
    passed: bool
    n_nodes: int


def comparison_check(problem, beta: float, gamma: float, region) -> ComparisonVerdict:
    """Check domination of the constrained solution over a sub-region solve.

    Solves the full constrained problem for q through the production
    film solve, GEvaluator(problem).field, at the problem's own settings
    (one cold solve, or the zero field at gamma >= V1), then the
    unconstrained problem on the sub-region with the same operator and
    load and zero data on the inner boundary, and verifies
    q >= r - 10 * solver.tol nodewise.  A region holding no grid node
    passes without solving.
    """
    mask = region_node_mask(problem.grid, region)
    n_nodes = int(np.count_nonzero(mask))
    if n_nodes == 0:
        return ComparisonVerdict(worst_margin=0.0, passed=True, n_nodes=0)
    q = GEvaluator(problem).field(beta, gamma)
    r = solve_linear(problem.assemble(beta, gamma), tol=1e-11, mask=mask)
    margin = float(np.min(q.values[mask] - r.values[mask]))
    return ComparisonVerdict(margin, margin >= -10.0 * problem.solver.tol, n_nodes)


# -- the `verify` checks ---------------------------------------------------


def _record(name: str, passed, **values) -> dict:
    return {"name": name, "passed": bool(passed), **values}


def fourier_vs_grid(domain: DomainRect, n_fine: int) -> dict:
    """Check 1: the 99-term series constant against the unit load on a fine grid.

    The grid value is vi_solver.flat_unit_load, the discrete unit load in
    closed form (under 1 ms at 192^2), which the tests check against CG.
    The grid's spacing, not its node count, sets its error, so the
    shorter side takes n_fine nodes and the longer one round(n_fine r),
    r the aspect ratio: n_fine x n_fine on a square, 320 x 32 on a 10:1
    domain at n_fine 32 (rel_diff 1.0e-3, where 32 x 32 read 8.4e-3).
    """
    series = flat_C_omega(domain)
    L1, L2 = domain.length1, domain.length2
    n_long = round(n_fine * max(L1, L2) / min(L1, L2))
    c_grid = flat_unit_load(
        build_grid(domain, *((n_long, n_fine) if L1 >= L2 else (n_fine, n_long)))
    )
    rel = abs(series.value - c_grid) / series.value
    return _record("fourier_vs_grid", rel <= 5e-3, series=series.value,
                   series_tail_bound=series.tail_bound, grid_value=c_grid, rel_diff=rel)


def cutoff_exactness(problems) -> dict:
    """Check 2: the largest |load| of solve_vi_psor at beta 0.1 and 1, gamma = V1 + 0.1.

    The solver's own cutoff answers, not GEvaluator's gamma >= V1 shortcut.
    """
    worst_load = 0.0
    for problem in problems:
        v1 = compute_V1(problem.shape, problem.grid)
        for beta in (0.1, 1.0):
            sol = solve_vi_psor(problem.assemble(beta, v1 + 0.1))
            worst_load = max(worst_load, abs(load_integral(sol, problem.grid)))
    return _record("cutoff_exactness", worst_load <= 1e-10, worst_load=worst_load)


def lcp_enumeration_equivalence(rng, domain: DomainRect, cases: int, tol: float) -> dict:
    """Check 3: the sweep solver at tol against lcp_pivot on `cases` random 3x3 to 4x4 problems.

    The record keeps the name it had when the oracle enumerated active
    sets, so the verify.json schema does not change.
    """
    worst_diff = 0.0
    for _ in range(cases):
        nx = int(rng.integers(3, 5))
        ny = int(rng.integers(3, 5))
        grid = build_grid(domain, nx, ny)
        pick = rng.integers(0, 3)
        if pick == 0:
            shape = SliderShape.line_contact(float(rng.uniform(1.0, 3.0)))
        elif pick == 1:
            shape = SliderShape.point_contact(float(rng.uniform(1.0, 3.0)))
        else:
            shape = SliderShape.flat()
        beta = float(rng.uniform(0.05, 2.0))
        v1 = compute_V1(shape, grid)
        gamma = float(rng.uniform(-2.0, v1 + 1.0))
        system = assemble_system(grid, shape, beta, gamma)
        psor = solve_vi_psor(system, tol=tol, max_iter=100_000)
        exact = lcp_pivot(system)
        worst_diff = max(worst_diff, float(np.max(np.abs(psor.values - exact.values))))
    return _record("lcp_enumeration_equivalence", worst_diff <= 1e-9, cases=cases,
                   worst_abs_diff=worst_diff)


def comparison_principle(rng, problem, cases: int) -> dict:
    """Check 4: comparison_check at `cases` random beta, gamma and sub-rectangles."""
    verdicts = []
    for _ in range(cases):
        beta = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.uniform(-1.0, 0.0))
        rect = _random_subrect(rng, problem.grid.domain)
        verdicts.append(comparison_check(problem, beta, gamma, rect))
    worst = min((v.worst_margin for v in verdicts), default=np.inf)
    return _record("comparison_principle", all(v.passed for v in verdicts), cases=cases,
                   worst_margin=float(worst))


def _random_subrect(rng, domain: DomainRect):
    while True:
        xa, xb = np.sort(rng.uniform(domain.x1_min, domain.x1_max, size=2))
        ya, yb = np.sort(rng.uniform(domain.x2_min, domain.x2_max, size=2))
        if xb - xa > 0.1 * domain.length1 and yb - ya > 0.1 * domain.length2:
            return float(xa), float(xb), float(ya), float(yb)


def flat_reference_match(domain: DomainRect) -> dict:
    """Check 5: flat_reference_gap at 200 samples of a flat descent to t = 10.

    The descent (32x32 grid, F 1, eta0 1, eta1 -0.5, solver tol 1e-9)
    switches to RODAS 4(3) (at t ~ 7.0 on [-1, 1]^2), so both steppers
    are checked.  The verdict is on the reference with the series
    constant C, whose gap the grid's sqrt(C/L) - 1 dominates (1.45e-3 at
    32^2).  The record also reports the gap to the reference on the
    run's own discrete unit load L (max_rel_diff_discrete, 4.2e-8 on
    [-1, 1]^2): the integrator's error alone, which the verdict does not
    use.
    """
    grid = build_grid(domain, 32, 32)
    problem = Problem(shape=SliderShape.flat(), grid=grid, F=1.0, eta0=1.0, eta1=-0.5,
                      solver=SolverParams(tol=1e-9))
    traj = integrate_trajectory(problem, 10.0)
    model = flat_model(domain, 1.0, 1.0, -0.5)
    gap = flat_reference_gap(traj, model, 10.0, 200)
    discrete = flat_reference_gap(traj, replace(model, C_omega=flat_unit_load(grid)), 10.0, 200)
    return _record("flat_reference_match", gap.passed, max_rel_diff=gap.max_rel_diff,
                   max_envelope_violation=gap.max_envelope_violation,
                   max_rel_diff_discrete=discrete.max_rel_diff)
