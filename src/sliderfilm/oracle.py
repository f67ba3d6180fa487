"""Reference computations and the `verify` checks built on them.

The references are independent of the production paths: the flat-case
constant comes from a Fourier series, the reference descent integrates
the flat model's first integral, a first-order scalar ODE, by 3-stage
Radau IIA collocation (the production integrator steps the second-order
system by Dormand-Prince, switching to RODAS 4(3) when stiff; the two
share no tables), and complementarity problems are solved exactly by
least-index principal pivoting on dense linear algebra.  The
comparison-principle check differs by design: it checks the production
film solve (a fresh GEvaluator's field) against an unconstrained
sub-region solve.  The five `verify` checks close the module, each
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
    a / sqrt(t + b) for t >= t0.  From t0 on eta' <= 0 for good, since
    eta'' = -F < 0 wherever eta' = 0, so eta'' = -C eta' / eta^3 - F
    and the first integral I = eta' - C / (2 eta^2) + F t stays at its
    value at t0: the model is the scalar ODE eta' = C / (2 eta^2) + I - F t.
    """

    C_omega: float
    F: float
    eta0: float
    eta1: float
    t0: float
    eta0_hat: float
    a: float
    b: float


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


# Radau IIA, 3 stages, order 5 (Hairer & Wanner, Solving ODEs II, IV.8):
# nodes, coefficients, the weights e of the embedded error estimate and
# u, the real eigenvalue of A^-1.  A has trace 3/5, second invariant 3/20
# and determinant 1/60, so by Cayley-Hamilton
#   (I - mu A)^-1 = (mu^2 A^2 + mu (1 - 3 mu/5) A + (1 - 3 mu/5 + 3 mu^2/20) I) / q(mu),
#   q(mu) = 1 - 3 mu/5 + 3 mu^2/20 - mu^3/60,
# which is positive for every mu <= 0.
_S6 = math.sqrt(6.0)
_RADAU_C = ((4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0)
_RADAU_A = (
    ((88.0 - 7.0 * _S6) / 360.0, (296.0 - 169.0 * _S6) / 1800.0, (-2.0 + 3.0 * _S6) / 225.0),
    ((296.0 + 169.0 * _S6) / 1800.0, (88.0 + 7.0 * _S6) / 360.0, (-2.0 - 3.0 * _S6) / 225.0),
    ((16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0),
)
# A^2 by plain left folds from 0.0: sum() of floats is compensated from Python 3.12
_RADAU_A2 = tuple(
    tuple(0.0 + a0 * c0 + a1 * c1 + a2 * c2 for c0, c1, c2 in zip(*_RADAU_A))
    for a0, a1, a2 in _RADAU_A
)
_RADAU_E = (-(13.0 + 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0)
_RADAU_U = 30.0 / (6.0 + 81.0 ** (1.0 / 3.0) - 9.0 ** (1.0 / 3.0))


def _radau_stages(phi, t, eta, h, mu, z, tol):
    """The Radau IIA stage increments Z = h A phi(t + c h, eta + Z), or None.

    Simplified Newton from Z = z on the step's scalar Jacobian, mu = h J:
    each correction is (I - mu A)^-1 (h A phi - Z), until the largest is
    at most tol.  None after 10 corrections, or when a stage height
    eta + Z_i is not positive.
    """
    (c1, c2, _), (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = _RADAU_C, *_RADAU_A
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = _RADAU_A2
    q = 1.0 + mu * (-0.6 + mu * (0.15 - mu / 60.0))
    k2, k1, k0 = mu * mu / q, mu * (1.0 - 0.6 * mu) / q, (1.0 - 0.6 * mu + 0.15 * mu * mu) / q
    m11, m12, m13 = k2 * b11 + k1 * a11 + k0, k2 * b12 + k1 * a12, k2 * b13 + k1 * a13
    m21, m22, m23 = k2 * b21 + k1 * a21, k2 * b22 + k1 * a22 + k0, k2 * b23 + k1 * a23
    m31, m32, m33 = k2 * b31 + k1 * a31, k2 * b32 + k1 * a32, k2 * b33 + k1 * a33 + k0
    z1, z2, z3 = z
    for _ in range(10):
        if not eta + min(z1, z2, z3) > 0.0:
            return None
        f1, f2, f3 = phi(t + c1 * h, eta + z1), phi(t + c2 * h, eta + z2), phi(t + h, eta + z3)
        r1 = h * (a11 * f1 + a12 * f2 + a13 * f3) - z1
        r2 = h * (a21 * f1 + a22 * f2 + a23 * f3) - z2
        r3 = h * (a31 * f1 + a32 * f2 + a33 * f3) - z3
        d1 = m11 * r1 + m12 * r2 + m13 * r3
        d2 = m21 * r1 + m22 * r2 + m23 * r3
        d3 = m31 * r1 + m32 * r2 + m33 * r3
        z1, z2, z3 = z1 + d1, z2 + d2, z3 + d3
        if max(abs(d1), abs(d2), abs(d3)) <= tol:
            return (z1, z2, z3) if eta + min(z1, z2, z3) > 0.0 else None
    return None


def _radau_start(z, h_old, h):
    """Newton's start for a step of size h after an accepted step (h_old, z).

    The accepted step's collocation polynomial through (0, 0) and
    (c_i, z_i), in Newton's divided differences on the nodes 1, c2, c1, 0,
    continued to the new nodes and taken relative to its end value z3, as
    in Hairer & Wanner's RADAU5.
    """
    (c1, c2, _), (z1, z2, z3) = _RADAU_C, z
    d1, d12 = (z2 - z3) / (c2 - 1.0), (z1 - z2) / (c1 - c2)
    d2 = (d12 - d1) / (c1 - 1.0)
    d3 = d2 - (d12 - z1 / c1) / c2
    s1, s2, s3 = c1 * h / h_old, c2 * h / h_old, h / h_old
    return (
        s1 * (d1 + (s1 + 1.0 - c2) * (d2 + (s1 + 1.0 - c1) * d3)),
        s2 * (d1 + (s2 + 1.0 - c2) * (d2 + (s2 + 1.0 - c1) * d3)),
        s3 * (d1 + (s3 + 1.0 - c2) * (d2 + (s3 + 1.0 - c1) * d3)),
    )


def flat_reference_trajectory(
    model: FlatModel, t_end: float, fine_tol: float = 1e-8, *, t_eval: np.ndarray
) -> RefTrajectory:
    """The flat model at the times of t_eval up to t_end; no film solves involved.

    Through the coast (eta1 > 0, until t0) the height is the exact
    parabola.  After it the first integral I (FlatModel) reduces the model
    to eta' = C / (2 eta^2) + I - F t, which 3-stage Radau IIA integrates
    at relative tolerance fine_tol: per step a simplified Newton iteration
    on J = -C / eta^3 to 1e-3 of the tolerance, the embedded error
    estimate (Hairer & Wanner, Solving ODEs II, IV.8) and the step
    exponent -1/4.  Steps land on every time of t_eval, and eta' is
    reported from the first integral.
    """
    F, half_C = model.F, 0.5 * model.C_omega
    targets = np.asarray(t_eval, dtype=float)
    t0 = min(model.t0, t_end)
    coast = targets[targets <= t0 + 1e-14]
    ts = coast.tolist()
    etas = (-0.5 * F * coast * coast + model.eta1 * coast + model.eta0).tolist()
    vs = (model.eta1 - F * coast).tolist()

    eta, t = model.eta0_hat, t0
    integral = min(model.eta1, 0.0) - half_C / (eta * eta) + F * t0

    def phi(t, eta):
        return half_C / (eta * eta) + integral - F * t

    (e1, e2, e3), atol = _RADAU_E, 1e-3 * fine_tol
    h, n_steps, accepted = 1e-3, 0, None
    for target in targets[(targets > t0 + 1e-14) & (targets <= t_end + 1e-12)].tolist():
        while t < target:
            last = t + h >= target
            if last:
                h = target - t
            sc = atol + fine_tol * eta
            mu = -2.0 * half_C * h / (eta * eta * eta)  # h J
            start = (0.0, 0.0, 0.0) if accepted is None else _radau_start(*accepted, h)
            z = _radau_stages(phi, t, eta, h, mu, start, 1e-3 * sc)
            if z is None:  # Newton failed
                h *= 0.5
            else:
                z1, z2, z3 = z
                err = abs(h * phi(t, eta) + e1 * z1 + e2 * z2 + e3 * z3) / (_RADAU_U - mu) / sc
                if err <= 1.0:
                    t, eta, accepted = (target if last else t + h), eta + z3, (z, h)
                    n_steps += 1
                h *= min(5.0, max(0.2, 0.9 * err**-0.25)) if err > 0.0 else 5.0
            if h < 1e-14 * max(1.0, t_end):
                raise RuntimeError("reference integrator step underflow")
        ts.append(t)
        etas.append(eta)
        vs.append(phi(t, eta))
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
    closed form, which the tests check against CG.  The grid's spacing,
    not its node count, sets its error, so the shorter side takes n_fine
    nodes and the longer one round(n_fine r), r the aspect ratio: a
    square keeps n_fine x n_fine, and an elongated domain passes where a
    square grid would not (test_check_1_passes_on_a_10_to_1_domain).
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
    switches to RODAS 4(3) on the way, so both steppers are checked
    against the Radau IIA reference on the first integral.  The verdict
    is on the reference with the series constant C, whose gap the grid's
    sqrt(C/L) - 1 dominates.  The record also reports the gap to the
    reference on the run's own discrete unit load L
    (max_rel_diff_discrete): the integrator's error alone, which the
    verdict does not use and TestIntegratorReference bounds.
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
