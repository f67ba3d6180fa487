"""Reference computations used by tests and `verify`.

The references are independent of the production paths: the flat-case
constant comes from a Fourier series, the reference descent integrates
a scalar ODE with a Cash-Karp 4(5) pair (the production integrator uses
Dormand-Prince, switching to RODAS3 when stiff), and tiny
complementarity problems are solved by enumerating active sets against
dense linear algebra.  The
comparison-principle check differs by design: it checks the production
film solve (Problem.solve_film) against an unconstrained sub-region solve.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSolution, TooLarge
from .geometry import DomainRect, region_node_mask
from .vi_solver import DiscreteSystem, PressureField, lcp_residuals, solve_linear

__all__ = [
    "FourierConstant",
    "FlatModel",
    "RefTrajectory",
    "flat_C_omega",
    "flat_model",
    "flat_envelope",
    "flat_reference_trajectory",
    "lcp_enumerate",
    "comparison_check",
    "ComparisonVerdict",
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


_ENUM_CHUNK = 4096


def lcp_enumerate(system: DiscreteSystem) -> PressureField:
    """Solve a tiny complementarity problem by enumerating active sets.

    For each candidate set of zero-pressure nodes the complementary
    linear system is solved densely; the unique candidate with p >= 0 and
    slack >= 0 is returned (the operator is positive definite, so the
    solution is unique).  The solution shares nothing with the sweep
    solver beyond the assembled system; only its residuals are computed
    by the shared lcp_residuals.
    """
    n = system.n
    if n > 16:
        raise TooLarge(f"enumeration oracle limited to 16 nodes, got {n}")
    A, b = system.dense()
    ny, nx = system.b.shape
    idx = np.arange(n)

    for k in range(n + 1):
        combos = itertools.combinations(idx, k)
        while True:
            chunk = list(itertools.islice(combos, _ENUM_CHUNK))
            if not chunk:
                break
            free = np.array(chunk, dtype=int).reshape(len(chunk), k)
            p_full = np.zeros((len(chunk), n))
            if k > 0:
                sub = A[free[:, :, None], free[:, None, :]]
                rhs = b[free]
                sol = np.linalg.solve(sub, rhs[:, :, None])[:, :, 0]
                np.put_along_axis(p_full, free, sol, axis=1)
            slack = p_full @ A.T - b
            ptol = 1e-10 * (1.0 + np.max(np.abs(p_full), axis=1))
            stol = 1e-10 * (1.0 + np.max(np.abs(slack), axis=1))
            ok = np.all(p_full >= -ptol[:, None], axis=1) & np.all(
                slack >= -stol[:, None], axis=1
            )
            hits = np.flatnonzero(ok)
            if hits.size:
                p = np.maximum(p_full[hits[0]], 0.0).reshape(ny, nx)
                comp, lin = lcp_residuals(system, p)
                return PressureField(
                    values=p, residual_comp=comp, residual_lin=lin, iterations=0
                )
    raise NoSolution("no feasible active set; the assembled operator is not an M-matrix?")


@dataclass(frozen=True)
class ComparisonVerdict:
    worst_margin: float
    passed: bool
    n_nodes: int


def comparison_check(problem, beta: float, gamma: float, region) -> ComparisonVerdict:
    """Check domination of the constrained solution over a sub-region solve.

    Solves the full constrained problem for q through the production
    film solve at the problem's own settings, then the unconstrained
    problem on the sub-region with the same operator and load and zero
    data on the inner boundary, and verifies q >= r - 10 * solver.tol
    nodewise.  A region holding no grid node passes without solving.
    """
    mask = region_node_mask(problem.grid, region)
    n_nodes = int(np.count_nonzero(mask))
    if n_nodes == 0:
        return ComparisonVerdict(worst_margin=0.0, passed=True, n_nodes=0)
    q = problem.solve_film(beta, gamma)
    r = solve_linear(problem.assemble(beta, gamma), tol=1e-11, mask=mask)
    margin = float(np.min(q.values[mask] - r.values[mask]))
    return ComparisonVerdict(margin, margin >= -10.0 * problem.solver.tol, n_nodes)
