"""Film force functional, slider height dynamics, and run diagnostics.

The slider height obeys eta'' = G(eta, eta') with
G(beta, gamma) = integral of the film pressure at clearance beta and
squeeze velocity gamma, minus the applied load F.  Two exact shortcuts
are used: gamma >= V1 forces zero pressure (G = -F), and for the flat
profile the film load scales exactly like (-gamma)/beta^3 times a single
cached unit load.

Every other film force is one projected-SOR solve, warm started by a
secant predictor of the last two solves.  A trajectory's first step
follows the Hairer-Norsett-Wanner starting-step rule, so it does not
depend on the horizon.

A trajectory is one adaptive step loop with two steppers.  It starts
with the explicit Dormand-Prince 5(4) pair.  The film acts like a spring
plus a damper whose coefficient -dG/dgamma grows like 1/beta^3, so a
decaying height makes the problem stiff.  A flat-profile run that the
DOPRI5 stiffness test flags, counted as Hairer's DOPRI5 code counts it,
continues with RODAS3, an L-stable Rosenbrock pair that takes the
analytic Jacobian of G from the cached unit load (GEvaluator.jacobian);
other shapes stay on Dormand-Prince.  The same loop clamps, guards,
accepts and rejects the steps of both.
"""

import math
from array import array
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .csvio import write_csv
from .errors import BoxOutsideDomain, NonPositiveClearance
from .geometry import (
    ContactBox,
    DomainRect,
    Grid,
    ShapeKind,
    SliderShape,
    compute_V1,
    region_node_mask,
    sup_height,
)
from .vi_solver import (
    DiscreteSystem,
    FilmGeometry,
    PressureField,
    assemble_system,
    film_geometry,
    load_integral,
    solve_linear,
    solve_vi_psor,
)

__all__ = [
    "SolverParams",
    "Problem",
    "StepControl",
    "Trajectory",
    "TerminationKind",
    "Termination",
    "BoundsReport",
    "MonitorReport",
    "SpringDamper",
    "GEvaluator",
    "bounds_report",
    "integrate_trajectory",
    "monitor_energies",
    "spring_damper_decomposition",
    "poincare_lambda1",
    "c1_constant",
]


@dataclass(frozen=True)
class SolverParams:
    """Pressure-solver knobs shared by every film solve of a run.

    omega None means suggested_omega of the grid of each solve, resolved
    by solve_vi_psor.  Frozen: a Problem keeps the caller's object as given.
    """

    omega: float | None = None
    tol: float = 1e-8
    max_iter: int | None = None


@dataclass(frozen=True, eq=False)
class Problem:
    """A slider run's data: profile, grid, load, initial state, solver knobs.

    Frozen: the beta-independent assembly data (film_geometry) is built
    once here and would go stale if the profile or grid changed;
    dataclasses.replace builds a new Problem instead.
    """

    shape: SliderShape
    grid: Grid
    F: float
    eta0: float
    eta1: float
    solver: SolverParams = field(default_factory=SolverParams)
    _geometry: FilmGeometry = field(init=False, repr=False)

    def __post_init__(self):
        for name, value in (("F", self.F), ("eta0", self.eta0), ("eta1", self.eta1)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.F <= 0.0:
            raise ValueError(f"applied load F must be positive, got {self.F}")
        if self.eta0 <= 0.0:
            raise ValueError(f"initial height eta0 must be positive, got {self.eta0}")
        object.__setattr__(self, "_geometry", film_geometry(self.grid, self.shape))

    def assemble(self, beta: float, gamma: float) -> DiscreteSystem:
        """The film system at clearance beta and squeeze velocity gamma."""
        return assemble_system(self.grid, self.shape, beta, gamma, geometry=self._geometry)

    def solve_film(
        self,
        beta: float,
        gamma: float,
        warm_start: np.ndarray | None = None,
        tol: float | None = None,
    ) -> PressureField:
        """The film solve: pressure at clearance beta and squeeze velocity gamma.

        Assembles the system and runs projected SOR with this problem's
        solver settings, started from warm_start when one is given; every
        film pressure of the package comes from here.  tol, when given,
        overrides solver.tol.  No shortcut is applied: a nonpositive load
        vector still returns the exact zero field from the solver itself.
        """
        s = self.solver
        return solve_vi_psor(
            self.assemble(beta, gamma),
            omega=s.omega,
            tol=s.tol if tol is None else tol,
            max_iter=s.max_iter,
            warm_start=warm_start,
        )


# a step under 1e-12 * t_end fails
_DT_MIN_FRACTION = 1e-12
# the run switches to RODAS3 once h |k7 - k6| > 3.25 |y7 - y6| has held on
# 15 accepted Dormand-Prince steps, counted as Hairer's DOPRI5 code counts
# them: a stiff step adds one, and only 6 non-stiff steps in a row reset
# the count
_STIFF_RHO, _STIFF_STEPS, _STIFF_RESET = 3.25, 15, 6


@dataclass
class StepControl:
    """Embedded Runge-Kutta step-size control parameters (the config's
    integrator section is this type plus the horizon t_end)."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    eps_contact: float | None = None  # defaults to 1e-4 * eta0
    max_samples: int = 2_000_000


class TerminationKind(Enum):
    REACHED_HORIZON = "reached_horizon"
    CONTACT_GUARD = "contact_guard"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    time: float
    detail: str = ""


@dataclass(frozen=True)
class MonitorSegment:
    start: int
    stop: int
    kind: str  # "descent" or "ascent"
    worst_violation: float
    passed: bool


@dataclass(frozen=True)
class MonitorReport:
    """Sampled monotonicity verdicts for the two mechanical energies.

    While the slider descends, the kinetic-plus-potential energy E1 must
    not increase: dE1/dt = eta' * (film load) with eta' <= 0.  While it
    ascends, the barrier-augmented energy E2 must not increase either:
    dE2/dt = eta' * (load - c1/eta^3) and the ascending film load never
    exceeds c1/eta^3.  Violations beyond the tolerance flag a solver or
    stepping problem.
    """

    segments: tuple
    worst_violation: float
    passed: bool
    tol: float


@dataclass(eq=False)
class Trajectory:
    """Accepted integrator samples in trajectory order plus diagnostics."""

    t: np.ndarray
    eta: np.ndarray
    eta_dot: np.ndarray
    G: np.ndarray
    load: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    psor_iters: np.ndarray
    termination: Termination
    n_rejected: int
    monitor: MonitorReport | None = None
    stiff_from: float | None = None  # time of the switch to RODAS3, None if none
    # every film solve of the run and its sweeps: the start probe and the
    # stages of rejected steps included
    n_solves: int = 0
    n_sweeps: int = 0

    def __len__(self) -> int:
        return self.t.size

    def to_csv(self, path) -> None:
        write_csv(
            path,
            {
                "t": self.t,
                "eta": self.eta,
                "eta_dot": self.eta_dot,
                "G": self.G,
                "load": self.load,
                "E1": self.E1,
                "E2": self.E2,
                "psor_iters": self.psor_iters,
            },
        )


def poincare_lambda1(domain: DomainRect) -> float:
    """First Dirichlet eigenvalue of the rectangle, pi^2 (1/L1^2 + 1/L2^2)."""
    return math.pi**2 * (1.0 / domain.length1**2 + 1.0 / domain.length2**2)


def c1_constant(shape: SliderShape, domain: DomainRect) -> float:
    """Constructive constant in the load upper bound G <= c1 / beta^3 - F.

    Chains the energy estimate of the film problem with Cauchy-Schwarz
    and the sharp rectangle Poincare constant:
    c1 = sup|h0| * |Omega| / sqrt(lambda1).
    """
    return sup_height(shape, domain) * domain.area / math.sqrt(poincare_lambda1(domain))


@dataclass(frozen=True)
class BoundsReport:
    """Computable a-priori constants for a problem plus admissibility verdicts.

    D3 and D4 (the height barrier chain) depend on non-constructive
    constants and are reported symbolically only.
    """

    shape: str
    alpha: float | None
    V1: float
    V2: float
    V3: float
    c1: float
    lambda1: float
    h0_sup: float
    D1: float
    D2: float
    s1: float | None
    s2: float | None
    steady_state_guaranteed: bool | None
    global_bounds_guaranteed: bool | None
    gradient_kink_flagged: bool
    D3_D4: str = "not computable (non-constructive constants c3, c4, beta0)"

    def to_dict(self) -> dict:
        return asdict(self)


def bounds_report(problem: Problem) -> BoundsReport:
    """Evaluate every computable constant of the height/velocity bounds."""
    shape, grid = problem.shape, problem.grid
    F, eta0, eta1 = problem.F, problem.eta0, problem.eta1
    v1 = compute_V1(shape, grid)
    c1 = c1_constant(shape, grid.domain)
    lam1 = poincare_lambda1(grid.domain)
    v2 = max(eta1 + 1.0, v1)
    d1 = (c1 / F) ** (1.0 / 3.0)
    term_start = (0.5 * eta1**2 + F * eta0 + c1 / (2.0 * eta0**2)) / F
    barrier_at_d1 = c1 / (2.0 * d1**2) if c1 > 0.0 else 0.0
    term_turn = (0.5 * v2**2 + F * d1 + barrier_at_d1) / F
    d2 = 2.0 * max(eta0, d1, term_start, term_turn)
    v3 = max(
        1.0 - eta1,
        2.0 * math.sqrt(2.0 * F * d2),
        2.0 * math.sqrt(eta1**2 + 2.0 * F * eta0),
    )
    s1 = s2 = glob = None
    alpha = shape.alpha
    if shape.kind is ShapeKind.LINE_CONTACT:
        s1 = 2.0 * (1.0 - 1.0 / alpha)
        s2 = 2.0 - 3.0 / alpha
        glob = alpha >= 1.5
    elif shape.kind is ShapeKind.POINT_CONTACT:
        s1 = 2.0 - 3.0 / alpha
        s2 = 2.0 - 4.0 / alpha
        glob = alpha >= 2.0
    elif shape.kind is ShapeKind.FLAT:
        glob = True  # height stays positive but decays to zero
    return BoundsReport(
        shape=shape.describe(),
        alpha=alpha,
        V1=v1,
        V2=v2,
        V3=v3,
        c1=c1,
        lambda1=lam1,
        h0_sup=sup_height(shape, grid.domain),
        D1=d1,
        D2=d2,
        s1=s1,
        s2=s2,
        steady_state_guaranteed=shape.steady_state_guaranteed,
        global_bounds_guaranteed=glob,
        gradient_kink_flagged=shape.gradient_kink,
    )


def _check_state(beta: float, gamma: float) -> None:
    """Reject a state at which the film force is undefined."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise NonPositiveClearance(f"film force undefined at beta = {beta}")
    if not math.isfinite(gamma):
        raise ValueError(f"film force undefined at gamma = {gamma}")


class GEvaluator:
    """Film force along a run: the exact shortcuts and the warm chain.

    Every film force of the package comes from here.  gamma >= V1 gives
    the zero field outright.  For the flat profile the operator is
    beta^3 times a fixed stencil and the load vector is (-gamma) times a
    fixed one, so eval scales one cached unit load (beta 1, gamma -1) by
    (-gamma)/beta^3, the exact discrete load at every (beta, gamma).
    Any other field is one Problem.solve_film, warm started from the
    secant predictor of the last two solves (see field).  Cached and
    cutoff evaluations report 0 sweeps.  n_solves and n_sweeps count the
    solves made and their sweeps.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.V1 = compute_V1(problem.shape, problem.grid)
        self._flat = problem.shape.kind is ShapeKind.FLAT
        # the last solve's values, where it was made, and (beta, gamma, p) of the one before
        self._warm: np.ndarray | None = None
        self._warm_at = (math.nan, math.nan)
        self._prior: tuple[float, float, np.ndarray] | None = None
        self._flat_load_unit: float | None = None
        self.n_solves = 0
        self.n_sweeps = 0

    def eval(self, beta: float, gamma: float) -> tuple[float, float, int]:
        """Return (G, film load, solver sweeps) at (beta, gamma).

        G is load_integral of field(beta, gamma) minus F, except for the
        flat profile below the cutoff: there the load is a scalar on the
        cached unit load, which keeps the evaluations of a decay run
        cheap; the unit solve runs at tol min(solver.tol, 1e-10).  A
        non-finite state skips the shortcut and is rejected by field
        before any solve.
        """
        if self._flat and 0.0 < beta < math.inf and -math.inf < gamma < self.V1:
            iters = 0
            if self._flat_load_unit is None:
                unit = self.problem.solve_film(1.0, -1.0, tol=min(self.problem.solver.tol, 1e-10))
                self.n_solves += 1
                self.n_sweeps += unit.iterations
                self._flat_load_unit = load_integral(unit, self.problem.grid)
                iters = unit.iterations
            load = (-gamma) * self._flat_load_unit / beta**3
            return load - self.problem.F, load, iters
        fld = self.field(beta, gamma)
        load = load_integral(fld, self.problem.grid)
        return load - self.problem.F, load, fld.iterations

    def field(self, beta: float, gamma: float) -> PressureField:
        """Materialize the pressure field at (beta, gamma): the zero field
        at gamma >= V1, else one solve, warm started by the secant
        predictor of the last two solves.

        With p0 at (beta0, gamma0) and p1 at (beta1, gamma1), the start is
        p1 + s (p1 - p0), where s projects (beta - beta1, gamma - gamma1)
        onto (beta1 - beta0, gamma1 - gamma0); the solver projects it onto
        p >= 0.  A point behind p1 (s < 0) starts from p1: interpolating
        hands the solve the errors of both fields, and a solve that stops
        after a sweep or two keeps them.  After a single solve the start
        is p1, and with no earlier solve (_warm None) the solve is cold.  A
        non-finite state is rejected before any solve.
        """
        _check_state(beta, gamma)
        if gamma >= self.V1:
            ny, nx = self.problem.grid.ny, self.problem.grid.nx
            return PressureField(
                values=np.zeros((ny, nx)), residual_comp=0.0, residual_lin=0.0, iterations=0
            )
        start = self._warm
        if start is not None and self._prior is not None:
            beta0, gamma0, p0 = self._prior
            beta1, gamma1 = self._warm_at
            db, dg = beta1 - beta0, gamma1 - gamma0
            dd = db * db + dg * dg
            if dd > 0.0:
                s = max(0.0, ((beta - beta1) * db + (gamma - gamma1) * dg) / dd)
                start = start + s * (start - p0)
        sol = self.problem.solve_film(beta, gamma, warm_start=start)
        self.n_solves += 1
        self.n_sweeps += sol.iterations
        self._prior = None if self._warm is None else (*self._warm_at, self._warm)
        self._warm, self._warm_at = sol.values, (beta, gamma)
        return sol

    def jacobian(self, beta: float, gamma: float) -> tuple[float, float]:
        """(dG/dbeta, dG/dgamma) of the flat profile at (beta, gamma), the
        second row of the Jacobian of (eta, eta') -> (eta', G).

        Zero at gamma >= V1, where G = -F.  Below it, from the cached unit
        load L (the load eval reports at beta 1, gamma -1):
        dG/dgamma = -L/beta^3 and dG/dbeta = 3 gamma L/beta^4.  Other
        shapes have no film Jacobian here.  A non-finite state is rejected
        as in field.
        """
        if not self._flat:
            raise ValueError("the film Jacobian is available for the flat profile only")
        _check_state(beta, gamma)
        if gamma >= self.V1:
            return 0.0, 0.0
        unit = self.eval(1.0, -1.0)[1]
        return 3.0 * gamma * unit / beta**4, -unit / beta**3


# Dormand-Prince 5(4) coefficients; the system is autonomous so stage
# times are not needed.  FSAL: the last stage of an accepted step is the
# first stage of the next.
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_E = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    0.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)


def _dp_step(f, y, v, g, h):
    """One Dormand-Prince 5(4) step of (eta, eta')' = (eta', G) from (y, v).

    g = G(y, v) is the first stage; f(eta, eta') returns G first and is
    called six times.  Returns (y_new, v_new, err_y, err_v, f7, stiff):
    f7, f's result at stage 7, is taken at the new state exactly (FSAL),
    and stiff is DOPRI5's verdict h |k7 - k6| > _STIFF_RHO |y7 - y6|.

    The tableau is unrolled, each combination as sum()'s left fold over
    its terms: from 0.0 (so a -0.0 term gives +0.0), zero coefficients
    kept, which makes every result bit-equal to the generic tableau sums.
    The last row of A is b, and b7 = 0 adds only +-0.0 to a fold that is
    never -0.0, so the new state is stage 7's argument.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _DP_A[1:5]
    a61, a62, a63, a64, a65 = _DP_A[5]
    b1, b2, b3, b4, b5, b6, _ = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    k1y, k1v = v, g
    k2y = v + h * (0.0 + a21 * k1v)
    k2v = f(y + h * (0.0 + a21 * k1y), k2y)[0]
    k3y = v + h * (0.0 + a31 * k1v + a32 * k2v)
    k3v = f(y + h * (0.0 + a31 * k1y + a32 * k2y), k3y)[0]
    k4y = v + h * (0.0 + a41 * k1v + a42 * k2v + a43 * k3v)
    k4v = f(y + h * (0.0 + a41 * k1y + a42 * k2y + a43 * k3y), k4y)[0]
    k5y = v + h * (0.0 + a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
    k5v = f(y + h * (0.0 + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y), k5y)[0]
    k6y = v + h * (0.0 + a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
    y6 = y + h * (0.0 + a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y)
    k6v = f(y6, k6y)[0]
    k7y = v + h * (0.0 + b1 * k1v + b2 * k2v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
    y7 = y + h * (0.0 + b1 * k1y + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
    f7 = f(y7, k7y)
    k7v = f7[0]
    err_y = h * (0.0 + e1 * k1y + e2 * k2y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
    err_v = h * (0.0 + e1 * k1v + e2 * k2v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
    # the two states differ by (y7 - y6, k7y - k6y): a state's velocity is its first slope
    dky, dkv, dy = k7y - k6y, k7v - k6v, y7 - y6
    stiff = h * h * (dky * dky + dkv * dkv) > _STIFF_RHO**2 * (dy * dy + dky * dky)
    return y7, k7y, err_y, err_v, f7, stiff


# RODAS3 (Sandu et al., Atmos. Environ. 31, 1997), autonomous form: a
# 4-stage, stiffly accurate, L-stable Rosenbrock 3(2) pair with gamma 1/2.
# Stage i solves (I/(h gamma) - J) K_i = f(y + sum a_ij K_j) + sum c_ij K_j / h;
# a21 = a32 = a42 = 0, so stage 2 reuses f(y) and stage 4 is evaluated at
# y + 2 K1 + K3.  y_new = y + 2 K1 + K3 + K4 (m = (2, 0, 1, 1)), error K4.
_R3_GAMMA = 0.5
_R3_A31, _R3_A43 = 2.0, 1.0  # a41 = a31
_R3_C21, _R3_C31, _R3_C32, _R3_C41, _R3_C42, _R3_C43 = 4.0, 1.0, -1.0, 1.0, -1.0, -8.0 / 3.0


def _rodas3_step(f, y, v, g, jb, jg, h):
    """One RODAS3 step of (eta, eta')' = (eta', G) from (y, v).

    g = G(y, v) and J = [[0, 1], [jb, jg]] at (y, v); f(eta, eta') returns
    G first and is called twice.  Each stage's 2x2 system is solved by
    Cramer's rule.  Returns (y_new, v_new, err_y, err_v).
    """
    a = 1.0 / (h * _R3_GAMMA)
    d = a - jg
    det = a * d - jb
    hi = 1.0 / h
    k1y, k1v = (d * v + g) / det, (a * g + jb * v) / det
    r1, r2 = v + _R3_C21 * hi * k1y, g + _R3_C21 * hi * k1v
    k2y, k2v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    y3, v3 = y + _R3_A31 * k1y, v + _R3_A31 * k1v
    g3 = f(y3, v3)[0]
    r1 = v3 + hi * (_R3_C31 * k1y + _R3_C32 * k2y)
    r2 = g3 + hi * (_R3_C31 * k1v + _R3_C32 * k2v)
    k3y, k3v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    y4, v4 = y3 + _R3_A43 * k3y, v3 + _R3_A43 * k3v
    g4 = f(y4, v4)[0]
    r1 = v4 + hi * (_R3_C41 * k1y + _R3_C42 * k2y + _R3_C43 * k3y)
    r2 = g4 + hi * (_R3_C41 * k1v + _R3_C42 * k2v + _R3_C43 * k3v)
    k4y, k4v = (d * r1 + r2) / det, (a * r2 + jb * r1) / det
    return y4 + k4y, v4 + k4v, k4y, k4v


class _StageContact(Exception):
    pass


def _initial_step(f, y, v, ky, kv, abs_tol, rel_tol, t_end):
    """The first step size: the starting-step rule of Hairer, Norsett and
    Wanner (Solving ODEs I, sec. II.4) for the order-5 pair.

    (ky, kv) = f0, the derivative at the start (y, v).  Norms are the
    controller's weighted RMS norm with scale abs_tol + rel_tol |y0|.
    h0 = 0.01 |y0| / |f0| (1e-6 when either norm is below 1e-5) sizes one
    explicit Euler probe f1 = f(y0 + h0 f0), made through the guarded f;
    a probe at or below the contact guard starts the run at h0.  With
    d2 = |f1 - f0| / h0 the step is min(100 h0, h1, t_end), where
    h1 = (0.01 / max(|f0|, d2))^(1/5), or max(1e-6, 1e-3 h0) when both
    vanish (a start at rest in equilibrium).
    """
    sy, sv = abs_tol + rel_tol * abs(y), abs_tol + rel_tol * abs(v)

    def norm(a, b):
        return math.sqrt(0.5 * ((a / sy) ** 2 + (b / sv) ** 2))

    d0, d1 = norm(y, v), norm(ky, kv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    try:
        g1 = f(y + h0 * ky, v + h0 * kv)[0]
    except _StageContact:
        return min(h0, t_end)
    d2 = norm(v + h0 * kv - ky, g1 - kv) / h0
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, h1, t_end)


def integrate_trajectory(
    problem: Problem, t_end: float, step_control: StepControl | None = None
) -> Trajectory:
    """Integrate the height equation: Dormand-Prince, switching to RODAS3 when stiff.

    Parameters
    ----------
    problem : Problem
        Shape, grid, load and initial data; solver knobs are taken from
        problem.solver for every film solve.
    t_end : float
        Integration horizon (> 0).
    step_control : StepControl, optional
        Error tolerances, contact guard and sample cap; the guard
        defaults to 1e-4 * eta0.

    Returns
    -------
    Trajectory
        Accepted samples (t, eta, eta', G, load, E1, E2, sweeps), the
        termination record, the energy-monitor report, the time of the
        switch to RODAS3 (stiff_from, None when the run never switched),
        and the run's film solves and sweeps (n_solves, n_sweeps).

    Notes
    -----
    Every derivative evaluation is one film solve, warm started by
    GEvaluator's secant predictor along the step chain; the exact
    shortcuts of GEvaluator apply.  The first step size comes from the
    starting-step rule of Hairer, Norsett and Wanner (_initial_step): it
    costs one more force evaluation, an explicit Euler probe, and depends
    on t_end only through the cap dt <= t_end.

    One step loop serves both steppers and owns the controller: the cap
    dt <= t_end - t, the weighted RMS error with scale
    abs_tol + rel_tol max(|y|, |y_new|), acceptance at error <= 1, the
    step factor 0.9 err^(-1/(q+1)) clamped to [0.2, 5] for an error
    estimate of order q (5 at zero error), a retry at 0.2 h when the
    error is not finite, and a retry at 0.25 h when a stage or the end
    point falls to the contact guard.  A stepper contributes its
    step, its exponent and what follows an accepted step.

    The run starts with the embedded Dormand-Prince 5(4) pair (_dp_step,
    exponent -1/5): its seventh stage is the accepted state, so that
    force value is the sample and the next step's first stage (FSAL).
    Each step also applies the stiffness test of Hairer's DOPRI5 code,
    h |k7 - k6| > 3.25 |y7 - y6| (_STIFF_RHO; Euclidean norms, y6 the
    argument of stage 6, y7 the new state): |k7 - k6| / |y7 - y6|
    estimates the spectral radius of the Jacobian, and 3.25 is about
    where h times it leaves DP's stability region.  The count follows
    DOPRI5: each accepted stiff step adds one, and 6 accepted non-stiff
    steps in a row (_STIFF_RESET) set it back to 0.  When it reaches 15
    (_STIFF_STEPS), the rest of the run takes RODAS3 steps (_rodas3_step,
    exponent -1/3): the L-stable Rosenbrock pair needs no step
    restriction from the damping dG/deta' ~ -1/eta^3.  Each RODAS3 step
    makes two force evaluations, plus one at the accepted state that is
    its sample; the Jacobian (GEvaluator.jacobian) is taken once per
    accepted state and reused when a step is retried.  The switch is
    one-way, and only the flat profile makes it: its Jacobian is
    analytic.  Other shapes have no film Jacobian and stay on
    Dormand-Prince throughout.

    The run ends with CONTACT_GUARD when the height falls to the guard
    and with STEP_FAILURE when the controller underflows 1e-12 * t_end or
    an accepted step would add a sample beyond max_samples.  That step
    is dropped: the trajectory holds at most max_samples samples and the
    termination time is that of its last sample.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    sc = step_control or StepControl()
    if sc.max_samples < 2:
        raise ValueError("max_samples must be at least 2")
    eps_contact = sc.eps_contact if sc.eps_contact is not None else 1e-4 * problem.eta0
    dt_min = _DT_MIN_FRACTION * t_end
    abs_tol, rel_tol, max_samples = sc.abs_tol, sc.rel_tol, sc.max_samples
    ev = GEvaluator(problem)
    can_switch = problem.shape.kind is ShapeKind.FLAT
    c1 = c1_constant(problem.shape, problem.grid.domain)
    F = problem.F

    ts, etas, vels, gs, loads = (array("d") for _ in range(5))
    sweeps = array("q")

    def record(t, eta, v, g, load, iters):
        ts.append(t)
        etas.append(eta)
        vels.append(v)
        gs.append(g)
        loads.append(load)
        sweeps.append(iters)

    def finish(kind, time, detail=""):
        eta, eta_dot = np.frombuffer(etas), np.frombuffer(vels)
        energy1 = 0.5 * eta_dot * eta_dot + F * eta
        traj = Trajectory(
            t=np.frombuffer(ts),
            eta=eta,
            eta_dot=eta_dot,
            G=np.frombuffer(gs),
            load=np.frombuffer(loads),
            E1=energy1,
            E2=energy1 + (c1 / (2.0 * eta * eta) if c1 else 0.0),
            psor_iters=np.frombuffer(sweeps, dtype=np.int64),
            termination=Termination(kind=kind, time=time, detail=detail),
            n_rejected=n_rejected,
            stiff_from=stiff_from,
            n_solves=ev.n_solves,
            n_sweeps=ev.n_sweeps,
        )
        traj.monitor = monitor_energies(traj)
        return traj

    ev_eval = ev.eval

    def f(eta, v):
        """One derivative evaluation: returns (eta'', load, sweeps)."""
        if eta <= eps_contact:
            raise _StageContact
        return ev_eval(eta, v)

    t = 0.0
    y = problem.eta0
    v = problem.eta1
    n_rejected = 0
    stiff_run = calm_run = 0
    stiff_from = jac = None  # jac: the Jacobian (dG/deta, dG/deta') once on RODAS3
    expo = -0.2  # the controller exponent, -1/(1 + the error estimate's order)
    if y <= eps_contact:
        raise ValueError("eta0 is already at the contact guard")

    g, load, iters = f(y, v)
    record(t, y, v, g, load, iters)
    dt = _initial_step(f, y, v, v, g, abs_tol, rel_tol, t_end)

    while t < t_end * (1.0 - 1e-15):
        dt = min(dt, t_end - t)
        if dt < dt_min:
            return finish(TerminationKind.STEP_FAILURE, t, f"step size underflow (dt={dt:.3e})")
        try:
            if jac is None:
                y_new, v_new, err_y, err_v, f_new, stiff = _dp_step(f, y, v, g, dt)
            else:
                y_new, v_new, err_y, err_v = _rodas3_step(f, y, v, g, *jac, dt)
                if y_new <= eps_contact:  # f is evaluated there once accepted
                    raise _StageContact
        except _StageContact:
            # a stage probed at or below the guard: shrink, or give up and
            # report the guard when the step cannot be resolved
            if dt * 0.25 < dt_min or y <= 2.0 * eps_contact:
                return finish(
                    TerminationKind.CONTACT_GUARD,
                    t,
                    f"height reached the contact guard {eps_contact:.3e}",
                )
            dt *= 0.25
            n_rejected += 1
            continue
        sy = abs_tol + rel_tol * max(abs(y), abs(y_new))
        sv = abs_tol + rel_tol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((err_y / sy) ** 2 + (err_v / sv) ** 2))
        if not math.isfinite(err):
            dt *= 0.2
            n_rejected += 1
            continue
        if err > 1.0:
            n_rejected += 1
            dt *= max(0.2, 0.9 * err**expo)
            continue
        if len(ts) >= max_samples:
            return finish(TerminationKind.STEP_FAILURE, t, "max_samples exceeded")
        t, y, v = t + dt, y_new, v_new
        dt *= min(5.0, max(0.2, 0.9 * err**expo)) if err > 0.0 else 5.0
        if jac is None:
            # FSAL: stage 7 was evaluated at (y, v); it is this sample and
            # the next step's first stage
            g, load, iters = f_new
            if can_switch:
                if stiff:
                    stiff_run, calm_run = stiff_run + 1, 0
                else:
                    calm_run += 1
                    if calm_run == _STIFF_RESET:
                        stiff_run = 0
                if stiff_run == _STIFF_STEPS:
                    stiff_from, expo = t, -1.0 / 3.0
        else:
            g, load, iters = f(y, v)
        record(t, y, v, g, load, iters)
        if stiff_from is not None:
            jac = ev.jacobian(y, v)
    return finish(TerminationKind.REACHED_HORIZON, t)


_MONITOR_KINDS = (None, "descent", "ascent")


def monitor_energies(trajectory: Trajectory, tol: float = 1e-4) -> MonitorReport:
    """Check the sampled energy monotonicity laws segment by segment.

    Consecutive sample pairs with eta' <= 0 at both ends must not
    increase E1; pairs with eta' >= 0 at both ends must not increase E2
    (see MonitorReport).  Pairs straddling a sign change are not
    constrained.  Segments are maximal runs of same-kind pairs; the
    report carries the worst violation found anywhere.
    """
    n = len(trajectory)
    segments = []
    worst = 0.0
    if n >= 2:
        v = np.asarray(trajectory.eta_dot)
        descent = (v[:-1] <= 0.0) & (v[1:] <= 0.0)
        ascent = ~descent & (v[:-1] >= 0.0) & (v[1:] >= 0.0)
        rise = np.where(
            descent, np.diff(trajectory.E1), np.where(ascent, np.diff(trajectory.E2), 0.0)
        )
        # max(0, rise) as a comparison, so that a NaN rise counts as 0
        violation = np.where(rise > 0.0, rise, 0.0)
        kind = descent + 2 * ascent  # index into _MONITOR_KINDS
        starts = np.flatnonzero(np.diff(kind, prepend=-1))
        stops = np.append(starts[1:], n - 1)
        seg_worst = np.maximum.reduceat(violation, starts)
        for start, stop, k, w in zip(
            starts.tolist(), stops.tolist(), kind[starts].tolist(), seg_worst.tolist()
        ):
            if k:
                segments.append(
                    MonitorSegment(
                        start=start,
                        stop=stop,
                        kind=_MONITOR_KINDS[k],
                        worst_violation=w,
                        passed=w <= tol,
                    )
                )
                worst = max(worst, w)
    return MonitorReport(
        segments=tuple(segments), worst_violation=worst, passed=worst <= tol, tol=tol
    )


@dataclass(frozen=True)
class SpringDamperCheck:
    gamma: float
    G: float
    lower_bound: float
    margin: float


@dataclass(eq=False)
class SpringDamper:
    """Lower-bound decomposition of the film force on a sub-region.

    G(beta, gamma) >= F_S - gamma * d - F for every gamma: F_S is the
    stationary wedge load of the region, d its damping coefficient.  The
    checks record the inequality margin against the film force.
    """

    beta: float
    F_S: float
    d: float
    checks: tuple
    passed: bool


def spring_damper_decomposition(
    problem: Problem,
    beta: float,
    box: ContactBox,
    check_gammas: tuple = (-1.0, -0.5, 0.0),
    check_tol: float = 1e-6,
) -> SpringDamper:
    """Solve the two auxiliary region problems and verify the force bound.

    The wedge problem (load -dh0/dx1) gives the spring force F_S, the
    unit-load problem the damping coefficient d, both on the box with
    zero boundary data.  The bound G >= F_S - gamma d - F is then checked
    against the film force of one GEvaluator at the requested gammas.
    """
    grid = problem.grid
    mask = region_node_mask(grid, box)
    if not np.any(mask):
        raise BoxOutsideDomain("no grid nodes fall inside the box; refine the grid")
    system = problem.assemble(beta, 0.0)
    q1 = solve_linear(system, tol=1e-11, mask=mask)  # b at gamma=0 is the wedge load
    ones = np.full_like(system.b, grid.cell_area)
    q2 = solve_linear(system, rhs_override=ones, tol=1e-11, mask=mask)
    F_S = float(np.sum(q1.values[mask])) * grid.cell_area
    d = float(np.sum(q2.values[mask])) * grid.cell_area

    checks = []
    ev = GEvaluator(problem)
    ok = True
    for gamma in check_gammas:
        g_val = ev.eval(beta, gamma)[0]
        lower = F_S - gamma * d - problem.F
        margin = g_val - lower
        checks.append(SpringDamperCheck(gamma=gamma, G=g_val, lower_bound=lower, margin=margin))
        ok = ok and margin >= -check_tol
    return SpringDamper(beta=beta, F_S=F_S, d=d, checks=tuple(checks), passed=ok)
