"""Coupled slider / cavitating lubricant film simulator.

Solves the nonnegative-pressure film problem at each instant, feeds the
film load into the vertical motion of a rigid slider, locates steady
clearances, and checks the run against independently computed reference
values.  All quantities are dimensionless.
"""

from .errors import (
    BoxOutsideDomain,
    BracketFailure,
    InadmissibleShape,
    InvalidDomain,
    NoConvergence,
    NonPositiveClearance,
    ParseError,
    SliderFilmError,
    TooCoarse,
    UnsupportedShape,
    ValidationError,
)
from .geometry import (
    DomainRect,
    Grid,
    Sector,
    ShapeKind,
    SliderShape,
    build_grid,
    compute_V1,
    contact_box,
)
from .vi_solver import (
    DiscreteSystem,
    PressureField,
    assemble_system,
    load_integral,
    solve_linear,
    solve_vi_psor,
    suggested_omega,
)
from .dynamics import (
    BoundsReport,
    GEvaluator,
    Problem,
    SolverParams,
    StepControl,
    Termination,
    TerminationKind,
    Trajectory,
    bounds_report,
    integrate_trajectory,
    monitor_energies,
    spring_damper_decomposition,
)
from .steady import Bracket, GCurve, GPoint, SteadyResult, find_bracket, find_steady, g_curve
from .config import RunConfig, parse_config

__version__ = "0.1.0"
