"""Every library type rejects a value outside its range when it is built,
with a ValidationError (a ValueError) that names the field."""

import math
from functools import partial

import pytest

from sliderfilm.dynamics import Problem, SolverParams, StepControl, integrate_trajectory
from sliderfilm.errors import ValidationError
from sliderfilm.geometry import DomainRect, ShapeKind, SliderShape, build_grid

NAN, INF = math.nan, math.inf
GRID = partial(build_grid, DomainRect(-1.0, 1.0, -1.0, 1.0))
FLAT = partial(Problem, SliderShape.flat(), GRID(nx=8, ny=8))
# (h0 + beta)^3 = (x1^2 + beta)^3 overflows on this domain, whose sides and
# their squares are finite
WIDE = partial(Problem, SliderShape.line_contact(2.0),
               build_grid(DomainRect(-1.0, 1e100, -1.0, 1.0), 8, 8))

# (constructor, keyword arguments, the field the error names)
BAD = [
    (SolverParams, dict(omega=0.0), "omega"),
    (SolverParams, dict(omega=2.0), "omega"),
    (SolverParams, dict(omega=5.0), "omega"),
    (SolverParams, dict(omega=-1.0), "omega"),
    (SolverParams, dict(omega=NAN), "omega"),
    (SolverParams, dict(tol=0.0), "tol"),
    (SolverParams, dict(tol=-1.0), "tol"),
    (SolverParams, dict(tol=NAN), "tol"),
    (SolverParams, dict(tol=INF), "tol"),
    (StepControl, dict(rel_tol=0.0), "rel_tol"),
    (StepControl, dict(rel_tol=-1e-6), "rel_tol"),
    (StepControl, dict(rel_tol=NAN), "rel_tol"),
    (StepControl, dict(rel_tol=INF), "rel_tol"),
    (StepControl, dict(abs_tol=0.0), "abs_tol"),
    (StepControl, dict(abs_tol=-1e-9), "abs_tol"),
    (StepControl, dict(abs_tol=NAN), "abs_tol"),
    (StepControl, dict(abs_tol=INF), "abs_tol"),
    (DomainRect, dict(x1_min=-INF, x1_max=1.0, x2_min=-1.0, x2_max=1.0), "x1_min"),
    (DomainRect, dict(x1_min=-1.0, x1_max=INF, x2_min=-1.0, x2_max=1.0), "x1_max"),
    (DomainRect, dict(x1_min=-1.0, x1_max=1.0, x2_min=NAN, x2_max=1.0), "x2_min"),
    (DomainRect, dict(x1_min=-1.0, x1_max=1.0, x2_min=-1.0, x2_max=INF), "x2_max"),
    (DomainRect, dict(x1_min=0.0, x1_max=1.0, x2_min=-1.0, x2_max=1.0), "x1_min"),
    (DomainRect, dict(x1_min=-1.0, x1_max=-0.5, x2_min=-1.0, x2_max=1.0), "x1_min"),
    (DomainRect, dict(x1_min=-1.0, x1_max=1.0, x2_min=0.5, x2_max=1.0), "x2_min"),
    (DomainRect, dict(x1_min=-1.0, x1_max=1.0, x2_min=-1.0, x2_max=0.0), "x2_min"),
    # a side, or its square, beyond the float range
    (DomainRect, dict(x1_min=-1e308, x1_max=1e308, x2_min=-1.0, x2_max=1.0), "x1_min"),
    (DomainRect, dict(x1_min=-1e200, x1_max=1e200, x2_min=-1e200, x2_max=1e200), "x1_min"),
    (DomainRect, dict(x1_min=-1e160, x1_max=1e160, x2_min=-1.0, x2_max=1.0), "x1_min"),
    (DomainRect, dict(x1_min=-1.0, x1_max=1.0, x2_min=-1e160, x2_max=1e160), "x2_min"),
    (SliderShape.line_contact, dict(alpha=NAN), "alpha"),
    (SliderShape.line_contact, dict(alpha=INF), "alpha"),
    (SliderShape.line_contact, dict(alpha=0.5), "alpha"),
    (SliderShape.point_contact, dict(alpha=-INF), "alpha"),
    (SliderShape.point_contact, dict(alpha=INF), "alpha"),
    (partial(SliderShape, ShapeKind.LINE_CONTACT), dict(alpha=None), "alpha"),
    (GRID, dict(nx=3.5, ny=4), "nx"),
    (GRID, dict(nx=4, ny=4.0), "ny"),
    (GRID, dict(nx=True, ny=4), "nx"),
    (GRID, dict(nx="8", ny=8), "nx"),
    (GRID, dict(nx=2, ny=4), "nx"),
    (GRID, dict(nx=4, ny=-1), "ny"),
    (FLAT, dict(F=0.0, eta0=1.0, eta1=0.0), "F"),
    (FLAT, dict(F=1.0, eta0=-1.0, eta1=0.0), "eta0"),
    (FLAT, dict(F=1.0, eta0=1.0, eta1=NAN), "eta1"),
    (WIDE, dict(F=1.0, eta0=1.0, eta1=0.0), "domain"),
]


def _id(case):
    build, kwargs, path = case
    name = getattr(build, "__name__", None) or build.func.__name__
    return f"{name}-{path}=" + ",".join(map(repr, kwargs.values()))


@pytest.mark.parametrize("build, kwargs, path", BAD, ids=map(_id, BAD))
def test_bad_value_rejected_when_built(build, kwargs, path):
    with pytest.raises(ValueError) as exc:
        build(**kwargs)
    assert isinstance(exc.value, ValidationError)
    assert exc.value.path == path
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("solver", [dict(omega=5.0), dict(tol=-1.0), dict(tol=NAN)],
                         ids=["omega_5", "tol_negative", "tol_nan"])
def test_flat_run_with_bad_solver_settings_never_starts(solver):
    # these settings once went unchecked: the flat run needs no film solve,
    # so it reached its horizon as if they had a meaning
    def run():
        problem = Problem(shape=SliderShape.flat(), grid=GRID(nx=8, ny=8), F=1.0, eta0=1.0,
                          eta1=0.0, solver=SolverParams(**solver))
        return integrate_trajectory(problem, 1.0)

    with pytest.raises(ValidationError) as exc:
        run()
    assert exc.value.path == next(iter(solver))
