"""Run configuration: JSON schema, validation, round-trip serialization.

The section dataclasses are the schema (`domain` is a `DomainRect`,
`solver` a `SolverParams`, `integrator` a `StepControl` plus `t_end`),
and `_read_section` reads every section by their annotations.  Absent
fields take `RunConfig()`'s values; `null` is accepted for the `X | None`
fields, for `gcurve.betas` (the default list) and for a whole section.
Unknown keys anywhere in the document are hard errors (a typo in a
physical parameter must never be silently ignored), as is a shape field
the variant does not use; every positivity constraint of the underlying
modules is re-checked at parse time so failures carry the field path.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace, UnionType
from typing import Literal, get_args, get_origin, get_type_hints

from .dynamics import SolverParams, StepControl
from .errors import ParseError, ValidationError
from .geometry import DomainRect

__all__ = ["RunConfig", "parse_config", "default_gcurve_betas"]

_CONTACT_VARIANTS = ("line_contact", "point_contact")


def default_gcurve_betas() -> list[float]:
    # log-spaced sweep covering both asymptotic regimes at desk scale
    lo, hi, n = math.log10(0.01), math.log10(10.0), 25
    return [10.0 ** (lo + (hi - lo) * k / (n - 1)) for k in range(n)]


@dataclass
class ShapeConfig:
    variant: Literal["line_contact", "point_contact", "flat", "tabulated"] = "line_contact"
    alpha: float | None = 2.0  # contact variants only
    table_path: str | None = None  # tabulated only


@dataclass
class GridConfig:
    nx: int = 64
    ny: int = 64


@dataclass
class PhysicsConfig:
    F: float = 1.0
    eta0: float = 1.0
    eta1: float = 0.0


@dataclass
class _Horizon:
    t_end: float = 10.0


# StepControl plus t_end; fields are collected from the last base first,
# so t_end leads the section when it is read, checked and serialized
@dataclass
class IntegratorConfig(StepControl, _Horizon):
    pass


@dataclass
class SteadyConfig:
    beta_init: float = 0.5
    tol_residual: float = 1e-6


@dataclass
class GCurveConfig:
    betas: list[float] = field(default_factory=default_gcurve_betas)


@dataclass
class RunConfig:
    domain: DomainRect = field(default_factory=lambda: DomainRect(-1.0, 1.0, -1.0, 1.0))
    shape: ShapeConfig = field(default_factory=ShapeConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    solver: SolverParams = field(default_factory=SolverParams)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    steady: SteadyConfig = field(default_factory=SteadyConfig)
    gcurve: GCurveConfig = field(default_factory=GCurveConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


def _float_field(raw, path):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(path, f"must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(path, f"must be finite, got {value!r}")
    return value


def _int_field(raw, path):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(path, f"must be an integer, got {raw!r}")
    return raw


def _str_field(raw, path):  # the only string field is a file path
    if not isinstance(raw, str):
        raise ValidationError(path, "must be a string path")
    return raw


def _float_list_field(raw, path):
    if not isinstance(raw, list) or not raw:
        raise ValidationError(path, "must be a non-empty list of numbers")
    return [_float_field(v, f"{path}[{k}]") for k, v in enumerate(raw)]


_READERS = {float: _float_field, int: _int_field, str: _str_field, list[float]: _float_list_field}


def _read_value(hint, raw, path):
    origin = get_origin(hint)
    if origin is UnionType:  # X | None
        return None if raw is None else _read_value(get_args(hint)[0], raw, path)
    if origin is Literal:
        if raw not in get_args(hint):
            raise ValidationError(path, f"must be one of {get_args(hint)}")
        return raw
    return _READERS[hint](raw, path)


def _read_section(default, raw, path) -> SimpleNamespace:
    """Read the JSON object raw against the dataclass instance default.

    Unknown keys fail; each field present is read by its annotation, in
    declaration order; absent fields, and a null list, keep the default.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"'{path}' must be an object", path=path)
    values = {f.name: getattr(default, f.name) for f in fields(default)}
    unknown = sorted(set(raw) - set(values))
    if unknown:
        raise ParseError(f"unknown key '{path}.{unknown[0]}'", path=f"{path}.{unknown[0]}")
    hints = get_type_hints(type(default))
    for name in values:
        if name in raw and not (raw[name] is None and get_origin(hints[name]) is list):
            values[name] = _read_value(hints[name], raw[name], f"{path}.{name}")
    return SimpleNamespace(**values)


def _check_domain(d, raw, path):
    if not d.x1_min < 0.0 < d.x1_max:
        raise ValidationError(f"{path}.x1_min", "domain must contain 0 strictly: x1_min < 0 < x1_max")
    if not d.x2_min < 0.0 < d.x2_max:
        raise ValidationError(f"{path}.x2_min", "domain must contain 0 strictly: x2_min < 0 < x2_max")


def _check_shape(s, raw, path):
    if s.variant in _CONTACT_VARIANTS and (s.alpha is None or s.alpha < 1.0):
        raise ValidationError(f"{path}.alpha", "must be >= 1 for contact shapes")
    if s.variant == "tabulated" and not s.table_path:
        raise ValidationError(f"{path}.table_path", "required for tabulated shapes")
    if s.variant not in _CONTACT_VARIANTS:
        if raw.get("alpha") is not None:
            raise ValidationError(f"{path}.alpha", "applies only to contact shapes; omit it or use null")
        s.alpha = None
    if s.variant != "tabulated" and s.table_path is not None:
        raise ValidationError(f"{path}.table_path", "applies only to tabulated shapes; omit it or use null")


def _check_grid(g, raw, path):
    if g.nx < 3:
        raise ValidationError(f"{path}.nx", "must be >= 3")
    if g.ny < 3:
        raise ValidationError(f"{path}.ny", "must be >= 3")


def _check_physics(p, raw, path):
    if p.F <= 0.0:
        raise ValidationError(f"{path}.F", "must be > 0")
    if p.eta0 <= 0.0:
        raise ValidationError(f"{path}.eta0", "must be > 0")


def _check_solver(s, raw, path):
    if s.omega is not None and not 0.0 < s.omega < 2.0:
        raise ValidationError(f"{path}.omega", "must lie in (0, 2)")
    if s.tol <= 0.0:
        raise ValidationError(f"{path}.tol", "must be > 0")


def _check_integrator(i, raw, path):
    if i.t_end <= 0.0:
        raise ValidationError(f"{path}.t_end", "must be > 0")
    if i.rel_tol <= 0.0:
        raise ValidationError(f"{path}.rel_tol", "must be > 0")
    if i.abs_tol <= 0.0:
        raise ValidationError(f"{path}.abs_tol", "must be > 0")
    if i.eps_contact is not None and i.eps_contact <= 0.0:
        raise ValidationError(f"{path}.eps_contact", "must be > 0 when given")


def _check_steady(s, raw, path):
    if s.beta_init <= 0.0:
        raise ValidationError(f"{path}.beta_init", "must be > 0")
    if s.tol_residual <= 0.0:
        raise ValidationError(f"{path}.tol_residual", "must be > 0")


def _check_gcurve(g, raw, path):
    if any(b <= 0.0 for b in g.betas):
        raise ValidationError(f"{path}.betas", "all entries must be > 0")


# the range checks of each section, in document order
_CHECKS = {
    "domain": _check_domain,
    "shape": _check_shape,
    "grid": _check_grid,
    "physics": _check_physics,
    "solver": _check_solver,
    "integrator": _check_integrator,
    "steady": _check_steady,
    "gcurve": _check_gcurve,
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Fills documented defaults for absent fields; any unknown key fails
    with its path, any constraint violation with path and constraint.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg} (line {exc.lineno})", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("configuration must be a JSON object")

    cfg = RunConfig()
    for name, check in _CHECKS.items():
        raw = doc.pop(name, None)
        if raw is None:
            continue
        default = getattr(cfg, name)
        section = _read_section(default, raw, name)
        check(section, raw, name)
        setattr(cfg, name, type(default)(**vars(section)))

    if "seed" in doc:
        seed = doc.pop("seed")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValidationError("seed", "must be a nonnegative integer")
        cfg.seed = seed
    if doc:
        extra = sorted(doc)[0]
        raise ParseError(f"unknown key '{extra}'", path=extra)
    eps = cfg.integrator.eps_contact
    if eps is not None and eps >= cfg.physics.eta0:
        raise ValidationError(
            "integrator.eps_contact", "must be below the initial height physics.eta0"
        )
    return cfg
