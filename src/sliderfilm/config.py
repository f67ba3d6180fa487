"""Run configuration: JSON schema, validation, round-trip serialization.

The section dataclasses are the schema (`domain` is a `DomainRect`,
`solver` a `SolverParams`, `integrator` a `StepControl` plus `t_end`),
and `_read_section` reads every section by their annotations.  Absent
fields take `RunConfig()`'s values; `null` is accepted for the `X | None`
fields, for `gcurve.betas` (the default list) and for a whole section.
Unknown keys anywhere in the document are hard errors (a typo in a
physical parameter must never be silently ignored).  A section is valid
exactly when its type can be built: each type checks its own fields and
raises ValidationError naming the field, which `_read_section` reports
under the section's path.  No rule spans sections.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

from .dynamics import SolverParams, StepControl, check_physics
from .errors import ParseError, ValidationError, check_positive
from .geometry import DomainRect, ShapeKind, SliderShape, check_node_count

__all__ = ["RunConfig", "parse_config", "default_gcurve_betas"]

_CONTACT_VARIANTS = ("line_contact", "point_contact")


def default_gcurve_betas() -> list[float]:
    # log-spaced sweep covering both asymptotic regimes at desk scale
    lo, hi, n = math.log10(0.01), math.log10(10.0), 25
    return [10.0 ** (lo + (hi - lo) * k / (n - 1)) for k in range(n)]


@dataclass
class ShapeConfig:
    variant: Literal["line_contact", "point_contact", "flat", "tabulated"] = "line_contact"
    alpha: float | None = 2.0  # contact variants only; None for the others
    table_path: str | None = None  # tabulated only

    def __post_init__(self):
        contact = self.variant in _CONTACT_VARIANTS
        if contact:  # SliderShape holds alpha's range
            SliderShape(ShapeKind(self.variant), alpha=self.alpha)
        if self.variant == "tabulated" and not self.table_path:
            raise ValidationError("table_path", "required for tabulated shapes")
        if not contact and self.alpha is not None:
            raise ValidationError("alpha", "applies only to contact shapes; omit it or use null")
        if self.variant != "tabulated" and self.table_path is not None:
            raise ValidationError(
                "table_path", "applies only to tabulated shapes; omit it or use null"
            )


@dataclass
class GridConfig:
    nx: int = 64
    ny: int = 64

    def __post_init__(self):
        check_node_count("nx", self.nx)
        check_node_count("ny", self.ny)


@dataclass
class PhysicsConfig:
    F: float = 1.0
    eta0: float = 1.0
    eta1: float = 0.0

    def __post_init__(self):
        check_physics(self)


@dataclass(frozen=True)
class _Horizon:
    t_end: float = 10.0


# StepControl plus t_end; fields are collected from the last base first,
# so t_end leads the section when it is read, checked and serialized
@dataclass(frozen=True)
class IntegratorConfig(StepControl, _Horizon):
    def __post_init__(self):
        check_positive(self, "t_end")
        super().__post_init__()


@dataclass
class SteadyConfig:
    beta_init: float = 0.5
    tol_residual: float = 1e-6

    def __post_init__(self):
        check_positive(self, "beta_init", "tol_residual")


@dataclass
class GCurveConfig:
    betas: list[float] = field(default_factory=default_gcurve_betas)

    def __post_init__(self):
        if not all(b > 0.0 for b in self.betas):
            raise ValidationError("betas", "all entries must be > 0")


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

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError("seed", "must be a nonnegative integer")

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


def _read_section(default, raw, path):
    """Build the section that the JSON object raw describes, of default's type.

    Unknown keys fail; each field present is read by its annotation, in
    declaration order; absent fields, and a null list, keep the default,
    except that an absent shape.alpha is None for a non-contact variant.
    The type's rejection of a value is reported under path.
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
    if path == "shape" and "alpha" not in raw and values["variant"] not in _CONTACT_VARIANTS:
        values["alpha"] = None
    try:
        return type(default)(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}.{exc.path}", exc.constraint) from exc


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
    for name in (f.name for f in fields(RunConfig) if f.name != "seed"):
        raw = doc.pop(name, None)
        if raw is not None:
            setattr(cfg, name, _read_section(getattr(cfg, name), raw, name))
    if "seed" in doc:
        cfg = replace(cfg, seed=doc.pop("seed"))
    if doc:
        extra = sorted(doc)[0]
        raise ParseError(f"unknown key '{extra}'", path=extra)
    return cfg
