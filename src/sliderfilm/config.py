"""Run configuration: JSON schema, validation, round-trip serialization.

Unknown keys anywhere in the document are hard errors (a typo in a
physical parameter must never be silently ignored), and every positivity
constraint of the underlying modules is re-checked at parse time so
failures carry the JSON field path.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from .dynamics import SolverParams
from .errors import ParseError, ValidationError

__all__ = ["RunConfig", "parse_config", "default_gcurve_betas"]

_SHAPE_VARIANTS = ("line_contact", "point_contact", "flat", "tabulated")


def default_gcurve_betas() -> list[float]:
    # log-spaced sweep covering both asymptotic regimes at desk scale
    lo, hi, n = math.log10(0.01), math.log10(10.0), 25
    return [10.0 ** (lo + (hi - lo) * k / (n - 1)) for k in range(n)]


@dataclass
class DomainConfig:
    x1_min: float = -1.0
    x1_max: float = 1.0
    x2_min: float = -1.0
    x2_max: float = 1.0


@dataclass
class ShapeConfig:
    variant: str = "line_contact"
    alpha: float | None = 2.0
    table_path: str | None = None


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
class IntegratorConfig:
    t_end: float = 10.0
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    eps_contact: float | None = None  # null -> 1e-4 * eta0
    max_samples: int = 2_000_000


@dataclass
class SteadyConfig:
    beta_init: float = 0.5
    tol_residual: float = 1e-6
    tol_beta: float | None = None
    max_expansions: int = 60
    max_bisections: int = 200


@dataclass
class GCurveConfig:
    betas: list = field(default_factory=default_gcurve_betas)


@dataclass
class OracleConfig:
    fourier_cutoff: int = 99
    fine_grid: int = 192
    lcp_cases: int = 100
    comparison_cases: int = 20


@dataclass
class RunConfig:
    domain: DomainConfig = field(default_factory=DomainConfig)
    shape: ShapeConfig = field(default_factory=ShapeConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    solver: SolverParams = field(default_factory=SolverParams)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    steady: SteadyConfig = field(default_factory=SteadyConfig)
    gcurve: GCurveConfig = field(default_factory=GCurveConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


def _float_field(raw, path, *, allow_none=False):
    if raw is None and allow_none:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(path, f"must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(path, f"must be finite, got {value!r}")
    return value


def _int_field(raw, path, *, allow_none=False):
    if raw is None and allow_none:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(path, f"must be an integer, got {raw!r}")
    return raw


def _bool_field(raw, path):
    if not isinstance(raw, bool):
        raise ValidationError(path, f"must be a boolean, got {raw!r}")
    return raw


def _known_keys(obj) -> tuple:
    return tuple(asdict(obj).keys())


def _parse_domain(d, path):
    out = DomainConfig(
        x1_min=_float_field(d.get("x1_min", -1.0), f"{path}.x1_min"),
        x1_max=_float_field(d.get("x1_max", 1.0), f"{path}.x1_max"),
        x2_min=_float_field(d.get("x2_min", -1.0), f"{path}.x2_min"),
        x2_max=_float_field(d.get("x2_max", 1.0), f"{path}.x2_max"),
    )
    if not out.x1_min < 0.0 < out.x1_max:
        raise ValidationError(f"{path}.x1_min", "domain must contain 0 strictly: x1_min < 0 < x1_max")
    if not out.x2_min < 0.0 < out.x2_max:
        raise ValidationError(f"{path}.x2_min", "domain must contain 0 strictly: x2_min < 0 < x2_max")
    return out


def _parse_shape(d, path):
    variant = d.get("variant", "line_contact")
    if variant not in _SHAPE_VARIANTS:
        raise ValidationError(f"{path}.variant", f"must be one of {_SHAPE_VARIANTS}")
    alpha = _float_field(d.get("alpha", 2.0 if variant in ("line_contact", "point_contact") else None),
                         f"{path}.alpha", allow_none=True)
    table_path = d.get("table_path")
    if table_path is not None and not isinstance(table_path, str):
        raise ValidationError(f"{path}.table_path", "must be a string path")
    if variant in ("line_contact", "point_contact"):
        if alpha is None or alpha < 1.0:
            raise ValidationError(f"{path}.alpha", "must be >= 1 for contact shapes")
    if variant == "tabulated" and not table_path:
        raise ValidationError(f"{path}.table_path", "required for tabulated shapes")
    if variant == "flat":
        alpha = None
    return ShapeConfig(variant=variant, alpha=alpha, table_path=table_path)


def _parse_grid(d, path):
    out = GridConfig(
        nx=_int_field(d.get("nx", 64), f"{path}.nx"),
        ny=_int_field(d.get("ny", 64), f"{path}.ny"),
    )
    if out.nx < 3:
        raise ValidationError(f"{path}.nx", "must be >= 3")
    if out.ny < 3:
        raise ValidationError(f"{path}.ny", "must be >= 3")
    return out


def _parse_physics(d, path):
    out = PhysicsConfig(
        F=_float_field(d.get("F", 1.0), f"{path}.F"),
        eta0=_float_field(d.get("eta0", 1.0), f"{path}.eta0"),
        eta1=_float_field(d.get("eta1", 0.0), f"{path}.eta1"),
    )
    if out.F <= 0.0:
        raise ValidationError(f"{path}.F", "must be > 0")
    if out.eta0 <= 0.0:
        raise ValidationError(f"{path}.eta0", "must be > 0")
    return out


def _parse_solver(d, path):
    out = SolverParams(
        omega=_float_field(d.get("omega"), f"{path}.omega", allow_none=True),
        tol=_float_field(d.get("tol", 1e-8), f"{path}.tol"),
        max_iter=_int_field(d.get("max_iter"), f"{path}.max_iter", allow_none=True),
        warm_start=_bool_field(d.get("warm_start", True), f"{path}.warm_start"),
    )
    if out.omega is not None and not 0.0 < out.omega < 2.0:
        raise ValidationError(f"{path}.omega", "must lie in (0, 2)")
    if out.tol <= 0.0:
        raise ValidationError(f"{path}.tol", "must be > 0")
    if out.max_iter is not None and out.max_iter < 1:
        raise ValidationError(f"{path}.max_iter", "must be >= 1")
    return out


def _parse_integrator(d, path):
    out = IntegratorConfig(
        t_end=_float_field(d.get("t_end", 10.0), f"{path}.t_end"),
        rel_tol=_float_field(d.get("rel_tol", 1e-6), f"{path}.rel_tol"),
        abs_tol=_float_field(d.get("abs_tol", 1e-9), f"{path}.abs_tol"),
        eps_contact=_float_field(d.get("eps_contact"), f"{path}.eps_contact", allow_none=True),
        max_samples=_int_field(d.get("max_samples", 2_000_000), f"{path}.max_samples"),
    )
    if out.t_end <= 0.0:
        raise ValidationError(f"{path}.t_end", "must be > 0")
    if out.rel_tol <= 0.0 or out.abs_tol <= 0.0:
        raise ValidationError(f"{path}.rel_tol", "tolerances must be > 0")
    if out.eps_contact is not None and out.eps_contact <= 0.0:
        raise ValidationError(f"{path}.eps_contact", "must be > 0 when given")
    if out.max_samples < 2:
        raise ValidationError(f"{path}.max_samples", "must be >= 2")
    return out


def _parse_steady(d, path):
    out = SteadyConfig(
        beta_init=_float_field(d.get("beta_init", 0.5), f"{path}.beta_init"),
        tol_residual=_float_field(d.get("tol_residual", 1e-6), f"{path}.tol_residual"),
        tol_beta=_float_field(d.get("tol_beta"), f"{path}.tol_beta", allow_none=True),
        max_expansions=_int_field(d.get("max_expansions", 60), f"{path}.max_expansions"),
        max_bisections=_int_field(d.get("max_bisections", 200), f"{path}.max_bisections"),
    )
    if out.beta_init <= 0.0:
        raise ValidationError(f"{path}.beta_init", "must be > 0")
    if out.tol_residual <= 0.0:
        raise ValidationError(f"{path}.tol_residual", "must be > 0")
    return out


def _parse_gcurve(d, path):
    raw = d.get("betas", None)
    if raw is None:
        return GCurveConfig()
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}.betas", "must be a non-empty list of numbers")
    betas = [_float_field(v, f"{path}.betas[{k}]") for k, v in enumerate(raw)]
    if any(b <= 0.0 for b in betas):
        raise ValidationError(f"{path}.betas", "all entries must be > 0")
    return GCurveConfig(betas=betas)


def _parse_oracle(d, path):
    out = OracleConfig(
        fourier_cutoff=_int_field(d.get("fourier_cutoff", 99), f"{path}.fourier_cutoff"),
        fine_grid=_int_field(d.get("fine_grid", 192), f"{path}.fine_grid"),
        lcp_cases=_int_field(d.get("lcp_cases", 100), f"{path}.lcp_cases"),
        comparison_cases=_int_field(d.get("comparison_cases", 20), f"{path}.comparison_cases"),
    )
    if out.fourier_cutoff < 1:
        raise ValidationError(f"{path}.fourier_cutoff", "must be >= 1")
    if out.fine_grid < 16:
        raise ValidationError(f"{path}.fine_grid", "must be >= 16")
    if out.lcp_cases < 1:
        raise ValidationError(f"{path}.lcp_cases", "must be >= 1")
    if out.comparison_cases < 1:
        raise ValidationError(f"{path}.comparison_cases", "must be >= 1")
    return out


_SECTIONS = {
    "domain": (_parse_domain, DomainConfig),
    "shape": (_parse_shape, ShapeConfig),
    "grid": (_parse_grid, GridConfig),
    "physics": (_parse_physics, PhysicsConfig),
    "solver": (_parse_solver, SolverParams),
    "integrator": (_parse_integrator, IntegratorConfig),
    "steady": (_parse_steady, SteadyConfig),
    "gcurve": (_parse_gcurve, GCurveConfig),
    "oracle": (_parse_oracle, OracleConfig),
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

    kwargs = {}
    for name, (parser, default_cls) in _SECTIONS.items():
        raw = doc.pop(name, None)
        if raw is None:
            kwargs[name] = default_cls()
            continue
        if not isinstance(raw, dict):
            raise ParseError(f"'{name}' must be an object", path=name)
        known = set(_known_keys(default_cls()))
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ParseError(f"unknown key '{name}.{unknown[0]}'", path=f"{name}.{unknown[0]}")
        kwargs[name] = parser(raw, name)

    if "seed" in doc:
        seed = doc.pop("seed")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValidationError("seed", "must be a nonnegative integer")
        kwargs["seed"] = seed
    if doc:
        extra = sorted(doc)[0]
        raise ParseError(f"unknown key '{extra}'", path=extra)
    cfg = RunConfig(**kwargs)
    eps = cfg.integrator.eps_contact
    if eps is not None and eps >= cfg.physics.eta0:
        raise ValidationError(
            "integrator.eps_contact", "must be below the initial height physics.eta0"
        )
    return cfg
