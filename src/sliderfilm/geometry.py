"""Domain, slider gap profiles and derived geometric quantities.

The gap between the moving plane and the slider is h0(x) + eta(t), with
h0 >= 0 vanishing where the slider comes closest to the plane.  Three
analytic profiles are supported (vanishing on a line, at a point, or
identically flat) together with tabulated profiles given nodewise.  A
profile is read on a grid's node lattice only: lattice_heights,
lattice_grad_x1 and edge_midpoint_heights.  All quantities are
dimensionless.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import (
    BoxOutsideDomain,
    InvalidDomain,
    NonPositiveClearance,
    TooCoarse,
    UnsupportedShape,
    ValidationError,
)

__all__ = [
    "DomainRect",
    "ShapeKind",
    "SliderShape",
    "TabulatedData",
    "Grid",
    "ContactBox",
    "BoxKind",
    "build_grid",
    "check_node_count",
    "compute_V1",
    "contact_box",
    "sup_height",
    "lattice_heights",
    "lattice_grad_x1",
    "edge_midpoint_heights",
    "region_node_mask",
    "load_tabulated_csv",
]


@dataclass(frozen=True)
class DomainRect:
    """Axis-aligned rectangle containing the origin strictly in its interior,
    whose side lengths and their squares are finite floats (so is its area,
    which is at most the larger square)."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float

    def __post_init__(self):
        for name in ("x1_min", "x1_max", "x2_min", "x2_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidDomain(f"must be finite, got {value!r}", path=name)
        contains = "domain must contain 0 strictly: {0}_min < 0 < {0}_max"
        if not self.x1_min < 0.0 < self.x1_max:
            raise InvalidDomain(contains.format("x1"), path="x1_min")
        if not self.x2_min < 0.0 < self.x2_max:
            raise InvalidDomain(contains.format("x2"), path="x2_min")
        for axis, length in (("x1", self.length1), ("x2", self.length2)):
            if not math.isfinite(length * length):
                raise InvalidDomain(
                    f"the side {axis}_max - {axis}_min and its square must be finite floats",
                    path=f"{axis}_min",
                )

    @property
    def length1(self) -> float:
        return self.x1_max - self.x1_min

    @property
    def length2(self) -> float:
        return self.x2_max - self.x2_min

    @property
    def area(self) -> float:
        return self.length1 * self.length2


class ShapeKind(Enum):
    LINE_CONTACT = "line_contact"
    POINT_CONTACT = "point_contact"
    FLAT = "flat"
    TABULATED = "tabulated"


@dataclass(frozen=True, eq=False)
class TabulatedData:
    """Nodewise profile on the full node lattice of a grid (boundary included).

    heights[j, i] and grad_x1[j, i] live at (xs[i], ys[j]).
    """

    xs: np.ndarray
    ys: np.ndarray
    heights: np.ndarray
    grad_x1: np.ndarray

    def __post_init__(self):
        if self.heights.shape != (self.ys.size, self.xs.size):
            raise InvalidDomain("tabulated heights do not match the node lattice")
        if self.grad_x1.shape != self.heights.shape:
            raise InvalidDomain("tabulated gradients do not match the node lattice")
        if np.any(self.heights < 0.0):
            raise InvalidDomain("tabulated heights must be nonnegative")
        # minimum must be zero, attained at a node nearest the origin
        i0 = int(np.argmin(np.abs(self.xs)))
        j0 = int(np.argmin(np.abs(self.ys)))
        if self.heights[j0, i0] > 1e-12:
            raise InvalidDomain(
                "tabulated profile must vanish at the node nearest the origin"
            )


@dataclass(frozen=True, eq=False)
class SliderShape:
    """Gap profile variant; analytic variants use the pure power profile."""

    kind: ShapeKind
    alpha: float | None = None
    table: TabulatedData | None = None

    def __post_init__(self):
        if self.kind in (ShapeKind.LINE_CONTACT, ShapeKind.POINT_CONTACT):
            if self.alpha is None or not self.alpha >= 1.0:
                raise InvalidDomain("must be >= 1 for contact shapes", path="alpha")
            if not math.isfinite(self.alpha):
                raise InvalidDomain(f"must be finite, got {self.alpha!r}", path="alpha")
        if self.kind is ShapeKind.TABULATED and self.table is None:
            raise InvalidDomain("tabulated shape requires a data table")

    @staticmethod
    def line_contact(alpha: float) -> "SliderShape":
        return SliderShape(ShapeKind.LINE_CONTACT, alpha=float(alpha))

    @staticmethod
    def point_contact(alpha: float) -> "SliderShape":
        return SliderShape(ShapeKind.POINT_CONTACT, alpha=float(alpha))

    @staticmethod
    def flat() -> "SliderShape":
        return SliderShape(ShapeKind.FLAT)

    @staticmethod
    def tabulated(table: TabulatedData) -> "SliderShape":
        return SliderShape(ShapeKind.TABULATED, table=table)

    @property
    def gradient_kink(self) -> bool:
        """True when alpha == 1: the slope jumps across the contact set.

        The gradient is reported as 0 there by convention; run summaries
        surface this flag so the configuration is never misused silently.
        """
        return (
            self.kind in (ShapeKind.LINE_CONTACT, ShapeKind.POINT_CONTACT)
            and self.alpha == 1.0
        )

    @property
    def steady_state_guaranteed(self) -> bool | None:
        """True where the paper guarantees a steady clearance (line contact
        with alpha > 1, point contact with alpha > 3/2), False otherwise
        (the flat slider balances no load), None for tabulated profiles."""
        if self.kind is ShapeKind.LINE_CONTACT:
            return self.alpha > 1.0
        if self.kind is ShapeKind.POINT_CONTACT:
            return self.alpha > 1.5
        if self.kind is ShapeKind.FLAT:
            return False
        return None

    def describe(self) -> str:
        if self.kind in (ShapeKind.LINE_CONTACT, ShapeKind.POINT_CONTACT):
            return f"{self.kind.value}(alpha={self.alpha})"
        return self.kind.value


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform rectangular grid with zero Dirichlet pressure on the boundary.

    Interior node (i, j), 0 <= i < nx, 0 <= j < ny, sits at
    (xs[i + 1], ys[j + 1]); its linear index is j * nx + i.
    """

    domain: DomainRect
    nx: int
    ny: int
    dx: float
    dy: float
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    @property
    def n_interior(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def interior_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (X1, X2), each of shape (ny, nx)."""
        return np.meshgrid(self.xs[1:-1], self.ys[1:-1], indexing="xy")


def check_node_count(name: str, n) -> None:
    """Reject a grid's node count n, named name, unless it is an integer >= 3."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValidationError(name, f"must be an integer, got {n!r}")
    if n < 3:
        raise TooCoarse(name, "must be >= 3")


def build_grid(domain: DomainRect, nx: int, ny: int) -> Grid:
    """Discretize the domain with nx-by-ny interior nodes (check_node_count)."""
    check_node_count("nx", nx)
    check_node_count("ny", ny)
    dx = domain.length1 / (nx + 1)
    dy = domain.length2 / (ny + 1)
    xs = domain.x1_min + dx * np.arange(nx + 2)
    ys = domain.x2_min + dy * np.arange(ny + 2)
    return Grid(domain=domain, nx=nx, ny=ny, dx=dx, dy=dy, xs=xs, ys=ys)


def _height_analytic(shape: SliderShape, x1, x2):
    if shape.kind is ShapeKind.FLAT:
        return np.zeros_like(np.asarray(x1, dtype=float))
    a = shape.alpha
    if shape.kind is ShapeKind.LINE_CONTACT:
        return np.abs(x1) ** a
    if shape.kind is ShapeKind.POINT_CONTACT:
        return np.hypot(x1, x2) ** a
    raise UnsupportedShape("analytic evaluation undefined for tabulated shapes")


def _grad_x1_analytic(shape: SliderShape, x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if shape.kind is ShapeKind.FLAT:
        return np.zeros_like(x1)
    a = shape.alpha
    if shape.kind is ShapeKind.LINE_CONTACT:
        if a == 1.0:
            return np.sign(x1)
        return a * np.sign(x1) * np.abs(x1) ** (a - 1.0)
    if shape.kind is ShapeKind.POINT_CONTACT:
        r = np.hypot(x1, x2)
        out = np.zeros_like(r)
        mask = r > 0.0
        if a == 1.0:
            np.divide(x1, r, out=out, where=mask)
        else:
            out[mask] = a * x1[mask] * r[mask] ** (a - 2.0)
        return out
    raise UnsupportedShape("analytic evaluation undefined for tabulated shapes")


def lattice_heights(shape: SliderShape, grid: Grid) -> np.ndarray:
    """h0 on the full (ny+2, nx+2) node lattice, boundary included."""
    if shape.kind is ShapeKind.TABULATED:
        _check_table_matches(shape.table, grid)
        return shape.table.heights
    X1, X2 = np.meshgrid(grid.xs, grid.ys, indexing="xy")
    return _height_analytic(shape, X1, X2)


def lattice_grad_x1(shape: SliderShape, grid: Grid) -> np.ndarray:
    """dh0/dx1 on the full node lattice."""
    if shape.kind is ShapeKind.TABULATED:
        _check_table_matches(shape.table, grid)
        return shape.table.grad_x1
    X1, X2 = np.meshgrid(grid.xs, grid.ys, indexing="xy")
    return _grad_x1_analytic(shape, X1, X2)


def edge_midpoint_heights(shape: SliderShape, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """h0 at the edge midpoints used by the five-point coefficients.

    Returns (h_v, h_h): h_v[j, i] is the midpoint of the horizontal edge
    joining lattice columns i, i+1 at interior row j (shape (ny, nx+1));
    h_h[j, i] the midpoint of the vertical edge joining lattice rows
    j, j+1 at interior column i (shape (ny+1, nx)).  Analytic variants
    are evaluated exactly at midpoints, tabulated ones by averaging the
    two adjacent nodes.
    """
    if shape.kind is ShapeKind.TABULATED:
        _check_table_matches(shape.table, grid)
        H = shape.table.heights
        h_v = 0.5 * (H[1:-1, :-1] + H[1:-1, 1:])
        h_h = 0.5 * (H[:-1, 1:-1] + H[1:, 1:-1])
        return h_v, h_h
    xmid = 0.5 * (grid.xs[:-1] + grid.xs[1:])
    ymid = 0.5 * (grid.ys[:-1] + grid.ys[1:])
    Xv, Yv = np.meshgrid(xmid, grid.ys[1:-1], indexing="xy")
    Xh, Yh = np.meshgrid(grid.xs[1:-1], ymid, indexing="xy")
    return _height_analytic(shape, Xv, Yv), _height_analytic(shape, Xh, Yh)


def _check_table_matches(table: TabulatedData, grid: Grid) -> None:
    if table.xs.size != grid.xs.size or table.ys.size != grid.ys.size:
        raise InvalidDomain("tabulated data does not match the grid node counts")
    tol = 1e-12 * max(grid.domain.length1, grid.domain.length2)
    if np.max(np.abs(table.xs - grid.xs)) > tol or np.max(np.abs(table.ys - grid.ys)) > tol:
        raise InvalidDomain("tabulated data node coordinates do not match the grid")


def sup_height(shape: SliderShape, domain: DomainRect) -> float:
    """Sup of h0 over the closed domain (exact for analytic variants)."""
    if shape.kind is ShapeKind.FLAT:
        return 0.0
    if shape.kind is ShapeKind.LINE_CONTACT:
        return max(abs(domain.x1_min), abs(domain.x1_max)) ** shape.alpha
    if shape.kind is ShapeKind.POINT_CONTACT:
        r = max(
            np.hypot(domain.x1_min, domain.x2_min),
            np.hypot(domain.x1_min, domain.x2_max),
            np.hypot(domain.x1_max, domain.x2_min),
            np.hypot(domain.x1_max, domain.x2_max),
        )
        return float(r**shape.alpha)
    return float(np.max(shape.table.heights))


def compute_V1(shape: SliderShape, grid: Grid) -> float:
    """Largest descending slope sup(-dh0/dx1), clamped below at 0.

    Exact for the analytic variants: flat gives 0, line contact
    alpha |x1_min|^(alpha-1), point contact alpha |x1_min| r^(alpha-2)
    with r = |(x1_min, x2)|.  The descending slope grows with |x1| on the
    upstream side, and with |x2| only when alpha >= 2, so the supremum
    sits at x1 = x1_min and at the farther x2 edge (alpha >= 2) or on the
    axis x2 = 0 (alpha < 2).
    Tabulated profiles give the nodal maximum over the full lattice.
    """
    if shape.kind is ShapeKind.FLAT:
        return 0.0
    if shape.kind is ShapeKind.TABULATED:
        return max(0.0, float(np.max(-lattice_grad_x1(shape, grid))))
    d = grid.domain
    far_edge = shape.kind is ShapeKind.POINT_CONTACT and shape.alpha >= 2.0
    x2 = max(-d.x2_min, d.x2_max) if far_edge else 0.0
    return -float(_grad_x1_analytic(shape, d.x1_min, x2))


class BoxKind(Enum):
    LINE_BOX = "line_box"
    SECTOR_BOX = "sector_box"


@dataclass(frozen=True)
class ContactBox:
    """Region near the contact set on which the wedge drives the pressure.

    LINE_BOX is the open rectangle (x1_lo, x1_hi) x (x2_lo, x2_hi);
    SECTOR_BOX the annular sector rho in (rho_lo, rho_hi), theta within
    theta_half of the negative x1 axis.  region_node_mask gives its nodes.
    """

    kind: BoxKind
    beta: float
    x1_lo: float = 0.0
    x1_hi: float = 0.0
    x2_lo: float = 0.0
    x2_hi: float = 0.0
    rho_lo: float = 0.0
    rho_hi: float = 0.0
    theta_half: float = 0.0


def contact_box(
    shape: SliderShape,
    domain: DomainRect,
    beta: float,
    *,
    delta: float | None = None,
    theta0: float | None = None,
) -> ContactBox:
    """Build the clearance-scaled box on which -dh0/dx1 stays positive.

    Line contact uses the rectangle (-2 beta^(1/alpha), -beta^(1/alpha))
    x (-delta, delta); point contact the sector rho in
    (beta^(1/alpha), 2 beta^(1/alpha)) around the negative x1 axis with
    half-aperture theta0.
    """
    if shape.kind in (ShapeKind.FLAT, ShapeKind.TABULATED):
        raise UnsupportedShape(f"no contact box for {shape.kind.value} shapes")
    if beta <= 0.0:
        raise NonPositiveClearance(f"clearance beta must be positive, got {beta}")
    w = beta ** (1.0 / shape.alpha)
    if shape.kind is ShapeKind.LINE_CONTACT:
        if delta is None or delta <= 0.0:
            raise BoxOutsideDomain("line-contact box needs an aperture delta > 0")
        box = ContactBox(
            kind=BoxKind.LINE_BOX,
            beta=beta,
            x1_lo=-2.0 * w,
            x1_hi=-w,
            x2_lo=-delta,
            x2_hi=delta,
        )
        inside = (
            box.x1_lo > domain.x1_min
            and box.x1_hi < domain.x1_max
            and box.x2_lo > domain.x2_min
            and box.x2_hi < domain.x2_max
        )
        if not inside:
            raise BoxOutsideDomain(
                f"line box for beta={beta}, delta={delta} exits the domain"
            )
        return box
    if theta0 is None or not (0.0 < theta0 < 0.5 * np.pi):
        raise BoxOutsideDomain("point-contact box needs theta0 in (0, pi/2)")
    box = ContactBox(
        kind=BoxKind.SECTOR_BOX,
        beta=beta,
        rho_lo=w,
        rho_hi=2.0 * w,
        theta_half=theta0,
    )
    halfwidth = 2.0 * w * np.sin(theta0)
    inside = (
        -2.0 * w > domain.x1_min
        and -halfwidth > domain.x2_min
        and halfwidth < domain.x2_max
    )
    if not inside:
        raise BoxOutsideDomain(f"sector box for beta={beta} exits the domain")
    return box


def region_node_mask(grid: Grid, region) -> np.ndarray:
    """Boolean (ny, nx) mask of the interior nodes strictly inside region: a
    ContactBox, or an (x1_lo, x1_hi, x2_lo, x2_hi) tuple for the open rectangle."""
    X1, X2 = grid.interior_mesh()
    if isinstance(region, ContactBox):
        if region.kind is BoxKind.SECTOR_BOX:
            rho = np.hypot(X1, X2)
            theta = np.arctan2(X2, X1)  # in (-pi, pi], contact direction at pi
            dev = np.abs(np.pi - np.abs(theta))
            return (rho > region.rho_lo) & (rho < region.rho_hi) & (dev < region.theta_half)
        region = (region.x1_lo, region.x1_hi, region.x2_lo, region.x2_hi)
    x1_lo, x1_hi, x2_lo, x2_hi = region
    return (X1 > x1_lo) & (X1 < x1_hi) & (X2 > x2_lo) & (X2 < x2_hi)


def load_tabulated_csv(path, grid: Grid) -> SliderShape:
    """Read a tabulated shape from CSV rows (x1, x2, h0, dh0_dx1).

    Rows must cover every node of the grid lattice exactly (boundary
    included), in any order, with finite numbers only.  An unreadable
    file or a malformed table raises InvalidDomain.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise InvalidDomain(f"cannot read tabulated CSV: {exc}") from exc
    except ValueError as exc:
        raise InvalidDomain(f"tabulated CSV is not a numeric table: {exc}") from exc
    if raw.shape[1] != 4:
        raise InvalidDomain("tabulated CSV must have columns x1,x2,h0,dh0_dx1")
    if not np.all(np.isfinite(raw)):
        raise InvalidDomain("tabulated CSV holds a non-finite value")
    n_lattice = (grid.nx + 2) * (grid.ny + 2)
    if raw.shape[0] != n_lattice:
        raise InvalidDomain(
            f"tabulated CSV has {raw.shape[0]} rows, grid lattice has {n_lattice} nodes"
        )
    heights = np.full((grid.ny + 2, grid.nx + 2), np.nan)
    grads = np.full_like(heights, np.nan)
    tolx = 0.25 * grid.dx
    toly = 0.25 * grid.dy
    for x1, x2, h, g in raw:
        i = int(round((x1 - grid.domain.x1_min) / grid.dx))
        j = int(round((x2 - grid.domain.x2_min) / grid.dy))
        if not (0 <= i < grid.nx + 2 and 0 <= j < grid.ny + 2):
            raise InvalidDomain(f"tabulated CSV point ({x1}, {x2}) off the lattice")
        if abs(grid.xs[i] - x1) > tolx or abs(grid.ys[j] - x2) > toly:
            raise InvalidDomain(f"tabulated CSV point ({x1}, {x2}) off the lattice")
        heights[j, i] = h
        grads[j, i] = g
    if np.any(np.isnan(heights)):
        raise InvalidDomain("tabulated CSV does not cover every lattice node")
    table = TabulatedData(xs=grid.xs, ys=grid.ys, heights=heights, grad_x1=grads)
    return SliderShape.tabulated(table)
