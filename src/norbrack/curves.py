"""Discrete closed immersed curves in the plane and on the unit sphere.

A curve is a list of sample points c(theta_k) on the uniform grid; all
derivatives in theta use the shared fourth-order stencil.  The frame
convention is fixed once here: v is the unit tangent d_theta c / |d_theta c|,
and the unit normal is n = J v in the plane (J = rotation by +pi/2) and
n = c x v on the sphere.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed, GridMismatch, ImmersionDegenerate
from .fields import PeriodicScalarField, TWO_PI, _validate_grid_n, diff4, theta_grid

PLANE = "plane"
SPHERE = "sphere"

# Below this, finite-difference speed counts as a lost immersion.
SPEED_FLOOR = 1e-10

_SPHERE_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteImmersion:
    """Sample points of a closed curve, one row per grid node."""

    points: np.ndarray
    ambient: str = PLANE

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        _check_points(self.ambient, pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def grid_n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def _geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(d_theta c, speed, v, n) as read-only arrays, differentiated once.

        Plain arrays only: a cached ImmersionTangent would point back at the
        curve, and that cycle is freed only by the cyclic garbage collector.
        A degenerate curve raises here, and nothing is cached, so it raises
        on every call.  On the sphere n = c x v is stored before the
        tangent-plane projection that ImmersionTangent applies.
        """
        geometry = _frames(self.ambient, self.points)
        for arr in geometry:
            arr.flags.writeable = False
        return geometry


def _check_points(ambient: str, pts: np.ndarray) -> None:
    """Raise ValueError unless pts, shaped (n, d), sample a closed curve in
    the ambient: the checks of DiscreteImmersion."""
    if pts.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    n, d = pts.shape
    _validate_grid_n(n)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if ambient == PLANE:
        if d != 2:
            raise ValueError(f"plane curves need 2 coordinates, got {d}")
    elif ambient == SPHERE:
        if d != 3:
            raise ValueError(f"sphere curves need 3 coordinates, got {d}")
        _check_unit_norm(pts)
    else:
        raise ValueError(f"unknown ambient {ambient!r}")


def _dot(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Per-node inner product over the last (coordinate) axis of length 2 or 3,
    into out where the caller gives it, with each product after the first
    written into scratch where the caller gives that (out's shape).

    The component products are added left to right, the order in which
    np.sum(a * b, axis=-1) adds them, so the two are bitwise equal; the
    right-associated sum is not.  Written out, it skips the reduction
    machinery that dominates on these short axes.
    """
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for k in range(1, a.shape[-1]):
        out += np.multiply(a[..., k], b[..., k], out=scratch)
    return out


def _norm(a: np.ndarray) -> np.ndarray:
    """Per-node Euclidean length over the last axis, bitwise equal to
    np.linalg.norm(a, axis=-1)."""
    return np.sqrt(_dot(a, a))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-node cross product of 3-vectors, with np.cross's component
    formula written into one output array, so the two are bitwise equal.
    The output is laid out in memory as a is, so that each component write
    of a coordinate-major stack fills one contiguous run."""
    out = np.empty_like(a, dtype=float, shape=np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _frames(ambient: str, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_theta c, speed, v, n) of one curve, points shaped (n, d), or of m
    curves stacked as points shaped (n, m, d).

    The one copy of the frame formula.  The coordinate axis stays last, and
    _dot adds its components in a fixed left-to-right order whatever the
    memory layout (in a coordinate-major stack that axis is the outermost in
    memory), so every per-node norm adds its terms in the same order for a
    stack as for a single curve, and stacked frames are bitwise equal to
    DiscreteImmersion's.  Every output keeps the points' memory order.
    Raises ImmersionDegenerate when any curve of the stack reaches the
    speed floor.
    """
    deriv = diff4(points)
    s = _norm(deriv)
    if s.min() <= SPEED_FLOOR:
        raise ImmersionDegenerate(f"minimum speed {s.min():.3e} at or below {SPEED_FLOOR:.0e}")
    v = deriv / s[..., None]
    if ambient == PLANE:
        n = np.empty_like(v)
        n[..., 0] = -v[..., 1]
        n[..., 1] = v[..., 0]
    else:
        n = _cross(points, v)
    return deriv, s, v, n


def _check_unit_norm(points: np.ndarray) -> None:
    """Raise ValueError unless every point, of one curve or a stack, lies on
    the unit sphere."""
    if np.abs(_norm(points) - 1.0).max() > _SPHERE_NORM_TOL:
        raise ValueError("sphere curve points must have unit norm")


def _project(ambient: str, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project vectors at the given points onto the ambient's tangent planes.

    Points and vectors are one curve (n, d) or a stack of curves (n, m, d);
    in the plane the vectors are returned as they are.
    """
    if ambient == PLANE:
        return vectors
    return vectors - _dot(vectors, points)[..., None] * points


def _tangent_vectors(ambient: str, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The checks and projection of ImmersionTangent on (n, d) arrays: raise
    unless the vectors match the points' shape and are finite, then project
    them onto the ambient's tangent planes (the plane returns them as they
    are)."""
    if vectors.shape != points.shape:
        raise GridMismatch(f"vectors shaped {vectors.shape} do not match base {points.shape}")
    if not np.isfinite(vectors).all():
        raise ValueError("vectors must be finite")
    return _project(ambient, points, vectors)


def _check_attached(c: DiscreteImmersion, h: ImmersionTangent) -> None:
    """Raise GridMismatch unless h is attached to c: the same curve object,
    or one with the same ambient and bitwise the same points."""
    if h.base is c:
        return
    if h.base.ambient != c.ambient or not np.array_equal(h.base.points, c.points):
        raise GridMismatch("tangent is attached to a different curve")


@dataclass(frozen=True, eq=False)
class ImmersionTangent:
    """A deformation vector attached to each node of a base curve.

    On the sphere the vectors are projected onto the tangent plane of the
    sphere at their base points during construction, so the tangency
    invariant holds by construction: the one projection of a field's value,
    whose rule hands over frame vectors as _frames computed them.
    """

    vectors: np.ndarray
    base: DiscreteImmersion

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=float).copy()
        vec = _tangent_vectors(self.base.ambient, self.base.points, vec)
        vec.flags.writeable = False
        object.__setattr__(self, "vectors", vec)

    def __add__(self, other: "ImmersionTangent") -> "ImmersionTangent":
        _check_attached(self.base, other)
        return ImmersionTangent(self.vectors + other.vectors, self.base)

    def __sub__(self, other: "ImmersionTangent") -> "ImmersionTangent":
        _check_attached(self.base, other)
        return ImmersionTangent(self.vectors - other.vectors, self.base)

    def __mul__(self, other) -> "ImmersionTangent":
        if isinstance(other, PeriodicScalarField):
            if other.grid_n != self.base.grid_n:
                raise GridMismatch("scalar field lives on a different grid")
            return ImmersionTangent(self.vectors * other.samples[:, None], self.base)
        return ImmersionTangent(self.vectors * float(other), self.base)

    __rmul__ = __mul__

    def __neg__(self) -> "ImmersionTangent":
        return ImmersionTangent(-self.vectors, self.base)

    def max_norm(self) -> float:
        """Largest Euclidean length among the per-node vectors."""
        return float(_norm(self.vectors).max())


@dataclass(frozen=True, eq=False)
class TangentNormalSplit:
    """Coefficients (m, p) with X = m * d_theta(c) + p * n."""

    tangential_coeff: PeriodicScalarField
    normal_coeff: PeriodicScalarField


def pointwise_inner(a: ImmersionTangent, b: ImmersionTangent) -> PeriodicScalarField:
    """Per-node Euclidean inner product of two tangents on the same curve."""
    _check_attached(a.base, b)
    return PeriodicScalarField(_dot(a.vectors, b.vectors))


def speed(c: DiscreteImmersion) -> PeriodicScalarField:
    """|d_theta c| per node; raises once any sample hits the speed floor."""
    return PeriodicScalarField(c._geometry[1])


def frame(c: DiscreteImmersion) -> tuple[ImmersionTangent, ImmersionTangent]:
    """Unit tangent and unit normal along the curve.

    Plane: n = J v with J(x, y) = (-y, x).  Sphere: n = c x v, which is
    automatically tangent to the sphere.
    """
    _, _, v, n = c._geometry
    return ImmersionTangent(v, c), ImmersionTangent(n, c)


def arclen_deriv(c: DiscreteImmersion, u: PeriodicScalarField) -> PeriodicScalarField:
    """Arclength derivative D_s u = (d_theta u) / speed."""
    if u.grid_n != c.grid_n:
        raise GridMismatch("field and curve use different grids")
    return PeriodicScalarField(diff4(u.samples) / c._geometry[1])


def curvature(c: DiscreteImmersion) -> PeriodicScalarField:
    """Signed curvature <D_s v, n> (geodesic curvature on the sphere)."""
    v, n = frame(c)
    dv = diff4(v.vectors) / c._geometry[1][:, None]
    # on the sphere, remove the ambient component pointing out of the sphere
    dv = _project(c.ambient, c.points, dv)
    return PeriodicScalarField(_dot(dv, n.vectors))


def split_tangent_normal(c: DiscreteImmersion, h: ImmersionTangent) -> TangentNormalSplit:
    """Split h = m * d_theta(c) + p * n along the frame.

    m is <h, v>/speed so that the tangential part is m * d_theta(c); p is
    <h, n>.  On the sphere h is already tangent to the sphere (enforced at
    construction), so the two parts recombine to h exactly there too.
    """
    _check_attached(c, h)
    v, n = frame(c)
    s = speed(c)
    m = pointwise_inner(h, v) / s
    p = pointwise_inner(h, n)
    return TangentNormalSplit(m, p)


def recombine(c: DiscreteImmersion, split: TangentNormalSplit) -> ImmersionTangent:
    """Rebuild the vector field m * d_theta(c) + p * n from a split."""
    _, n = frame(c)
    deriv = c._geometry[0]
    vec = split.tangential_coeff.samples[:, None] * deriv + split.normal_coeff.samples[:, None] * n.vectors
    return ImmersionTangent(vec, c)


def circle(n: int, radius: float = 1.0) -> DiscreteImmersion:
    theta = theta_grid(n)
    return DiscreteImmersion(radius * np.column_stack([np.cos(theta), np.sin(theta)]), PLANE)


def unit_circle(n: int) -> DiscreteImmersion:
    return circle(n, 1.0)


def ellipse(n: int, a: float, b: float) -> DiscreteImmersion:
    theta = theta_grid(n)
    return DiscreteImmersion(np.column_stack([a * np.cos(theta), b * np.sin(theta)]), PLANE)


def great_circle(n: int) -> DiscreteImmersion:
    """Equatorial circle on the unit sphere."""
    theta = theta_grid(n)
    pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    return DiscreteImmersion(pts, SPHERE)


def latitude_circle(n: int, ring_radius: float) -> DiscreteImmersion:
    """Circle of constant height on the unit sphere with the given radius."""
    if not 0.0 < ring_radius <= 1.0:
        raise ValueError("ring radius must lie in (0, 1]")
    theta = theta_grid(n)
    z = np.sqrt(max(1.0 - ring_radius**2, 0.0))
    pts = np.column_stack(
        [ring_radius * np.cos(theta), ring_radius * np.sin(theta), np.full(n, z)]
    )
    return DiscreteImmersion(pts, SPHERE)


def random_fourier_curve(
    seed: int,
    grid_n: int,
    modes: int,
    decay: float,
    amplitude: float = 0.15,
) -> DiscreteImmersion:
    """Unit circle plus a random trigonometric perturbation.

    Coefficient magnitudes fall off like k**(-decay).  The perturbation is
    rescaled (halved, up to 100 times) until the minimum speed reaches 0.1,
    so the output is always comfortably immersed.  Deterministic in seed.

    The default amplitude keeps derivative magnitudes moderate; at 256 nodes
    the finite-difference error on frames of these curves then sits well
    below the tolerances used by the verification suites.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    rng = np.random.default_rng(seed)
    theta = theta_grid(grid_n)
    pert = np.zeros((grid_n, 2))
    for k in range(1, modes + 1):
        scale = float(k) ** (-decay)
        coeffs = rng.standard_normal(4) * scale
        pert[:, 0] += coeffs[0] * np.cos(k * theta) + coeffs[1] * np.sin(k * theta)
        pert[:, 1] += coeffs[2] * np.cos(k * theta) + coeffs[3] * np.sin(k * theta)
    base = np.column_stack([np.cos(theta), np.sin(theta)])
    scale = amplitude
    for _ in range(100):
        pts = base + scale * pert
        s = _norm(diff4(pts))
        if s.min() >= 0.1:
            return DiscreteImmersion(pts, PLANE)
        scale *= 0.5
    raise GenerationFailed(
        f"no immersed curve with speed >= 0.1 after 100 rescalings (seed {seed})"
    )


def save_curve_csv(c: DiscreteImmersion, path) -> None:
    """Write a curve as '# ambient=<tag> n=<N>' plus one point per line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# ambient={c.ambient} n={c.grid_n}\n")
        writer = csv.writer(fh)
        for row in c.points:
            writer.writerow([f"{x:.17g}" for x in row])


def load_curve_csv(path) -> DiscreteImmersion:
    """Read a curve written by save_curve_csv."""
    return _load_curve_csv(path, lambda ambient, n: None)


def _load_curve_csv(path, check_header) -> DiscreteImmersion:
    """load_curve_csv, calling check_header(ambient, n) on the header before
    any point is read.  At most n + 1 rows are read, so a file's length
    costs no memory beyond what its header claims."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        parts = dict(
            item.split("=", 1) for item in header.lstrip("#").split() if "=" in item
        )
        if not header.startswith("#") or "ambient" not in parts or "n" not in parts:
            raise ValueError(f"malformed curve header: {header!r}")
        ambient = parts["ambient"]
        n = int(parts["n"])
        if ambient not in (PLANE, SPHERE):
            raise ValueError(f"unknown ambient {ambient!r}")
        check_header(ambient, n)
        nonblank = filter(None, csv.reader(fh))
        rows = [[float(x) for x in row] for row in itertools.islice(nonblank, n + 1)]
    if len(rows) != n:
        raise ValueError(f"expected {n} points, found {'more' if len(rows) > n else len(rows)}")
    return DiscreteImmersion(np.array(rows), ambient)
