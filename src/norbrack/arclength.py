"""Deformations that stretch a curve uniformly, and flows along them.

A deformation h is arclength-uniform when u = <D_s h, v> (the logarithmic
stretch rate of the speed) is constant along the curve.  Flowing a curve
only through such deformations multiplies its speed profile by a scalar
function of time, so curves of proportional speed stay proportional; the
leaf_invariant measures how well a flow preserved that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .calculus import CurveField, bracket_of_fields
from .curves import (
    PLANE,
    DiscreteImmersion,
    ImmersionTangent,
    _check_attached,
    _dot,
    frame,
    save_curve_csv,
    speed,
)
from .errors import GridMismatch
from .fields import PeriodicScalarField, _check_samples, _primitive, _shifts, _stencil, diff4


@dataclass(frozen=True, eq=False)
class ArcDefect:
    """Stretch rate u = <D_s h, v>, its arclength derivative, and its size."""

    u: PeriodicScalarField
    defect: PeriodicScalarField
    defect_norm: float


def arc_defect(c: DiscreteImmersion, h: ImmersionTangent) -> ArcDefect:
    """How far h is from stretching the curve uniformly (D_s u = 0)."""
    _check_attached(c, h)
    s = speed(c).samples
    v, _ = frame(c)
    u = _dot(diff4(h.vectors) / s[:, None], v.vectors)
    defect = diff4(u) / s
    return ArcDefect(
        u=PeriodicScalarField(u),
        defect=PeriodicScalarField(defect),
        defect_norm=float(np.abs(defect).max()),
    )


class _ArcWorkspace:
    """The arc projection's buffers for one grid shape (n, d), and the views
    into them that its passes read and write, made once.

    h lives in the interior of padded, between two rows of wrap-around at
    each end, so a pass refreshes only those four rows.  The stencil's
    p4 - p0 goes into shift and _dot's second product into w, each before
    the pass writes its own values there.  A projected field owns one
    workspace, so no two callers share buffers.
    """

    def __init__(self, n: int, d: int):
        self.shape = (n, d)
        self.padded = np.empty((n + 4, d))
        self.h = self.padded[2:-2]
        # the rows written before each pass, and the rows of h they copy
        self.wrap = ((self.padded[:2], self.padded[n : n + 2]), (self.padded[-2:], self.padded[2:4]))
        self.shifts = _shifts(self.padded)
        self.deriv = np.empty((n, d))
        self.us = np.empty(n)
        self.w = np.empty(n)
        self.spec = np.empty(n // 2 + 1, dtype=complex)
        self.bins = self.spec[1:-1]
        self.psi = np.empty(n)
        self.shift = np.empty((n, d))
        self.shift_columns = [self.shift[:, k] for k in range(d)]


def _arc_projection(s: np.ndarray, v: np.ndarray, vectors: np.ndarray, work: _ArcWorkspace) -> np.ndarray:
    """project_to_arc on arrays: speed s (n,), unit tangent v and vectors (n, d),
    run in work, a workspace for (n, d).

    The one copy of the projection loop.  It never divides by s: the stretch
    rate u enters only as u * s = <diff4 h, v>, and both arclength means are
    sums weighted by s over the one sum of speeds (on a uniform grid the
    trapezoid rule of a periodic integrand reduces to plain sums).

    The vectors are copied once into the workspace, and the three passes
    allocate nothing: fields._stencil fills the stencil output as diff4
    does; us is summed as _dot sums it; fields._primitive fills the rfft
    bins and psi as periodic_primitive does; h += psi * v updates h in
    place.  Each step runs the operations of diff4, _dot and
    periodic_primitive in their order, so h is bitwise what calling them
    gives.  The last pass returns h + psi * v, the one fresh array, so the
    result never aliases the workspace and the input is left as it was.
    """
    total = s.sum()
    h, us, w, psi, shift = work.h, work.us, work.w, work.psi, work.shift
    # psi * v column by column: broadcasting psi[:, None] against v makes
    # numpy allocate an iterator buffer on every call
    update = list(zip(v.T, work.shift_columns))
    np.copyto(h, vectors)
    for step in range(3):
        for rows, source in work.wrap:
            np.copyto(rows, source)
        _dot(_stencil(work.shifts, work.deriv, shift), v, us, w)
        np.multiply(us.sum() / total, s, out=w)
        w -= us
        _primitive(w, work.spec, psi, work.bins)
        psi -= psi.dot(s) / total
        for column, out in update:
            np.multiply(psi, column, out=out)
        if step == 2:
            return h + shift
        h += shift


def _checked_projection(geometry, vectors: np.ndarray, work: _ArcWorkspace) -> np.ndarray:
    """project_to_arc on a curve as a CurveField rule sees it: the check of
    speed(c), then _arc_projection of the vectors along the unit tangent,
    in work."""
    _, s, v, _ = geometry()
    _check_samples(s)  # speed(c); v, and so frame(c), is finite where s is
    return _arc_projection(s, v, vectors, work)


def project_to_arc(c: DiscreteImmersion, h: ImmersionTangent) -> ImmersionTangent:
    """Add the tangential correction psi * v that equalizes u to its mean.

    psi solves D_s psi = mean(u) - u: its periodic primitive is obtained by
    inverting the difference stencil itself (not by quadrature), so the
    corrected stretch rate is constant to the same accuracy the defect is
    measured with.  Each of the three passes absorbs most of the stencil's
    product-rule residue, and the fixed pass count keeps the map linear in
    h (no data-dependent branching).  Three passes are not idempotent to
    rounding: for h = cos * n on the 1.5 x 0.7 ellipse at n = 128, the
    arc_defect norm is 2.1e-8 after one projection and 3.6e-14 after two
    (six passes).  Each call builds a workspace for its one projection
    (see _arc_projection); a flow of the projected field keeps one for all
    its stages.
    """
    _check_attached(c, h)
    vectors = _checked_projection(lambda: c._geometry, h.vectors, _ArcWorkspace(*h.vectors.shape))
    return ImmersionTangent(vectors, c)


def _projected(field: CurveField) -> CurveField:
    """The field P[F]: c -> project_to_arc(c, F(c)), on the arrays of its
    rule, so a flow of it builds no container.  The field owns one
    workspace, built for the grid shape it is first evaluated on and built
    again when the shape changes."""
    work = None

    def rule(ambient: str, points: np.ndarray, geometry) -> np.ndarray:
        nonlocal work
        vectors = field._vectors(ambient, points, geometry)
        if work is None or work.shape != vectors.shape:
            work = _ArcWorkspace(*vectors.shape)
        return _checked_projection(geometry, vectors, work)

    return CurveField(rule, f"P[{field.name}]")


def _check_flow(c0: DiscreteImmersion, steps: int) -> None:
    if c0.ambient != PLANE:
        raise ValueError("arc flows are defined for plane curves only")
    if steps < 1:
        raise ValueError("steps must be >= 1")


def flow_field(
    c0: DiscreteImmersion, field: CurveField, t: float, steps: int = 100
) -> DiscreteImmersion:
    """RK4 flow of a field as given: dc/dt = F(c).

    The loop runs on (n, 2) point arrays; only the returned curve is a
    DiscreteImmersion.  Each stage runs the checks of building a curve on
    its points, then the field's one rule, which raises where evaluating F
    on that curve would (the speed floor, finite vectors, matching grids),
    takes the frame at most once and builds no container.  So a flow that
    pinches the curve raises ImmersionDegenerate mid-way, with the message
    the curve would give.
    """
    _check_flow(c0, steps)
    if t == 0.0:
        return c0
    dt = t / steps
    pts = np.array(c0.points)
    for _ in range(steps):
        k1 = field._velocity(c0.ambient, pts)
        k2 = field._velocity(c0.ambient, pts + (0.5 * dt) * k1)
        k3 = field._velocity(c0.ambient, pts + (0.5 * dt) * k2)
        k4 = field._velocity(c0.ambient, pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DiscreteImmersion(pts, c0.ambient)


def flow_arc(
    c0: DiscreteImmersion, field: CurveField, t: float, steps: int = 100
) -> DiscreteImmersion:
    """RK4 flow of the projected field: dc/dt = project_to_arc(c, F(c)).

    Runs in flow_field: each stage projects with project_to_arc's checks
    and kernel on the stage's arrays.
    """
    return flow_field(c0, _projected(field), t, steps)


def flow_trajectory(
    c0: DiscreteImmersion,
    field: CurveField,
    t: float,
    steps: int = 100,
    sample_every: int = 1,
) -> list[DiscreteImmersion]:
    """Projected flow like flow_arc, returning intermediate curves too."""
    _check_flow(c0, steps)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    frames = [c0]
    current = c0
    done = 0
    while done < steps:
        chunk = min(sample_every, steps - done)
        current = flow_arc(current, field, t * chunk / steps, steps=chunk)
        frames.append(current)
        done += chunk
    return frames


def write_flow_frames(frames, directory, stem: str = "frame") -> list[str]:
    """Save each curve of a trajectory as <stem>_<index>.csv in a directory."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for idx, frame_curve in enumerate(frames):
        path = os.path.join(directory, f"{stem}_{idx:04d}.csv")
        save_curve_csv(frame_curve, path)
        paths.append(path)
    return paths


def leaf_invariant(c0: DiscreteImmersion, c1: DiscreteImmersion) -> float:
    """Relative spread of the speed ratio between two curves.

    Zero means c1's speed profile is a scalar multiple of c0's, i.e. both
    curves lie on the same leaf of proportional-speed curves.
    """
    if c0.grid_n != c1.grid_n:
        raise GridMismatch("curves use different grids")
    r = speed(c1).samples / speed(c0).samples
    mean = r.mean()
    return float(np.abs(r - mean).max() / mean)


def frobenius_defect(
    c: DiscreteImmersion, f1: CurveField, f2: CurveField, eps: float
) -> float:
    """Defect of the bracket of two projected fields.

    Projects both fields, brackets them numerically, and measures how far
    the bracket itself is from stretching uniformly.  Small values mean the
    projected fields' flows stay on the leaves they started on.
    """
    bracket = bracket_of_fields(_projected(f1), _projected(f2), c, eps)
    return arc_defect(c, bracket).defect_norm
