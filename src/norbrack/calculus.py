"""Calculus in the immersion variable: fields of deformations along curves,
directional derivatives, flow commutators, and the closed-form bracket of
normal deformation fields.

All derivatives in the curve variable are central differences; on the sphere
perturbed curves are pulled back by normalization and results are projected
to the sphere's tangent planes, which realizes the ambient connection.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .curves import (
    PLANE,
    DiscreteImmersion,
    ImmersionTangent,
    _check_attached,
    _check_points,
    _check_unit_norm,
    _dot,
    _frames,
    _norm,
    _project,
    _tangent_vectors,
    arclen_deriv,
    curvature,
    frame,
    speed,
    split_tangent_normal,
)
from .errors import GridMismatch, NorbrackError, StepTooLarge, StepTooSmall
from .fields import PeriodicScalarField, diff4


def _retract(ambient: str, points: np.ndarray) -> np.ndarray:
    """Pull ambient points back onto the ambient space (unchanged in the plane).

    Points are one curve (n, d) or a stack of curves (n, m, d).
    """
    if ambient == PLANE:
        return points
    return points / _norm(points)[..., None]


def _check_step(c: DiscreteImmersion, eps: float) -> None:
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if eps > 0.1 * speed(c).min():
        raise StepTooLarge(f"eps = {eps:g} exceeds a tenth of the minimum speed")
    # at or below the spacing of floats at the largest coordinate, c + eps X
    # rounds to c there, and a difference quotient of two rounded-away
    # perturbations reads an exact 0 that passes any tolerance
    spacing = np.spacing(np.abs(c.points).max())
    if eps <= spacing:
        raise StepTooSmall(f"eps = {eps:g} is at or below the float spacing {spacing:g} of the curve's points")


def _lazy_frames(ambient: str, points: np.ndarray):
    """A geometry callable for a CurveField rule: _frames(ambient, points),
    computed on the first call only, as DiscreteImmersion._geometry is."""
    frames = []

    def geometry():
        if not frames:
            frames.append(_frames(ambient, points))
        return frames[0]

    return geometry


class CurveField:
    """A rule assigning a deformation vector field to every curve.

    The one rule maps (ambient, points, geometry) to the vectors that the
    field's ImmersionTangent is built from, and raises where evaluating the
    field on the curve raises, in the same order.  The points have passed
    the curve checks; geometry() returns curves._frames of the points,
    computed only when called, so a field that needs no frame (a constant
    field) computes none.  Calling the field on a curve and each stage of a
    flow (_velocity) run this rule; the wrap that makes its vectors a
    tangent (ImmersionTangent, or _vectors on arrays) projects them, once.

    Fields support addition and scaling, so composites like v + 0.3 * (a n)
    can be built from the named constructors below.  A composite's rule
    combines its operands' rules, so its value too is projected once.
    """

    def __init__(self, rule: Callable[[str, np.ndarray, Callable], np.ndarray], name: str = "field"):
        self._rule = rule
        self.name = name

    def __call__(self, c: DiscreteImmersion) -> ImmersionTangent:
        return ImmersionTangent(self._rule(c.ambient, c.points, lambda: c._geometry), c)

    def _vectors(self, ambient: str, points: np.ndarray, geometry) -> np.ndarray:
        """The rule's vectors after ImmersionTangent's checks and projection."""
        return _tangent_vectors(ambient, points, self._rule(ambient, points, geometry))

    def _velocity(self, ambient: str, points: np.ndarray) -> np.ndarray:
        """The field's vectors at the curve with these points, as an array:
        the velocity of a flow at one stage, with the checks of building the
        curve and evaluating the field on it, and no container."""
        _check_points(ambient, points)
        return self._vectors(ambient, points, _lazy_frames(ambient, points))

    def __add__(self, other: "CurveField") -> "CurveField":
        return CurveField(lambda *curve: self._rule(*curve) + other._rule(*curve), f"{self.name}+{other.name}")

    def __sub__(self, other: "CurveField") -> "CurveField":
        return CurveField(lambda *curve: self._rule(*curve) - other._rule(*curve), f"{self.name}-{other.name}")

    def __mul__(self, factor: float) -> "CurveField":
        factor = float(factor)
        return CurveField(lambda *curve: self._rule(*curve) * factor, f"{factor:g}*{self.name}")

    __rmul__ = __mul__

    def __neg__(self) -> "CurveField":
        return self * -1.0


def _frame_field(index: int, coeff, name: str) -> CurveField:
    """The field c -> coeff * frame(c)[index], the bare frame vector when
    coeff is None, with ImmersionTangent.__mul__'s grid check: the frame
    vector as _frames computed it, scaled, for the field's wrap to project."""

    def rule(ambient: str, points: np.ndarray, geometry) -> np.ndarray:
        vec = geometry()[2 + index]
        if coeff is None:
            return vec
        if isinstance(coeff, PeriodicScalarField):
            if coeff.grid_n != points.shape[0]:
                raise GridMismatch("scalar field lives on a different grid")
            return vec * coeff.samples[:, None]
        return vec * float(coeff)

    return CurveField(rule, name)


def normal_field(a: PeriodicScalarField | None = None, name: str | None = None) -> CurveField:
    """The field c -> a * n(c); plain unit normal when a is omitted."""
    return _frame_field(1, a, name or ("n" if a is None else "a*n"))


def tangent_field(m: PeriodicScalarField | None = None, name: str | None = None) -> CurveField:
    """The field c -> m * v(c); plain unit tangent when m is omitted."""
    return _frame_field(0, m, name or ("v" if m is None else "m*v"))


def constant_field(w, name: str | None = None) -> CurveField:
    """The field attaching the same ambient vector w at every node.

    On the sphere the attached vectors get projected to the sphere's tangent
    planes (tangent construction does this), so evaluation is always valid.
    """
    w = np.asarray(w, dtype=float)

    def rule(ambient: str, points: np.ndarray, geometry) -> np.ndarray:
        n, dim = points.shape
        if w.shape != (dim,):
            raise GridMismatch(f"constant vector has dimension {w.shape}, curve needs {dim}")
        return np.tile(w, (n, 1))

    return CurveField(rule, name or "constant")


def _perturbed(c: DiscreteImmersion, direction: np.ndarray, eps: float) -> DiscreteImmersion:
    shifted = _retract(c.ambient, c.points + eps * direction)
    moved = DiscreteImmersion(shifted, c.ambient)
    speed(moved)  # raises ImmersionDegenerate if the perturbation pinched the curve
    return moved


def directional_derivative(
    field: CurveField, c: DiscreteImmersion, direction: ImmersionTangent, eps: float
) -> ImmersionTangent:
    """Central difference (F(c + eps X) - F(c - eps X)) / (2 eps).

    Sphere curves are renormalized after perturbing and the difference is
    projected back to the tangent planes at c, so the result is the
    covariant derivative there.
    """
    _check_attached(c, direction)
    _check_step(c, eps)
    plus = field(_perturbed(c, direction.vectors, eps))
    minus = field(_perturbed(c, direction.vectors, -eps))
    return ImmersionTangent((plus.vectors - minus.vectors) / (2.0 * eps), c)


def bracket_of_fields(
    x: CurveField, y: CurveField, c: DiscreteImmersion, eps: float
) -> ImmersionTangent:
    """Numeric Lie bracket [X, Y] = D_X Y - D_Y X by central differences."""
    return directional_derivative(y, c, x(c), eps) - directional_derivative(x, c, y(c), eps)


def _flow_leg(points: np.ndarray, velocity, step: float, ambient: str, start=None) -> np.ndarray:
    """One midpoint step of the flow of a field, retracted to the ambient.

    velocity maps points, one curve or a stack, to the field's vectors
    there; start, where given, maps the leg's start points to the same
    vectors from what is already known about them.  A single Euler step is
    not enough here: its O(step^2) defect per leg would leave a first-order
    self-interaction residue in the commutator product, swamping the
    bracket itself.
    """
    if start is None:
        start = velocity
    half = _retract(ambient, points + (0.5 * step) * start(points))
    k = velocity(half)
    return _retract(ambient, points + step * k)


def _commutator_delta(points: np.ndarray, ambient: str, leg_x, vx, vy, eps: float) -> np.ndarray:
    """Mean of the loops x, y, -x, -y run at +eps and -eps, minus the start,
    over eps^2 (before the projection to the tangent planes at the start).

    leg_x(step) returns the points after the first leg, x run for step, and
    the start map of the second leg, y from there (see _flow_leg).
    """

    def endpoint(step):
        pts, start = leg_x(step)
        pts = _flow_leg(pts, vy, step, ambient, start)
        pts = _flow_leg(pts, vx, -step, ambient)
        return _flow_leg(pts, vy, -step, ambient)

    return (endpoint(eps) + endpoint(-eps) - 2.0 * points) / (2.0 * eps * eps)


def flow_commutator(
    c: DiscreteImmersion, x: CurveField, y: CurveField, eps: float
) -> ImmersionTangent:
    """Bracket estimate from the loop of flows x, y, -x, -y at scale eps.

    Averaging the loops run with +eps and -eps cancels the odd error term
    of the commutator expansion, leaving an O(eps^2) estimate of [X, Y].
    """
    _check_step(c, eps)
    vx = functools.partial(x._velocity, c.ambient)
    vy = functools.partial(y._velocity, c.ambient)
    delta = _commutator_delta(
        c.points, c.ambient, lambda step: (_flow_leg(c.points, vx, step, c.ambient), vy), vx, vy, eps
    )
    return ImmersionTangent(delta, c)


def torsion_defect(
    c: DiscreteImmersion, x: CurveField, y: CurveField, eps: float
) -> float:
    """Max norm of D_X Y - D_Y X - [X, Y] with the flow-loop bracket.

    Vanishing of this defect (to discretization accuracy) says the covariant
    derivative realized by project-after-differentiate is torsion-free.
    """
    cov_xy = directional_derivative(y, c, x(c), eps)
    cov_yx = directional_derivative(x, c, y(c), eps)
    return (cov_xy - cov_yx - flow_commutator(c, x, y, eps)).max_norm()


def variation_of_normal(c: DiscreteImmersion, h: ImmersionTangent) -> ImmersionTangent:
    """Closed-form derivative of the unit normal along a deformation h.

    With h split as m * d_theta(c) + p * n, the variation of n is
    -(curvature * m * speed + D_s p) * v: purely tangential, combining the
    shape-operator response to the tangential part with the arclength
    gradient of the normal coefficient.
    """
    sp = split_tangent_normal(c, h)
    v, _ = frame(c)
    coeff = (
        curvature(c) * sp.tangential_coeff * speed(c)
        + arclen_deriv(c, sp.normal_coeff)
    )
    return v * -coeff


def bracket_closed_form(
    c: DiscreteImmersion, a: PeriodicScalarField, b: PeriodicScalarField
) -> ImmersionTangent:
    """The bracket of the normal fields a*n and b*n in closed form.

    [a n, b n] = (a D_s b - b D_s a) * v in the plane and on the sphere:
    the normal contributions cancel and only the tangential commutator of
    the induced reparametrizations survives.
    """
    if a.grid_n != c.grid_n or b.grid_n != c.grid_n:
        raise GridMismatch("coefficient fields and curve use different grids")
    coeff = a * arclen_deriv(c, b) - b * arclen_deriv(c, a)
    return ImmersionTangent(c._geometry[2] * coeff.samples[:, None], c)


def bracket_numeric(
    c: DiscreteImmersion,
    a: PeriodicScalarField,
    b: PeriodicScalarField,
    eps: float = 1e-5,
) -> ImmersionTangent:
    """Numeric bracket of the normal fields a*n and b*n."""
    return bracket_of_fields(normal_field(a), normal_field(b), c, eps)


# Batched pair checks.  The bracket and torsion suites evaluate every pair
# (f_i n, f_j n) of a basis.  Below, the pairs run as stacks of curves shaped
# (n, m, d), with the per-pair path's expressions and checks in its order, the
# frame vectors as _frames computes them, and one projection, _tangents, where
# the per-pair path wraps a value in an ImmersionTangent; so every value is
# bitwise equal to bracket_numeric, bracket_closed_form and torsion_defect.
# The stacks are coordinate-major: laid out in memory as (d, m, n), so each
# coordinate of each curve is one contiguous run of n samples, and the
# elementwise kernels, which keep their inputs' memory order, run on those
# runs.  A stage that raises on a chunk runs again item by item (_by_chunks),
# so a pair whose check raises gets the error that the per-pair functions
# raise for it.


def _finite(arr: np.ndarray) -> np.ndarray:
    """The finite-samples check of the package's containers, on a stack."""
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    return arr


def _tangents(ambient: str, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """What ImmersionTangent makes of stacked vectors: checked, then projected."""
    return _project(ambient, points, _finite(vectors))


def _normals(ambient: str, points: np.ndarray) -> np.ndarray:
    """The unit normals of stacked curves as _frames computes them, after
    the checks that building each curve and taking its speed run."""
    _finite(points)
    if ambient != PLANE:
        _check_unit_norm(points)
    _, s, _, n = _frames(ambient, points)
    _finite(s)  # v, and so n, is finite where s is
    return n


def _normal_field(ambient: str, points: np.ndarray, coeffs: np.ndarray, normals=None) -> np.ndarray:
    """normal_field(a) on stacked curves, one coefficient column per curve;
    normals, where given, are the curves' _normals, computed before."""
    if normals is None:
        normals = _normals(ambient, points)
    return _tangents(ambient, points, normals * coeffs[..., None])


def _outcome(compute):
    """compute(), or the package error or ValueError that it raised, with
    its traceback cleared.  The error's handler has exited by the time it is
    returned, so no later error is chained to it, and a stored error keeps
    no frame, or array, alive."""
    try:
        return compute()
    except (NorbrackError, ValueError) as exc:
        return exc.with_traceback(None)


# Stacked kernels (the batched pair checks, the oneform suite's random forms)
# work on chunks at or below this size, 6 curves of n = 512 points on the
# sphere; only state shared by the whole stack is held whole.  On a 2-core
# VM, with coordinate-major pair stacks, the benchmark's wall_ref medians
# at 36, 72 and 144 KiB were 62.0, 54.4 and 57.0 on calc (seeds 601-610;
# 72 KiB ran faster in 10 of 10 pairs against 36 KiB and in 9 of 10 against
# 144 KiB) and 8.40, 8.04 and 8.63 on oneform (seeds 601-605); 144 KiB
# raised calc's peak RSS 1.8% (37.7 -> 38.4 MiB), and 36 KiB lowered it 0.9%.
_CHUNK_BYTES = 72 * 2**10


def _by_chunks(stage, count: int, item_bytes: int) -> list:
    """The _outcome of each item of range(count), in order: stage(s) runs
    over slices s holding about _CHUNK_BYTES of items each, and returns one
    value per item of s.  A slice that raises runs again one item at a time,
    and an item that still raises gets its error in place of its value.
    """
    out = []
    step = max(1, _CHUNK_BYTES // item_bytes)
    for start in range(0, count, step):
        stop = min(start + step, count)
        chunk = _outcome(lambda: stage(slice(start, stop)))
        if isinstance(chunk, Exception):
            chunk = []
            for f in range(start, stop):
                got = _outcome(lambda: stage(slice(f, f + 1)))
                chunk += [got] if isinstance(got, Exception) else got
        out += chunk
    return out


def _coordinate_major(a: np.ndarray) -> np.ndarray:
    """a copy of a laid out in reverse axis order, so that axis 0, the
    nodes, is innermost: each coordinate of an (n, d) curve, and each
    column of an (n, K) block, becomes one contiguous run of n samples."""
    return np.ascontiguousarray(a.T).T


def _gather(stack: np.ndarray, i: np.ndarray) -> np.ndarray:
    """stack[:, i] of a coordinate-major stack, coordinate-major too: the
    gather runs through the transpose, so it copies whole runs of n samples,
    and np.take lays its result out as (d, m, n) (indexing would put the
    curves outermost, as (m, d, n)), so each coordinate of the chunk is one
    contiguous block."""
    return np.take(stack.T, i, axis=1).T


def _raise_first(errors: list, i: np.ndarray) -> None:
    """Raise afresh the stored error of the first function in i that has one."""
    for f in i.tolist():
        if errors[f] is not None:
            raise errors[f].with_traceback(None)


class _NormalPairs:
    """The normal fields f_k n of one curve and their perturbed curves, stacked.

    Built once per curve, basis and eps: the curves c +/- eps f_k n, 2K of
    them for K basis functions, serve both directional derivatives of every
    pair, and the first legs of the flow loops (built on the first torsion
    chunk) serve every loop.  Each stack keeps the error of each function
    whose curve raised; a pair check raises it where it reaches the curve,
    as the per-pair functions do.  The methods take index arrays i, j of a
    chunk of pairs.

    Every array, the curve's own as well as the stacks, is coordinate-major,
    with the nodes innermost in memory: an elementwise kernel keeps a layout
    only when all its operands share it.
    """

    def __init__(self, c: DiscreteImmersion, basis: list[PeriodicScalarField], eps: float):
        _check_step(c, eps)
        self.ambient = c.ambient
        self.eps = eps
        self.points = _coordinate_major(c.points)[:, None]
        _, s, v, n = c._geometry
        self.tangent = _coordinate_major(v)[:, None]
        self.normal = _coordinate_major(n)[:, None]
        # frame(c)[1], for the leak
        self.unit_normal = _coordinate_major(_tangents(c.ambient, c.points, n))[:, None]
        self.coeffs = np.stack([f.samples for f in basis]).T
        # arclen_deriv of every basis function, from one diff4
        self.derivs = _finite(diff4(self.coeffs) / s[:, None])
        self.perturbed = [self._curves(self._perturbed, step) for step in (eps, -eps)]

    def _curves(self, end, step: float) -> tuple[np.ndarray, np.ndarray, list]:
        """The curves end(k, step) gives for slices k of the basis functions,
        their normals, and each function's error (None where it raised none).
        The stacks are shaped (n, K, d) and coordinate-major, laid out as
        (d, K, n), so that a chunk's _gather copies whole runs of n samples
        and the kernels that take the gathered stacks run on those runs."""
        n, _, d = self.points.shape
        points = np.empty((d, self.coeffs.shape[1], n)).T
        normals = np.empty_like(points)

        def stage(k: slice) -> list:
            points[:, k] = end(k, step)
            normals[:, k] = _normals(self.ambient, points[:, k])
            return [None] * (k.stop - k.start)

        return points, normals, _by_chunks(stage, self.coeffs.shape[1], self.points.nbytes)

    def _perturbed(self, k: slice, step: float) -> np.ndarray:
        """The curves c + step f_k n."""
        direction = _normal_field(self.ambient, self.points, self.coeffs[:, k], self.normal)
        return _retract(self.ambient, self.points + step * direction)

    def _first_leg(self, k: slice, step: float) -> np.ndarray:
        """Where the flow of f_k n, run for step from c, ends."""
        a = self.coeffs[:, k]
        return _flow_leg(
            self.points,
            lambda pts: _normal_field(self.ambient, pts, a),
            step,
            self.ambient,
            lambda pts: _normal_field(self.ambient, pts, a, self.normal),
        )

    @functools.cached_property
    def _first_legs(self) -> dict:
        """The first leg of the flow loops of every basis function, as
        _curves gives it, for each step +eps and -eps.  The loops of the
        pairs (i, j) for all j start with this leg of f_i, so they share it."""
        return {step: self._curves(self._first_leg, step) for step in (self.eps, -self.eps)}

    def _derivative(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """directional_derivative(f_j n, c, f_i n (c), eps) for each pair."""

        def field(points, normals, errors):
            _raise_first(errors, i)
            return _normal_field(self.ambient, _gather(points, i), self.coeffs[:, j], _gather(normals, i))

        plus, minus = (field(*stack) for stack in self.perturbed)
        return _tangents(self.ambient, self.points, (plus - minus) / (2.0 * self.eps))

    def _numeric(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """bracket_numeric: D_X Y - D_Y X for X = f_i n, Y = f_j n."""
        return _tangents(self.ambient, self.points, self._derivative(i, j) - self._derivative(j, i))

    def _closed_form(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """bracket_closed_form: (a D_s b - b D_s a) v for a = f_i, b = f_j."""
        a, b = self.coeffs[:, i], self.coeffs[:, j]
        coeff = _finite(_finite(a * self.derivs[:, j]) - _finite(b * self.derivs[:, i]))
        return _tangents(self.ambient, self.points, self.tangent * coeff[..., None])

    def _flow_commutator(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """flow_commutator of f_i n and f_j n: each loop starts from the
        shared first leg of f_i, and its other legs run as stacks."""
        a, b = self.coeffs[:, i], self.coeffs[:, j]

        def leg_x(step):
            points, normals, errors = self._first_legs[step]
            _raise_first(errors, i)
            return _gather(points, i), lambda pts: _normal_field(self.ambient, pts, b, _gather(normals, i))

        delta = _commutator_delta(
            self.points,
            self.ambient,
            leg_x,
            lambda points: _normal_field(self.ambient, points, a),
            lambda points: _normal_field(self.ambient, points, b),
            self.eps,
        )
        return _tangents(self.ambient, self.points, delta)

    def bracket(self, i: np.ndarray, j: np.ndarray) -> list[tuple[float, float]]:
        """Per pair: max norm of numeric minus closed-form bracket, and the
        numeric bracket's largest normal component."""
        numeric = self._numeric(i, j)
        diff = _tangents(self.ambient, self.points, numeric - self._closed_form(i, j))
        leak = np.abs(_finite(_dot(numeric, self.unit_normal))).max(axis=0)
        return list(zip(_norm(diff).max(axis=0).tolist(), leak.tolist()))

    def torsion(self, i: np.ndarray, j: np.ndarray) -> list[float]:
        """torsion_defect of each pair."""
        defect = _tangents(self.ambient, self.points, self._numeric(i, j) - self._flow_commutator(i, j))
        return _norm(defect).max(axis=0).tolist()


def _pairwise(check, c: DiscreteImmersion, basis: list[PeriodicScalarField], pairs, eps: float) -> list:
    """check(_NormalPairs, i, j) over chunks of the index pairs, in order.

    Each pair gets its value, or the error its check raised, as _by_chunks
    gives them; where _NormalPairs itself raised, every pair holds its error.
    """
    if not pairs:
        return []
    stack = _outcome(lambda: _NormalPairs(c, basis, eps))
    if isinstance(stack, Exception):
        return [stack] * len(pairs)
    index = np.array(pairs).T
    return _by_chunks(lambda k: check(stack, *index[:, k]), len(pairs), c.points.nbytes)
