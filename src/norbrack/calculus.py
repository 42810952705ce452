"""Calculus in the immersion variable: fields of deformations along curves,
directional derivatives, flow commutators, and the closed-form bracket of
normal deformation fields.

All derivatives in the curve variable are central differences; on the sphere
perturbed curves are pulled back by normalization and results are projected
to the sphere's tangent planes, which realizes the ambient connection.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .curves import (
    PLANE,
    DiscreteImmersion,
    ImmersionTangent,
    _check_attached,
    arclen_deriv,
    curvature,
    frame,
    speed,
    split_tangent_normal,
)
from .errors import GridMismatch, StepTooLarge
from .fields import PeriodicScalarField


def _retract(ambient: str, points: np.ndarray) -> np.ndarray:
    """Pull ambient points back onto the ambient space (a copy in the plane)."""
    if ambient == PLANE:
        return np.array(points, dtype=float)
    return points / np.linalg.norm(points, axis=1)[:, None]


def _project(ambient: str, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project vectors at the given points onto the ambient's tangent planes."""
    if ambient == PLANE:
        return np.array(vectors, dtype=float)
    return vectors - np.sum(vectors * points, axis=1)[:, None] * points


class CurveField:
    """A rule assigning a deformation vector field to every curve.

    Fields support addition and scaling, so composites like v + 0.3 * (a n)
    can be built from the named constructors below.
    """

    def __init__(self, rule: Callable[[DiscreteImmersion], ImmersionTangent], name: str = "field"):
        self._rule = rule
        self.name = name

    def __call__(self, c: DiscreteImmersion) -> ImmersionTangent:
        return self._rule(c)

    def __add__(self, other: "CurveField") -> "CurveField":
        return CurveField(lambda c: self(c) + other(c), f"{self.name}+{other.name}")

    def __sub__(self, other: "CurveField") -> "CurveField":
        return CurveField(lambda c: self(c) - other(c), f"{self.name}-{other.name}")

    def __mul__(self, factor: float) -> "CurveField":
        factor = float(factor)
        return CurveField(lambda c: self(c) * factor, f"{factor:g}*{self.name}")

    __rmul__ = __mul__

    def __neg__(self) -> "CurveField":
        return self * -1.0


def normal_field(a: PeriodicScalarField | None = None, name: str | None = None) -> CurveField:
    """The field c -> a * n(c); plain unit normal when a is omitted."""
    if a is None:
        return CurveField(lambda c: frame(c)[1], name or "n")

    def rule(c: DiscreteImmersion) -> ImmersionTangent:
        return frame(c)[1] * a

    return CurveField(rule, name or "a*n")


def tangent_field(m: PeriodicScalarField | None = None, name: str | None = None) -> CurveField:
    """The field c -> m * v(c); plain unit tangent when m is omitted."""
    if m is None:
        return CurveField(lambda c: frame(c)[0], name or "v")

    def rule(c: DiscreteImmersion) -> ImmersionTangent:
        return frame(c)[0] * m

    return CurveField(rule, name or "m*v")


def constant_field(w, name: str | None = None) -> CurveField:
    """The field attaching the same ambient vector w at every node.

    On the sphere the attached vectors get projected to the sphere's tangent
    planes (tangent construction does this), so evaluation is always valid.
    """
    w = np.asarray(w, dtype=float)

    def rule(c: DiscreteImmersion) -> ImmersionTangent:
        if w.shape != (c.ambient_dim,):
            raise GridMismatch(f"constant vector has dimension {w.shape}, curve needs {c.ambient_dim}")
        return ImmersionTangent(np.tile(w, (c.grid_n, 1)), c)

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
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if eps > 0.1 * speed(c).min():
        raise StepTooLarge(f"eps = {eps:g} exceeds a tenth of the minimum speed")
    plus = field(_perturbed(c, direction.vectors, eps))
    minus = field(_perturbed(c, direction.vectors, -eps))
    diff = (plus.vectors - minus.vectors) / (2.0 * eps)
    return ImmersionTangent(_project(c.ambient, c.points, diff), c)


def bracket_of_fields(
    x: CurveField, y: CurveField, c: DiscreteImmersion, eps: float
) -> ImmersionTangent:
    """Numeric Lie bracket [X, Y] = D_X Y - D_Y X by central differences."""
    return directional_derivative(y, c, x(c), eps) - directional_derivative(x, c, y(c), eps)


def _flow_leg(points: np.ndarray, field: CurveField, step: float, ambient: str) -> np.ndarray:
    """One midpoint step of the flow of a field, retracted to the ambient.

    A single Euler step is not enough here: its O(step^2) defect per leg
    would leave a first-order self-interaction residue in the commutator
    product, swamping the bracket itself.
    """
    half = _retract(ambient, points + (0.5 * step) * field(DiscreteImmersion(points, ambient)).vectors)
    k = field(DiscreteImmersion(half, ambient)).vectors
    return _retract(ambient, points + step * k)


def _commutator_endpoint(
    c: DiscreteImmersion, x: CurveField, y: CurveField, eps: float
) -> np.ndarray:
    pts = _flow_leg(c.points, x, eps, c.ambient)
    pts = _flow_leg(pts, y, eps, c.ambient)
    pts = _flow_leg(pts, x, -eps, c.ambient)
    return _flow_leg(pts, y, -eps, c.ambient)


def flow_commutator(
    c: DiscreteImmersion, x: CurveField, y: CurveField, eps: float
) -> ImmersionTangent:
    """Bracket estimate from the loop of flows x, y, -x, -y at scale eps.

    Averaging the loops run with +eps and -eps cancels the odd error term
    of the commutator expansion, leaving an O(eps^2) estimate of [X, Y].
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    forward = _commutator_endpoint(c, x, y, eps)
    backward = _commutator_endpoint(c, x, y, -eps)
    delta = (forward + backward - 2.0 * c.points) / (2.0 * eps * eps)
    return ImmersionTangent(_project(c.ambient, c.points, delta), c)


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
    v, _ = frame(c)
    coeff = a * arclen_deriv(c, b) - b * arclen_deriv(c, a)
    return v * coeff


def bracket_numeric(
    c: DiscreteImmersion,
    a: PeriodicScalarField,
    b: PeriodicScalarField,
    eps: float = 1e-5,
) -> ImmersionTangent:
    """Numeric bracket of the normal fields a*n and b*n."""
    return bracket_of_fields(normal_field(a), normal_field(b), c, eps)
