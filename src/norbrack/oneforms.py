"""Decomposing one-forms on the circle into sums of a*db terms.

A one-form alpha is stored through its values alpha(d_theta) on the grid,
in the same validated container as any scalar field.  The basic building
block is the antisymmetric combination a*db - b*da.  decompose_oneform
writes any sampled one-form as at most three such terms that reconstruct it
up to rounding under the package's stencil: the circle's Hodge split
alpha = dg + c dtheta, plus one term for the alternating Nyquist mode that
the stencil's kernel hides.  decompose_supported multiplies those terms by a
plateau to keep them inside a window.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SupportViolation
from .fields import (
    PeriodicScalarField,
    TWO_PI,
    diff4,
    diff4_symbol,
    periodic_primitive,
    theta_grid,
)

# Values alpha(d_theta) at the grid nodes.
OneFormSamples = PeriodicScalarField


@dataclass(frozen=True, eq=False)
class ABDecomposition:
    """A sum of terms coeff * (a db - b da), each factor a scalar field."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        grids = {a.grid_n for _, a, _ in terms} | {b.grid_n for _, _, b in terms}
        if len(grids) > 1:
            raise GridMismatch(f"terms live on different grids: {sorted(grids)}")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def grid_n(self) -> int | None:
        return self.terms[0][1].grid_n if self.terms else None

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": float(coeff), "a": a.samples.tolist(), "b": b.samples.tolist()}
            for coeff, a, b in self.terms
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def ab_form(a: PeriodicScalarField, b: PeriodicScalarField) -> OneFormSamples:
    """The one-form a db - b da evaluated on d_theta."""
    if a.grid_n != b.grid_n:
        raise GridMismatch("a and b use different grids")
    return OneFormSamples(a.samples * diff4(b.samples) - b.samples * diff4(a.samples))


def reconstruct(dec: ABDecomposition, n: int | None = None) -> OneFormSamples:
    """Sum coeff * (a db - b da) over the terms of a decomposition."""
    if not dec.terms:
        if n is None:
            raise ValueError("empty decomposition needs an explicit grid size")
        return OneFormSamples(np.zeros(n))
    total = np.zeros(dec.grid_n)
    for coeff, a, b in dec.terms:
        total += coeff * ab_form(a, b).samples
    return OneFormSamples(total)


def _bump(t: np.ndarray) -> np.ndarray:
    """Standard smooth bump exp(-1/(1-t^2)) on (-1, 1), exactly 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@functools.lru_cache(maxsize=64)
def _grid_terms(n: int) -> tuple:
    """The per-grid fields of the Hodge split on n nodes.

    Returns (cos1, sin1, sin_m, alternating, ab_mean, ab_nyquist): the fields
    cos theta, sin theta and sin(M theta) with M = n/2 - 1, the alternating
    signs (-1)^k, and the arrays ab_form(cos1, sin1) and ab_form(cos1, sin_m)
    that the mean and Nyquist terms carry.  Computed once per n; the arrays
    are shared and read-only.
    """
    theta = theta_grid(n)
    cos1 = PeriodicScalarField(np.cos(theta))
    sin1 = PeriodicScalarField(np.sin(theta))
    sin_m = PeriodicScalarField(np.sin((n // 2 - 1) * theta))
    alternating = 1.0 - 2.0 * (np.arange(n) % 2)
    ab_mean = ab_form(cos1, sin1).samples
    ab_nyquist = ab_form(cos1, sin_m).samples
    alternating.flags.writeable = False
    return cos1, sin1, sin_m, alternating, ab_mean, ab_nyquist


def _hodge_split(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hodge split of each row of an (m, n) stack of one-form samples.

    Returns the mean coefficients, the Nyquist coefficients (each of shape
    (m,), an exact 0 where the row has no such content) and the primitives g
    as the rows of an (m, n) array; decompose_oneform says what they are.
    Each row comes out bitwise as it would on its own: means run along the
    contiguous last axis and the primitive along axis 0 of the transpose.
    """
    n = rows.shape[1]
    lam = diff4_symbol(n)
    alternating = _grid_terms(n)[3]
    mean = np.mean(rows, axis=1) / lam[1]
    nyquist = 2.0 * np.mean(rows * alternating, axis=1) / (lam[n // 2 - 1] - lam[1])
    rest = _add_grid_terms(rows.copy(), -mean, -nyquist)
    return mean, nyquist, periodic_primitive(rest.T).T


def _add_grid_terms(rows: np.ndarray, mean: np.ndarray, nyquist: np.ndarray) -> np.ndarray:
    """Add to each row, in place, its mean and Nyquist terms, coeff *
    ab_form, in decompose_oneform's order; a row whose coefficient is an
    exact 0 has no such term and is left alone.  Subtracting a term is
    adding it with the coefficient negated, bitwise."""
    *_, ab_mean, ab_nyquist = _grid_terms(rows.shape[1])
    for coeffs, ab in ((mean, ab_mean), (nyquist, ab_nyquist)):
        np.add(rows, coeffs[:, None] * ab, out=rows, where=(coeffs != 0.0)[:, None])
    return rows


def _reconstruct_split(
    mean: np.ndarray, nyquist: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The reconstruction and term count of each row of a _hodge_split,
    bitwise as reconstruct(decompose_oneform(row)) and its len give them:
    diff4(g) plus the mean and Nyquist terms the row has."""
    recon = _add_grid_terms(diff4(g.T).T, mean, nyquist)
    return recon, np.count_nonzero((g.any(axis=1), mean, nyquist), axis=0)


def decompose_oneform(alpha: OneFormSamples) -> ABDecomposition:
    """Express alpha as at most three a db - b da terms.

    The terms reconstruct alpha up to rounding, because each one is exact
    under the diff4 stencil that ab_form and reconstruct use (lam below is
    diff4_symbol(n), and M = n/2 - 1):

    - (1, 1, g) carries the rest, with g = periodic_primitive(rest): diff4
      of a constant is bitwise 0, so ab_form(1, g) = diff4(g) = rest.
    - (mean / lam[1], cos theta, sin theta) carries the mean, since
      ab_form(cos, sin) = lam[1] (cos^2 + sin^2).
    - (2 nu / (lam[M] - lam[1]), cos theta, sin(M theta)) carries nu times
      the alternating Nyquist mode, which no derivative on the grid
      reaches.  The one-form of (cos theta, sin(M theta)) is
      (lam[M] + lam[1]) / 2 * cos((M-1) theta)
      + (lam[M] - lam[1]) / 2 * cos((n/2) theta),
      and lam[M] - lam[1] = sin(2h) / (3h) is never zero.

    The mean and Nyquist terms are subtracted as sampled, so their rounding
    and the mode M - 1 of the Nyquist term land in g.  A term whose content is
    exactly zero is left out, so the zero form yields an empty
    decomposition.  Memory is O(n): no matrix is formed.  The arithmetic is
    _hodge_split's, run on alpha as a stack of one row.
    """
    n = alpha.grid_n
    cos1, sin1, sin_m, *_ = _grid_terms(n)
    mean, nyquist, g = (part[0] for part in _hodge_split(alpha.samples[None]))
    terms = []
    if g.any():
        terms.append((1.0, PeriodicScalarField.constant(1.0, n), PeriodicScalarField(g)))
    if mean != 0.0:
        terms.append((mean, cos1, sin1))
    if nyquist != 0.0:
        terms.append((nyquist, cos1, sin_m))
    return ABDecomposition(tuple(terms))


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: exactly 0 for x <= 0, exactly 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    lo = np.exp(-1.0 / np.maximum(x, 1e-300)) * (x > 0.0)
    hi = np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)) * (x < 1.0)
    out = np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, lo / (lo + hi)))
    return out


def _window_offsets(theta: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Offsets of each node from the window start, and the window length."""
    length = (hi - lo) % TWO_PI
    if length == 0.0:
        length = TWO_PI
    return (theta - lo) % TWO_PI, length


def decompose_supported(
    alpha: OneFormSamples, window: tuple[float, float]
) -> ABDecomposition:
    """Decompose alpha keeping every term supported inside the window.

    The window is the open arc from window[0] to window[1] (going
    counterclockwise, wrapping if needed).  alpha must vanish (below 1e-12)
    at every node outside it.  Every a and b of the plain decomposition is
    multiplied by a smooth plateau that equals 1 where alpha is nonzero and
    is exactly 0 outside the window, which squares to 1 on the support of
    alpha and so preserves the reconstruction there.
    """
    n = alpha.grid_n
    theta = theta_grid(n)
    lo, hi = float(window[0]), float(window[1])
    offsets, length = _window_offsets(theta, lo, hi)
    inside = (offsets > 0.0) & (offsets < length)

    live = np.abs(alpha.samples) > 1e-12
    if np.any(live & ~inside):
        worst = np.abs(alpha.samples[live & ~inside]).max()
        raise SupportViolation(
            f"one-form reaches {worst:.3e} outside the window ({lo:.6g}, {hi:.6g})"
        )

    base = decompose_oneform(alpha)
    if not live.any() or not base.terms:
        return ABDecomposition(())

    # plateau: ramp up across the gap between the window edge and the first
    # live node, hold 1 over the live arc, ramp back down on the far side
    live_offsets = offsets[live]
    start, end = live_offsets.min(), live_offsets.max()
    rise = _smoothstep(offsets / start) if start > 0.0 else (offsets >= 0.0).astype(float)
    fall = (
        _smoothstep((length - offsets) / (length - end))
        if end < length
        else (offsets <= length).astype(float)
    )
    plateau = np.where(inside, rise * fall, 0.0)
    chi = PeriodicScalarField(plateau)

    terms = tuple((coeff, a * chi, b * chi) for coeff, a, b in base.terms)
    return ABDecomposition(terms)
