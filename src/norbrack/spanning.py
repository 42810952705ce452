"""Rank checks for normal deformation fields and their brackets.

The generating set is the trigonometric family a_j * n together with the
closed-form brackets of all pairs.  Stacking everything as columns over the
plane coordinates and ranking by SVD tests whether normal motions plus their
first brackets already move a discrete curve in every direction.

Since [a n, b n] = (a D_s b - b D_s a) * v, every generator is purely normal
or purely tangential, and the per-node change to (v, n) coordinates is
orthogonal.  The spectrum of the stacked 2N-row matrix is therefore the union
of two N-row spectra, the normalized trig block and the normalized
bracket-coefficient block, padded with zeros; verify_spanning factors the two
blocks separately and never forms the stacked matrix.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .curves import PLANE, DiscreteImmersion, ImmersionTangent, frame, speed
from .errors import GridMismatch
from .fields import PeriodicScalarField, _check_modes, diff4, trig_basis
from .oneforms import ABDecomposition, decompose_oneform

DEFAULT_RANK_TOL = 1e-8

# Bracket coefficients are built and factored this many bytes at a time, so
# memory stays bounded while the pair count grows like N^2.
_CHUNK_BYTES = 32 * 2**20

# Largest estimated working set (working_set_bytes) a spanning check may take.
WORKING_SET_BUDGET = 2**30


@dataclass(frozen=True, eq=False)
class SpanReport:
    """Outcome of a spanning check: spectrum, rank and the pass verdict.

    normal_rank is the rank of the normal generators alone, under the same
    rank_tol rule; it is not part of the JSON form.
    """

    grid_n: int
    modes: int
    num_generators: int
    singular_values: np.ndarray
    rank: int
    full: bool
    rank_tol: float
    normal_rank: int

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])

    def to_json_obj(self) -> dict:
        return {
            "n": self.grid_n,
            "K": self.modes,
            "m": self.num_generators,
            "rank": self.rank,
            "full": self.full,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "rank_tol": self.rank_tol,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def working_set_bytes(n: int, max_mode: int) -> int:
    """Estimated bytes verify_spanning holds at once on n nodes up to max_mode.

    Counts the trig block and its D_s, the two np.triu_indices pair arrays,
    one bracket chunk and the n x n triangular factor.

    WORKING_SET_BUDGET bounds this estimate, not the peak memory: QR
    workspace, the vstack copy and the diff4 temporaries are not counted.
    Measured peak RSS above the interpreter's baseline is 2.2-2.9 times the
    estimate (188 MiB at n = 1024, 360 MiB at n = 2048), so the largest
    admitted config should peak at about 3 GiB; that peak was not run.
    """
    p = 2 * max_mode + 1
    pairs = p * (p - 1) // 2
    return 8 * (2 * p * n + 2 * pairs + n * n) + _CHUNK_BYTES


def _trig_rows(n: int, max_mode: int) -> np.ndarray:
    """The trig basis up to max_mode as the rows of a (2K+1, N) array."""
    _check_modes(n, max_mode)
    return np.array([a.samples for a in trig_basis(n, max_mode)])


def _bracket_rows(c: DiscreteImmersion, trig: np.ndarray) -> Iterator[np.ndarray]:
    """Coefficients of [a_i n, a_j n] = coeff * v for all pairs i < j.

    Yields them as rows of arrays of at most _CHUNK_BYTES each, in
    np.triu_indices order; D_s of the basis is taken once for all pairs.
    """
    dtrig = (diff4(trig.T) / speed(c).samples[:, None]).T
    first, second = np.triu_indices(trig.shape[0], k=1)
    step = max(1, _CHUNK_BYTES // trig[0].nbytes)
    for lo in range(0, first.size, step):
        i, j = first[lo : lo + step], second[lo : lo + step]
        rows = trig[i] * dtrig[j]
        rows -= trig[j] * dtrig[i]
        yield rows


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale rows to unit length in place; zero rows cannot change a rank
    and are left alone."""
    norms = np.linalg.norm(rows, axis=1)
    rows /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return rows


def normal_generators(c: DiscreteImmersion, max_mode: int) -> list[ImmersionTangent]:
    """The fields a_j * n for the trig basis up to max_mode (2K+1 fields)."""
    _check_modes(c.grid_n, max_mode)
    _, n = frame(c)
    return [n * a for a in trig_basis(c.grid_n, max_mode)]


def bracket_generators(c: DiscreteImmersion, max_mode: int) -> list[ImmersionTangent]:
    """Closed-form brackets of all distinct pairs (i < j) from the trig basis."""
    trig = _trig_rows(c.grid_n, max_mode)
    v, _ = frame(c)
    return [
        ImmersionTangent(v.vectors * coeff[:, None], c)
        for rows in _bracket_rows(c, trig)
        for coeff in rows
    ]


def verify_spanning(
    c: DiscreteImmersion, max_mode: int, rank_tol: float = DEFAULT_RANK_TOL
) -> SpanReport:
    """SVD rank of the normal + bracket generators, stacked as 2N columns.

    Columns are normalized to unit length (zero columns are left alone, they
    cannot change the rank); rank counts singular values at or above
    rank_tol times the largest one, and full means rank == 2 * grid_n.

    The spectrum is computed per block: an exact SVD of the normalized trig
    block, and an exact SVD of the triangular factor of the normalized
    bracket block, accumulated chunk by chunk with QR (which keeps the
    block's singular values without squaring its condition number).
    """
    if c.ambient != PLANE:
        raise ValueError("spanning verification is defined for plane curves only")
    n = c.grid_n
    trig = _trig_rows(n, max_mode)
    tri = np.empty((0, n))
    for rows in _bracket_rows(c, trig):
        tri = np.linalg.qr(np.vstack([tri, _unit_rows(rows)]), mode="r")
    normal_sigma = np.linalg.svd(_unit_rows(trig.copy()), compute_uv=False)
    bracket_sigma = np.linalg.svd(tri, compute_uv=False)
    p = trig.shape[0]
    num_generators = p + p * (p - 1) // 2
    sigma = np.zeros(min(2 * n, num_generators))
    merged = np.sort(np.concatenate([normal_sigma, bracket_sigma]))[::-1]
    sigma[: merged.size] = merged
    rank = int(np.sum(sigma >= rank_tol * sigma[0]))
    return SpanReport(
        grid_n=n,
        modes=max_mode,
        num_generators=num_generators,
        singular_values=sigma,
        rank=rank,
        full=rank == 2 * n,
        rank_tol=rank_tol,
        normal_rank=int(np.sum(normal_sigma >= rank_tol * normal_sigma[0])),
    )


def synthesize_tangential(c: DiscreteImmersion, m: PeriodicScalarField) -> ABDecomposition:
    """Coefficients writing the reparametrization field m * d_theta(c) as a
    combination of closed-form brackets.

    Since [a n, b n] = (1/speed) * (a db - b da)(d_theta) * v, decomposing
    the one-form with values m * speed^2 produces pairs whose brackets sum
    to m * speed * v = m * d_theta(c).  decompose_oneform is exact under the
    stencil that bracket_closed_form differentiates with, so the sum matches
    m * d_theta(c) up to rounding, with at most three pairs.
    """
    if m.grid_n != c.grid_n:
        raise GridMismatch("coefficient field and curve use different grids")
    s = speed(c)
    return decompose_oneform(m * s * s)
