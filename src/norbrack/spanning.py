"""Rank checks for normal deformation fields and their brackets.

The generating set is the trigonometric family a_j * n together with the
closed-form brackets of all pairs.  Stacking everything as columns over the
plane coordinates and ranking by SVD tests whether normal motions plus their
first brackets already move a discrete curve in every direction.

Since [a n, b n] = (a D_s b - b D_s a) * v, every generator is purely normal
or purely tangential, and the per-node change to (v, n) coordinates is
orthogonal.  The spectrum of the stacked 2N-row matrix is therefore the union
of two N-row spectra, the normalized trig block and the normalized
bracket-coefficient block, padded with zeros; verify_spanning computes the two
separately and never forms the stacked matrix.

The trig block needs no decomposition.  On the uniform grid of n nodes the
functions 1, cos(k theta), sin(k theta) for k <= n/2 are pairwise orthogonal.
This is discrete orthogonality: the product of two distinct basis functions is
a half-sum of cosines or of sines at frequencies k +- j, the node sum of
sin(l theta) is 0, and that of cos(l theta) is 0 unless l = 0 mod n, which
k +- j never is for a distinct pair.  So the normalized rows are orthonormal,
and each gives a singular value of exactly 1.  The one exception is the sine at the Nyquist mode K = n/2, which
vanishes at every node and stays a zero row; the other 2K = n rows are then an
orthonormal basis of all n node values.  Either way the block's spectrum is
min(2K+1, n) ones.

The bracket block is computed in Fourier coordinates.  On n nodes the
functions cos(f theta), f = 0..n/2, and sin(f theta), f = 1..n/2-1, are a
basis of the samples; coordinate f <= n/2 is cos(f theta) and coordinate
n - f is sin(f theta).  diff4 maps cos(k theta) to -lam_k sin(k theta) and
sin(k theta) to lam_k cos(k theta), lam = diff4_symbol(n), so by
product-to-sum the bracket coefficient A D B - B D A of basis functions at
modes a and b has exactly two coordinates, at frequencies |a +- b| folded into
0..n/2:

    cos a, cos b:  (lam_a - lam_b)/2 sin((a+b) theta) + (lam_a + lam_b)/2 sin((a-b) theta)
    sin a, sin b:  (lam_b - lam_a)/2 sin((a+b) theta) + (lam_a + lam_b)/2 sin((a-b) theta)
    cos a, sin b:  (lam_b - lam_a)/2 cos((a+b) theta) + (lam_a + lam_b)/2 cos((a-b) theta)
    sin a, cos b:  (lam_b - lam_a)/2 cos((a+b) theta) - (lam_a + lam_b)/2 cos((a-b) theta)

Row r of the block is b_r = (Phi x_r) / speed scaled to unit length, with Phi
the basis samples and x_r those coordinates.  Its nonzero squared singular
values are the eigenvalues of M^(1/2) Q M^(1/2), where M = sum_r x_r x_r^T /
|b_r|^2 is a scatter-add of four entries per pair and Q = Phi^T diag(speed^-2)
Phi is read off G = n * ifft(speed^-2); with the Cholesky root Q = L L^T they
are the eigenvalues of L^T M L.  Only coordinates some bracket reaches enter,
so the block's structural zeros stay exact zeros.

A basis up to mode K reaches frequencies up to min(2K, n/2) only, so M and Q
are built on the m = min(4K + 1, n) coordinates cos f, f <= m/2, and sin f,
1 <= f < m/2, laid out as the n coordinates are with m in place of n:
coordinate f <= m/2 is cos(f theta) and coordinate m - f is sin(f theta).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .curves import PLANE, DiscreteImmersion, ImmersionTangent, frame, speed
from .errors import GridMismatch
from .fields import PeriodicScalarField, _check_modes, diff4, diff4_symbol, trig_basis
from .oneforms import ABDecomposition, decompose_oneform

DEFAULT_RANK_TOL = 1e-8

# Bracket pairs are scattered into M this many at a time, so memory stays
# bounded while the pair count grows like N^2.
_PAIR_CHUNK = 2**15

# Bytes a chunk holds per pair: its indices, modes, coefficients, row norms
# and the four scattered entries with their row and column indices.
_SCATTERED_PAIR_BYTES = 256

# Bytes a spanning run holds per node besides the bracket block: the curve,
# its frame and the grid-sized arrays behind Q (tracemalloc reads 144 to 148
# over whole runs at n = 8192 to 262144).
_NODE_BYTES = 160

# Largest working set (working_set_bytes) a spanning check may take.
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
    """Bytes a spanning run holds at once on n nodes up to max_mode.

    The bracket block, on m = min(4K + 1, n) coordinates, peaks at four m x m
    float arrays: Q and the index arrays that build it; then M, Q, LAPACK's
    copy of Q and its Cholesky root L; then L, L^T M and H.  Between those it
    holds M, Q and one chunk of at most _PAIR_CHUNK pairs, at
    _SCATTERED_PAIR_BYTES a pair.  Next to them sit
    the curve, its frame and the grid-sized arrays behind Q, at _NODE_BYTES a
    node.  The normal block's spectrum is written down, not computed.
    """
    m = min(4 * max_mode + 1, n)
    p = 2 * max_mode + 1
    chunk = min(p * (p - 1) // 2, _PAIR_CHUNK)
    return 8 * 4 * m * m + chunk * _SCATTERED_PAIR_BYTES + n * _NODE_BYTES


def _trig_rows(n: int, max_mode: int) -> np.ndarray:
    """The trig basis up to max_mode as the rows of a (2K+1, N) array."""
    _check_modes(n, max_mode)
    return np.array([a.samples for a in trig_basis(n, max_mode)])


def _normal_sigma(n: int, max_mode: int) -> np.ndarray:
    """Singular values of the normalized trig block: min(2K+1, n) ones
    (see the module docstring)."""
    return np.ones(min(2 * max_mode + 1, n))


def normal_generators(c: DiscreteImmersion, max_mode: int) -> list[ImmersionTangent]:
    """The fields a_j * n for the trig basis up to max_mode (2K+1 fields)."""
    _check_modes(c.grid_n, max_mode)
    _, n = frame(c)
    return [n * a for a in trig_basis(c.grid_n, max_mode)]


def bracket_generators(c: DiscreteImmersion, max_mode: int) -> list[ImmersionTangent]:
    """Closed-form brackets of all distinct pairs (i < j) from the trig basis,
    in np.triu_indices order; D_s of the basis is taken once for all pairs."""
    trig = _trig_rows(c.grid_n, max_mode)
    dtrig = (diff4(trig.T) / speed(c).samples[:, None]).T
    first, second = np.triu_indices(trig.shape[0], k=1)
    rows = trig[first] * dtrig[second]
    rows -= trig[second] * dtrig[first]
    v, _ = frame(c)
    return [ImmersionTangent(v.vectors * coeff[:, None], c) for coeff in rows]


def _weighted_gram(s: np.ndarray, m: int) -> np.ndarray:
    """Q[a, b] = sum over nodes of phi_a phi_b / s^2 for the first m
    coordinates (see the module docstring for their layout).

    With phi = cos(f theta - p pi/2), p = 1 for a sine, the product is
    (cos((f_a - f_b) theta - (p_a - p_b) pi/2) + cos((f_a + f_b) theta -
    (p_a + p_b) pi/2)) / 2, and the node sum of s^-2 cos(l theta - k pi/2)
    is Re((-i)^k G[l]) with G = n * ifft(s^-2).
    """
    n = s.shape[0]
    g = n * np.fft.ifft(1.0 / (s * s))
    table = np.concatenate([g.real, g.imag, -g.real, -g.imag])
    coord = np.arange(m)
    freq = np.where(coord <= m // 2, coord, m - coord)
    phase = (coord > m // 2).astype(np.int64)
    q = table[np.subtract.outer(phase, phase) % 4 * n + np.subtract.outer(freq, freq) % n]
    q += table[np.add.outer(phase, phase) * n + np.add.outer(freq, freq) % n]
    q *= 0.5
    return q


def _pair_chunks(p: int):
    """The pairs i < j of p functions in np.triu_indices order, as index
    arrays of at most _PAIR_CHUNK pairs."""
    rows = np.arange(p)
    starts = rows * (2 * p - rows - 1) // 2  # pairs before row i
    total = p * (p - 1) // 2
    for lo in range(0, total, _PAIR_CHUNK):
        k = np.arange(lo, min(lo + _PAIR_CHUNK, total))
        i = np.searchsorted(starts, k, side="right") - 1
        yield i, k - starts[i] + i + 1


def _coordinate(n: int, m: int, freq: np.ndarray, sine: np.ndarray, coeff: np.ndarray):
    """Coordinate index among the first m and coefficient of coeff *
    t(freq theta) on n nodes, with t = sin where sine and cos elsewhere, for
    signed integer freq whose folded frequency is at most m // 2.

    cos is even and sin odd, and on the grid sin((n - f) theta) = -sin(f
    theta); a sine at frequency 0 or n/2 vanishes on the grid and gets
    coefficient 0.
    """
    f = np.abs(freq)
    over = f > n // 2
    f = np.where(over, n - f, f)
    coeff = np.where(sine & ((freq < 0) != over), -coeff, coeff)
    dead = sine & ((f == 0) | (f == n // 2))
    return np.where(sine & ~dead, m - f, f), np.where(dead, 0.0, coeff)


def _bracket_sigma(c: DiscreteImmersion, max_mode: int) -> np.ndarray:
    """Singular values of the normalized bracket-coefficient block, largest
    first, from its Fourier coordinates (see the module docstring)."""
    n = c.grid_n
    lam = diff4_symbol(n)
    p = 2 * max_mode + 1
    m = min(4 * max_mode + 1, n)  # the coordinates a bracket can reach
    mode = np.zeros(p, dtype=np.int64)
    mode[1::2] = mode[2::2] = np.arange(1, max_mode + 1)
    sine = np.zeros(p, dtype=bool)
    sine[2::2] = True
    # a pair with the Nyquist sine (the zero function) puts two opposite
    # coefficients on one coordinate, so its row norm is an exact 0
    q = _weighted_gram(speed(c).samples, m)
    gram = np.zeros((m, m))
    for i, j in _pair_chunks(p):
        a, b, si, sj = mode[i], mode[j], sine[i], sine[j]
        same = si == sj
        plus = np.where(si | sj, 0.5, -0.5) * (lam[b] - lam[a])
        minus = np.where(si & ~sj, -0.5, 0.5) * (lam[a] + lam[b])
        i1, c1 = _coordinate(n, m, a + b, same, plus)
        i2, c2 = _coordinate(n, m, a - b, same, minus)
        norm2 = c1 * c1 * q[i1, i1] + 2.0 * c1 * c2 * q[i1, i2] + c2 * c2 * q[i2, i2]
        w = np.divide(1.0, norm2, out=np.zeros_like(norm2), where=norm2 > 0.0)
        cross = w * c1 * c2
        np.add.at(
            gram,
            (np.concatenate([i1, i2, i1, i2]), np.concatenate([i1, i2, i2, i1])),
            np.concatenate([w * c1 * c1, w * c2 * c2, cross, cross]),
        )
    reached = np.flatnonzero(np.diagonal(gram) > 0.0)
    if reached.size < m:
        gram = gram[np.ix_(reached, reached)]
        q = q[np.ix_(reached, reached)]
    # each m x m array is dropped once used; working_set_bytes counts the rest
    root = np.linalg.cholesky(q)
    del q
    h = root.T @ gram
    del gram
    h = h @ root
    del root
    sigma = np.sqrt(np.clip(np.linalg.eigvalsh(h), 0.0, None))[::-1]
    # the block has p(p-1)/2 rows, so any further eigenvalues are zeros
    return sigma[: p * (p - 1) // 2]


def verify_spanning(
    c: DiscreteImmersion, max_mode: int, rank_tol: float = DEFAULT_RANK_TOL
) -> SpanReport:
    """Rank of the normal + bracket generators, stacked as 2N columns.

    Columns are normalized to unit length (zero columns are left alone, they
    cannot change the rank); rank counts singular values at or above
    rank_tol times the largest one, and full means rank == 2 * grid_n.

    The spectrum is computed per block (see the module docstring): the
    normalized trig block's is written down, since its nonzero rows are
    orthonormal on the uniform grid, and the normalized bracket block's is
    computed exactly in Fourier coordinates.
    """
    if c.ambient != PLANE:
        raise ValueError("spanning verification is defined for plane curves only")
    n = c.grid_n
    _check_modes(n, max_mode)
    normal_sigma = _normal_sigma(n, max_mode)
    bracket_sigma = _bracket_sigma(c, max_mode)
    p = 2 * max_mode + 1
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
