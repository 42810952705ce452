"""Periodic scalar fields on a uniform grid over [0, 2pi).

Everything downstream differentiates with the same fourth-order central
stencil, so its properties (exact on constants, annihilates the alternating
Nyquist mode) are load-bearing and documented here once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import BasisTooLarge, GridMismatch

TWO_PI = 2.0 * np.pi

def _validate_grid_n(n: int) -> None:
    if n < 8 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got {n}")


def theta_grid(n: int) -> np.ndarray:
    """Nodes theta_k = 2*pi*k/n for k = 0..n-1."""
    _validate_grid_n(n)
    return np.arange(n) * (TWO_PI / n)


def diff4(values: np.ndarray) -> np.ndarray:
    """Fourth-order central difference along axis 0 of periodic samples.

    Exact (bitwise zero) on constant data because the forward and backward
    shifts cancel before any division happens.  The shifts are slices of one
    copy padded by two rows of wrap-around at each end.  np.concatenate lays
    that copy out in memory as its inputs are, and elementwise ufuncs keep
    their inputs' memory order, so the result keeps the input's (a
    coordinate-major stack of curves stays coordinate-major).  The output is
    allocated in that order too, and _stencil, the arithmetic that the arc
    projection runs in its own buffers, fills it.
    """
    a = np.asarray(values, dtype=float)
    return _stencil(_shifts(np.concatenate((a[-2:], a, a[:2]))), np.empty_like(a))


def _shifts(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The views p0, p1, p3, p4 of padded that _stencil reads: the n samples
    that padded holds between two rows of wrap-around at each end, shifted
    by -2, -1, +1 and +2 rows."""
    n = padded.shape[0] - 4
    return padded[:n], padded[1 : n + 1], padded[3 : n + 3], padded[4:]


def _stencil(shifts, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """diff4 of the padded samples whose _shifts are given, written into out
    (n rows): (p3 - p1) * 8, less (p4 - p0), over 12 h, as in-place steps on
    out, so that the result is bitwise the one expression they spell.
    p4 - p0 goes into scratch where the caller gives it (out's shape)."""
    p0, p1, p3, p4 = shifts
    np.subtract(p3, p1, out=out)
    out *= 8.0
    out -= np.subtract(p4, p0, out=scratch)
    out /= 12.0 * (TWO_PI / out.shape[0])
    return out


@functools.lru_cache(maxsize=64)
def diff4_symbol(n: int) -> np.ndarray:
    """Per-mode derivative factors of the stencil, in rfft bin order.

    Applying diff4 to exp(i*m*theta) multiplies it by 1j*lam[m] with
    lam[m] = (8 sin(m h) - sin(2 m h)) / (6 h).  lam vanishes for m = 0 and
    for the Nyquist bin m = n/2, where both entries are an exact 0 (the
    formula leaves rounding noise at n/2, but diff4 of the alternating mode
    is bitwise 0).  Computed once per n; the array is shared and read-only.
    """
    h = TWO_PI / n
    m = np.arange(n // 2 + 1)
    lam = (8.0 * np.sin(m * h) - np.sin(2.0 * m * h)) / (6.0 * h)
    lam[-1] = 0.0
    lam.flags.writeable = False
    return lam


# the core axes of _primitive's gufuncs: samples and bins along axis 0 of
# the input and the output, and the scalar normalisation factor
_AXES = [(0,), (), (0,)]


@functools.lru_cache(maxsize=64)
def _primitive_divisor(n: int, ndim: int) -> np.ndarray:
    """1j * lam on the bins periodic_primitive inverts (all but the mean and
    Nyquist bins), as a column that divides an ndim-dimensional spectrum
    along axis 0; computed once per n and ndim, shared and read-only."""
    divisor = (1j * diff4_symbol(n)[1:-1]).reshape((-1,) + (1,) * (ndim - 1))
    divisor.flags.writeable = False
    return divisor


def periodic_primitive(values: np.ndarray) -> np.ndarray:
    """Solve diff4(p) = values exactly on the modes the stencil can see.

    Works along axis 0, like diff4, so the columns of a 2-D array are solved
    as separate samples, each bitwise as on its own.  The stencil has a
    two-dimensional kernel (constants and the alternating Nyquist mode), so
    those components of the input are unreachable and are dropped; the
    returned primitive has zero grid mean.  _primitive, the arithmetic that
    the arc projection runs in its own buffers, does the work here with
    arrays that numpy allocates.
    """
    w = np.asarray(values, dtype=float)
    _validate_grid_n(w.shape[0])
    return _primitive(w)


def _primitive(
    w: np.ndarray, spec: np.ndarray | None = None, out: np.ndarray | None = None, bins: np.ndarray | None = None
) -> np.ndarray:
    """periodic_primitive of float samples w on a valid grid, along axis 0:
    the rfft bins go into spec and the primitive into out, where the caller
    gives them (the shapes and dtypes np.fft.rfft and irfft return); bins,
    where given, is the view spec[1:-1].

    The two transforms call the pocketfft gufuncs that np.fft.rfft and irfft
    end in, with the arguments numpy's _raw_fft passes them (fct 1 forward
    and 1/n inverse, the transform along axis 0, and outputs allocated by
    np.empty_like as _raw_fft allocates them, so in the input's memory
    order); the result is bitwise the public functions', without their
    per-call dispatch, norm, dtype and shape handling, which at n = 256
    costs 2.5-4 us a transform, about half the transform itself.  That is
    safe because the caller guarantees what those checks would: w is
    float64 along an even grid (_validate_grid_n), so rfft_n_even is the
    forward gufunc, and spec and out, when given, have the shapes and
    dtypes above.
    """
    n = w.shape[0]
    if spec is None:
        spec = np.empty_like(w, shape=(n // 2 + 1,) + w.shape[1:], dtype=complex)
    if bins is None:
        bins = spec[1:-1]
    _pocketfft_umath.rfft_n_even(w, 1, axes=_AXES, out=spec)
    bins /= _primitive_divisor(n, w.ndim)
    spec[0] = spec[-1] = 0.0
    if out is None:
        out = np.empty_like(spec, shape=w.shape, dtype=float)
    return _pocketfft_umath.irfft(spec, 1.0 / n, axes=_AXES, out=out)


def _check_samples(arr: np.ndarray) -> None:
    """Raise ValueError unless arr holds finite samples on a valid grid: the
    checks of PeriodicScalarField."""
    if arr.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    _validate_grid_n(arr.shape[0])
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")


@dataclass(frozen=True, eq=False)
class PeriodicScalarField:
    """Real samples of a periodic function at the nodes theta_grid(n)."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).copy()
        _check_samples(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def grid_n(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], n: int) -> "PeriodicScalarField":
        return cls(np.broadcast_to(np.asarray(fn(theta_grid(n)), dtype=float), (n,)))

    @classmethod
    def constant(cls, value: float, n: int) -> "PeriodicScalarField":
        return cls(np.full(n, float(value)))

    def _coerce(self, other):
        if isinstance(other, PeriodicScalarField):
            if other.grid_n != self.grid_n:
                raise GridMismatch(
                    f"fields sampled on different grids: {self.grid_n} vs {other.grid_n}"
                )
            return other.samples
        return float(other)

    def __add__(self, other):
        return PeriodicScalarField(self.samples + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return PeriodicScalarField(self.samples - self._coerce(other))

    def __rsub__(self, other):
        return PeriodicScalarField(self._coerce(other) - self.samples)

    def __mul__(self, other):
        return PeriodicScalarField(self.samples * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return PeriodicScalarField(self.samples / self._coerce(other))

    def __neg__(self):
        return PeriodicScalarField(-self.samples)

    def min(self) -> float:
        return float(self.samples.min())

    def max(self) -> float:
        return float(self.samples.max())

    def max_abs(self) -> float:
        return float(np.abs(self.samples).max())

    def mean(self) -> float:
        return float(self.samples.mean())


def _check_modes(n: int, max_mode: int) -> None:
    # the basis saturates the n-dimensional sample space at max_mode = n/2
    # (where the sine Nyquist entry samples to zero); beyond that every new
    # function aliases an existing one
    if 2 * max_mode + 1 > n + 1:
        raise BasisTooLarge(
            f"{2 * max_mode + 1} trig functions on {n} nodes (max is n/2 modes)"
        )


def trig_basis(n: int, max_mode: int) -> list[PeriodicScalarField]:
    """The functions 1, cos(k theta), sin(k theta) for k = 1..max_mode.

    On n nodes the sine at the Nyquist mode n/2 vanishes at every node, so it
    is emitted as an exact zero rather than as the rounding noise that
    sampling it gives; callers that count ranks have to account for that.
    """
    theta = theta_grid(n)
    basis = [PeriodicScalarField.constant(1.0, n)]
    for k in range(1, max_mode + 1):
        basis.append(PeriodicScalarField(np.cos(k * theta)))
        sine = np.sin(k * theta) if 2 * k != n else np.zeros(n)
        basis.append(PeriodicScalarField(sine))
    return basis
