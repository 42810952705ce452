"""Periodic grid, scalar fields, and the finite-difference operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norbrack.errors import GridMismatch
from norbrack.fields import (
    PeriodicScalarField,
    _primitive,
    diff4,
    diff4_symbol,
    periodic_primitive,
    theta_grid,
    trig_basis,
)


def test_theta_grid_values():
    th = theta_grid(8)
    np.testing.assert_allclose(th, np.pi * np.arange(8) / 4.0, atol=1e-15)


@pytest.mark.parametrize("n", [7, 6, 0, -4, 9])
def test_grid_size_must_be_even_and_at_least_eight(n):
    with pytest.raises(ValueError):
        theta_grid(n)


def test_diff4_constant_is_exactly_zero():
    # the stencil weights cancel identically, so no rounding survives
    out = diff4(np.full(256, 5.0))
    assert np.array_equal(out, np.zeros(256))


def _diff4_by_rolls(values):
    # the stencil as four whole-array shifts, in the same order of operations
    a = np.asarray(values, dtype=float)
    h = 2.0 * np.pi / a.shape[0]
    return (
        8.0 * (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0))
        - (np.roll(a, -2, axis=0) - np.roll(a, 2, axis=0))
    ) / (12.0 * h)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: rng.standard_normal(256),
        lambda rng: rng.standard_normal((256, 2)),
        lambda rng: rng.standard_normal((512, 3)),
        lambda rng: rng.standard_normal(8),
        lambda rng: rng.standard_normal((8, 2)),
        # the transposed (2K+1, n) trig block, as the spanning check passes it
        lambda rng: rng.standard_normal((2 * 32 + 1, 64)).T,
        lambda rng: rng.standard_normal((9, 8)).T,
        # a coordinate-major (n, m, d) stack of curves, laid out as (d, m, n),
        # as the batched pair checks hold them
        lambda rng: rng.standard_normal((3, 7, 64)).T,
        # a chunk of such a stack, a strided view
        lambda rng: rng.standard_normal((3, 7, 64)).T[:, 2:5],
    ],
    ids=[
        "n",
        "n-2",
        "n-3",
        "8",
        "8-2",
        "trig-block-T",
        "trig-block-T-8",
        "stack-coordinate-major",
        "stack-coordinate-major-chunk",
    ],
)
def test_diff4_is_bitwise_the_rolled_stencil(make):
    a = make(np.random.default_rng(3))
    got = diff4(a)
    assert got.shape == a.shape
    assert np.array_equal(got, _diff4_by_rolls(a))
    # the output keeps the input's memory order: its axes sort by stride alike
    assert np.argsort(got.strides).tolist() == np.argsort(a.strides).tolist()


def test_diff4_symbol_is_shared_and_read_only():
    lam = diff4_symbol(64)
    assert lam is diff4_symbol(64)
    assert lam.shape == (33,)
    with pytest.raises(ValueError):
        lam[1] = 0.0


@pytest.mark.parametrize("n", [16, 1024])
def test_diff4_symbol_vanishes_exactly_on_its_kernel(n):
    lam = diff4_symbol(n)
    assert lam[0] == lam[n // 2] == 0.0
    # the stencil annihilates the sampled alternating mode bitwise
    assert np.all(diff4(np.cos(n // 2 * theta_grid(n))) == 0.0)


def test_diff4_sine_matches_cosine():
    th = theta_grid(256)
    err = np.max(np.abs(diff4(np.sin(th)) - np.cos(th)))
    assert err <= 1e-7


def test_diff4_composite_exponential():
    th = theta_grid(256)
    err = np.max(np.abs(diff4(np.exp(np.sin(th))) - np.cos(th) * np.exp(np.sin(th))))
    assert err <= 1e-6


def test_diff4_convergence_is_fourth_order():
    errs = []
    sizes = [64, 128, 256, 512]
    for n in sizes:
        th = theta_grid(n)
        errs.append(np.max(np.abs(diff4(np.sin(3 * th)) - 3 * np.cos(3 * th))))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert slope <= -3.8


def test_periodic_primitive_inverts_diff4():
    th = theta_grid(256)
    w = np.cos(th) + 0.3 * np.sin(4 * th)  # mean zero
    p = periodic_primitive(w)
    assert abs(p.mean()) <= 1e-14
    np.testing.assert_allclose(diff4(p), w, atol=1e-12)


@pytest.mark.parametrize("n", [8, 10, 30, 256, 1000, 1024])
def test_periodic_primitive_is_bitwise_the_division_into_a_zero_spectrum(n, monkeypatch):
    # random samples carry a mean and a Nyquist component, both dropped; the
    # public transforms are the reference for the gufuncs _primitive calls,
    # on one sample, a C-ordered (n, 3) stack and an F-ordered one (the
    # transposed view of a C-ordered (3, n) array, as the Hodge split passes)
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((n, 3))
    inputs = [rng.standard_normal(n), stack, np.ascontiguousarray(stack.T).T]
    wanted = []
    for w in inputs:
        spec = np.fft.rfft(w, axis=0)
        spec[0] = spec[-1] = 0.0
        spec[1:-1] /= (1j * diff4_symbol(n)[1:-1]).reshape((-1,) + (1,) * (w.ndim - 1))
        wanted.append((spec, np.fft.irfft(spec, n, axis=0)))

    def public_fft(*args, **kwargs):
        raise AssertionError("_primitive called numpy.fft")

    monkeypatch.setattr(np.fft, "rfft", public_fft)
    monkeypatch.setattr(np.fft, "irfft", public_fft)
    for w, (spec, want) in zip(inputs, wanted):
        got = periodic_primitive(w)
        assert np.array_equal(got, want)
        assert got.strides == want.strides
        bins, out = np.empty_like(spec), np.empty_like(want)
        assert _primitive(w, bins, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(bins, spec)


def test_field_requires_finite_samples():
    with pytest.raises(ValueError):
        PeriodicScalarField(np.array([np.nan] * 8))
    with pytest.raises(ValueError):
        PeriodicScalarField(np.ones((4, 2)))


def test_field_samples_are_read_only():
    u = PeriodicScalarField(np.zeros(16))
    with pytest.raises(ValueError):
        u.samples[0] = 1.0


def test_field_arithmetic_and_grid_check():
    th = theta_grid(16)
    u = PeriodicScalarField(np.cos(th))
    w = PeriodicScalarField(np.sin(th))
    np.testing.assert_allclose((u * u + w * w).samples, 1.0, atol=1e-15)
    np.testing.assert_allclose((2.0 * u - u).samples, u.samples, atol=1e-15)
    np.testing.assert_allclose((u / 2.0).samples, 0.5 * np.cos(th), atol=1e-15)
    with pytest.raises(GridMismatch):
        u + PeriodicScalarField(np.zeros(32))


def test_constant_and_from_function_builders():
    u = PeriodicScalarField.constant(3.5, 16)
    assert np.array_equal(u.samples, np.full(16, 3.5))
    w = PeriodicScalarField.from_function(np.sin, 64)
    np.testing.assert_allclose(w.samples, np.sin(theta_grid(64)), atol=1e-15)


def test_trig_basis_counts_and_leading_constant():
    basis = trig_basis(32, 4)
    assert len(basis) == 9
    assert np.array_equal(basis[0].samples, np.ones(32))
    np.testing.assert_allclose(basis[3].samples, np.cos(2 * theta_grid(32)), atol=1e-15)


def test_trig_basis_sine_at_nyquist_samples_to_zero():
    basis = trig_basis(16, 8)
    assert np.all(basis[-1].samples == 0.0)


coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@given(a=coeff, b=coeff, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_diff4_is_linear(a, b, k):
    th = theta_grid(64)
    u = np.cos(k * th)
    w = np.sin(th)
    lhs = diff4(u * a + w * b)
    rhs = diff4(u) * a + diff4(w) * b
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@given(j=st.integers(min_value=0, max_value=63))
@settings(max_examples=30, deadline=None)
def test_diff4_commutes_with_grid_rotation(j):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(64)
    assert np.array_equal(diff4(np.roll(u, j)), np.roll(diff4(u), j))
