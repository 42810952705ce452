"""One-forms on the circle: a db - b da terms, Hodge-split and supported
decompositions, reconstruction and JSON export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_limited, rel_l2
from norbrack.errors import GridMismatch, SupportViolation
from norbrack.fields import PeriodicScalarField, diff4, diff4_symbol, theta_grid
from norbrack.oneforms import (
    ABDecomposition,
    OneFormSamples,
    _add_grid_terms,
    _hodge_split,
    _reconstruct_split,
    ab_form,
    decompose_oneform,
    decompose_supported,
    reconstruct,
)


def field(values):
    return PeriodicScalarField(np.asarray(values, dtype=float))


def test_ab_form_of_equal_arguments_is_exactly_zero():
    th = theta_grid(64)
    a = field(np.exp(np.sin(th)))
    assert np.array_equal(ab_form(a, a).samples, np.zeros(64))


def test_ab_form_with_unit_left_argument_reduces_to_derivative():
    th = theta_grid(64)
    g = field(np.cos(2 * th))
    one = PeriodicScalarField.constant(1.0, 64)
    assert np.array_equal(ab_form(one, g).samples, diff4(g.samples))


def test_ab_form_cos_sin_is_constant_one():
    th = theta_grid(256)
    out = ab_form(field(np.cos(th)), field(np.sin(th)))
    np.testing.assert_allclose(out.samples, 1.0, atol=1e-7)


def test_ab_form_grid_mismatch():
    with pytest.raises(GridMismatch):
        ab_form(PeriodicScalarField.constant(1.0, 16), PeriodicScalarField.constant(1.0, 32))


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=40, deadline=None)
def test_ab_form_antisymmetry_is_bitwise(seed):
    rng = np.random.default_rng(seed)
    a = field(rng.standard_normal(32))
    b = field(rng.standard_normal(32))
    assert np.array_equal(ab_form(a, b).samples, -ab_form(b, a).samples)


def test_decompose_zero_form_is_empty():
    dec = decompose_oneform(OneFormSamples(np.zeros(64)))
    assert len(dec) == 0
    assert np.array_equal(reconstruct(dec, 64).samples, np.zeros(64))


def test_reconstruct_empty_decomposition_needs_a_grid():
    with pytest.raises(ValueError):
        reconstruct(ABDecomposition(()))
    out = reconstruct(ABDecomposition(()), 16)
    assert out.grid_n == 16
    assert np.array_equal(out.samples, np.zeros(16))


# These ceilings pinned the floor of the earlier four-chart atlas
# construction (about 1.6e-5 at 256 nodes, 1.1e-6 at 512).  The Hodge-split
# construction reconstructs the same inputs to rounding (at most 6e-15), so
# they stand as upper bounds, kept as they were.
@pytest.mark.parametrize(
    "make_alpha, ceiling_256, ceiling_512",
    [
        (lambda th: np.ones_like(th), 2.0e-5, 1.5e-6),
        (lambda th: np.cos(th), 2.0e-5, 1.5e-6),
    ],
)
def test_decompose_reconstruction_error_floor(make_alpha, ceiling_256, ceiling_512):
    for n, ceiling in ((256, ceiling_256), (512, ceiling_512)):
        th = theta_grid(n)
        alpha = make_alpha(th)
        rec = reconstruct(decompose_oneform(OneFormSamples(alpha)), n)
        assert rel_l2(rec.samples, alpha) <= ceiling


@pytest.mark.parametrize("n", [8, 256])
def test_decompose_is_sample_exact_on_mean_band_and_nyquist(n):
    # mean, modes 1..n/2-1 and the alternating Nyquist mode each have their
    # own term; all come back to rounding, on the smallest grid and at 256
    rng = np.random.default_rng(n)
    th = theta_grid(n)
    nyquist = np.cos((n // 2) * th)
    band = band_limited(n, n // 2 - 1, rng)
    band -= band.mean()
    cases = {
        "mean": np.full(n, -1.7),
        "band": band,
        "nyquist": 0.6 * nyquist,
        "mixed": 0.9 + band - 2.5 * nyquist,
        "noise": rng.standard_normal(n),
    }
    for name, alpha in cases.items():
        dec = decompose_oneform(OneFormSamples(alpha))
        assert len(dec) <= 8, name
        assert rel_l2(reconstruct(dec, n).samples, alpha) <= 1e-12, name


@pytest.mark.parametrize("n", [8, 256, 1024])
def test_stacked_hodge_split_is_bitwise_the_per_row_decomposition(n):
    # random rows, rows whose mean or whose Nyquist content is an exact 0
    # (entries cancel in pairs), a constant, a pure Nyquist row and the zero
    # form, split as one stack
    rng = np.random.default_rng(n)
    th = theta_grid(n)
    alternating = np.cos((n // 2) * th)
    pairs = np.repeat(rng.standard_normal(n // 2), 2)
    rows = np.stack(
        [
            rng.standard_normal(n),
            band_limited(n, min(10, n // 2 - 1), rng),
            pairs * alternating,
            pairs,
            np.full(n, 0.7),
            -1.3 * alternating,
            np.zeros(n),
            rng.standard_normal(n),
        ]
    )
    mean, nyquist, g = _hodge_split(rows)
    lam = diff4_symbol(n)
    assert mean[2] == mean[5] == mean[6] == 0.0 and 0.0 not in mean[[0, 3, 4, 7]]
    assert nyquist[3] == nyquist[4] == nyquist[6] == 0.0 and 0.0 not in nyquist[[0, 2, 5, 7]]
    cos1, sin1, sin_m = np.cos(th), np.sin(th), np.sin((n // 2 - 1) * th)
    for i, row in enumerate(rows):
        assert mean[i] == np.mean(row) / lam[1]
        assert nyquist[i] == 2.0 * np.mean(row * alternating) / (lam[n // 2 - 1] - lam[1])
        dec = decompose_oneform(OneFormSamples(row))
        want = [(1.0, np.ones(n), g[i])] if g[i].any() else []
        want += [(mean[i], cos1, sin1)] if mean[i] != 0.0 else []
        want += [(nyquist[i], cos1, sin_m)] if nyquist[i] != 0.0 else []
        assert len(dec) == len(want), i
        for (coeff, a, b), (want_coeff, want_a, want_b) in zip(dec.terms, want):
            assert coeff == want_coeff, i
            assert np.array_equal(a.samples, want_a) and np.array_equal(b.samples, want_b), i
    assert len(decompose_oneform(OneFormSamples(rows[6]))) == 0 and not g[6].any()


@pytest.mark.parametrize("n", [8, 256])
def test_grid_terms_leave_rows_with_zero_coefficients_alone(n):
    # a zero row, an alternating row with no mean, a zero row holding a
    # -0.0 entry and random rows: live and dead coefficients in one chunk
    rng = np.random.default_rng(n)
    th = theta_grid(n)
    signed_zero = np.zeros(n)
    signed_zero[1] = -0.0
    rows = np.stack(
        [
            rng.standard_normal(n),
            np.zeros(n),
            -1.3 * np.cos((n // 2) * th),
            signed_zero,
            np.repeat(rng.standard_normal(n // 2), 2),
            rng.standard_normal(n),
        ]
    )
    mean, nyquist, g = _hodge_split(rows)
    assert list(mean != 0.0) == [True, False, False, False, True, True]
    assert list(nyquist != 0.0) == [True, False, True, False, False, True]
    ab_mean = ab_form(field(np.cos(th)), field(np.sin(th))).samples
    ab_nyquist = ab_form(field(np.cos(th)), field(np.sin((n // 2 - 1) * th))).samples
    got = _add_grid_terms(rows.copy(), mean, nyquist)
    for i, row in enumerate(rows):
        want = row + mean[i] * ab_mean if mean[i] != 0.0 else row
        want = want + nyquist[i] * ab_nyquist if nyquist[i] != 0.0 else want
        # bytes, so that a -0.0 turned into 0.0 counts as a change
        assert got[i].tobytes() == want.tobytes(), i
    recon, counts = _reconstruct_split(mean, nyquist, g)
    for i, row in enumerate(rows):
        dec = decompose_oneform(OneFormSamples(row))
        assert np.array_equal(recon[i], reconstruct(dec, n).samples) and counts[i] == len(dec), i


def test_decompose_term_budget():
    th = theta_grid(256)
    dec = decompose_oneform(OneFormSamples(np.cos(3 * th) - 0.4 * np.sin(th)))
    assert len(dec) <= 8


@given(
    c0=st.floats(-2, 2), c1=st.floats(-2, 2), s1=st.floats(-2, 2),
    c5=st.floats(-2, 2), s5=st.floats(-2, 2),
)
@settings(max_examples=25, deadline=None)
def test_decompose_low_mode_forms_reconstruct_within_1e4(c0, c1, s1, c5, s5):
    n = 256
    th = theta_grid(n)
    alpha = c0 + c1 * np.cos(th) + s1 * np.sin(th) + c5 * np.cos(5 * th) + s5 * np.sin(5 * th)
    rec = reconstruct(decompose_oneform(OneFormSamples(alpha)), n)
    assert np.linalg.norm(rec.samples - alpha) / max(np.linalg.norm(alpha), 1.0) <= 1e-4


def test_decomposition_json_export():
    th = theta_grid(64)
    dec = decompose_oneform(OneFormSamples(0.5 + np.sin(th) + 0.2 * np.cos(32 * th)))
    parsed = json.loads(dec.to_json())
    assert len(parsed) == len(dec) == 3
    for (coeff, a, b), term in zip(dec.terms, parsed):
        assert set(term) == {"coeff", "a", "b"}
        assert term["coeff"] == coeff
        assert term["a"] == a.samples.tolist()
        assert term["b"] == b.samples.tolist()


def localized_bump(th, center, half_width):
    t = (th - center) / half_width
    out = np.zeros_like(th)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def test_supported_rejects_leaking_forms():
    th = theta_grid(256)
    with pytest.raises(SupportViolation):
        decompose_supported(OneFormSamples(np.cos(th)), (np.pi / 4, 3 * np.pi / 4))


def test_supported_outputs_vanish_outside_window():
    n = 256
    th = theta_grid(n)
    window = (np.pi / 4, 3 * np.pi / 4)
    alpha = localized_bump(th, np.pi / 2, np.pi / 4) * np.cos(th)
    dec = decompose_supported(OneFormSamples(alpha), window)
    outside = ~((th > window[0]) & (th < window[1]))
    for _, a, b in dec.terms:
        assert np.array_equal(a.samples[outside], np.zeros(outside.sum()))
        assert np.array_equal(b.samples[outside], np.zeros(outside.sum()))
    # node theta=0 in particular
    assert all(t[1].samples[0] == 0.0 and t[2].samples[0] == 0.0 for t in dec.terms)


def test_supported_near_full_window_reconstructs():
    n = 256
    th = theta_grid(n)
    window = (th[1], th[0] + 2 * np.pi)  # everything except node 0
    alpha = localized_bump(th, np.pi, np.pi / 2) * (1.0 + 0.3 * np.sin(2 * th))
    dec = decompose_supported(OneFormSamples(alpha), window)
    rec = reconstruct(dec, n)
    assert rel_l2(rec.samples, alpha) <= 1e-4


def test_supported_zero_form_gives_zero_outputs():
    dec = decompose_supported(OneFormSamples(np.zeros(64)), (1.0, 4.0))
    for _, a, b in dec.terms:
        assert np.array_equal(a.samples, np.zeros(64))
        assert np.array_equal(b.samples, np.zeros(64))
    assert np.array_equal(reconstruct(dec, 64).samples, np.zeros(64))
