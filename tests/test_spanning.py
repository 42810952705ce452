"""Rank of normal fields plus first brackets, and bracket synthesis."""

import subprocess
import sys

import numpy as np
import pytest

from norbrack import spanning
from norbrack.calculus import bracket_closed_form
from norbrack.cli import SuiteConfig, run_suite
from norbrack.curves import (
    ellipse,
    frame,
    great_circle,
    pointwise_inner,
    random_fourier_curve,
    unit_circle,
)
from norbrack.errors import BasisTooLarge, GridMismatch
from norbrack.fields import PeriodicScalarField, diff4, theta_grid, trig_basis
from norbrack.spanning import (
    bracket_generators,
    normal_generators,
    synthesize_tangential,
    verify_spanning,
)


def test_normal_generator_counts():
    c = unit_circle(16)
    gens = normal_generators(c, 0)
    assert len(gens) == 1
    _, nn = frame(c)
    assert (gens[0] - nn).max_norm() == 0.0
    assert len(normal_generators(c, 7)) == 15


def test_normal_generators_are_normal():
    c = ellipse(64, 2.0, 1.0)
    v, _ = frame(c)
    for g in normal_generators(c, 3):
        assert pointwise_inner(g, v).max_abs() <= 1e-12


def test_basis_too_large():
    c = unit_circle(16)
    normal_generators(c, 8)  # 17 functions on 16 nodes still fits
    with pytest.raises(BasisTooLarge):
        normal_generators(c, 9)
    with pytest.raises(BasisTooLarge):
        bracket_generators(c, 9)
    with pytest.raises(BasisTooLarge):
        verify_spanning(c, 9)


def test_bracket_generator_count_and_values():
    n = 256
    c = unit_circle(n)
    gens = bracket_generators(c, 2)
    assert len(gens) == 10  # 5 basis functions, all unordered pairs

    th = theta_grid(n)
    v, _ = frame(c)
    # first pair is (1, cos): bracket reduces to D_s(cos) * v
    want = v * PeriodicScalarField(-np.sin(th))
    assert (gens[0] - want).max_norm() <= 1e-12
    # pair (cos, sin) follows the four pairs led by the constant
    assert (gens[4] - v).max_norm() <= 1e-12


def test_bracket_generators_are_tangential():
    c = random_fourier_curve(4, 64, 4, 2.5)
    _, nn = frame(c)
    for g in bracket_generators(c, 2):
        assert pointwise_inner(g, nn).max_abs() <= 1e-13


def test_verify_spanning_full_rank_at_half_modes():
    report = verify_spanning(unit_circle(16), 8)
    assert report.full
    assert report.rank == 32
    assert report.sigma_min / report.sigma_max >= 1e-8


def test_verify_spanning_one_mode_short_misses_nyquist():
    # at K = n/2 - 1 the normal block cannot reach the alternating-sign
    # normal direction and the whole family stops one dimension short
    report = verify_spanning(unit_circle(16), 7)
    assert not report.full
    assert report.rank == 31


def test_verify_spanning_small_generator_count_bounds_rank():
    report = verify_spanning(unit_circle(32), 2)
    assert report.num_generators == 15
    assert report.rank <= 15


def test_singular_values_sorted_nonnegative():
    report = verify_spanning(ellipse(16, 2.0, 1.0), 8)
    sigma = report.singular_values
    assert np.all(sigma >= 0.0)
    assert np.all(np.diff(sigma) <= 0.0)


def test_span_report_json_keys():
    report = verify_spanning(unit_circle(16), 8)
    obj = report.to_json_obj()
    assert set(obj) == {"n", "K", "m", "rank", "full", "sigma_min", "sigma_max", "rank_tol"}
    assert obj["n"] == 16 and obj["K"] == 8


def pairwise_brackets(c, max_mode):
    """The bracket generators one closed-form bracket at a time."""
    basis = trig_basis(c.grid_n, max_mode)
    return [
        bracket_closed_form(c, basis[i], basis[j])
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    ]


def brute_force_spectrum(c, max_mode, rank_tol=spanning.DEFAULT_RANK_TOL):
    """Singular values and rank of the stacked, column-normalized 2N-row
    generator matrix, computed directly."""
    generators = normal_generators(c, max_mode) + bracket_generators(c, max_mode)
    matrix = np.column_stack([g.vectors.reshape(-1) for g in generators])
    norms = np.linalg.norm(matrix, axis=0)
    matrix[:, norms > 0.0] /= norms[norms > 0.0]
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return sigma, int(np.sum(sigma >= rank_tol * sigma[0]))


def unit_trig_rows(n, max_mode):
    """The trig basis as rows scaled to unit length; the zero Nyquist sine
    stays a zero row."""
    rows = np.array([a.samples for a in trig_basis(n, max_mode)])
    norms = np.linalg.norm(rows, axis=1)
    rows[norms > 0.0] /= norms[norms > 0.0, None]
    return rows


def svd_path_spectrum(c, max_mode):
    """verify_spanning's spectrum with the normal block taken by SVD of the
    unit trig rows instead of in closed form."""
    p = 2 * max_mode + 1
    normal = np.linalg.svd(unit_trig_rows(c.grid_n, max_mode), compute_uv=False)
    merged = np.sort(np.concatenate([normal, spanning._bracket_sigma(c, max_mode)]))[::-1]
    sigma = np.zeros(min(2 * c.grid_n, p * (max_mode + 1)))
    sigma[: merged.size] = merged
    return sigma


NORMAL_BLOCK_CASES = [(n, k) for n in (8, 16, 64, 256) for k in sorted({0, 1, 3, n // 2 - 1, n // 2})]


@pytest.mark.parametrize("n, max_mode", NORMAL_BLOCK_CASES)
def test_normal_block_closed_form_is_its_svd(n, max_mode):
    sigma = np.linalg.svd(unit_trig_rows(n, max_mode), compute_uv=False)
    closed = spanning._normal_sigma(n, max_mode)
    assert closed.shape == sigma.shape
    assert np.max(np.abs(closed - sigma)) <= 1e-13
    rank = int(np.sum(sigma >= spanning.DEFAULT_RANK_TOL * sigma[0]))
    assert verify_spanning(unit_circle(n), max_mode).normal_rank == rank


SPAN_CURVES = {
    "circle": unit_circle,
    "ellipse": lambda n: ellipse(n, 1.5, 0.7),
    "fourier": lambda n: random_fourier_curve(7, n, 6, 3.0),
}


@pytest.mark.parametrize("family", sorted(SPAN_CURVES))
@pytest.mark.parametrize("n", [16, 32, 64])
def test_verify_spanning_matches_stacked_svd(n, family):
    c = SPAN_CURVES[family](n)
    for max_mode in (n // 2, n // 2 - 1, 3):
        sigma, rank = brute_force_spectrum(c, max_mode)
        report = verify_spanning(c, max_mode)
        assert report.singular_values.shape == sigma.shape
        assert np.max(np.abs(report.singular_values - sigma)) <= 1e-12 * sigma[0]
        assert report.rank == rank
        assert report.num_generators == (2 * max_mode + 1) * (max_mode + 1)
    # the reference's brackets are those of the one-pair-at-a-time loop
    for got, want in zip(bracket_generators(c, 3), pairwise_brackets(c, 3), strict=True):
        assert np.array_equal(got.vectors, want.vectors)


def test_verify_spanning_across_bracket_chunks(monkeypatch):
    # 33 basis functions give 528 bracket columns, scattered 50 at a time
    c = random_fourier_curve(7, 32, 6, 3.0)
    monkeypatch.setattr(spanning, "_PAIR_CHUNK", 50)
    for max_mode in (16, 15):
        sigma, rank = brute_force_spectrum(c, max_mode)
        report = verify_spanning(c, max_mode)
        assert np.max(np.abs(report.singular_values - sigma)) <= 1e-12 * sigma[0]
        assert report.rank == rank
    # one mode below Nyquist (criterion 2's setting) the missing normal
    # direction is a structural zero, reported exactly
    assert report.sigma_min == 0.0
    assert report.normal_rank == 31


@pytest.mark.parametrize("family", sorted(SPAN_CURVES))
@pytest.mark.parametrize("max_mode", [0, 32, 64])
def test_verify_spanning_matches_stacked_svd_at_128(family, max_mode):
    c = SPAN_CURVES[family](128)
    sigma, rank = brute_force_spectrum(c, max_mode)
    report = verify_spanning(c, max_mode)
    assert report.singular_values.shape == sigma.shape
    assert np.max(np.abs(report.singular_values - sigma)) <= 1e-12 * sigma[0]
    assert report.rank == rank


def sigma_ratio(sigma):
    return sigma[0] / sigma[-1] if sigma[-1] > 0.0 else np.inf


# the closed form moves sigma_min from the SVD's rounding of 1 to an exact 1,
# so sigma_max_over_min moves in its last digits: 6.7e-14 relative at n = 512
@pytest.mark.parametrize("family", sorted(SPAN_CURVES))
@pytest.mark.parametrize("n", [64, 128, 512])
def test_sigma_ratio_is_the_svd_path_to_rounding(n, family):
    c = SPAN_CURVES[family](n)
    for max_mode in (n // 2, n // 2 - 1, 3):
        sigma = svd_path_spectrum(c, max_mode)
        report = verify_spanning(c, max_mode)
        assert report.rank == int(np.sum(sigma >= spanning.DEFAULT_RANK_TOL * sigma[0]))
        want, got = sigma_ratio(sigma), sigma_ratio(report.singular_values)
        assert got == want or abs(got - want) <= 1e-12 * want


def test_unreached_modes_are_exact_zeros():
    # the brackets of 7 trig functions reach the 11 Fourier coordinates up to
    # mode 5 (mode 6 comes only from cos 3 and sin 3, whose sum term has
    # coefficient lam_3 - lam_3 = 0), so the 28 singular values stop at rank
    # 7 + 11 = 18 and the rest are exact zeros
    report = verify_spanning(random_fourier_curve(7, 64, 6, 3.0), 3)
    assert report.rank == 18
    assert report.singular_values.shape == (28,)
    assert np.all(report.singular_values[report.rank :] == 0.0)


def test_spanning_suite_catches_a_dropped_difference_term(monkeypatch):
    # _coordinate runs twice per pair chunk, for each bracket's a + b term
    # and then its a - b term.  With every a - b coefficient zero, the
    # default run (the circle at n = 256, K = 128) reads rank_deficit 1.0
    # and sigma_max_over_min inf; unpatched they read 0.0 and 15.91.  Blind
    # spots: on the circle the speed is constant, so an unweighted
    # _weighted_gram passes every record, and so does a fold that drops the
    # sign of a negative frequency (abs(freq)); both read 15.9107801.
    cfg = SuiteConfig(suite="spanning")
    assert all(rec.passed for rec in run_suite(cfg))
    coordinate, calls = spanning._coordinate, []

    def without_difference_term(n, m, freq, sine, coeff):
        calls.append(freq)
        index, coeff = coordinate(n, m, freq, sine, coeff)
        return index, coeff if len(calls) % 2 else np.zeros_like(coeff)

    monkeypatch.setattr(spanning, "_coordinate", without_difference_term)
    values = {rec.metric: (rec.value, rec.passed) for rec in run_suite(cfg)}
    assert values["rank_deficit"] == (1.0, False)
    assert values["sigma_max_over_min"] == (np.inf, False)
    assert len(calls) == 4  # two chunks of pairs


def peak_rss_rise(script):
    """Bytes of peak RSS the script's measured call adds, and its bound, as
    the script prints them."""
    # a child exec'd from this process inherits its peak RSS as ru_maxrss, so
    # the measuring process is started from a bare interpreter
    launcher = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, script], capture_output=True, text=True, check=True
    )
    rise, bound = (int(x) for x in proc.stdout.split())
    return rise, bound


def test_working_set_bound_holds_for_the_measured_peak():
    script = """
import resource
from norbrack.curves import ellipse
from norbrack.cli import SuiteConfig, _working_set
from norbrack.spanning import verify_spanning
verify_spanning(ellipse(16, 1.5, 0.7), 8)  # load LAPACK and its buffers first
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
verify_spanning(ellipse(512, 1.5, 0.7), 256)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024, _working_set(SuiteConfig("spanning", grid_n=512, modes=256))[0])
"""
    rise, bound = peak_rss_rise(script)
    assert 0 < rise <= bound


def test_few_modes_on_a_fine_grid_take_a_small_block():
    # the brackets of 7 trig functions reach at most 13 coordinates, so the
    # block is at most 13 x 13 on any grid; at n = 2048 an n x n array is 32 MiB
    script = """
import resource
from norbrack.curves import unit_circle
from norbrack.cli import SuiteConfig, _working_set
from norbrack.spanning import verify_spanning
verify_spanning(unit_circle(16), 3)  # load LAPACK and its buffers first
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
verify_spanning(unit_circle(2048), 3)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024, _working_set(SuiteConfig("spanning", grid_n=2048, modes=3))[0])
"""
    rise, bound = peak_rss_rise(script)
    assert rise <= 4 * 2**20
    assert bound <= 2**20


def test_verify_spanning_rejects_sphere():
    with pytest.raises(ValueError):
        verify_spanning(great_circle(16), 8)


def test_normal_generators_alone_stay_rank_deficient():
    # without brackets the columns live in the N-dimensional normal span
    c = unit_circle(16)
    matrix = np.column_stack([g.vectors.reshape(-1) for g in normal_generators(c, 8)])
    assert np.linalg.matrix_rank(matrix) <= 16


def summed_brackets(c, dec):
    total = np.zeros((c.grid_n, 2))
    for coeff, a, b in dec.terms:
        total += coeff * bracket_closed_form(c, a, b).vectors
    return total


def test_synthesize_zero_field_is_empty():
    dec = synthesize_tangential(unit_circle(256), PeriodicScalarField.constant(0.0, 256))
    assert len(dec) == 0


def test_synthesize_unit_coefficient_on_circle():
    n = 256
    c = unit_circle(n)
    v, _ = frame(c)
    dec = synthesize_tangential(c, PeriodicScalarField.constant(1.0, n))
    err = np.max(np.linalg.norm(summed_brackets(c, dec) - v.vectors, axis=1))
    assert err <= 1e-3


def test_synthesize_cos_on_ellipse():
    n = 256
    c = ellipse(n, 2.0, 1.0)
    m = PeriodicScalarField(np.cos(theta_grid(n)))
    target = m.samples[:, None] * diff4(c.points)
    err = np.max(np.linalg.norm(summed_brackets(c, dec := synthesize_tangential(c, m)) - target, axis=1))
    assert err <= 1e-3 * max(np.max(np.linalg.norm(target, axis=1)), 1.0)
    assert len(dec) <= 8


def test_synthesize_grid_mismatch():
    with pytest.raises(GridMismatch):
        synthesize_tangential(unit_circle(64), PeriodicScalarField.constant(1.0, 32))
