"""Discrete immersions: frames, metric quantities, splitting, generators, CSV."""

import gc
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wobbly_sphere_curve
from norbrack.curves import (
    PLANE,
    SPHERE,
    DiscreteImmersion,
    ImmersionTangent,
    _cross,
    _dot,
    _frames,
    _norm,
    arclen_deriv,
    circle,
    curvature,
    ellipse,
    frame,
    great_circle,
    latitude_circle,
    load_curve_csv,
    pointwise_inner,
    random_fourier_curve,
    recombine,
    save_curve_csv,
    speed,
    split_tangent_normal,
    unit_circle,
)
from norbrack.errors import GridMismatch, ImmersionDegenerate
from norbrack.fields import PeriodicScalarField, theta_grid


def test_immersion_validation():
    with pytest.raises(ValueError):
        DiscreteImmersion(np.zeros((16, 3)), PLANE)  # wrong ambient dimension
    with pytest.raises(ValueError):
        DiscreteImmersion(np.full((16, 2), np.inf), PLANE)
    pts = np.column_stack([np.cos(theta_grid(16)), np.sin(theta_grid(16)), np.zeros(16)])
    DiscreteImmersion(pts, SPHERE)
    with pytest.raises(ValueError):
        DiscreteImmersion(1.01 * pts, SPHERE)  # off the sphere


def test_points_are_read_only():
    c = unit_circle(16)
    with pytest.raises(ValueError):
        c.points[0, 0] = 2.0


def test_speed_oracles():
    n = 256
    th = theta_grid(n)
    np.testing.assert_allclose(speed(unit_circle(n)).samples, 1.0, atol=1e-7)
    np.testing.assert_allclose(speed(circle(n, 2.5)).samples, 2.5, atol=1e-6)
    want = np.sqrt(4 * np.sin(th) ** 2 + np.cos(th) ** 2)
    np.testing.assert_allclose(speed(ellipse(n, 2.0, 1.0)).samples, want, atol=1e-5)


def test_degenerate_curve_is_rejected():
    pts = np.tile([1.0, 0.0], (16, 1))  # all samples equal, zero speed
    c = DiscreteImmersion(pts, PLANE)
    with pytest.raises(ImmersionDegenerate):
        speed(c)


@pytest.mark.parametrize("make", [lambda: ellipse(64, 2.0, 1.0), lambda: wobbly_sphere_curve(64)])
def test_repeated_geometry_is_equal_and_read_only(make):
    c = make()
    s1, s2 = speed(c), speed(c)
    (v1, n1), (v2, n2) = frame(c), frame(c)
    assert np.array_equal(s1.samples, s2.samples)
    assert np.array_equal(v1.vectors, v2.vectors)
    assert np.array_equal(n1.vectors, n2.vectors)
    for arr in (s1.samples, v1.vectors, n1.vectors, v2.vectors):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: (ellipse(64, 2.0, 1.0), circle(64, 0.5), random_fourier_curve(3, 64, 5, 2.5)),
        lambda: (wobbly_sphere_curve(64), great_circle(64), latitude_circle(64, 0.6)),
    ],
)
def test_stacked_frames_are_bitwise_equal_to_each_curve(make):
    curves = make()
    stacked = _frames(curves[0].ambient, np.stack([c.points for c in curves], axis=1))
    for got, want in zip(stacked, zip(*(c._geometry for c in curves))):
        assert np.array_equal(got, np.stack(want, axis=1))


@pytest.mark.parametrize("shape", [(64, 2), (64, 3), (64, 7, 2), (64, 7, 3)])
def test_component_kernels_match_numpy_bitwise(shape):
    # magnitudes from 1e-8 to 1e8 make the order of the additions visible: a
    # right-associated sum of three terms differs from numpy's in the last bit
    rng = np.random.default_rng(11)
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape) for _ in range(2))
    pairs = [(a, b), (a[::2], b[1::2])]  # contiguous, then strided slices
    if len(shape) == 3:
        # coordinate-major stacks, laid out as (d, m, n), as the batched pair
        # checks hold them
        pairs.append(tuple(np.ascontiguousarray(x.T).T for x in (a, b)))
    for x, y in pairs:
        assert np.array_equal(_dot(x, y), np.sum(x * y, axis=-1))
        assert np.array_equal(_norm(x), np.linalg.norm(x, axis=-1))
        if shape[-1] == 3:
            got = _cross(x, y)
            assert np.array_equal(got, np.cross(x, y))
            # laid out in memory as the operands are
            assert np.argsort(got.strides).tolist() == np.argsort(x.strides).tolist()
    # broadcast operands, as when a stack is projected onto one curve's planes
    assert np.array_equal(_dot(a, b[:1]), np.sum(a * b[:1], axis=-1))


def test_stacked_frames_raise_when_one_curve_is_degenerate():
    stack = np.stack([unit_circle(16).points, np.tile([1.0, 0.0], (16, 1))], axis=1)
    with pytest.raises(ImmersionDegenerate):
        _frames(PLANE, stack)


def test_degenerate_curve_raises_on_every_call():
    c = DiscreteImmersion(np.tile([1.0, 0.0], (16, 1)), PLANE)
    for _ in range(2):
        with pytest.raises(ImmersionDegenerate):
            frame(c)
        with pytest.raises(ImmersionDegenerate):
            speed(c)


def test_curve_with_cached_frame_is_freed_without_the_cycle_collector():
    # cached geometry must not point back at the curve: a reference cycle
    # would keep every curve of a flow alive until the cyclic GC runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        c = ellipse(32, 2.0, 1.0)
        frame(c)
        speed(c)
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_frame_on_unit_circle():
    n = 256
    th = theta_grid(n)
    v, nn = frame(unit_circle(n))
    np.testing.assert_allclose(v.vectors, np.column_stack([-np.sin(th), np.cos(th)]), atol=1e-10)
    np.testing.assert_allclose(nn.vectors, np.column_stack([-np.cos(th), -np.sin(th)]), atol=1e-10)


def test_frame_on_great_circle():
    v, nn = frame(great_circle(64))
    np.testing.assert_allclose(nn.vectors, np.tile([0.0, 0.0, 1.0], (64, 1)), atol=1e-12)
    assert np.max(np.abs(pointwise_inner(v, nn).samples)) <= 1e-10


@pytest.mark.parametrize(
    "make",
    [
        lambda: ellipse(128, 2.0, 1.0),
        lambda: random_fourier_curve(4, 128, 6, 3.0),
        lambda: latitude_circle(128, 0.55),
        lambda: wobbly_sphere_curve(128),
    ],
)
def test_frame_is_orthonormal(make):
    c = make()
    v, nn = frame(c)
    np.testing.assert_allclose(np.linalg.norm(v.vectors, axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(nn.vectors, axis=1), 1.0, atol=1e-10)
    assert np.max(np.abs(pointwise_inner(v, nn).samples)) <= 1e-10


def test_arclen_deriv_oracles():
    n = 256
    th = theta_grid(n)
    u = PeriodicScalarField(np.sin(th))
    np.testing.assert_allclose(arclen_deriv(unit_circle(n), u).samples, np.cos(th), atol=1e-7)
    np.testing.assert_allclose(arclen_deriv(circle(n, 2.0), u).samples, 0.5 * np.cos(th), atol=1e-7)
    const = PeriodicScalarField.constant(4.0, n)
    assert np.array_equal(arclen_deriv(unit_circle(n), const).samples, np.zeros(n))


def test_curvature_oracles():
    n = 256
    np.testing.assert_allclose(curvature(unit_circle(n)).samples, 1.0, atol=1e-12)
    np.testing.assert_allclose(curvature(circle(n, 2.0)).samples, 0.5, atol=1e-12)
    assert curvature(great_circle(n)).max_abs() <= 1e-12
    # ring of radius r at constant height: geodesic curvature sqrt(1-r^2)/r
    np.testing.assert_allclose(curvature(latitude_circle(n, 0.8)).samples, 0.75, atol=1e-12)


def test_curvature_of_ellipse_matches_analytic():
    n = 256
    th = theta_grid(n)
    want = 2.0 / (4 * np.sin(th) ** 2 + np.cos(th) ** 2) ** 1.5
    np.testing.assert_allclose(curvature(ellipse(n, 2.0, 1.0)).samples, want, atol=1e-4)


def test_speed_and_curvature_grid_shift_equivariance():
    c = random_fourier_curve(8, 64, 5, 2.5)
    rolled = DiscreteImmersion(np.roll(c.points, 7, axis=0), PLANE)
    assert np.array_equal(speed(rolled).samples, np.roll(speed(c).samples, 7))
    assert np.array_equal(curvature(rolled).samples, np.roll(curvature(c).samples, 7))


def test_split_examples():
    # the tangential coefficient multiplies d_theta(c), so h = v gives
    # 1/speed; at 256 nodes that sits within 1e-7 of 1
    n = 256
    c = unit_circle(n)
    v, nn = frame(c)
    sp = split_tangent_normal(c, nn)
    np.testing.assert_allclose(sp.normal_coeff.samples, 1.0, atol=1e-12)
    np.testing.assert_allclose(sp.tangential_coeff.samples, 0.0, atol=1e-12)
    sp = split_tangent_normal(c, v)
    np.testing.assert_allclose(sp.tangential_coeff.samples, 1.0, atol=1e-7)
    np.testing.assert_allclose(sp.normal_coeff.samples, 0.0, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_split_recombine_roundtrip(seed):
    n = 64
    rng = np.random.default_rng(seed)
    c = unit_circle(n)
    h = ImmersionTangent(rng.standard_normal((n, 2)), c)
    back = recombine(c, split_tangent_normal(c, h))
    assert (back - h).max_norm() <= 1e-12


def test_sphere_tangent_vectors_are_projected():
    c = great_circle(32)
    h = ImmersionTangent(np.tile([0.0, 0.0, 1.0], (32, 1)) + 0.2 * c.points, c)
    # the radial part is removed on construction
    assert np.max(np.abs(np.sum(h.vectors * c.points, axis=1))) <= 1e-10


def test_tangent_base_mismatch_raises():
    c = unit_circle(16)
    other = circle(16, 2.0)
    h = ImmersionTangent(np.zeros((16, 2)), c)
    v, _ = frame(other)
    with pytest.raises(GridMismatch):
        h + v


def test_random_fourier_curve_is_deterministic_and_immersed():
    a = random_fourier_curve(7, 256, 6, 3.0)
    b = random_fourier_curve(7, 256, 6, 3.0)
    assert np.array_equal(a.points, b.points)
    assert speed(a).min() >= 0.1


def test_random_fourier_zero_amplitude_gives_unit_circle():
    c = random_fourier_curve(5, 64, 6, 3.0, amplitude=0.0)
    th = theta_grid(64)
    assert np.array_equal(c.points, np.column_stack([np.cos(th), np.sin(th)]))


def test_curve_csv_roundtrip_is_bitwise(tmp_path):
    path = os.path.join(tmp_path, "curve.csv")
    c = random_fourier_curve(9, 64, 5, 2.5)
    save_curve_csv(c, path)
    back = load_curve_csv(path)
    assert back.ambient == PLANE
    assert np.array_equal(back.points, c.points)

    sphere_path = os.path.join(tmp_path, "ring.csv")
    ring = latitude_circle(32, 0.7)
    save_curve_csv(ring, sphere_path)
    assert np.array_equal(load_curve_csv(sphere_path).points, ring.points)


def test_curve_csv_header_is_validated(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n")
    with pytest.raises(ValueError):
        load_curve_csv(path)
