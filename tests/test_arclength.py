"""Uniform-stretch deformations: defect, projection, flows, leaves."""

import tracemalloc

import numpy as np
import pytest

from norbrack import arclength
from norbrack.arclength import (
    arc_defect,
    flow_arc,
    flow_field,
    flow_trajectory,
    frobenius_defect,
    leaf_invariant,
    project_to_arc,
    write_flow_frames,
)
from norbrack.calculus import constant_field, normal_field, tangent_field
from norbrack.cli import SuiteConfig, run_suite
from norbrack.curves import (
    DiscreteImmersion,
    ImmersionTangent,
    PLANE,
    arclen_deriv,
    circle,
    ellipse,
    frame,
    great_circle,
    load_curve_csv,
    random_fourier_curve,
    speed,
    unit_circle,
)
from norbrack.errors import GridMismatch, ImmersionDegenerate
from norbrack.fields import PeriodicScalarField, diff4, periodic_primitive, theta_grid

from conftest import band_limited


def cos_field(k, n):
    return PeriodicScalarField(np.cos(k * theta_grid(n)))


def test_arc_defect_translation_is_exactly_zero():
    c = ellipse(128, 2.0, 1.0)
    h = constant_field((0.4, -0.9))(c)
    dd = arc_defect(c, h)
    assert np.array_equal(dd.u.samples, np.zeros(128))
    assert dd.defect_norm == 0.0


def test_arc_defect_normal_on_circle_is_uniform_shrink():
    c = unit_circle(256)
    _, nn = frame(c)
    dd = arc_defect(c, nn)
    assert np.max(np.abs(dd.u.samples + 1.0)) <= 1e-12
    assert dd.defect_norm <= 1e-10


def test_arc_defect_cos_normal_on_circle():
    n = 256
    th = theta_grid(n)
    c = unit_circle(n)
    _, nn = frame(c)
    dd = arc_defect(c, nn * cos_field(1, n))
    np.testing.assert_allclose(dd.u.samples, -np.cos(th), atol=1e-6)
    np.testing.assert_allclose(dd.defect.samples, np.sin(th), atol=1e-6)
    assert abs(dd.defect_norm - 1.0) <= 1e-4


def test_arc_defect_fields_are_consistent():
    c = random_fourier_curve(1, 128, 5, 2.5)
    _, nn = frame(c)
    dd = arc_defect(c, nn * cos_field(2, 128))
    assert np.array_equal(dd.defect.samples, arclen_deriv(c, dd.u).samples)
    assert dd.defect_norm == np.abs(dd.defect.samples).max()


def test_arc_defect_detached_tangent():
    c = unit_circle(64)
    other = ellipse(64, 2.0, 1.0)
    h = constant_field((1.0, 0.0))(other)
    with pytest.raises(GridMismatch):
        arc_defect(c, h)


def test_project_fixes_members():
    c = unit_circle(256)
    _, nn = frame(c)
    assert (project_to_arc(c, nn) - nn).max_norm() <= 1e-10


def test_project_cos_normal_adds_sin_tangential():
    n = 256
    th = theta_grid(n)
    c = unit_circle(n)
    v, nn = frame(c)
    got = project_to_arc(c, nn * cos_field(1, n))
    want = nn * cos_field(1, n) + v * PeriodicScalarField(np.sin(th))
    assert (got - want).max_norm() <= 1e-10


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_projected_fields_have_tiny_defect(seed):
    n = 256
    rng = np.random.default_rng(seed)
    c = ellipse(n, 2.0, 1.0)
    _, nn = frame(c)
    h = nn * PeriodicScalarField(band_limited(n, 6, rng))
    assert arc_defect(c, project_to_arc(c, h)).defect_norm <= 1e-6


def smooth_tangent(c, rng):
    v, nn = frame(c)
    a = PeriodicScalarField(band_limited(c.grid_n, 6, rng))
    b = PeriodicScalarField(band_limited(c.grid_n, 6, rng))
    return nn * a + v * b


@pytest.mark.parametrize("seed", [1, 5])
def test_project_idempotent_and_linear(seed):
    n = 256
    rng = np.random.default_rng(seed)
    c = random_fourier_curve(3, n, 5, 2.5)
    h1 = smooth_tangent(c, rng)
    h2 = smooth_tangent(c, rng)
    p1 = project_to_arc(c, h1)
    assert (project_to_arc(c, p1) - p1).max_norm() <= 1e-10
    combined = project_to_arc(c, h1 + h2 * 2.0)
    assert (combined - (p1 + project_to_arc(c, h2) * 2.0)).max_norm() <= 1e-10


def test_flow_zero_time_returns_start():
    c = unit_circle(64)
    out = flow_arc(c, normal_field(), 0.0, steps=10)
    assert np.array_equal(out.points, c.points)


def test_flow_translation_keeps_speeds():
    c = ellipse(128, 2.0, 1.0)
    out = flow_arc(c, constant_field((0.7, -0.2)), 1.0, steps=20)
    np.testing.assert_allclose(out.points, c.points + np.array([0.7, -0.2]), atol=1e-12)
    assert np.max(np.abs(speed(out).samples - speed(c).samples)) <= 1e-13


def test_flow_normal_shrinks_circle_uniformly():
    # n points inward here, so the circle shrinks; radius 1 - t stays exact
    # because every node moves radially at unit rate
    c = unit_circle(256)
    out = flow_arc(c, normal_field(), 0.5, steps=100)
    radii = np.linalg.norm(out.points, axis=1)
    assert abs(radii.mean() - 0.5) <= 1e-6
    assert np.max(np.abs(radii - radii.mean())) <= 1e-6


def test_flow_validation():
    c = unit_circle(64)
    with pytest.raises(ValueError):
        flow_arc(c, normal_field(), 0.1, steps=0)
    with pytest.raises(ValueError):
        flow_arc(great_circle(64), normal_field(), 0.1, steps=10)


def test_leaf_invariant_rigid_similarity_is_zero():
    c = random_fourier_curve(7, 128, 4, 2.5)
    ang = 0.6
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    moved = DiscreteImmersion(1.7 * c.points @ rot.T + np.array([3.0, -1.0]), PLANE)
    assert leaf_invariant(c, moved) <= 1e-12


def test_leaf_invariant_grid_mismatch():
    with pytest.raises(GridMismatch):
        leaf_invariant(unit_circle(64), unit_circle(128))


def test_projected_flow_stays_on_leaf():
    n = 256
    c = random_fourier_curve(2, n, 6, 3.0)
    out = flow_arc(c, normal_field(cos_field(1, n)), 0.3, steps=100)
    assert leaf_invariant(c, out) <= 1e-5


def test_normal_perturbation_leaves_leaf():
    n = 256
    c = unit_circle(n)
    _, nn = frame(c)
    moved = DiscreteImmersion(c.points + 0.1 * cos_field(3, n).samples[:, None] * nn.vectors, PLANE)
    assert leaf_invariant(c, moved) >= 1e-2


def test_unprojected_flow_is_the_negative_control():
    n = 256
    c = unit_circle(n)
    out = flow_field(c, normal_field(cos_field(3, n)), 0.3, steps=100)
    assert leaf_invariant(c, out) >= 1e-2


def test_frobenius_defect_translations():
    c = ellipse(128, 2.0, 1.0)
    f1 = constant_field((1.0, 0.0))
    f2 = constant_field((0.0, 1.0))
    assert frobenius_defect(c, f1, f2, 1e-4) <= 1e-8


def test_frobenius_defect_normal_pair_on_circle():
    n = 256
    defect = frobenius_defect(unit_circle(n), normal_field(), normal_field(cos_field(1, n)), 1e-4)
    assert defect <= 1e-3
    assert defect <= 1e-6  # regression pin, measured 1.4e-9


def test_frobenius_defect_on_fourier_curve():
    c = random_fourier_curve(4, 256, 6, 3.0)
    assert frobenius_defect(c, normal_field(), tangent_field(), 1e-4) <= 1e-3


def test_trajectory_export(tmp_path):
    c = unit_circle(64)
    frames = flow_trajectory(c, normal_field(), 0.1, steps=4, sample_every=2)
    assert len(frames) == 3
    paths = write_flow_frames(frames, tmp_path, stem="run")
    assert [p.split("/")[-1] for p in paths] == ["run_0000.csv", "run_0001.csv", "run_0002.csv"]
    back = load_curve_csv(paths[0])
    assert np.array_equal(back.points, c.points)


def test_trajectory_sampling_validation():
    with pytest.raises(ValueError):
        flow_trajectory(unit_circle(64), normal_field(), 0.1, steps=4, sample_every=0)


@pytest.mark.parametrize("steps", [0, -3])
def test_trajectory_rejects_steps_below_one(steps):
    with pytest.raises(ValueError, match="steps must be >= 1"):
        flow_trajectory(unit_circle(64), normal_field(), 0.1, steps=steps)


def test_trajectory_rejects_sphere_curves():
    with pytest.raises(ValueError, match="plane curves only"):
        flow_trajectory(great_circle(64), normal_field(), 0.1, steps=0)


# The flows run on point arrays.  The references below are the container
# code they replace: a curve built at every RK4 stage, the field's tangent
# written out on it from frame(c) and the tangent algebra (not by calling the
# field, which runs the same rule as the flow), and the 3-pass projection
# written out with np.sum and np.dot.


def reference_projection(c, h):
    s = speed(c).samples
    v, _ = frame(c)
    total = np.sum(s)
    vectors = h.vectors
    for _ in range(3):
        us = np.sum(diff4(vectors) * v.vectors, axis=1)
        w = (np.sum(us) / total) * s - us
        psi = periodic_primitive(w)
        psi = psi - np.dot(psi, s) / total
        vectors = vectors + psi[:, None] * v.vectors
    return ImmersionTangent(vectors, c)


def reference_flow(c0, tangent, t, steps, project):
    """RK4 flow of the field whose value on a curve c is tangent(c)."""

    def velocity(pts):
        c = DiscreteImmersion(pts, c0.ambient)
        h = tangent(c)
        return (reference_projection(c, h) if project else h).vectors

    dt = t / steps
    pts = np.array(c0.points)
    for _ in range(steps):
        k1 = velocity(pts)
        k2 = velocity(pts + (0.5 * dt) * k1)
        k3 = velocity(pts + (0.5 * dt) * k2)
        k4 = velocity(pts + dt * k3)
        pts = pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DiscreteImmersion(pts, c0.ambient)


def normal_times(a):
    """The container formula of normal_field(a): c -> frame(c)[1] * a."""
    return lambda c: frame(c)[1] * a


def flow_fields(n):
    """Each flow field with the container formula of its tangent."""
    w = np.array([0.3, -0.2])
    return {
        "cos*n": (normal_field(cos_field(1, n)), normal_times(cos_field(1, n))),
        "cos3*n": (normal_field(cos_field(3, n)), normal_times(cos_field(3, n))),
        "constant": (constant_field(w), lambda c: ImmersionTangent(np.tile(w, (c.grid_n, 1)), c)),
        "composite": (normal_field() + 0.3 * tangent_field(), lambda c: frame(c)[1] + frame(c)[0] * 0.3),
    }


FLOW_CURVES = {
    "circle": unit_circle,
    "ellipse": lambda n: ellipse(n, 1.5, 0.7),
    "fourier": lambda n: random_fourier_curve(2, n, 6, 3.0),
}


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("curve", sorted(FLOW_CURVES))
def test_array_flows_are_bitwise_equal_to_the_container_loop(curve, n):
    c = FLOW_CURVES[curve](n)
    for name, (field, tangent) in flow_fields(n).items():
        h = tangent(c)
        assert np.array_equal(field(c).vectors, h.vectors), name
        assert np.array_equal(project_to_arc(c, h).vectors, reference_projection(c, h).vectors), name
        for flow, project in ((flow_arc, True), (flow_field, False)):
            got = flow(c, field, 0.3, steps=10)
            want = reference_flow(c, tangent, 0.3, 10, project)
            assert np.array_equal(got.points, want.points), (name, flow.__name__)


def test_a_reused_workspace_is_the_reference_bit_for_bit():
    # one workspace per grid, three curves in a row through it: each result
    # is the reference's, and neither it nor the inputs move when the next
    # curve runs (the flow keeps k1..k4 across its stages)
    for n in (8, 10, 64, 256, 512, 1000):
        work = arclength._ArcWorkspace(n, 2)
        curves = (unit_circle(n), ellipse(n, 1.5, 0.7), random_fourier_curve(2, n, min(6, n // 4), 3.0))
        kept = []
        for c in curves:
            h = normal_times(cos_field(1, n))(c) + frame(c)[0] * cos_field(3, n)
            s, v = speed(c).samples, frame(c)[0].vectors
            inputs = (s, v, h.vectors)
            copies = tuple(np.array(a) for a in inputs)
            got = arclength._arc_projection(*inputs, work)
            assert np.array_equal(got, reference_projection(c, h).vectors), (n, c)
            for earlier, want in kept:
                assert np.array_equal(earlier, want)
            kept.append((got, np.array(got)))
            for a, b in zip(inputs, copies):
                assert np.array_equal(a, b)
            assert not any(np.shares_memory(got, buf) for buf in vars(work).values() if isinstance(buf, np.ndarray))


def test_a_warm_workspace_allocates_only_the_result(monkeypatch):
    # A temporary freed within the call would not lift the call's peak above
    # its result, so the peak is also read at each pass's _primitive call:
    # an (n,) or (n, 2) temporary anywhere in the passes adds 32 or 64 KiB.
    n = 4096
    c = ellipse(n, 1.5, 0.7)
    s, v = speed(c).samples, frame(c)[0].vectors
    vectors = normal_times(cos_field(1, n))(c).vectors
    work = arclength._ArcWorkspace(n, 2)
    arclength._arc_projection(s, v, vectors, work)
    primitive, peaks = arclength._primitive, []

    def probed(*args):
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        tracemalloc.reset_peak()
        return primitive(*args)

    monkeypatch.setattr(arclength, "_primitive", probed)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = arclength._arc_projection(s, v, vectors, work)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    assert max(peaks[:3]) <= 4096
    assert got.nbytes <= peaks[3] <= got.nbytes + 4096


def division_projection(c, h):
    """The projection loop as it was before the division-free kernel: the
    stretch rate u = <diff4 h / s, v> and both means taken as sums of
    products with s."""
    s = speed(c).samples
    v = frame(c)[0].vectors
    vectors = np.array(h.vectors)
    for _ in range(3):
        u = np.sum((diff4(vectors) / s[:, None]) * v, axis=1)
        w = (float(np.sum(u * s) / np.sum(s)) - u) * s
        psi = periodic_primitive(w)
        psi -= float(np.sum(psi * s) / np.sum(s))
        vectors += psi[:, None] * v
    return vectors


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("curve", sorted(FLOW_CURVES))
def test_projection_is_the_division_loop_to_rounding(curve, n):
    # the kernel never divides by s and takes its means as dot products, so
    # it is not bitwise the division loop; measured within 3.4e-16 max|h|
    c = FLOW_CURVES[curve](n)
    for name, (_, tangent) in flow_fields(n).items():
        h = tangent(c)
        gap = np.abs(project_to_arc(c, h).vectors - division_projection(c, h)).max()
        assert gap <= 1e-14 * np.abs(h.vectors).max(), name


# Arc suite records of the division loop, recorded before the division-free
# kernel: (family, n) -> {case: value}.  The Fourier curve is the flow
# workload's seed-609 curve at n = 512, whose n,v record moved the most.
DIVISION_LOOP_RECORDS = {
    ("circle", 256): {
        "flow cos*n, t=0.3": 1.687538997430241e-14,
        "n,cos*n": 1.440488620389043e-09,
        "cos*n,sin*n": 1.6378962731127222e-09,
        "n,v": 1.9403588033807212e-09,
        "unprojected cos3*n control": -0.3676648210740645,
    },
    ("ellipse:1.5,0.7", 512): {
        "flow cos*n, t=0.3": 4.048068178544363e-07,
        "n,cos*n": 4.0488147837414263e-07,
        "cos*n,sin*n": 2.2981377595548178e-07,
        "n,v": 6.7525013748501156e-06,
        "unprojected cos3*n control": -1.114096869260774,
    },
    ("fourier:624158423,6,3.0", 512): {
        "flow cos*n, t=0.3": 3.3185341651285927e-10,
        "n,cos*n": 1.2424256456535928e-06,
        "cos*n,sin*n": 1.94264376885105e-06,
        "n,v": 2.7431069030636786e-05,
        "unprojected cos3*n control": -1.2128753630945643,
    },
}

# frobenius_defect divides a difference of P[F] values by the suite's
# eps = 1e-4 and then applies the stencil twice, so a rounding-level change
# of the projection moves it by about 1e-8 at n = 512.  The bound is
# eps_machine / eps**2 = 2.2e-8; over the flow workload's seeds 601-610 and
# 7919 the largest move was 0.87 of it.  The leaf invariant moves by rounding
# (at most 5.9e-14 there); the unprojected control does not move.
RECORD_BOUNDS = {
    "frobenius_defect": np.finfo(float).eps / 1e-4**2,
    "leaf_invariant": 1e-12,
    "negative_control_slack": 0.0,
}


@pytest.mark.parametrize("family,n", sorted(DIVISION_LOOP_RECORDS))
def test_arc_records_stay_within_their_bounds_of_the_division_loop(family, n):
    records = run_suite(SuiteConfig(suite="arc", grid_n=n, family=family))
    want = DIVISION_LOOP_RECORDS[family, n]
    assert sorted(rec.case for rec in records) == sorted(want)
    for rec in records:
        assert abs(rec.value - want[rec.case]) <= RECORD_BOUNDS[rec.metric], rec.case


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("project", [True, False])
def test_array_flow_errors_match_the_container_loop(project):
    flow = flow_arc if project else flow_field
    c = unit_circle(64)
    # the unit normal points inward: one RK4 step of length 1 puts its last
    # stage at the centre, where the speed falls below the floor
    err = raised(flow, c, normal_field(), 1.0, 1)
    assert err[0] is ImmersionDegenerate
    assert err == raised(reference_flow, c, lambda c: frame(c)[1], 1.0, 1, project)
    # a coefficient sampled on another grid
    err = raised(flow, c, normal_field(cos_field(1, 128)), 0.1, 2)
    assert err == (GridMismatch, "scalar field lives on a different grid")
    assert err == raised(reference_flow, c, normal_times(cos_field(1, 128)), 0.1, 2, project)


def test_array_flow_checks_speeds_in_the_container_order():
    # |d_theta c| overflows to inf while the frame stays finite (zero), so
    # only the projection's speed check fires, with PeriodicScalarField's
    # message; the unprojected flow has no such check and does not move
    c = circle(64, 1e300)
    field, tangent = normal_field(cos_field(1, 64)), normal_times(cos_field(1, 64))
    with np.errstate(over="ignore"):
        err = raised(flow_arc, c, field, 0.1, 1)
        assert err == (ValueError, "samples must be finite")
        assert err == raised(reference_flow, c, tangent, 0.1, 1, True)
        got = flow_field(c, field, 0.1, 1)
        assert np.array_equal(got.points, reference_flow(c, tangent, 0.1, 1, False).points)


def test_constant_fields_compute_no_frame():
    # all 16 samples equal: the curve has no frame, but a constant field
    # needs none, so evaluating it and flowing along it translate the points
    c = DiscreteImmersion(np.tile([0.5, -0.25], (16, 1)), PLANE)
    w = np.array([1.0, 0.0])
    with pytest.raises(ImmersionDegenerate):
        frame(c)
    assert np.array_equal(constant_field((1.0, 0.0))(c).vectors, np.tile(w, (16, 1)))
    for factor, field in ((1.0, constant_field((1.0, 0.0))), (2.0, 2.0 * constant_field((1.0, 0.0)))):
        k = np.tile(w * factor, (16, 1))
        want = np.array(c.points)
        for _ in range(2):
            want = want + (0.05 / 6.0) * (k + 2.0 * k + 2.0 * k + k)
        got = flow_field(c, field, 0.1, 2)
        assert np.array_equal(got.points, want), field.name


def test_leaf_invariant_defect_on_the_ellipse_is_pinned():
    # The flow workload's one failing record (tolerance 1e-5): flowing cos*n
    # to t = 0.3 on the 1.5 x 0.7 ellipse at n = 256 leaves a residue that
    # no tangential correction can reach on this grid (see the README's
    # known limitations).  Measured 1.5838e-5; a change that moves it must
    # say so.
    n = 256
    c = ellipse(n, 1.5, 0.7)
    value = leaf_invariant(c, flow_arc(c, normal_field(cos_field(1, n)), 0.3))
    assert 1.5e-5 <= value <= 1.7e-5


def one_pass_projection(s, v, vectors, work):
    """A mutant of the projection kernel: one pass of its loop, not three."""
    total = np.sum(s)
    us = np.sum(diff4(vectors) * v, axis=1)
    psi = periodic_primitive((np.sum(us) / total) * s - us)
    psi = psi - np.dot(psi, s) / total
    return vectors + psi[:, None] * v


def test_arc_suite_catches_a_one_pass_projection(monkeypatch):
    # On the 1.5 x 0.7 ellipse at n = 512 the leaf invariant of the flowed
    # cos*n reads 4.05e-7 with three passes and 1.26e-3 with one, against a
    # tolerance of 1e-5.  The default run (the circle at n = 256) cannot
    # catch this mutant: its record reads 5.4e-8 with one pass.  Nor does
    # any record here catch a two-pass mutant, which reads 7.93e-6.
    cfg = SuiteConfig(suite="arc", family="ellipse:1.5,0.7", grid_n=512)

    def leaf_record():
        (rec,) = [rec for rec in run_suite(cfg) if rec.metric == "leaf_invariant"]
        return rec

    assert leaf_record().passed
    monkeypatch.setattr(arclength, "_arc_projection", one_pass_projection)
    rec = leaf_record()
    assert not rec.passed
    assert np.isfinite(rec.value)  # a value, not a mutant that failed to run
    assert rec.value > 100 * rec.tolerance
