"""Derivatives in the curve variable, torsion, and normal-field brackets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norbrack import calculus, curves
from norbrack.arclength import _projected, project_to_arc
from norbrack.calculus import (
    bracket_closed_form,
    bracket_numeric,
    constant_field,
    directional_derivative,
    flow_commutator,
    normal_field,
    tangent_field,
    torsion_defect,
    variation_of_normal,
)
from norbrack.curves import (
    PLANE,
    SPHERE,
    DiscreteImmersion,
    ImmersionTangent,
    _frames,
    ellipse,
    frame,
    great_circle,
    latitude_circle,
    pointwise_inner,
    random_fourier_curve,
    unit_circle,
)
from norbrack.cli import SuiteConfig, run_suite
from norbrack.errors import GridMismatch, StepTooLarge, StepTooSmall
from norbrack.fields import PeriodicScalarField, theta_grid, trig_basis

from conftest import wobbly_sphere_curve


def trig(fn, k, n):
    return PeriodicScalarField(fn(k * theta_grid(n)))


def test_directional_derivative_of_constant_field_is_exact_zero():
    c = unit_circle(64)
    v, _ = frame(c)
    out = directional_derivative(constant_field((0.3, -1.1)), c, v, 1e-5)
    assert np.array_equal(out.vectors, np.zeros((64, 2)))


def test_directional_derivative_rotation_examples():
    # moving the unit circle along v rotates it, so n turns into -v;
    # moving along n rescales it, which leaves the unit normal alone
    c = unit_circle(256)
    v, nn = frame(c)
    d_along_v = directional_derivative(normal_field(), c, v, 1e-5)
    assert (d_along_v + v).max_norm() <= 1e-8
    d_along_n = directional_derivative(normal_field(), c, nn, 1e-5)
    assert d_along_n.max_norm() <= 1e-8


def test_directional_derivative_step_validation():
    c = unit_circle(64)
    v, _ = frame(c)
    with pytest.raises(ValueError):
        directional_derivative(normal_field(), c, v, 0.0)
    with pytest.raises(StepTooLarge):
        directional_derivative(normal_field(), c, v, 0.2)
    # the circle's largest coordinate is 1, where floats are 2.2e-16 apart
    with pytest.raises(StepTooSmall):
        directional_derivative(normal_field(), c, v, np.spacing(1.0))
    directional_derivative(normal_field(), c, v, 2.0 * np.spacing(1.0))


def test_flow_commutator_rejects_nonpositive_eps():
    c = unit_circle(64)
    with pytest.raises(ValueError):
        flow_commutator(c, normal_field(), tangent_field(), -1e-4)


def test_flow_commutator_rejects_a_step_lost_to_rounding():
    # c + eps X rounds to c at eps = 1e-20 on the unit circle, so the loops
    # do not move and the estimate read an exact 0.0 before the step check
    c = unit_circle(64)
    theta = theta_grid(64)
    x, y = (normal_field(PeriodicScalarField(f(theta))) for f in (np.cos, np.sin))
    for eps in (1e-17, 1e-20):
        with pytest.raises(StepTooSmall):
            flow_commutator(c, x, y, eps)
    with pytest.raises(StepTooLarge):
        flow_commutator(c, x, y, 0.2)
    assert flow_commutator(c, x, y, 1e-4).max_norm() == 0.9999537866146089


def test_torsion_defect_constants_plane():
    c = ellipse(128, 2.0, 1.0)
    x = constant_field((1.0, 0.0))
    y = constant_field((0.0, 1.0))
    assert torsion_defect(c, x, y, 1e-4) <= 1e-10


def test_torsion_defect_normal_pair_circle():
    n = 256
    a = trig(np.cos, 1, n)
    b = trig(np.sin, 1, n)
    defect = torsion_defect(unit_circle(n), normal_field(a), normal_field(b), 1e-4)
    assert defect <= 1e-3
    assert defect <= 1e-6  # regression pin, measured 6.6e-8


def test_torsion_defect_normal_pair_sphere():
    n = 256
    a = trig(np.cos, 1, n)
    b = trig(np.sin, 1, n)
    defect = torsion_defect(great_circle(n), normal_field(a), normal_field(b), 1e-4)
    assert defect <= 1e-2
    assert defect <= 1e-6


def test_variation_of_normal_examples():
    n = 256
    th = theta_grid(n)
    c = unit_circle(n)
    v, nn = frame(c)

    assert variation_of_normal(c, nn).max_norm() <= 1e-12

    h = nn * PeriodicScalarField(np.cos(th))
    want = v * PeriodicScalarField(np.sin(th))
    assert (variation_of_normal(c, h) - want).max_norm() <= 1e-12

    assert (variation_of_normal(c, v) + v).max_norm() <= 1e-12


def test_variation_matches_numeric_derivative_of_normal():
    n = 256
    c = ellipse(n, 2.0, 1.0)
    v, nn = frame(c)
    h = nn * trig(np.cos, 2, n)
    numeric = directional_derivative(normal_field(), c, h, 1e-4)
    assert (variation_of_normal(c, h) - numeric).max_norm() <= 1e-3


def test_bracket_closed_form_degenerate_inputs_vanish():
    n = 128
    c = unit_circle(n)
    a = trig(np.cos, 3, n)
    assert bracket_closed_form(c, a, a).max_norm() == 0.0
    one = PeriodicScalarField.constant(1.0, n)
    two = PeriodicScalarField.constant(2.0, n)
    assert bracket_closed_form(c, one, two).max_norm() == 0.0


def test_bracket_closed_form_cos_sin_is_unit_tangent():
    n = 256
    c = unit_circle(n)
    v, _ = frame(c)
    out = bracket_closed_form(c, trig(np.cos, 1, n), trig(np.sin, 1, n))
    assert (out - v).max_norm() <= 1e-12


def test_bracket_closed_form_grid_mismatch():
    with pytest.raises(GridMismatch):
        bracket_closed_form(
            unit_circle(64),
            PeriodicScalarField.constant(1.0, 32),
            PeriodicScalarField.constant(1.0, 32),
        )


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=30, deadline=None)
def test_bracket_closed_form_antisymmetry_is_bitwise(seed):
    n = 64
    rng = np.random.default_rng(seed)
    c = unit_circle(n)
    a = PeriodicScalarField(rng.standard_normal(n))
    b = PeriodicScalarField(rng.standard_normal(n))
    assert np.array_equal(
        bracket_closed_form(c, a, b).vectors, -bracket_closed_form(c, b, a).vectors
    )


@given(
    s=st.floats(-3, 3), t=st.floats(-3, 3),
    seed=st.integers(min_value=0, max_value=1_000),
)
@settings(max_examples=25, deadline=None)
def test_bracket_closed_form_bilinearity(s, t, seed):
    n = 64
    rng = np.random.default_rng(seed)
    c = ellipse(n, 2.0, 1.0)
    a1 = PeriodicScalarField(rng.standard_normal(n))
    a2 = PeriodicScalarField(rng.standard_normal(n))
    b = PeriodicScalarField(rng.standard_normal(n))
    combo = bracket_closed_form(c, a1 * s + a2 * t, b)
    parts = bracket_closed_form(c, a1, b) * s + bracket_closed_form(c, a2, b) * t
    assert (combo - parts).max_norm() <= 1e-10


def test_bracket_numeric_equal_constant_coefficients_vanish():
    n = 128
    one = PeriodicScalarField.constant(1.0, n)
    out = bracket_numeric(unit_circle(n), one, one, eps=1e-5)
    assert out.max_norm() <= 1e-8


def test_bracket_numeric_circle_cos_sin():
    n = 256
    c = unit_circle(n)
    v, _ = frame(c)
    out = bracket_numeric(c, trig(np.cos, 1, n), trig(np.sin, 1, n), eps=1e-5)
    assert (out - v).max_norm() <= 1e-3
    assert (out - v).max_norm() <= 1e-5  # measured 1.8e-7


def test_bracket_numeric_sphere_matches_closed_form():
    n = 256
    c = great_circle(n)
    a, b = trig(np.cos, 1, n), trig(np.sin, 1, n)
    diff = bracket_numeric(c, a, b, eps=1e-5) - bracket_closed_form(c, a, b)
    assert diff.max_norm() <= 1e-2
    assert diff.max_norm() <= 1e-4


@pytest.mark.parametrize(
    "make_curve, tol",
    [
        (lambda: ellipse(256, 2.0, 1.0), 1e-3),
        (lambda: wobbly_sphere_curve(256), 1e-2),
    ],
)
def test_bracket_agreement_off_circle(make_curve, tol):
    n = 256
    c = make_curve()
    a, b = trig(np.cos, 1, n), trig(np.sin, 2, n)
    diff = bracket_numeric(c, a, b, eps=1e-5) - bracket_closed_form(c, a, b)
    assert diff.max_norm() <= tol


@pytest.mark.parametrize("make_curve", [lambda: ellipse(256, 2.0, 1.0), lambda: great_circle(256)])
def test_bracket_outputs_are_tangential(make_curve):
    n = 256
    c = make_curve()
    _, nn = frame(c)
    a, b = trig(np.cos, 2, n), trig(np.sin, 1, n)
    closed = bracket_closed_form(c, a, b)
    assert pointwise_inner(closed, nn).max_abs() <= 1e-13
    numeric = bracket_numeric(c, a, b, eps=1e-5)
    assert pointwise_inner(numeric, nn).max_abs() <= 1e-3


def test_constant_field_dimension_mismatch():
    with pytest.raises(GridMismatch):
        constant_field((1.0, 0.0))(great_circle(64))


def test_curve_field_algebra():
    c = unit_circle(64)
    v, nn = frame(c)
    combo = (2.0 * normal_field() - tangent_field())(c)
    want = nn * 2.0 - v
    assert (combo - want).max_norm() == 0.0


@pytest.mark.parametrize(
    "make_curve",
    [lambda: ellipse(64, 1.5, 0.7), lambda: latitude_circle(64, 0.6), lambda: wobbly_sphere_curve(64)],
)
def test_fields_are_bitwise_their_container_formulas(make_curve):
    # each built-in field against the formula it stands for, written out on
    # the curve's containers
    c = make_curve()
    n = c.grid_n
    v, nn = frame(c)
    a = trig(np.cos, 1, n) + trig(np.sin, 2, n) * 0.5
    m = trig(np.sin, 3, n)
    w = np.linspace(0.3, -0.7, c.ambient_dim)
    cases = [(constant_field(w), ImmersionTangent(np.tile(w, (n, 1)), c))]
    if c.ambient == SPHERE:
        # one projection per value: the frame vectors as curves._frames
        # computes them, scaled and combined, then projected by a single
        # tangent wrap
        _, _, v_raw, n_raw = _frames(c.ambient, c.points)
        a_n = n_raw * a.samples[:, None]
        cases += [
            (normal_field(), ImmersionTangent(n_raw, c)),
            (tangent_field(), ImmersionTangent(v_raw, c)),
            (normal_field(a), ImmersionTangent(a_n, c)),
            (tangent_field(m), ImmersionTangent(v_raw * m.samples[:, None], c)),
            (normal_field(2.5), ImmersionTangent(n_raw * 2.5, c)),
            (2.0 * normal_field(a) - tangent_field(), ImmersionTangent(a_n * 2.0 - v_raw, c)),
            (-normal_field(a), ImmersionTangent(a_n * -1.0, c)),
        ]
    else:
        cases += [
            (normal_field(), frame(c)[1]),
            (tangent_field(), frame(c)[0]),
            (normal_field(a), nn * a),
            (tangent_field(m), v * m),
            (normal_field(2.5), nn * 2.5),
            (2.0 * normal_field(a) - tangent_field(), nn * a * 2.0 - v),
            (-normal_field(a), (nn * a) * -1.0),
            (_projected(normal_field(a)), project_to_arc(c, nn * a)),
            (_projected(normal_field() + 0.3 * tangent_field()), project_to_arc(c, nn + v * 0.3)),
        ]
    for field, want in cases:
        got = field(c)
        assert got.base is c, field.name
        assert np.array_equal(got.vectors, want.vectors), field.name


def test_one_sphere_field_value_makes_one_projection(monkeypatch):
    # the field's wrap projects its value; the rule hands it the frame
    # vector as _frames computed it, and a composite's rule combines its
    # operands' rules
    c = latitude_circle(64, 0.6)
    project = curves._project
    calls = []

    def counted(*args):
        calls.append(args)
        return project(*args)

    for module in (curves, calculus):
        monkeypatch.setattr(module, "_project", counted)
    composite = 2.0 * normal_field(trig(np.cos, 1, 64)) - tangent_field()
    for field in (normal_field(trig(np.cos, 1, 64)), normal_field(), composite):
        for evaluate in (lambda: field(c), lambda: field._velocity(c.ambient, c.points)):
            calls.clear()
            evaluate()
            assert len(calls) == 1, field.name


# Sphere values recorded with repr before each field value was projected
# once instead of two or three times.  The repeated projections move each
# field value by a few ulps of its size (here |f n| <= 1).  A numeric
# derivative divides the difference of two such values by 2 eps, and the flow
# commutator divides the sum of two loop endpoints, each four legs of eps
# times such a value, by 2 eps^2.  So each record moves by a small multiple
# of eps_machine / eps; the stated bound is 4 eps_machine / eps.  Over the
# calc benchmark configs at seeds 601-610 and 7919 the largest move is 0.21
# of it (torsion) and 0.12 of it (bracket).
SPHERE_RECORDS = {
    "latitude": {
        "bracket_numeric": 3.332885619134164,
        "bracket_max_diff": 0.00029363060786291584,
        "flow_commutator": 3.332885600173105,
        "torsion_defect": 2.1747616935303673e-07,
        "variation_max_diff": 4.9329902156003413e-05,
    },
    "wobbly": {
        "bracket_numeric": 2.4925408182587376,
        "bracket_max_diff": 0.00019559373040386622,
        "flow_commutator": 2.4925408035089855,
        "torsion_defect": 7.849789974233096e-08,
        "variation_max_diff": 7.67027272881197e-05,
    },
}


@pytest.mark.parametrize(
    "curve, make_curve",
    [("latitude", lambda: latitude_circle(64, 0.6)), ("wobbly", lambda: wobbly_sphere_curve(64))],
)
def test_sphere_records_move_within_rounding_over_eps(curve, make_curve):
    c = make_curve()
    a, b = trig(np.cos, 1, 64), trig(np.sin, 2, 64)
    numeric = bracket_numeric(c, a, b, 1e-5)
    h = frame(c)[1] * a
    got = {
        "bracket_numeric": (numeric.max_norm(), 1e-5),
        "bracket_max_diff": ((numeric - bracket_closed_form(c, a, b)).max_norm(), 1e-5),
        "flow_commutator": (flow_commutator(c, normal_field(a), normal_field(b), 1e-4).max_norm(), 1e-4),
        "torsion_defect": (torsion_defect(c, normal_field(a), normal_field(b), 1e-4), 1e-4),
        "variation_max_diff": (
            (variation_of_normal(c, h) - directional_derivative(normal_field(), c, h, 1e-4)).max_norm(),
            1e-4,
        ),
    }
    for name, (value, eps) in got.items():
        assert abs(value - SPHERE_RECORDS[curve][name]) <= 4 * np.finfo(float).eps / eps, name


BATCH_CURVES = {
    "circle": lambda: unit_circle(64),
    "ellipse": lambda: ellipse(64, 1.5, 0.7),
    "fourier": lambda: random_fourier_curve(3, 64, 5, 2.5),
    "great circle": lambda: great_circle(64),
    "latitude": lambda: latitude_circle(64, 0.6),
    "wobbly sphere": lambda: wobbly_sphere_curve(64),
}


@pytest.mark.parametrize("curve", ["ellipse", "latitude"])
def test_pair_stacks_are_coordinate_major(curve, monkeypatch):
    # every coordinate of every curve is one contiguous run of n samples: in
    # the stacks, in a chunk's gather (where each coordinate of the chunk is
    # one contiguous block), and in what the kernels make of them
    c = BATCH_CURVES[curve]()
    n, d = c.points.shape
    # the stacks are filled two curves at a time, through strided slices
    monkeypatch.setattr(calculus, "_CHUNK_BYTES", 2 * c.points.nbytes)
    stack = calculus._NormalPairs(c, trig_basis(n, 3), 1e-4)
    for points, normals, _ in (*stack.perturbed, *stack._first_legs.values()):
        for arr in (points, normals):
            assert arr.shape == (n, 7, d)
            assert arr.T.flags.c_contiguous
    i, j = np.array([4, 0, 6]), np.array([5, 1, 2])
    gathered = calculus._gather(points, i)
    assert np.array_equal(gathered, points[:, i])
    assert gathered.T.flags.c_contiguous
    for got in (stack._derivative(i, j), stack._closed_form(i, j), stack._flow_commutator(i, j)):
        assert got.shape == (n, 3, d)
        assert got.strides[0] == got.itemsize


@pytest.mark.parametrize("modes, count", [(4, 36), (3, 21), (0, 0)])
@pytest.mark.parametrize("curve", list(BATCH_CURVES))
def test_batched_pairs_are_bitwise_equal_to_per_pair_loop(curve, modes, count, monkeypatch):
    c = BATCH_CURVES[curve]()
    basis = trig_basis(64, modes)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    assert len(pairs) == count
    _, nrm = frame(c)
    brackets, torsions = [], []
    for i, j in pairs:
        a, b = basis[i], basis[j]
        numeric = bracket_numeric(c, a, b, 1e-5)
        brackets.append(
            ((numeric - bracket_closed_form(c, a, b)).max_norm(), pointwise_inner(numeric, nrm).max_abs())
        )
        torsions.append(torsion_defect(c, normal_field(a), normal_field(b), 1e-4))
    # chunks of 6 curves: 21 pairs end in a partial chunk, and the 9 basis
    # functions of modes = 4 are perturbed, and their first flow legs built,
    # in two chunks; chunks of 2 curves split them over four or five
    for curves_a_chunk in (6, 2):
        monkeypatch.setattr(calculus, "_CHUNK_BYTES", curves_a_chunk * c.points.nbytes)
        assert calculus._pairwise(calculus._NormalPairs.bracket, c, basis, pairs, 1e-5) == brackets
        assert calculus._pairwise(calculus._NormalPairs.torsion, c, basis, pairs, 1e-4) == torsions


def suite_records(suite, metric):
    return [rec for rec in run_suite(SuiteConfig(suite=suite)) if rec.metric == metric]


def test_bracket_suite_catches_a_scaled_closed_form(monkeypatch):
    # On the default run (the circle at n = 256, 36 pairs) the numeric and
    # closed-form brackets agree to 8.0e-6.  A closed form scaled by 1 + 1e-3
    # fails every record (worst 4.0e-3 against a tolerance of 1e-3); one
    # scaled by 1 + 1e-4 fails none (worst 4.08e-4), a blind spot of the
    # suite's tolerance, not of this test.
    assert all(rec.passed for rec in suite_records("bracket", "bracket_max_diff"))
    closed_form = calculus._NormalPairs._closed_form
    monkeypatch.setattr(
        calculus._NormalPairs, "_closed_form", lambda self, i, j: closed_form(self, i, j) * (1.0 + 1e-3)
    )
    records = suite_records("bracket", "bracket_max_diff")
    assert len(records) == 36
    assert not any(rec.passed for rec in records)


def test_torsion_suite_catches_a_scaled_flow_commutator(monkeypatch):
    # On the default run (the circle at n = 256, 36 pairs) the numeric
    # bracket and the flow commutator agree to 3.8e-7.  A commutator scaled
    # by 1 + 1e-3 fails every record (worst 4.0e-3 against a tolerance of
    # 1e-3); one scaled by 1 + 1e-4 fails none (worst 4e-4), a blind spot of
    # the suite's tolerance, not of this test.
    assert all(rec.passed for rec in suite_records("torsion", "torsion_defect"))
    commutator = calculus._NormalPairs._flow_commutator
    monkeypatch.setattr(
        calculus._NormalPairs, "_flow_commutator", lambda self, i, j: commutator(self, i, j) * (1.0 + 1e-3)
    )
    records = suite_records("torsion", "torsion_defect")
    assert len(records) == 36
    assert not any(rec.passed for rec in records)


def test_variation_suite_catches_a_dropped_curvature_term(monkeypatch):
    # Without its curvature term the closed form is -D_s(p) v: on the
    # default run it misses by 1.0 for h = v and 0.23 for h = random, and is
    # still exact for h = n and h = cos*n, which have no tangential part.
    assert all(rec.passed for rec in suite_records("variation", "variation_max_diff"))

    def without_curvature(c, h):
        v, _ = frame(c)
        return v * -curves.arclen_deriv(c, curves.split_tangent_normal(c, h).normal_coeff)

    monkeypatch.setattr(calculus, "variation_of_normal", without_curvature)
    records = suite_records("variation", "variation_max_diff")
    assert [rec.case for rec in records if not rec.passed] == ["h=v", "h=random"]
    assert max(rec.value for rec in records) > 100 * records[0].tolerance
