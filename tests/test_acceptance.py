"""Acceptance checks, one per headline claim of the library.

Each test prints a single pass/fail line (run with -s to see them all);
the assertion carries the same information for captured runs.  One check,
criterion 2, is known to fail at the stated tolerances: one mode below
Nyquist the trig basis has n - 1 functions, so full rank is out of reach.
The README discusses it.
"""

import time

import numpy as np

from norbrack.arclength import flow_arc, flow_field, frobenius_defect, leaf_invariant
from norbrack.calculus import (
    bracket_closed_form,
    bracket_numeric,
    bracket_of_fields,
    directional_derivative,
    normal_field,
    tangent_field,
    torsion_defect,
    variation_of_normal,
)
from norbrack.curves import (
    ellipse,
    frame,
    great_circle,
    latitude_circle,
    random_fourier_curve,
    unit_circle,
)
from norbrack.fields import PeriodicScalarField, diff4, theta_grid, trig_basis
from norbrack.oneforms import (
    OneFormSamples,
    _bump,
    decompose_oneform,
    decompose_supported,
    reconstruct,
)
from norbrack.spanning import normal_generators, synthesize_tangential, verify_spanning

N = 256
EPS_BRACKET = 1e-5
EPS_DERIV = 1e-4


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def plane_curves(n):
    yield "circle", unit_circle(n)
    yield "ellipse", ellipse(n, 2.0, 1.0)
    for seed in range(1, 6):
        yield f"fourier{seed}", random_fourier_curve(seed, n, 6, 3.0)


def sphere_curves(n):
    yield "great", great_circle(n)
    yield "latitude", latitude_circle(n, 0.8)


def trig_pairs(n, max_mode=4):
    basis = trig_basis(n, max_mode)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            yield basis[i], basis[j]


def worst_bracket_diff(c):
    worst = 0.0
    for a, b in trig_pairs(c.grid_n):
        diff = bracket_numeric(c, a, b, EPS_BRACKET) - bracket_closed_form(c, a, b)
        worst = max(worst, diff.max_norm())
    return worst


def test_criterion_1_bracket_agreement():
    start = time.monotonic()
    plane_worst = max(worst_bracket_diff(c) for _, c in plane_curves(N))
    sphere_worst = max(worst_bracket_diff(c) for _, c in sphere_curves(N))
    elapsed = time.monotonic() - start
    ok = plane_worst <= 1e-3 and sphere_worst <= 1e-2 and elapsed < 10.0
    report(
        1,
        ok,
        f"bracket closed vs numeric: plane {plane_worst:.2e} (tol 1e-3), "
        f"sphere {sphere_worst:.2e} (tol 1e-2), {elapsed:.1f}s",
    )


def test_criterion_2_full_rank_one_mode_below_nyquist():
    start = time.monotonic()
    rows = []
    all_ok = True
    for n in (8, 16, 32):
        k = n // 2 - 1
        curves = [unit_circle(n), random_fourier_curve(1, n, 2, 3.0), random_fourier_curve(2, n, 2, 3.0)]
        for c in curves:
            rep = verify_spanning(c, k)
            sig_ok = rep.sigma_min / rep.sigma_max >= 1e-8 if rep.sigma_max > 0 else False
            normals = normal_generators(c, k)
            normal_rank = int(np.linalg.matrix_rank(np.column_stack([g.vectors.reshape(-1) for g in normals])))
            all_ok = all_ok and rep.full and sig_ok and normal_rank == n
        rows.append(f"N={n}: rank {rep.rank}/{2 * n}, normal {normal_rank}/{n}")
    elapsed = time.monotonic() - start
    all_ok = all_ok and elapsed < 5.0

    # one more mode makes every check pass; shown for context, not asserted
    extra = verify_spanning(unit_circle(16), 8)
    print(f"criterion 2 note: at K = N/2 the same checks pass (N=16: rank {extra.rank}/32, full={extra.full})")
    report(2, all_ok, f"spanning at K = N/2-1: {'; '.join(rows)}, {elapsed:.1f}s")


def test_criterion_3_oneform_reconstruction():
    rng = np.random.default_rng(0)
    theta = theta_grid(N)
    worst_rel = 0.0
    worst_terms = 0
    for _ in range(20):
        samples = np.full(N, rng.standard_normal())
        for k in range(1, 11):
            ck, sk = rng.standard_normal(2)
            samples = samples + ck * np.cos(k * theta) + sk * np.sin(k * theta)
        dec = decompose_oneform(OneFormSamples(samples))
        worst_terms = max(worst_terms, len(dec))
        err = reconstruct(dec, N).samples - samples
        worst_rel = max(worst_rel, np.linalg.norm(err) / np.linalg.norm(samples))

    window = (np.pi / 4.0, 3.0 * np.pi / 4.0)
    localized = OneFormSamples(_bump((theta - np.pi / 2.0) / (np.pi / 6.0)) * np.cos(theta))
    supported = decompose_supported(localized, window)
    outside = ~((theta > window[0]) & (theta < window[1]))
    zeros_ok = all(
        np.array_equal(a.samples[outside], np.zeros(outside.sum()))
        and np.array_equal(b.samples[outside], np.zeros(outside.sum()))
        for _, a, b in supported.terms
    )

    ok = worst_rel <= 1e-5 and worst_terms <= 8 and zeros_ok
    report(
        3,
        ok,
        f"one-form reconstruction: worst rel L2 {worst_rel:.2e} (tol 1e-5) over 20 forms, "
        f"max terms {worst_terms}/8, supported zeros outside window: {zeros_ok}",
    )


def test_criterion_4_tangential_synthesis():
    worst = 0.0
    for c in (unit_circle(N), ellipse(N, 2.0, 1.0)):
        theta = theta_grid(N)
        deriv = diff4(c.points)
        for m_vals in (np.ones(N), np.cos(theta), np.cos(3 * theta)):
            m = PeriodicScalarField(m_vals)
            dec = synthesize_tangential(c, m)
            total = np.zeros((N, 2))
            for coeff, a, b in dec.terms:
                total += coeff * bracket_closed_form(c, a, b).vectors
            target = m_vals[:, None] * deriv
            err = np.max(np.linalg.norm(total - target, axis=1))
            worst = max(worst, err / max(np.max(np.linalg.norm(target, axis=1)), 1.0))
    report(4, worst <= 1e-3, f"bracket synthesis of m*dc: worst relative {worst:.2e} (tol 1e-3)")


def variation_cases(c):
    theta = theta_grid(c.grid_n)
    v, nn = frame(c)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(8) / 4.0
    wob_v = PeriodicScalarField(coeffs[0] + coeffs[1] * np.cos(theta) + coeffs[2] * np.sin(2 * theta) + coeffs[3] * np.cos(3 * theta))
    wob_n = PeriodicScalarField(coeffs[4] + coeffs[5] * np.sin(theta) + coeffs[6] * np.cos(2 * theta) + coeffs[7] * np.sin(3 * theta))
    yield nn
    yield nn * PeriodicScalarField(np.cos(theta))
    yield v
    yield v * wob_v + nn * wob_n


def worst_variation_diff(c):
    worst = 0.0
    for h in variation_cases(c):
        diff = variation_of_normal(c, h) - directional_derivative(normal_field(), c, h, EPS_DERIV)
        worst = max(worst, diff.max_norm())
    return worst


def test_criterion_5_variation_of_normal():
    curves = [
        unit_circle(N),
        ellipse(N, 2.0, 1.0),
        random_fourier_curve(2, N, 6, 3.0),
        great_circle(N),
        latitude_circle(N, 0.8),
        latitude_circle(N, 0.6),
    ]
    worst = max(worst_variation_diff(c) for c in curves)
    report(5, worst <= 1e-3, f"normal variation closed vs numeric: worst {worst:.2e} (tol 1e-3)")


def test_criterion_6_torsion_free():
    plane_worst = 0.0
    for _, c in plane_curves(N):
        for a, b in trig_pairs(N):
            plane_worst = max(plane_worst, torsion_defect(c, normal_field(a), normal_field(b), EPS_DERIV))
    sphere_worst = 0.0
    for _, c in sphere_curves(N):
        for a, b in trig_pairs(N):
            sphere_worst = max(sphere_worst, torsion_defect(c, normal_field(a), normal_field(b), EPS_DERIV))
    ok = plane_worst <= 1e-3 and sphere_worst <= 1e-2
    report(
        6,
        ok,
        f"torsion defect: plane {plane_worst:.2e} (tol 1e-3), sphere {sphere_worst:.2e} (tol 1e-2)",
    )


def test_criterion_7_arc_integrability():
    start = time.monotonic()
    theta = theta_grid(N)
    cos1 = PeriodicScalarField(np.cos(theta))
    sin1 = PeriodicScalarField(np.sin(theta))
    cos3 = PeriodicScalarField(np.cos(3 * theta))

    flow_curves = [unit_circle(N), ellipse(N, 2.0, 1.0), random_fourier_curve(2, N, 6, 3.0)]
    leaf_worst = max(
        leaf_invariant(c, flow_arc(c, normal_field(cos1), 0.3, steps=100)) for c in flow_curves
    )

    frob_worst = max(
        frobenius_defect(unit_circle(N), normal_field(), normal_field(cos1), EPS_DERIV),
        frobenius_defect(ellipse(N, 2.0, 1.0), normal_field(cos1), normal_field(sin1), EPS_DERIV),
        frobenius_defect(random_fourier_curve(4, N, 6, 3.0), normal_field(), tangent_field(), EPS_DERIV),
    )

    control = leaf_invariant(
        unit_circle(N), flow_field(unit_circle(N), normal_field(cos3), 0.3, steps=100)
    )
    elapsed = time.monotonic() - start
    ok = leaf_worst <= 1e-5 and frob_worst <= 1e-3 and control >= 1e-2 and elapsed < 10.0
    report(
        7,
        ok,
        f"arc integrability: leaf {leaf_worst:.2e} (tol 1e-5), frobenius {frob_worst:.2e} (tol 1e-3), "
        f"unprojected control {control:.2e} (needs >= 1e-2), {elapsed:.1f}s",
    )


def test_criterion_8_convergence_order():
    errors = {}
    for n in (128, 256):
        c = unit_circle(n)
        errors[n] = (worst_bracket_diff(c), worst_variation_diff(c))
    bracket_ratio = errors[128][0] / errors[256][0]
    variation_ratio = errors[128][1] / errors[256][1]
    ok = bracket_ratio >= 8.0 and variation_ratio >= 8.0
    report(
        8,
        ok,
        f"error drop 128 -> 256: bracket {bracket_ratio:.1f}x, variation {variation_ratio:.1f}x (need >= 8x)",
    )


def vertical_bracket_drops(leak=0.0):
    """How much the bracket of tangent_field(cos) + leak * normal_field(sin 2θ)
    and tangent_field(sin 2θ) falls from n = 128 to n = 256, on the 1.5 x 0.7
    ellipse and latitude 0.6, and its size at n = 256."""
    out = {}
    curves = {"ellipse": lambda n: ellipse(n, 1.5, 0.7), "latitude": lambda n: latitude_circle(n, 0.6)}
    for name, make in curves.items():
        sizes = []
        for n in (128, 256):
            theta = theta_grid(n)
            a, b = PeriodicScalarField(np.cos(theta)), PeriodicScalarField(np.sin(2 * theta))
            x = tangent_field(a) + leak * normal_field(b) if leak else tangent_field(a)
            sizes.append(bracket_of_fields(x, tangent_field(b), make(n), EPS_BRACKET).max_norm())
        out[name] = (sizes[0] / sizes[1], sizes[1])
    return out


def test_criterion_9_vertical_bundle_is_integrable():
    # [a v, b v] = 0: the variation of the unit tangent is normal, so
    # D_{a v}(b v) = a b κ n is symmetric in a and b; what is measured is
    # stencil error, which falls fourth order
    drops = vertical_bracket_drops()
    ok = all(ratio >= 8.0 for ratio, _ in drops.values())
    report(
        9,
        ok,
        "vertical bracket drop 128 -> 256: "
        + ", ".join(f"{name} {ratio:.1f}x (to {size:.1e})" for name, (ratio, size) in drops.items())
        + " (need >= 8x)",
    )


def test_criterion_9_fails_a_field_with_a_normal_leak():
    # a v + 0.01 b n is not vertical: its bracket with b v keeps a normal
    # part of about 1e-2 at every grid
    drops = vertical_bracket_drops(leak=0.01)
    assert all(ratio < 8.0 and size > 1e-3 for ratio, size in drops.values()), drops
