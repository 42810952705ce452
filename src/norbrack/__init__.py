"""Numerical kernel for the geometry of normal deformations of discrete
closed curves: frames and curvature, directional calculus in the curve
variable, bracket identities, rank saturation of normal fields plus their
brackets, one-form decompositions, and arclength-uniform flows.
"""

from .errors import (
    BasisTooLarge,
    ConfigInvalid,
    GenerationFailed,
    GridMismatch,
    ImmersionDegenerate,
    NorbrackError,
    StepTooLarge,
    StepTooSmall,
    SupportViolation,
)
from .fields import (
    PeriodicScalarField,
    diff4,
    periodic_primitive,
    theta_grid,
    trig_basis,
)
from .curves import (
    PLANE,
    SPHERE,
    DiscreteImmersion,
    ImmersionTangent,
    TangentNormalSplit,
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
from .oneforms import (
    ABDecomposition,
    OneFormSamples,
    ab_form,
    decompose_oneform,
    decompose_supported,
    reconstruct,
)
from .calculus import (
    CurveField,
    bracket_closed_form,
    bracket_numeric,
    bracket_of_fields,
    constant_field,
    directional_derivative,
    flow_commutator,
    normal_field,
    tangent_field,
    torsion_defect,
    variation_of_normal,
)
from .spanning import (
    SpanReport,
    bracket_generators,
    normal_generators,
    synthesize_tangential,
    verify_spanning,
)
from .arclength import (
    ArcDefect,
    arc_defect,
    flow_arc,
    flow_field,
    flow_trajectory,
    frobenius_defect,
    leaf_invariant,
    project_to_arc,
    write_flow_frames,
)

__version__ = "0.1.0"

# The suite runner is loaded on first use, so that running the norbrack.cli
# module as a script does not find it imported already.
_CLI_NAMES = ("ReportRecord", "SuiteConfig", "emit_report", "run_suite")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
