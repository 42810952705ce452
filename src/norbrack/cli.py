"""Command-line entry point running named verification suites.

Each suite exercises one family of checks over a configured curve and grid
and emits one JSON line per check: suite, case, grid size, metric, value,
tolerance, pass.  A record passes exactly when value <= tolerance, so every
metric is phrased as a defect or deficit.  Runs are deterministic for a
fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import arclength, calculus, oneforms, spanning
from .curves import (
    PLANE,
    SPHERE,
    DiscreteImmersion,
    circle,
    ellipse,
    frame,
    great_circle,
    latitude_circle,
    load_curve_csv,
    pointwise_inner,
    random_fourier_curve,
)
from .errors import ConfigInvalid, NorbrackError
from .fields import PeriodicScalarField, theta_grid, trig_basis

SUITES = ("bracket", "torsion", "variation", "spanning", "oneform", "arc")

_DEFAULT_EPS = {
    "bracket": 1e-5,
    "torsion": 1e-4,
    "variation": 1e-4,
    "arc": 1e-4,
}

_CONFIG_KEYS = {
    "suite",
    "grid_n",
    "modes",
    "eps",
    "family",
    "ambient",
    "seed",
    "out",
    "cases",
    "tolerances",
}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    grid_n: int = 256
    modes: int | None = None
    eps: float | None = None
    family: str = "circle"
    ambient: str = PLANE
    seed: int = 0
    out: str | None = None
    cases: int = 20
    tolerances: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReportRecord:
    suite: str
    case: str
    grid_n: int
    metric: str
    value: float
    tolerance: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "case": self.case,
            "grid_n": self.grid_n,
            "metric": self.metric,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _record(cfg: SuiteConfig, case: str, metric: str, value: float, tolerance: float) -> ReportRecord:
    value = float(value)
    tolerance = float(tolerance)
    return ReportRecord(
        suite=cfg.suite,
        case=case,
        grid_n=cfg.grid_n,
        metric=metric,
        value=value,
        tolerance=tolerance,
        passed=bool(value <= tolerance),
    )


def load_config(path) -> SuiteConfig:
    """Read a JSON configuration file into a SuiteConfig."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    return SuiteConfig(suite=raw.get("suite", ""), **{k: v for k, v in raw.items() if k != "suite"})


def _is_int(value) -> bool:
    # bool is a subclass of int, but true/false in a config is a mistake
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def validate_config(cfg: SuiteConfig) -> SuiteConfig:
    if cfg.suite not in SUITES:
        raise ConfigInvalid(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITES)}")
    if not _is_int(cfg.grid_n) or cfg.grid_n < 8 or cfg.grid_n % 2 != 0:
        raise ConfigInvalid(f"grid_n must be an even integer >= 8, got {cfg.grid_n!r}")
    if cfg.ambient not in (PLANE, SPHERE):
        raise ConfigInvalid(f"ambient must be 'plane' or 'sphere', got {cfg.ambient!r}")
    if cfg.eps is not None and not (_is_finite_number(cfg.eps) and cfg.eps > 0.0):
        raise ConfigInvalid(f"eps must be a finite positive number, got {cfg.eps!r}")
    if cfg.modes is not None and (not _is_int(cfg.modes) or cfg.modes < 0):
        raise ConfigInvalid(f"modes must be a nonnegative integer, got {cfg.modes!r}")
    if not _is_int(cfg.cases) or cfg.cases < 1:
        raise ConfigInvalid(f"cases must be a positive integer, got {cfg.cases!r}")
    if not _is_int(cfg.seed) or cfg.seed < 0:
        raise ConfigInvalid(f"seed must be a nonnegative integer, got {cfg.seed!r}")
    if not isinstance(cfg.family, str):
        raise ConfigInvalid(f"family must be a string, got {cfg.family!r}")
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigInvalid(f"out must be a path string, got {cfg.out!r}")
    if not isinstance(cfg.tolerances, dict):
        raise ConfigInvalid("tolerances must be a mapping")
    for metric, value in cfg.tolerances.items():
        if not _is_finite_number(value):
            raise ConfigInvalid(f"tolerance for {metric!r} must be a finite number, got {value!r}")
    if cfg.suite == "spanning":
        if cfg.ambient != PLANE:
            raise ConfigInvalid("the spanning suite runs on plane curves only")
        k = _spanning_modes(cfg)
        need = spanning.working_set_bytes(cfg.grid_n, k)
        if need > spanning.WORKING_SET_BUDGET:
            raise ConfigInvalid(
                f"spanning at grid_n={cfg.grid_n}, K={k} needs about {need / 2**20:.0f} MiB, "
                f"over the {spanning.WORKING_SET_BUDGET / 2**20:.0f} MiB budget"
            )
    return cfg


def _spanning_modes(cfg: SuiteConfig) -> int:
    return cfg.modes if cfg.modes is not None else cfg.grid_n // 2


def make_curve(cfg: SuiteConfig) -> DiscreteImmersion:
    """Build the configured curve family on the configured grid."""
    kind, _, rest = cfg.family.partition(":")
    try:
        if kind == "circle":
            radius = float(rest) if rest else 1.0
            if cfg.ambient == SPHERE:
                return great_circle(cfg.grid_n) if not rest else latitude_circle(cfg.grid_n, radius)
            return circle(cfg.grid_n, radius)
        if kind == "ellipse":
            if cfg.ambient == SPHERE:
                raise ConfigInvalid("ellipse family is planar")
            a, b = (float(x) for x in rest.split(","))
            return ellipse(cfg.grid_n, a, b)
        if kind == "fourier":
            if cfg.ambient == SPHERE:
                raise ConfigInvalid("fourier family is planar")
            if rest:
                seed_s, modes_s, decay_s = rest.split(",")
                return random_fourier_curve(int(seed_s), cfg.grid_n, int(modes_s), float(decay_s))
            return random_fourier_curve(cfg.seed, cfg.grid_n, 6, 3.0)
        if kind == "file":
            if not rest:
                raise ConfigInvalid("file family needs a path: file:<path>")
            return load_curve_csv(rest)
    except ConfigInvalid:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigInvalid(f"cannot build curve family {cfg.family!r}: {exc}") from exc
    raise ConfigInvalid(f"unknown curve family {cfg.family!r}")


def _trig_pairs(n: int, max_mode: int):
    """Case names, the trig basis and its index pairs i < j, in record order."""
    names = ["1"]
    for k in range(1, max_mode + 1):
        names += [f"cos{k}", f"sin{k}"]
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    return [f"{names[i]},{names[j]}" for i, j in pairs], trig_basis(n, max_mode), pairs


def _tol(cfg: SuiteConfig, metric: str, default: float) -> float:
    return float(cfg.tolerances.get(metric, default))


def _ambient_tol(cfg: SuiteConfig, metric: str, plane_default: float, sphere_default: float) -> float:
    return _tol(cfg, metric, plane_default if cfg.ambient == PLANE else sphere_default)


def _guarded(records: list, cfg: SuiteConfig, case: str, metric: str, tolerance: float, compute) -> None:
    """Run one check; errors become failed records instead of crashes."""
    try:
        value = compute()
    except (NorbrackError, ValueError) as exc:
        records.append(_record(cfg, f"{case} [{type(exc).__name__}: {exc}]", metric, np.inf, tolerance))
        return
    records.append(_record(cfg, case, metric, value, tolerance))


def _suite_bracket(cfg: SuiteConfig) -> list[ReportRecord]:
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["bracket"]
    max_mode = cfg.modes if cfg.modes is not None else 4
    tol = _ambient_tol(cfg, "bracket_max_diff", 1e-3, 1e-2)
    records: list[ReportRecord] = []
    _, nrm = frame(c)
    leak = 0.0
    cases, basis, pairs = _trig_pairs(c.grid_n, max_mode)
    batched = calculus._pairwise(calculus._NormalPairs.bracket, c, basis, pairs, eps)
    for case, (i, j), got in zip(cases, pairs, batched):
        if got is not None:
            value, pair_leak = got
            records.append(_record(cfg, case, "bracket_max_diff", value, tol))
            leak = max(leak, pair_leak)
            continue
        # a check raised in this pair's chunk: the per-pair functions
        # reproduce the error, or the value, on their own
        numeric = None

        def compute(a=basis[i], b=basis[j]):
            nonlocal numeric
            numeric = calculus.bracket_numeric(c, a, b, eps)
            closed = calculus.bracket_closed_form(c, a, b)
            return (numeric - closed).max_norm()

        _guarded(records, cfg, case, "bracket_max_diff", tol, compute)
        # the numeric bracket also measures the normal leak; if it raised,
        # the leak is unknown and counts as infinite
        if numeric is None:
            leak = np.inf
        else:
            leak = max(leak, pointwise_inner(numeric, nrm).max_abs())
    records.append(_record(cfg, "all pairs", "bracket_normal_leak", leak, _tol(cfg, "bracket_normal_leak", 1e-3)))
    return records


def _suite_torsion(cfg: SuiteConfig) -> list[ReportRecord]:
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["torsion"]
    max_mode = cfg.modes if cfg.modes is not None else 4
    tol = _ambient_tol(cfg, "torsion_defect", 1e-3, 1e-2)
    records: list[ReportRecord] = []
    cases, basis, pairs = _trig_pairs(c.grid_n, max_mode)
    batched = calculus._pairwise(calculus._NormalPairs.torsion, c, basis, pairs, eps)
    for case, (i, j), got in zip(cases, pairs, batched):
        if got is not None:
            records.append(_record(cfg, case, "torsion_defect", got, tol))
            continue
        _guarded(
            records,
            cfg,
            case,
            "torsion_defect",
            tol,
            lambda a=basis[i], b=basis[j]: calculus.torsion_defect(
                c, calculus.normal_field(a), calculus.normal_field(b), eps
            ),
        )
    return records


def _variation_cases(c: DiscreteImmersion, seed: int):
    theta = theta_grid(c.grid_n)
    v, nrm = frame(c)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(8) / 4.0
    wobble_v = PeriodicScalarField(
        coeffs[0] + coeffs[1] * np.cos(theta) + coeffs[2] * np.sin(2 * theta) + coeffs[3] * np.cos(3 * theta)
    )
    wobble_n = PeriodicScalarField(
        coeffs[4] + coeffs[5] * np.sin(theta) + coeffs[6] * np.cos(2 * theta) + coeffs[7] * np.sin(3 * theta)
    )
    yield "h=n", nrm
    yield "h=cos*n", nrm * PeriodicScalarField(np.cos(theta))
    yield "h=v", v
    yield "h=random", v * wobble_v + nrm * wobble_n


def _suite_variation(cfg: SuiteConfig) -> list[ReportRecord]:
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["variation"]
    tol = _tol(cfg, "variation_max_diff", 1e-3)
    records: list[ReportRecord] = []
    plain_normal = calculus.normal_field()
    for case, h in _variation_cases(c, cfg.seed):
        def compute(h=h):
            closed = calculus.variation_of_normal(c, h)
            numeric = calculus.directional_derivative(plain_normal, c, h, eps)
            return (closed - numeric).max_norm()

        _guarded(records, cfg, case, "variation_max_diff", tol, compute)
    return records


def _suite_spanning(cfg: SuiteConfig) -> list[ReportRecord]:
    c = make_curve(cfg)
    k = _spanning_modes(cfg)
    records: list[ReportRecord] = []
    try:
        report = spanning.verify_spanning(c, k)
    except (NorbrackError, ValueError) as exc:
        records.append(_record(cfg, f"K={k} [{type(exc).__name__}: {exc}]", "rank_deficit", np.inf, 0.0))
        return records
    records.append(_record(cfg, f"K={k}", "rank_deficit", 2 * c.grid_n - report.rank, _tol(cfg, "rank_deficit", 0.0)))
    records.append(
        _record(
            cfg,
            f"K={k}",
            "sigma_max_over_min",
            report.sigma_max / report.sigma_min if report.sigma_min > 0 else np.inf,
            _tol(cfg, "sigma_max_over_min", 1.0 / spanning.DEFAULT_RANK_TOL),
        )
    )
    records.append(
        _record(cfg, f"K={k}", "normal_rank_deficit", c.grid_n - report.normal_rank, _tol(cfg, "normal_rank_deficit", 0.0))
    )
    return records


def _random_banded_form(rng, n: int, max_mode: int = 10) -> oneforms.OneFormSamples:
    theta = theta_grid(n)
    samples = np.full(n, rng.standard_normal())
    for k in range(1, max_mode + 1):
        ck, sk = rng.standard_normal(2)
        samples = samples + ck * np.cos(k * theta) + sk * np.sin(k * theta)
    return oneforms.OneFormSamples(samples)


def _rel_l2(err: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(err) / max(np.linalg.norm(ref), 1.0))


def _suite_oneform(cfg: SuiteConfig) -> list[ReportRecord]:
    n = cfg.grid_n
    rng = np.random.default_rng(cfg.seed)
    records: list[ReportRecord] = []
    tol = _tol(cfg, "oneform_rel_l2", 1e-4)
    worst_terms = 0
    for idx in range(cfg.cases):
        alpha = _random_banded_form(rng, n)

        def compute(alpha=alpha):
            nonlocal worst_terms
            dec = oneforms.decompose_oneform(alpha)
            worst_terms = max(worst_terms, len(dec))
            recon = oneforms.reconstruct(dec, n)
            return _rel_l2(recon.samples - alpha.samples, alpha.samples)

        _guarded(records, cfg, f"form{idx}", "oneform_rel_l2", tol, compute)
    records.append(_record(cfg, "all forms", "term_count", worst_terms, _tol(cfg, "term_count", 8.0)))

    theta = theta_grid(n)
    window = (np.pi / 4.0, 3.0 * np.pi / 4.0)
    localized = oneforms.OneFormSamples(
        oneforms._bump((theta - np.pi / 2.0) / (np.pi / 6.0)) * np.cos(theta)
    )

    # both checks read one decomposition; if it raises, both records error
    try:
        supported, failure = oneforms.decompose_supported(localized, window), None
    except (NorbrackError, ValueError) as exc:
        supported, failure = None, exc

    def decomposition():
        if failure is not None:
            raise failure
        return supported

    def compute_outside():
        dec = decomposition()
        offsets, length = oneforms._window_offsets(theta, *window)
        outside = ~((offsets > 0.0) & (offsets < length))
        worst = 0.0
        for _, a, b in dec.terms:
            worst = max(worst, np.abs(a.samples[outside]).max(), np.abs(b.samples[outside]).max())
        return worst

    def compute_supported():
        dec = decomposition()
        recon = oneforms.reconstruct(dec, n)
        return _rel_l2(recon.samples - localized.samples, localized.samples)

    _guarded(records, cfg, "localized form", "supported_outside_max", _tol(cfg, "supported_outside_max", 0.0), compute_outside)
    _guarded(records, cfg, "localized form", "supported_rel_l2", _tol(cfg, "supported_rel_l2", 1e-4), compute_supported)
    return records


def _suite_arc(cfg: SuiteConfig) -> list[ReportRecord]:
    if cfg.ambient != PLANE:
        raise ConfigInvalid("the arc suite runs on plane curves only")
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["arc"]
    n = cfg.grid_n
    theta = theta_grid(n)
    cos1 = PeriodicScalarField(np.cos(theta))
    sin1 = PeriodicScalarField(np.sin(theta))
    cos3 = PeriodicScalarField(np.cos(3 * theta))
    records: list[ReportRecord] = []

    _guarded(
        records,
        cfg,
        "flow cos*n, t=0.3",
        "leaf_invariant",
        _tol(cfg, "leaf_invariant", 1e-5),
        lambda: arclength.leaf_invariant(c, arclength.flow_arc(c, calculus.normal_field(cos1), 0.3)),
    )
    pairs = [
        ("n,cos*n", calculus.normal_field(), calculus.normal_field(cos1)),
        ("cos*n,sin*n", calculus.normal_field(cos1), calculus.normal_field(sin1)),
        ("n,v", calculus.normal_field(), calculus.tangent_field()),
    ]
    for case, f1, f2 in pairs:
        _guarded(
            records,
            cfg,
            case,
            "frobenius_defect",
            _tol(cfg, "frobenius_defect", 1e-3),
            lambda f1=f1, f2=f2: arclength.frobenius_defect(c, f1, f2, eps),
        )

    def negative_control():
        drifted = arclength.flow_field(c, calculus.normal_field(cos3), 0.3)
        return 1e-2 - arclength.leaf_invariant(c, drifted)

    _guarded(records, cfg, "unprojected cos3*n control", "negative_control_slack", _tol(cfg, "negative_control_slack", 0.0), negative_control)
    return records


_SUITE_RUNNERS = {
    "bracket": _suite_bracket,
    "torsion": _suite_torsion,
    "variation": _suite_variation,
    "spanning": _suite_spanning,
    "oneform": _suite_oneform,
    "arc": _suite_arc,
}


def run_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    """Run one suite and return its records (writing them if out is set)."""
    cfg = validate_config(cfg)
    records = _SUITE_RUNNERS[cfg.suite](cfg)
    if cfg.out:
        emit_report(records, cfg.out)
    return records


def emit_report(records, path) -> None:
    """Write records as JSON lines with a stable field order."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_obj()) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="norbrack",
        description="Run verification suites for normal-deformation geometry of discrete closed curves.",
    )
    parser.add_argument("suite", nargs="?", help="suite to run: " + ", ".join(SUITES))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="write the JSON-lines report here")
    parser.add_argument("--n", type=int, help="override the grid size")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--list", action="store_true", help="list available suites and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in SUITES:
            print(name)
        return 0
    if not args.suite:
        print("error: no suite given (see --list)", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config) if args.config else SuiteConfig(suite=args.suite)
        cfg = replace(cfg, suite=args.suite)
        if args.n is not None:
            cfg = replace(cfg, grid_n=args.n)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
    except (ConfigInvalid, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        records = run_suite(cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1

    if not cfg.out:
        for rec in records:
            print(json.dumps(rec.to_json_obj()))
    failed = sum(1 for rec in records if not rec.passed)
    print(f"{len(records)} checks, {failed} failed", file=sys.stderr)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
