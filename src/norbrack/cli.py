"""Command-line entry point running named verification suites.

Each suite exercises one family of checks over a configured curve and grid
and emits one JSON line per check: suite, case, grid size, metric, value,
tolerance, pass.  A record passes exactly when value <= tolerance, so every
metric is phrased as a defect or deficit.  Runs are deterministic for a
fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

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
    random_fourier_curve,
)
from .errors import BasisTooLarge, ConfigInvalid, GenerationFailed
from .fields import _CHUNK_BYTES, PeriodicScalarField, _check_modes, theta_grid, trig_basis

SUITES = ("bracket", "torsion", "variation", "spanning", "oneform", "arc")

_DEFAULT_EPS = {
    "bracket": 1e-5,
    "torsion": 1e-4,
    "variation": 1e-4,
    "arc": 1e-4,
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


def load_config(path) -> SuiteConfig:
    """Read a JSON configuration file into a SuiteConfig."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(SuiteConfig)}
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
    if cfg.suite in ("spanning", "arc") and cfg.ambient != PLANE:
        raise ConfigInvalid(f"the {cfg.suite} suite runs on plane curves only")
    if cfg.suite in ("bracket", "torsion", "spanning"):
        k = _modes(cfg)
        try:
            _check_modes(cfg.grid_n, k)
        except BasisTooLarge as exc:
            raise ConfigInvalid(f"modes={k}: {exc}") from exc
    need, setting = _working_set(cfg)
    if need > spanning.WORKING_SET_BUDGET:
        raise ConfigInvalid(
            f"{cfg.suite} at grid_n={cfg.grid_n}{setting} needs about {need / 2**20:.0f} MiB, "
            f"over the {spanning.WORKING_SET_BUDGET / 2**20:.0f} MiB budget"
        )
    return cfg


def _working_set(cfg: SuiteConfig) -> tuple[int, str]:
    """About the bytes a run of cfg holds at its peak, and the settings
    besides grid_n that the peak grows with, as the budget message names them.

    The arc and variation counts are curve-sized arrays (8 n bytes a
    coordinate): tracemalloc reads 31.7 to 32.8 a coordinate for arc (the
    workspaces of frobenius_defect's two projected fields included), and
    21 (plane) to 23 (sphere) for
    variation, at n = 1024 to 16384.  oneform counts
    arrays of n floats (39 to 46 read at n = 8192 to 65536), eight chunks of
    forms as _CHUNK_BYTES sizes them, and for each case the bytes held until
    the run ends: its 21 draws, made up front, the tuple of its outcome (64
    with its list slot), and its record (233 read at n = 64 and 1024).
    tracemalloc reads 361 to 458 a case in all at n = 64 to 1024.
    """
    n, dim = cfg.grid_n, 2 if cfg.ambient == PLANE else 3
    if cfg.suite == "spanning":
        k = _modes(cfg)
        return spanning.working_set_bytes(n, k), f", K={k}"
    if cfg.suite in ("bracket", "torsion"):
        k = _modes(cfg)
        return calculus._pairs_working_set_bytes(n, k, dim, cfg.suite), f", K={k}"
    if cfg.suite == "oneform":
        return 8 * n * 48 + 8 * _CHUNK_BYTES + (8 * 21 + 64 + 256) * cfg.cases, f", cases={cfg.cases}"
    return 8 * n * dim * 36, ""


def _modes(cfg: SuiteConfig) -> int:
    """The highest trig mode of a bracket, torsion or spanning run."""
    if cfg.modes is not None:
        return cfg.modes
    return cfg.grid_n // 2 if cfg.suite == "spanning" else 4


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
            seed_s, modes_s, decay_s = rest.split(",") if rest else (cfg.seed, 6, 3.0)
            seed, modes, decay = int(seed_s), int(modes_s), float(decay_s)
            # n nodes resolve n/2 modes, and each mode costs O(n) to draw
            if modes > cfg.grid_n // 2:
                raise ConfigInvalid(
                    f"fourier family has {modes} modes, but grid_n={cfg.grid_n} resolves at most {cfg.grid_n // 2}"
                )
            return random_fourier_curve(seed, cfg.grid_n, modes, decay)
        if kind == "file":
            if not rest:
                raise ConfigInvalid("file family needs a path: file:<path>")
            c = load_curve_csv(rest)
            # records, fields and validation all use the config's grid and ambient
            if c.grid_n != cfg.grid_n:
                raise ConfigInvalid(
                    f"curve file {rest!r} has {c.grid_n} nodes, but grid_n is {cfg.grid_n}"
                )
            if c.ambient != cfg.ambient:
                raise ConfigInvalid(
                    f"curve file {rest!r} is a {c.ambient} curve, but ambient is {cfg.ambient}"
                )
            return c
    except ConfigInvalid:
        raise
    except (ValueError, ArithmeticError, OSError, GenerationFailed) as exc:
        raise ConfigInvalid(f"cannot build curve family {cfg.family!r}: {exc}") from exc
    raise ConfigInvalid(f"unknown curve family {cfg.family!r}")


def _run_checks(cfg: SuiteConfig, checks) -> list[ReportRecord]:
    """One record per (case, metric, default tolerance, outcome) check, in order.

    The config's tolerance for the metric, where it sets one, replaces the
    default.  An outcome is the check's value, or the error that computing
    it raised (calculus._outcome), which makes a failed record: value inf
    and the error's type and message appended to the case.  Errors raised
    while drawing a check propagate.
    """
    records = []
    for case, metric, tolerance, outcome in checks:
        if isinstance(outcome, Exception):
            case, outcome = f"{case} [{type(outcome).__name__}: {outcome}]", np.inf
        value, tolerance = float(outcome), float(cfg.tolerances.get(metric, tolerance))
        records.append(ReportRecord(cfg.suite, case, cfg.grid_n, metric, value, tolerance, value <= tolerance))
    return records


def _trig_pair_checks(cfg: SuiteConfig, c: DiscreteImmersion, check, eps: float):
    """(case, outcome) for every trig basis pair i < j, in record order: the
    pair's value from the batched check, or the error the check raised for
    the pair."""
    max_mode = _modes(cfg)
    names = ["1"]
    for k in range(1, max_mode + 1):
        names += [f"cos{k}", f"sin{k}"]
    basis = trig_basis(c.grid_n, max_mode)
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    for (i, j), got in zip(pairs, calculus._pairwise(check, c, basis, pairs, eps)):
        yield f"{names[i]},{names[j]}", got


def _suite_bracket(cfg: SuiteConfig):
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["bracket"]
    tol = 1e-3 if cfg.ambient == PLANE else 1e-2
    # the numeric bracket also measures the normal leak; if a pair raised,
    # its leak is unknown and counts as infinite
    worst_leak = 0.0
    for case, got in _trig_pair_checks(cfg, c, calculus._NormalPairs.bracket, eps):
        value, leak = (got, np.inf) if isinstance(got, Exception) else got
        worst_leak = max(worst_leak, leak)
        yield case, "bracket_max_diff", tol, value
    yield "all pairs", "bracket_normal_leak", 1e-3, worst_leak


def _suite_torsion(cfg: SuiteConfig):
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["torsion"]
    tol = 1e-3 if cfg.ambient == PLANE else 1e-2
    for case, got in _trig_pair_checks(cfg, c, calculus._NormalPairs.torsion, eps):
        yield case, "torsion_defect", tol, got


def _suite_variation(cfg: SuiteConfig):
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["variation"]
    theta = theta_grid(c.grid_n)
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal(8) / 4.0
    wobble_v = PeriodicScalarField(
        coeffs[0] + coeffs[1] * np.cos(theta) + coeffs[2] * np.sin(2 * theta) + coeffs[3] * np.cos(3 * theta)
    )
    wobble_n = PeriodicScalarField(
        coeffs[4] + coeffs[5] * np.sin(theta) + coeffs[6] * np.cos(2 * theta) + coeffs[7] * np.sin(3 * theta)
    )
    # each deformation h is built from the frame (v, n) inside its check,
    # so a degenerate curve fails the checks instead of the run
    directions = {
        "h=n": lambda v, nrm: nrm,
        "h=cos*n": lambda v, nrm: nrm * PeriodicScalarField(np.cos(theta)),
        "h=v": lambda v, nrm: v,
        "h=random": lambda v, nrm: v * wobble_v + nrm * wobble_n,
    }
    plain_normal = calculus.normal_field()

    def compute(direction):
        h = direction(*frame(c))
        closed = calculus.variation_of_normal(c, h)
        numeric = calculus.directional_derivative(plain_normal, c, h, eps)
        return (closed - numeric).max_norm()

    for case, direction in directions.items():
        yield case, "variation_max_diff", 1e-3, calculus._outcome(functools.partial(compute, direction))


def _suite_spanning(cfg: SuiteConfig):
    c = make_curve(cfg)
    k = _modes(cfg)
    report = calculus._outcome(functools.partial(spanning.verify_spanning, c, k))
    if isinstance(report, Exception):
        yield f"K={k}", "rank_deficit", 0.0, report  # the one record says why
        return
    yield f"K={k}", "rank_deficit", 0.0, 2 * c.grid_n - report.rank
    sigma_ratio = report.sigma_max / report.sigma_min if report.sigma_min > 0 else np.inf
    yield f"K={k}", "sigma_max_over_min", 1.0 / spanning.DEFAULT_RANK_TOL, sigma_ratio
    yield f"K={k}", "normal_rank_deficit", 0.0, c.grid_n - report.normal_rank


def _banded_tables(n: int) -> np.ndarray:
    """The (21, n) table of a random form's basis: 1 on row 0, then
    cos(k theta) on rows 1::2 and sin(k theta) on rows 2::2, k = 1..10."""
    k_theta = np.arange(1, 11)[:, None] * theta_grid(n)
    table = np.ones((21, n))
    table[1::2] = np.cos(k_theta)
    table[2::2] = np.sin(k_theta)
    return table


def _banded_rows(draws: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One random form per row of draws: its coefficients times the rows of
    the table, added left to right.  einsum without optimize adds the
    products in that order and without FMA; BLAS (@, dot) reorders them."""
    return np.einsum("mk,kn->mn", draws, table, optimize=False)


def _rel_l2(err: np.ndarray, ref: np.ndarray) -> float:
    # np.linalg.norm's own path for a contiguous 1-D array, without its wrapper
    return float(np.sqrt(err.dot(err)) / max(np.sqrt(ref.dot(ref)), 1.0))


def _suite_oneform(cfg: SuiteConfig):
    n = cfg.grid_n
    table = _banded_tables(n)
    draws = np.random.default_rng(cfg.seed).standard_normal((cfg.cases, len(table)))

    def stage(s):
        # each form's reconstruction error and term count, bitwise as
        # decompose_oneform and reconstruct give them
        rows = _banded_rows(draws[s], table)
        recon, counts = oneforms._reconstruct_split(*oneforms._hodge_split(rows))
        return [(_rel_l2(err, want), count) for err, want, count in zip(recon - rows, rows, counts.tolist())]

    # the forms run as stacked chunks of rows; a chunk that raises runs
    # again form by form, and a form that still raises counts no terms
    most_terms = 0
    for idx, got in enumerate(calculus._by_chunks(stage, cfg.cases, 8 * n)):
        value, terms = (got, 0) if isinstance(got, Exception) else got
        most_terms = max(most_terms, terms)
        yield f"form{idx}", "oneform_rel_l2", 1e-4, value
    yield "all forms", "term_count", 8.0, most_terms

    theta = theta_grid(n)
    window = (np.pi / 4.0, 3.0 * np.pi / 4.0)
    localized = oneforms.OneFormSamples(
        oneforms._bump((theta - np.pi / 2.0) / (np.pi / 6.0)) * np.cos(theta)
    )

    def localized_values():
        # both checks read one decomposition; if a step raises, both records error
        dec = oneforms.decompose_supported(localized, window)
        offsets, length = oneforms._window_offsets(theta, *window)
        outside = ~((offsets > 0.0) & (offsets < length))
        worst = 0.0
        for _, a, b in dec.terms:
            worst = max(worst, np.abs(a.samples[outside]).max(), np.abs(b.samples[outside]).max())
        recon = oneforms.reconstruct(dec, n)
        return worst, _rel_l2(recon.samples - localized.samples, localized.samples)

    got = calculus._outcome(localized_values)
    outside, supported = (got, got) if isinstance(got, Exception) else got
    yield "localized form", "supported_outside_max", 0.0, outside
    yield "localized form", "supported_rel_l2", 1e-4, supported


def _suite_arc(cfg: SuiteConfig):
    c = make_curve(cfg)
    eps = cfg.eps or _DEFAULT_EPS["arc"]
    theta = theta_grid(cfg.grid_n)
    cos1 = PeriodicScalarField(np.cos(theta))
    sin1 = PeriodicScalarField(np.sin(theta))
    cos3 = PeriodicScalarField(np.cos(3 * theta))

    def leaf_invariant():
        return arclength.leaf_invariant(c, arclength.flow_arc(c, calculus.normal_field(cos1), 0.3))

    yield "flow cos*n, t=0.3", "leaf_invariant", 1e-5, calculus._outcome(leaf_invariant)
    pairs = [
        ("n,cos*n", calculus.normal_field(), calculus.normal_field(cos1)),
        ("cos*n,sin*n", calculus.normal_field(cos1), calculus.normal_field(sin1)),
        ("n,v", calculus.normal_field(), calculus.tangent_field()),
    ]
    for case, f1, f2 in pairs:
        defect = calculus._outcome(functools.partial(arclength.frobenius_defect, c, f1, f2, eps))
        yield case, "frobenius_defect", 1e-3, defect

    def negative_control():
        drifted = arclength.flow_field(c, calculus.normal_field(cos3), 0.3)
        return 1e-2 - arclength.leaf_invariant(c, drifted)

    yield "unprojected cos3*n control", "negative_control_slack", 0.0, calculus._outcome(negative_control)


_SUITE_CHECKS = {
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
    records = _run_checks(cfg, _SUITE_CHECKS[cfg.suite](cfg))
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
