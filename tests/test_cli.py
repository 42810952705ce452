"""Configuration handling, suite runs, report format, exit codes."""

import importlib.util
import inspect
import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import band_limited
import norbrack.cli as cli
import norbrack.curves as curves
from norbrack import calculus, oneforms
from norbrack.cli import (
    SUITES,
    ReportRecord,
    SuiteConfig,
    _run_checks,
    emit_report,
    load_config,
    main,
    make_curve,
    run_suite,
    validate_config,
)
from norbrack.curves import (
    PLANE,
    SPHERE,
    DiscreteImmersion,
    frame,
    pointwise_inner,
    random_fourier_curve,
    save_curve_csv,
    unit_circle,
)
from norbrack.errors import ConfigInvalid, NorbrackError, SupportViolation
from norbrack.fields import theta_grid, trig_basis
from norbrack.spanning import DEFAULT_RANK_TOL


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, suite="bracket", gird_n=64)
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(str(path))


def test_load_config_reads_fields(tmp_path):
    path = write_config(tmp_path, suite="torsion", grid_n=64, family="ellipse:2,1", seed=5)
    cfg = load_config(path)
    assert cfg.suite == "torsion"
    assert cfg.grid_n == 64
    assert cfg.family == "ellipse:2,1"
    assert cfg.seed == 5


@pytest.mark.parametrize(
    "bad",
    [
        dict(suite="nope"),
        dict(suite="bracket", grid_n=15),
        dict(suite="bracket", grid_n=4),
        dict(suite="bracket", eps=-1.0),
        dict(suite="bracket", cases=0),
        dict(suite="spanning", ambient="sphere"),
        dict(suite="bracket", grid_n=True),
        dict(suite="bracket", modes=True),
        dict(suite="oneform", cases=True),
        dict(suite="bracket", eps="1e-5"),
        dict(suite="bracket", eps=True),
        dict(suite="bracket", eps=float("inf")),
        dict(suite="bracket", tolerances={"bracket_max_diff": "1e-3"}),
        dict(suite="bracket", tolerances={"bracket_max_diff": False}),
        dict(suite="bracket", tolerances={"bracket_max_diff": float("inf")}),
        dict(suite="bracket", tolerances={"bracket_max_diff": float("nan")}),
        dict(suite="oneform", seed=-1),
        dict(suite="oneform", seed="x"),
        dict(suite="oneform", seed=True),
        dict(suite="bracket", family=3),
        dict(suite="bracket", out=5),
        dict(suite="bracket", grid_n=16, modes=9),
        dict(suite="torsion", grid_n=16, modes=9),
        dict(suite="spanning", grid_n=16, modes=9),
        dict(suite="arc", ambient="sphere"),
        # a suite name that is no string must not reach a lookup keyed by names
        dict(suite=["bracket"]),
    ],
)
def test_validate_config_rejections(bad, tmp_path, capsys):
    with pytest.raises(ConfigInvalid):
        validate_config(SuiteConfig(**bad))
    # the same config file makes the command line exit 2 with a message
    path = write_config(tmp_path, **bad)
    assert main([bad["suite"], "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_misspelled_tolerance_is_config_error(tmp_path, capsys):
    # a tolerance for a metric that no suite emits was ignored: this run
    # kept the default 1e-3 and exited 0
    path = write_config(tmp_path, suite="variation", grid_n=64, tolerances={"variation_max_dif": 1e-30})
    assert main(["variation", "--config", path]) == 2
    assert "config error: tolerance for unknown metric 'variation_max_dif'" in capsys.readouterr().err


def test_tolerances_name_exactly_the_metrics_the_suites_emit(tmp_path):
    emitted = {rec.metric for suite in SUITES for rec in run_suite(SuiteConfig(suite=suite, grid_n=16, cases=2))}
    assert emitted == cli.METRICS
    # one config file serves every suite, whichever suite's metrics it sets
    path = write_config(tmp_path, suite="bracket", grid_n=16, tolerances=dict.fromkeys(cli.METRICS, 1.0))
    for suite in SUITES:
        assert main([suite, "--config", path]) in (0, 1)


# Every default, pinned by value: a benchmark digest hashes each record's
# value and verdict but not its tolerance, and a config's eps and modes
# appear in no record.
@pytest.mark.parametrize(
    "suite, ambient, tolerances, explicit",
    [
        ("bracket", PLANE, {"bracket_max_diff": 1e-3, "bracket_normal_leak": 1e-3}, dict(eps=1e-5, modes=4)),
        ("bracket", SPHERE, {"bracket_max_diff": 1e-2, "bracket_normal_leak": 1e-3}, dict(eps=1e-5, modes=4)),
        ("torsion", PLANE, {"torsion_defect": 1e-3}, dict(eps=1e-4, modes=4)),
        ("torsion", SPHERE, {"torsion_defect": 1e-2}, dict(eps=1e-4, modes=4)),
        ("variation", PLANE, {"variation_max_diff": 1e-3}, dict(eps=1e-4)),
        ("variation", SPHERE, {"variation_max_diff": 1e-3}, dict(eps=1e-4)),
        (
            "spanning",
            PLANE,
            {"rank_deficit": 0.0, "sigma_max_over_min": 1.0 / DEFAULT_RANK_TOL, "normal_rank_deficit": 0.0},
            dict(modes=8),
        ),
        (
            "oneform",
            PLANE,
            {"oneform_rel_l2": 1e-4, "term_count": 8.0, "supported_outside_max": 0.0, "supported_rel_l2": 1e-4},
            {},
        ),
        (
            "oneform",
            SPHERE,
            {"oneform_rel_l2": 1e-4, "term_count": 8.0, "supported_outside_max": 0.0, "supported_rel_l2": 1e-4},
            {},
        ),
        (
            "arc",
            PLANE,
            {"leaf_invariant": 1e-5, "frobenius_defect": 1e-3, "negative_control_slack": 0.0},
            dict(eps=1e-4),
        ),
    ],
)
def test_suite_defaults_are_pinned(suite, ambient, tolerances, explicit):
    cfg = SuiteConfig(suite=suite, grid_n=16, cases=2, ambient=ambient)
    records = run_suite(cfg)
    assert {(rec.metric, rec.tolerance) for rec in records} == set(tolerances.items())
    # the default eps and modes give the records that the same values set explicitly give
    if explicit:
        assert run_suite(replace(cfg, **explicit)) == records


def test_readme_table_of_suite_defaults_is_the_suite_table():
    grids = (16, 256)
    want = []
    for name, suite in cli._SUITES.items():
        for metric, tol in suite.tolerances.items():
            plane, sphere = tol if isinstance(tol, tuple) else (tol, tol)
            modes = None if suite.modes is None else tuple(suite.modes(n) for n in grids)
            tolerances = (plane,) if suite.plane_only else (plane, sphere)
            want.append((name, metric, tolerances, suite.eps, modes, suite.plane_only))
    got = []
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if not line.startswith("| `"):
            continue
        name, metric, tolerances, eps, modes, plane_only = (cell.strip(" `") for cell in line.strip("|").split("|"))
        modes = None if modes == "-" else tuple(n // 2 if modes == "n/2" else int(modes) for n in grids)
        tolerances = tuple(float(tol) for tol in tolerances.split(" / "))
        got.append((name, metric, tolerances, None if eps == "-" else float(eps), modes, plane_only == "yes"))
    assert got == want


def test_make_curve_families():
    cfg = SuiteConfig(suite="bracket", grid_n=64, family="fourier:3,5,2.5")
    assert np.array_equal(make_curve(cfg).points, random_fourier_curve(3, 64, 5, 2.5).points)
    cfg = SuiteConfig(suite="bracket", grid_n=64, family="circle:2.0")
    assert np.allclose(np.linalg.norm(make_curve(cfg).points, axis=1), 2.0)
    with pytest.raises(ConfigInvalid):
        make_curve(SuiteConfig(suite="bracket", family="helix"))
    with pytest.raises(ConfigInvalid):
        make_curve(SuiteConfig(suite="bracket", family="ellipse:2"))


def test_make_curve_from_file(tmp_path):
    c = random_fourier_curve(9, 64, 4, 2.5)
    path = str(tmp_path / "curve.csv")
    save_curve_csv(c, path)
    cfg = SuiteConfig(suite="bracket", grid_n=64, family=f"file:{path}")
    assert np.array_equal(make_curve(cfg).points, c.points)


@pytest.mark.parametrize(
    "family, message",
    [
        # a nan decay never reaches the speed floor, and GenerationFailed
        # used to end the run with a traceback
        ("fourier:1,6,nan", "cannot build curve family 'fourier:1,6,nan': no immersed curve"),
        # a decay this negative overflows the coefficient scale 6**400
        ("fourier:1,6,-400", "cannot build curve family 'fourier:1,6,-400': "),
        # drawing the modes takes O(n) work each: this ran unbounded
        ("fourier:1,50000000,3", "fourier family has 50000000 modes, but grid_n=256 resolves at most 128"),
    ],
)
def test_bad_fourier_family_is_config_error(family, message, tmp_path, capsys):
    path = write_config(tmp_path, suite="bracket", family=family)
    assert main(["bracket", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_fourier_family_admits_modes_up_to_half_the_grid():
    cfg = SuiteConfig(suite="bracket", grid_n=16, family="fourier:1,8,3.0")
    assert np.array_equal(make_curve(cfg).points, random_fourier_curve(1, 16, 8, 3.0).points)


@pytest.mark.parametrize("suite", ["arc", "spanning", "bracket", "torsion", "variation"])
def test_curve_file_on_another_grid_is_config_error(suite, tmp_path, capsys):
    # a 16-node file under grid_n 64 used to run on the file's grid while its
    # records said 64: arc errored 4 of 5 checks with GridMismatch, spanning
    # wrote a BasisTooLarge record, bracket reported grid_n 64 silently
    curve = str(tmp_path / "c16.csv")
    save_curve_csv(curves.circle(16), curve)
    path = write_config(tmp_path, suite=suite, grid_n=64, family=f"file:{curve}")
    assert main([suite, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has 16 nodes, but grid_n is 64" in captured.err
    with pytest.raises(ConfigInvalid, match="16 nodes.*grid_n is 64"):
        make_curve(SuiteConfig(suite=suite, grid_n=64, family=f"file:{curve}"))


@pytest.mark.parametrize("suite", ["arc", "spanning"])
def test_curve_file_on_another_ambient_is_config_error(suite, tmp_path, capsys):
    # a great-circle file under the default plane config used to run anyway:
    # arc errored 2 checks next to 3 passing ones, spanning errored its
    # rank_deficit record, each with exit 1
    curve = str(tmp_path / "great.csv")
    save_curve_csv(curves.great_circle(64), curve)
    path = write_config(tmp_path, suite=suite, grid_n=64, family=f"file:{curve}")
    assert main([suite, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is a sphere curve, but ambient is plane" in captured.err
    with pytest.raises(ConfigInvalid, match="sphere curve.*ambient is plane"):
        make_curve(SuiteConfig(suite=suite, grid_n=64, family=f"file:{curve}"))


@pytest.mark.parametrize(
    "header, message",
    [
        ("ambient=plane n=16", "expected 16 points, found more"),
        ("ambient=plane n=200000", "has 200000 nodes, but grid_n is 16"),
        ("ambient=sphere n=16", "is a sphere curve, but ambient is plane"),
    ],
)
def test_oversized_curve_file_is_refused_before_its_rows_are_read(header, message, tmp_path):
    # every file was read whole before its header or row count was compared:
    # tracemalloc read 27.5 MiB under the n=16 header and 36.6 MiB under n=200000
    curve = tmp_path / "long.csv"
    curve.write_text(f"# {header}\n" + "1.0,0.0\n" * 200_000)
    cfg = SuiteConfig(suite="bracket", grid_n=16, family=f"file:{curve}")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigInvalid) as refused:
            make_curve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert message in str(refused.value)


def test_public_functions_of_cli_are_the_traced_set():
    # the benchmark's tracer wraps every public function of cli, so a new
    # public helper would add spans to every traced pass
    public = {
        name
        for name, obj in vars(cli).items()
        if inspect.isfunction(obj) and obj.__module__ == cli.__name__ and not name.startswith("_")
    }
    assert public == {"build_parser", "emit_report", "load_config", "main", "make_curve", "run_suite", "validate_config"}


def test_list_exits_clean(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "bracket" in out and "oneform" in out


def test_no_suite_is_usage_error():
    assert main([]) == 2


def test_odd_grid_is_config_error():
    assert main(["bracket", "--n", "15"]) == 2


def test_sphere_arc_suite_is_config_error(tmp_path):
    path = write_config(tmp_path, suite="arc", ambient="sphere")
    assert main(["arc", "--config", path]) == 2


def test_bracket_suite_on_circle_passes(capsys):
    assert main(["bracket"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(rec["pass"] for rec in records)
    # 36 trig pairs plus the aggregated normal-leak record
    assert len(records) == 37


def test_spanning_suite_default_modes_pass(capsys):
    assert main(["spanning", "--n", "16"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    by_metric = {rec["metric"]: rec for rec in records}
    assert by_metric["rank_deficit"]["value"] == 0.0
    assert by_metric["normal_rank_deficit"]["value"] == 0.0
    assert by_metric["sigma_max_over_min"]["value"] <= 1e8


def test_spanning_suite_one_mode_short_fails(tmp_path):
    # the Nyquist normal direction is out of reach at K = n/2 - 1, and the
    # CLI reports that honestly
    path = write_config(tmp_path, suite="spanning", grid_n=16, modes=7)
    out = str(tmp_path / "report.jsonl")
    assert main(["spanning", "--config", path, "--out", out]) == 1
    records = [json.loads(line) for line in open(out)]
    by_metric = {rec["metric"]: rec for rec in records}
    assert by_metric["rank_deficit"]["value"] == 1.0
    assert not by_metric["rank_deficit"]["pass"]


def test_oversized_spanning_grid_is_config_error_before_any_work(monkeypatch, capsys):
    # the default K = n/2 at n = 65536 would need tens of GiB; the guard must
    # refuse it at validation, before a curve or a generator is built
    def never(*args, **kwargs):
        raise AssertionError("spanning work started")

    monkeypatch.setattr(cli, "make_curve", never)
    monkeypatch.setattr(cli.spanning, "verify_spanning", never)
    assert main(["spanning", "--n", "65536"]) == 2
    assert "config error" in capsys.readouterr().err


def test_spanning_budget_follows_the_modes():
    # the bracket block is sized by the 4K + 1 coordinates that K modes reach,
    # so K = 3 fits on the grid where the default K = n/2 is refused (above)
    cfg = SuiteConfig(suite="spanning", grid_n=65536, modes=3)
    assert validate_config(cfg) is cfg


def test_default_spanning_grid_is_within_budget():
    assert validate_config(SuiteConfig(suite="spanning", grid_n=1024)).grid_n == 1024


@pytest.mark.parametrize("suite", ["bracket", "torsion"])
def test_oversized_pair_basis_is_config_error_before_any_work(tmp_path, monkeypatch, capsys, suite):
    # 4097 trig functions on 4096 nodes: the stacks of perturbed curves alone
    # would hold 1.4 GiB, and 8.4 million pairs would follow
    def never(*args, **kwargs):
        raise AssertionError("pair work started")

    monkeypatch.setattr(cli, "make_curve", never)
    path = write_config(tmp_path, suite=suite, grid_n=4096, modes=2048)
    assert main([suite, "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {suite} at grid_n=4096, K=2048 needs about" in err and "budget" in err


@pytest.mark.parametrize("suite", ["bracket", "torsion"])
@pytest.mark.parametrize("grid_n", [256, 512])
@pytest.mark.parametrize("ambient", [PLANE, SPHERE])
def test_default_and_benchmark_pair_configs_are_within_budget(suite, grid_n, ambient):
    cfg = SuiteConfig(suite=suite, grid_n=grid_n, ambient=ambient)
    assert validate_config(cfg) is cfg


def test_bracket_is_not_charged_for_torsion_first_legs():
    # about 741 MiB for bracket and 1192 MiB for torsion: the bracket run was
    # refused while both suites were charged torsion's first-leg stacks
    fields = {"grid_n": 4096, "modes": 600, "ambient": SPHERE}
    assert cli._working_set(SuiteConfig(suite="torsion", **fields))[0] > cli._WORKING_SET_BUDGET
    cfg = SuiteConfig(suite="bracket", **fields)
    assert validate_config(cfg) is cfg
    with pytest.raises(ConfigInvalid, match="torsion at grid_n=4096, K=600 needs about 1192 MiB"):
        validate_config(SuiteConfig(suite="torsion", **fields))


@pytest.mark.parametrize("suite", ["oneform", "arc", "variation"])
def test_oversized_grid_is_config_error_before_any_work(monkeypatch, capsys, suite):
    # one array of 2**34 nodes alone is 128 GiB
    def never(*args, **kwargs):
        raise AssertionError("suite work started")

    monkeypatch.setattr(cli, "make_curve", never)
    monkeypatch.setattr(cli, "_banded_tables", never)
    assert main([suite, "--n", "17179869184"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {suite} at grid_n=17179869184" in err and "budget" in err


def test_oneform_case_count_is_bounded(tmp_path, monkeypatch, capsys):
    # each case keeps its record until the run ends
    def never(*args, **kwargs):
        raise AssertionError("oneform work started")

    monkeypatch.setattr(cli, "_banded_tables", never)
    path = write_config(tmp_path, suite="oneform", cases=10**8)
    assert main(["oneform", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error: oneform at grid_n=256, cases=100000000 needs about" in err and "budget" in err


def _benchmark_configs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cfg for name in workloads.WORKLOADS for cfg in workloads.configs(name, workloads.CONFIRM_SEED)]


def test_default_and_benchmark_configs_are_within_budget():
    configs = [SuiteConfig(suite=suite) for suite in SUITES]
    configs += [SuiteConfig(**fields) for fields in _benchmark_configs()]
    assert {cfg.suite for cfg in configs} == set(SUITES)
    for cfg in configs:
        assert validate_config(cfg) is cfg


# Each suite's working-set estimate on one or more configs, with the settings
# its budget message names; a change to an estimate must show here.
@pytest.mark.parametrize(
    "fields, need, setting",
    [
        ({"suite": "bracket"}, 1_145_856, ", K=4"),
        ({"suite": "torsion"}, 1_293_312, ", K=4"),
        ({"suite": "bracket", "ambient": SPHERE, "grid_n": 1024, "modes": 32}, 9_699_328, ", K=32"),
        ({"suite": "torsion", "ambient": SPHERE, "grid_n": 4096, "modes": 4}, 10_331_136, ", K=4"),
        ({"suite": "torsion", "ambient": SPHERE, "grid_n": 4096, "modes": 600}, 1_249_400_832, ", K=600"),
        ({"suite": "bracket", "ambient": SPHERE, "grid_n": 4096, "modes": 600}, 777_148_416, ", K=600"),
        ({"suite": "variation"}, 147_456, ""),
        ({"suite": "variation", "ambient": SPHERE, "grid_n": 4096}, 3_538_944, ""),
        ({"suite": "arc"}, 147_456, ""),
        ({"suite": "arc", "grid_n": 4096}, 2_359_296, ""),
        ({"suite": "oneform"}, 697_888, ", cases=20"),
        ({"suite": "oneform", "grid_n": 64, "cases": 4000}, 2_566_400, ", cases=4000"),
        ({"suite": "spanning"}, 10_526_720, ", K=128"),
        ({"suite": "spanning", "grid_n": 65536, "modes": 3}, 10_496_544, ", K=3"),
        ({"suite": "spanning", "grid_n": 512, "modes": 256}, 16_859_136, ", K=256"),
    ],
)
def test_working_set_estimates_are_pinned(fields, need, setting):
    assert cli._working_set(SuiteConfig(**fields)) == (need, setting)


# The pair configs hold many pairs on a small grid, or few pairs on grids
# where a chunk is one curve.  Warm, tracemalloc reads 0.67 (bracket) and
# 0.82 (torsion) of the estimate at n = 64, K = 16, 0.81 for bracket in the
# plane at n = 8192, and 0.93-0.94 on the sphere at n = 1024 and 4096.
@pytest.mark.parametrize(
    "fields",
    [
        {"suite": "bracket", "ambient": SPHERE, "grid_n": 64, "modes": 16},
        {"suite": "torsion", "grid_n": 64, "modes": 16},
        {"suite": "bracket", "grid_n": 8192, "modes": 2},
        {"suite": "torsion", "ambient": SPHERE, "grid_n": 4096, "modes": 4},
        {"suite": "bracket", "ambient": SPHERE, "grid_n": 1024, "modes": 32},
        {"suite": "oneform", "grid_n": 8192, "cases": 1},
        {"suite": "oneform", "grid_n": 64, "cases": 4000},
        {"suite": "variation", "grid_n": 16384},
        {"suite": "variation", "grid_n": 4096, "ambient": SPHERE},
        {"suite": "arc", "grid_n": 4096},
        {"suite": "spanning", "grid_n": 65536, "modes": 3},
    ],
)
def test_working_set_estimate_bounds_the_traced_peak(fields):
    cfg = SuiteConfig(**fields)
    run_suite(cfg)  # a warm run: one-time imports and caches do not count
    tracemalloc.start()
    try:
        run_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, _ = cli._working_set(cfg)
    assert need / 2 < peak <= need


def test_flags_override_config(tmp_path):
    path = write_config(tmp_path, suite="spanning", grid_n=32)
    out = str(tmp_path / "report.jsonl")
    assert main(["spanning", "--config", path, "--n", "16", "--out", out]) == 0
    records = [json.loads(line) for line in open(out)]
    assert all(rec["grid_n"] == 16 for rec in records)


def test_reports_are_deterministic(tmp_path):
    out1 = str(tmp_path / "a.jsonl")
    out2 = str(tmp_path / "b.jsonl")
    assert main(["variation", "--n", "64", "--seed", "3", "--out", out1]) == 0
    assert main(["variation", "--n", "64", "--seed", "3", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert len(open(out1).readlines()) == 4


def test_emit_report_empty_and_small(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    emit_report([], path)
    assert open(path).read() == ""

    records = [
        ReportRecord("arc", f"case{i}", 64, "metric", float(i), 2.0, i <= 2) for i in range(3)
    ]
    emit_report(records, path)
    lines = open(path).read().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0], object_pairs_hook=list)
    assert [k for k, _ in first] == ["suite", "case", "grid_n", "metric", "value", "tolerance", "pass"]


def test_run_suite_records_failures_not_crashes():
    # eps = 10 exceeds a tenth of the circle's speed, so every check raises
    # StepTooLarge, and each becomes a failed record
    cfg = validate_config(SuiteConfig(suite="torsion", grid_n=8, eps=10.0))
    records = run_suite(cfg)
    assert records and all(not rec.passed for rec in records)
    assert all(np.isinf(rec.value) for rec in records)
    assert "StepTooLarge" in records[0].case


@pytest.mark.parametrize(
    "suite, checks", [("bracket", 36), ("torsion", 36), ("variation", 4), ("arc", 5), ("spanning", 1)]
)
def test_degenerate_curve_file_fails_every_check_without_traceback(suite, checks, tmp_path):
    # 16 equal points make a valid curve file, but the curve never moves, so
    # its frame and speed raise ImmersionDegenerate
    curve = str(tmp_path / "flat.csv")
    save_curve_csv(DiscreteImmersion(np.tile([1.0, 0.0], (16, 1))), curve)
    path = write_config(tmp_path, suite=suite, grid_n=16, family=f"file:{curve}")
    proc = subprocess.run(
        [sys.executable, "-m", "norbrack", suite, "--config", path], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    if suite == "bracket":
        # no pair measured its normal leak, so the aggregate reads inf
        leak = records.pop()
        assert (leak["case"], leak["metric"], leak["value"]) == ("all pairs", "bracket_normal_leak", np.inf)
    assert len(records) == checks
    assert all("ImmersionDegenerate" in rec["case"] and rec["value"] == np.inf for rec in records)


def test_run_checks_guards_and_records_in_order():
    cfg = SuiteConfig(suite="arc", grid_n=16, tolerances={"negative_control_slack": 5.0})

    def bad_sample():
        raise ValueError("bad sample")

    error = calculus._outcome(bad_sample)
    assert isinstance(error, ValueError) and error.__traceback__ is None
    # the defaults come from the suite's table entry, the config's tolerance overrides its metric's
    checks = [("a", "leaf_invariant", 1e-6), ("b", "frobenius_defect", error), ("c", "negative_control_slack", 2.0)]
    records = _run_checks(cfg, iter(checks))
    assert [(rec.suite, rec.grid_n) for rec in records] == [("arc", 16)] * 3
    assert [(rec.case, rec.metric, rec.value, rec.tolerance, rec.passed) for rec in records] == [
        ("a", "leaf_invariant", 1e-6, 1e-5, True),
        ("b [ValueError: bad sample]", "frobenius_defect", np.inf, 1e-3, False),
        ("c", "negative_control_slack", 2.0, 5.0, True),
    ]
    assert calculus._outcome(lambda: 3.0) == 3.0

    def lookup():
        return {}["missing"]

    # only package errors and ValueErrors become outcomes
    with pytest.raises(KeyError):
        calculus._outcome(lookup)


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "norbrack.cli", "--list"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "bracket" in proc.stdout


def test_module_invocation_raises_no_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "norbrack.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def per_pair_records(suite, c, modes, eps):
    """(case, value) of a bracket or torsion run, from the per-pair functions."""
    names = ["1"] + [f"{kind}{k}" for k in range(1, modes + 1) for kind in ("cos", "sin")]
    basis = trig_basis(c.grid_n, modes)
    _, nrm = frame(c)
    out, leak = [], 0.0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            case, a, b = f"{names[i]},{names[j]}", basis[i], basis[j]
            numeric = None
            try:
                if suite == "bracket":
                    numeric = calculus.bracket_numeric(c, a, b, eps)
                    value = (numeric - calculus.bracket_closed_form(c, a, b)).max_norm()
                else:
                    value = calculus.torsion_defect(c, calculus.normal_field(a), calculus.normal_field(b), eps)
            except (NorbrackError, ValueError) as exc:
                case, value = f"{case} [{type(exc).__name__}: {exc}]", np.inf
            out.append((case, value))
            if suite == "bracket":
                leak = np.inf if numeric is None else max(leak, pointwise_inner(numeric, nrm).max_abs())
    if suite == "bracket":
        out.append(("all pairs", leak))
    return out


def test_bracket_suite_without_pairs_reports_zero_leak():
    records = run_suite(SuiteConfig(suite="bracket", grid_n=64, modes=0))
    assert [(rec.case, rec.metric, rec.value) for rec in records] == [("all pairs", "bracket_normal_leak", 0.0)]


@pytest.mark.parametrize("suite", ["bracket", "torsion"])
def test_step_too_large_records_match_per_pair_functions(suite):
    cfg = SuiteConfig(suite=suite, grid_n=64, eps=0.5)
    records = run_suite(cfg)
    assert [(rec.case, rec.value) for rec in records] == per_pair_records(suite, make_curve(cfg), 4, 0.5)
    assert all("StepTooLarge" in rec.case for rec in records if rec.metric != "bracket_normal_leak")
    assert all(not rec.passed for rec in records)


@pytest.mark.parametrize("family", ["circle", "ellipse:1.5,0.7"])
@pytest.mark.parametrize("eps", [1e-20, 1e-300])
@pytest.mark.parametrize(
    "suite, metric", [("arc", "frobenius_defect"), ("variation", "variation_max_diff"), ("torsion", "torsion_defect")]
)
def test_a_step_lost_to_rounding_errors_every_difference_record(suite, metric, eps, family):
    # c + eps X rounds to c at these steps, and the difference quotients of
    # the unmoved curves read an exact 0: before StepTooSmall, every arc
    # frobenius_defect record and the variation h=n record passed with value
    # 0.0 here, and so did every torsion record at 1e-20 (at 1e-300 its
    # eps^2 division gave a ValueError)
    records = [rec for rec in run_suite(SuiteConfig(suite=suite, family=family, eps=eps)) if rec.metric == metric]
    assert records
    assert all("StepTooSmall" in rec.case and np.isinf(rec.value) and not rec.passed for rec in records)


@pytest.mark.parametrize("suite", ["bracket", "torsion"])
def test_step_too_small_records_match_per_pair_functions(suite):
    cfg = SuiteConfig(suite=suite, grid_n=64, eps=1e-20)
    records = run_suite(cfg)
    assert [(rec.case, rec.value) for rec in records] == per_pair_records(suite, make_curve(cfg), 4, 1e-20)
    assert all("StepTooSmall" in rec.case for rec in records if rec.metric != "bracket_normal_leak")


# The 1.5 x 0.7 ellipse at n = 64 has minimum speed 0.6999978.  Normal
# perturbations at bracket's eps = 1e-5 pinch it to 0.699979 where the
# coefficient is 1 at theta = 0 (the constant and the cosines), and the flow
# loops of torsion's eps = 1e-4 pinch it below 0.6996 for some pairs only.
@pytest.mark.parametrize("suite, floor, eps", [("bracket", 0.69998, 1e-5), ("torsion", 0.6996, 1e-4)])
def test_pinched_pairs_match_per_pair_functions(suite, floor, eps, monkeypatch):
    cfg = SuiteConfig(suite=suite, grid_n=64, family="ellipse:1.5,0.7")
    c = make_curve(cfg)
    monkeypatch.setattr(curves, "SPEED_FLOOR", floor)
    # two pairs a chunk, so that torsion has chunks on both paths
    monkeypatch.setattr(calculus, "_CHUNK_BYTES", 2 * c.points.nbytes)
    records = run_suite(cfg)
    assert [(rec.case, rec.value) for rec in records] == per_pair_records(suite, c, 4, eps)
    errored = [rec for rec in records if "ImmersionDegenerate" in rec.case]
    assert 0 < len(errored) < 36
    if suite == "bracket":
        assert records[-1].metric == "bracket_normal_leak" and records[-1].value == np.inf
    else:
        basis = trig_basis(64, 4)
        pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
        batched = calculus._pairwise(calculus._NormalPairs.torsion, c, basis, pairs, 1e-4)
        assert sum(isinstance(got, Exception) for got in batched) == len(errored)


# At torsion's eps = 1e-4 on the same ellipse, the first flow leg of the
# constant function slows the curve to 0.699783943341 and its perturbed
# curves to 0.69978394353 at the least; a floor between the two pinches that
# leg and no perturbed curve.  The later legs pinch 10 more pairs.
def test_pinched_first_legs_match_per_pair_functions(monkeypatch):
    cfg = SuiteConfig(suite="torsion", grid_n=64, family="ellipse:1.5,0.7")
    c = make_curve(cfg)
    monkeypatch.setattr(curves, "SPEED_FLOOR", 0.6997839434)
    monkeypatch.setattr(calculus, "_CHUNK_BYTES", 2 * c.points.nbytes)
    basis = trig_basis(64, 4)
    legs = calculus._NormalPairs(c, basis, 1e-4)._first_legs
    errors = [[exc and f"{type(exc).__name__}: {exc}" for exc in errors] for _, _, errors in legs.values()]
    pinched = "ImmersionDegenerate: minimum speed 6.998e-01 at or below 7e-01"
    assert errors == [[pinched] + [None] * 8, [None] * 9]  # steps +eps and -eps
    records = run_suite(cfg)
    assert [(rec.case, rec.value) for rec in records] == per_pair_records("torsion", c, 4, 1e-4)
    errored = [rec.case for rec in records if "ImmersionDegenerate" in rec.case]
    assert all(any(case.startswith(f"1,{name} ") for case in errored) for name in ("cos1", "sin2", "sin4"))
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    batched = calculus._pairwise(calculus._NormalPairs.torsion, c, basis, pairs, 1e-4)
    assert sum(isinstance(got, Exception) for got in batched) == len(errored)


# the configs of the two tests above; the records at the floor that pinches
# only the constant's first leg are checked against the per-pair functions too
@pytest.mark.parametrize(
    "suite, floor, eps", [("bracket", 0.69998, 1e-5), ("torsion", 0.6996, 1e-4), ("torsion", 0.6997839434, 1e-4)]
)
def test_no_suite_record_comes_from_the_per_pair_functions(suite, floor, eps, monkeypatch):
    cfg = SuiteConfig(suite=suite, grid_n=64, family="ellipse:1.5,0.7")
    c = make_curve(cfg)
    monkeypatch.setattr(curves, "SPEED_FLOOR", floor)
    monkeypatch.setattr(calculus, "_CHUNK_BYTES", 2 * c.points.nbytes)
    want = per_pair_records(suite, c, 4, eps)

    def never(*args, **kwargs):
        raise AssertionError("a per-pair function ran")

    for name in ("bracket_numeric", "bracket_closed_form", "torsion_defect"):
        monkeypatch.setattr(calculus, name, never)
    assert [(rec.case, rec.value) for rec in run_suite(cfg)] == want


# The pinched ellipse at n = 256, K = 24, where 900 of bracket's and 300 of
# torsion's 1176 pair records error.  Each errored pair holds its error;
# stored with its traceback, or chained to the error of its chunk, an error
# kept that chunk's frames and arrays alive: tracemalloc read 5.5 MiB for
# bracket and 21.2 MiB for torsion.
@pytest.mark.parametrize("suite, floor, count", [("bracket", 0.69998, 900), ("torsion", 0.6996, 300)])
def test_stored_pair_errors_keep_no_arrays_alive(suite, floor, count, monkeypatch):
    cfg = SuiteConfig(suite=suite, grid_n=256, modes=24, family="ellipse:1.5,0.7")
    monkeypatch.setattr(curves, "SPEED_FLOOR", floor)
    tracemalloc.start()
    try:
        records = run_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum("ImmersionDegenerate" in rec.case for rec in records) == count
    assert peak <= cli._working_set(cfg)[0]


def test_bracket_runs_build_no_first_legs(monkeypatch):
    cfg = SuiteConfig(suite="bracket", grid_n=64)
    want = [(rec.case, rec.value) for rec in run_suite(cfg)]

    def never(*args, **kwargs):
        raise AssertionError("a flow leg ran")

    # an AssertionError is not a check error: it would end the run
    monkeypatch.setattr(calculus, "_flow_leg", never)
    assert [(rec.case, rec.value) for rec in run_suite(cfg)] == want


def oneform_reference(n, cases, seed):
    """(case, metric, value) of each random form's record, one form at a
    time (sequential draws, decompose_oneform, reconstruct and
    np.linalg.norm), and each form's term count."""
    rng = np.random.default_rng(seed)
    records, counts = [], []
    for idx in range(cases):
        alpha = band_limited(n, 10, rng)
        dec = oneforms.decompose_oneform(oneforms.OneFormSamples(alpha))
        counts.append(len(dec))
        err = oneforms.reconstruct(dec, n).samples - alpha
        value = float(np.linalg.norm(err) / max(np.linalg.norm(alpha), 1.0))
        records.append((f"form{idx}", "oneform_rel_l2", value))
    return records, counts


def banded_rows_loop(draws, n):
    """The random forms of draws added left to right, one basis row at a
    time: the constant, then cos(k theta) and sin(k theta) for k = 1..10."""
    k_theta = np.arange(1, 11)[:, None] * theta_grid(n)
    rows = np.repeat(draws[:, :1], n, axis=1)
    for cos_row, sin_row, ck, sk in zip(np.cos(k_theta), np.sin(k_theta), draws[:, 1::2].T, draws[:, 2::2].T):
        rows += ck[:, None] * cos_row
        rows += sk[:, None] * sin_row
    return rows


def banded_cases(n):
    """(draws, table) pairs on n nodes: 1 to 37 forms, draws scaled over 1e-3 to 1e3."""
    rng = np.random.default_rng(n)
    table = cli._banded_tables(n)
    for m in (1, 2, 9, 36, 37):
        for scale in (1e-3, 1.0, 1e3):
            yield rng.standard_normal((m, len(table))) * scale, table


@pytest.mark.parametrize("n", [8, 16, 256, 1024, 2048])
def test_banded_rows_are_bitwise_the_left_to_right_loop(n):
    for draws, table in banded_cases(n):
        assert np.array_equal(cli._banded_rows(draws, table), banded_rows_loop(draws, n)), draws.shape


def test_blas_product_is_not_the_left_to_right_loop():
    # the check above can fail: a BLAS product reorders the sums, so its
    # rows differ from the loop's in the last bits
    differ = [
        not np.array_equal(draws @ table, banded_rows_loop(draws, n))
        for n in (8, 16, 256, 1024, 2048)
        for draws, table in banded_cases(n)
    ]
    assert any(differ)


def test_rel_l2_is_bitwise_the_norm_quotient():
    # a reordered sum of squares (np.sum(err * err)) moves about one value in five
    rng = np.random.default_rng(3)
    for n in (16, 256, 1024):
        for scale in (1e-16, 1e-3, 1.0, 1e3):
            small, big = rng.standard_normal(n) * 1e-14, rng.standard_normal(n) * scale
            for err, ref in ((small, big), (big, small)):
                want = float(np.linalg.norm(err) / max(np.linalg.norm(ref), 1.0))
                assert cli._rel_l2(err, ref) == want, (n, scale)


@pytest.mark.parametrize("n", [16, 256])
def test_oneform_suite_chunks_are_bitwise_the_per_form_reference(n, monkeypatch):
    # three forms a chunk, so that the last of the 7 chunks is partial
    monkeypatch.setattr(calculus, "_CHUNK_BYTES", 3 * 8 * n)
    records = run_suite(SuiteConfig(suite="oneform", grid_n=n, cases=7, seed=5))
    want, counts = oneform_reference(n, 7, 5)
    want.append(("all forms", "term_count", float(max(counts))))
    assert [(rec.case, rec.metric, rec.value) for rec in records[:8]] == want


def failing_splits(monkeypatch, failing):
    """Count the rows of each oneforms._hodge_split call, and raise on the
    calls numbered in failing (from 1); three forms a chunk."""
    monkeypatch.setattr(calculus, "_CHUNK_BYTES", 3 * 8 * 16)
    calls = []
    hodge_split = oneforms._hodge_split

    def split(rows):
        calls.append(len(rows))
        if len(calls) in failing:
            raise ValueError("split failed")
        return hodge_split(rows)

    monkeypatch.setattr(oneforms, "_hodge_split", split)
    return calls


def test_oneform_suite_chunk_error_runs_the_chunk_again_form_by_form(monkeypatch):
    want, counts = oneform_reference(16, 7, 5)
    want.append(("all forms", "term_count", float(max(counts))))
    calls = failing_splits(monkeypatch, {2})
    records = run_suite(SuiteConfig(suite="oneform", grid_n=16, cases=7, seed=5))
    assert [(rec.case, rec.metric, rec.value) for rec in records[:8]] == want
    # the chunks, the failed chunk's forms one by one, then the localized form
    assert calls == [3, 3, 1, 1, 1, 1, 1]


def test_oneform_suite_form_that_still_raises_fails_alone(monkeypatch):
    want, counts = oneform_reference(16, 7, 5)
    want[4] = ("form4 [ValueError: split failed]", "oneform_rel_l2", np.inf)
    want.append(("all forms", "term_count", float(max(counts[:4] + counts[5:]))))
    # the second chunk, and form 4 on its own
    calls = failing_splits(monkeypatch, {2, 4})
    records = run_suite(SuiteConfig(suite="oneform", grid_n=16, cases=7, seed=5))
    assert [(rec.case, rec.metric, rec.value) for rec in records[:8]] == want
    assert calls == [3, 3, 1, 1, 1, 1, 1]


def oneform_records():
    return [(rec.case, rec.metric, rec.value) for rec in run_suite(SuiteConfig(suite="oneform", grid_n=64, cases=2))]


def test_oneform_suite_decomposes_the_localized_form_once(monkeypatch):
    want = oneform_records()
    calls = []
    decompose_supported = oneforms.decompose_supported

    def counted(*args):
        calls.append(args)
        return decompose_supported(*args)

    monkeypatch.setattr(oneforms, "decompose_supported", counted)
    assert oneform_records() == want
    assert len(calls) == 1


def test_oneform_suite_decomposition_error_fails_both_records(monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args)
        raise SupportViolation("one-form reaches 1 outside the window")

    monkeypatch.setattr(oneforms, "decompose_supported", failing)
    localized = [rec for rec in oneform_records() if rec[1].startswith("supported_")]
    assert len(calls) == 1
    assert localized == [
        ("localized form [SupportViolation: one-form reaches 1 outside the window]", metric, np.inf)
        for metric in ("supported_outside_max", "supported_rel_l2")
    ]
