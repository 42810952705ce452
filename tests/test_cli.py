"""Configuration handling, suite runs, report format, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from norbrack.cli import (
    ReportRecord,
    SuiteConfig,
    emit_report,
    load_config,
    main,
    make_curve,
    run_suite,
    validate_config,
)
from norbrack.curves import random_fourier_curve, save_curve_csv, unit_circle
from norbrack.errors import ConfigInvalid


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
    ],
)
def test_validate_config_rejections(bad, tmp_path, capsys):
    with pytest.raises(ConfigInvalid):
        validate_config(SuiteConfig(**bad))
    # the same config file makes the command line exit 2 with a message
    path = write_config(tmp_path, **bad)
    assert main([bad["suite"], "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


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
    import norbrack.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("spanning work started")

    monkeypatch.setattr(cli, "make_curve", never)
    monkeypatch.setattr(cli.spanning, "verify_spanning", never)
    assert main(["spanning", "--n", "65536"]) == 2
    assert "config error" in capsys.readouterr().err


def test_default_spanning_grid_is_within_budget():
    assert validate_config(SuiteConfig(suite="spanning", grid_n=1024)).grid_n == 1024


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
    # a degenerate curve file cannot even be built, so records report it
    cfg = validate_config(SuiteConfig(suite="torsion", grid_n=8, eps=10.0))
    records = run_suite(cfg)
    assert records and all(not rec.passed for rec in records)
    assert all(np.isinf(rec.value) for rec in records)
    assert "StepTooLarge" in records[0].case


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
