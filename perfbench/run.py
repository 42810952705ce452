"""The norbrack benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload span --seed 1 --seconds 20 --trace 0

runs one workload (``span``, ``flow``, ``calc``, ``oneform``, or ``all`` for
each in turn) through the public entry point ``norbrack.cli.run_suite``,
in-process, in one fresh worker process per workload.  With ``--trace 0`` it
reports the end-to-end metrics (the time of one pass in units of a reference
kernel timed between its suite runs, set-up time, peak RSS and the share of
checks that passed); with ``--trace 1`` it makes a separate
run in which every layer function is wrapped in a span, and reports calls,
self times and computed byte counts per layer.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory; the run fails
with exit status 2 when it is not there.  Full results, with a header of
machine facts and the resolved configs, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed for setup_s, half before and half after the
# measuring worker.  At least 2, for a quartile.
SETUP_PROBES = 10

# The reference kernel's time (passes.reference) on the baseline host in a
# quiet stretch.  Each probe's set-up time is scaled by this over the kernel
# time the probe measured itself, so setup_s reads in seconds of a host
# running at that speed.
REF_NOMINAL_S = 0.0025

PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("check_pass_share", "share"),
)

# Summed layer self times may differ from the measured suite time of a traced
# pass by the wrappers' own call overhead only.
_SELF_SUM_RTOL = 0.01


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _blas_thread_limit() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _spawn(job: dict, timeout: float) -> dict:
    # A set-up probe calls no BLAS routine.  With a second BLAS thread, the
    # pool's idle thread spin-waits through the import and competes with it,
    # so the probe's time would depend on where the scheduler put that thread.
    threads = "1" if job["mode"] == "probe" else str(_blas_thread_limit())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({job['mode']}) did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({job['mode']}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check_passes(passes: list[dict]) -> list[str]:
    """Problems with the records of passes that ran the same inputs."""
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("record digests differ between passes")
    for p in passes:
        if p["nan"]:
            problems.append(f"{p['nan']} records have a NaN value")
        for raised in p["suites_raised"]:
            problems.append(f"suite run raised: {raised}")
        for grid_n, modes, deficit in p["rank_deficits"]:
            if deficit is None:
                problems.append(f"no rank deficit computed at n={grid_n}, K={modes}")
                continue
            # full rank is claimed at K = n/2; at K = n/2 - 1 the trig basis
            # has n - 1 functions, so at least one direction must be missing
            if modes == grid_n // 2 and deficit != 0:
                problems.append(f"rank deficit {deficit} at n={grid_n}, K={modes}")
            if modes == grid_n // 2 - 1 and deficit < 1:
                problems.append(f"no rank deficit at n={grid_n}, K={modes}")
    return sorted(set(problems))


def _pass_share(p: dict) -> float:
    """Checks whose verdict passed, over checks attempted; a suite run that
    raised counts as one failed check."""
    attempted = p["records"] + len(p["suites_raised"])
    passed = p["records"] - p["verdict_failed"] - p["errored"]
    return passed / attempted if attempted else 0.0


def _measure(job: dict) -> dict:
    # probes before and after the measuring worker, so that set-up time is
    # sampled across the whole run rather than in one burst
    half = SETUP_PROBES // 2
    probes = [_spawn(dict(job, mode="probe"), PROBE_TIMEOUT_S) for _ in range(half)]
    res = _spawn(dict(job, mode="measure"), WORKER_TIMEOUT_S)
    probes += [_spawn(dict(job, mode="probe"), PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES - half)]
    setups = [p["setup_s"] * REF_NOMINAL_S / p["ref_s"] for p in probes]
    passes = res["passes"]
    first = passes[0]
    records = first["records"]
    failing = first["verdict_failed"] + first["errored"]
    walls = [p["wall_s"] for p in passes]
    return {
        "facts": res["facts"],
        "problems": _check_passes([res["warmup"], *passes]),
        "attempted": sum(p["records"] + len(p["suites_raised"]) for p in passes),
        "failed": sum(p["errored"] + len(p["suites_raised"]) for p in passes),
        "metrics": {
            "wall_ref": statistics.median(p["wall_ref"] for p in passes),
            # the lower quartile: a burst on the host slows a few probes
            # severalfold, and the scaling does not cancel that
            "setup_s": statistics.quantiles(setups, n=4)[0],
            "peak_rss_mb": res["peak_rss_mb"],
            "check_pass_share": _pass_share(first),
        },
        "samples": {"wall_ref": len(passes), "setup_s": len(setups), "peak_rss_mb": 1, "check_pass_share": records},
        "detail": {
            "wall_s_median": statistics.median(walls),
            "wall_s_min": min(walls),
            "records_per_pass": records,
            "verdict_failed_per_pass": first["verdict_failed"],
            "errored_per_pass": first["errored"],
            "check_fail_share": failing / records if records else 0.0,
            "suites_raised": first["suites_raised"],
            "pass_wall_s": walls,
            "pass_ref_s": [p["ref_s"] for p in passes],
            "warmup_wall_s": res["warmup"]["wall_s"],
            "setup_s_samples": setups,
            "setup_raw_s_samples": [p["setup_s"] for p in probes],
            "setup_ref_s_samples": [p["ref_s"] for p in probes],
            "worker_setup_raw_s": res["setup_s"],
            "digest": first["digest"],
        },
    }


def _trace(job: dict) -> dict:
    res = _spawn(dict(job, mode="trace"), WORKER_TIMEOUT_S)
    untraced, traced, stats = res["passes"], res["traced"], res["trace_stats"]
    problems = _check_passes([res["warmup"], *untraced, *traced])
    counts = [(s["calls"], s["counters"], s["raised"]) for s in stats]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    for s, t in zip(stats, traced):
        # every suite run is a cli.run_suite span, so the layers' self times
        # must cover the suite time measured around those calls
        layer_sum = sum(s["layer_self_s"][layer] for layer in layers.LAYERS)
        if abs(layer_sum - t["wall_s"]) > _SELF_SUM_RTOL * t["wall_s"]:
            problems.append(f"layer self times sum to {layer_sum:.6f} s, suite runs took {t['wall_s']:.6f} s")
    records = traced[0]
    traced_wall = statistics.median([t["wall_s"] for t in traced])
    metrics = {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median([p["wall_s"] for p in untraced]),
    }
    for metric, _unit, _better in layers.PER_LAYER:
        if metric not in metrics:
            metrics[metric] = statistics.median([layers.layer_metric(metric, s, records) for s in stats])
    return {
        "facts": res["facts"],
        "problems": sorted(set(problems)),
        "attempted": sum(t["records"] + len(t["suites_raised"]) for t in traced),
        "failed": sum(t["errored"] + len(t["suites_raised"]) for t in traced),
        "metrics": metrics,
        "samples": {m: len(stats) for m in metrics},
        "detail": {
            "untraced_wall_s": [p["wall_s"] for p in untraced],
            "traced_wall_s": [t["wall_s"] for t in traced],
            "spans_file": os.path.relpath(job["spans_path"], ROOT),
            "calls": stats[0]["calls"],
        },
    }


def _units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, unit, _ in layers.PER_LAYER}
    return dict(END_TO_END)


def _print_table(name: str, result: dict, trace: bool) -> None:
    units = _units(trace)
    print(f"== {name} ({'traced' if trace else 'untraced'}) ==")
    for metric, value in result["metrics"].items():
        print(f"  {metric:44s} {value:>16.6g} {units[metric]:>14s}  n={result['samples'][metric]}")
    if not trace:
        d = result["detail"]
        print(
            f"  {'check_fail_share':44s} {d['check_fail_share']:>16.6g} {'share':>14s}"
            f"  ({d['verdict_failed_per_pass']} failed + {d['errored_per_pass']} errored"
            f" of {d['records_per_pass']} records per pass)"
        )
        print(f"  {'setup_s (unscaled median)':44s} {statistics.median(d['setup_raw_s_samples']):>16.6g} {'s':>14s}"
              f"  n={len(d['setup_raw_s_samples'])}")
        print(f"  {'wall_s (median pass)':44s} {d['wall_s_median']:>16.6g} {'s':>14s}  n={len(d['pass_wall_s'])}")
        print(f"  {'wall_s (fastest pass)':44s} {d['wall_s_min']:>16.6g} {'s':>14s}  n={len(d['pass_wall_s'])}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its checked result."""
    configs = workloads.configs(workload, seed, tiny)
    job = {
        "root": ROOT,
        "configs": configs,
        "seconds": seconds,
        "spans_path": os.path.join(OUT_DIR, f"spans-{workload}.npz"),
    }
    result = (_trace if trace else _measure)(job)
    result["configs"] = configs
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="16- and 32-node grids, for smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "norbrack", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'norbrack')}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            _print_table(name, results[name], bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    facts = next(iter(results.values()))["facts"]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": workloads.CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_thread_limit": _blas_thread_limit(),
        "git_commit": _git_commit(),
        "closed_loop": "one caller, one suite run at a time, one worker process per workload",
        **facts,
    }
    units = _units(bool(args.trace))
    metrics = {
        (f"{name}.{metric}" if args.workload == "all" else metric): {"value": value, "unit": units[metric]}
        for name, res in results.items()
        for metric, value in res["metrics"].items()
    }
    summary = {
        "correct": not any(res["problems"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"header": header, "summary": summary, "workloads": results}, fh, indent=1, allow_nan=False)
    print(f"full result: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(summary, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
