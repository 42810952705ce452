"""Timed passes over a workload's suite runs, and the reference kernel.

The worker imports this module only after it has timed the package's
set-up, so none of the benchmark's own imports fall inside ``setup_s``.

Each pass runs ``norbrack.cli.run_suite`` once per config, in order, and
each call starts only after the previous one returned (one closed-loop
caller).  The records are read in-process, never parsed from CLI output.
"""

import hashlib
import math
import os
import re
import statistics
import sys
import time

import numpy as np

# Fewer timed passes than this and a run measures past --seconds.
MIN_PASSES = 2

# Reference-kernel samples in each gap between suite runs; a gap's reference
# time is their median.
REF_SAMPLES_PER_GAP = 3

# Reference-kernel samples taken by a set-up probe after its timed import.
REF_SAMPLES_PER_PROBE = 5

_ERROR_SUFFIX = re.compile(r" \[\w+: .*\]$", re.DOTALL)

_REF_ROWS = np.random.default_rng(0).standard_normal((256, 2))


def reference() -> float:
    """Time one run of a fixed kernel that does not touch the package.

    It mixes small-array numpy calls with dict updates in Python, the kind of
    work the suites spend their time on, so a stretch in which other tenants
    of the host slow the suites slows it too.
    """
    rows = _REF_ROWS
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(150):
        total += float((np.roll(rows, 1, axis=0) - np.roll(rows, -1, axis=0))[0, 0])
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def _reference_median(samples: int) -> float:
    return statistics.median(reference() for _ in range(samples))


def probe_reference() -> float:
    """Reference time of a fresh process: one warm-up, then the median."""
    reference()
    return _reference_median(REF_SAMPLES_PER_PROBE)


def run_pass(cli, configs) -> dict:
    """Run every config once; time, digest and classify the records.

    Reference-kernel samples run in the gap before and after each suite run,
    never inside it.  ``wall_ref`` divides each suite run's time by the mean
    reference time of its two gaps and sums over the pass, so a stretch in
    which the host runs everything slower cancels out.
    """
    digest = hashlib.sha256()
    out = {
        "records": 0,
        "verdict_failed": 0,
        "errored": 0,
        "nan": 0,
        "suites_raised": [],
        "bracket_checks": 0,
        "rank_deficits": [],
    }
    t_pass = time.perf_counter()
    gaps = [_reference_median(REF_SAMPLES_PER_GAP)]
    times = []
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            records = cli.run_suite(cfg)
        except Exception as exc:  # a suite that raises is a failed operation, not a crash
            records = []
            out["suites_raised"].append(f"{cfg.suite}/{cfg.family}/{cfg.grid_n}: {type(exc).__name__}: {exc}")
            digest.update(f"raised\t{type(exc).__name__}\n".encode())
        times.append(time.perf_counter() - t0)
        deficit = None
        for rec in records:
            line = f"{rec.suite}\t{rec.case}\t{rec.metric}\t{rec.value!r}\t{rec.passed}\n"
            digest.update(line.encode())
            out["records"] += 1
            # the package marks an errored check only by an inf value and an
            # "[Type: message]" suffix on the case
            errored = math.isinf(rec.value) and _ERROR_SUFFIX.search(rec.case) is not None
            out["errored"] += errored
            out["verdict_failed"] += (not rec.passed) and not errored
            out["nan"] += math.isnan(rec.value)
            out["bracket_checks"] += rec.metric == "bracket_max_diff"
            if rec.metric == "rank_deficit" and not errored:
                deficit = rec.value
        if cfg.suite == "spanning":
            # None: the config gave no rank deficit that can be checked
            out["rank_deficits"].append([cfg.grid_n, cfg.modes, deficit])
        gaps.append(_reference_median(REF_SAMPLES_PER_GAP))
    out["wall_s"] = sum(times)
    out["wall_ref"] = sum(t / (0.5 * (gaps[i] + gaps[i + 1])) for i, t in enumerate(times))
    out["ref_s"] = statistics.median(gaps)
    out["elapsed_s"] = time.perf_counter() - t_pass
    out["digest"] = digest.hexdigest()
    return out


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def facts(norbrack) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "numpy": np.__version__,
        "norbrack": getattr(norbrack, "__version__", "unknown"),
        "python": sys.version.split()[0],
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
    }


def timed_passes(seconds: float, run_one) -> None:
    """Call run_one() until the next pass would end past `seconds`."""
    start = time.perf_counter()
    lengths = []
    while len(lengths) < MIN_PASSES or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        lengths.append(run_one())
