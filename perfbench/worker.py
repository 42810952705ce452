"""One benchmark worker process: imports the package and runs one workload.

Reads a job object (JSON) on stdin and prints one JSON summary line on
stdout.  Modes:

- ``probe``: import the package, build the configs, report the set-up time
  and the reference-kernel time of the same process.
- ``measure``: one warm-up pass, then timed passes, tracing off.
- ``trace``: one warm-up pass, then untraced and traced passes in turn.

The set-up clock starts just before the package is imported.  Only modules
the interpreter has loaded anyway, and ``json`` for the job, come before it;
the benchmark's own modules are imported after it stops.
"""

import json
import os
import sys
import time


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import norbrack
    import norbrack.cli

    origin = os.path.dirname(os.path.abspath(norbrack.__file__))
    if origin != os.path.join(os.path.abspath(src), "norbrack"):
        raise SystemExit(f"norbrack imported from {origin}, not from {src}")
    return norbrack


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    norbrack = _import_package(job["root"])
    cli = sys.modules["norbrack.cli"]
    configs = [cli.SuiteConfig(**fields) for fields in job["configs"]]
    setup_s = time.perf_counter() - t0

    import resource

    import passes

    result = {"setup_s": setup_s}
    if job["mode"] == "probe":
        result["ref_s"] = passes.probe_reference()
        print(json.dumps(result, allow_nan=False))
        return 0

    result["facts"] = passes.facts(norbrack)
    result["warmup"] = passes.run_pass(cli, configs)
    runs, traced = [], []
    if job["mode"] == "measure":

        def one():
            runs.append(passes.run_pass(cli, configs))
            return runs[-1]["elapsed_s"]

        passes.timed_passes(job["seconds"], one)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from spans import Tracer

        tracer = Tracer()

        def pair():
            runs.append(passes.run_pass(cli, configs))
            box = {}
            tracer.run_pass(lambda: box.update(passes.run_pass(cli, configs)))
            traced.append(box)
            return runs[-1]["elapsed_s"] + traced[-1]["elapsed_s"]

        passes.timed_passes(job["seconds"], pair)
        result["traced"] = traced
        result["trace_stats"] = [tracer.pass_stats(k) for k in range(len(traced))]
        os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
        tracer.save(job["spans_path"])
    result["passes"] = runs
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
