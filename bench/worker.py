"""One pass of one workload in a fresh interpreter; run.py starts these.

    python3 bench/worker.py --workload W --seed S --t0 T [--trace] [--setup-only]

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup_s covers interpreter start, importing stratsums and
writing the workload's inputs.  The last stdout line is a JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import stratsums  # noqa: F401  (set-up includes the package import)
    from stratsums import cli

    import jobs

    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup, specs = jobs.plan(args.workload, args.seed, workdir)
        setup_rc = []
        for argv_ in setup:
            with contextlib.redirect_stdout(io.StringIO()):
                setup_rc.append(cli.main(argv_))
        record = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            record.update(run_pass(specs, args, workdir, setup_rc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


def run_pass(specs, args, workdir, setup_rc) -> dict:
    import numpy

    import jobs
    from tracing import Tracer

    golden = jobs.load_golden()
    tracer = Tracer() if args.trace else None
    results = []
    for spec in specs:
        gc.collect()
        # the tracer is off while checks run, so they add no spans or counts
        if tracer is not None:
            tracer.install()
        seconds, out = jobs.timed(spec)
        if tracer is not None:
            tracer.restore()
        if any(setup_rc):
            problems = [f"set-up exit codes {setup_rc}"]
        else:
            problems = jobs.check(spec, out, args.seed, workdir, golden)
        results.append({"job": spec.name, "seconds": seconds, "problems": problems})
        del out
    record = {
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["missing"] = tracer.missing
    return record


def _blas(numpy) -> str:
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
