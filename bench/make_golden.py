"""Capture golden.json: the exact observation of every job at the default
seed.  Run only on a commit whose outputs are known good:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/make_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import jobs  # noqa: E402
from stratsums import cli  # noqa: E402


def main() -> int:
    workdir = os.path.join(os.path.dirname(BENCH), ".bench_work", "golden")
    os.makedirs(workdir, exist_ok=True)
    golden, failed = {}, 0
    try:
        for workload in jobs.WORKLOADS:
            setup, specs = jobs.plan(workload, jobs.DEFAULT_SEED, workdir)
            for argv in setup:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"set-up failed: {argv}")
            for spec in specs:
                _, out = jobs.timed(spec)
                problems = jobs.check(spec, out, jobs.DEFAULT_SEED, workdir, None)
                print(f"{workload}/{spec.name}: {problems or 'ok'}")
                failed += bool(problems)
                golden[spec.name] = {
                    "inputs": spec.inputs.replace(workdir, "<work>"),
                    "observation": jobs.observe(spec, out, workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    if failed:
        print("oracle checks failed; golden.json not written", file=sys.stderr)
        return 1
    with open(jobs.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
