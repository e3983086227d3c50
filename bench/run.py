"""Benchmark entry point.

    python3 bench/run.py --workload grid_verify --seed 1 --seconds 40 --trace 0

Runs whole passes of one workload, each in a fresh single-threaded
interpreter (bench/worker.py), for about --seconds seconds, then fills the
rest of the time with set-up-only processes.  With --trace 0 it reports the
end-to-end metrics (medians over the run's samples); with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones plus the tracing overhead.  The last stdout line is the JSON
result; the lines before it describe the machine, each pass and each job.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_PASSES = 2           # untraced passes per --trace 0 run
MIN_SETUP_SAMPLES = 12   # set-up samples per --trace 0 run
LIMIT_S = 150            # start nothing new after this; the run must end by 180 s

sys.path.insert(0, BENCH)
import jobs  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stratsums", "__init__.py")):
        print(f"no stratsums sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    print("machine: " + json.dumps(machine_facts()))
    runner = Runner(args.workload, args.seed)
    if args.trace:
        rounds = 0
        while rounds < 1 or runner.room(start + args.seconds, traced=True):
            runner.spawn(trace=False)
            runner.spawn(trace=True)
            rounds += 1
    else:
        while len(runner.passes) < MIN_PASSES or runner.room(start + args.seconds):
            runner.spawn(trace=False)
        while len(runner.setups) < MIN_SETUP_SAMPLES or \
                runner.room(start + args.seconds, setup_only=True):
            runner.spawn(setup_only=True)
    with contextlib.suppress(OSError):  # other runs may still use it
        os.rmdir(os.path.join(ROOT, ".bench_work"))
    runner.report_jobs()
    if not runner.passes or (args.trace and not runner.traced):
        print("no pass produced a record", file=sys.stderr)
        return 1
    metrics = runner.traced_metrics() if args.trace else runner.end_to_end()
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


class Runner:
    """Starts worker processes and keeps their records."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.n_jobs = len(jobs.plan(workload, seed, "")[1])
        self.env = dict(os.environ, **THREAD_ENV)
        self.passes, self.traced, self.setups = [], [], []
        self.cost = {}           # kind -> longest wall time of one process
        self.attempted = self.failed = 0
        self.started = time.monotonic()

    def room(self, deadline: float, traced: bool = False,
             setup_only: bool = False) -> bool:
        """True when another process of this kind should end by the deadline."""
        now = time.monotonic()
        if now - self.started > LIMIT_S:
            return False
        need = self.cost.get("setup" if setup_only else "pass", 0.0)
        if traced:
            need += self.cost.get("traced", 0.0)
        return now + need <= deadline

    def spawn(self, trace: bool = False, setup_only: bool = False):
        kind = "setup" if setup_only else "traced" if trace else "pass"
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(5.0, LIMIT_S + 25 - (t0 - self.started)))
            rec = json.loads(proc.stdout.strip().splitlines()[-1]) \
                if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"{kind} process failed: {exc}", file=sys.stderr)
            rec = None
        self.cost[kind] = max(self.cost.get(kind, 0.0), time.monotonic() - t0)
        if rec is None:
            if not setup_only:
                self.attempted += self.n_jobs
                self.failed += self.n_jobs
            return
        self.setups.append(rec["setup_s"])
        if setup_only:
            return
        bad = [r for r in rec["jobs"] if r["problems"]]
        self.attempted += len(rec["jobs"])
        self.failed += len(bad)
        for r in bad:
            print(f"FAILED {r['job']}: {'; '.join(r['problems'])}")
        (self.traced if trace else self.passes).append(rec)
        print(f"{kind}: wall {rec['wall_s']:.4f} s, set-up {rec['setup_s']:.4f} s, "
              f"peak rss {rec['peak_rss_mb']:.1f} MB, {len(bad)} failed")

    def report_jobs(self):
        records = self.passes + self.traced
        if not records:
            return
        print(f"numpy {records[0]['numpy']}, blas {records[0]['blas']}")
        for i, r in enumerate(records[0]["jobs"]):
            times = [rec["jobs"][i]["seconds"] for rec in self.passes]
            if times:
                print(f"  {r['job']:<24} median {statistics.median(times):.4f} s "
                      f"over {len(times)} untraced passes")
        if self.traced and self.traced[0]["missing"]:
            print("missing trace targets: " + ", ".join(self.traced[0]["missing"]))

    def end_to_end(self) -> dict:
        vals = {"wall_s": [r["wall_s"] for r in self.passes],
                "setup_s": self.setups,
                "peak_rss_mb": [r["peak_rss_mb"] for r in self.passes]}
        print(f"samples: {len(self.passes)} passes, {len(self.setups)} set-ups")
        return {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
                for k, v in vals.items()}

    def traced_metrics(self) -> dict:
        out = {}
        for name, (unit, _) in PER_LAYER.items():
            vals = [r["layers"][name] for r in self.traced]
            value = None if None in vals else statistics.median(vals)
            out[name] = {"value": value, "unit": unit}
        overhead = statistics.median(r["wall_s"] for r in self.traced) - \
            statistics.median(r["wall_s"] for r in self.passes)
        out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out["trace.missing_targets"] = {"value": len(self.traced[0]["missing"]),
                                        "unit": "count"}
        return out


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "threads": THREAD_ENV, "loadavg": os.getloadavg()}


if __name__ == "__main__":
    sys.exit(main())
