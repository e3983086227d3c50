"""Tests of the benchmark itself (not of stratsums):

    python3 -m pytest -q bench/tests
"""

import argparse
import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from stratsums import catalog, cli, polyring, sumengine  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


def _record(wall, problems=(), layers=None):
    rec = {"setup_s": 0.25, "wall_s": wall, "peak_rss_mb": 80.0, "numpy": "x",
           "blas": "y", "jobs": [{"job": "j", "seconds": wall,
                                  "problems": list(problems)}]}
    if layers is not None:
        rec.update(layers=layers, missing=[])
    return rec


def _run_main(monkeypatch, capsys, trace, records):
    """run.main with worker processes replaced by canned records."""
    feed = iter(records)

    def fake_spawn(self, trace=False, setup_only=False):
        rec = next(feed, None) if not setup_only else {"setup_s": 0.3}
        if rec is None:
            rec = _record(1.0, layers=records[-1].get("layers"))
        self.setups.append(rec["setup_s"])
        if setup_only:
            return
        self.attempted += len(rec["jobs"])
        self.failed += sum(bool(r["problems"]) for r in rec["jobs"])
        (self.traced if trace else self.passes).append(rec)

    monkeypatch.setattr(run.Runner, "spawn", fake_spawn)
    rc = run.main(["--workload", "field_enum", "--seed", "1", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys):
    e2e, per_layer, spec = _declared()
    assert spec["command"] == ["python3", "bench/run.py"]
    out = _run_main(monkeypatch, capsys, 0, [_record(2.0), _record(2.2)])
    assert {k: v["unit"] for k, v in out["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in out["metrics"].values())

    layers = tracing.layer_metrics([], {}, {}, [])
    out = _run_main(monkeypatch, capsys, 1,
                    [_record(2.0), _record(2.5, layers=layers)])
    assert {k: v["unit"] for k, v in out["metrics"].items()} == per_layer
    assert out["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_wrong_golden_value_counts_as_failed(monkeypatch, capsys, tmp_path):
    _, specs = jobs.plan("field_enum", jobs.DEFAULT_SEED, str(tmp_path))
    spec = next(s for s in specs if s.name == "weights_enum")
    golden = jobs.load_golden()
    args = argparse.Namespace(seed=jobs.DEFAULT_SEED, trace=False)
    good = worker.run_pass([spec], args, str(tmp_path), [])
    assert good["jobs"][0]["problems"] == []

    golden[spec.name]["observation"]["rank"] += 1
    monkeypatch.setattr(jobs, "load_golden", lambda: golden)
    bad = worker.run_pass([spec], args, str(tmp_path), [])
    assert bad["jobs"][0]["problems"] == ["differs from golden in rank"]

    good["setup_s"] = bad["setup_s"] = 0.3
    out = _run_main(monkeypatch, capsys, 0, [good, bad])
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)


def _sizes(spec):
    """The inputs of a job with every polynomial reduced to its monomials and
    every seed-chosen number dropped."""
    def shape(text):
        return sorted(polyring.parse_poly(text).terms)

    if spec.kind == "lib":
        return spec.call, {k: shape(v) if k == "F" else v
                           for k, v in spec.params.items()}
    out, argv = [], spec.argv
    for prev, arg in zip([""] + argv, argv):
        if prev in ("--f", "--g", "--variety"):
            out.append(shape(arg))
        elif prev in ("--seed", "--kloosterman"):
            out.append("<seeded>")
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_changes_inputs_not_sizes(workload):
    base = jobs.plan(workload, 0, "w")
    assert jobs.plan(workload, 0, "w") == base
    for seed in (1, 2, 17):
        other = jobs.plan(workload, seed, "w")
        assert jobs.plan(workload, seed, "w") == other
        assert [s.inputs for s in other[1]] != [s.inputs for s in base[1]]
        assert [_sizes(s) for s in other[1]] == [_sizes(s) for s in base[1]]
        # the set-up chain and the verified variety share their coefficients
        for argv in other[0]:
            assert argv[:3] == base[0][0][:3] and len(argv) == len(base[0][0])


def test_tracer_wraps_rebound_names_and_restores():
    originals = (cli.complete_grid, catalog.cyclo_dft, sumengine.eval_sum,
                 cli.main)
    tracer = tracing.Tracer().install()
    try:
        assert cli.complete_grid is not originals[0]
        assert catalog.cyclo_dft is not originals[1]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["grid", "--p", "5", "--f", "x1^2 + x2",
                           "--spot-check", "2"])
    finally:
        tracer.restore()
    assert rc == 0
    assert (cli.complete_grid, catalog.cyclo_dft, sumengine.eval_sum,
            cli.main) == originals
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.complete_grid", "sumengine.cyclo_dft",
            "cli.eval_sum"} <= names
    m = tracer.metrics()
    assert set(m) == set(tracing.PER_LAYER)
    assert m["sumengine.eval_sum_points"] == 2 * 25
    assert m["sumengine.cyclo_dft_moves"] == 2 * 5 ** 4
    assert m["sumengine.grid_cells"] == 25
    assert m["ffield.elem_ops"] > 0 and m["sumengine.cyclo_dft_s"] > 0


def test_missing_target_is_reported_as_null(monkeypatch):
    monkeypatch.delattr(sumengine, "dft_grid")
    tracer = tracing.Tracer().install()
    tracer.restore()
    assert tracer.missing == ["sumengine.dft_grid"]
    m = tracer.metrics()
    assert m["sumengine.dft_grid_s"] is None
    assert m["sumengine.complete_grid_self_s"] is None
    assert m["sumengine.cyclo_dft_s"] == 0
