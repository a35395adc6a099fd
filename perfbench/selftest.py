"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the root of
a checkout.  The file name keeps it out of the default ``test_*.py``
collection, so the program's test suite does not pay for these runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SEED = 3  # not the default seed, so the reference digests do not apply at tiny sizes

# Every metric the benchmark's definition named, and where it is reported:
# a metric of BENCHMARK.json, or the reason it is reported another way.
NAMED_METRICS = {
    "orbit_steps_per_s": "ops_per_s",
    "systems_per_s": "ops_per_s",
    "curves_per_s": "ops_per_s",
    "curve_latency_p50_us": "op_latency_p50_ms",
    "curve_latency_p99_us": "dropped",
    "peak_rss_mb": "peak_rss_mb",
    "setup_s": "setup_s",
    "failed_frac": "dropped",
}


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _ref() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_reported_metrics():
    spec = _bench_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_every_named_metric_is_reported_or_its_drop_recorded():
    readme = (BENCH / "README.md").read_text(encoding="utf-8")
    reported = {m["name"] for m in _bench_json()["end_to_end"]}
    for name, where in NAMED_METRICS.items():
        if where == "dropped":
            # a row of the README's table of renamed and dropped metrics, with its reason
            row = re.search(rf"^\| `{name}` \| (.+) \|$", readme, re.M)
            assert row and len(row.group(1)) > 20, name
        else:
            assert where in reported, name


@pytest.mark.parametrize("name", sorted(run.SIMS))
@pytest.mark.parametrize("trace", [False, True])
def test_sim_smoke(monkeypatch, tmp_path, name, trace):
    monkeypatch.setattr(run, "SIM_STEPS", 3000)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    res = run.run_sim(name, SEED, 0.0, trace, tmp_path)
    assert res["failed"] == 0 and not res["problems"], res["problems"]
    assert res["attempted"] == 1 + trace
    if trace:
        assert set(res["layers"]) == {n for n, _ in tracer.PER_LAYER}
        assert res["layers"]["geometry.project.calls"] == 3000
    else:
        assert set(res["e2e"]) == {n for n, _ in run.END_TO_END}


def _args(name: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=SEED, seconds=0.0, trace=trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_survey_smoke(monkeypatch, trace):
    monkeypatch.setattr(worker, "SURVEY_CALLS", 2)
    monkeypatch.setattr(worker, "SURVEY_COUNT", 1)
    res = worker.run_survey(_args("survey", trace), tracer)
    assert res["failed"] == 0 and not res["problems"], res["problems"]
    assert res["attempted"] == 2 * (1 + trace)
    assert res["summary"]["ops_per_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_curves_smoke(monkeypatch, trace):
    monkeypatch.setattr(worker, "CURVE_BATCH", 40)
    res = worker.run_curves(_args("curves", trace), tracer)
    assert res["failed"] == 0 and not res["problems"], res["problems"]
    assert res["attempted"] == 40 * (1 + trace)
    if trace:
        assert res["trace"]["counters"]["curves.built"] == 40


def test_corrupted_orbit_row_counts_as_failed(monkeypatch, tmp_path):
    """A simulate command whose CSV has one altered row is a failed operation."""
    monkeypatch.setattr(run, "SIM_STEPS", 2000)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    real_child = run.Child

    def corrupting_child(argv, work_dir):
        child = real_child(argv, work_dir)
        csv_path = work_dir / "orbit.csv"
        if "--steps" in argv and argv[argv.index("--steps") + 1] != "0":
            lines = csv_path.read_text().splitlines()
            fields = lines[500].split(",")
            fields[1] = repr(float(fields[1]) + 1e-6)
            lines[500] = ",".join(fields)
            csv_path.write_text("\n".join(lines) + "\n")
        return child

    monkeypatch.setattr(run, "Child", corrupting_child)
    res = run.run_sim("sim_piecewise", SEED, 0.0, False, tmp_path)
    assert res["attempted"] == 1 and res["failed"] == 1
    assert any("carrier" in p or "projection" in p for p in res["problems"])


def test_survey_check_rejects_an_inconsistent_summary():
    ref = _ref()["survey"]
    assert checks.check_survey(ref["summary"], ref["count"]) == []
    bad = ref["summary"].replace(f"systems: {ref['count']}", f"systems: {ref['count'] + 1}")
    assert checks.check_survey(bad, ref["count"])


def test_curve_check_rejects_a_wrong_angle():
    from nrulemaps import Arrangement, Line, build_closed_curve

    req = inputs.curve_requests(SEED, 20)[0]
    arr = Arrangement.symbolic([Line(ln.angle, ln.offset, ln.label) for ln in req.lines])
    curve = build_closed_curve(arr, req.angles, req.labels)
    assert checks.check_curve(req, curve, True) == []
    other = inputs.CurveRequest(req.kind, req.lines, (req.angles[0] + 1e-4,) + req.angles[1:],
                                req.labels)
    assert checks.check_curve(other, curve, True)


def test_inputs_depend_only_on_the_seed():
    spec = inputs.read_config(ROOT / run.SIMS["sim_piecewise"][0])
    assert inputs.sim_start(spec, 5) == inputs.sim_start(spec, 5)
    assert inputs.sim_start(spec, 5) != inputs.sim_start(spec, 6)
    assert inputs.curve_requests(5, 30) == inputs.curve_requests(5, 30)


def test_incomplete_checkout_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
