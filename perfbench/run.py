#!/usr/bin/env python3
"""Benchmark of nrulemaps: simulate, the contraction survey, and curve synthesis.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_piecewise --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload in turn

Workloads (see perfbench/README.md for why each was chosen):

    sim_piecewise  ``nrulemaps simulate`` on configs/fig_four_cycle_y5.json, CSV only
    sim_symbolic   ``nrulemaps simulate`` on configs/fig_six_cycle_x4.json, CSV and SVG
    survey         scripts/contraction_survey.py's ``run(count, seed)``, in-process
    curves         ``build_closed_curve`` + ``verify_incidence`` on seeded requests

Each workload runs in child processes of its own, one at a time, with
numeric libraries held to one thread, and replays seeded inputs until
``--seconds`` of operations have run (replay.py; timings are rescaled to
a reference machine speed there).  With ``--trace 0`` the end-to-end
metrics are measured; with ``--trace 1`` every input runs untraced and
then traced, and the per-layer metrics come from the traced runs.  Every
output is checked outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Exit
code 2 means the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from replay import Replay, calibrate, slowdown  # noqa: E402

# Rule applications per simulate command: the low end of the 1e5-1e6 scale.
SIM_STEPS = 100_000
# Set-up is measured this many times per run (after one warm-up) and the
# median reported.
SETUP_REPEATS = 7
# Children still running this long after the benchmark started are
# killed, so that a run ends within three minutes whatever the program does.
RUN_DEADLINE_S = 170
STARTED = perf_counter()

SIMS = {
    "sim_piecewise": ("configs/fig_four_cycle_y5.json", False),
    "sim_symbolic": ("configs/fig_six_cycle_x4.json", True),
}
WORKLOADS = ("sim_piecewise", "sim_symbolic", "survey", "curves")
REQUIRED = ("src/nrulemaps/__init__.py", "src/nrulemaps/cli.py",
            "scripts/contraction_survey.py", *(cfg for cfg, _ in SIMS.values()))

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# What one operation is, per workload: for ops_per_s, and for latency.
OP_NAMES = {
    "sim_piecewise": ("orbit_steps_per_s", "simulate command"),
    "sim_symbolic": ("orbit_steps_per_s", "simulate command"),
    "survey": ("systems_per_s", "survey call"),
    "curves": ("curves_per_s", "curve request"),
}


# -- children -------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, argv: list[str], work: Path) -> None:
        out, err = work / "child.out", work / "child.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            killer = threading.Timer(max(1.0, STARTED + RUN_DEADLINE_S - t), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = perf_counter() - t
        # reaped by wait4 above; tell Popen so that it does not wait again
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.stdout = out.read_text(encoding="utf-8", errors="replace")
        self.stderr = err.read_text(encoding="utf-8", errors="replace")


def setup_time(argv: list[str], work: Path, problems: list[str], repeats: int) -> dict:
    """Median wall time of ``repeats`` set-up-only children, after one warm-up.

    The warm-up leaves the compiled modules cached, as they are for any
    user after the first command.  Each child is rescaled by a calibration
    taken just before it.
    """
    walls: list[float] = []
    scaled: list[float] = []
    for i in range(repeats + 1):
        samples: list[float] = []
        calibrate(samples, 5)
        c = Child(argv, work)
        if c.rc != 0:
            problems.append(f"set-up command exited {c.rc}: {c.stderr.strip()[-300:]}")
        if i:
            walls.append(c.wall)
            scaled.append(c.wall / slowdown(samples))
    if not walls:
        return {}
    return {"setup_s": statistics.median(scaled), "wall_setup_s": statistics.median(walls)}


# -- simulate workloads -------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_sim(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Repeat one seeded simulate command; every repeat must write the same bytes."""
    cfg, svg = SIMS[name]
    spec = inputs.read_config(ROOT / cfg)
    start = inputs.sim_start(spec, seed)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[name]
    csv_path, svg_path = work / "orbit.csv", work / "orbit.svg"
    trace_file = work / "trace.json"

    def argv(steps: int, traced: bool = False) -> list[str]:
        head = ([sys.executable, str(BENCH / "traced_cli.py"), str(trace_file)] if traced
                else [sys.executable, "-m", "nrulemaps.cli"])
        tail = ["--svg", str(svg_path)] if svg else []
        # "--start=" keeps a negative x from reading as an option
        return head + ["simulate", "--config", cfg, "--steps", str(steps), f"--start={start}",
                       "--out", str(csv_path)] + tail

    problems: list[str] = []
    setup = setup_time(argv(0), work, problems, 0 if trace else SETUP_REPEATS)
    rep = Replay(1, seconds, trace)
    rss, snaps = [], []
    first: dict = {}
    for _ in rep.schedule():
        for traced in rep.modes:
            for p in (csv_path, svg_path, trace_file):
                p.unlink(missing_ok=True)
            rep.calibrate(5)
            c = Child(argv(SIM_STEPS, traced), work)
            rss.append(c.rss_mb)
            if c.rc not in (0, 2) or not csv_path.exists():
                rep.record(0, c.wall, [f"simulate exited {c.rc}: {c.stderr.strip()[-300:]}"], traced)
                continue
            digest = sha256(csv_path)
            if not first:
                found, executed = checks.check_orbit(spec, SIM_STEPS, c.rc, c.stdout, csv_path,
                                                     svg_path if svg else None)
                if seed == inputs.DEFAULT_SEED and digest != reference["csv_sha256"]:
                    found.append("CSV bytes differ from the reference output of the default seed")
                first = {"digest": digest, "stdout": c.stdout, "steps": executed}
            elif (digest, c.stdout) != (first["digest"], first["stdout"]):
                found = ["a repeat of the command wrote other CSV bytes or printed another summary"]
            else:
                found = []
            if traced:
                if trace_file.exists():
                    snaps.append(json.loads(trace_file.read_text(encoding="utf-8")))
                else:
                    found.append("the traced command wrote no trace")
            rep.record(0, c.wall, found, traced)
    res = {"attempted": rep.attempted, "failed": rep.failed, "problems": problems + rep.problems}
    if not first:
        return res
    summary = rep.summary([first["steps"]])
    res["e2e"] = {"ops_per_s": summary["ops_per_s"],
                  "op_latency_p50_ms": summary["op_latency_p50_ms"],
                  "peak_rss_mb": statistics.median(rss)}
    if setup:
        res["e2e"]["setup_s"] = setup["setup_s"]
    res["detail"] = [("commands run", rep.attempted, f"of {SIM_STEPS} steps, the median timed"),
                     *_wall_detail(summary, setup)]
    if trace and snaps:
        res["layers"] = tracer.per_layer(snaps, len(snaps), rep.traced_total, summary["overhead_frac"])
        res["trace_file"] = snaps[-1]
    return res


def _wall_detail(summary: dict, setup: dict) -> list[tuple]:
    """Table rows with the raw wall-clock numbers behind the rescaled ones."""
    rows = [("slowdown", summary["slowdown"],
             f"calibration loop vs reference, {summary['calibration_samples']} samples"),
            ("wall_ops_per_s", summary["wall_ops_per_s"], "1/s, at the machine's speed"),
            ("wall_op_latency_p50_ms", summary["wall_op_latency_p50_ms"], "ms, at the machine's speed")]
    if setup:
        rows.append(("wall_setup_s", setup["wall_setup_s"], "s, at the machine's speed"))
    return rows


# -- in-process workloads ---------------------------------------------------------------


def run_worker(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    script = [sys.executable, str(BENCH / "worker.py"), "--workload", name]
    problems: list[str] = []
    setup = setup_time(script + ["--setup-only"], work, problems, 0 if trace else SETUP_REPEATS)
    out_file = work / "worker.json"
    c = Child(script + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
                        "--out", str(out_file)], work)
    if c.rc != 0 or not out_file.exists():
        problems.append(f"worker exited {c.rc}: {c.stderr.strip()[-500:]}")
        return {"attempted": 1, "failed": 1, "problems": problems}
    res = json.loads(out_file.read_text(encoding="utf-8"))
    res["problems"] = problems + res["problems"]
    summary = res["summary"]
    res["e2e"] = {"ops_per_s": summary["ops_per_s"],
                  "op_latency_p50_ms": summary["op_latency_p50_ms"],
                  "peak_rss_mb": c.rss_mb}
    if setup:
        res["e2e"]["setup_s"] = setup["setup_s"]
    if name == "survey":
        res["detail"] = [("survey calls run", summary["runs"],
                          f"{worker.SURVEY_CALLS} distinct, {worker.SURVEY_COUNT} systems each")]
    else:
        res["detail"] = [("curve_latency_p50_us", summary["op_latency_p50_ms"] * 1e3, "us"),
                         ("curve_latency_p99_us", res["p99_ms"] * 1e3,
                          f"us, over {worker.CURVE_BATCH} requests"),
                         ("requests run", summary["runs"], f"{res['kinds']}")]
    res["detail"] += _wall_detail(summary, setup)
    if trace:
        res["layers"] = tracer.per_layer([res["trace"]], res["traced_runs"], res["traced_total_s"],
                                         summary["overhead_frac"])
        res["trace_file"] = res.pop("trace")
    return res


# -- environment and reporting ----------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    samples: list[float] = []
    calibrate(samples, 5)
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "nrulemaps").glob("*.py")):
        src.update(p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "calibration_s": statistics.median(samples),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        runner = run_sim if name in SIMS else run_worker
        res = runner(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = res["attempted"], res["failed"]
    print(f"# perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# env " + json.dumps(env))
    for p in res["problems"][:20]:
        print(f"# problem: {p}")
    alias, op = OP_NAMES[name]
    if trace:
        layers = res.get("layers", {})
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in tracer.PER_LAYER}
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"workload": name, "seed": seed, "env": env,
                                          "metrics": layers,
                                          "last_trace": res.get("trace_file")}), encoding="utf-8")
        print(f"# trace written to {trace_path.relative_to(ROOT)}")
    else:
        # a metric a failed run could not measure reads 0; the run is not correct then
        e2e = res.get("e2e", {})
        metrics = {k: {"value": e2e.get(k, 0.0), "unit": u} for k, u in END_TO_END}
    print(f"# {'metric':36s} {'value':>16s}  unit")
    for k, v in metrics.items():
        note = ""
        if k == "ops_per_s":
            note = f"  ({alias})"
        elif k == "op_latency_p50_ms":
            note = f"  (one {op})"
        print(f"# {k:36s} {v['value']:16.6g}  {v['unit']}{note}")
    for label, value, unit in res.get("detail", []):
        shown = f"{value:16.6g}" if isinstance(value, float) else f"{value!s:>16}"
        print(f"# {label:36s} {shown}  {unit}")
    print(f"# {'failed_frac':36s} {failed / max(1, attempted):16.6g}  ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0 and not res["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child of its own; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        rc = rc or proc.returncode
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a complete nrulemaps checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
