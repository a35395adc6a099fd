"""In-process workloads (survey, curves), each run in its own child process.

Usage: python3 perfbench/worker.py --workload survey|curves --seed N
           --seconds S --trace 0|1 --out RESULT.json
       python3 perfbench/worker.py --workload survey|curves --setup-only

``run.py`` starts this script; ``--setup-only`` stops once the program
is imported, which is what the set-up time measures.  A run replays a
fixed, seeded set of inputs (see replay.py).  The result file holds the
operations attempted and failed, the timing summary, and with
``--trace 1`` the tracer's totals.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from replay import Replay

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Distinct survey calls per run, and converged systems per call; a call
# costs about a second.
SURVEY_CALLS = 8
SURVEY_COUNT = 2
# Distinct curve requests per run; each is replayed about fifteen times.
CURVE_BATCH = 4000
# Curve requests between two calibrations (about 100 ms of work).
CALIBRATE_EVERY = 400


def survey_seed(seed: int, call: int) -> int:
    """Seed of the call-th survey of a run; call 0 of seed s is seed 1000*s."""
    return seed * 1000 + call


def load_survey_module():
    path = ROOT / "scripts" / "contraction_survey.py"
    spec = importlib.util.spec_from_file_location("contraction_survey", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _error(e: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(e), e)).strip()


def _result(rep: Replay, work: list[float], tracer) -> dict:
    out = {"attempted": rep.attempted, "failed": rep.failed, "problems": rep.problems,
           "summary": rep.summary(work)}
    if tracer:
        out["trace"] = tracer.snapshot()
        out["traced_runs"] = rep.traced_runs
        out["traced_total_s"] = rep.traced_total
    return out


def run_survey(args, tracer_mod) -> dict:
    import checks
    import inputs

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["survey"]["summary"]
    survey = load_survey_module()
    seeds = [survey_seed(args.seed, k) for k in range(SURVEY_CALLS)]
    rep = Replay(len(seeds), args.seconds, bool(args.trace))
    tracer = tracer_mod.Tracer() if args.trace else None
    texts: dict[int, str] = {}
    for i in rep.schedule():
        rep.calibrate(5)
        for traced in rep.modes:
            run = survey.run
            if traced:
                tracer_mod.install(tracer, survey)
                run = tracer.wrap(survey.run, "survey.run", span=True)
            buf = io.StringIO()
            problems = []
            t = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    run(SURVEY_COUNT, seeds[i])
            except Exception as e:  # one failed survey must not end the run
                problems = [f"survey seed {seeds[i]} raised {_error(e)}"]
            wall = perf_counter() - t
            if traced:
                tracer.uninstall()
            text = buf.getvalue()
            if i not in texts:
                texts[i] = text
                problems = problems or checks.check_survey(text, SURVEY_COUNT)
                if i == 0 and args.seed == inputs.DEFAULT_SEED and text != reference:
                    problems.append("survey summary differs from the reference of the default seed")
            elif text != texts[i]:
                problems.append(f"survey seed {seeds[i]} printed another summary than before")
            rep.record(i, wall, problems, traced)
    return _result(rep, [SURVEY_COUNT] * len(seeds), tracer)


def run_curves(args, tracer_mod) -> dict:
    import checks
    import inputs
    import nrulemaps
    from nrulemaps import Arrangement, Line

    requests = inputs.curve_requests(args.seed, CURVE_BATCH)

    def op(req):
        # package attributes are looked up per call, so a traced run sees the stand-ins
        arr = Arrangement.symbolic([Line(ln.angle, ln.offset, ln.label) for ln in req.lines])
        curve = nrulemaps.build_closed_curve(arr, req.angles, req.labels)
        return curve, nrulemaps.verify_incidence(curve, req.angles, req.labels, checks.CURVE_TOL)

    rep = Replay(len(requests), args.seconds, bool(args.trace))
    tracer = tracer_mod.Tracer() if args.trace else None
    traced_op = tracer.wrap(op, "bench.curve", span=True) if tracer else None
    vertices: dict[int, tuple] = {}
    for n, i in enumerate(rep.schedule()):
        if n % CALIBRATE_EVERY == 0:
            rep.calibrate(3)
        req = requests[i]
        for traced in rep.modes:
            if traced:
                tracer_mod.install(tracer)
            curve = None
            t = perf_counter()
            try:
                curve, verified = (traced_op if traced else op)(req)
            except Exception as e:  # one failed request must not end the run
                err = e
            wall = perf_counter() - t
            if traced:
                tracer.uninstall()
            if curve is None:
                problems = [_error(err)]
            elif i not in vertices:
                vertices[i] = curve.vertices
                problems = checks.check_curve(req, curve, verified)
            elif curve.vertices != vertices[i] or not verified:
                problems = ["the curve differs from the first one built for this request"]
            else:
                problems = []
            rep.record(i, wall, [f"{req.kind} request {i}: {p}" for p in problems], traced)
    out = _result(rep, [1.0] * len(requests), tracer)
    scaled = sorted(rep.times(rep.scaled))
    out["p99_ms"] = scaled[int(0.99 * len(scaled))] * 1e3
    out["kinds"] = {k: sum(r.kind == k for r in requests) for k in ("random", "neutral", "collapsing")}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("survey", "curves"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import nrulemaps

    if not Path(nrulemaps.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nrulemaps imported from {nrulemaps.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        if args.workload == "survey":
            load_survey_module()
        return 0

    import tracer as tracer_mod

    result = (run_survey if args.workload == "survey" else run_curves)(args, tracer_mod)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
