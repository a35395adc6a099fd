"""Call tracing for the traced benchmark run.

The tracer replaces functions of the program, by the name each caller
looks them up under, with wrappers that time the call.  Coarse calls
(one per command, orbit, curve or survey system) become spans with a
parent; per-step calls (``project``, ``symbolic.step``) are folded into
per-name totals so that memory stays bounded however long the orbit is.

Every wrapper pushes a frame on one stack, so a frame's self time is its
duration minus the time of the frames it encloses, spans and per-step
calls alike.  Counting done after a call (near-tie steps, bytes written)
is bookkeeping: its time is charged to ``trace.bookkeeping`` and not to
the caller's self time.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter

# Span records kept for the trace file; totals keep counting past this.
MAX_SPAN_RECORDS = 2000

# Layers reported with a self time: the program's modules, the survey
# script, and the benchmark's own code plus the interpreter around it.
LAYERS = ("cli", "config", "geometry", "piecewise", "symbolic", "curves", "emit",
          "survey", "bench")


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf_counter()
        # frame: [time covered by child frames, id of the enclosing span]
        self.stack: list[list] = [[0.0, None]]
        self.totals: dict[str, list[float]] = {}  # name -> [calls, busy_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_count = 0
        self.restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _account(self, name: str, frame: list, dt: float) -> None:
        self.stack[-1][0] += dt
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dt
        tot[2] += dt - frame[0]

    def bookkeeping(self, fn, *args) -> None:
        """Run a counting hook without charging its time to any layer."""
        t = perf_counter()
        fn(*args)
        dt = perf_counter() - t
        self.stack[-1][0] += dt
        tot = self.totals.setdefault("trace.bookkeeping", [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dt
        tot[2] += dt

    def wrap(self, fn, name: str, span: bool = False, after=None):
        """A stand-in for ``fn`` that records each call under ``name``.

        ``after(result, args, kwargs)`` runs as bookkeeping once the call
        returns.
        """
        tracer = self

        if span:
            def wrapper(*args, **kwargs):
                stack = tracer.stack
                tracer.span_count += 1
                sid = tracer.span_count
                parent = stack[-1][1]
                frame = [0.0, sid]
                stack.append(frame)
                t = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer._account(name, frame, end - t)
                    if len(tracer.spans) < MAX_SPAN_RECORDS:
                        tracer.spans.append((sid, parent, name, t - tracer.t0, end - tracer.t0))
                if after is not None:
                    tracer.bookkeeping(after, result, args, kwargs)
                return result
        else:
            def wrapper(*args, **kwargs):
                stack = tracer.stack
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t
                    stack.pop()
                    tracer._account(name, frame, dt)
                if after is not None:
                    tracer.bookkeeping(after, result, args, kwargs)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owners, attr: str, name: str, span: bool = False, after=None) -> None:
        """Replace ``attr`` on every owner (module or class) that holds it.

        All owners get one shared wrapper around the original function,
        so a call is recorded once whichever name it came through.
        """
        owners = [o for o in owners if o is not None and attr in vars(o)]
        if not owners:
            raise AttributeError(f"nothing to patch for {name}: no owner holds {attr!r}")
        original = vars(owners[0])[attr]
        wrapper = self.wrap(original, name, span, after)
        for o in owners:
            self.restore.append((o, attr, vars(o)[attr]))
            setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        while self.restore:
            owner, attr, value = self.restore.pop()
            setattr(owner, attr, value)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "totals": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.totals.items())},
            "counters": dict(self.counters),
            "root_child_s": self.stack[0][0],
            "spans_recorded": len(self.spans),
            "spans_total": self.span_count,
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "start_s": s[3], "end_s": s[4]}
                      for s in self.spans],
        }


# -- per-layer metrics ---------------------------------------------------------

# (name, unit) of every per-layer metric, in report order.  Counts and
# times are per operation of the workload: one simulate command, one
# survey call, or one curve request.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("config.load_config.busy_s", "s"),
    ("geometry.project.calls", "count"),
    ("geometry.project.busy_s", "s"),
    ("geometry.Arrangement.calls", "count"),
    ("geometry.Arrangement.busy_s", "s"),
    ("piecewise.iterate_piecewise.busy_s", "s"),
    ("piecewise.steps", "count"),
    ("piecewise.near_tie_steps", "count"),
    ("piecewise.detect_periodic.calls", "count"),
    ("piecewise.detect_periodic.busy_s", "s"),
    ("piecewise.useful_step_ratio", "ratio"),
    ("piecewise.converged_ratio", "ratio"),
    ("symbolic.step.calls", "count"),
    ("symbolic.step.busy_s", "s"),
    ("symbolic.cycle_affine.calls", "count"),
    ("symbolic.periodic_orbit.busy_s", "s"),
    ("curves.build_closed_curve.busy_s", "s"),
    ("curves.verify_incidence.busy_s", "s"),
    ("curves.repair_flips", "count"),
    ("curves.first_pass_ratio", "ratio"),
    ("emit.write_orbit_csv.busy_s", "s"),
    ("emit.csv_bytes", "bytes"),
    ("emit.write_orbit_svg.busy_s", "s"),
    ("emit.svg_bytes", "bytes"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli") + (
    ("trace.bookkeeping_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
)


def merge(snapshots) -> tuple[dict, dict, float]:
    """Summed totals, counters and root child time of several snapshots."""
    totals: dict[str, list[float]] = {}
    counters: Counter = Counter()
    root = 0.0
    for snap in snapshots:
        for name, t in snap["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += t["calls"]
            acc[1] += t["busy_s"]
            acc[2] += t["self_s"]
        counters.update(snap["counters"])
        root += snap["root_child_s"]
    return totals, counters, root


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(snapshots, ops: int, traced_total_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics from the traces of ``ops`` traced operations.

    ``traced_total_s`` is the summed wall time of those operations and
    ``overhead_frac`` the tracing overhead measured against the same
    inputs run untraced.  Time of a traced operation outside every
    recorded frame (the interpreter's start and exit, importing the
    program) is charged to ``bench``.
    """
    if not ops:
        return {name: 0.0 for name, _ in PER_LAYER}
    totals, c, root = merge(snapshots)

    def get(name: str, i: int) -> float:
        return totals.get(name, (0, 0.0, 0.0))[i] / ops

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s / ops
    layer_self["bench"] += (traced_total_s - root) / ops
    m = {
        "cli.main.self_s": get("cli.main", 2),
        "config.load_config.busy_s": get("config.load_config", 1),
        "geometry.project.calls": get("geometry.project", 0),
        "geometry.project.busy_s": get("geometry.project", 1),
        "geometry.Arrangement.calls": get("geometry.Arrangement", 0),
        "geometry.Arrangement.busy_s": get("geometry.Arrangement", 1),
        "piecewise.iterate_piecewise.busy_s": get("piecewise.iterate_piecewise", 1),
        "piecewise.steps": c["piecewise.steps"] / ops,
        "piecewise.near_tie_steps": c["piecewise.near_tie_steps"] / ops,
        "piecewise.detect_periodic.calls": get("piecewise.detect_periodic", 0),
        "piecewise.detect_periodic.busy_s": get("piecewise.detect_periodic", 1),
        "piecewise.useful_step_ratio": _ratio(c["piecewise.useful_steps"], c["piecewise.steps"]),
        "piecewise.converged_ratio": _ratio(c["piecewise.detections"], c["piecewise.orbits"]),
        "symbolic.step.calls": get("symbolic.step", 0),
        "symbolic.step.busy_s": get("symbolic.step", 1),
        "symbolic.cycle_affine.calls": get("symbolic.cycle_affine", 0),
        "symbolic.periodic_orbit.busy_s": get("symbolic.periodic_orbit", 1),
        "curves.build_closed_curve.busy_s": get("curves.build_closed_curve", 1),
        "curves.verify_incidence.busy_s": get("curves.verify_incidence", 1),
        "curves.repair_flips": get("symbolic.with_flipped", 0),
        "curves.first_pass_ratio": _ratio(c["curves.first_pass"], c["curves.built"]),
        "emit.write_orbit_csv.busy_s": get("emit.write_orbit_csv", 1),
        "emit.csv_bytes": c["emit.csv_bytes"] / ops,
        "emit.write_orbit_svg.busy_s": get("emit.write_orbit_svg", 1),
        "emit.svg_bytes": c["emit.svg_bytes"] / ops,
    }
    for layer, v in layer_self.items():
        if layer != "cli":
            m[f"{layer}.self_s"] = v
    m["trace.bookkeeping_s"] = get("trace.bookkeeping", 1)
    m["trace.overhead_frac"] = overhead_frac
    untraced_per_op = traced_total_s / ops / (1.0 + overhead_frac)
    m["trace.accounted_frac"] = sum(layer_self.values()) / untraced_per_op
    return m


# -- the program's instrumentation points ------------------------------------


def _orbit_counts(tracer: Tracer):
    def after(orbit, args, kwargs):
        c = tracer.counters
        c["piecewise.orbits"] += 1
        c["piecewise.steps"] += len(orbit.points) - 1
        c["piecewise.near_tie_steps"] += sum(1 for s in orbit.steps if s.near_tie)
    return after


def _detect_counts(tracer: Tracer):
    def after(result, args, kwargs):
        if result is None:
            return
        confirmations = kwargs.get("confirmations", args[4] if len(args) > 4 else 3)
        c = tracer.counters
        c["piecewise.detections"] += 1
        c["piecewise.useful_steps"] += result.onset_step + result.period * confirmations
    return after


def _bytes_written(tracer: Tracer, key: str):
    def after(result, args, kwargs):
        tracer.counters[key] += os.path.getsize(args[0])
    return after


def _count_first_pass(tracer: Tracer, owners) -> None:
    """Count curves built without a single orientation flip."""
    traced_build = vars(owners[0])["build_closed_curve"]

    def build_closed_curve(*args, **kwargs):
        flips = tracer.totals.get("symbolic.with_flipped", (0,))[0]
        curve = traced_build(*args, **kwargs)
        tracer.counters["curves.built"] += 1
        if tracer.totals.get("symbolic.with_flipped", (0,))[0] == flips:
            tracer.counters["curves.first_pass"] += 1
        return curve

    for o in owners:
        setattr(o, "build_closed_curve", build_closed_curve)


def install(tracer: Tracer, survey_module=None) -> None:
    """Wrap the program's public calls under every name they are used by.

    ``cli`` imports ``load_config`` by name, ``piecewise`` and
    ``symbolic`` import ``project`` by name, ``curves`` imports
    ``cycle_affine`` and ``periodic_orbit`` by name, and the survey script
    imports ``iterate_piecewise``, ``detect_periodic`` and ``acc_check``
    by name; each of those bindings is patched.
    """
    import nrulemaps
    from nrulemaps import cli, config, curves, emit, geometry, piecewise, symbolic

    pkg, sv = nrulemaps, survey_module
    t = tracer
    t.patch([cli, config, pkg], "load_config", "config.load_config", span=True)
    t.patch([geometry, piecewise, symbolic, pkg], "project", "geometry.project")
    t.patch([geometry.Arrangement], "__post_init__", "geometry.Arrangement")
    t.patch([piecewise, pkg, sv], "iterate_piecewise", "piecewise.iterate_piecewise",
            span=True, after=_orbit_counts(t))
    t.patch([piecewise, pkg, sv], "detect_periodic", "piecewise.detect_periodic",
            span=True, after=_detect_counts(t))
    t.patch([piecewise, pkg, sv], "acc_check", "piecewise.acc_check")
    t.patch([symbolic, pkg], "step", "symbolic.step")
    t.patch([symbolic, curves, pkg], "cycle_affine", "symbolic.cycle_affine")
    t.patch([symbolic, curves, pkg], "periodic_orbit", "symbolic.periodic_orbit")
    t.patch([symbolic.SymbolicNRuleMap], "with_flipped", "symbolic.with_flipped")
    t.patch([curves, pkg], "build_closed_curve", "curves.build_closed_curve", span=True)
    _count_first_pass(t, [curves, pkg])
    t.patch([curves, pkg], "verify_incidence", "curves.verify_incidence", span=True)
    t.patch([emit], "write_orbit_csv", "emit.write_orbit_csv", span=True,
            after=_bytes_written(t, "emit.csv_bytes"))
    t.patch([emit], "write_orbit_svg", "emit.write_orbit_svg", span=True,
            after=_bytes_written(t, "emit.svg_bytes"))
    if sv is not None:
        t.patch([sv], "sample_system", "survey.sample_system", span=True)
