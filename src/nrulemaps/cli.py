"""Command-line driver: simulate, build-curve, analyze.

Exit codes: 0 success, 1 validation or parse failure, 2 degenerate
termination (a distance tie stopped the orbit), 3 no convergence when
--require-convergence was requested, 4 escape (a step left the
floating-point range; the orbit up to its last finite point is written).
"""

from __future__ import annotations

import argparse
import csv
import math
import random
import sys
from itertools import chain
from typing import Iterator, Optional, Sequence

from . import curves, emit, piecewise, symbolic
from .config import SystemConfig, load_config
from .errors import InvalidSpec, NonFinitePoint, NRuleMapError
from .geometry import Point
from .piecewise import PiecewiseNRuleMap
from .symbolic import SymbolicNRuleMap


def _default_start(cfg: SystemConfig) -> Point:
    """Seed-deterministic start on a line of the arrangement."""
    rng = random.Random(cfg.seed if cfg.seed is not None else 0)
    arr = cfg.arrangement
    line = arr.lines[rng.randrange(len(arr.lines))]
    return line.point_at(rng.uniform(-3.0, 3.0))


def _parse_start(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidSpec(f"--start expects 'x,y', got {text!r}")
    try:
        return Point(float(parts[0]), float(parts[1]))
    except ValueError as e:
        raise InvalidSpec(f"--start: {e}") from e


def _orbit_records(
    orbit: piecewise.PiecewiseOrbit, carrier0: str, onset: int
) -> Iterator[emit.OrbitRecord]:
    """CSV rows of an orbit, made one at a time as the writer consumes them.

    Row 0 is the start on ``carrier0``; points from ``onset`` on are
    flagged converged, and the last point of an escaped orbit escaped.
    """
    points = orbit.points
    last = len(points) - 1 if orbit.escaped else -1
    rows = chain([(-1, carrier0)], ((s.rule_index, s.target) for s in orbit.steps if not s.tie))
    for i, (p, (rule_index, carrier)) in enumerate(zip(points, rows)):
        flag = "escaped" if i == last else "converged" if i >= onset else "ok"
        yield emit.OrbitRecord(i, p.x, p.y, rule_index, carrier, flag)
    if orbit.terminated_degenerate:
        p = points[-1]
        yield emit.OrbitRecord(len(points), p.x, p.y, orbit.steps[-1].rule_index, "", "tie_hit")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    arr = cfg.arrangement
    m = cfg.nrule_map
    if args.steps < 0:
        raise InvalidSpec(f"--steps must be nonnegative, got {args.steps}")
    start = _parse_start(args.start) if args.start else _default_start(cfg)
    orbit = piecewise.iterate(m, start, args.steps)  # rejects a start off the arrangement
    points = orbit.points
    detection = None
    if not (orbit.terminated_degenerate or orbit.escaped) and len(points) > m.n:
        detection = piecewise.detect_periodic(points, m.n, tol=1e-8, k_max=64)

    onset = detection.onset_step if detection is not None else len(points)
    emit.write_orbit_csv(args.out, _orbit_records(orbit, arr.carrier_of(start).label, onset))
    if args.svg:
        try:
            emit.write_orbit_svg(
                args.svg, arr, points, detection.cycle_points if detection else None
            )
        except NonFinitePoint:
            print("note: no SVG written, the drawing overflows the floating-point range",
                  file=sys.stderr)

    if orbit.terminated_degenerate:
        print(f"degenerate: orbit hit a distance tie after {len(points) - 1} steps")
        return 2
    if orbit.escaped:
        print(f"escaped: step {len(points)} left the floating-point range; "
              f"the orbit stops at step {len(points) - 1}")
        return 4
    if detection is not None:
        print(
            f"converged: period {detection.period} "
            f"(cycle of {len(detection.cycle_points)} points from step {detection.onset_step})"
        )
    else:
        print("no period confirmed within the recorded orbit")
        if args.require_convergence:
            return 3
    return 0


def _cmd_build_curve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.mode != "symbolic":
        raise InvalidSpec("build-curve needs a symbolic config")
    try:
        angles_deg = [float(a) for a in args.angles.split(",")]
    except ValueError as e:
        raise InvalidSpec(f"--angles: {e}") from e
    labels = [s.strip() for s in args.labels.split(",")]
    angles = [math.radians(a) for a in angles_deg]
    curve = curves.build_closed_curve(cfg.arrangement, angles, labels)
    emit.write_curve_csv(args.out, curve)
    if args.svg:
        emit.write_curve_svg(args.svg, curve)
    worst = max(
        abs(curve.realized_angles[k] - angles[k]) for k in range(curve.n)
    )
    print(f"closed curve with {curve.n} vertices; max angle deviation {worst:.3e} rad")
    return 0


def _analyze_symbolic(m: SymbolicNRuleMap, rows: list[tuple]) -> None:
    arr = m.arrangement
    coeffs = []
    for i, rule in enumerate(m.rules):
        src = arr.line(m.carrier_label(i))
        tgt = arr.line(rule.target)
        try:
            c = symbolic.similarity_coefficient(rule, src, tgt)
            ctext = f"{c:.9g}"
        except NRuleMapError:
            c = abs(m.rule_affines[i].scale)
            ctext = f"{c:.9g} (parallel pair, probe value)"
        coeffs.append(c)
        rows.append(("rule", i, "theta_deg", f"{math.degrees(rule.theta):.9g}"))
        rows.append(("rule", i, "orientation", str(rule.orientation)))
        rows.append(("rule", i, "maps", f"{src.label}->{tgt.label}"))
        rows.append(("rule", i, "coefficient", ctext))
    aff = symbolic.cycle_affine(m)
    rows.append(("cycle", "", "coefficient", f"{abs(aff.scale):.9g}"))
    rows.append(("cycle", "", "scale", f"{aff.scale:.9g}"))
    rows.append(("cycle", "", "shift", f"{aff.shift:.9g}"))
    culprits = list(m.collapsing_rule_indices)
    collapsing = "true" if culprits else "false"
    if culprits:
        collapsing += f" (rule {', '.join(str(i) for i in culprits)})"
    rows.append(("cycle", "", "collapsing", collapsing))
    try:
        fp = symbolic.induced_fixed_point(m)
        rows.append(("cycle", "", "fixed_point", f"({fp.x:.9g}, {fp.y:.9g})"))
    except NRuleMapError:
        rows.append(("cycle", "", "fixed_point", "none (neutral cycle, scale 1)"))


def _analyze_piecewise(m: PiecewiseNRuleMap, rows: list[tuple]) -> None:
    rep = piecewise.acc_check(m)
    delta = rep.delta
    for i, rule in enumerate(m.rules):
        rows.append(("rule", i, "theta_deg", f"{math.degrees(rule.theta):.9g}"))
        rows.append(("rule", i, "orientation", str(rule.orientation)))
        rows.append(("rule", i, "rank", str(rule.rank)))
        away = piecewise.separation_factor(rule.theta, delta)
        toward = abs(math.sin(rule.theta - delta)) / math.sin(rule.theta)
        rows.append(("rule", i, "separation_away", f"{away:.9g}"))
        rows.append(("rule", i, "separation_toward", f"{toward:.9g}"))
    rows.append(("acc", "", "delta_deg", f"{math.degrees(delta):.9g}"))
    rows.append(("acc", "", "mean_theta_deg", f"{math.degrees(rep.mean_theta):.9g}"))
    verdict = "satisfied" if rep.satisfied else "not satisfied"
    rows.append(("acc", "", "verdict", f"{verdict}, margin {math.degrees(rep.margin):.9g} deg"))
    for j, ip in enumerate(piecewise.invariant_points(m)):
        rows.append(("invariant_point", j, "location", f"({ip.location.x:.9g}, {ip.location.y:.9g})"))
        rows.append(("invariant_point", j, "kind", ip.kind.value))
        rows.append(("invariant_point", j, "rules", ",".join(str(i) for i in sorted(ip.rules_affected))))


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    m = cfg.nrule_map
    rows: list[tuple] = [("system", "", "mode", cfg.mode),
                         ("system", "", "lines", str(len(cfg.arrangement.lines))),
                         ("system", "", "rules", str(len(cfg.rules)))]
    if isinstance(m, SymbolicNRuleMap):
        _analyze_symbolic(m, rows)
    else:
        _analyze_piecewise(m, rows)
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(("section", "index", "name", "value"))
        w.writerows(rows)
    else:
        for section, idx, name, value in rows:
            tag = f"{section}[{idx}]" if idx != "" else section
            print(f"{tag:>20s}  {name}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrulemaps",
        description="Simulate and analyze cycling projection maps over line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="iterate a configured map; write the orbit as CSV")
    sim.add_argument("--config", required=True, help="JSON system config")
    sim.add_argument("--steps", type=int, required=True, help="number of rule applications")
    sim.add_argument("--start", help="start point 'x,y' on the arrangement (default: seeded)")
    sim.add_argument("--out", required=True, help="orbit CSV output path")
    sim.add_argument("--svg", help="optional SVG rendering of the run")
    sim.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit 3 when no periodic tail is confirmed",
    )

    bc = sub.add_parser("build-curve", help="synthesize a closed curve over a symbolic config")
    bc.add_argument("--config", required=True)
    bc.add_argument("--angles", required=True, help="comma-separated incidence angles in degrees")
    bc.add_argument("--labels", required=True, help="comma-separated carrier line labels")
    bc.add_argument("--out", required=True, help="vertex CSV output path")
    bc.add_argument("--svg", help="optional SVG rendering of the curve")

    an = sub.add_parser("analyze", help="report coefficients, collapse, contraction, invariant points")
    an.add_argument("--config", required=True)
    an.add_argument("--format", choices=("text", "csv"), default="text")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # keep argparse's 0 for --help; fold usage errors into the
        # validation exit code so 2 stays reserved for degenerate runs
        return 0 if e.code in (0, None) else 1
    handler = {"simulate": _cmd_simulate, "build-curve": _cmd_build_curve, "analyze": _cmd_analyze}
    try:
        return handler[args.command](args)
    except (NRuleMapError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
