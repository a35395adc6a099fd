"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The checks recompute what the program claims from the
benchmark's own arithmetic, so they hold on any seed.
"""

from __future__ import annotations

import csv
import math
import re
from xml.etree import ElementTree as ET

import numpy as np

from inputs import CurveRequest, SystemSpec

ORBIT_HEADER = ["step", "x", "y", "rule_index", "carrier", "flag"]
# On-line and re-projection tolerance, relative to max(1, |coordinates|).
POINT_TOL = 1e-9
# Incidence angle of a step against its target line, radians.
ANGLE_TOL = 1e-7
# Points one printed period apart in the converged tail.
PERIOD_TOL = 1e-6
CURVE_TOL = 1e-6

_CONVERGED = re.compile(r"converged: period (\d+) \(cycle of (\d+) points from step (\d+)\)")


def read_orbit_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_orbit(spec: SystemSpec, steps: int, rc: int, stdout: str, csv_path,
                svg_path=None) -> tuple[list[str], int]:
    """Check one ``simulate`` run; returns (problems, steps executed)."""
    problems: list[str] = []
    header, rows = read_orbit_csv(csv_path)
    if header != ORBIT_HEADER:
        return [f"CSV header {header!r}"], 0
    tie = bool(rows) and rows[-1][5] == "tie_hit"
    if rc not in (0, 2) or (rc == 2) != tie:
        problems.append(f"exit code {rc} with tie row {tie}")
    body = rows[:-1] if tie else rows
    executed = len(body) - 1
    if executed != steps and not tie:
        problems.append(f"{len(body)} orbit rows for {steps} steps")
    if executed < 0:
        return problems + ["empty orbit"], 0
    if set(map(len, body)) != {len(ORBIT_HEADER)}:
        return problems + ["a row has the wrong number of fields"], 0
    cols = list(zip(*body))
    try:
        step = np.array(cols[0], dtype=np.int64)
        pts = np.column_stack((np.array(cols[1], dtype=float), np.array(cols[2], dtype=float)))
        rule = np.array(cols[3], dtype=np.int64)
    except ValueError as e:
        return problems + [f"unparsable row: {e}"], 0
    carriers, flags = list(cols[4]), list(cols[5])
    if not np.array_equal(step, np.arange(len(body))):
        problems.append("step column is not 0, 1, 2, ...")
    if not np.isfinite(pts).all():
        problems.append("non-finite coordinates")
        return problems, executed

    lines = {ln.label: ln for ln in spec.lines}
    unknown = sorted(set(carriers) - set(lines))
    if unknown:
        return problems + [f"unknown carrier labels {unknown[:3]}"], executed
    labels = sorted(lines)
    col = {lb: j for j, lb in enumerate(labels)}
    nrm = np.array([lines[lb].normal for lb in labels])
    off = np.array([lines[lb].offset for lb in labels])
    dirs = np.array([lines[lb].direction for lb in labels])
    cidx = np.array([col[c] for c in carriers])
    scale = np.maximum(1.0, np.abs(pts).max(axis=1))

    # every point lies on its carrier
    w_on = np.einsum("ij,ij->i", pts, nrm[cidx]) - off[cidx]
    if (np.abs(w_on) > POINT_TOL * scale).any():
        problems.append(f"{int((np.abs(w_on) > POINT_TOL * scale).sum())} points off their carrier")

    n = len(spec.thetas)
    if executed:
        k = np.arange(executed) % n
        if rule[0] != -1 or not np.array_equal(rule[1:], k):
            problems.append("rule_index column does not cycle 0..n-1")
        prev, cur, tgt = pts[:-1], pts[1:], cidx[1:]
        if spec.mode == "symbolic":
            want = np.array([col[spec.targets[i]] for i in k])
            if not np.array_equal(tgt, want):
                problems.append("a step landed on another line than its rule's target")
        else:
            # the target is the rank-r line as measured from the previous point
            dist = np.abs(prev @ nrm.T - off)
            ranked = np.sort(dist, axis=1)
            rank = np.array(spec.targets)[k]
            d_rank = ranked[np.arange(executed), rank - 1]
            d_tgt = dist[np.arange(executed), tgt]
            if (np.abs(d_tgt - d_rank) > POINT_TOL * scale[:-1]).any():
                problems.append("a step landed on another line than its rank's")
        theta = np.array(spec.thetas)[k]
        orient = np.array(spec.orientations)[k]
        # the step meets its target line at the rule's angle ...
        seg = cur - prev
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        moved = seglen > 1e-12
        cosang = np.abs(np.einsum("ij,ij->i", seg, dirs[tgt]))[moved] / seglen[moved]
        ang = np.arccos(np.minimum(1.0, cosang))
        if (np.abs(ang - theta[moved]) > ANGLE_TOL).any():
            problems.append(f"{int((np.abs(ang - theta[moved]) > ANGLE_TOL).sum())} steps miss their angle")
        # ... on the side its orientation picks
        w = np.einsum("ij,ij->i", prev, nrm[tgt]) - off[tgt]
        foot = prev - w[:, None] * nrm[tgt]
        shift = np.where(orient == 0, 1.0, -1.0) * w / np.tan(theta)
        expect = foot + shift[:, None] * dirs[tgt]
        off_by = np.hypot(*(expect - cur).T)
        if (off_by > POINT_TOL * scale[1:]).any():
            problems.append(f"{int((off_by > POINT_TOL * scale[1:]).sum())} steps disagree with the projection")

    # the converged flags agree with the printed period
    m = _CONVERGED.search(stdout)
    if m:
        period, cycle, onset = map(int, m.groups())
        want = ["ok"] * min(onset, len(body)) + ["converged"] * max(0, len(body) - onset)
        if cycle != period or period % n or onset > executed:
            problems.append(f"inconsistent summary {m.group(0)!r}")
        if flags != want:
            problems.append("converged flags disagree with the printed onset")
        tail = pts[onset:]
        if len(tail) > period and (np.hypot(*(tail[period:] - tail[:-period]).T) > PERIOD_TOL).any():
            problems.append("the converged tail does not repeat with the printed period")
    elif "no period confirmed" in stdout or (tie and "degenerate" in stdout):
        if any(f != "ok" for f in flags):
            problems.append("flags other than ok without a confirmed period")
    else:
        problems.append(f"unexpected summary {stdout.strip()!r}")

    if svg_path is not None:
        problems += check_orbit_svg(svg_path, pts)
    return problems, executed


def check_orbit_svg(path, pts: np.ndarray) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        return [f"SVG does not parse: {e}"]
    poly = root.find("{http://www.w3.org/2000/svg}polyline")
    if poly is None:
        return ["SVG has no orbit polyline"] if len(pts) >= 2 else []
    xy = np.array([tuple(map(float, p.split(","))) for p in poly.get("points").split()])
    if xy.shape != pts.shape:
        return [f"SVG polyline has {len(xy)} points for {len(pts)} orbit points"]
    # printed with 10 significant digits, y negated
    err = np.abs(xy - pts * np.array([1.0, -1.0]))
    if (err > 1e-9 * np.maximum(1.0, np.abs(pts))).any():
        return ["SVG polyline disagrees with the CSV"]
    return []


# -- survey ------------------------------------------------------------------

_SURVEY = [
    re.compile(r"systems: (\d+)   degenerate ties: (\d+)   unresolved: (\d+)"),
    re.compile(r"period multiple k: mean (\d+\.\d\d)  max (\d+)"),
    re.compile(r"onset step: median (\d+)  p90 (\d+)"),
]
_GROUP = re.compile(r"margin (<|>=) 10 deg: (\d+) systems, median onset (\d+)")


def check_survey(text: str, count: int) -> list[str]:
    """Parse a contraction-survey summary and check it is self-consistent."""
    lines = text.splitlines()
    if len(lines) < 4:
        return [f"survey printed {len(lines)} lines"]
    parsed = []
    for pat, line in zip(_SURVEY, lines):
        m = pat.fullmatch(line)
        if not m:
            return [f"unexpected survey line {line!r}"]
        parsed.append(m.groups())
    (systems, _, _), (k_mean, k_max), (onset_med, onset_p90) = parsed
    problems = []
    if int(systems) != count:
        problems.append(f"survey of {count} systems reports {systems}")
    if not 1.0 <= float(k_mean) <= int(k_max):
        problems.append(f"period multiple mean {k_mean} outside [1, {k_max}]")
    if int(onset_med) > int(onset_p90):
        problems.append(f"onset median {onset_med} above p90 {onset_p90}")
    groups = [_GROUP.fullmatch(line) for line in lines[3:]]
    if not groups or not all(groups):
        problems.append("unexpected margin-group lines")
    elif sum(int(g.group(2)) for g in groups) != count:
        problems.append("margin groups do not add up to the survey size")
    return problems


# -- closed curves ------------------------------------------------------------


def check_curve(req: CurveRequest, curve, verified: bool) -> list[str]:
    """The curve realises the requested angles against the requested lines."""
    if not verified:
        return ["verify_incidence rejected the curve"]
    n = len(req.labels)
    if len(curve.vertices) != n or tuple(curve.carrier_labels) != req.labels:
        return ["curve does not follow the requested labels"]
    lines = {ln.label: ln for ln in req.lines}
    for k in range(n):
        ln = lines[req.labels[k]]
        v, u = curve.vertices[k], curve.vertices[k - 1]
        (nx, ny), (dx, dy) = ln.normal, ln.direction
        if abs(v.x * nx + v.y * ny - ln.offset) > CURVE_TOL:
            return [f"vertex {k} off line {ln.label}"]
        sx, sy = v.x - u.x, v.y - u.y
        norm = math.hypot(sx, sy)
        if norm <= 1e-9:
            return [f"vertices {k - 1} and {k} coincide"]
        ang = math.acos(min(1.0, abs(sx * dx + sy * dy) / norm))
        if abs(ang - req.angles[k]) > CURVE_TOL:
            return [f"vertex {k} meets its line at {ang}, not {req.angles[k]}"]
    return []
