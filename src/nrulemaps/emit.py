"""CSV and SVG emitters for orbits and closed curves."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union
from xml.etree import ElementTree as ET

from .curves import ClosedCurve
from .errors import NonFinitePoint
from .geometry import Arrangement, Line, Point

ORBIT_FIELDS = ("step", "x", "y", "rule_index", "carrier", "flag")
CURVE_FIELDS = ("k", "x", "y", "carrier", "realized_angle_deg")
ORBIT_COLOR = "#1f77b4"
CYCLE_COLOR = "#d62728"


@dataclass(frozen=True)
class OrbitRecord:
    """One CSV row of a simulated orbit."""

    step: int
    x: float
    y: float
    rule_index: int
    carrier: str
    flag: str  # "ok" | "converged" | "tie_hit" | "escaped"


def write_orbit_csv(path: Union[str, Path], records: Iterable[OrbitRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ORBIT_FIELDS)
        for r in records:
            w.writerow([r.step, repr(r.x), repr(r.y), r.rule_index, r.carrier, r.flag])



def write_curve_csv(path: Union[str, Path], curve: ClosedCurve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CURVE_FIELDS)
        for k in range(curve.n):
            v = curve.vertices[k]
            w.writerow([k, repr(v.x), repr(v.y), curve.carrier_labels[k],
                        repr(math.degrees(curve.realized_angles[k]))])


def _bbox(points: Sequence[Point], pad_frac: float = 0.10) -> tuple[float, float, float, float]:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1.0)
    pad = pad_frac * span
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _clip_line(line: Line, box: tuple[float, float, float, float]) -> Optional[tuple[Point, Point]]:
    """Chord of an infinite line inside a rectangle, or None if it misses."""
    x0, y0, x1, y1 = box
    dx, dy = line.direction
    ts: list[float] = []
    eps = 1e-9 * max(x1 - x0, y1 - y0)
    for c, horizontal in ((x0, False), (x1, False), (y0, True), (y1, True)):
        if horizontal:
            if abs(dy) < 1e-15:
                continue
            t = (c - line.point_at(0.0).y) / dy
        else:
            if abs(dx) < 1e-15:
                continue
            t = (c - line.point_at(0.0).x) / dx
        p = line.point_at(t)
        if x0 - eps <= p.x <= x1 + eps and y0 - eps <= p.y <= y1 + eps:
            ts.append(t)
    if len(ts) < 2:
        return None
    lo, hi = min(ts), max(ts)
    if hi - lo < 1e-12:
        return None
    return line.point_at(lo), line.point_at(hi)


def _svg_root(box: tuple[float, float, float, float]) -> ET.Element:
    x0, y0, x1, y1 = box
    # world y points up; svg y points down, so flip via negated y coords
    view = f"{x0:.6g} {-y1:.6g} {x1 - x0:.6g} {y1 - y0:.6g}"
    return ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "viewBox": view,
            "width": "720",
            "height": "720",
            "preserveAspectRatio": "xMidYMid meet",
        },
    )


def _add_lines(root: ET.Element, arrangement: Arrangement,
               box: tuple[float, float, float, float], width: float) -> None:
    for line in arrangement.lines:
        seg = _clip_line(line, box)
        if seg is None:
            continue
        a, b = seg
        el = ET.SubElement(
            root,
            "line",
            {
                "x1": f"{a.x:.6g}", "y1": f"{-a.y:.6g}",
                "x2": f"{b.x:.6g}", "y2": f"{-b.y:.6g}",
                "stroke": "#999999", "stroke-width": f"{width:.6g}",
            },
        )
        ET.SubElement(el, "title").text = line.label


def _poly_points(points: Sequence[Point]) -> str:
    return " ".join(f"{p.x:.10g},{-p.y:.10g}" for p in points)


def _write_svg(
    path: Union[str, Path],
    arrangement: Arrangement,
    shown: Sequence[Point],
    shapes: Sequence[tuple[str, Sequence[Point], str, float]],
) -> None:
    """Arrangement lines framed around ``shown``, then ``shapes`` in order.

    A shape (kind, points, color, size) is a "polyline" or "polygon"
    through the points, stroked size times the line stroke wide, or
    "dots": a circle of radius size times the stroke at each point.
    Raises NonFinitePoint, writing nothing, when the frame overflows.
    """
    box = _bbox(list(shown) + list(arrangement.intersections.values()))
    stroke = 0.004 * max(box[2] - box[0], box[3] - box[1])
    if not math.isfinite(stroke):
        raise NonFinitePoint(f"the drawing frame {box} overflows")
    root = _svg_root(box)
    _add_lines(root, arrangement, box, stroke)
    for kind, points, color, size in shapes:
        width = f"{size * stroke:.6g}"
        if kind == "dots":
            for p in points:
                ET.SubElement(root, "circle", {"cx": f"{p.x:.6g}", "cy": f"{-p.y:.6g}",
                                               "r": width, "fill": color})
        else:
            ET.SubElement(root, kind, {"points": _poly_points(points), "fill": "none",
                                       "stroke": color, "stroke-width": width})
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)


def write_orbit_svg(
    path: Union[str, Path],
    arrangement: Arrangement,
    points: Sequence[Point],
    cycle: Optional[Sequence[Point]] = None,
) -> None:
    """Arrangement lines, the orbit polyline, and an optional highlighted cycle."""
    shapes = [("polyline", points, ORBIT_COLOR, 0.6)] if len(points) >= 2 else []
    shapes.append(("dots", points[:1], ORBIT_COLOR, 1.5))
    if cycle:
        shapes.append(("polygon", cycle, CYCLE_COLOR, 1.4))
    _write_svg(path, arrangement, points, shapes)


def write_curve_svg(path: Union[str, Path], curve: ClosedCurve) -> None:
    """Arrangement lines with the closed curve drawn as a polygon."""
    vertices = curve.vertices
    _write_svg(path, curve.arrangement, vertices,
               [("polygon", vertices, CYCLE_COLOR, 1.4), ("dots", vertices, CYCLE_COLOR, 1.2)])
