"""JSON system configuration: parsing, validation, serialization.

A config is one JSON document with degree-valued angles at the boundary::

    {
      "mode": "symbolic",
      "lines": [{"label": "L1", "point": [0, 0], "angle_deg": 0}, ...],
      "rules": [{"theta_deg": 80, "orientation": 0, "target": "L2"}, ...],
      "seed": 7
    }

Piecewise rules carry ``rank`` instead of ``target``.  Loading validates
the whole system; errors name the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Union

from .errors import NRuleMapError, ParseError, ValidationError
from .geometry import Arrangement, ArrangementMode, Point, line_through
from .piecewise import PiecewiseNRuleMap, PiecewiseRule
from .symbolic import SymbolicNRuleMap, SymbolicRule


@dataclass(frozen=True)
class LineSpec:
    label: str
    point: tuple[float, float]
    angle_deg: float


@dataclass(frozen=True)
class SymbolicRuleSpec:
    theta_deg: float
    orientation: int
    target: str


@dataclass(frozen=True)
class PiecewiseRuleSpec:
    theta_deg: float
    orientation: int
    rank: int


RuleSpec = Union[SymbolicRuleSpec, PiecewiseRuleSpec]


def _fail(field: str, msg: str) -> None:
    raise ValidationError(f"{field}: {msg}")


def _number(obj: Any, field: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(field, f"expected a number, got {obj!r}")
    if not math.isfinite(obj):
        _fail(field, f"must be finite, got {obj!r}")
    return float(obj)


@dataclass(frozen=True)
class SystemConfig:
    """A validated system description plus its built domain objects."""

    mode: str
    lines: tuple[LineSpec, ...]
    rules: tuple[RuleSpec, ...]
    seed: int | None = None

    @cached_property
    def arrangement(self) -> Arrangement:
        mode = ArrangementMode.SYMBOLIC if self.mode == "symbolic" else ArrangementMode.PIECEWISE
        try:
            lines = tuple(
                line_through(Point(*s.point), math.radians(s.angle_deg), s.label)
                for s in self.lines
            )
            return Arrangement(lines, mode)
        except (ValueError, NRuleMapError) as e:
            raise ValidationError(f"lines: {e}") from e

    @cached_property
    def nrule_map(self) -> Union[SymbolicNRuleMap, PiecewiseNRuleMap]:
        try:
            if self.mode == "symbolic":
                rules = tuple(
                    SymbolicRule(math.radians(r.theta_deg), r.orientation, r.target)
                    for r in self.rules
                )
                return SymbolicNRuleMap(self.arrangement, rules)
            rules = tuple(
                PiecewiseRule(math.radians(r.theta_deg), r.orientation, r.rank)
                for r in self.rules
            )
            return PiecewiseNRuleMap(self.arrangement, rules)
        except (ValueError, NRuleMapError) as e:
            raise ValidationError(f"rules: {e}") from e


def parse_config(data: Any) -> SystemConfig:
    """Validate a decoded JSON document into a SystemConfig."""
    if not isinstance(data, dict):
        _fail("$", f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"mode", "lines", "rules", "seed"}
    if unknown:
        _fail("$", f"unknown fields {sorted(unknown)}")
    mode = data.get("mode")
    if mode not in ("symbolic", "piecewise"):
        _fail("mode", f"must be 'symbolic' or 'piecewise', got {mode!r}")

    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        _fail("lines", "expected a nonempty list")
    lines = []
    for i, item in enumerate(raw_lines):
        f = f"lines[{i}]"
        if not isinstance(item, dict):
            _fail(f, "expected an object")
        label = item.get("label")
        if not isinstance(label, str) or not label:
            _fail(f"{f}.label", f"expected a nonempty string, got {label!r}")
        pt = item.get("point")
        if not (isinstance(pt, list) and len(pt) == 2):
            _fail(f"{f}.point", f"expected [x, y], got {pt!r}")
        px = _number(pt[0], f"{f}.point[0]")
        py = _number(pt[1], f"{f}.point[1]")
        ang = _number(item.get("angle_deg"), f"{f}.angle_deg")
        extra = set(item) - {"label", "point", "angle_deg"}
        if extra:
            _fail(f, f"unknown fields {sorted(extra)}")
        lines.append(LineSpec(label, (px, py), ang))

    raw_rules = data.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        _fail("rules", "expected a nonempty list")
    rules: list[RuleSpec] = []
    for i, item in enumerate(raw_rules):
        f = f"rules[{i}]"
        if not isinstance(item, dict):
            _fail(f, "expected an object")
        theta = _number(item.get("theta_deg"), f"{f}.theta_deg")
        if not 0.0 < theta <= 90.0:
            _fail(f"{f}.theta_deg", f"must lie in (0, 90], got {theta}")
        orient = item.get("orientation")
        if orient not in (0, 1):
            _fail(f"{f}.orientation", f"must be 0 or 1, got {orient!r}")
        if mode == "symbolic":
            target = item.get("target")
            if not isinstance(target, str) or not target:
                _fail(f"{f}.target", f"expected a line label, got {target!r}")
            extra = set(item) - {"theta_deg", "orientation", "target"}
            if extra:
                _fail(f, f"unknown fields {sorted(extra)}")
            rules.append(SymbolicRuleSpec(theta, orient, target))
        else:
            rank = item.get("rank")
            if isinstance(rank, bool) or not isinstance(rank, int):
                _fail(f"{f}.rank", f"expected an integer, got {rank!r}")
            extra = set(item) - {"theta_deg", "orientation", "rank"}
            if extra:
                _fail(f, f"unknown fields {sorted(extra)}")
            rules.append(PiecewiseRuleSpec(theta, orient, rank))

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        _fail("seed", f"expected an integer, got {seed!r}")

    cfg = SystemConfig(mode, tuple(lines), tuple(rules), seed)
    # build eagerly so every structural problem surfaces at load time
    cfg.arrangement
    cfg.nrule_map
    return cfg


def load_config(path: Union[str, Path]) -> SystemConfig:
    """Read, parse, and fully validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"{p}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    return parse_config(data)


def config_to_dict(cfg: SystemConfig) -> dict:
    """JSON-ready dictionary round-tripping through parse_config."""
    out: dict[str, Any] = {
        "mode": cfg.mode,
        "lines": [
            {"label": s.label, "point": [s.point[0], s.point[1]], "angle_deg": s.angle_deg}
            for s in cfg.lines
        ],
        "rules": [],
    }
    for r in cfg.rules:
        if isinstance(r, SymbolicRuleSpec):
            out["rules"].append(
                {"theta_deg": r.theta_deg, "orientation": r.orientation, "target": r.target}
            )
        else:
            out["rules"].append(
                {"theta_deg": r.theta_deg, "orientation": r.orientation, "rank": r.rank}
            )
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    return out


def dump_config(cfg: SystemConfig, path: Union[str, Path]) -> None:
    """Write a config back out as JSON."""
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")
