"""The shared stepping core: equivalence with single-step application, escape."""

import json
import math
import random
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrulemaps import (
    DegenerateHit,
    NeutralCycle,
    NonFinitePoint,
    Point,
    TieHit,
    apply_piecewise,
    apply_rule,
    cycle_map,
    induced_fixed_point,
    invariant_points,
    iterate,
    iterate_piecewise,
    load_config,
    periodic_orbit,
    piecewise,
    step,
)
from nrulemaps.cli import _default_start, main
from nrulemaps.emit import write_orbit_svg
from nrulemaps.piecewise import _rank_tables
from nrulemaps.symbolic import apply_cycle

from gensys import (
    engineered_collapsing_map,
    random_acc_piecewise,
    random_noncollapsing_map,
    random_point_on,
    random_symbolic_arrangement,
    random_symbolic_map,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _random_symbolic(rng):
    """Contracting, expanding and collapsing symbolic maps alike."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_noncollapsing_map(rng)
    if kind == 1:
        return engineered_collapsing_map(rng)[0]
    m = rng.choice((3, 4, 5))
    return random_symbolic_map(rng, random_symbolic_arrangement(rng, m), rng.randint(m, m + 3))


class TestSymbolicThroughCore:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), times=st.integers(0, 4))
    def test_apply_cycle_equals_stepping(self, seed, times):
        rng = random.Random(seed)
        m = _random_symbolic(rng)
        x = random_point_on(rng, m.arrangement)
        run = m.copy(phase=0)
        y = x
        try:
            for _ in range(times * m.n):
                y = step(run, y)
        except ValueError:  # an expanding map that overflows raises on both paths
            with pytest.raises(ValueError):
                apply_cycle(m, x, times)
            return
        assert apply_cycle(m, x, times) == y
        assert m.phase == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_periodic_orbit_equals_chained_rules(self, seed):
        m = _random_symbolic(random.Random(seed))
        try:
            x = induced_fixed_point(m)
        except NeutralCycle:
            with pytest.raises(NeutralCycle):
                periodic_orbit(m)
            return
        want = []
        for rule in m.rules:
            x = apply_rule(rule, x, m.arrangement)
            want.append(x)
        assert periodic_orbit(m) == want

    def test_symbolic_orbit_records(self):
        m = load_config(CONFIGS / "fig_six_cycle_x4.json").nrule_map
        orbit = iterate(m, m.arrangement.line("L1").point_at(0.5), 2 * m.n)
        assert [s.rule_index for s in orbit.steps] == list(range(m.n)) * 2
        assert [s.target for s in orbit.steps] == [r.target for r in m.rules] * 2
        assert not any(s.tie or s.near_tie for s in orbit.steps)
        assert not orbit.terminated_degenerate and not orbit.escaped


def _chained_piecewise(m, x):
    """n chained apply_piecewise calls; None when one of them ties."""
    for rule in m.rules:
        x = apply_piecewise(rule, x, m.arrangement)
        if isinstance(x, TieHit):
            return None
    return x


# On a tie locus, inside the tie tolerance, inside the near-tie band, clear of both.
LOCUS_OFFSETS = (0.0, 1e-13, -1e-11, 5e-10, 1e-7)


class TestCycleMapThroughCore:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(-6.0, 6.0))
    def test_random_starts(self, seed, t):
        rng = random.Random(seed)
        m = random_acc_piecewise(rng)
        x = m.arrangement.lines[rng.randrange(len(m.arrangement.lines))].point_at(t)
        self._check(m, x)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from(LOCUS_OFFSETS), data=st.data())
    def test_starts_at_tie_loci(self, seed, offset, data):
        m = random_acc_piecewise(random.Random(seed))
        arr = m.arrangement
        loci = [(arr.carrier_of(ip.location), ip.location) for ip in invariant_points(m)]
        for c in arr.lines:
            loci += [(c, c.point_at(bp)) for bp in _rank_tables(arr)[c.label].breakpoints]
        carrier, p = data.draw(st.sampled_from(loci))
        self._check(m, carrier.point_at(carrier.param_of(p) + offset))

    @staticmethod
    def _check(m, x):
        want = _chained_piecewise(m, x)
        if want is None:
            with pytest.raises(DegenerateHit):
                cycle_map(m, x)
        else:
            assert cycle_map(m, x) == want

    def test_old_name_is_the_core(self):
        assert iterate_piecewise is iterate


def _expanding_symbolic(tmp_path):
    """The six-rule showcase with every angle at 20 degrees: cycle coefficient 34.8."""
    data = json.loads((CONFIGS / "fig_six_cycle_x4.json").read_text())
    for r in data["rules"]:
        r["theta_deg"] = 20
    p = tmp_path / "expanding.json"
    p.write_text(json.dumps(data))
    return p


def _tiny_angle_piecewise(tmp_path):
    data = json.loads((CONFIGS / "fig_four_cycle_y5.json").read_text())
    data["rules"][0]["theta_deg"] = 1e-300
    p = tmp_path / "tiny_angle.json"
    p.write_text(json.dumps(data))
    return p


class TestEscape:
    def test_core_stops_at_last_finite_point(self, tmp_path):
        cfg = load_config(_expanding_symbolic(tmp_path))
        orbit = iterate(cfg.nrule_map, _default_start(cfg), 5000)
        assert orbit.escaped and not orbit.terminated_degenerate
        assert 0 < len(orbit.points) - 1 < 5000
        assert len(orbit.steps) == len(orbit.points) - 1
        assert all(math.isfinite(p.x) and math.isfinite(p.y) for p in orbit.points)
        with pytest.raises(NonFinitePoint):
            orbit.end()
        with pytest.raises(ValueError):
            apply_cycle(cfg.nrule_map, _default_start(cfg), 5000)

    def test_other_value_errors_propagate(self, monkeypatch, tmp_path):
        cfg = load_config(CONFIGS / "fig_four_cycle_y5.json")

        def broken(*args):
            raise ValueError("not an overflow")

        monkeypatch.setattr(piecewise, "project", broken)
        with pytest.raises(ValueError, match="not an overflow"):
            iterate(cfg.nrule_map, _default_start(cfg), 10)

    @pytest.mark.parametrize("make, steps, svg", [
        (_expanding_symbolic, 5000, True),
        (_tiny_angle_piecewise, 100, False),
    ])
    def test_simulate_exit_4_with_partial_csv(self, tmp_path, capsys, make, steps, svg):
        out = tmp_path / "orbit.csv"
        argv = ["simulate", "--config", str(make(tmp_path)), "--steps", str(steps),
                "--out", str(out)]
        if svg:
            argv += ["--svg", str(tmp_path / "orbit.svg")]
        assert main(argv) == 4
        rows = out.read_text().splitlines()[1:]
        assert 1 < len(rows) < steps + 1
        flags = [r.split(",")[-1] for r in rows]
        assert flags[-1] == "escaped" and "escaped" not in flags[:-1]
        for r in rows:
            _, x, y, *_ = r.split(",")
            assert math.isfinite(float(x)) and math.isfinite(float(y))
        said = capsys.readouterr().out
        assert said.startswith(f"escaped: step {len(rows)} ")
        if svg:
            root = ElementTree.parse(tmp_path / "orbit.svg").getroot()
            assert root.find("{http://www.w3.org/2000/svg}polyline") is not None

    def test_overflowing_frame_skips_the_svg(self, tmp_path, capsys):
        svg = tmp_path / "orbit.svg"
        rc = main(["simulate", "--config", str(_expanding_symbolic(tmp_path)), "--steps", "50",
                   "--start=-1.7e308,0", "--out", str(tmp_path / "o.csv"), "--svg", str(svg)])
        assert rc == 4
        assert not svg.exists()
        assert "no SVG written" in capsys.readouterr().err

    def test_svg_writer_rejects_an_overflowing_frame(self, tmp_path):
        arr = load_config(CONFIGS / "fig_six_cycle_x4.json").arrangement
        svg = tmp_path / "far.svg"
        with pytest.raises(NonFinitePoint):
            write_orbit_svg(svg, arr, [Point(-1.5e308, 0.0), Point(1.5e308, 0.0)])
        assert not svg.exists()
