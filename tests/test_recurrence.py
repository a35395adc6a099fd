"""Stopping an orbit after its first exact recurrence changes no answer."""

import importlib.util
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import math

from nrulemaps import PiecewiseOrbit, Point, StepRecord, detect_periodic, iterate
from nrulemaps.piecewise import PiecewiseNRuleMap, PiecewiseRule, _state_key, cycle_map
from nrulemaps.symbolic import SymbolicNRuleMap, SymbolicRule, apply_cycle

from gensys import (
    engineered_collapsing_map,
    random_acc_piecewise,
    random_contracting_map,
    random_point_on,
    random_symbolic_arrangement,
    random_symbolic_map,
)

ROOT = Path(__file__).resolve().parent.parent


def _load_survey():
    spec = importlib.util.spec_from_file_location(
        "contraction_survey", ROOT / "scripts" / "contraction_survey.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


survey = _load_survey()


def _survey_orbit(tail_cycles):
    """A survey system's orbit, cut ``tail_cycles`` cycles after its recurrence."""
    rng = random.Random(5)
    m = survey.sample_system(rng, 4)
    x0 = random_point_on(rng, m.arrangement)
    return m, x0, iterate(m, x0, 60000, stop_after_recurrence=tail_cycles * m.n)


def _check_exact(m, x0, max_steps, k_max, confirmations):
    full = iterate(m, x0, max_steps)
    assert full.recurrence is None and not full.truncated
    cut = iterate(m, x0, max_steps, stop_after_recurrence=(k_max + confirmations) * m.n)
    assert cut.points == full.points[: len(cut.points)]
    assert cut.steps == full.steps[: len(cut.steps)]
    assert (cut.terminated_degenerate, cut.escaped) == (full.terminated_degenerate, full.escaped)
    if cut.recurrence is not None:
        j, p = cut.recurrence
        assert j % m.n == 0 and p % m.n == 0 and p > 0
        assert full.points[j] == full.points[j + p]
    if not cut.truncated:
        assert cut.points == full.points
    if full.terminated_degenerate:
        return
    assert detect_periodic(cut, m.n, k_max=k_max, confirmations=confirmations) == \
        detect_periodic(full, m.n, k_max=k_max, confirmations=confirmations)


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_max=st.integers(1, 64),
           confirmations=st.integers(1, 4), survey_sampler=st.booleans())
    def test_piecewise_cut_is_a_prefix_with_the_same_cycle(
        self, seed, k_max, confirmations, survey_sampler
    ):
        rng = random.Random(seed)
        if survey_sampler:
            m = survey.sample_system(rng, rng.choice((3, 4, 5)))
        else:
            m = random_acc_piecewise(rng)
        _check_exact(m, random_point_on(rng, m.arrangement), 3000, k_max, confirmations)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 2),
           k_max=st.integers(1, 64), confirmations=st.integers(1, 4))
    def test_symbolic_cut_is_a_prefix_with_the_same_cycle(self, seed, kind, k_max, confirmations):
        rng = random.Random(seed)
        if kind == 0:
            m = random_contracting_map(rng)
        elif kind == 1:
            m = engineered_collapsing_map(rng)[0]
        else:  # any cycle coefficient: the expanding ones escape
            m = random_symbolic_map(rng, random_symbolic_arrangement(rng, 4), 5)
        _check_exact(m, random_point_on(rng, m.arrangement), 3000, k_max, confirmations)

    def test_survey_orbit_stops_early(self):
        m, _, orbit = _survey_orbit(67)
        assert orbit.truncated
        j, p = orbit.recurrence
        assert len(orbit.steps) == j + p + 67 * m.n
        with pytest.raises(ValueError, match="cut"):
            orbit.end()


def _drifting_then_constant(j: int, length: int) -> list[Point]:
    """Near period 2 for the first steps, then exactly constant from step j.

    The early part confirms k=2 within the default tolerance but never
    repeats bit for bit; k=1 is first confirmed by the window at step j.
    """
    pts = [Point(float(s % 2) + 1e-11 * s, 0.5) for s in range(j - 2)]
    pts += [Point(5.0, 3.0), Point(-4.0, 2.0)]
    return pts + [Point(0.25, -0.75)] * (length - j)


class TestWindowArgument:
    def test_smallest_k_confirmed_after_a_larger_one(self):
        j, k_max, confirmations = 12, 64, 3
        full = _drifting_then_constant(j, 2000)
        want = detect_periodic(full, 1)
        assert want.period == 1 and want.onset_step == j + confirmations - 1
        assert detect_periodic(full[: j + 1], 1).period == 2  # an online detector's answer
        cut_len = j + 1 + (k_max + confirmations)  # the shortest tail allowed
        for length in (cut_len, cut_len - 1):
            orbit = PiecewiseOrbit(full[: length + 1], [StepRecord(0, "L")] * length,
                                   recurrence=(j, 1), truncated=True)
            if length == cut_len:
                assert detect_periodic(orbit, 1) == want
            else:
                with pytest.raises(ValueError, match="need a tail of 67"):
                    detect_periodic(orbit, 1)


class TestShortTail:
    def test_a_short_tail_is_refused(self):
        m, _, orbit = _survey_orbit(10)
        assert orbit.truncated
        with pytest.raises(ValueError, match=f"need a tail of {67 * m.n}"):
            detect_periodic(orbit, m.n)

    def test_a_tail_long_enough_for_the_window_is_read(self):
        m, x0, orbit = _survey_orbit(10)
        full = iterate(m, x0, 60000)
        assert detect_periodic(orbit, m.n, k_max=7) == detect_periodic(full, m.n, k_max=7)

    def test_sampling_must_divide_the_period(self):
        m, _, orbit = _survey_orbit(67)
        _, p = orbit.recurrence
        with pytest.raises(ValueError, match="misses the recurrence period"):
            detect_periodic(orbit, p + 1)

    def test_an_orbit_ending_at_max_steps_is_complete(self):
        m, x0, orbit = _survey_orbit(67)
        j, p = orbit.recurrence
        max_steps = j + p + 5  # the cut would land past max_steps
        short = iterate(m, x0, max_steps, stop_after_recurrence=67 * m.n)
        assert short.recurrence == (j, p) and not short.truncated
        assert short.points == iterate(m, x0, max_steps).points
        assert detect_periodic(short, m.n) == detect_periodic(iterate(m, x0, max_steps), m.n)
        assert short.end() == short.points[-1]


class TestIntCoordinates:
    """Starts written with int coordinates, as ``Point(0, 1)``, step as floats do."""

    def test_symbolic_start_on_two_lines(self, x3):
        m = SymbolicNRuleMap(
            x3, (SymbolicRule(1.0, 0, "L1"), SymbolicRule(1.2, 1, "L2"), SymbolicRule(0.9, 0, "L3"))
        )
        want = iterate(m, Point(0.0, 1.0), 300)
        for stop in (None, 6):
            got = iterate(m, Point(0, 1), 300, stop_after_recurrence=stop)
            assert got.points == want.points[: len(got.points)]
            assert got.steps == want.steps[: len(got.steps)]
        assert apply_cycle(m, Point(0, 1), 2) == apply_cycle(m, Point(0.0, 1.0), 2)

    def test_piecewise_start_on_two_lines(self, y3):
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(1.2, 0, 3), PiecewiseRule(math.pi / 2, 1, 2)))
        want = iterate(m, Point(1.0, 1.0), 300)
        for stop in (None, 6):
            got = iterate(m, Point(1, 1), 300, stop_after_recurrence=stop)
            assert got.points == want.points[: len(got.points)]
            assert got.steps == want.steps[: len(got.steps)]
        assert cycle_map(m, Point(1, 1)) == cycle_map(m, Point(1.0, 1.0))

    def test_state_key_of_an_int_point(self):
        assert _state_key(Point(0, 1), "L1") == _state_key(Point(0.0, 1.0), "L1")


def test_state_key_tells_signed_zeros_apart():
    assert Point(0.0, 1.0) == Point(-0.0, 1.0)
    assert _state_key(Point(0.0, 1.0), "L1") != _state_key(Point(-0.0, 1.0), "L1")
    assert _state_key(Point(1.0, -0.0), "L1") != _state_key(Point(1.0, 0.0), "L1")
    assert _state_key(Point(1.0, 0.0), "L1") == _state_key(Point(1.0, 0.0), "L1")


class TestSurvey:
    @staticmethod
    def _printed(run, *args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            run(*args)
        return buf.getvalue()

    def test_pinned_summary(self):
        ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())["survey"]
        assert self._printed(survey.run, ref["count"], ref["seed"]) == ref["summary"]

    def test_same_output_as_full_orbits(self, monkeypatch):
        cut = self._printed(survey.run, 20, 7)

        def full_length(m, x0, max_steps, stop_after_recurrence=None):
            return iterate(m, x0, max_steps)

        monkeypatch.setattr(survey, "iterate_piecewise", full_length)
        assert self._printed(survey.run, 20, 7) == cut
