import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrulemaps import (
    DegenerateHit,
    InvariantKind,
    PiecewiseNRuleMap,
    PiecewiseOrbit,
    PiecewiseRule,
    Point,
    PointOffArrangement,
    StepRecord,
    TieHit,
    acc_check,
    apply_piecewise,
    cycle_map,
    detect_periodic,
    distance_profile,
    invariant_points,
    iterate_piecewise,
    project,
    projection_affine,
    separation_factor,
    separation_product,
)
from nrulemaps import piecewise
from nrulemaps.geometry import COINCIDENCE_TOL
from nrulemaps.piecewise import NEAR_TIE_TOL, _rank_tables, _ranked

from gensys import random_acc_piecewise, random_piecewise_arrangement, random_point_on


class TestDistanceProfile:
    def test_y3_ranks(self, y3):
        prof = distance_profile(Point(0.5, 0.0), y3)
        assert [e[0] for e in prof.entries] == ["A", "B", "C"]
        assert prof.distance_at(1) == 0.0
        assert prof.distance_at(2) == pytest.approx(0.5 / math.sqrt(2), abs=1e-12)
        assert prof.distance_at(3) == pytest.approx(1.5 / math.sqrt(2), abs=1e-12)
        assert not any(prof.tie_flags)

    def test_bisector_tie(self, y3):
        prof = distance_profile(Point(1.0, 0.0), y3)
        assert prof.tie_flags == (False, True, True)
        assert prof.distance_at(2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_intersection_double_zero(self, y3):
        prof = distance_profile(Point(0.0, 0.0), y3)
        assert prof.tie_flags[:2] == (True, True)
        assert prof.distance_at(1) == 0.0
        assert prof.distance_at(2) <= 1e-12

    def test_rank_calibration(self):
        # rank 2 is the nearest other line, rank m the farthest, off all ties
        rng = random.Random(55)
        for _ in range(50):
            arr = random_piecewise_arrangement(rng, rng.choice((3, 4, 5)))
            x = random_point_on(rng, arr)
            prof = distance_profile(x, arr)
            if any(prof.tie_flags):
                continue
            others = sorted(line.distance(x) for line in arr.lines if line.distance(x) > 1e-9)
            assert prof.distance_at(1) <= 1e-9
            assert prof.distance_at(2) == pytest.approx(others[0], abs=1e-12)
            assert prof.distance_at(len(arr.lines)) == pytest.approx(others[-1], abs=1e-12)


class TestApplyPiecewise:
    def test_projects_to_nearest_other(self, y3):
        got = apply_piecewise(PiecewiseRule(math.pi / 2, 0, 2), Point(0.5, 0.0), y3)
        assert got.distance_to(Point(0.25, 0.25)) <= 1e-12

    def test_tie_hit(self, y3):
        for rank in (2, 3):
            got = apply_piecewise(PiecewiseRule(1.0, 0, rank), Point(1.0, 0.0), y3)
            assert isinstance(got, TieHit)
            assert got.rank == rank
            assert got.point == Point(1.0, 0.0)

    def test_off_arrangement(self, y3):
        with pytest.raises(PointOffArrangement):
            apply_piecewise(PiecewiseRule(1.0, 0, 2), Point(5.0, 9.0), y3)


class TestAccCheck:
    def test_satisfied_with_margin(self, y3):
        m = PiecewiseNRuleMap(
            y3, (PiecewiseRule(math.radians(80), 0, 2), PiecewiseRule(math.radians(80), 0, 3))
        )
        rep = acc_check(m)
        assert rep.satisfied
        assert rep.delta == pytest.approx(math.pi / 4)
        assert math.degrees(rep.margin) == pytest.approx(12.5, abs=1e-9)

    def test_boundary_not_satisfied(self, y3):
        th = (math.pi - y3.min_angle) / 2  # exactly the threshold
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(th, 0, 2), PiecewiseRule(th, 0, 3)))
        assert not acc_check(m).satisfied

    def test_right_angle_mean_always_satisfies(self, y3):
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(math.pi / 2, 0, 3),))
        assert acc_check(m).satisfied


class TestSeparationProduct:
    def test_perpendicular_projections(self):
        assert separation_product(math.pi / 2, math.pi / 2, math.pi / 3) == pytest.approx(0.25)

    def test_isometry_boundary(self):
        th = (math.pi - math.pi / 3) / 2
        assert separation_product(th, th, math.pi / 3) == pytest.approx(1.0, abs=1e-9)

    def test_expansion_below_threshold(self):
        got = separation_product(math.pi / 4, math.pi / 4, math.pi / 3)
        want = (math.sin(5 * math.pi / 12) / math.sin(math.pi / 4)) ** 2
        assert got == pytest.approx(want, abs=1e-12)
        assert got > 1

    def test_iff_over_grid(self):
        for t1d in range(5, 91, 5):
            for t2d in range(5, 91, 5):
                for dd in range(10, 86, 5):
                    t1, t2, d = map(math.radians, (t1d, t2d, dd))
                    prod = separation_product(t1, t2, d)
                    mean, thresh = (t1 + t2) / 2, (math.pi - d) / 2
                    if abs(mean - thresh) <= 1e-12:
                        assert abs(prod - 1.0) <= 1e-9
                    elif mean > thresh:
                        assert prod < 1.0
                    else:
                        assert prod >= 1.0

    def test_toward_branch_contracts_when_theta_clears_delta(self):
        # with the away pair inside the contraction region, each toward
        # coefficient |sin(theta - delta)|/sin(theta) stays below 1
        for td in range(5, 91, 5):
            for dd in range(10, 86, 5):
                t, d = math.radians(td), math.radians(dd)
                if t > d:
                    assert abs(math.sin(t - d)) / math.sin(t) < 1.0

    def test_product_of_factors(self):
        for td in range(5, 91, 5):
            t = math.radians(td)
            f = separation_factor(t, math.pi / 3)
            assert f == math.sin(math.pi - t - math.pi / 3) / math.sin(t)
            assert separation_product(t, t, math.pi / 3) == f * f


class TestInvariantPoints:
    def test_y3_bisector_point_present(self, y3):
        m = PiecewiseNRuleMap(
            y3, (PiecewiseRule(math.radians(80), 0, 2), PiecewiseRule(math.radians(85), 1, 3))
        )
        pts = invariant_points(m)
        hit = [ip for ip in pts if ip.location.distance_to(Point(1.0, 0.0)) <= 1e-9]
        assert len(hit) == 1
        assert hit[0].rules_affected == frozenset({0, 1})
        assert hit[0].kind is InvariantKind.STRICT

    def test_one_rule_maps_only_strict(self, y3):
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(math.radians(80), 0, 3),))
        pts = invariant_points(m)
        assert pts
        assert all(ip.kind is InvariantKind.STRICT for ip in pts)

    def test_matches_dense_sampling_oracle(self):
        # enumerated tie loci agree with a brute-force scan along each line
        rng = random.Random(77)
        arr = random_piecewise_arrangement(rng, 4)
        m = PiecewiseNRuleMap(
            arr, (PiecewiseRule(1.2, 0, 2), PiecewiseRule(1.3, 1, 4))
        )
        pts = invariant_points(m)
        ranks = {r.rank for r in m.rules}
        # every enumerated point really ties at some rule rank
        for ip in pts:
            _, flags = _ranked(ip.location, arr)
            assert any(flags[r.rank - 1] for i, r in enumerate(m.rules) if i in ip.rules_affected)
        # scan for sign changes of rank-adjacent gaps the enumeration missed
        span, steps = 25.0, 5000
        for line in arr.lines:
            prev_gaps = None
            for i in range(steps + 1):
                t = -span + 2 * span * i / steps
                ds, _ = _ranked(line.point_at(t), arr)
                gaps = []
                for rk in ranks:
                    gp = ds[rk - 1][0] - ds[rk - 2][0] if rk >= 2 else math.inf
                    gn = ds[rk][0] - ds[rk - 1][0] if rk < len(ds) else math.inf
                    gaps.append(min(gp, gn))
                if prev_gaps is not None and min(gaps) < 1e-4:
                    x = line.point_at(t)
                    assert min(
                        ip.location.distance_to(x) for ip in pts
                    ) <= 2 * span / steps * 2 + 1e-6
                prev_gaps = gaps


class TestIterate:
    def test_strictly_invariant_start_terminates_immediately(self, y3):
        m = PiecewiseNRuleMap(
            y3, (PiecewiseRule(math.radians(80), 0, 2), PiecewiseRule(math.radians(85), 1, 3))
        )
        orbit = iterate_piecewise(m, Point(1.0, 0.0), 100)
        assert orbit.terminated_degenerate
        assert len(orbit.points) == 1
        assert orbit.steps[-1].tie
        # sticky: nothing follows the tie
        assert len(orbit.steps) == 1

    def test_bounded_under_acc(self):
        rng = random.Random(88)
        budgets = (100000, 20000, 20000)
        for budget in budgets:
            m = random_acc_piecewise(rng)
            x0 = random_point_on(rng, m.arrangement, span=6.0)
            orbit = iterate_piecewise(m, x0, budget)
            if orbit.terminated_degenerate:
                continue
            norms = [math.hypot(p.x, p.y) for p in orbit.points]
            peak = max(norms)
            assert math.isfinite(peak)
            assert norms.index(peak) < len(norms) // 2  # attained early
            assert norms[-1] <= peak + 1e-9

    def test_near_tie_flagged_but_not_terminal(self, y3):
        # rank-2/3 gap at (1+h, 0) is h*sqrt(2): below the warning threshold,
        # above the tie tolerance
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(math.radians(80), 0, 3),))
        orbit = iterate_piecewise(m, Point(1.0 + 1e-10, 0.0), 1)
        assert not orbit.terminated_degenerate
        assert orbit.steps[0].near_tie
        far = iterate_piecewise(m, Point(0.2, 0.0), 1)
        assert not far.steps[0].near_tie

    def test_off_arrangement_start(self, y3):
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(1.0, 0, 3),))
        with pytest.raises(PointOffArrangement):
            iterate_piecewise(m, Point(4.0, 9.0), 10)


def _exact_orbit(m, x0, max_steps):
    """Reference stepping: rank every step's distances with _ranked."""
    arr = m.arrangement
    points, steps, x = [x0], [], x0
    for s in range(max_steps):
        rule = m.rules[s % m.n]
        ds, flags = _ranked(x, arr)
        idx = rule.rank - 1
        if flags[idx]:
            steps.append(StepRecord(s % m.n, None, tie=True))
            return PiecewiseOrbit(points, steps, True)
        gap_prev = ds[idx][0] - ds[idx - 1][0] if idx > 0 else math.inf
        gap_next = ds[idx + 1][0] - ds[idx][0] if idx + 1 < len(ds) else math.inf
        near = min(gap_prev, gap_next) <= NEAR_TIE_TOL
        target = arr.line(ds[idx][1])
        x = project(x, rule.theta, rule.orientation, target)
        points.append(x)
        steps.append(StepRecord(s % m.n, target.label, False, near))
    return PiecewiseOrbit(points, steps, False)


def _assert_same_as_exact(m, x0, max_steps):
    want = _exact_orbit(m, x0, max_steps)
    got = iterate_piecewise(m, x0, max_steps)
    assert got.points == want.points
    assert got.steps == want.steps
    assert got.terminated_degenerate == want.terminated_degenerate


# Offsets along the carrier from a tie locus: on it, inside the tie
# tolerance, inside the near-tie band, and clear of both.
LOCUS_OFFSETS = (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 5e-10, -5e-10, 2e-9, 1e-7)


class TestTabulatedStepping:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(-6.0, 6.0))
    def test_random_starts_match_exact_ranking(self, seed, t):
        rng = random.Random(seed)
        m = random_acc_piecewise(rng)
        line = m.arrangement.lines[rng.randrange(len(m.arrangement.lines))]
        _assert_same_as_exact(m, line.point_at(t), 300)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from(LOCUS_OFFSETS), data=st.data())
    def test_starts_near_ties_match_exact_ranking(self, seed, offset, data):
        m = random_acc_piecewise(random.Random(seed))
        arr = m.arrangement
        loci = [(arr.carrier_of(ip.location), ip.location) for ip in invariant_points(m)]
        for c in arr.lines:
            loci += [(c, c.point_at(bp)) for bp in _rank_tables(arr)[c.label].breakpoints]
        carrier, p = data.draw(st.sampled_from(loci))
        _assert_same_as_exact(m, carrier.point_at(carrier.param_of(p) + offset), 120)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), off=st.sampled_from((-1.0, 0.0, 1.0)))
    def test_safe_cells_agree_with_ranking_off_the_carrier(self, seed, off):
        # just inside each safe cell's edges, a point up to COINCIDENCE_TOL
        # off its carrier still ranks in the cell's order with no near tie
        m = random_acc_piecewise(random.Random(seed))
        arr = m.arrangement
        for c in arr.lines:
            table = _rank_tables(arr)[c.label]
            for lo, hi, order in table.cells:
                for edge, inward in ((lo, math.inf), (hi, -math.inf)):
                    if not math.isfinite(edge):
                        continue
                    t = math.nextafter(math.nextafter(edge, inward), inward)
                    p = c.point_at(t)
                    x = Point(p.x + off * COINCIDENCE_TOL * c.normal[0],
                              p.y + off * COINCIDENCE_TOL * c.normal[1])
                    tx = x.x * table.dx + x.y * table.dy
                    cell = table.cells[bisect.bisect_right(table.breakpoints, tx)]
                    if not cell[0] < tx < cell[1]:
                        continue
                    ds, flags = _ranked(x, arr)
                    assert [lb for _, lb in ds] == [l.label for l in cell[2]]
                    assert min(b[0] - a[0] for a, b in zip(ds, ds[1:])) > NEAR_TIE_TOL
                    assert not any(flags)

    def test_tables_resolve_steps_away_from_breakpoints(self, monkeypatch):
        rng = random.Random(141)
        m = random_acc_piecewise(rng)
        x0 = random_point_on(rng, m.arrangement)
        calls = []
        monkeypatch.setattr(piecewise, "_ranked", lambda *a: calls.append(a) or _ranked(*a))
        orbit = iterate_piecewise(m, x0, 2000)
        assert not orbit.terminated_degenerate
        assert 1 <= len(calls) <= 20

    def test_step_records_are_shared(self):
        m = random_acc_piecewise(random.Random(142))
        orbit = iterate_piecewise(m, random_point_on(random.Random(143), m.arrangement), 500)
        assert len({id(s) for s in orbit.steps}) == len(set(orbit.steps))


class TestDetectPeriodic:
    def test_exactly_periodic_sequence(self):
        cycle = [Point(0, 0), Point(1, 0), Point(0.5, 1)]
        pts = [cycle[i % 3] for i in range(40)]
        det = detect_periodic(pts, 1)
        assert det is not None
        assert det.period == 3
        det3 = detect_periodic(pts[: 13 * 3], 3)
        assert det3 is not None
        assert det3.period == 3

    def test_random_acc_systems_converge(self):
        rng = random.Random(99)
        done = 0
        while done < 8:
            m = random_acc_piecewise(rng)
            x0 = random_point_on(rng, m.arrangement)
            orbit = iterate_piecewise(m, x0, 20000)
            if orbit.terminated_degenerate:
                continue
            det = detect_periodic(orbit, m.n)
            if det is None:
                orbit = iterate_piecewise(m, x0, 100000)
                det = detect_periodic(orbit, m.n)
            assert det is not None
            assert det.period % m.n == 0
            done += 1

    def test_expanding_map_escapes_or_stays_unconfirmed(self, y3):
        # steep expansion: every rule angle far below the contraction threshold
        m = PiecewiseNRuleMap(
            y3, (PiecewiseRule(math.radians(8), 0, 3), PiecewiseRule(math.radians(10), 1, 2))
        )
        x0 = y3.line("A").point_at(0.37)
        orbit = iterate_piecewise(m, x0, 400)
        grew = max(math.hypot(p.x, p.y) for p in orbit.points) > 1e3
        if orbit.terminated_degenerate:
            # runaway coordinates eventually round two distances equal
            assert grew
        else:
            assert grew or detect_periodic(orbit, m.n) is None

    def test_degenerate_orbit_rejected(self, y3):
        m = PiecewiseNRuleMap(
            y3, (PiecewiseRule(math.radians(80), 0, 2), PiecewiseRule(math.radians(85), 1, 3))
        )
        orbit = iterate_piecewise(m, Point(1.0, 0.0), 50)
        with pytest.raises(ValueError):
            detect_periodic(orbit, m.n)


class TestCycleMap:
    def test_single_rule_matches_apply(self, y3):
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(math.radians(75), 0, 3),))
        x = y3.line("A").point_at(0.8)
        assert cycle_map(m, x) == apply_piecewise(m.rules[0], x, y3)

    def test_triple_cycle_matches_stepping(self):
        rng = random.Random(111)
        m = random_acc_piecewise(rng)
        x0 = random_point_on(rng, m.arrangement)
        orbit = iterate_piecewise(m, x0, 3 * m.n)
        if orbit.terminated_degenerate:
            pytest.skip("degenerate draw")
        y = x0
        for _ in range(3):
            y = cycle_map(m, y)
        assert y.distance_to(orbit.points[3 * m.n]) <= 1e-12

    def test_limit_point_nearly_fixed(self):
        rng = random.Random(123)
        while True:
            m = random_acc_piecewise(rng)
            x0 = random_point_on(rng, m.arrangement)
            orbit = iterate_piecewise(m, x0, 30000)
            if orbit.terminated_degenerate:
                continue
            det = detect_periodic(orbit, m.n)
            if det is None:
                continue
            p0 = det.cycle_points[0]
            q = p0
            for _ in range(det.period // m.n):
                q = cycle_map(m, q)
            assert q.distance_to(p0) <= 1e-7
            break

    def test_degenerate_hit_raises(self, y3):
        m = PiecewiseNRuleMap(
            y3, (PiecewiseRule(math.radians(80), 0, 2), PiecewiseRule(math.radians(85), 1, 3))
        )
        with pytest.raises(DegenerateHit):
            cycle_map(m, Point(1.0, 0.0))


def test_preimages_diverge_on_continuity_piece():
    # invert the converged cycle's affine chain; iterating the inverse
    # must push any non-fixed parameter past norm 1e6 in finitely many steps
    rng = random.Random(131)
    done = 0
    while done < 5:
        m = random_acc_piecewise(rng)
        x0 = random_point_on(rng, m.arrangement)
        orbit = iterate_piecewise(m, x0, 30000)
        if orbit.terminated_degenerate:
            continue
        det = detect_periodic(orbit, m.n)
        if det is None:
            continue
        arr = m.arrangement
        chain_start = det.onset_step
        total = None
        carrier = arr.carrier_of(orbit.points[chain_start])
        line0 = carrier
        for j in range(chain_start, chain_start + det.period):
            rec = orbit.steps[j]
            tgt = arr.line(rec.target)
            rule = m.rules[rec.rule_index]
            aff = projection_affine(carrier, tgt, rule.theta, rule.orientation)
            total = aff if total is None else total.then(aff)
            carrier = tgt
        if abs(total.scale) >= 1.0:  # not attracting on this piece; rare
            continue
        t = line0.param_of(orbit.points[chain_start]) + 0.01
        steps = 0
        while steps < 5000:
            t = (t - total.shift) / total.scale
            steps += 1
            p = line0.point_at(t)
            if math.hypot(p.x, p.y) > 1e6:
                break
        assert math.hypot(*line0.point_at(t)) > 1e6
        done += 1


class TestValidation:
    def test_all_rank_two_rejected(self, y3):
        with pytest.raises(ValueError, match="rank > 2"):
            PiecewiseNRuleMap(y3, (PiecewiseRule(1.0, 0, 2), PiecewiseRule(1.0, 1, 2)))

    def test_rank_above_line_count(self, y3):
        with pytest.raises(ValueError, match="exceeds"):
            PiecewiseNRuleMap(y3, (PiecewiseRule(1.0, 0, 4),))

    def test_single_rule_allowed(self, y3):
        m = PiecewiseNRuleMap(y3, (PiecewiseRule(1.0, 0, 3),))
        assert m.n == 1
