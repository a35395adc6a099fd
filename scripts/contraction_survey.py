#!/usr/bin/env python3
"""Survey convergence of random rank-targeted systems.

Samples random piecewise arrangements and rule sequences satisfying the
average contraction condition, iterates each from a random on-line start,
and tabulates the detected period multiple k, the onset of periodicity,
and how both relate to the contraction margin.
"""

import argparse
import math
import random
import statistics

from nrulemaps import acc_check, detect_periodic, iterate_piecewise
from nrulemaps.piecewise import PiecewiseNRuleMap, PiecewiseRule
from nrulemaps.geometry import Arrangement, Line

# detect_periodic's window: periods up to K_MAX cycles, CONFIRMATIONS repeats
K_MAX, CONFIRMATIONS = 64, 3


def sample_system(rng: random.Random, m: int) -> PiecewiseNRuleMap:
    while True:
        angles = sorted(rng.uniform(0, math.pi) for _ in range(m))
        gaps = [angles[i + 1] - angles[i] for i in range(m - 1)]
        gaps.append(math.pi - (angles[-1] - angles[0]))
        if min(gaps) < 0.25:
            continue
        lines = [Line(a, rng.uniform(-2, 2), f"L{i + 1}") for i, a in enumerate(angles)]
        try:
            arr = Arrangement.piecewise(lines)
        except ValueError:
            continue
        lo = (math.pi - arr.min_angle) / 2 + math.radians(4)
        if lo >= math.pi / 2 - math.radians(1):
            continue
        n = rng.randint(1, 6)
        ranks = [rng.randint(2, m) for _ in range(n)]
        if all(r == 2 for r in ranks):
            ranks[rng.randrange(n)] = rng.randint(3, m)
        rules = tuple(
            PiecewiseRule(rng.uniform(lo, math.pi / 2), rng.randrange(2), rk) for rk in ranks
        )
        return PiecewiseNRuleMap(arr, rules)


def run(count: int, seed: int) -> None:
    rng = random.Random(seed)
    rows = []
    degenerate = 0
    unresolved = 0
    while len(rows) < count:
        m = sample_system(rng, rng.choice((3, 4, 5)))
        line = m.arrangement.lines[rng.randrange(len(m.arrangement.lines))]
        x0 = line.point_at(rng.uniform(-4, 4))
        # stopping once the orbit's state repeats exactly leaves the tail
        # detect_periodic reads unchanged
        tail = (K_MAX + CONFIRMATIONS) * m.n
        orbit = iterate_piecewise(m, x0, 60000, stop_after_recurrence=tail)
        if orbit.terminated_degenerate:
            degenerate += 1
            continue
        det = detect_periodic(orbit, m.n, k_max=K_MAX, confirmations=CONFIRMATIONS)
        if det is None:
            unresolved += 1
            continue
        margin = math.degrees(acc_check(m).margin)
        rows.append((m.n, det.period // m.n, det.onset_step, margin))

    print(f"systems: {count}   degenerate ties: {degenerate}   unresolved: {unresolved}")
    ks = [r[1] for r in rows]
    onsets = [r[2] for r in rows]
    print(f"period multiple k: mean {statistics.mean(ks):.2f}  max {max(ks)}")
    print(f"onset step: median {statistics.median(onsets):.0f}  p90 {sorted(onsets)[int(0.9 * len(onsets))]}")
    lo = [r for r in rows if r[3] < 10]
    hi = [r for r in rows if r[3] >= 10]
    for name, grp in (("margin < 10 deg", lo), ("margin >= 10 deg", hi)):
        if grp:
            print(f"{name}: {len(grp)} systems, median onset {statistics.median(g[2] for g in grp):.0f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=60, help="converged systems to collect")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(args.count, args.seed)
