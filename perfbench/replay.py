"""Timing over a fixed, seeded set of inputs, at a reference machine speed.

This benchmark runs on shared machines whose speed moves with their other
tenants' load: the same operation took 1.5 times as long for minutes at a
time, far beyond any bound a regression gate could use.  A fixed
pure-Python calibration loop slows down with it, so every run times that
loop just before its operations and reports each operation's time
rescaled by the loop's slowdown against ``REFERENCE_CALIBRATION_S``.  The
raw wall times are printed beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Time of one calibration loop at the reference speed; about the median on
# the 2-vCPU Intel Xeon virtual machine the bounds were measured on.
REFERENCE_CALIBRATION_S = 0.004


def calibrate(samples: list[float], count: int = 1) -> None:
    """Append ``count`` timings of the fixed calibration loop to ``samples``."""
    for _ in range(count):
        t = perf_counter()
        acc = 0
        for i in range(40_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(perf_counter() - t)


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference speed the machine ran."""
    return statistics.median(samples) / REFERENCE_CALIBRATION_S


class Replay:
    """Replays a fixed list of inputs until a time budget is spent.

    Every input runs at least once; after that, passes over the inputs go
    on until the summed wall time of the runs reaches ``seconds``.  Each
    run is rescaled by the slowdown of the latest ``calibrate`` call, and
    an input's time is the median of its runs, which discounts short
    bursts of interference.  In a traced replay every input runs untraced
    and then traced, back to back.
    """

    def __init__(self, count: int, seconds: float, traced: bool = False) -> None:
        self.count = count
        self.seconds = seconds
        self.modes = (False, True) if traced else (False,)
        self.walls: list[list[float]] = [[] for _ in range(count)]
        self.scaled: list[list[float]] = [[] for _ in range(count)]
        self.traced_walls: list[list[float]] = [[] for _ in range(count)]
        self.calibration: list[float] = []
        self.factor = 1.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spent = 0.0

    def calibrate(self, count: int) -> None:
        """Time the calibration loop ``count`` times; later runs scale by it."""
        fresh: list[float] = []
        calibrate(fresh, count)
        self.calibration += fresh
        self.factor = slowdown(fresh)

    def schedule(self):
        """Input indices to run, in order."""
        i = 0
        while i < self.count or self.spent < self.seconds:
            yield i % self.count
            i += 1

    def record(self, index: int, wall: float, problems: list[str], traced: bool = False) -> None:
        self.attempted += 1
        self.spent += wall
        if problems:
            self.failed += 1
            self.problems += problems
        if traced:
            self.traced_walls[index].append(wall)
        else:
            self.walls[index].append(wall)
            self.scaled[index].append(wall / self.factor)

    def times(self, runs: list[list[float]] | None = None) -> list[float]:
        """Each input's median wall time (of ``runs``, by default the untraced ones)."""
        return [statistics.median(w) for w in (self.walls if runs is None else runs)]

    @property
    def traced_total(self) -> float:
        return sum(map(sum, self.traced_walls))

    @property
    def traced_runs(self) -> int:
        return sum(map(len, self.traced_walls))

    def summary(self, work: list[float]) -> dict:
        """Throughput and median latency, at the reference speed and raw.

        ``work[i]`` is the amount of work input ``i`` does (steps,
        systems, curves).
        """
        times, scaled = self.times(), self.times(self.scaled)
        out = {
            "ops_per_s": sum(work) / sum(scaled),
            "op_latency_p50_ms": statistics.median(scaled) * 1e3,
            "wall_ops_per_s": sum(work) / sum(times),
            "wall_op_latency_p50_ms": statistics.median(times) * 1e3,
            "slowdown": slowdown(self.calibration),
            "calibration_samples": len(self.calibration),
            "runs": self.attempted,
        }
        if self.traced_runs:
            out["overhead_frac"] = sum(self.times(self.traced_walls)) / sum(times) - 1.0
        return out
