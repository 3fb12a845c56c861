"""Point-count, memory-proxy, and latency comparison across strategies.

Memory is reported as count * 16 bytes, the size of a point record on disk,
rather than resident-set sampling: deterministic, portable, and the ratios
are what matter. Counts are exact; only the millisecond column varies
between runs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import (
    GroupDivision,
    aggregate_direct,
    aggregate_fsa,
    aggregate_stepped,
)
from .errors import InvalidInputError, UsageError
from .sequence import POINT_RECORD_BYTES, SequenceFrame

STRATEGY_FORMS = "direct, stepped:<step>, fsa"


@dataclass(frozen=True)
class BenchRow:
    strategy: str
    window: int
    division: str
    points: int
    bytes: int
    millis: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_machine(self) -> str:
        """One JSON object per line, keys sorted."""
        return "".join(json.dumps(dataclasses.asdict(row), sort_keys=True) + "\n" for row in self.rows)

    def to_table(self) -> str:
        header = f"{'strategy':<14} {'window':>6} {'division':<12} {'points':>10} {'bytes':>12} {'millis':>9}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.strategy:<14} {row.window:>6} {row.division:<12} "
                f"{row.points:>10} {row.bytes:>12} {row.millis:>9.3f}"
            )
        return "\n".join(lines) + "\n"


def parse_strategy(spec: str) -> tuple[str, int | None]:
    """"direct", "fsa", or "stepped:<s>" with a positive integer step."""
    if spec == "direct":
        return "direct", None
    if spec == "fsa":
        return "fsa", None
    if spec.startswith("stepped:"):
        tail = spec.split(":", 1)[1]
        try:
            step = int(tail)
        except ValueError:
            raise UsageError(f"bad step {tail!r} in strategy {spec!r}") from None
        if step < 1:
            raise UsageError(f"step must be >= 1 in strategy {spec!r}")
        return "stepped", step
    raise UsageError(f"unknown strategy {spec!r}; valid forms: {STRATEGY_FORMS}")


def run_bench(
    frames: Sequence[SequenceFrame],
    strategies: Sequence[str],
    t_values: Sequence[int],
    windows: Sequence[int] = (16,),
    division: GroupDivision | None = None,
    repeats: int = 3,
) -> BenchReport:
    """Aggregate every (strategy, window) over the given frames and time it.

    Points are summed over t_values and exact; wall-clock is the median of
    ``repeats`` timed passes over the whole t loop. Rows keep the order of
    the strategies and windows arguments.
    """
    if not strategies:
        raise UsageError("no strategies given")
    if not t_values:
        raise InvalidInputError("no reference frames to aggregate at")
    if not windows:
        raise InvalidInputError("no windows given")
    if repeats < 1:
        raise InvalidInputError(f"repeats must be >= 1, got {repeats}")
    parsed = [(spec, *parse_strategy(spec)) for spec in strategies]
    if any(kind == "fsa" for _, kind, _ in parsed) and division is None:
        raise UsageError("the fsa strategy needs a division")

    rows = []
    for spec, kind, step in parsed:
        for window in windows:
            if kind == "fsa":
                sized = division.with_window(window)
                runner = lambda t: aggregate_fsa(frames, t, sized)
            elif kind == "stepped":
                runner = lambda t: aggregate_stepped(frames, t, window, step)
            else:
                runner = lambda t: aggregate_direct(frames, t, window)
            durations = []
            points = 0
            for repeat in range(repeats):
                start = time.perf_counter()
                total = 0
                for t in t_values:
                    total += runner(t).count
                durations.append(time.perf_counter() - start)
                points = total  # identical every pass; counts are exact
            rows.append(
                BenchRow(
                    strategy=spec,
                    window=int(window),
                    division=division.name if kind == "fsa" and division else "-",
                    points=points,
                    bytes=points * POINT_RECORD_BYTES,
                    millis=float(np.median(durations)) * 1000.0,
                )
            )
    return BenchReport(tuple(rows))
