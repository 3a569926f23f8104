"""Arithmetic the benchmark reports with: medians, quartiles, spreads and
span self times.  Pure functions, so the tests can pin them down."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 when the median is 0."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


@dataclass
class Span:
    """One timed call at a layer boundary.  ``parent`` is the id of the span
    that was open when this one started, ``None`` for a command's root."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus its direct children's durations.
    Spans come from one single-threaded stack, so siblings never overlap."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
