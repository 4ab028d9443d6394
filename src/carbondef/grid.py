"""Grid carbon-intensity integration.

Energy intervals rarely line up with the (typically 30-minute) update
windows of a grid intensity feed, so each energy interval is split at
intensity boundaries before multiplying. Energy is assumed uniform
within its own interval; intensity is a step function, constant per
feed entry. Intervals are half-open [start, end) everywhere, so a
boundary instant belongs to the later interval.

Facility overhead enters as a single PUE multiplier applied to total
energy, idle baseline included.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import NamedTuple

from .errors import CoverageError
from .power import EnergySeries

#: exact joule content of one kilowatt-hour
JOULES_PER_KWH = 3.6e6

COVERAGE_POLICIES = ("strict", "skip_uncovered")


@dataclass(frozen=True)
class IntensityEntry:
    """Grid carbon intensity over one half-open window [start, end)."""

    start: int
    end: int
    intensity_kg_per_kwh: float

    def __post_init__(self):
        intensity = self.intensity_kg_per_kwh
        if not 0 <= intensity < inf:
            raise ValueError(f"intensity_kg_per_kwh must be {'>= 0' if -inf < intensity < 0 else 'finite'}, got {intensity}")
        if self.end <= self.start:
            raise ValueError(f"end {self.end} must be > start {self.start}")


@dataclass(frozen=True)
class IntensitySeries:
    """Piecewise-constant intensity for one region: entries sorted by start,
    none overlapping the previous one; gaps are allowed."""

    region: str
    entries: tuple[IntensityEntry, ...]

    def __post_init__(self):
        previous_end = None
        for entry in self.entries:
            if previous_end is not None and entry.start < previous_end:
                raise ValueError(f"entry [{entry.start}, {entry.end}) overlaps the previous one")
            previous_end = entry.end


@dataclass(frozen=True)
class PueFactor:
    """Facility-wide overhead ratio, total energy over IT energy."""

    value: float

    def __post_init__(self):
        if not 1.0 <= self.value < inf:
            raise ValueError(f"PUE must be finite and >= 1, got {self.value}")


class UncoveredSpan(NamedTuple):
    """Slice of an energy interval with no intensity coverage."""

    start: float
    duration_s: float
    joules_share: float


class EmissionsSegment(NamedTuple):
    """Per-segment emissions row of a report."""

    start: float
    duration_s: float
    joules: float
    intensity_kg_per_kwh: float
    kg_co2e: float


@dataclass(frozen=True)
class EmissionsReport:
    """Operational emissions with per-segment breakdown and diagnostics."""

    total_kg_co2e: float
    pue: float
    coverage_policy: str
    segments: tuple[EmissionsSegment, ...]
    uncovered: tuple[UncoveredSpan, ...]

    def covered_joules(self) -> float:
        return sum(segment.joules for segment in self.segments)

    def uncovered_joules(self) -> float:
        return sum(span.joules_share for span in self.uncovered)


def apply_pue(joules: float, pue: PueFactor) -> float:
    """Scale IT energy ``joules`` up to facility energy. ``joules`` must be
    >= 0 and is not re-checked: the package passes an EnergySeries' total,
    which the series guarantees non-negative."""
    return joules * pue.value


def align_segments(
    energy: EnergySeries, intensity: IntensitySeries, pue: PueFactor
) -> tuple[tuple[EmissionsSegment, ...], tuple[UncoveredSpan, ...]]:
    """Split energy intervals at intensity boundaries into emissions rows.

    Each returned segment lies inside exactly one energy interval and one
    intensity window; its joules are the interval's energy prorated by
    duration, its kg CO2e those joules times intensity and PUE. Spans
    without intensity coverage come back separately, never silently
    dropped.

    Both series are in time order, so ``first``, the first entry ending
    after the current interval's start, only moves forward.
    """
    segments: list[EmissionsSegment] = []
    uncovered: list[UncoveredSpan] = []
    entries = intensity.entries
    n_entries, first = len(entries), 0

    for start, duration, joules_total, _ in energy.entries:
        interval_end = start + duration
        rate = joules_total / duration
        cursor = start
        while first < n_entries and entries[first].end <= cursor:
            first += 1

        index = first
        while index < n_entries and entries[index].start < interval_end:
            entry = entries[index]
            # the conditionals pick what max() and min() would, ties included
            overlap_start = entry.start if entry.start > cursor else cursor
            if overlap_start > cursor:
                uncovered.append(
                    UncoveredSpan(cursor, overlap_start - cursor, rate * (overlap_start - cursor))
                )
            overlap_end = entry.end if entry.end < interval_end else interval_end
            length = overlap_end - overlap_start
            joules = joules_total * (length / duration)
            kg_co2e = pue.value * (entry.intensity_kg_per_kwh * joules / JOULES_PER_KWH)
            segments.append(
                EmissionsSegment(overlap_start, length, joules, entry.intensity_kg_per_kwh, kg_co2e)
            )
            cursor = overlap_end
            index += 1
        if cursor < interval_end:
            uncovered.append(
                UncoveredSpan(cursor, interval_end - cursor, rate * (interval_end - cursor))
            )
    return tuple(segments), tuple(uncovered)


def operational_emissions(
    energy: EnergySeries,
    intensity: IntensitySeries,
    pue: PueFactor,
    coverage_policy: str = "strict",
) -> EmissionsReport:
    """Integrate energy against the intensity step function.

    Total kg CO2e is pue * sum over segments of intensity * kWh. In
    ``strict`` mode any span of the energy series outside intensity
    coverage raises CoverageError; ``skip_uncovered`` excludes such spans
    from the total and reports them in the diagnostics. An empty energy
    series yields a zero-total report in either mode.
    """
    if coverage_policy not in COVERAGE_POLICIES:
        raise ValueError(f"coverage_policy must be one of {COVERAGE_POLICIES}")

    segments, uncovered = align_segments(energy, intensity, pue)
    if coverage_policy == "strict" and uncovered:
        gap = uncovered[0]
        raise CoverageError(
            f"no intensity coverage for [{gap.start}, {gap.start + gap.duration_s}) "
            f"({gap.joules_share} J); {len(uncovered)} uncovered span(s) total"
        )

    total_kg = 0.0
    for segment in segments:
        total_kg += segment.kg_co2e
    return EmissionsReport(
        total_kg_co2e=total_kg,
        pue=pue.value,
        coverage_policy=coverage_policy,
        segments=segments,
        uncovered=uncovered,
    )

