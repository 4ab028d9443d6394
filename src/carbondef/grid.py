"""Grid carbon-intensity integration.

Energy intervals rarely line up with the (typically 30-minute) update
windows of a grid intensity feed, so each energy interval is split at
intensity boundaries before multiplying. Energy is assumed uniform
within its own interval; intensity is a step function, constant per
feed entry. Intervals are half-open [start, end) everywhere, so a
boundary instant belongs to the later interval.

Facility overhead enters as a single PUE multiplier applied to total
energy, idle baseline included.

Segments and uncovered spans are held as columns, one per row field:
starts, durations and intensities as lists of the values met (an int stays
an int), joules and kg CO2e as array('d'), about 70 bytes a segment. So is
an intensity series held: lists of entry starts, ends and intensities,
checked once in bulk. ``segments``, ``uncovered`` and ``entries`` are each
a power.ColumnRows view, whose rows are built on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import lt, ne
from sys import float_info
from typing import Iterable, NamedTuple, Sequence

from .errors import CoverageError
from .power import EPOCH_LIMIT, ColumnRows, EnergySeries, broken_bound, epoch_fault, fold_sum, shown

#: exact joule content of one kilowatt-hour
JOULES_PER_KWH = 3.6e6

COVERAGE_POLICIES = ("strict", "skip_uncovered")


@dataclass(frozen=True)
class IntensityEntry:
    """Grid carbon intensity over one half-open window [start, end), each end within ±2**53."""

    start: int
    end: int
    intensity_kg_per_kwh: float

    def __post_init__(self):
        if bound := broken_bound(self.intensity_kg_per_kwh, 0):
            raise ValueError(f"intensity_kg_per_kwh must be {bound}, got {shown(self.intensity_kg_per_kwh)}")
        if self.end <= self.start:
            raise ValueError(f"end {shown(self.end)} must be > start {shown(self.start)}")
        if fault := epoch_fault("start", self.start) or epoch_fault("end", self.end):
            raise ValueError(fault)


class IntensitySeries:
    """Piecewise-constant intensity for one region: lists of entry starts, ends and intensities,
    sorted by start, none starting before the previous one's end (gaps are allowed), built from
    entries or in bulk (``columns=``, a list kept, not copied). Construction checks the columns in
    bulk against IntensityEntry's condition, walking entries only to raise one's ValueError, then the order."""

    __slots__ = ("region", "columns")

    def __init__(self, region: str, entries: Iterable[IntensityEntry] = (), *, columns: Sequence[Sequence] | None = None):
        rows = ((entry.start, entry.end, entry.intensity_kg_per_kwh) for entry in entries)
        columns = ([list(column) for column in zip(*rows)] or ([], [], [])) if columns is None else columns
        if len(columns) != 3 or len(set(map(len, columns))) > 1:
            raise ValueError("a series is three columns of one length")
        self.region, self.columns = region, tuple(column if type(column) is list else list(column) for column in columns)
        start, end, intensity = self.columns
        # each end lies past its start, so the least start and greatest end bound every epoch; max() may skip a NaN
        if not (all(map(lt, start, end)) and -EPOCH_LIMIT <= min(start, default=0) and max(end, default=0) <= EPOCH_LIMIT
                and 0 <= min(intensity, default=0) and max(intensity, default=0) <= float_info.max
                and not any(map(ne, intensity, intensity))):
            for row in zip(start, end, intensity):
                IntensityEntry(*row)  # the first faulty entry raises its ValueError
        if (later := next(compress(count(1), map(lt, islice(start, 1, None), end)), None)) is not None:
            raise ValueError(f"entry [{start[later]}, {end[later]}) overlaps the previous one")

    @property
    def entries(self) -> ColumnRows:
        return ColumnRows(self.columns, IntensityEntry)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntensitySeries) and self.region == other.region and self.columns == other.columns


@dataclass(frozen=True)
class PueFactor:
    """Facility-wide overhead ratio, total energy over IT energy."""

    value: float

    def __post_init__(self):
        if broken_bound(self.value, 1):
            raise ValueError(f"PUE must be finite and >= 1, got {shown(self.value)}")


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
    """Operational emissions with per-segment breakdown and diagnostics, the
    rows held as align_segments' columns."""

    total_kg_co2e: float
    pue: float
    coverage_policy: str
    segment_columns: tuple[Sequence, ...]
    uncovered_columns: tuple[Sequence, ...]

    @property
    def segments(self) -> ColumnRows:
        return ColumnRows(self.segment_columns, EmissionsSegment)

    @property
    def uncovered(self) -> ColumnRows:
        return ColumnRows(self.uncovered_columns, UncoveredSpan)

    def covered_joules(self) -> float:
        return fold_sum(self.segment_columns[2])

    def uncovered_joules(self) -> float:
        return fold_sum(self.uncovered_columns[2])


def apply_pue(joules: float, pue: PueFactor) -> float:
    """Scale IT energy ``joules`` up to facility energy. ``joules`` must be
    >= 0 and is not re-checked: the package passes an EnergySeries' total,
    which the series guarantees non-negative."""
    return joules * pue.value


def align_segments(
    energy: EnergySeries, intensity: IntensitySeries, pue: PueFactor
) -> tuple[tuple[Sequence, ...], tuple[Sequence, ...]]:
    """Split energy intervals at intensity boundaries into emissions rows,
    returned as the segment and uncovered columns (module docstring).

    Each segment lies inside exactly one energy interval and one
    intensity window; its joules are the interval's energy times its
    share of the span the segments cover, its kg CO2e those joules
    times intensity and PUE. Spans without intensity coverage come back
    separately, never silently dropped.

    Both series are in time order, so ``first``, the first entry ending
    after the current interval's start, only moves forward.
    """
    segments = ([], [], array("d"), [], array("d"))
    uncovered = ([], [], array("d"))
    add_start, add_length, add_joules, add_intensity, add_kg = (column.append for column in segments)
    add_gap_start, add_gap_length, add_gap_joules = (column.append for column in uncovered)
    starts, ends, intensities = intensity.columns
    n_entries, first = len(starts), 0

    for start, duration, joules_total in zip(*energy.columns[:3]):
        interval_end = start + duration
        duration = interval_end - start  # the span the segments partition: start + duration may round
        rate = joules_total / duration
        cursor = start
        while first < n_entries and ends[first] <= cursor:
            first += 1

        index = first
        while index < n_entries and (entry_start := starts[index]) < interval_end:
            entry_end, value = ends[index], intensities[index]
            # the conditionals pick what max() and min() would, ties included
            overlap_start = entry_start if entry_start > cursor else cursor
            if overlap_start > cursor:
                add_gap_start(cursor)
                add_gap_length(overlap_start - cursor)
                add_gap_joules(rate * (overlap_start - cursor))
            overlap_end = entry_end if entry_end < interval_end else interval_end
            length = overlap_end - overlap_start
            joules = joules_total * (length / duration)
            add_start(overlap_start)
            add_length(length)
            add_joules(joules)
            add_intensity(value)
            add_kg(pue.value * (value * joules / JOULES_PER_KWH))
            cursor = overlap_end
            index += 1
        if cursor < interval_end:
            add_gap_start(cursor)
            add_gap_length(interval_end - cursor)
            add_gap_joules(rate * (interval_end - cursor))
    return segments, uncovered


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
    if coverage_policy == "strict" and uncovered[0]:
        start, duration_s, joules_share = (column[0] for column in uncovered)
        raise CoverageError(
            f"no intensity coverage for [{start}, {start + duration_s}) "
            f"({joules_share} J); {len(uncovered[0])} uncovered span(s) total"
        )

    return EmissionsReport(
        total_kg_co2e=fold_sum(segments[4]),
        pue=pue.value,
        coverage_policy=coverage_policy,
        segment_columns=segments,
        uncovered_columns=uncovered,
    )

