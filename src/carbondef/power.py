"""TDP-anchored server power and energy model.

A server is split into four observable components (cpu, mem, io, net).
Full-load CPU power is anchored at TDP times CPU count; the remaining
components are tied to that anchor through a fixed allocation vector,
and every component scales linearly with its usage ratio. An optional
idle baseline is added on top, outside the allocated budget.

All power figures are watts; energy is joules over half-open intervals
[start, start + duration). A trace is a list of int starts and five
array('d'), however it is built. The energy series is built on its trace:
it shares the trace's start and duration columns and adds six array('d')
joule columns, 48 bytes a sample, computed in bulk; rows are built on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from math import inf
from operator import add, gt, itemgetter, le, lt, mul, ne, not_, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import AllocationError, SpecError, TraceOrderError, UsageOutOfRange

COMPONENTS = ("cpu", "mem", "io", "net")

#: per-component energy sources in fixed summation order (reproducibility)
ENERGY_SOURCES = COMPONENTS + ("idle",)

ALPHA_SUM_TOL = 1e-9

USAGE_UNITS = ("bytes", "bytes_per_interval")


@dataclass(frozen=True)
class PerComponent:
    """One value per component: allocation shares (``alpha``) or usage
    maxima (``u_max``, cpu in cores, others in bytes)."""

    cpu: float
    mem: float
    io: float
    net: float

    def get(self, component: str) -> float:
        if component not in COMPONENTS:
            raise ValueError(f"unknown component {component!r}")
        return getattr(self, component)


@dataclass(frozen=True)
class UnitTags:
    """Declared units for the byte-like usage maxima.

    Tags are checked for consistency only; the model never converts
    between them because only the usage/maximum ratio enters the math.
    """

    mem: str = "bytes"
    io: str = "bytes"
    net: str = "bytes"


@dataclass(frozen=True)
class ServerSpec:
    """Hardware parameters of the modeled server. Construction raises
    SpecError for a tdp/n_cpu/u_max not in (0, inf), idle power not in
    [0, inf) or an unknown usage-unit tag, and AllocationError for a negative
    allocation entry, a zero cpu share or entries not summing to 1 within 1e-9."""

    tdp_watts: float
    n_cpu: int
    alpha: PerComponent
    u_max: PerComponent
    idle_watts: float = 0.0
    u_max_units: UnitTags = field(default_factory=UnitTags)

    def __post_init__(self):
        # NaN fails every bound below
        if not 0 < self.tdp_watts < inf:
            raise SpecError(f"tdp_watts must be {'> 0' if self.tdp_watts <= 0 else 'finite'}, got {self.tdp_watts}")
        if not (1 <= self.n_cpu < inf and int(self.n_cpu) == self.n_cpu):
            raise SpecError(f"n_cpu must be an integer >= 1, got {self.n_cpu}")
        for component in COMPONENTS:
            if not 0 < (u_max := self.u_max.get(component)) < inf:
                raise SpecError(f"u_max.{component} must be {'> 0' if u_max <= 0 else 'finite'}")
        if not 0 <= self.idle_watts < inf:
            raise SpecError(f"idle_watts must be {'>= 0' if self.idle_watts < 0 else 'finite'}, got {self.idle_watts}")

        alpha = self.alpha
        for component in COMPONENTS:
            if alpha.get(component) < 0:
                raise AllocationError(f"alpha.{component} must be >= 0")
        if alpha.cpu <= 0:
            raise AllocationError("alpha.cpu must be > 0")
        total = alpha.cpu + alpha.mem + alpha.io + alpha.net
        if not abs(total - 1.0) <= ALPHA_SUM_TOL:  # a NaN entry fails here
            raise AllocationError(f"alpha entries sum to {total!r}, expected 1")

        for component in ("mem", "io", "net"):
            if getattr(self.u_max_units, component) not in USAGE_UNITS:
                raise SpecError(f"u_max_units.{component} must be one of {USAGE_UNITS}")


# an integer within ±2**53 is exact as a float, and an epoch's ``start + duration_s`` stays finite
EPOCH_LIMIT = 2**53


def _sample_fault(start: int, duration_s: float, u_cpu: float, u_mem: float, u_io: float, u_net: float) -> str | None:
    """Why a sample breaks the field condition, start within ±2**53, duration
    in (0, inf) and usages in [0, inf), or None."""
    if not -EPOCH_LIMIT <= start <= EPOCH_LIMIT:  # NaN fails this too
        return f"start must be within ±2**53, got {start}"
    if not 0 < duration_s < inf:
        return f"duration_s must be {'> 0' if duration_s <= 0 else 'finite'}, got {duration_s}"
    for component, usage in zip(COMPONENTS, (u_cpu, u_mem, u_io, u_net)):
        if not 0 <= usage < inf:
            return f"u_{component} must be {'>= 0' if usage < 0 else 'finite'}"
    return None


@dataclass(frozen=True)
class UsageSample:
    """Resource usage aggregated over one half-open interval."""

    start: int
    duration_s: float
    u_cpu: float
    u_mem: float
    u_io: float
    u_net: float

    def __post_init__(self):
        if (fault := _sample_fault(self.start, self.duration_s, self.u_cpu, self.u_mem, self.u_io, self.u_net)) is not None:
            raise ValueError(fault)

    @property
    def end(self) -> float:
        return self.start + self.duration_s


def _first_unended(start: Sequence, duration_s: Sequence) -> int | None:
    """Index of the first interval whose end, ``start + duration_s``, does not lie past its start
    (a duration_s not > 0, or one that rounds away near ±2**53), or None."""
    return next(compress(count(), map(not_, map(lt, start, map(add, start, duration_s)))), None)


def _float_column(column: Sequence[float]) -> array:
    """``column`` itself if it is an array('d'), else its values in a new one."""
    return column if isinstance(column, array) and column.typecode == "d" else array("d", column)


class UsageTrace:
    """Sorted, non-overlapping usage samples as six read-only ``columns``, one per UsageSample
    field: a list of starts and five array('d'), the layout the parsers build. Built from samples
    or in bulk (``columns=``), where a column already in that layout is kept, not copied;
    ``samples`` are built on demand. Construction checks each column once against UsageSample's
    field condition (ValueError) and the order, the one place it is checked (TraceOrderError),
    walking rows only to name a sample. ``source_rows`` keeps each sample's input row, as the
    sequence given, for later diagnostics.
    """

    __slots__ = ("columns", "source_rows", "__weakref__")

    def __init__(self, samples: Iterable[UsageSample] = (), source_rows: Sequence[int] | None = None,
                 *, columns: Sequence[Sequence] | None = None):
        if columns is None:
            columns = tuple(zip(*[(s.start, s.duration_s, s.u_cpu, s.u_mem, s.u_io, s.u_net) for s in samples])) or ((),) * 6
        if len(columns) != 6 or len(set(map(len, columns))) > 1:
            raise ValueError("a trace is six columns of one length")
        start, *floats = columns
        self.columns = start, duration_s, *usages = (start if type(start) is list else list(start), *map(_float_column, floats))
        self.source_rows = rows = source_rows
        at = (lambda index: f"sample {index}") if rows is None else (lambda index: f"sample {index} (row {rows[index]})")
        in_range = (-EPOCH_LIMIT <= min(start, default=0) and max(start, default=0) <= EPOCH_LIMIT
                    and 0 < min(duration_s, default=1) and max(duration_s, default=0) < inf and all(
                        0 <= min(usage, default=0) and max(usage, default=0) < inf for usage in usages))
        # NaN is the one value unequal to itself; without one, min and max bound a column
        if not in_range or any(map(ne, chain(*self.columns), chain(*self.columns))):
            for index, values in enumerate(zip(*self.columns)):
                if (fault := _sample_fault(*values)) is not None:
                    raise ValueError(f"{at(index)}: {fault}")
        # each end lies past its own start and by the next start
        unended = _first_unended(start, duration_s)
        if unended is not None or not all(map(le, map(add, start, duration_s), islice(start, 1, None))):
            for index, (begin, end) in enumerate(zip(start, map(add, start, duration_s))):
                if index == unended:
                    raise TraceOrderError(f"{at(index)} ends where it starts: {begin} + {duration_s[index]} rounds to {end}")
                if index + 1 < len(start) and start[index + 1] < end:
                    raise TraceOrderError(f"{at(index + 1)} starts at {start[index + 1]}, before previous sample end {end}")

    @property
    def samples(self) -> tuple[UsageSample, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[UsageSample]:
        return map(UsageSample, *self.columns)

    def __eq__(self, other: object) -> bool:
        # source rows compare by value too: the CSV parser's range equals the tuple of its rows
        return isinstance(other, UsageTrace) and self.columns == other.columns and (
            self.source_rows == other.source_rows
            or None not in (self.source_rows, other.source_rows) and tuple(self.source_rows) == tuple(other.source_rows))


class EnergyEntry(NamedTuple):
    """Energy over one half-open interval; ``joules_by_component`` holds
    one value per ENERGY_SOURCES entry, in that order."""

    start: int
    duration_s: float
    joules_total: float
    joules_by_component: tuple[float, ...]

    @property
    def end(self) -> float:
        return self.start + self.duration_s


class EnergySeries:
    """Energy in trace order as eight read-only ``columns``, one per EnergyEntry value: the
    ``start`` and ``duration_s`` columns of the UsageTrace it is built on, shared, not copied,
    then the six ``joules`` columns, array('d') of ``joules_total`` and of each ENERGY_SOURCES
    entry's joules. Construction checks only the joules: six columns of one value a sample, each
    >= 0 (a NaN passes). The trace has checked every end past its start and the starts in order."""

    __slots__ = ("columns",)

    def __init__(self, trace: UsageTrace, joules: Sequence[Sequence[float]]):
        if len(joules) != 1 + len(ENERGY_SOURCES) or set(map(len, joules)) - {len(trace)}:
            raise ValueError("an energy series is six joule columns, one value a sample")
        if any(map(gt, repeat(0.0), chain(*joules))):
            raise ValueError("energy values must be >= 0")
        self.columns = (*trace.columns[:2], *joules)

    @property
    def entries(self) -> tuple[EnergyEntry, ...]:
        start, duration_s, total, *joules = self.columns
        return tuple(map(EnergyEntry, start, duration_s, total, zip(*joules)))

    def __len__(self) -> int:
        return len(self.columns[0])

    def total_joules(self) -> float:
        return sum(self.columns[2])

    def window(self) -> tuple[float, float] | None:
        """(start of first entry, end of last entry), or None when empty."""
        start, duration_s = self.columns[:2]
        return (start[0], start[-1] + duration_s[-1]) if start else None


def _joule_columns(spec: ServerSpec, duration: Sequence[float], usages: list[Sequence[float]], clamp: bool) -> list[array]:
    """Array('d') of the total joules of each sample of a ``duration`` and four
    ``usages`` columns, then one per ENERGY_SOURCES entry: ``u / u_max * share
    * anchor * duration``, the share relative to the cpu's (for the cpu 1.0, and
    ``x * 1.0 == x``), and ``idle_watts * duration``, summed in that order. A
    usage above its maximum raises UsageOutOfRange for the first such sample,
    or with ``clamp`` counts as the maximum."""
    anchor, alpha = spec.tdp_watts * spec.n_cpu, spec.alpha
    limits = [spec.u_max.get(component) for component in COMPONENTS]
    for position, (usage, limit) in enumerate(zip(usages, limits)):
        if max(usage, default=0) > limit:
            if not clamp:
                row = next(row for row in zip(*usages) if any(map(gt, row, limits)))
                component, usage, limit = next(fault for fault in zip(COMPONENTS, row, limits) if fault[1] > fault[2])
                raise UsageOutOfRange(f"u_{component}={usage} exceeds u_max.{component}={limit}")
            usages[position] = map(min, usage, repeat(limit))
    shares = [alpha.get(component) / alpha.cpu for component in COMPONENTS]
    joules = [
        array("d", map(mul, map(mul, map(mul, map(truediv, usage, repeat(limit)), repeat(share)), repeat(anchor)), duration))
        for usage, limit, share in zip(usages, limits, shares)
    ]
    joules.append(array("d", map(mul, repeat(spec.idle_watts), duration)))
    cpu, mem, io, net, idle = joules
    return [array("d", map(add, map(add, map(add, map(add, cpu, mem), io), net), idle)), *joules]


def _usage_columns(sample: UsageSample) -> list[list[float]]:
    return [[sample.u_cpu], [sample.u_mem], [sample.u_io], [sample.u_net]]


def component_power(spec: ServerSpec, sample: UsageSample, clamp: bool = False) -> dict[str, float]:
    """Instantaneous power for one usage sample, watts per ENERGY_SOURCES entry.

    CPU power is (usage / max) of the full-load anchor tdp_watts * n_cpu;
    each other component gets the same linear ramp scaled by its share of
    the allocation vector relative to the cpu share. The idle baseline is
    charged unconditionally.

    Raises UsageOutOfRange when a usage exceeds its maximum and ``clamp``
    is False; with ``clamp`` the usage is cut to the maximum instead.
    """
    # the energy of one second is the power: x * 1.0 == x for every float
    _, *watts = _joule_columns(spec, [1.0], _usage_columns(sample), clamp)
    return dict(zip(ENERGY_SOURCES, map(itemgetter(0), watts)))


def marginal_power(spec: ServerSpec, component: str) -> float:
    """Constant marginal power per usage unit of ``component``.

    Because the ramps are linear this is exactly the derivative of
    component power with respect to usage: tdp*n_cpu/u_max for cpu, the
    allocation-scaled equivalent for the others.
    """
    anchor = spec.tdp_watts * spec.n_cpu
    # cpu needs no case of its own: alpha.cpu / alpha.cpu is exactly 1.0
    return (spec.alpha.get(component) / spec.alpha.cpu) * anchor / spec.u_max.get(component)


def energy_over_interval(spec: ServerSpec, sample: UsageSample, clamp: bool = False) -> EnergyEntry:
    """Energy for one sample, treating usage as constant over the interval."""
    total, *joules = map(itemgetter(0), _joule_columns(spec, [sample.duration_s], _usage_columns(sample), clamp))
    return EnergyEntry(sample.start, sample.duration_s, total, tuple(joules))


def trace_to_energy_series(spec: ServerSpec, trace: UsageTrace, clamp: bool = False) -> EnergySeries:
    """Convert a whole trace to an energy series, one entry per sample.

    Raises UsageOutOfRange when some usage exceeds its maximum and ``clamp``
    is False; the message names the first such sample's index.
    """
    try:
        joules = _joule_columns(spec, trace.columns[1], list(trace.columns[2:]), clamp)
    except UsageOutOfRange as exc:
        # raised for the first sample over a limit
        raise UsageOutOfRange(f"sample {clamped_sample_indices(spec, trace)[0]}: {exc}") from exc
    return EnergySeries(trace, joules)


def clamped_sample_indices(spec: ServerSpec, trace: UsageTrace) -> list[int]:
    """Indices of samples with any usage above its maximum (diagnostics)."""
    limits = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    over = (compress(count(), map(gt, usage, repeat(limit))) for usage, limit in zip(trace.columns[2:], limits))
    return sorted(set().union(*over))
