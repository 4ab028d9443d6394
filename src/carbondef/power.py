"""TDP-anchored server power and energy model.

A server is split into four observable components (cpu, mem, io, net).
Full-load CPU power is anchored at TDP times CPU count; the remaining
components are tied to that anchor through a fixed allocation vector,
and every component scales linearly with its usage ratio. An optional
idle baseline is added on top, outside the allocated budget.

All power figures are watts; energy is joules over half-open intervals
[start, start + duration).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from itertools import chain, compress, count, islice, repeat
from math import inf
from operator import add, gt, itemgetter, le, ne
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


def _columns(samples: Iterable[UsageSample]) -> tuple[list, ...]:
    rows = [(s.start, s.duration_s, s.u_cpu, s.u_mem, s.u_io, s.u_net) for s in samples]
    return tuple(map(list, zip(*rows))) if rows else ([], [], [], [], [], [])


class UsageTrace:
    """Sorted, non-overlapping usage samples as six read-only ``columns``, one
    list per UsageSample field, built from samples or in bulk (``columns=``);
    ``samples`` are built on demand. Construction checks each column once
    against UsageSample's field condition (ValueError) and the order, the one
    place it is checked (TraceOrderError), walking rows only to name a sample.
    ``source_rows`` keeps each sample's input row for later diagnostics.
    """

    __slots__ = ("columns", "source_rows", "__weakref__")

    def __init__(self, samples: Iterable[UsageSample] = (), source_rows: Sequence[int] | None = None,
                 *, columns: tuple[list, ...] | None = None):
        self.columns = start, duration_s, *usages = _columns(samples) if columns is None else tuple(columns)
        self.source_rows = rows = None if source_rows is None else tuple(source_rows)
        if len(self.columns) != 6 or len(set(map(len, self.columns))) > 1:
            raise ValueError("a trace is six columns of one length")
        at = (lambda index: f"sample {index}") if rows is None else (lambda index: f"sample {index} (row {rows[index]})")
        in_range = (-EPOCH_LIMIT <= min(start, default=0) and max(start, default=0) <= EPOCH_LIMIT
                    and 0 < min(duration_s, default=1) and max(duration_s, default=0) < inf and all(
                        0 <= min(usage, default=0) and max(usage, default=0) < inf for usage in usages))
        # NaN is the one value unequal to itself; without one, min and max bound a column
        if not in_range or any(map(ne, chain(*self.columns), chain(*self.columns))):
            for index, values in enumerate(zip(*self.columns)):
                if (fault := _sample_fault(*values)) is not None:
                    raise ValueError(f"{at(index)}: {fault}")
        if not all(map(le, map(add, start, duration_s), islice(start, 1, None))):
            for index, (begin, previous_end) in enumerate(zip(start[1:], map(add, start, duration_s)), 1):
                if begin < previous_end:
                    raise TraceOrderError(f"{at(index)} starts at {begin}, before previous sample end {previous_end}")

    @property
    def samples(self) -> tuple[UsageSample, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[UsageSample]:
        return map(UsageSample, *self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UsageTrace) and (self.columns, self.source_rows) == (other.columns, other.source_rows)


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


@dataclass(frozen=True)
class EnergySeries:
    """Energy entries in trace order, which UsageTrace has checked."""

    entries: tuple[EnergyEntry, ...]

    def __post_init__(self):
        entries = self.entries
        # C-level passes; a NaN compares false, so it passes as in a walk over the entries
        if any(map(gt, repeat(0), chain(map(itemgetter(2), entries), chain.from_iterable(map(itemgetter(3), entries))))):
            raise ValueError("energy values must be >= 0")
        later = map(itemgetter(0), islice(entries, 1, None))
        unordered = compress(islice(entries, 1, None), map(gt, map(itemgetter(0), entries), later))
        if (entry := next(unordered, None)) is not None:  # align_segments merges in start order
            raise ValueError(f"energy entries out of start order at start={entry.start}")

    def __len__(self) -> int:
        return len(self.entries)

    def total_joules(self) -> float:
        return sum(map(itemgetter(2), self.entries))

    def window(self) -> tuple[float, float] | None:
        """(start of first entry, end of last entry), or None when empty."""
        if not self.entries:
            return None
        return self.entries[0].start, self.entries[-1].end


def _energy_kernel(spec: ServerSpec, clamp: bool):
    """``row(start, duration, u_cpu, u_mem, u_io, u_net)``: the EnergyEntry
    of one sample's fields, by the model's one formula with the spec's
    constants taken once. A usage above its maximum raises UsageOutOfRange,
    or with ``clamp`` counts as the maximum."""
    anchor = spec.tdp_watts * spec.n_cpu
    alpha, idle = spec.alpha, spec.idle_watts
    limits = l_cpu, l_mem, l_io, l_net = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    s_mem, s_io, s_net = alpha.mem / alpha.cpu, alpha.io / alpha.cpu, alpha.net / alpha.cpu

    def row(start: int, duration: float, u_cpu: float, u_mem: float, u_io: float, u_net: float) -> EnergyEntry:
        if u_cpu > l_cpu or u_mem > l_mem or u_io > l_io or u_net > l_net:
            usages = (u_cpu, u_mem, u_io, u_net)
            for component, usage, limit in zip(COMPONENTS, usages, limits):
                if usage > limit and not clamp:
                    raise UsageOutOfRange(f"u_{component}={usage} exceeds u_max.{component}={limit}")
            u_cpu, u_mem, u_io, u_net = map(min, usages, limits)
        joules = (
            u_cpu / l_cpu * anchor * duration,
            u_mem / l_mem * s_mem * anchor * duration,
            u_io / l_io * s_io * anchor * duration,
            u_net / l_net * s_net * anchor * duration,
            idle * duration,
        )
        total = joules[0] + joules[1] + joules[2] + joules[3] + joules[4]
        return EnergyEntry(start, duration, total, joules)

    return row


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
    watts = _energy_kernel(spec, clamp)(sample.start, 1.0, *astuple(sample)[2:]).joules_by_component
    return dict(zip(ENERGY_SOURCES, watts))


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
    return _energy_kernel(spec, clamp)(*astuple(sample))


def trace_to_energy_series(
    spec: ServerSpec,
    trace: UsageTrace | Sequence[UsageSample],
    clamp: bool = False,
) -> EnergySeries:
    """Convert a whole trace to an energy series, one entry per sample.

    Raises:
        TraceOrderError: samples unsorted or overlapping.
        UsageOutOfRange: some usage exceeds its maximum (clamp off);
            the message names the offending sample index.
    """
    if not isinstance(trace, UsageTrace):
        trace = UsageTrace(samples=tuple(trace))
    row = _energy_kernel(spec, clamp)
    try:
        entries = tuple(map(row, *trace.columns))
    except UsageOutOfRange as exc:
        # the kernel raised for the first sample over a limit
        raise UsageOutOfRange(f"sample {clamped_sample_indices(spec, trace)[0]}: {exc}") from exc
    return EnergySeries(entries=entries)


def clamped_sample_indices(spec: ServerSpec, trace: UsageTrace | Sequence[UsageSample]) -> list[int]:
    """Indices of samples with any usage above its maximum (diagnostics)."""
    columns = trace.columns if isinstance(trace, UsageTrace) else _columns(trace)
    limits = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    over = (compress(count(), map(gt, usage, repeat(limit))) for usage, limit in zip(columns[2:], limits))
    return sorted(set().union(*over))
