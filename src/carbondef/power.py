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

from dataclasses import dataclass, field
from math import inf
from typing import Iterator, NamedTuple, Sequence

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
    """Hardware parameters of the modeled server."""

    tdp_watts: float
    n_cpu: int
    alpha: PerComponent
    u_max: PerComponent
    idle_watts: float = 0.0
    u_max_units: UnitTags = field(default_factory=UnitTags)


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
        # one chained comparison per field: NaN and +-inf fail each of them
        if not 0 < self.duration_s < inf:
            bound = "> 0" if self.duration_s <= 0 else "finite"
            raise ValueError(f"duration_s must be {bound}, got {self.duration_s}")
        if not (0 <= self.u_cpu < inf and 0 <= self.u_mem < inf
                and 0 <= self.u_io < inf and 0 <= self.u_net < inf):
            for component in COMPONENTS:
                usage = getattr(self, f"u_{component}")
                if not 0 <= usage < inf:
                    raise ValueError(f"u_{component} must be {'>= 0' if usage < 0 else 'finite'}")

    @property
    def end(self) -> float:
        return self.start + self.duration_s


@dataclass(frozen=True)
class UsageTrace:
    """Sorted, non-overlapping usage samples; construction raises
    TraceOrderError otherwise, the one place trace order is checked.

    ``source_rows`` keeps the originating input row per sample so later
    diagnostics (clamping, range errors) can name the offending line.
    """

    samples: tuple[UsageSample, ...]
    source_rows: tuple[int, ...] | None = None

    def __post_init__(self):
        previous_end = None
        for index, sample in enumerate(self.samples):
            if previous_end is not None and sample.start < previous_end:
                row = f" (row {self.source_rows[index]})" if self.source_rows is not None else ""
                raise TraceOrderError(
                    f"sample {index}{row} starts at {sample.start}, "
                    f"before previous sample end {previous_end}"
                )
            previous_end = sample.end

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[UsageSample]:
        return iter(self.samples)


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
        previous_start = -inf
        for entry in self.entries:
            if entry.joules_total < 0 or any(j < 0 for j in entry.joules_by_component):
                raise ValueError("energy values must be >= 0")
            if entry.start < previous_start:  # align_segments merges in start order
                raise ValueError(f"energy entries out of start order at start={entry.start}")
            previous_start = entry.start

    def __len__(self) -> int:
        return len(self.entries)

    def total_joules(self) -> float:
        return sum(entry.joules_total for entry in self.entries)

    def window(self) -> tuple[float, float] | None:
        """(start of first entry, end of last entry), or None when empty."""
        if not self.entries:
            return None
        return self.entries[0].start, self.entries[-1].end


def validate_spec(spec: ServerSpec) -> ServerSpec:
    """Check every ServerSpec invariant; return the spec unchanged.

    Raises:
        SpecError: non-positive tdp/n_cpu/u_max, negative idle power,
            or an unknown usage-unit tag.
        AllocationError: allocation entry negative, cpu share zero, or
            the entries do not sum to 1 within 1e-9.
    """
    if spec.tdp_watts <= 0:
        raise SpecError(f"tdp_watts must be > 0, got {spec.tdp_watts}")
    if int(spec.n_cpu) != spec.n_cpu or spec.n_cpu < 1:
        raise SpecError(f"n_cpu must be an integer >= 1, got {spec.n_cpu}")
    for component in COMPONENTS:
        if spec.u_max.get(component) <= 0:
            raise SpecError(f"u_max.{component} must be > 0")
    if spec.idle_watts < 0:
        raise SpecError(f"idle_watts must be >= 0, got {spec.idle_watts}")

    for component in COMPONENTS:
        if spec.alpha.get(component) < 0:
            raise AllocationError(f"alpha.{component} must be >= 0")
    if spec.alpha.cpu <= 0:
        raise AllocationError("alpha.cpu must be > 0")
    total = spec.alpha.cpu + spec.alpha.mem + spec.alpha.io + spec.alpha.net
    if abs(total - 1.0) > ALPHA_SUM_TOL:
        raise AllocationError(f"alpha entries sum to {total!r}, expected 1")

    for component in ("mem", "io", "net"):
        tag = getattr(spec.u_max_units, component)
        if tag not in USAGE_UNITS:
            raise SpecError(f"u_max_units.{component} must be one of {USAGE_UNITS}")
    return spec


def _energy_kernel(spec: ServerSpec, clamp: bool):
    """``row(sample, duration)``: the EnergyEntry of ``sample`` held for
    ``duration`` seconds, by the model's one formula with the spec's
    constants taken once. A usage above its maximum raises UsageOutOfRange,
    or with ``clamp`` counts as the maximum."""
    anchor = spec.tdp_watts * spec.n_cpu
    alpha, idle = spec.alpha, spec.idle_watts
    limits = l_cpu, l_mem, l_io, l_net = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    s_mem, s_io, s_net = alpha.mem / alpha.cpu, alpha.io / alpha.cpu, alpha.net / alpha.cpu

    def row(sample: UsageSample, duration: float) -> EnergyEntry:
        u_cpu, u_mem, u_io, u_net = sample.u_cpu, sample.u_mem, sample.u_io, sample.u_net
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
        return EnergyEntry(sample.start, duration, total, joules)

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
    watts = _energy_kernel(spec, clamp)(sample, 1.0).joules_by_component
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
    return _energy_kernel(spec, clamp)(sample, sample.duration_s)


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
        entries = tuple([row(sample, sample.duration_s) for sample in trace.samples])
    except UsageOutOfRange as exc:
        # the kernel raised for the first sample over a limit
        raise UsageOutOfRange(f"sample {clamped_sample_indices(spec, trace)[0]}: {exc}") from exc
    return EnergySeries(entries=entries)


def clamped_sample_indices(spec: ServerSpec, trace: UsageTrace | Sequence[UsageSample]) -> list[int]:
    """Indices of samples with any usage above its maximum (diagnostics)."""
    l_cpu, l_mem, l_io, l_net = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    return [index for index, s in enumerate(trace)
            if s.u_cpu > l_cpu or s.u_mem > l_mem or s.u_io > l_io or s.u_net > l_net]
