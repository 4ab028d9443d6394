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
joule columns, 48 bytes a sample, computed in bulk. ColumnRows, the one
typed row view of the package, builds rows on demand. in_two, the one fork
site, runs the second half of the CSV parse, joules and large views in a child.
"""

from __future__ import annotations

import gc
import marshal
import os
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import add, gt, itemgetter, le, lt, mul, ne, not_, truediv
from sys import float_info
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

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
    """Hardware parameters of the modeled server, each number bounded by broken_bound. Construction
    raises SpecError for a tdp/n_cpu/u_max not > 0 and finite, an n_cpu that is no integer, idle power
    not >= 0 and finite or an unknown usage-unit tag, and AllocationError for an allocation entry not
    >= 0 and finite, a zero cpu share or entries not summing to 1 within 1e-9."""

    tdp_watts: float
    n_cpu: int
    alpha: PerComponent
    u_max: PerComponent
    idle_watts: float = 0.0
    u_max_units: UnitTags = field(default_factory=UnitTags)

    def __post_init__(self):
        if bound := broken_bound(self.tdp_watts, 0, strict=True):
            raise SpecError(f"tdp_watts must be {bound}, got {shown(self.tdp_watts)}")
        if broken_bound(self.n_cpu, 1) or int(self.n_cpu) != self.n_cpu:
            raise SpecError(f"n_cpu must be an integer >= 1, got {shown(self.n_cpu)}")
        for component in COMPONENTS:
            if bound := broken_bound(self.u_max.get(component), 0, strict=True):
                raise SpecError(f"u_max.{component} must be {bound}")
        if bound := broken_bound(self.idle_watts, 0):
            raise SpecError(f"idle_watts must be {bound}, got {shown(self.idle_watts)}")

        alpha = self.alpha
        for component in COMPONENTS:
            if bound := broken_bound(alpha.get(component), 0):
                raise AllocationError(f"alpha.{component} must be {bound}")
        if bound := broken_bound(alpha.cpu, 0, strict=True):
            raise AllocationError(f"alpha.cpu must be {bound}")
        total = alpha.cpu + alpha.mem + alpha.io + alpha.net
        if not abs(total - 1) <= ALPHA_SUM_TOL:  # an int total is compared, not converted: it may pass the float range
            raise AllocationError(f"alpha entries sum to {total!r}, expected 1")

        for component in ("mem", "io", "net"):
            if getattr(self.u_max_units, component) not in USAGE_UNITS:
                raise SpecError(f"u_max_units.{component} must be one of {USAGE_UNITS}")


# an integer within ±2**53 is exact as a float, and an epoch's ``start + duration_s`` stays finite
EPOCH_LIMIT = 2**53


def shown(value: object) -> str:
    """``value`` as a message shows it: an int too long for str() (sys.get_int_max_str_digits())
    as its sign and bit count."""
    try:
        return str(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {abs(value).bit_length()} bits"


def broken_bound(value: float, low: float, strict: bool = False) -> str | None:
    """The bound a quantity ``value`` breaks, or None: ``'>= low'`` (``'> low'`` if ``strict``) below ``low``,
    -inf included, else ``'finite'`` for NaN, inf or an int past the float range, compared, never converted."""
    if (value <= low) if strict else (value < low):
        return f"{'>' if strict else '>='} {low}"
    return None if value <= float_info.max else "finite"


def fold_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, the one float sum: the same bits on every interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


SPLIT_ROWS = 1 << 14  # rows past which _joule_columns computes its second half through columns_in_two


def in_two(first: Callable, second: Callable, load: Callable, serial: Callable) -> object:
    """``first()``, while a forked child runs ``second(spill)`` to write the second half into an unnamed temporary file
    that ``load(first(), spill)`` reads. Beside another thread (the child could inherit a lock it holds), with no fork
    or spill, or after a failed child, ``serial(first())`` does it here. If ``first()`` raises, the child is killed first."""
    pid = spill = None
    try:
        if hasattr(os, "fork") and not ("threading" in sys.modules and sys.modules["threading"].active_count() > 1):
            import tempfile  # here, not at module level: every run's cold start would pay for it
            spill = tempfile.TemporaryFile()
            pid = os.fork()
    except OSError:  # no spill file or no process to spare
        pass
    if pid == 0:  # os._exit flushes no buffer shared with this process and runs no atexit hook
        try:
            gc.disable()  # a collection could finalize, and so flush, a file object of the parent's
            second(spill)
            spill.flush()
            os._exit(0)
        finally:
            os._exit(1)  # the second half raised
    try:
        mine = first()
        status, pid = os.waitpid(pid, 0)[1] if pid else 1, None  # reaped: nothing left to kill
        if status == 0:
            spill.seek(0)
            load(mine, spill)
        else:
            serial(mine)
        return mine
    except BaseException:  # an error or an interrupt while the child runs: no child outlives this call
        if pid:
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every run's cold start
            os.waitpid(pid, 0)
        raise
    finally:
        if spill is not None:
            spill.close()


def _dump_columns(columns: Sequence[Sequence], spill: BinaryIO) -> None:
    for column in columns:  # each after its length: an array('d') by tofile, a list (ints and floats) by marshal
        data = column if type(column) is array else marshal.dumps(column)
        spill.write(len(data).to_bytes(8, "little"))
        column.tofile(spill) if data is column else spill.write(data)


def _load_columns(columns: Sequence, spill: BinaryIO) -> None:
    for column in columns:  # a column at a time, read into the first half's column of the same type
        size = int.from_bytes(spill.read(8), "little")
        column.fromfile(spill, size) if type(column) is array else column.extend(marshal.loads(spill.read(size)))


def columns_in_two(compute: Callable[[int, int], list], begin: int, middle: int, end: int) -> list:
    """``compute(begin, end)``, for a ``compute`` giving a row range's columns (lists, array('d')): those of
    ``compute(begin, middle)``, each extended by those of ``compute(middle, end)``, through :func:`in_two`."""
    def extend(columns: list) -> None:
        for column, more in zip(columns, compute(middle, end)):
            column.extend(more)
    return in_two(lambda: compute(begin, middle), lambda spill: _dump_columns(compute(middle, end), spill), _load_columns, extend)


def epoch_fault(name: str, value: int) -> str | None:
    """Why the epoch ``value`` of the field ``name`` lies outside ±2**53 (NaN included), or None."""
    return None if -EPOCH_LIMIT <= value <= EPOCH_LIMIT else f"{name} must be within ±2**53, got {shown(value)}"


def _sample_fault(start: int, duration_s: float, u_cpu: float, u_mem: float, u_io: float, u_net: float) -> str | None:
    """Why a sample breaks the field condition, or None: start within ±2**53 (:func:`epoch_fault`),
    duration_s > 0 and usages >= 0, each finite (:func:`broken_bound`)."""
    if fault := epoch_fault("start", start):
        return fault
    if bound := broken_bound(duration_s, 0, strict=True):
        return f"duration_s must be {bound}, got {shown(duration_s)}"
    for component, usage in zip(COMPONENTS, (u_cpu, u_mem, u_io, u_net)):
        if bound := broken_bound(usage, 0):
            return f"u_{component} must be {bound}"
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


def _float_column(column: Sequence[float]) -> array | list:
    """``column`` itself if it is an array('d'), else its values in a new one."""
    try:
        return column if isinstance(column, array) and column.typecode == "d" else array("d", column)
    except OverflowError:  # an int past the float range: a list, for the caller's check to name
        return list(column)


class ColumnRows:
    """Read-only rows over ``columns``, row i ``row(*values at i)``, built on demand, a slice a tuple of them;
    ``len()`` reads the first column. A view equals a view or tuple that holds equal rows."""

    __slots__ = ("columns", "row")

    def __init__(self, columns: Sequence[Sequence], row: Callable[..., object]):
        self.columns, self.row = columns, row

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        return self.row(*map(itemgetter(range(len(self))[index]), self.columns))

    def __iter__(self) -> Iterator:
        return map(self.row, *self.columns)

    def __eq__(self, other: object) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (ColumnRows, tuple)) else NotImplemented


class UsageTrace:
    """Sorted, non-overlapping usage samples as six read-only ``columns``, one per UsageSample
    field: a list of starts and five array('d'), the layout the parsers build. Built from samples
    or in bulk (``columns=``), where a column already in that layout is kept, not copied;
    ``samples`` are built on demand. Construction checks each column once against UsageSample's
    field condition on the values as given, so no int past the float range rounds into the range
    (ValueError), then the order, the one place it is checked (TraceOrderError), walking rows only
    to name a sample. ``source_rows`` keeps each sample's input row, one a sample (ValueError), as
    the sequence given, for later diagnostics."""

    __slots__ = ("columns", "source_rows", "__weakref__")

    def __init__(self, samples: Iterable[UsageSample] = (), source_rows: Sequence[int] | None = None,
                 *, columns: Sequence[Sequence] | None = None):
        if columns is None:
            columns = tuple(zip(*[(s.start, s.duration_s, s.u_cpu, s.u_mem, s.u_io, s.u_net) for s in samples])) or ((),) * 6
        if len(columns) != 6 or len(set(map(len, columns))) > 1:
            raise ValueError("a trace is six columns of one length")
        self.source_rows = rows = source_rows
        if rows is not None and len(rows) != len(columns[0]):
            raise ValueError(f"a trace of {len(columns[0])} samples has {len(rows)} source rows")
        at = (lambda index: f"sample {index}") if rows is None else (lambda index: f"sample {index} (row {rows[index]})")
        # NaN is the one value unequal to itself; without one, the rows of column minima and maxima bound every row
        lows, highs = zip(*((min(column, default=1), max(column, default=1)) for column in columns))
        if _sample_fault(*lows) or _sample_fault(*highs) or any(map(ne, chain(*columns), chain(*columns))):
            for index, values in enumerate(zip(*columns)):
                if (fault := _sample_fault(*values)) is not None:
                    raise ValueError(f"{at(index)}: {fault}")
        start, *floats = columns
        self.columns = start, duration_s, *_ = (start if type(start) is list else list(start), *map(_float_column, floats))
        # each end lies past its own start and by the next start
        unended = _first_unended(start, duration_s)
        if unended is not None or not all(map(le, map(add, start, duration_s), islice(start, 1, None))):
            for index, (begin, end) in enumerate(zip(start, map(add, start, duration_s))):
                if index == unended:
                    raise TraceOrderError(f"{at(index)} ends where it starts: {begin} + {duration_s[index]} rounds to {end}")
                if index + 1 < len(start) and start[index + 1] < end:
                    raise TraceOrderError(f"{at(index + 1)} starts at {start[index + 1]}, before previous sample end {end}")

    @property
    def samples(self) -> ColumnRows:
        return ColumnRows(self.columns, UsageSample)

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
    def entries(self) -> ColumnRows:
        return ColumnRows(self.columns, lambda start, duration_s, total, *joules: EnergyEntry(start, duration_s, total, joules))

    def __len__(self) -> int:
        return len(self.columns[0])

    def total_joules(self) -> float:
        return fold_sum(self.columns[2])

    def window(self) -> tuple[float, float] | None:
        """(start of first entry, end of last entry), or None when empty."""
        start, duration_s = self.columns[:2]
        return (start[0], start[-1] + duration_s[-1]) if start else None


def _joule_columns(spec: ServerSpec, duration: Sequence[float], usages: Sequence[Sequence[float]], clamp: bool) -> list[array]:
    """Array('d') of the total joules of each sample of a ``duration`` and four
    ``usages`` columns, then one per ENERGY_SOURCES entry: ``u / u_max * share
    * anchor * duration``, the share relative to the cpu's (for the cpu 1.0, and
    ``x * 1.0 == x``), and ``idle_watts * duration``, summed in that order. A
    usage above its maximum raises UsageOutOfRange for the first such sample,
    or with ``clamp`` counts as the maximum; past SPLIT_ROWS rows, in halves."""
    anchor, alpha, rows = float(spec.tdp_watts) * spec.n_cpu, spec.alpha, len(duration)  # inf past the float range
    limits = [spec.u_max.get(component) for component in COMPONENTS]
    over = [max(usage, default=0) > limit for usage, limit in zip(usages, limits)]
    if any(over) and not clamp:
        row = next(row for row in zip(*usages) if any(map(gt, row, limits)))
        component, usage, limit = next(fault for fault in zip(COMPONENTS, row, limits) if fault[1] > fault[2])
        raise UsageOutOfRange(f"u_{component}={usage} exceeds u_max.{component}={limit}")
    shares = [alpha.get(component) / alpha.cpu for component in COMPONENTS]
    def joule_rows(begin: int, end: int) -> list[array]:
        span, joules = duration[begin:end], []
        for usage, limit, share, clamped in zip(usages, limits, shares, over):
            usage = map(min, usage[begin:end], repeat(limit)) if clamped else usage[begin:end]  # an iterator a half
            joules.append(array("d", map(mul, map(mul, map(mul, map(truediv, usage, repeat(limit)), repeat(share)), repeat(anchor)), span)))
        joules.append(array("d", map(mul, repeat(spec.idle_watts), span)))
        cpu, mem, io, net, idle = joules
        return [array("d", map(add, map(add, map(add, map(add, cpu, mem), io), net), idle)), *joules]
    return columns_in_two(joule_rows, 0, rows // 2, rows) if rows > SPLIT_ROWS else joule_rows(0, rows)


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
    anchor = float(spec.tdp_watts) * spec.n_cpu
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
        joules = _joule_columns(spec, trace.columns[1], trace.columns[2:], clamp)
    except UsageOutOfRange as exc:
        # raised for the first sample over a limit
        raise UsageOutOfRange(f"sample {clamped_sample_indices(spec, trace)[0]}: {exc}") from exc
    return EnergySeries(trace, joules)


def clamped_sample_indices(spec: ServerSpec, trace: UsageTrace) -> list[int]:
    """Indices of samples with any usage above its maximum (diagnostics)."""
    limits = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    over = (compress(count(), map(gt, usage, repeat(limit))) for usage, limit in zip(trace.columns[2:], limits)
            if max(usage, default=0) > limit)  # a trace holds no NaN: a column within its limit has no row over it
    return sorted(set().union(*over))
