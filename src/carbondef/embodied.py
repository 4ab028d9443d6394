"""Embodied-carbon attribution ledger.

Lifecycle emissions of a physical object (manufacturing, repair,
end-of-life) are attributed to consumers proportionally to how long and
how exclusively they used it during its lifespan. Sharing is expressed
as a step function of fractions in [0, 1]; a single full-lifespan step
of fraction 1 is plain unshared use. Whatever no consumer claims is the
object's idle residual: reported, never allocated to anyone.

A Ledger holds its records as columns: a consumer and an object id a record,
per-record step offsets, and the steps' start and end ints and fraction
array('d'). Its checks (fraction range, start < end, step order within a
profile, known objects, lifespan containment) are bulk passes over the
columns; only a fault walks the records, to name the first. A record's steps
never overlap, so its peak fraction bounds its share of any instant: an
object whose records' peaks sum within the limit, in the sweep's exact int
units, cannot be oversubscribed, and only the others are swept, each from
its slices of the step columns. Each
record is attributed once, into a kg column that consumer_embodied and
idle_residual read through index lists. ConsumptionRecord, SharingProfile
and ProfileStep are built on demand, and only by the ColumnRows ``records``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, compress, count
from math import inf
from operator import add, iadd, le, lt, mul, neg, sub, truediv
from typing import Iterable, Sequence

from .errors import (
    DurationError,
    FractionError,
    LedgerReferenceError,
    OversubscriptionError,
    ProfileOutOfLifespan,
    UnknownObject,
)
from .power import EPOCH_LIMIT, ColumnRows, _float_column, broken_bound, epoch_fault, fold_sum, shown

OVERSUBSCRIPTION_TOL = 1e-9


_SCALE = 2.0**60  # the oversubscription sweep counts fractions in units of 2**-60
_UNIT_LIMIT = round((1.0 + OVERSUBSCRIPTION_TOL) * _SCALE)  # 1 + tolerance, in those units
_NO_STEP = -512 / _SCALE  # max()'s default for a record with no steps, which _units makes 0


def _units(fractions: Iterable[float]) -> list[int]:
    """Fractions in the sweep's units: each an int count of 2**-60, rounded, plus 512 of slack
    (float.__round__ is round() without its method lookup)."""
    return [float.__round__(value * _SCALE) + 512 for value in fractions]


@dataclass(frozen=True)
class EmbodiedObject:
    """A physical object with finite lifecycle emissions and a usable lifespan."""

    id: str
    m_kg: float
    r_kg: float
    eol_kg: float
    lifespan_start: int
    lifespan_s: float

    def __post_init__(self):
        for kg in (self.m_kg, self.r_kg, self.eol_kg):
            if bound := broken_bound(kg, 0):
                raise ValueError(f"lifecycle emissions must be {bound}")
        if bound := broken_bound(self.lifespan_s, 0, strict=True):
            raise ValueError(f"lifespan_s must be {bound}, got {shown(self.lifespan_s)}")
        if fault := epoch_fault("lifespan_start", self.lifespan_start):
            raise ValueError(fault)

    @property
    def lifespan_end(self) -> float:
        return self.lifespan_start + self.lifespan_s


@dataclass(frozen=True, slots=True)
class ProfileStep:
    """Constant sharing fraction over one half-open interval, its start and end within ±2**53."""

    start: int
    end: int
    fraction: float

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise FractionError(f"fraction must be within [0, 1], got {shown(self.fraction)}")
        if self.end <= self.start:
            raise ValueError(f"profile step end {shown(self.end)} <= start {shown(self.start)}")
        if fault := epoch_fault("start", self.start) or epoch_fault("end", self.end):
            raise ValueError(fault)


@dataclass(frozen=True, slots=True)
class SharingProfile:
    """Sorted, non-overlapping sharing steps."""

    steps: tuple[ProfileStep, ...]

    def __post_init__(self):
        previous_end = -inf
        for step in self.steps:
            if step.start < previous_end:
                raise ValueError(f"profile steps unsorted or overlapping at start={step.start}")
            previous_end = step.end

    def weighted_seconds(self) -> float:
        """Sum of fraction x duration over all steps."""
        return fold_sum(step.fraction * (step.end - step.start) for step in self.steps)


@dataclass(frozen=True, slots=True)
class ConsumptionRecord:
    """One consumer's claim on one object over time."""

    consumer_id: str
    object_id: str
    profile: SharingProfile


def full_use_profile(obj: EmbodiedObject) -> SharingProfile:
    """Fraction-1 profile over the whole lifespan (the unshared case)."""
    return SharingProfile(
        steps=(ProfileStep(obj.lifespan_start, int(obj.lifespan_end), 1.0),)
    )


def _record(start: Sequence[int], end: Sequence[int], fraction: Sequence[float],
            consumer_id: str, object_id: str, first: int, last: int) -> ConsumptionRecord:
    """The record of ``consumer_id`` on ``object_id`` over steps ``first`` to ``last`` of the step columns."""
    profile = SharingProfile(tuple(map(ProfileStep, start[first:last], end[first:last], fraction[first:last])))
    return ConsumptionRecord(consumer_id, object_id, profile)


class Ledger:
    """Objects by id plus records as read-only ``columns`` ``(consumer_id, object_id, offsets,
    start, end, fraction)``, record i's steps at ``offsets[i]`` up to ``offsets[i + 1]``, all lists
    but fraction, an array('d'). Built from records or in bulk (``columns=``). Construction raises,
    in this order: ValueError for an object keyed by another id, a step's ProfileStep or SharingProfile
    error, LedgerReferenceError for an unknown object, ProfileOutOfLifespan, and OversubscriptionError
    for fractions on one object summing past 1 (within 1e-9) at any instant. Treated as immutable."""

    __slots__ = ("objects", "columns", "kg", "_by_object", "_by_consumer", "__weakref__")

    def __init__(self, objects: dict[str, EmbodiedObject], records: Iterable[ConsumptionRecord] = (),
                 *, columns: Sequence[Sequence] | None = None):
        if (key := next((key for key, obj in objects.items() if obj.id != key), None)) is not None:
            raise ValueError(f"object {objects[key].id!r} is keyed {key!r}, not by its id")
        if columns is None:
            records = tuple(records)
            steps = [step for record in records for step in record.profile.steps]
            columns = ([record.consumer_id for record in records], [record.object_id for record in records],
                       [0, *accumulate(len(record.profile.steps) for record in records)],
                       *([getattr(step, key) for step in steps] for key in ("start", "end", "fraction")))
        consumer_id, object_id, offsets, start, end, fraction = columns
        if not (len(consumer_id) == len(object_id) == len(offsets) - 1 and offsets[0] == 0
                and all(map(le, offsets, offsets[1:])) and offsets[-1] == len(start) == len(end) == len(fraction)):
            raise ValueError("a ledger is two id columns, one id a record, and step columns cut at offsets from 0")
        self.objects, self.columns = objects, (consumer_id, object_id, offsets, start, end, _float_column(fraction))
        fractions, spans = list(self.columns[5]), list(map(slice, offsets, offsets[1:]))  # a list slices faster

        # only a record's first step may start before the previous step's end; a NaN fraction, which min() and max()
        # may skip, makes the sum NaN; a profile's span is its first start and last end; lifespans bound starts to ±2**53
        lifespans = {key: (obj.lifespan_start, obj.lifespan_end) for key, obj in objects.items()}
        if not (all(map(lt, start, end)) and 0.0 <= min(fractions, default=0.0) and max(fractions, default=0.0) <= 1.0
                and fold_sum(fractions) >= 0.0 and set(offsets).issuperset(compress(count(1), map(lt, start[1:], end)))
                and max(end, default=0) <= EPOCH_LIMIT and lifespans.keys() >= set(object_id) and all(
                    first == last or lifespans[key][0] <= start[first] and end[last - 1] <= lifespans[key][1]
                    for key, first, last in zip(object_id, offsets, offsets[1:]))):
            for index, record in enumerate(tuple(self.records)):  # the value types raise a step's fault
                if (obj := objects.get(record.object_id)) is None:
                    raise LedgerReferenceError(
                        f"record references unknown object {record.object_id!r}", location=f"records[{index}]")
                _check_within_lifespan(obj, record, f"records[{index}]: ")

        self._by_object, self._by_consumer = {}, {}  # record positions by object id and by consumer id
        for index, (consumer, key) in enumerate(zip(consumer_id, object_id)):
            self._by_object.setdefault(key, []).append(index)
            self._by_consumer.setdefault(consumer, []).append(index)
        # each record's peak fraction in the sweep's units, which bound its part of any total the sweep keeps:
        # an object whose peaks sum within the limit cannot be oversubscribed; max() of a record with no steps raises
        try:
            peaks = _units(map(max, map(fractions.__getitem__, spans)))
        except ValueError:
            peaks = _units(map(partial(max, default=_NO_STEP), map(fractions.__getitem__, spans)))
        for key in objects:  # an object's steps, in ledger order
            if reduce(add, map(peaks.__getitem__, indices := self._by_object.get(key, ())), 0) > _UNIT_LIMIT:
                object_spans = [spans[index] for index in indices]
                _check_oversubscription(key, *(reduce(iadd, map(column.__getitem__, object_spans), [])
                                                for column in (start, end, fractions)))

        # lifecycle * weighted seconds / lifespan_s, the seconds summed in step order as weighted_seconds does
        weighted = list(map(mul, fractions, map(sub, end, start)))
        lifecycle = {key: lifecycle_total(obj) for key, obj in objects.items()}
        lifespan = {key: obj.lifespan_s for key, obj in objects.items()}
        seconds = map(fold_sum, map(weighted.__getitem__, spans))
        self.kg = array("d", map(truediv, map(mul, map(lifecycle.__getitem__, object_id), seconds),
                                 map(lifespan.__getitem__, object_id)))

    @classmethod
    def build(cls, objects: Iterable[EmbodiedObject], records: Iterable[ConsumptionRecord] = (),
              *, columns: Sequence[Sequence] | None = None) -> Ledger:
        """Index ``objects`` by id (ValueError on a duplicate) and construct the ledger."""
        by_id: dict[str, EmbodiedObject] = {}
        for obj in objects:
            if obj.id in by_id:
                raise ValueError(f"duplicate object id {obj.id!r}")
            by_id[obj.id] = obj
        return cls(by_id, records, columns=columns)

    @property
    def records(self) -> ColumnRows:
        return ColumnRows((*self.columns[:3], self.columns[2][1:]), partial(_record, *self.columns[3:]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ledger) and self.objects == other.objects and self.columns == other.columns

    def records_for_object(self, object_id: str) -> tuple[ConsumptionRecord, ...]:
        return tuple(map(self.records.__getitem__, self._by_object.get(object_id, ())))

    def records_for_consumer(self, consumer_id: str) -> tuple[ConsumptionRecord, ...]:
        return tuple(map(self.records.__getitem__, self._by_consumer.get(consumer_id, ())))

    def consumer_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_consumer))


def _check_oversubscription(object_id: str, start: list[int], end: list[int], fraction: list[float]) -> None:
    """Sweep one object's steps, given as start, end and fraction columns in
    ledger order; fractions may never sum past the limit, 1 + tolerance.

    One stable sort of the events, closings first at an edge, is swept with each
    fraction held as an int count of 2**-60 units, rounded, plus 512 of slack, so a
    closing cancels its opening: after an edge, the total is the exact sum of its k
    active fractions, within k/2 units, plus 512 * k. Where it tops the limit, they
    are re-summed in ledger order by fold_sum, giving the error's total; no edge past
    the limit escapes, as that left-to-right float sum errs by at most 256 * k units
    while the exact one is at most 2. Linear, plus an O(k log k) re-sum per edge within k * 4.4e-16 of it.

    A ledger sweeps only an object whose records' peak fractions, in these units,
    sum past the limit: a record's steps never overlap, so at most one of them is
    active after any event, and no running total can top that sum.
    """
    n, edges, units = len(start), [*end, *start], _units(fraction)
    events = sorted(range(2 * n), key=edges.__getitem__)  # a stable sort puts closings first
    active, swept = set(), 0  # the steps open after events[:swept], brought up to date at a re-sum
    for index in compress(count(1), map(_UNIT_LIMIT.__lt__, accumulate(map([*map(neg, units), *units].__getitem__, events)))):
        if index < 2 * n and edges[events[index]] == edges[events[index - 1]]:
            continue  # the edge has events still to come
        active.update(at - n for at in events[swept:index] if at >= n)
        active.difference_update(at for at in events[swept:index] if at < n)
        total, swept = fold_sum(fraction[position] for position in sorted(active)), index
        if total > 1.0 + OVERSUBSCRIPTION_TOL:
            raise OversubscriptionError(object_id, edges[events[index - 1]], total)


def _check_within_lifespan(obj: EmbodiedObject, record: ConsumptionRecord, prefix: str = "") -> None:
    steps = record.profile.steps
    if steps and (steps[0].start < obj.lifespan_start or steps[-1].end > obj.lifespan_end):
        raise ProfileOutOfLifespan(f"{prefix}profile [{steps[0].start}, {steps[-1].end}) outside "
                                   f"lifespan [{obj.lifespan_start}, {obj.lifespan_end}) of {obj.id!r}")


def lifecycle_total(obj: EmbodiedObject) -> float:
    """Manufacturing + repair + end-of-life emissions, kg CO2e, a float sum (inf past the float range)."""
    return float(obj.m_kg) + obj.r_kg + obj.eol_kg


def attribute_simple(obj: EmbodiedObject, consumed_s: float) -> float:
    """Time-proportional attribution for exclusive use."""
    if broken_bound(consumed_s, 0) or consumed_s > obj.lifespan_s:
        raise DurationError(
            f"consumed_s={shown(consumed_s)} outside [0, {obj.lifespan_s}] for {obj.id!r}"
        )
    return lifecycle_total(obj) * consumed_s / obj.lifespan_s


def attribute_shared(obj: EmbodiedObject, record: ConsumptionRecord) -> float:
    """Attribution weighted by the record's sharing fractions.

    A constant fraction-1 profile reproduces attribute_simple exactly.
    """
    _check_within_lifespan(obj, record)
    return lifecycle_total(obj) * record.profile.weighted_seconds() / obj.lifespan_s


@dataclass(frozen=True)
class ConsumerAttribution:
    """Per-consumer embodied total with per-object breakdown."""

    consumer_id: str
    total_kg: float
    by_object: dict[str, float]


def consumer_embodied(ledger: Ledger, consumer_id: str) -> ConsumerAttribution:
    """Sum attributions over all of one consumer's records.

    An unknown consumer yields zero, not an error.
    """
    object_ids, kg, indices = ledger.columns[1], ledger.kg, ledger._by_consumer.get(consumer_id, ())
    by_object: dict[str, float] = {}
    for index in indices:
        by_object[object_ids[index]] = by_object.get(object_ids[index], 0.0) + kg[index]
    return ConsumerAttribution(consumer_id, fold_sum(map(kg.__getitem__, indices)), by_object)


def idle_residual(ledger: Ledger, object_id: str) -> float:
    """Lifecycle emissions no consumer claimed for this object."""
    obj = ledger.objects.get(object_id)
    if obj is None:
        raise UnknownObject(f"unknown object {object_id!r}")
    return lifecycle_total(obj) - fold_sum(map(ledger.kg.__getitem__, ledger._by_object.get(object_id, ())))
