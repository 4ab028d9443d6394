"""Embodied-carbon attribution ledger.

Lifecycle emissions of a physical object (manufacturing, repair,
end-of-life) are attributed to consumers proportionally to how long and
how exclusively they used it during its lifespan. Sharing is expressed
as a step function of fractions in [0, 1]; a single full-lifespan step
of fraction 1 is plain unshared use. Whatever no consumer claims is the
object's idle residual: reported, never allocated to anyone.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import accumulate
from math import inf
from operator import itemgetter
from typing import Iterable

from .errors import (
    DurationError,
    FractionError,
    LedgerReferenceError,
    OversubscriptionError,
    ProfileOutOfLifespan,
    UnknownObject,
)
from .power import EPOCH_LIMIT

OVERSUBSCRIPTION_TOL = 1e-9


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
        emissions = (self.m_kg, self.r_kg, self.eol_kg)
        if not all(0 <= kg < inf for kg in emissions):  # NaN fails this too
            negative = any(kg < 0 for kg in emissions)
            raise ValueError(f"lifecycle emissions must be {'>= 0' if negative else 'finite'}")
        if not 0 < self.lifespan_s < inf:
            raise ValueError(f"lifespan_s must be {'> 0' if self.lifespan_s <= 0 else 'finite'}, got {self.lifespan_s}")
        if not -EPOCH_LIMIT <= self.lifespan_start <= EPOCH_LIMIT:  # NaN fails this too
            raise ValueError(f"lifespan_start must be within ±2**53, got {self.lifespan_start}")

    @property
    def lifespan_end(self) -> float:
        return self.lifespan_start + self.lifespan_s


@dataclass(frozen=True, slots=True)
class ProfileStep:
    """Constant sharing fraction over one half-open interval."""

    start: int
    end: int
    fraction: float

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise FractionError(f"fraction must be within [0, 1], got {self.fraction}")
        if self.end <= self.start:
            raise ValueError(f"profile step end {self.end} <= start {self.start}")

    @property
    def duration_s(self) -> int:
        return self.end - self.start


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
        return sum(step.fraction * step.duration_s for step in self.steps)

    def span(self) -> tuple[int, int] | None:
        if not self.steps:
            return None
        return self.steps[0].start, self.steps[-1].end


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


@dataclass(frozen=True)
class Ledger:
    """Objects plus consumption records, checked at construction: an object
    keyed by another id raises ValueError, a record naming an unknown object
    LedgerReferenceError, a profile outside its object's lifespan
    ProfileOutOfLifespan, and fractions on one object summing past 1 (within
    1e-9) at any instant OversubscriptionError.

    Built single-writer and then treated as immutable; queries are pure.
    Construction indexes the records by object and by consumer, in ledger order.
    """

    objects: dict[str, EmbodiedObject]
    records: tuple[ConsumptionRecord, ...] = field(default=())
    _by_object: dict[str, list[ConsumptionRecord]] = field(init=False, repr=False, compare=False)
    _by_consumer: dict[str, list[ConsumptionRecord]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (key := next((key for key, obj in self.objects.items() if obj.id != key), None)) is not None:
            raise ValueError(f"object {self.objects[key].id!r} is keyed {key!r}, not by its id")
        by_object: dict[str, list[ConsumptionRecord]] = {}
        by_consumer: dict[str, list[ConsumptionRecord]] = {}
        for index, record in enumerate(self.records):
            obj = self.objects.get(record.object_id)
            if obj is None:
                raise LedgerReferenceError(
                    f"record references unknown object {record.object_id!r}",
                    location=f"records[{index}]",
                )
            _check_within_lifespan(obj, record, f"records[{index}]: ")
            by_object.setdefault(record.object_id, []).append(record)
            by_consumer.setdefault(record.consumer_id, []).append(record)
        for object_id in self.objects:
            _check_oversubscription(object_id, [s for r in by_object.get(object_id, ()) for s in r.profile.steps])
        object.__setattr__(self, "_by_object", by_object)
        object.__setattr__(self, "_by_consumer", by_consumer)

    @classmethod
    def build(
        cls,
        objects: Iterable[EmbodiedObject],
        records: Iterable[ConsumptionRecord],
    ) -> Ledger:
        """Index ``objects`` by id (ValueError on a duplicate) and construct the ledger."""
        by_id: dict[str, EmbodiedObject] = {}
        for obj in objects:
            if obj.id in by_id:
                raise ValueError(f"duplicate object id {obj.id!r}")
            by_id[obj.id] = obj
        return cls(objects=by_id, records=tuple(records))

    def records_for_object(self, object_id: str) -> tuple[ConsumptionRecord, ...]:
        return tuple(self._by_object.get(object_id, ()))

    def records_for_consumer(self, consumer_id: str) -> tuple[ConsumptionRecord, ...]:
        return tuple(self._by_consumer.get(consumer_id, ()))

    def consumer_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_consumer))


def _check_oversubscription(object_id: str, steps: list[ProfileStep]) -> None:
    """Sweep one object's steps (ledger order); fractions may never sum past 1.

    The active steps are re-summed in ledger order at each edge, never kept as a
    running total, so the reported total carries no drift from earlier edges.
    That sweep is skipped when a running total over the edges, closings first at
    each, peaks ``margin`` = 8 * n**2 * u or more below 1 + tolerance (n steps,
    u = 2**-53). Summing at most 2n terms of magnitude <= 1, it is within about
    4 * n**2 * u of the exact sum of the active fractions after each edge, and a
    ledger-order re-sum of them within n**2 * u: no edge past 1 + tolerance is missed.
    """
    margin = 4 * len(steps) ** 2 * 2.0**-52
    events = sorted([*((step.end, -step.fraction) for step in steps), *((step.start, step.fraction) for step in steps)])
    if max(accumulate(map(itemgetter(1), events)), default=0.0) <= 1.0 + OVERSUBSCRIPTION_TOL - margin:
        return
    opening: dict[int, list[int]] = {}
    closing: dict[int, list[int]] = {}
    for position, step in enumerate(steps):
        opening.setdefault(step.start, []).append(position)
        closing.setdefault(step.end, []).append(position)
    active: list[int] = []
    for edge in sorted(opening.keys() | closing.keys()):
        for position in closing.get(edge, ()):
            active.remove(position)
        for position in opening.get(edge, ()):
            insort(active, position)
        total = sum(steps[position].fraction for position in active)
        if total > 1.0 + OVERSUBSCRIPTION_TOL:
            raise OversubscriptionError(object_id, edge, total)


def _check_within_lifespan(obj: EmbodiedObject, record: ConsumptionRecord, prefix: str = "") -> None:
    span = record.profile.span()
    if span is not None and (span[0] < obj.lifespan_start or span[1] > obj.lifespan_end):
        raise ProfileOutOfLifespan(
            f"{prefix}profile [{span[0]}, {span[1]}) outside lifespan "
            f"[{obj.lifespan_start}, {obj.lifespan_end}) of {obj.id!r}"
        )


def lifecycle_total(obj: EmbodiedObject) -> float:
    """Manufacturing + repair + end-of-life emissions, kg CO2e."""
    return obj.m_kg + obj.r_kg + obj.eol_kg


def attribute_simple(obj: EmbodiedObject, consumed_s: float) -> float:
    """Time-proportional attribution for exclusive use."""
    if consumed_s < 0 or consumed_s > obj.lifespan_s:
        raise DurationError(
            f"consumed_s={consumed_s} outside [0, {obj.lifespan_s}] for {obj.id!r}"
        )
    return lifecycle_total(obj) * consumed_s / obj.lifespan_s


def attribute_shared(obj: EmbodiedObject, record: ConsumptionRecord) -> float:
    """Attribution weighted by the record's sharing fractions.

    A constant fraction-1 profile reproduces attribute_simple exactly.
    """
    _check_within_lifespan(obj, record)
    return _attributed(obj, record)


def _attributed(obj: EmbodiedObject, record: ConsumptionRecord) -> float:
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
    by_object: dict[str, float] = {}
    total = 0.0
    for record in ledger.records_for_consumer(consumer_id):
        kg = _attributed(ledger.objects[record.object_id], record)
        by_object[record.object_id] = by_object.get(record.object_id, 0.0) + kg
        total += kg
    return ConsumerAttribution(consumer_id=consumer_id, total_kg=total, by_object=by_object)


def idle_residual(ledger: Ledger, object_id: str) -> float:
    """Lifecycle emissions no consumer claimed for this object."""
    obj = ledger.objects.get(object_id)
    if obj is None:
        raise UnknownObject(f"unknown object {object_id!r}")
    attributed = sum(_attributed(obj, record) for record in ledger.records_for_object(object_id))
    return lifecycle_total(obj) - attributed
