import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from carbondef import (
    ConsumptionRecord,
    EmbodiedObject,
    Ledger,
    ProfileStep,
    SharingProfile,
    attribute_shared,
    attribute_simple,
    consumer_embodied,
    full_use_profile,
    idle_residual,
    lifecycle_total,
)
from carbondef import embodied
from carbondef.embodied import OVERSUBSCRIPTION_TOL, _check_oversubscription
from carbondef.errors import (
    DurationError,
    FractionError,
    LedgerReferenceError,
    OversubscriptionError,
    ProfileOutOfLifespan,
    UnknownObject,
)
from carbondef.report import build_report

from support import gen_ledger, naive_check_oversubscription, rel_close

YEAR = 31536000
T0 = 1600000000


def rack(m=600.0, r=300.0, eol=100.0, lifespan_s=10.0 * YEAR):
    return EmbodiedObject("rack-1", m, r, eol, T0, lifespan_s)


def record(steps, consumer="svc-a", object_id="rack-1"):
    return ConsumptionRecord(consumer, object_id, SharingProfile(tuple(steps)))


random_ledgers = st.integers(0, 10**9).map(lambda seed: gen_ledger(random.Random(seed)))

# fractions whose sums land on or near 1 + OVERSUBSCRIPTION_TOL
tricky_fractions = st.one_of(
    st.sampled_from(
        [1 / 3, 2 / 3, 0.1, 0.2, 0.3, 0.7, 0.25, 0.5, 0.5 + 5e-10, 0.5 + 6e-10, 0.5 - 5e-10, 1e-9, 1.0, 0.0]
    ),
    st.floats(0.0, 1.0),
)


@st.composite
def step_profiles(draw):
    """1-6 records on one small time grid: touching, overlapping and gapped steps."""
    records = []
    for index in range(draw(st.integers(1, 6))):
        edges = sorted(draw(st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True)))
        steps = [
            ProfileStep(T0 + lo, T0 + hi, draw(tricky_fractions))
            for lo, hi in zip(edges, edges[1:])
            if draw(st.booleans()) or hi == edges[-1]
        ]
        records.append(record(steps, consumer=f"c{index}"))
    return records


def oversubscription_outcome(check):
    try:
        check()
    except OversubscriptionError as exc:
        return exc.object_id, exc.instant, exc.total
    return None


def drifting_steps(total):
    """1,000 overlapping steps near 0.001 whose ledger order is not their start
    order, and a last step that lifts the ledger-order sum to exactly ``total``."""
    fractions = [0.001 + (i % 3 - 1) * 1e-6 for i in range(1000)]
    starts = [T0 + i * 331 % 1000 for i in range(1000)]
    by_start = [fraction for _, fraction in sorted(zip(starts, fractions))]
    assert sum(by_start) != sum(fractions)  # a running total over the edges drifts from the re-sum
    steps = [ProfileStep(start, T0 + 1000, fraction) for start, fraction in zip(starts, fractions)]
    return [*steps, ProfileStep(T0 + 999, T0 + 1000, total - sum(fractions))]


# (sum, rejected) one ulp below, at and one ulp above the oversubscription limit
LIMIT = 1.0 + OVERSUBSCRIPTION_TOL
AROUND_LIMIT = ((math.nextafter(LIMIT, 0), False), (LIMIT, False), (math.nextafter(LIMIT, 2), True))


class TestEmbodiedObjectBounds:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["m", "r", "eol", "lifespan_s"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            rack(**{field: value})

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, 2**60], ids=["nan", "inf", "-inf", "2**60"])
    def test_lifespan_start_beyond_epoch_bound_rejected(self, start):
        # a NaN start would let any profile pass the lifespan containment check
        with pytest.raises(ValueError, match="lifespan_start must be within"):
            EmbodiedObject("rack-1", 600.0, 300.0, 100.0, start, YEAR)

    @pytest.mark.parametrize("field, value, message", [
        ("r", math.inf, "lifecycle emissions must be finite"),
        ("lifespan_s", math.nan, "lifespan_s must be finite, got nan"),
    ])
    def test_non_finite_messages(self, field, value, message):
        with pytest.raises(ValueError) as exc_info:
            rack(**{field: value})
        assert str(exc_info.value) == message


class TestLifecycleTotal:
    @pytest.mark.parametrize(
        "m,r,eol,expected",
        [(600.0, 300.0, 100.0, 1000.0), (0.0, 0.0, 0.0, 0.0), (1000.0, 0.0, 0.0, 1000.0)],
    )
    def test_sum(self, m, r, eol, expected):
        assert lifecycle_total(rack(m, r, eol)) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rack(m=-1.0)


class TestAttributeSimple:
    def test_one_year_of_ten(self):
        assert attribute_simple(rack(), YEAR) == 100.0

    def test_full_lifespan(self):
        assert attribute_simple(rack(), 10.0 * YEAR) == 1000.0

    def test_zero(self):
        assert attribute_simple(rack(), 0.0) == 0.0

    @pytest.mark.parametrize("consumed", [-1.0, 10.0 * YEAR + 1])
    def test_out_of_range(self, consumed):
        with pytest.raises(DurationError):
            attribute_simple(rack(), consumed)


class TestAttributeShared:
    def test_half_share_for_a_year(self):
        kg = attribute_shared(rack(), record([ProfileStep(T0, T0 + YEAR, 0.5)]))
        assert kg == pytest.approx(50.0, rel=1e-12)

    def test_split_year_hand_summed(self):
        # per-step sum: (0.25 * half year + 0.75 * half year) = 0.5 year
        # of weighted use -> 0.05 of the lifespan -> 50 kg
        steps = [
            ProfileStep(T0, T0 + YEAR // 2, 0.25),
            ProfileStep(T0 + YEAR // 2, T0 + YEAR, 0.75),
        ]
        assert attribute_shared(rack(), record(steps)) == pytest.approx(50.0, rel=1e-12)

    def test_fraction_one_reduces_to_simple(self):
        kg = attribute_shared(rack(), record([ProfileStep(T0, T0 + YEAR, 1.0)]))
        assert kg == attribute_simple(rack(), YEAR)

    def test_full_use_profile_reduces_to_lifecycle_total(self):
        obj = rack()
        kg = attribute_shared(obj, ConsumptionRecord("c", obj.id, full_use_profile(obj)))
        assert kg == lifecycle_total(obj)

    def test_profile_outside_lifespan(self):
        with pytest.raises(ProfileOutOfLifespan):
            attribute_shared(rack(), record([ProfileStep(T0 - 10, T0 + YEAR, 0.5)]))

    def test_fraction_above_one_rejected_at_construction(self):
        with pytest.raises(FractionError):
            ProfileStep(T0, T0 + YEAR, 1.5)

    def test_unsorted_steps_rejected(self):
        with pytest.raises(ValueError):
            SharingProfile(
                (ProfileStep(T0 + YEAR, T0 + 2 * YEAR, 0.5), ProfileStep(T0, T0 + YEAR, 0.5))
            )

    @settings(max_examples=150)
    @given(random_ledgers, st.floats(0.1, 1.0))
    def test_linear_in_lifecycle_total(self, ledger, scale):
        for rec in ledger.records:
            obj = ledger.objects[rec.object_id]
            scaled = dataclasses.replace(
                obj, m_kg=obj.m_kg * scale, r_kg=obj.r_kg * scale, eol_kg=obj.eol_kg * scale
            )
            assert rel_close(
                attribute_shared(scaled, rec), scale * attribute_shared(obj, rec), 1e-9
            ) or attribute_shared(obj, rec) == 0.0

    def test_monotone_in_fractions(self):
        lower = record([ProfileStep(T0, T0 + YEAR, 0.3), ProfileStep(T0 + YEAR, T0 + 2 * YEAR, 0.1)])
        higher = record([ProfileStep(T0, T0 + YEAR, 0.4), ProfileStep(T0 + YEAR, T0 + 2 * YEAR, 0.1)])
        assert attribute_shared(rack(), higher) >= attribute_shared(rack(), lower)

    def test_time_splitting_invariance(self):
        whole = record([ProfileStep(T0, T0 + YEAR, 0.37)])
        split = record(
            [ProfileStep(T0, T0 + YEAR // 3, 0.37), ProfileStep(T0 + YEAR // 3, T0 + YEAR, 0.37)]
        )
        assert rel_close(
            attribute_shared(rack(), whole), attribute_shared(rack(), split), 1e-12
        )


class TestLedger:
    def test_consumer_with_two_example_records(self):
        ledger = Ledger.build(
            [rack()],
            [
                record([ProfileStep(T0, T0 + YEAR, 0.5)]),
                record(
                    [
                        ProfileStep(T0 + YEAR, T0 + YEAR + YEAR // 2, 0.25),
                        ProfileStep(T0 + YEAR + YEAR // 2, T0 + 2 * YEAR, 0.75),
                    ]
                ),
            ],
        )
        attribution = consumer_embodied(ledger, "svc-a")
        assert attribution.total_kg == pytest.approx(100.0, rel=1e-9)
        assert set(attribution.by_object) == {"rack-1"}

    def test_unknown_consumer_is_zero(self):
        ledger = Ledger.build([rack()], [])
        assert consumer_embodied(ledger, "nobody").total_kg == 0.0

    def test_single_full_record_gets_everything(self):
        obj = rack()
        ledger = Ledger.build(
            [obj], [ConsumptionRecord("svc-a", obj.id, full_use_profile(obj))]
        )
        assert consumer_embodied(ledger, "svc-a").total_kg == lifecycle_total(obj)
        assert idle_residual(ledger, obj.id) == 0.0

    def test_idle_residual_without_consumers(self):
        ledger = Ledger.build([rack()], [])
        assert idle_residual(ledger, "rack-1") == 1000.0

    def test_idle_residual_complement(self):
        obj = rack()
        ledger = Ledger.build(
            [obj],
            [record([ProfileStep(T0, int(T0 + 10 * YEAR), 0.5)])],
        )
        assert idle_residual(ledger, obj.id) == pytest.approx(500.0, rel=1e-12)

    def test_unknown_object(self):
        ledger = Ledger.build([rack()], [])
        with pytest.raises(UnknownObject):
            idle_residual(ledger, "rack-9")

    def test_dangling_reference(self):
        with pytest.raises(LedgerReferenceError):
            Ledger.build([rack()], [record([ProfileStep(T0, T0 + YEAR, 0.5)], object_id="x")])

    def test_duplicate_object_id(self):
        with pytest.raises(ValueError):
            Ledger.build([rack(), rack()], [])

    def test_object_keyed_by_another_id_rejected(self):
        # the record names key "x", so without the check it attributes object "rack-1" to "x"
        with pytest.raises(ValueError, match="^object 'rack-1' is keyed 'x', not by its id$"):
            Ledger(objects={"x": rack()}, records=(record([ProfileStep(T0, T0 + YEAR, 0.5)], object_id="x"),))

    def test_profile_outside_lifespan_rejected_at_build(self):
        with pytest.raises(ProfileOutOfLifespan):
            Ledger.build([rack()], [record([ProfileStep(T0 - 1, T0 + YEAR, 0.5)])])

    def test_oversubscription_rejected(self):
        with pytest.raises(OversubscriptionError) as exc_info:
            Ledger.build(
                [rack()],
                [
                    record([ProfileStep(T0, T0 + YEAR, 0.9)], consumer="a"),
                    record([ProfileStep(T0 + 100, T0 + 200, 0.2)], consumer="b"),
                ],
            )
        assert exc_info.value.object_id == "rack-1"
        assert exc_info.value.instant == T0 + 100

    @settings(max_examples=300)
    @given(step_profiles())
    def test_sweep_matches_naive_oracle(self, records):
        steps = [step for rec in records for step in rec.profile.steps]
        expected = oversubscription_outcome(lambda: naive_check_oversubscription("rack-1", records))
        assert oversubscription_outcome(lambda: _check_oversubscription("rack-1", steps)) == expected
        assert oversubscription_outcome(lambda: Ledger.build([rack()], records)) == expected

    # sums on each side of the tolerance: the prefilter may pass only what the exact sweep passes,
    # and a rejection reports the sweep's edge and bit-identical total
    @pytest.mark.parametrize("steps, rejected", [
        ([ProfileStep(T0, T0 + 10, 0.1)] * 10, False),  # sums to 0.9999999999999999
        ([ProfileStep(T0, T0 + 10, 0.1)] * 11, True),
        *(([ProfileStep(T0, T0 + 10, 0.5), ProfileStep(T0 + 5, T0 + 10, total - 0.5)], rejected)
          for total, rejected in AROUND_LIMIT),
        ([ProfileStep(T0 + i, T0 + 1000, 0.001) for i in range(1000)], False),
        *((drifting_steps(total), rejected) for total, rejected in AROUND_LIMIT),
    ], ids=["ten-0.1", "eleven-0.1", "two-below", "two-at", "two-above", "thousand-0.001",
            "drift-below", "drift-at", "drift-above"])
    def test_sweep_boundaries_match_naive_oracle(self, steps, rejected):
        records = [record([step], consumer=f"c{index}") for index, step in enumerate(steps)]
        expected = oversubscription_outcome(lambda: naive_check_oversubscription("rack-1", records))
        assert (expected is not None) == rejected
        assert oversubscription_outcome(lambda: _check_oversubscription("rack-1", steps)) == expected
        assert oversubscription_outcome(lambda: Ledger.build([rack()], records)) == expected

    def test_first_oversubscribed_object_in_ledger_order_reported(self):
        first = dataclasses.replace(rack(), id="rack-a")
        second = dataclasses.replace(rack(), id="rack-b")
        records = [
            # rack-b is oversubscribed earlier in time and listed first
            record([ProfileStep(T0, T0 + 10, 0.6)], consumer="x", object_id="rack-b"),
            record([ProfileStep(T0 + 5, T0 + 10, 0.6)], consumer="y", object_id="rack-b"),
            record([ProfileStep(T0 + 50, T0 + 60, 0.6)], consumer="x", object_id="rack-a"),
            record([ProfileStep(T0 + 55, T0 + 60, 0.6)], consumer="y", object_id="rack-a"),
        ]
        with pytest.raises(OversubscriptionError) as exc_info:
            Ledger.build([first, second], records)
        assert (exc_info.value.object_id, exc_info.value.instant) == ("rack-a", T0 + 55)

    @settings(max_examples=100)
    @given(random_ledgers)
    def test_index_matches_filtered_scan(self, ledger):
        for object_id in [*ledger.objects, "missing"]:
            expected = tuple(r for r in ledger.records if r.object_id == object_id)
            assert ledger.records_for_object(object_id) == expected
        consumer_ids = {r.consumer_id for r in ledger.records}
        assert ledger.consumer_ids() == tuple(sorted(consumer_ids))
        for consumer_id in [*consumer_ids, "missing"]:
            expected = tuple(r for r in ledger.records if r.consumer_id == consumer_id)
            assert ledger.records_for_consumer(consumer_id) == expected

    def test_direct_construction_is_indexed(self):
        first = record([ProfileStep(T0, T0 + YEAR, 0.5)], consumer="a")
        second = record([ProfileStep(T0, T0 + YEAR, 0.25)], consumer="b")
        ledger = Ledger(objects={"rack-1": rack()}, records=(first, second))
        assert ledger.records_for_object("rack-1") == (first, second)
        assert ledger.records_for_consumer("b") == (second,)
        assert ledger.consumer_ids() == ("a", "b")

    def test_report_on_direct_ledger_still_checks_lifespan(self):
        # a hand-built Ledger is checked by its own construction, before any report
        late = record([ProfileStep(T0 + 10 * YEAR - 5, T0 + 10 * YEAR + 5, 0.5)])
        with pytest.raises(ProfileOutOfLifespan):
            ledger = Ledger(objects={"rack-1": rack()}, records=(late,))
            build_report("embodied", ledger=ledger, ledger_digest="sha")

    def test_direct_construction_rejects_dangling_reference(self):
        with pytest.raises(LedgerReferenceError, match=r"unknown object 'x' \(at records\[1\]\)"):
            Ledger(objects={"rack-1": rack()}, records=(
                record([ProfileStep(T0, T0 + YEAR, 0.5)]),
                record([ProfileStep(T0, T0 + YEAR, 0.5)], object_id="x"),
            ))

    def test_direct_construction_rejects_profile_outside_lifespan(self):
        with pytest.raises(ProfileOutOfLifespan, match=r"^records\[0\]: profile "):
            Ledger(objects={"rack-1": rack()}, records=(record([ProfileStep(T0 - 1, T0 + YEAR, 0.5)]),))

    def test_direct_construction_rejects_oversubscription(self):
        with pytest.raises(OversubscriptionError) as exc_info:
            Ledger(objects={"rack-1": rack()}, records=(
                record([ProfileStep(T0, T0 + YEAR, 0.9)], consumer="a"),
                record([ProfileStep(T0 + 100, T0 + 200, 0.2)], consumer="b"),
            ))
        assert (exc_info.value.object_id, exc_info.value.instant) == ("rack-1", T0 + 100)

    @pytest.mark.parametrize("consumer_id", [None, "svc-a"])
    def test_report_rechecks_no_lifespan(self, monkeypatch, consumer_id):
        ledger = gen_ledger(random.Random(3))
        calls = []
        real_check = embodied._check_within_lifespan
        monkeypatch.setattr(embodied, "_check_within_lifespan", lambda *args: calls.append(args) or real_check(*args))
        build_report("embodied", ledger=ledger, ledger_digest="sha", consumer_id=consumer_id)
        assert ledger.records and calls == []

    def test_exactly_full_subscription_allowed(self):
        Ledger.build(
            [rack()],
            [
                record([ProfileStep(T0, T0 + YEAR, 0.5)], consumer="a"),
                record([ProfileStep(T0, T0 + YEAR, 0.5)], consumer="b"),
            ],
        )

    @settings(max_examples=200)
    @given(random_ledgers)
    def test_conservation(self, ledger):
        for object_id, obj in ledger.objects.items():
            attributed = sum(
                attribute_shared(obj, rec) for rec in ledger.records_for_object(object_id)
            )
            residual = idle_residual(ledger, object_id)
            total = lifecycle_total(obj)
            assert total == 0.0 or rel_close(attributed + residual, total, 1e-9)
            assert residual >= -1e-9 * total

    @settings(max_examples=100)
    @given(random_ledgers)
    def test_consumer_totals_match_per_object_sums(self, ledger):
        for consumer_id in ledger.consumer_ids():
            attribution = consumer_embodied(ledger, consumer_id)
            assert attribution.total_kg == pytest.approx(
                sum(attribution.by_object.values()), rel=1e-12, abs=0.0
            ) or attribution.total_kg == 0.0
