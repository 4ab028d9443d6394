import dataclasses
import math
import random
from array import array
from functools import reduce
from operator import add

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
from carbondef.embodied import OVERSUBSCRIPTION_TOL, _UNIT_LIMIT, _check_oversubscription, _units
from carbondef.power import fold_sum
from carbondef.errors import (
    DurationError,
    FractionError,
    LedgerReferenceError,
    OversubscriptionError,
    ProfileOutOfLifespan,
    UnknownObject,
)
from carbondef.ingest import parse_ledger
from carbondef.report import build_report

from support import gen_ledger, gen_ledger_parts, naive_attribution, naive_check_oversubscription, rel_close, serialize_ledger

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


def sweep(steps):
    """_check_oversubscription on the start, end and fraction columns of ``steps``."""
    _check_oversubscription("rack-1", *([getattr(step, key) for step in steps] for key in ("start", "end", "fraction")))


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


@st.composite
def near_limit_steps(draw):
    """20-200 one-step records on a 40 s grid, about half of them covering one
    probe instant, whose fractions there sum in ledger order to within a few
    ulps of the limit, on either side; the rest hold small fractions."""
    count, ulps, rng = draw(st.integers(20, 200)), draw(st.integers(-4, 4)), random.Random(draw(st.integers(0, 10**9)))
    probe, target = rng.randrange(1, 39), LIMIT + ulps * math.ulp(LIMIT)
    spans = [(rng.randrange(probe + 1), rng.randrange(probe + 1, 41)) if rng.random() < 0.5
             else tuple(sorted(rng.sample(range(41), 2))) for _ in range(count)]
    covering = [index for index, (lo, hi) in enumerate(spans) if lo <= probe < hi]
    weights = {index: rng.random() for index in covering}
    total = sum(weights.values())
    fractions = [min(1.0, target * weights[index] / total) if index in weights
                 else rng.choice([0.0, 5e-324, 1e-9, rng.random() * 0.05]) for index in range(count)]
    if covering:  # the last covering step in ledger order lands the sum on the target
        fractions[covering[-1]] = min(1.0, max(0.0, target - sum(fractions[index] for index in covering[:-1])))
    return [ProfileStep(T0 + lo, T0 + hi, fraction) for (lo, hi), fraction in zip(spans, fractions)]


@st.composite
def peak_bounded_ledgers(draw):
    """1-3 objects of 2-6 records of 1-4 steps each, in a drawn ledger order. Each
    object's records' peak fractions sum in the sweep's units to just below, at or
    just above its limit, or a few thousand units either side, or to within 1.5 ulps
    of 1 of the limit in exact terms (512 units of slack a record, 256 units an ulp
    of 1). With ``overlap`` drawn, every record's peak step covers one probe instant;
    without, the peaks never meet. The other steps take at most their record's peak."""
    objects, records = [], []
    for index in range(draw(st.integers(1, 3))):
        objects.append(dataclasses.replace(rack(), id=f"rack-{index}"))
        count, overlap = draw(st.integers(2, 6)), draw(st.booleans())
        offset = draw(st.sampled_from([-1, 0, 1]) | st.integers(-4096, 4096)
                      | st.integers(-384, 384).map(lambda shift: 512 * count + shift))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=count - 1, max_size=count - 1))
        rest = draw(st.floats(2**-9, 2**-8))  # the last peak: an int count of units below 2**53, so exact
        peaks = [(1.0 - rest) * weight / fold_sum(weights) for weight in weights]
        peaks.append((_UNIT_LIMIT + offset - reduce(add, _units(peaks)) - 512) / 2**60)
        assert reduce(add, _units(peaks)) == _UNIT_LIMIT + offset
        for position, peak in enumerate(peaks):
            lo, hi = (50 - draw(st.integers(1, 9)), 51 + draw(st.integers(0, 9))) if overlap else \
                (100 + 20 * position, 101 + 20 * position + draw(st.integers(0, 18)))
            before = sorted(draw(st.lists(st.integers(0, lo), max_size=4, unique=True)))
            after = sorted(draw(st.lists(st.integers(hi, 240), max_size=4, unique=True)))
            spans = [*zip(before, before[1:]), (lo, hi), *zip(after, after[1:])]
            steps = [ProfileStep(T0 + start, T0 + end, peak if (start, end) == (lo, hi) else
                                 peak * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
                     for start, end in spans]
            records.append(record(steps, consumer=f"c{position}", object_id=objects[-1].id))
    return objects, draw(st.permutations(records))


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

    def test_huge_int_lifespan_start_named_by_its_bit_count(self):
        # str() of an int past sys.get_int_max_str_digits() would raise a ValueError of its own
        with pytest.raises(ValueError, match=r"^lifespan_start must be within ±2\*\*53, got an integer of 16610 bits$"):
            EmbodiedObject("a", 1.0, 0.0, 0.0, 10**5000, 1.0)


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

    def test_huge_int_step_start_named_by_its_bit_count(self):
        with pytest.raises(ValueError, match=r"^profile step end 0 <= start an integer of 16610 bits$"):
            ProfileStep(10**5000, 0, 0.5)

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
        assert oversubscription_outcome(lambda: sweep(steps)) == expected
        assert oversubscription_outcome(lambda: Ledger.build([rack()], records)) == expected

    # sums on each side of the tolerance: the peak bound may clear only what the exact sweep passes,
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
        assert oversubscription_outcome(lambda: sweep(steps)) == expected
        assert oversubscription_outcome(lambda: Ledger.build([rack()], records)) == expected

    @settings(max_examples=150)
    @given(near_limit_steps())
    def test_sweep_near_the_limit_matches_naive_oracle(self, steps):
        records = [record([step], consumer=f"c{index}") for index, step in enumerate(steps)]
        expected = oversubscription_outcome(lambda: naive_check_oversubscription("rack-1", records))
        assert oversubscription_outcome(lambda: sweep(steps)) == expected

    @settings(max_examples=200)
    @given(peak_bounded_ledgers())
    def test_peak_bound_matches_naive_oracle(self, ledger):
        # whether or not the bound clears an object, the build raises what the naive check raises first
        # (any error but an OversubscriptionError propagates and fails the test)
        objects, records = ledger

        def naive():
            for obj in objects:
                naive_check_oversubscription(obj.id, records)

        assert oversubscription_outcome(lambda: Ledger.build(objects, records)) == oversubscription_outcome(naive)

    @staticmethod
    def swept_objects(monkeypatch, objects, records):
        """The object ids Ledger.build hands to the sweep, in order, and the build's oversubscription_outcome."""
        swept, real = [], embodied._check_oversubscription
        monkeypatch.setattr(embodied, "_check_oversubscription",
                            lambda object_id, *columns: swept.append(object_id) or real(object_id, *columns))
        return swept, oversubscription_outcome(lambda: Ledger.build(objects, records))

    def test_objects_whose_peaks_fit_are_not_swept(self, monkeypatch):
        # peaks 0.5 and just under 0.5 sum to the limit exactly in units, and a record with no steps adds none;
        # ten records of three steps up to 0.09, as the benchmark's ledgers hold, sum to at most 0.9
        below_half = (_UNIT_LIMIT - 2**59 - 1024) / 2**60
        assert reduce(add, _units([0.5, below_half])) == _UNIT_LIMIT
        objects = [dataclasses.replace(rack(), id=key) for key in ("rack-a", "rack-b")]
        records = [record([ProfileStep(T0, T0 + 10, 0.5)], consumer="x", object_id="rack-a"),
                   record([ProfileStep(T0 + 5, T0 + 10, below_half)], consumer="y", object_id="rack-a"),
                   record([], consumer="z", object_id="rack-a"),
                   *(record([ProfileStep(T0 + 30 * part + 10 * index, T0 + 30 * part + 10 * index + 5,
                                         0.01 + 0.08 * part / 2)
                             for part in range(3)], consumer=f"c{index}", object_id="rack-b")
                     for index in range(10))]
        assert self.swept_objects(monkeypatch, objects, records) == ([], None)

    def test_each_object_whose_peaks_pass_the_limit_is_swept_once(self, monkeypatch):
        # rack-b and rack-d hold peaks summing past 1 that never meet, and rack-c's two peaks, which meet, pass
        # the limit by 128 units (the next float up from the last test's) but not in exact terms; rack-a fits
        above_half = (_UNIT_LIMIT - 2**59 - 1024 + 128) / 2**60
        assert reduce(add, _units([0.5, above_half])) == _UNIT_LIMIT + 128
        objects = [dataclasses.replace(rack(), id=f"rack-{key}") for key in "abcde"]
        records = [record([ProfileStep(T0, T0 + 10, fraction)], consumer=consumer, object_id=f"rack-{key}")
                   for key, consumer, fraction in [("a", "x", 0.4), ("b", "x", 0.6), ("c", "x", 0.5), ("d", "x", 0.9),
                                                   ("a", "y", 0.6), ("c", "y", above_half)]]
        records += [record([ProfileStep(T0 + 10, T0 + 20, 0.4), ProfileStep(T0 + 20, T0 + 30, 0.6)],
                           consumer="y", object_id="rack-b"),
                    record([ProfileStep(T0 + 20, T0 + 30, 0.2)], consumer="y", object_id="rack-d")]
        assert self.swept_objects(monkeypatch, objects[:4], records) == (["rack-b", "rack-c", "rack-d"], None)
        monkeypatch.undo()
        # rack-e is oversubscribed: its sweep raises, with the instant and total it always gave
        records += [record([ProfileStep(T0, T0 + 10, 0.6)], consumer=consumer, object_id="rack-e")
                    for consumer in "xy"]
        assert self.swept_objects(monkeypatch, objects, records) == (
            ["rack-b", "rack-c", "rack-d", "rack-e"], ("rack-e", T0, 1.2))

    @staticmethod
    def sweep_work(monkeypatch, start, end, fraction):
        """(column items read, terms re-summed, oversubscription_outcome) of a sweep of the columns."""
        reads, terms = [0], [0]

        class Column(list):
            def __iter__(self):
                for value in super().__iter__():
                    reads[0] += 1
                    yield value

            def __getitem__(self, index):
                reads[0] += 1
                return super().__getitem__(index)

        def counting_sum(values):
            values = list(values)
            terms[0] += len(values)
            return fold_sum(values)

        monkeypatch.setattr(embodied, "fold_sum", counting_sum)
        outcome = oversubscription_outcome(lambda: _check_oversubscription("rack-1", *map(Column, (start, end, fraction))))
        monkeypatch.undo()
        return reads[0], terms[0], outcome

    @pytest.mark.parametrize("count", [2000, 8000])
    def test_even_split_re_sums_no_term(self, monkeypatch, count):
        # an array split evenly among k tenants: count steps k = count / 4 s long, starting 1 s apart, each at 1/k;
        # their concurrent fractions sum to 1 within rounding, which the float running total cannot tell from 1 + 1e-9
        tenants, start = count // 4, list(range(T0, T0 + count))
        end, fraction = [time + tenants for time in start], [1 / tenants] * count
        assert self.sweep_work(monkeypatch, start, end, fraction)[1:] == (0, None)
        # a step of 2e-9 more tips one edge past the limit: its one re-sum counts every active step
        middle = T0 + count // 2
        _, terms, outcome = self.sweep_work(monkeypatch, [*start, middle], [*end, middle + 1], [*fraction, 2e-9])
        assert terms == tenants + 1 and outcome[1] == middle

    @pytest.mark.parametrize("count", [2000, 8000])
    def test_every_edge_at_the_limit_costs_its_active_steps(self, monkeypatch, count):
        # one step at 0.5 over the whole span and count back-to-back steps at LIMIT - 0.5: every edge sums to
        # exactly the limit and is re-summed, reading its two active steps, never the whole object
        start, end = [T0, *range(T0, T0 + count)], [T0 + count, *range(T0 + 1, T0 + count + 1)]
        reads, terms, outcome = self.sweep_work(monkeypatch, start, end, [0.5, *[LIMIT - 0.5] * count])
        assert outcome is None and terms == 2 * count and reads <= 8 * (count + 1)

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


class TestColumnarLedger:
    @settings(max_examples=200)
    @given(st.integers(0, 10**9))
    def test_attribution_equals_naive_reference_exactly(self, seed):
        objects, records = gen_ledger_parts(random.Random(seed))
        consumers, residuals = naive_attribution(objects, records)
        built = Ledger.build(objects, records)
        parsed = parse_ledger(serialize_ledger(built))
        for ledger in (built, parsed):
            assert ledger.consumer_ids() == tuple(sorted(consumers))
            for consumer_id, (total, by_object) in consumers.items():
                attribution = consumer_embodied(ledger, consumer_id)
                assert (attribution.total_kg, attribution.by_object) == (total, by_object)  # no tolerance
            assert {object_id: idle_residual(ledger, object_id) for object_id in ledger.objects} == residuals
        assert parsed == built == Ledger.build(parsed.objects.values(), parsed.records)

    def test_records_view_is_sized_without_building_a_record(self, monkeypatch):
        ledger = gen_ledger(random.Random(3))
        records = list(ledger.records)
        monkeypatch.setattr(embodied, "ConsumptionRecord", None)  # any record built now raises a TypeError
        assert len(ledger.records) == len(records) == len(ledger.columns[0]) > 0
        monkeypatch.undo()
        assert ledger.records[-1] == records[-1] and tuple(ledger.records) == tuple(records)
        with pytest.raises(IndexError):
            ledger.records[len(records)]

    def test_records_view_copies_no_column(self):
        # the view runs over the ledger's id columns themselves and a range of record indices, so a len() copies nothing
        ledger = gen_ledger(random.Random(3))
        view = ledger.records
        assert view.columns[0] is ledger.columns[0] and view.columns[1] is ledger.columns[1]
        assert view.columns[2] == range(len(ledger.columns[0]))
        assert ledger.records_for_object(ledger.columns[1][-1])[-1] == view[-1]

    def test_records_view_slices_and_compares_by_value(self):
        ledger = gen_ledger(random.Random(3))
        records = tuple(ledger.records)
        assert ledger.records[1:] == records[1:] and ledger.records[::-2] == records[::-2] and ledger.records[5:2] == ()
        assert ledger.records == records and ledger.records == Ledger.build(ledger.objects.values(), records).records
        assert ledger.records != records[1:] and ledger.records != list(records)
        assert ledger.records != Ledger.build(ledger.objects.values(), records[1:]).records

    @pytest.mark.parametrize("fraction, oversubscribed", [(1.0, False), (math.nextafter(1.0, 0), False), (0.6, True)])
    def test_oversubscription_check_builds_no_value_object(self, monkeypatch, fraction, oversubscribed):
        # five records take the object in turn at full share, each a day of three steps; with
        # fraction 0.6 the second record's first step opens before the first record's last closes
        overlap = 1 if oversubscribed else 0
        start = [T0 + day * 86400 - overlap * (day > 0) + part * 28800 for day in range(5) for part in range(3)]
        columns = ([f"c{index}" for index in range(5)], ["rack-1"] * 5, [0, 3, 6, 9, 12, 15],
                   start, [time + 28800 for time in start], [fraction] * 15)
        for value_type in ("ProfileStep", "SharingProfile", "ConsumptionRecord"):
            monkeypatch.setattr(embodied, value_type, None)  # any value object built now raises a TypeError
        if oversubscribed:
            with pytest.raises(OversubscriptionError) as exc_info:
                Ledger.build([rack()], columns=columns)
            assert (exc_info.value.instant, exc_info.value.total) == (T0 + 86400 - 1, 1.2)
        else:
            assert len(Ledger.build([rack()], columns=columns).records) == 5

    def test_attribution_reads_the_kg_column_and_builds_no_record(self, monkeypatch):
        ledger = gen_ledger(random.Random(3))
        expected = build_report("embodied", ledger=ledger, ledger_digest="sha")
        monkeypatch.setattr(embodied, "ConsumptionRecord", None)  # any record built now raises a TypeError
        assert build_report("embodied", ledger=ledger, ledger_digest="sha") == expected

    def test_bulk_columns_equal_the_ledger_of_records(self):
        records = [record([ProfileStep(T0, T0 + 10, 0.5), ProfileStep(T0 + 20, T0 + 30, 1)], consumer="a"),
                   record([], consumer="b"), record([ProfileStep(T0 + 5, T0 + 20, 0.25)], consumer="a")]
        ledger = Ledger.build([rack()], columns=(["a", "b", "a"], ["rack-1"] * 3, [0, 2, 2, 3],
                                                 [T0, T0 + 20, T0 + 5], [T0 + 10, T0 + 30, T0 + 20], [0.5, 1, 0.25]))
        assert ledger == Ledger.build([rack()], records) and tuple(ledger.records) == tuple(records)
        assert ledger.columns[5] == array("d", [0.5, 1.0, 0.25]) and type(ledger.columns[5]) is array
        assert ledger.records_for_consumer("b") == (records[1],) and consumer_embodied(ledger, "b").by_object == {"rack-1": 0.0}

    @pytest.mark.parametrize("columns", [
        ([], [], [], [], [], []),  # no offset 0
        (["a"], ["rack-1"], [0, 2], [T0], [T0 + 1], [0.5]),  # steps past the columns
        (["a", "b"], ["rack-1"] * 2, [0, 1, 0], [T0], [T0 + 1], [0.5]),  # offsets going back
        (["a"], ["rack-1"], [0, 1], [T0], [T0 + 1, T0 + 2], [0.5]),  # step columns of two lengths
    ])
    def test_bulk_columns_layout_checked(self, columns):
        with pytest.raises(ValueError, match="^a ledger is two id columns"):
            Ledger.build([rack()], columns=columns)

    @pytest.mark.parametrize("steps, error, message", [
        ([(T0, T0 + 10, 0.5), (T0 + 20, T0 + 30, math.nan)], FractionError, "fraction must be within [0, 1], got nan"),
        ([(T0, T0 + 10, 0.5), (T0 + 20, T0 + 20, 0.5)], ValueError, f"profile step end {T0 + 20} <= start {T0 + 20}"),
        ([(T0, T0 + 10, 0.5), (T0 + 5, T0 + 30, 0.5)], ValueError, f"profile steps unsorted or overlapping at start={T0 + 5}"),
    ])
    def test_bulk_step_fault_raises_the_value_types_error(self, steps, error, message):
        # the first record is sound; the second breaks a ProfileStep or SharingProfile condition
        start, end, fraction = zip((T0, T0 + 10, 1.0), *steps)
        with pytest.raises(error) as exc_info:
            Ledger.build([rack()], columns=(["a", "b"], ["rack-1"] * 2, [0, 1, 1 + len(steps)], start, end, fraction))
        assert str(exc_info.value) == message
