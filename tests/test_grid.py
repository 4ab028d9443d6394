import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from carbondef import (
    EnergySeries,
    IntensityEntry,
    IntensitySeries,
    PueFactor,
    UsageTrace,
    apply_pue,
    operational_emissions,
    trace_to_energy_series,
)
from carbondef.errors import CoverageError, TraceOrderError
from carbondef.grid import JOULES_PER_KWH, align_segments

from support import (
    OracleResolutionError,
    aligned_rows,
    bisect_align_segments,
    energy_entry,
    energy_series,
    gen_aligned_trace,
    gen_series_pair,
    gen_spec,
    intensity_at,
    oracle_emissions,
    rel_close,
)


def one_kwh_series(start=0, duration=3600.0):
    return energy_series((energy_entry(start, duration, JOULES_PER_KWH),))


def constant_intensity(value, start=0, end=3600, region="ZZ"):
    return IntensitySeries(region=region, entries=(IntensityEntry(start, end, value),))


split_intensity = IntensitySeries(
    region="ZZ",
    entries=(IntensityEntry(0, 1800, 0.4), IntensityEntry(1800, 3600, 0.2)),
)

series_pairs = st.integers(0, 10**9).map(lambda seed: gen_series_pair(random.Random(seed)))


#: an interval's segment plus uncovered joules against its joules, in ulps of those
#: joules. The pieces' lengths are exact and partition the span the segments cover; each
#: piece rounds twice (``J * (length / span)`` or ``(J / span) * length``), so the exact
#: sum of the pieces is within 2 * 2**-53 * J (under 2 ulps) of J.
SHARE_ULPS = 4


@st.composite
def rounded_intervals(draw) -> tuple[EnergySeries, IntensitySeries]:
    """One energy interval at an epoch up to 2**52 with an arbitrary float
    duration, whose end may round, and a feed of int windows cutting it,
    some left out."""
    start = draw(st.integers(0, 2**52))
    duration = draw(st.floats(2**-20, 1e6))
    assume(start + duration > start)  # UsageTrace rejects a sample whose end rounds to its start
    cuts = sorted(draw(st.sets(st.integers(start - 2, math.ceil(start + duration) + 2), min_size=2, max_size=8)))
    kept = draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    feed = tuple(IntensityEntry(a, b, 0.5) for a, b, keep in zip(cuts, cuts[1:], kept) if keep)
    energy = energy_series((energy_entry(start, duration, draw(st.floats(1e-3, 1e15))),))
    return energy, IntensitySeries(region="ZZ", entries=feed)


def tied_intensity(rng: random.Random, energy: EnergySeries) -> IntensitySeries:
    """Intensity whose boundaries mostly fall on the energy intervals' own
    (float) boundaries, as ints: the ties of the alignment."""
    lo, hi = energy.window()
    edges = {int(edge) for e in energy.entries for edge in (e.start, e.end) if rng.random() < 0.6}
    edges |= {rng.randrange(int(lo) - 100, int(hi) + 100) for _ in range(rng.randint(0, 3))}
    edges = sorted(edges)
    entries = [
        IntensityEntry(a, b, rng.uniform(0.0, 1.2))
        for a, b in zip(edges, edges[1:])
        if rng.random() < 0.8
    ]
    return IntensitySeries(region="ZZ", entries=tuple(entries))


class TestApplyPue:
    def test_identity(self):
        assert apply_pue(1000.0, PueFactor(1.0)) == 1000.0

    def test_scaling(self):
        assert apply_pue(1000.0, PueFactor(1.5)) == 1500.0

    def test_zero(self):
        assert apply_pue(0.0, PueFactor(2.0)) == 0.0

    def test_pue_below_one_rejected(self):
        with pytest.raises(ValueError):
            PueFactor(0.9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_pue_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            PueFactor(value)


class TestAlignSegments:
    def test_aligned_boundaries(self):
        energy = energy_series((energy_entry(0, 3600.0, 720000.0),))
        segments, uncovered = aligned_rows(energy, constant_intensity(0.4), PueFactor(1.0))
        assert len(segments) == 1 and not uncovered
        assert segments[0].joules == 720000.0
        assert segments[0].duration_s == 3600.0

    def test_uniform_split(self):
        energy = energy_series((energy_entry(0, 3600.0, 720000.0),))
        segments, uncovered = aligned_rows(energy, split_intensity, PueFactor(1.0))
        assert [s.joules for s in segments] == [360000.0, 360000.0]
        assert [s.intensity_kg_per_kwh for s in segments] == [0.4, 0.2]
        assert not uncovered

    def test_partial_coverage(self):
        # per-second oracle: seconds 50..99 carry 1 J each -> 50 J covered,
        # seconds 0..49 uncovered -> 50 J in diagnostics
        energy = energy_series((energy_entry(0, 100.0, 100.0),))
        intensity = constant_intensity(0.3, start=50, end=150)
        segments, uncovered = aligned_rows(energy, intensity, PueFactor(1.0))
        assert len(segments) == 1
        assert (segments[0].start, segments[0].duration_s) == (50, 50.0)
        assert segments[0].joules == 50.0
        assert len(uncovered) == 1
        assert (uncovered[0].start, uncovered[0].duration_s) == (0, 50.0)
        assert uncovered[0].joules_share == 50.0

    def test_interior_gap(self):
        energy = energy_series((energy_entry(0, 100.0, 100.0),))
        intensity = IntensitySeries(
            region="ZZ",
            entries=(IntensityEntry(0, 30, 0.5), IntensityEntry(70, 100, 0.5)),
        )
        segments, uncovered = aligned_rows(energy, intensity, PueFactor(1.0))
        assert [(s.start, s.duration_s) for s in segments] == [(0, 30.0), (70, 70.0 - 40.0)]
        assert [(u.start, u.duration_s) for u in uncovered] == [(30, 40.0)]

    def test_entry_spanning_two_intervals(self):
        energy = energy_series((energy_entry(0, 100.0, 100.0), energy_entry(100, 100.0, 200.0)))
        segments, uncovered = aligned_rows(energy, constant_intensity(0.1, 0, 200), PueFactor(1.0))
        assert not uncovered
        assert [s.joules for s in segments] == [100.0, 200.0]

    def test_series_out_of_start_order_rejected(self):
        # the merge only moves forward, so such a series must never reach it: its trace rejects the order
        with pytest.raises(TraceOrderError, match="^sample 1 starts at 0, before previous sample end 200.0$"):
            energy_series((energy_entry(100, 100.0, 200.0), energy_entry(0, 100.0, 100.0)))

    @pytest.mark.parametrize("entry, error, message", [
        (energy_entry(2**52, 0.25, 100.0), TraceOrderError, r"sample 1 ends where it starts: \S+ \+ 0.25 rounds to "),
        (energy_entry(0, 0.0, 0.0), ValueError, "sample 1: duration_s must be > 0"),
        (energy_entry(0, -1.0, 1.0), ValueError, "sample 1: duration_s must be > 0"),
        (energy_entry(0, math.nan, 1.0), ValueError, "sample 1: duration_s must be finite"),
    ], ids=["rounds-away", "zero", "negative", "nan"])
    def test_entry_ending_where_it_starts_rejected(self, entry, error, message):
        # align_segments divides an interval's joules by the span its pieces cover; the trace rejects such an interval
        with pytest.raises(error, match=f"^{message}"):
            series = energy_series((energy_entry(-10, 10.0, 1.0), entry))
            align_segments(series, IntensitySeries("ZZ", (IntensityEntry(-10, 2**53, 0.5),)), PueFactor(1.0))

    @settings(max_examples=300)
    @given(st.integers(0, 10**9), st.booleans(), st.booleans(), st.sampled_from([1.0, 1.1, 1.58]))
    def test_two_pointer_equals_bisect_reference(self, seed, allow_gaps, tied, pue):
        rng = random.Random(seed)
        energy, intensity = gen_series_pair(rng, allow_gaps)
        if tied:  # float starts too, as a hand-built series may have
            energy = energy_series(e._replace(start=float(e.start)) for e in energy.entries)
            intensity = tied_intensity(rng, energy)
        expected = bisect_align_segments(energy, intensity, PueFactor(pue))
        # repr tells an int boundary from an equal float one
        assert repr(aligned_rows(energy, intensity, PueFactor(pue))) == repr(expected)

    @settings(max_examples=100)
    @given(st.integers(0, 10**9), st.sampled_from([1.0, 1.1, 1.58]))
    def test_rows_equal_bisect_reference_value_by_value(self, seed, pue):
        # the columns keep each value's type: an int start or duration turned
        # float would move report bytes ("1800" to "1800.0") while == holds
        rng = random.Random(seed)
        trace, intensity = gen_aligned_trace(rng)
        energy = trace_to_energy_series(gen_spec(rng), trace)
        aligned = aligned_rows(energy, intensity, PueFactor(pue))
        for rows, expected in zip(aligned, bisect_align_segments(energy, intensity, PueFactor(pue))):
            assert len(rows) == len(expected)
            for row, reference in zip(rows, expected):
                assert list(map(repr, row)) == list(map(repr, reference))

    @settings(max_examples=300)
    @given(rounded_intervals())
    def test_pieces_share_out_the_joules_of_a_rounded_interval(self, pair):
        energy, intensity = pair
        (start,), (duration,), (joules,) = energy.columns[:3]
        segments, uncovered = align_segments(energy, intensity, PueFactor(1.0))
        assert math.fsum([*segments[1], *uncovered[1]]) == (start + duration) - start
        assert abs(math.fsum([*segments[2], *uncovered[2]]) - joules) <= SHARE_ULPS * math.ulp(joules)

    def test_aligned_traces_reach_int_and_float_durations(self):
        # the test above is only as good as the types it sees
        shapes = set()
        for seed in range(100):
            rng = random.Random(seed)
            trace, intensity = gen_aligned_trace(rng)
            segments, uncovered = aligned_rows(trace_to_energy_series(gen_spec(rng), trace), intensity, PueFactor(1.0))
            shapes |= {f"{field} {type(value).__name__}" for row in segments for field, value in row._asdict().items()
                       if field in ("start", "duration_s")}
            shapes |= {"uncovered"} if uncovered else set()
        assert shapes == {"start int", "duration_s int", "duration_s float", "uncovered"}

    def test_generated_pairs_cover_every_alignment_shape(self):
        # the reference test above is only as good as the shapes it sees
        def overlaps(lo, hi, start, end):
            return lo < end and start < hi

        shapes = set()
        for seed in range(200):
            energy, intensity = gen_series_pair(random.Random(seed))
            _, uncovered = bisect_align_segments(energy, intensity, PueFactor(1.0))
            if uncovered:
                shapes.add("gap")
            for e in energy.entries:
                if sum(overlaps(e.start, e.end, i.start, i.end) for i in intensity.entries) > 1:
                    shapes.add("multi-entry interval")
            for i in intensity.entries:
                if sum(overlaps(e.start, e.end, i.start, i.end) for e in energy.entries) > 1:
                    shapes.add("multi-interval entry")
        assert shapes == {"gap", "multi-entry interval", "multi-interval entry"}

    @settings(max_examples=200)
    @given(series_pairs)
    def test_conservation(self, pair):
        energy, intensity = pair
        segments, uncovered = aligned_rows(energy, intensity, PueFactor(1.0))
        covered = sum(s.joules for s in segments)
        missing = sum(u.joules_share for u in uncovered)
        total = energy.total_joules()
        assert total == 0.0 or rel_close(covered + missing, total, 1e-9)

    @settings(max_examples=200)
    @given(series_pairs)
    def test_segments_sorted_and_inside_energy(self, pair):
        energy, intensity = pair
        segments, _ = aligned_rows(energy, intensity, PueFactor(1.0))
        for a, b in zip(segments, segments[1:]):
            assert a.start + a.duration_s <= b.start + 1e-9
        bounds = [(e.start, e.end) for e in energy.entries]
        for segment in segments:
            assert any(
                lo - 1e-9 <= segment.start and segment.start + segment.duration_s <= hi + 1e-9
                for lo, hi in bounds
            )


def test_energy_and_segments_hold_under_160_bytes_a_sample():
    # the joule arrays take 48 bytes a sample and the segment columns about 70;
    # one tuple per energy entry and segment took about 480
    rng = random.Random(3)
    n = 20_000
    trace = UsageTrace(columns=(list(range(0, 15 * n, 15)), [15.0] * n, *([rng.uniform(0, 1.0)] * n for _ in range(4))))
    intensity = IntensitySeries("ZZ", tuple(IntensityEntry(t, t + 1800, rng.uniform(0, 1.2)) for t in range(0, 15 * n, 1800)))
    tracemalloc.start()
    try:
        report = operational_emissions(trace_to_energy_series(gen_spec(rng), trace), intensity, PueFactor(1.4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.segment_columns[0]) == n
    assert peak / n < 160


class TestOperationalEmissions:
    def test_constant_intensity_trivial(self):
        report = operational_emissions(one_kwh_series(), constant_intensity(0.4), PueFactor(1.5))
        assert report.total_kg_co2e == pytest.approx(0.6, rel=1e-12)

    def test_split_intensity_matches_per_second_oracle(self):
        energy = one_kwh_series()
        expected = oracle_emissions(energy, split_intensity, PueFactor(1.5))
        report = operational_emissions(energy, split_intensity, PueFactor(1.5))
        assert rel_close(report.total_kg_co2e, expected, 1e-9)
        assert report.total_kg_co2e == pytest.approx(0.45, rel=1e-9)

    def test_zero_intensity(self):
        report = operational_emissions(one_kwh_series(), constant_intensity(0.0), PueFactor(1.0))
        assert report.total_kg_co2e == 0.0

    def test_empty_energy_zero_report_in_strict_mode(self):
        report = operational_emissions(
            energy_series(()), constant_intensity(0.4), PueFactor(1.5), "strict"
        )
        assert report.total_kg_co2e == 0.0
        assert report.segments == () and report.uncovered == ()

    def test_strict_gap_raises_with_interval(self):
        energy = energy_series((energy_entry(0, 100.0, 100.0),))
        intensity = constant_intensity(0.3, start=50, end=150)
        with pytest.raises(CoverageError, match=r"\[0, 50"):
            operational_emissions(energy, intensity, PueFactor(1.0), "strict")

    def test_skip_mode_keeps_uncovered_in_diagnostics(self):
        energy = energy_series((energy_entry(0, 100.0, 100.0),))
        intensity = constant_intensity(0.3, start=50, end=150)
        report = operational_emissions(energy, intensity, PueFactor(1.0), "skip_uncovered")
        assert report.uncovered_joules() == 50.0
        assert report.covered_joules() == 50.0

    def test_total_equals_segment_sum(self):
        report = operational_emissions(one_kwh_series(), split_intensity, PueFactor(1.5))
        assert report.total_kg_co2e == sum(s.kg_co2e for s in report.segments)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            operational_emissions(one_kwh_series(), split_intensity, PueFactor(1.0), "ignore")

    @settings(max_examples=150, deadline=None)
    @given(series_pairs)
    def test_oracle_equivalence(self, pair):
        energy, intensity = pair
        pue = PueFactor(1.4)
        report = operational_emissions(energy, intensity, pue, "skip_uncovered")
        expected = oracle_emissions(energy, intensity, pue)
        assert rel_close(report.total_kg_co2e, expected, 1e-9)

    @settings(max_examples=100)
    @given(series_pairs, st.floats(1.0, 3.0))
    def test_pue_linearity(self, pair, pue):
        energy, intensity = pair
        base = operational_emissions(energy, intensity, PueFactor(1.0), "skip_uncovered")
        scaled = operational_emissions(energy, intensity, PueFactor(pue), "skip_uncovered")
        assert rel_close(scaled.total_kg_co2e, pue * base.total_kg_co2e, 1e-12)

    @settings(max_examples=100)
    @given(
        st.integers(0, 10**9),
        # exact zero plus a physical range; subnormals void any relative claim
        st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
        st.floats(1.0, 2.5),
    )
    def test_constant_intensity_collapse(self, seed, value, pue):
        energy, _ = gen_series_pair(random.Random(seed), allow_gaps=False)
        window = energy.window()
        intensity = constant_intensity(value, int(window[0]) - 1, int(window[1]) + 1)
        report = operational_emissions(energy, intensity, PueFactor(pue), "strict")
        expected = pue * value * energy.total_joules() / JOULES_PER_KWH
        assert rel_close(report.total_kg_co2e, expected, 1e-12)

    @settings(max_examples=100)
    @given(series_pairs, st.floats(0.0, 0.8))
    def test_monotone_in_intensity(self, pair, bump):
        energy, intensity = pair
        raised = IntensitySeries(
            region=intensity.region,
            entries=tuple(
                IntensityEntry(e.start, e.end, e.intensity_kg_per_kwh + bump)
                for e in intensity.entries
            ),
        )
        low = operational_emissions(energy, intensity, PueFactor(1.2), "skip_uncovered")
        high = operational_emissions(energy, raised, PueFactor(1.2), "skip_uncovered")
        assert high.total_kg_co2e >= low.total_kg_co2e


class TestOracle:
    def test_aligned_case(self):
        value = oracle_emissions(one_kwh_series(), constant_intensity(0.4), PueFactor(1.5))
        assert value == pytest.approx(0.6, rel=1e-12)

    def test_split_case_is_the_derivation(self):
        value = oracle_emissions(one_kwh_series(), split_intensity, PueFactor(1.5))
        # 1.5 * (0.5 kWh * 0.4 + 0.5 kWh * 0.2)
        assert value == pytest.approx(0.45, rel=1e-12)

    def test_zero_energy(self):
        assert oracle_emissions(energy_series(()), split_intensity, PueFactor(2.0)) == 0.0

    def test_subsecond_energy_boundary_rejected(self):
        energy = energy_series((energy_entry(0, 10.5, 100.0),))
        with pytest.raises(OracleResolutionError):
            oracle_emissions(energy, constant_intensity(0.4, 0, 60), PueFactor(1.0))

    def test_subsecond_intensity_boundary_rejected(self):
        energy = energy_series((energy_entry(0, 10.0, 100.0),))
        intensity = IntensitySeries(region="ZZ", entries=(IntensityEntry(0.5, 60, 0.4),))
        with pytest.raises(OracleResolutionError):
            oracle_emissions(energy, intensity, PueFactor(1.0))


class TestIntensitySeries:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            IntensitySeries(
                region="ZZ",
                entries=(IntensityEntry(0, 100, 0.4), IntensityEntry(50, 150, 0.2)),
            )

    @pytest.mark.parametrize("columns, message", [
        (([0, 100], [100, 200], [0.4, -0.1]), "intensity_kg_per_kwh must be >= 0, got -0.1"),
        (([0, 100], [100, 200], [0.4, math.nan]), "intensity_kg_per_kwh must be finite, got nan"),  # max() skips it
        (([0, 100], [100, 200], [10**400, 0.4]), "intensity_kg_per_kwh must be finite, got 1000"),
        (([0, 100], [100, 100], [0.4, 0.4]), "end 100 must be > start 100"),
        (([0, 2**53], [100, 2**53 + 1], [0.4, 0.4]), "end must be within ±2**53, got 9007199254740993"),
        (([0, 50], [100, 150], [0.4, 0.2]), "entry [50, 150) overlaps the previous one"),
        (([0], [100, 200], [0.4]), "a series is three columns of one length"),
    ])
    def test_bulk_columns_checked_as_entries(self, columns, message):
        # the columns are checked in bulk; a fault raises the error its entry would raise
        with pytest.raises(ValueError) as exc_info:
            IntensitySeries("ZZ", columns=columns)
        assert str(exc_info.value).startswith(message)

    def test_bulk_columns_equal_the_series_of_entries(self):
        start, end, intensity = [0, 100], [100, 250], [0.4, 1]
        series = IntensitySeries("ZZ", columns=(start, end, intensity))
        assert series.columns[0] is start  # a list column is kept, not copied
        assert series == IntensitySeries("ZZ", (IntensityEntry(0, 100, 0.4), IntensityEntry(100, 250, 1)))
        assert series.entries == (IntensityEntry(0, 100, 0.4), IntensityEntry(100, 250, 1)) and len(series.entries) == 2
        assert series != IntensitySeries("NL", series.entries)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            IntensityEntry(0, 100, -0.4)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            IntensityEntry(100, 100, 0.4)

    @pytest.mark.parametrize("value, bound", [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, ">= 0")])
    def test_non_finite_intensity_rejected(self, value, bound):
        # -inf lies below the bound, as every value type words it
        with pytest.raises(ValueError, match=f"^intensity_kg_per_kwh must be {bound}, got"):
            IntensityEntry(0, 100, value)

    def test_half_open_lookup(self):
        series = constant_intensity(0.4, 0, 100)
        assert intensity_at(series, 0) == 0.4
        assert intensity_at(series, 99.5) == 0.4
        assert intensity_at(series, 100) is None  # boundary belongs to the next window
        assert intensity_at(series, -1) is None

    def test_gap_lookup(self):
        series = IntensitySeries(
            region="ZZ",
            entries=(IntensityEntry(0, 50, 0.4), IntensityEntry(100, 150, 0.2)),
        )
        assert intensity_at(series, 75) is None
        assert intensity_at(series, 100) == 0.2
