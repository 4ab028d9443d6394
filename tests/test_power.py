import dataclasses
import math
import operator
import random
from array import array
from itertools import compress, count, repeat

import pytest
from hypothesis import given, settings, strategies as st

from carbondef import (
    EnergyEntry,
    EnergySeries,
    PerComponent,
    ServerSpec,
    UsageSample,
    UsageTrace,
    component_power,
    energy_over_interval,
    marginal_power,
    trace_to_energy_series,
)
from carbondef import embodied, grid, power
from carbondef.embodied import ProfileStep, SharingProfile
from carbondef.errors import AllocationError, SpecError, TraceOrderError, UsageOutOfRange
from carbondef.grid import PueFactor, operational_emissions
from carbondef.power import COMPONENTS, ENERGY_SOURCES, ColumnRows, UnitTags, clamped_sample_indices, fold_sum

from support import (
    full_load_sample,
    gen_aligned_trace,
    gen_ledger,
    gen_spec,
    gen_usage,
    naive_clamped_indices,
    naive_component_power,
    naive_energy_rows,
    rel_close,
)


def spec_with_alpha(cpu, mem, io, net):
    return ServerSpec(
        tdp_watts=100.0,
        n_cpu=4,
        alpha=PerComponent(cpu, mem, io, net),
        u_max=PerComponent(cpu=4.0, mem=64e9, io=1e12, net=1e12),
    )


random_specs = st.integers(0, 10**9).map(lambda seed: gen_spec(random.Random(seed)))


class TestValidateSpec:
    def test_example_accepted(self):
        spec = spec_with_alpha(0.4, 0.3, 0.2, 0.1)
        assert spec.alpha == PerComponent(0.4, 0.3, 0.2, 0.1)

    def test_alpha_sum_two_rejected(self):
        with pytest.raises(AllocationError):
            spec_with_alpha(0.5, 0.5, 0.5, 0.5)

    def test_all_cpu_boundary_accepted(self):
        spec_with_alpha(1.0, 0.0, 0.0, 0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(AllocationError):
            spec_with_alpha(1.2, -0.1, 0.0, -0.1)

    def test_zero_cpu_share_rejected(self):
        with pytest.raises(AllocationError):
            spec_with_alpha(0.0, 0.5, 0.3, 0.2)

    @pytest.mark.parametrize(
        "field,value",
        [("tdp_watts", 0.0), ("tdp_watts", -10.0), ("n_cpu", 0), ("idle_watts", -1.0)],
    )
    def test_bad_scalars_rejected(self, field, value):
        spec = spec_with_alpha(0.4, 0.3, 0.2, 0.1)
        with pytest.raises(SpecError):
            dataclasses.replace(spec, **{field: value})

    def test_zero_u_max_rejected(self):
        with pytest.raises(SpecError):
            ServerSpec(
                tdp_watts=100.0,
                n_cpu=4,
                alpha=PerComponent(0.4, 0.3, 0.2, 0.1),
                u_max=PerComponent(cpu=4.0, mem=0.0, io=1e12, net=1e12),
            )

    def test_unknown_unit_tag_rejected(self):
        spec = spec_with_alpha(0.4, 0.3, 0.2, 0.1)
        with pytest.raises(SpecError):
            dataclasses.replace(spec, u_max_units=UnitTags(mem="bits"))

    def test_alpha_sum_within_tolerance_accepted(self):
        spec_with_alpha(0.4, 0.3, 0.2, 0.1 + 5e-10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field, error", [
        ("tdp_watts", SpecError), ("n_cpu", SpecError), ("idle_watts", SpecError),
        *((f"u_max.{component}", SpecError) for component in COMPONENTS),
        *((f"alpha.{component}", AllocationError) for component in COMPONENTS),
    ])
    def test_non_finite_rejected(self, field, error, value):
        # NaN fails every bound; an infinite u_max would zero its component's energy
        spec = spec_with_alpha(0.4, 0.3, 0.2, 0.1)
        name, _, component = field.partition(".")
        if component:
            value = dataclasses.replace(getattr(spec, name), **{component: value})
        with pytest.raises(error):
            dataclasses.replace(spec, **{name: value})

    @pytest.mark.parametrize("field, value, message", [
        ("tdp_watts", math.inf, "tdp_watts must be finite, got inf"),
        ("idle_watts", math.nan, "idle_watts must be finite, got nan"),
        ("u_max", PerComponent(4.0, math.inf, 1e12, 1e12), "u_max.mem must be finite"),
        ("alpha", PerComponent(math.nan, 0.3, 0.2, 0.1), "alpha.cpu must be finite"),
    ])
    def test_non_finite_messages(self, field, value, message):
        with pytest.raises((SpecError, AllocationError)) as exc_info:
            dataclasses.replace(spec_with_alpha(0.4, 0.3, 0.2, 0.1), **{field: value})
        assert str(exc_info.value) == message


class TestComponentPower:
    def test_full_load_breakdown(self, example_spec):
        power = component_power(example_spec, full_load_sample(example_spec))
        assert power["cpu"] == pytest.approx(400.0, rel=1e-12)
        assert power["mem"] == pytest.approx(300.0, rel=1e-12)
        assert power["io"] == pytest.approx(200.0, rel=1e-12)
        assert power["net"] == pytest.approx(100.0, rel=1e-12)
        assert sum(power.values()) == pytest.approx(1000.0, rel=1e-12)

    def test_zero_usage_is_zero_power(self, example_spec):
        power = component_power(example_spec, UsageSample(0, 60.0, 0, 0, 0, 0))
        assert sum(power.values()) == 0.0

    def test_half_cpu_load(self, example_spec):
        power = component_power(example_spec, UsageSample(0, 60.0, 2.0, 0, 0, 0))
        assert power["cpu"] == 200.0
        assert sum(power.values()) == 200.0

    def test_idle_baseline_unconditional(self, example_spec):
        import dataclasses

        spec = dataclasses.replace(example_spec, idle_watts=50.0)
        assert sum(component_power(spec, UsageSample(0, 60.0, 0, 0, 0, 0)).values()) == 50.0
        # idle is added on top of full load, outside the allocated budget
        full = component_power(spec, full_load_sample(spec))
        assert sum(full.values()) == pytest.approx(1050.0, rel=1e-12)

    def test_usage_above_max_rejected(self, example_spec):
        sample = UsageSample(0, 60.0, 5.0, 0, 0, 0)
        with pytest.raises(UsageOutOfRange):
            component_power(example_spec, sample)

    def test_usage_above_max_clamped_on_request(self, example_spec):
        sample = UsageSample(0, 60.0, 5.0, 0, 0, 0)
        power = component_power(example_spec, sample, clamp=True)
        assert power["cpu"] == 400.0

    def test_additivity_fixed_order(self, example_spec):
        rng = random.Random(7)
        for _ in range(50):
            sample = gen_usage(rng, example_spec)
            p = component_power(example_spec, sample)
            assert sum(p.values()) == p["cpu"] + p["mem"] + p["io"] + p["net"] + p["idle"]

    # exact zero plus a non-denormal range: subnormal scale factors void
    # any relative-tolerance statement
    @given(
        random_specs,
        st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
        st.integers(0, 10**6),
    )
    def test_homogeneity(self, spec, lam, seed):
        rng = random.Random(seed)
        sample = gen_usage(rng, spec)
        scaled = UsageSample(
            sample.start,
            sample.duration_s,
            lam * sample.u_cpu,
            lam * sample.u_mem,
            lam * sample.u_io,
            lam * sample.u_net,
        )
        p = component_power(spec, sample)
        q = component_power(spec, scaled)
        for source in COMPONENTS:
            assert rel_close(q.get(source), lam * p.get(source), 1e-12)


class TestMarginalPower:
    def test_cpu_marginal(self, example_spec):
        assert marginal_power(example_spec, "cpu") == 100.0

    def test_mem_marginal_hand_derived(self, example_spec):
        # (0.3 / 0.4) * (100 * 4) / 64e9 = 300 / 64e9, recomputed by hand
        assert marginal_power(example_spec, "mem") == pytest.approx(4.6875e-9, rel=1e-9)

    def test_unknown_component(self, example_spec):
        with pytest.raises(ValueError):
            marginal_power(example_spec, "gpu")

    @given(random_specs, st.sampled_from(COMPONENTS), st.floats(0.05, 0.95))
    def test_matches_forward_difference(self, spec, component, position):
        # independent oracle: forward difference of component power
        limit = spec.u_max.get(component)
        delta = limit / 65536.0
        u = position * limit
        low = UsageSample(0, 1.0, 0, 0, 0, 0)
        at = {f"u_{component}": u}
        bumped = {f"u_{component}": u + delta}
        import dataclasses

        p0 = component_power(spec, dataclasses.replace(low, **at)).get(component)
        p1 = component_power(spec, dataclasses.replace(low, **bumped)).get(component)
        assert rel_close((p1 - p0) / delta, marginal_power(spec, component), 1e-9)


class TestEnergy:
    def test_energy_is_power_times_duration(self, example_spec):
        sample = UsageSample(0, 3600.0, 2.0, 0, 0, 0)  # 200 W
        entry = energy_over_interval(example_spec, sample)
        assert entry.joules_total == 720000.0

    def test_zero_usage_zero_energy(self, example_spec):
        entry = energy_over_interval(example_spec, UsageSample(0, 12345.0, 0, 0, 0, 0))
        assert entry.joules_total == 0.0

    def test_idle_only_energy(self, example_spec):
        import dataclasses

        spec = dataclasses.replace(example_spec, idle_watts=50.0)
        entry = energy_over_interval(spec, UsageSample(0, 60.0, 0, 0, 0, 0))
        assert entry.joules_total == 3000.0
        assert entry.joules_by_component[ENERGY_SOURCES.index("idle")] == 3000.0

    @given(random_specs, st.integers(0, 10**6))
    def test_consistent_with_power(self, spec, seed):
        sample = gen_usage(random.Random(seed), spec)
        entry = energy_over_interval(spec, sample)
        power = component_power(spec, sample)
        assert rel_close(entry.joules_total, sum(power.values()) * sample.duration_s, 1e-12)


class TestTraceToSeries:
    def test_empty_trace(self, example_spec):
        series = trace_to_energy_series(example_spec, UsageTrace())
        assert len(series) == 0
        assert series.total_joules() == 0.0
        assert series.window() is None

    def test_two_disjoint_samples_add(self, example_spec):
        samples = [
            UsageSample(0, 3600.0, 2.0, 0, 0, 0),
            UsageSample(7200, 3600.0, 2.0, 0, 0, 0),
        ]
        series = trace_to_energy_series(example_spec, UsageTrace(samples))
        assert series.total_joules() == 1440000.0
        assert series.window() == (0, 10800.0)

    def test_adjacent_samples_allowed(self, example_spec):
        samples = [
            UsageSample(0, 3600.0, 1.0, 0, 0, 0),
            UsageSample(3600, 3600.0, 1.0, 0, 0, 0),
        ]
        assert len(trace_to_energy_series(example_spec, UsageTrace(samples))) == 2

    def test_overlap_rejected(self, example_spec):
        samples = [
            UsageSample(0, 3600.0, 1.0, 0, 0, 0),
            UsageSample(1800, 3600.0, 1.0, 0, 0, 0),
        ]
        with pytest.raises(TraceOrderError):
            trace_to_energy_series(example_spec, UsageTrace(samples))

    def test_unsorted_rejected(self, example_spec):
        samples = [
            UsageSample(7200, 60.0, 1.0, 0, 0, 0),
            UsageSample(0, 60.0, 1.0, 0, 0, 0),
        ]
        with pytest.raises(TraceOrderError):
            trace_to_energy_series(example_spec, UsageTrace(samples))

    def test_out_of_range_names_sample(self, example_spec):
        samples = [
            UsageSample(0, 60.0, 1.0, 0, 0, 0),
            UsageSample(60, 60.0, 9.0, 0, 0, 0),
        ]
        with pytest.raises(UsageOutOfRange, match="sample 1"):
            trace_to_energy_series(example_spec, UsageTrace(samples))

    def test_clamped_indices(self, example_spec):
        samples = [
            UsageSample(0, 60.0, 1.0, 0, 0, 0),
            UsageSample(60, 60.0, 9.0, 0, 0, 0),
        ]
        assert clamped_sample_indices(example_spec, UsageTrace(samples)) == [1]

    @staticmethod
    def scanned_indices(spec, trace):
        """clamped_sample_indices as it was before it tested each column's maximum: a scan of all four columns."""
        limits = spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
        over = (compress(count(), map(operator.gt, usage, repeat(limit))) for usage, limit in zip(trace.columns[2:], limits))
        return sorted(set().union(*over))

    @settings(max_examples=200)
    @given(st.integers(0, 10**9), st.booleans())
    def test_clamped_indices_equal_a_scan_of_every_column(self, seed, clamped):
        # a column whose maximum is within its limit is not scanned; a trace with no row over a limit
        # (unclamped) has none scanned, one with rows over (clamped) scans only those columns
        rng = random.Random(seed)
        spec = gen_spec(rng)
        limits = [spec.u_max.get(component) for component in COMPONENTS]
        samples = []
        for index in range(rng.randrange(0 if not clamped else 1, 30)):
            usages = [rng.choice([rng.uniform(0.0, limit), limit, 0, math.nextafter(limit, 0)]) for limit in limits]
            if clamped and rng.random() < 0.3:
                component = rng.randrange(4)
                usages[component] = rng.choice([math.nextafter(limits[component], math.inf), 2 * limits[component]])
            samples.append(UsageSample(60 * index, 60.0, *usages))
        trace = UsageTrace(samples)
        assert clamped_sample_indices(spec, trace) == self.scanned_indices(spec, trace) == naive_clamped_indices(spec, samples)


class TestEnergySeries:
    TRACE = UsageTrace((UsageSample(0, 60.0, 1.0, 0, 0, 0), UsageSample(60, 30.0, 2.0, 0, 0, 0)))

    def test_shares_the_start_and_duration_columns_of_its_trace(self, example_spec):
        series = trace_to_energy_series(example_spec, self.TRACE)
        assert series.columns[0] is self.TRACE.columns[0] and series.columns[1] is self.TRACE.columns[1]
        assert series.entries[1] == EnergyEntry(60, 30.0, 6000.0, (6000.0, 0.0, 0.0, 0.0, 0.0))

    def test_negative_joules_rejected(self):
        joules = [array("d", [1.0, 2.0]) for _ in range(6)]
        joules[4][1] = -1.0
        with pytest.raises(ValueError, match="^energy values must be >= 0$"):
            EnergySeries(self.TRACE, joules)

    @pytest.mark.parametrize("joules", [[array("d", [1.0, 2.0])] * 5, [array("d", [1.0])] * 6, [array("d", [1.0, 2.0, 3.0])] * 6],
                             ids=["five-columns", "short", "long"])
    def test_six_joule_columns_one_value_a_sample(self, joules):
        with pytest.raises(ValueError, match="six joule columns, one value a sample"):
            EnergySeries(self.TRACE, joules)

    def test_total_joules_adds_left_to_right(self):
        # 1e16 J, then 1,000 samples of 0.9 J, each below half the ulp of 1e16 (2.0): every addition rounds
        # back to 1e16, where a compensated sum (math.fsum, or the builtin sum() since Python 3.12) keeps 900 J
        n = 1001
        trace = UsageTrace(columns=(list(range(0, 60 * n, 60)), [60.0] * n, *[[0.0] * n] * 4))
        joules = array("d", [1e16, *[0.9] * (n - 1)])
        assert EnergySeries(trace, [joules] * 6).total_joules() == 1e16 < math.fsum(joules)


class TestFoldSum:
    def test_adds_left_to_right_from_zero(self):
        # compensated summation gives 1.0: the rounding of 1e16 + 1.0 is not carried
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0 and math.fsum([1e16, 1.0, -1e16]) == 1.0
        assert fold_sum([]) == 0.0 and type(fold_sum([])) is float


class TestUsageSample:
    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            UsageSample(0, 0.0, 1.0, 0, 0, 0)

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            UsageSample(0, 60.0, -1.0, 0, 0, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["duration_s", "u_cpu", "u_mem", "u_io", "u_net"])
    def test_non_finite_rejected(self, field, value):
        fields = {"start": 0, "duration_s": 60.0, "u_cpu": 1.0, "u_mem": 0.0, "u_io": 0.0, "u_net": 0.0}
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            UsageSample(**fields)

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, 2**60, -(2**53) - 1])
    def test_start_beyond_epoch_range_rejected(self, start):
        with pytest.raises(ValueError, match=r"^start must be within ±2\*\*53"):
            UsageSample(start, 60.0, 1.0, 0, 0, 0)


class TestUsageTraceColumns:
    SAMPLES = (UsageSample(0, 60.0, 1.0, 0, 0, 0), UsageSample(60, 30.0, 2.0, 5.0, 0, 0), UsageSample(95, 5.0, 0, 0, 0, 1.0))

    def test_columns_and_samples_on_demand(self):
        trace = UsageTrace(samples=self.SAMPLES, source_rows=(2, 3, 4))
        floats = [60.0, 30.0, 5.0], [1.0, 2.0, 0], [0, 5.0, 0], [0, 0, 0], [0, 0, 1.0]
        assert trace.columns == ([0, 60, 95], *(array("d", column) for column in floats))
        assert trace == UsageTrace(columns=trace.columns, source_rows=[2, 3, 4])
        assert trace.samples == self.SAMPLES and tuple(trace) == self.SAMPLES and len(trace) == 3
        assert trace.source_rows == (2, 3, 4) and trace != UsageTrace(samples=self.SAMPLES)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("field", range(1, 6))
    def test_field_fault_names_the_sample(self, field, value):
        # a NaN past a column's first value hides from min and max
        columns = UsageTrace(samples=self.SAMPLES).columns
        columns[field][2] = value
        with pytest.raises(ValueError, match=rf"^sample 2 \(row 4\): {'duration_s' if field == 1 else 'u_'}"):
            UsageTrace(columns=columns, source_rows=(2, 3, 4))

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, 2**60])
    def test_start_fault_names_the_sample(self, start):
        columns = UsageTrace(samples=self.SAMPLES).columns
        columns[0][1] = start
        with pytest.raises(ValueError, match=r"^sample 1 \(row 3\): start must be within ±2\*\*53"):
            UsageTrace(columns=columns, source_rows=(2, 3, 4))

    def test_order_fault_names_the_sample(self):
        columns = UsageTrace(samples=self.SAMPLES).columns
        columns[0][2] = 89
        with pytest.raises(TraceOrderError, match=r"^sample 2 \(row 4\) starts at 89, before previous sample end 90.0$"):
            UsageTrace(columns=columns, source_rows=(2, 3, 4))

    def test_sample_whose_end_rounds_to_its_start_rejected(self):
        # at 2**52 a float step is 1 s, so 0.25 s adds nothing: the sample would hold energy but no time
        columns = ([2**52, 2**52 + 1], [0.25, 0.25], [1.0, 1.0], [0, 0], [0, 0], [0, 0])
        with pytest.raises(TraceOrderError, match=r"^sample 0 \(row 2\) ends where it starts: 4503599627370496 \+ 0.25 "
                                                  r"rounds to 4503599627370496.0$"):
            UsageTrace(columns=columns, source_rows=(2, 3))
        columns[1][0] = 1.0  # the first sample now ends at 2**52 + 1; the second still collapses
        with pytest.raises(TraceOrderError, match=r"^sample 1 ends where it starts"):
            UsageTrace(columns=columns)

    def test_a_column_in_the_layout_is_kept_not_copied(self):
        columns = ([0, 60], *(array("d", [60.0, 30.0]) for _ in range(5)))
        trace = UsageTrace(columns=columns)
        assert all(map(operator.is_, trace.columns, columns))
        built = UsageTrace(columns=(tuple(columns[0]), *map(list, columns[1:])))  # any other sequence is read into the layout
        assert built == trace and type(built.columns[0]) is list and [type(c) for c in built.columns[1:]] == [array] * 5

    def test_source_rows_kept_as_given_and_compared_by_value(self):
        trace = UsageTrace(samples=self.SAMPLES, source_rows=range(2, 5))
        assert trace.source_rows == range(2, 5)
        assert trace == UsageTrace(samples=self.SAMPLES, source_rows=(2, 3, 4))
        assert trace != UsageTrace(samples=self.SAMPLES, source_rows=(2, 3, 5))
        assert trace != UsageTrace(samples=self.SAMPLES)

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="six columns of one length"):
            UsageTrace(columns=([0], [1.0], [0], [0], [0], []))

    @pytest.mark.parametrize("start", [[0, 10, 5], [0, 10, 20]])  # an order fault would index past the rows
    def test_one_source_row_a_sample(self, start):
        with pytest.raises(ValueError, match=r"^a trace of 3 samples has 1 source rows$"):
            UsageTrace(columns=(start, [1.0] * 3, [0] * 3, [0] * 3, [0] * 3, [0] * 3), source_rows=(2,))
        assert len(UsageTrace(columns=([0, 10, 20], [1.0] * 3, [0] * 3, [0] * 3, [0] * 3, [0] * 3), source_rows=range(3))) == 3

    @pytest.mark.parametrize("field", range(1, 6))
    def test_int_past_the_float_range_names_the_sample(self, field):
        # array('d') cannot hold it; 0 < 10**400 < inf holds, so only the float range's bound sees it
        columns = [list(column) for column in UsageTrace(samples=self.SAMPLES).columns]
        columns[field][1] = 10**400
        with pytest.raises(ValueError, match=rf"^sample 1 \(row 3\): {'duration_s' if field == 1 else 'u_'}\w* must be finite"):
            UsageTrace(columns=columns, source_rows=(2, 3, 4))
        with pytest.raises(ValueError, match="must be finite"):
            UsageSample(*(column[1] for column in columns))

    # str() of an int past sys.get_int_max_str_digits() (4300 by default) raises a ValueError naming no sample
    def test_huge_int_duration_named_by_its_bit_count(self):
        with pytest.raises(ValueError, match=r"^sample 0: duration_s must be finite, got an integer of 16610 bits$"):
            UsageTrace(columns=([0], [10**5000], [0], [0], [0], [0]))

    def test_huge_int_start_named_by_its_sign_and_bit_count(self):
        with pytest.raises(ValueError, match=r"^sample 0: start must be within ±2\*\*53, got an integer of 16610 bits$"):
            UsageTrace(columns=([10**5000], [1.0], [0], [0], [0], [0]))
        with pytest.raises(ValueError, match=r"^start must be within ±2\*\*53, got a negative integer of 16610 bits$"):
            UsageSample(-(10**5000), 1.0, 0, 0, 0, 0)


def gen_trace(rng: random.Random, spec: ServerSpec) -> list[UsageSample]:
    """Ordered samples, some with gaps, about a third with usages at or
    above u_max."""
    samples, start = [], rng.randrange(0, 10**6)
    for _ in range(rng.randint(0, 12)):
        sample = gen_usage(rng, spec, start)
        if rng.random() < 0.35:
            over = {
                f"u_{c}": spec.u_max.get(c) * rng.choice([1.0, rng.uniform(1.0000001, 3.0)])
                for c in COMPONENTS
                if rng.random() < 0.5
            }
            sample = dataclasses.replace(sample, **over)
        samples.append(sample)
        start = math.ceil(sample.end) + rng.choice([0, 0, rng.randrange(1, 600)])
    return samples


class TestKernelAgainstReference:
    """The per-row kernel against the per-sample reference in support.py,
    bit for bit (repr tells -0.0 from 0.0 and round-trips every float)."""

    @settings(max_examples=300)
    @given(st.integers(0, 10**9), st.booleans())
    def test_series_equals_reference(self, seed, clamp):
        rng = random.Random(seed)
        spec = gen_spec(rng, idle_max=rng.choice([0.0, 300.0]))
        samples = gen_trace(rng, spec)
        try:
            expected = naive_energy_rows(spec, samples, clamp=clamp)
        except UsageOutOfRange as exc:
            with pytest.raises(UsageOutOfRange) as raised:
                trace_to_energy_series(spec, UsageTrace(samples), clamp=clamp)
            assert str(raised.value) == str(exc)  # names the first offending sample
        else:
            series = trace_to_energy_series(spec, UsageTrace(samples), clamp=clamp)
            assert repr([tuple(entry) for entry in series.entries]) == repr(expected)
        assert clamped_sample_indices(spec, UsageTrace(samples)) == naive_clamped_indices(spec, samples)

    @given(st.integers(0, 10**9))
    def test_power_and_single_interval_equal_reference(self, seed):
        rng = random.Random(seed)
        spec = gen_spec(rng, idle_max=300.0)
        for sample in gen_trace(rng, spec):
            assert repr(component_power(spec, sample, clamp=True)) == repr(
                naive_component_power(spec, sample, clamp=True)
            )
            entry = energy_over_interval(spec, sample, clamp=True)
            assert repr(tuple(entry)) == repr(naive_energy_rows(spec, [sample], clamp=True)[0])


def row_view_parents() -> dict[str, object]:
    """A trace, its energy series and feed, their skip_uncovered report, and a ledger, each of 3 rows or more a view."""
    trace, feed = gen_aligned_trace(random.Random(14))
    energy = trace_to_energy_series(spec_with_alpha(0.4, 0.3, 0.2, 0.1), trace)
    report = operational_emissions(energy, feed, PueFactor(1.2), "skip_uncovered")
    return {"UsageTrace": trace, "EnergySeries": energy, "IntensitySeries": feed, "EmissionsReport": report,
            "Ledger": gen_ledger(random.Random(3))}


def ledger_profiles(ledger) -> list[SharingProfile]:
    _, _, offsets, start, end, fraction = ledger.columns
    return [SharingProfile(tuple(map(ProfileStep, start[first:last], end[first:last], fraction[first:last])))
            for first, last in zip(offsets, offsets[1:])]


# each typed row list: the module and name of its row type, and its parent's columns as that type's fields,
# from which the test builds the tuple of the rows
ROW_VIEWS = {
    "UsageTrace.samples": (power, "UsageSample", lambda trace: trace.columns),
    "EnergySeries.entries": (power, "EnergyEntry", lambda energy: (*energy.columns[:3], list(zip(*energy.columns[3:])))),
    "IntensitySeries.entries": (grid, "IntensityEntry", lambda series: series.columns),
    "EmissionsReport.segments": (grid, "EmissionsSegment", lambda report: report.segment_columns),
    "EmissionsReport.uncovered": (grid, "UncoveredSpan", lambda report: report.uncovered_columns),
    "Ledger.records": (embodied, "ConsumptionRecord", lambda ledger: (*ledger.columns[:2], ledger_profiles(ledger))),
}


@pytest.mark.parametrize("name", ROW_VIEWS)
class TestColumnRows:
    def parts(self, name):
        module, row_type, columns = ROW_VIEWS[name]
        parent_type, _, attribute = name.partition(".")
        parent = row_view_parents()[parent_type]
        return module, row_type, parent, attribute, tuple(map(getattr(module, row_type), *columns(parent)))

    def test_view_is_sized_without_building_a_row(self, monkeypatch, name):
        module, row_type, parent, attribute, rows = self.parts(name)
        monkeypatch.setattr(module, row_type, None)  # any row built now raises a TypeError
        view = getattr(parent, attribute)
        assert type(view) is ColumnRows and len(view) == len(rows) >= 3
        with pytest.raises(TypeError):
            view[0]

    def test_view_indexes_slices_iterates_and_compares_by_value(self, name):
        _, _, parent, attribute, rows = self.parts(name)
        view = getattr(parent, attribute)
        assert view[0] == rows[0] and view[-1] == rows[-1] and view[-len(rows)] == rows[0] and view[2] == rows[2]
        assert view[1:] == rows[1:] and view[::-2] == rows[::-2] and view[5:2] == () and type(view[:2]) is tuple
        assert tuple(view) == rows
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                view[index]
        assert view == rows and rows == view and view == getattr(parent, attribute)
        assert view != rows[1:] and view != list(rows) and view != ColumnRows(view.columns, lambda *values: None)
