#!/usr/bin/env python3
"""End-to-end demo on a synthetic day of workload.

Builds a diurnal usage trace (low at night, busy in the afternoon), a
24h grid-intensity curve with a cleaner midday dip, and a small shared
rack ledger; then runs the whole pipeline and prints the summary. Seeded,
so repeated runs print identical numbers.
"""

import math
import random

from carbondef import (
    ConsumptionRecord,
    EmbodiedObject,
    IntensityEntry,
    IntensitySeries,
    Ledger,
    PerComponent,
    ProfileStep,
    PueFactor,
    ServerSpec,
    SharingProfile,
    UsageSample,
    UsageTrace,
    consumer_embodied,
    idle_residual,
    operational_emissions,
    trace_to_energy_series,
)
from carbondef.grid import JOULES_PER_KWH

DAY = 86400
T0 = 1700000000  # midnight UTC

# illustrative parameters, not vendor data
SPEC = ServerSpec(
    tdp_watts=120.0,
    n_cpu=2,
    alpha=PerComponent(cpu=0.55, mem=0.25, io=0.12, net=0.08),
    u_max=PerComponent(cpu=16.0, mem=128e9, io=2e12, net=1e12),
    idle_watts=35.0,
)


def diurnal_trace(rng: random.Random) -> UsageTrace:
    samples = []
    for slot in range(96):  # 15-minute samples
        start = T0 + slot * 900
        hour = (slot * 900) / 3600.0
        load = 0.25 + 0.65 * max(0.0, math.sin((hour - 6.0) * math.pi / 14.0))
        jitter = rng.uniform(0.9, 1.1)
        level = min(1.0, load * jitter)
        samples.append(
            UsageSample(
                start,
                900.0,
                level * SPEC.u_max.cpu,
                (0.4 + 0.5 * level) * SPEC.u_max.mem,
                level * 0.2 * SPEC.u_max.io,
                level * 0.35 * SPEC.u_max.net,
            )
        )
    return UsageTrace(samples)


def daily_intensity(rng: random.Random) -> IntensitySeries:
    entries = []
    for slot in range(48):  # 30-minute feed updates
        start = T0 + slot * 1800
        hour = (slot * 1800) / 3600.0
        solar_dip = 0.18 * max(0.0, math.sin((hour - 8.0) * math.pi / 10.0))
        value = max(0.05, 0.42 - solar_dip + rng.uniform(-0.02, 0.02))
        entries.append(IntensityEntry(start, start + 1800, value))
    return IntensitySeries(region="demo-grid", entries=tuple(entries))


def demo_ledger() -> Ledger:
    year = 31536000
    server = EmbodiedObject("server-42", 1100.0, 150.0, 80.0, T0 - 2 * year, 5.0 * year)
    rack = EmbodiedObject("rack-7", 400.0, 40.0, 30.0, T0 - 4 * year, 12.0 * year)
    records = [
        ConsumptionRecord(
            "batch-pipeline",
            "server-42",
            SharingProfile((ProfileStep(T0, T0 + DAY, 0.6),)),
        ),
        ConsumptionRecord(
            "api-frontend",
            "server-42",
            SharingProfile((ProfileStep(T0, T0 + DAY, 0.3),)),
        ),
        ConsumptionRecord(
            "batch-pipeline",
            "rack-7",
            SharingProfile((ProfileStep(T0, T0 + DAY, 0.05),)),
        ),
    ]
    return Ledger.build([server, rack], records)


def main():
    rng = random.Random(20260101)
    trace = diurnal_trace(rng)
    intensity = daily_intensity(rng)
    ledger = demo_ledger()
    pue = PueFactor(1.35)

    energy = trace_to_energy_series(SPEC, trace)
    emissions = operational_emissions(energy, intensity, pue, "strict")

    print(f"samples: {len(trace)}  energy: {energy.total_joules() / JOULES_PER_KWH:.3f} kWh (pre-PUE)")
    print(f"operational: {emissions.total_kg_co2e * 1000:.2f} gCO2e at PUE {pue.value}")

    print("\nembodied attribution for the day:")
    embodied_total = 0.0
    for consumer in ledger.consumer_ids():
        attribution = consumer_embodied(ledger, consumer)
        embodied_total += attribution.total_kg
        parts = ", ".join(f"{oid}: {kg * 1000:.1f} g" for oid, kg in sorted(attribution.by_object.items()))
        print(f"  {consumer:16s} {attribution.total_kg * 1000:8.1f} gCO2e  ({parts})")
    for object_id in sorted(ledger.objects):
        share = idle_residual(ledger, object_id)
        print(f"  idle residual    {object_id}: {share:.1f} kgCO2e over the remaining lifespan")

    total_kg = emissions.total_kg_co2e + embodied_total
    print(f"\ntotal: {total_kg * 1000:.2f} gCO2e for the day")
    print(f"per request: {total_kg / 2_500_000 * 1e6:.4f} mgCO2e")


if __name__ == "__main__":
    main()
