#!/usr/bin/env python3
"""How sensitive is the estimate to the allocation vector?

The allocation fractions are assumptions, so it matters how much the
energy total moves when they change. This sweep holds a mixed workload
fixed and varies the cpu share (redistributing the remainder across
mem/io/net proportionally), printing total energy per choice. Because
non-cpu components are anchored at alpha_x / alpha_cpu, a lower cpu
share raises the charged energy for the same observed usage.
"""

import random

from carbondef import (
    PerComponent,
    ServerSpec,
    UsageSample,
    component_power,
)

BASE_REST = (0.25, 0.15, 0.10)  # mem : io : net proportions of the non-cpu share


def spec_for(cpu_share: float) -> ServerSpec:
    rest = 1.0 - cpu_share
    weight = sum(BASE_REST)
    return ServerSpec(
        tdp_watts=120.0,
        n_cpu=2,
        alpha=PerComponent(
            cpu=cpu_share,
            mem=rest * BASE_REST[0] / weight,
            io=rest * BASE_REST[1] / weight,
            net=rest * BASE_REST[2] / weight,
        ),
        u_max=PerComponent(cpu=16.0, mem=128e9, io=2e12, net=1e12),
    )


def main():
    rng = random.Random(7)
    workload = [
        UsageSample(
            i * 900,
            900.0,
            rng.uniform(2.0, 14.0),
            rng.uniform(20e9, 100e9),
            rng.uniform(0, 0.5e12),
            rng.uniform(0, 0.4e12),
        )
        for i in range(32)
    ]

    def mean_watts(cpu_share: float) -> float:
        spec = spec_for(cpu_share)
        return sum(sum(component_power(spec, s).values()) for s in workload) / len(workload)

    baseline = mean_watts(0.50)
    print(f"{'alpha_cpu':>10} {'mean W':>10} {'vs 0.50':>8}")
    for cpu_share in (0.30, 0.40, 0.50, 0.60, 0.70, 0.80):
        mean_w = mean_watts(cpu_share)
        print(f"{cpu_share:>10.2f} {mean_w:>10.1f} {mean_w / baseline:>7.2%}")


if __name__ == "__main__":
    main()
