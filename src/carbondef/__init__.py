"""Carbon-footprint estimation for software workloads.

Converts resource-usage traces into operational and embodied greenhouse
gas emissions: a TDP-anchored server power model, PUE overhead, grid
carbon intensity integrated over mismatched time grids, and lifecycle
attribution of embodied carbon.
"""

__version__ = "0.1.0"

from .embodied import (
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
from .grid import (
    JOULES_PER_KWH,
    EmissionsReport,
    IntensityEntry,
    IntensitySeries,
    PueFactor,
    align_segments,
    apply_pue,
    operational_emissions,
)
from .power import (
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
