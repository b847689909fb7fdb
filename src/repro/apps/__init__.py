"""Driver-application skeletons (§II): GTC and Pixie3D.

These are *skeleton apps*: they reproduce the two codes' output data
properties (structure, volumes, orderings) and their runtime cadence
(compute/communication phases, I/O intervals) without solving the
physics.  The skeletons drive the same ADIOS transports as the paper's
production runs, so swapping In-Compute-Node / Staging configurations
is a one-line change, exactly as §IV.A describes.

- :mod:`repro.apps.gtc` — Gyrokinetic Toroidal Code: two out-of-order
  particle arrays (8 attributes each, labels in the last two columns),
  132 MB/process per dump, ~120 s I/O interval, computation-heavy
  iterations with periodic collective bursts;
- :mod:`repro.apps.pixie3d` — Pixie3D MHD code: eight 3-D field arrays
  in 32^3 local blocks, ~2 MB/process per dump, ~100 s I/O interval,
  and a reduce/bcast-heavy inner loop with only ~0.7 s of computation
  between collective bursts (the property that makes asynchronous
  staging hard to overlap, §V.C);
- :mod:`repro.apps.diagnostics` — Pixie3D's derived quantities
  (energy, flux, divergence, maximum velocity) as plain functions and
  as a PreDatA operator;
- :mod:`repro.apps.readers` — coupled-workflow *streaming* readers
  (Catalyst-style in-transit analysis, a mid-run particle-tracking
  follower) consumed through :mod:`repro.stream`.
"""

from repro.apps.metrics import AppMetrics
from repro.apps.gtc import GTCApplication, GTCConfig, GTC_GROUP, gtc_particles
from repro.apps.pixie3d import (
    PIXIE3D_VARS,
    Pixie3DApplication,
    Pixie3DConfig,
    pixie3d_group,
)
from repro.apps.diagnostics import (
    DiagnosticsOperator,
    divergence,
    kinetic_energy,
    magnetic_flux,
    max_velocity,
)
from repro.apps.readers import InTransitAnalysisReader, ParticleTrackingFollower

__all__ = [
    "AppMetrics",
    "DiagnosticsOperator",
    "GTCApplication",
    "GTCConfig",
    "GTC_GROUP",
    "InTransitAnalysisReader",
    "PIXIE3D_VARS",
    "ParticleTrackingFollower",
    "Pixie3DApplication",
    "Pixie3DConfig",
    "divergence",
    "gtc_particles",
    "kinetic_energy",
    "magnetic_flux",
    "max_velocity",
    "pixie3d_group",
]
