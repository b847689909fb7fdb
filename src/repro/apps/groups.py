"""The two small output groups the verification workloads
(:mod:`repro.check.workloads`) and the chaos experiment
(:mod:`repro.experiments.chaos`) write.

They stand in for the skeleton apps' groups with one variable each, so a
run stays small while it takes the same path through the pipeline.
"""

from __future__ import annotations

from repro.adios.group import GroupDef, VarDef, VarKind

__all__ = ["FIELD_GROUP", "PARTICLE_GROUP"]

# GTC-like particle group: (n, 8) rows; column 0 is the global label.
PARTICLE_GROUP = GroupDef(
    "particles",
    (VarDef("electrons", "float64", VarKind.LOCAL_ARRAY, ndim=2),),
)

# Pixie3D-like field group: one 3-D global array (stand-in for the eight
# fields; the merge path is identical per variable), 1-D slab decomposition.
FIELD_GROUP = GroupDef(
    "fields",
    (VarDef("rho", "float64", VarKind.GLOBAL_ARRAY, ndim=3),),
)
