"""PreDatA — Preparatory Data Analytics on Peta-Scale Machines.

A complete Python reproduction of Zheng et al., IPDPS 2010: the
PreDatA in-transit data-preparation middleware and every substrate it
stands on — a discrete-event machine model (Cray XT-class nodes,
torus interconnect, Lustre-like parallel file system), a simulated MPI
layer with a real numpy data plane, ADIOS-style groups and BP files,
FFS-style self-describing encoding, the DataSpaces shared-space
service, GTC and Pixie3D application
skeletons, and the experiment harness that regenerates every figure of
the paper's evaluation.

Start with :mod:`repro.core` (the middleware), `examples/quickstart.py`
for usage, and ``python -m repro.experiments.run_all`` to reproduce the
paper.  DESIGN.md documents the architecture; EXPERIMENTS.md records
paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = [
    "adios",
    "apps",
    "check",
    "core",
    "dataspaces",
    "experiments",
    "faults",
    "ffs",
    "flow",
    "jobs",
    "machine",
    "mpi",
    "obs",
    "operators",
    "perf",
    "query",
    "scenarios",
    "serve",
    "sim",
    "stream",
]
