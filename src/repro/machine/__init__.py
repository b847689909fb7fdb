"""Machine model: nodes, interconnect, and parallel file system.

This package substitutes for the ORNL Jaguar Cray XT4/XT5 hardware the
paper ran on.  It provides:

- :mod:`repro.machine.topology` — a 3-D torus topology (SeaStar mesh)
  with hop-count routing, plus
  :class:`RegionalTopology` layering named regions with
  per-region-pair latency classes over the torus;
- :mod:`repro.machine.network` — a fluid-flow interconnect model with
  per-node full-duplex NIC pipes, a bisection backbone, RDMA transfers
  and alpha-beta collective cost models;
- :mod:`repro.machine.node` — compute/staging node resources (cores,
  memory accounting);
- :mod:`repro.machine.filesystem` — a Lustre-like parallel file system
  with OST striping, shared aggregate bandwidth, per-client caps and an
  interference/variability model;
- :mod:`repro.machine.presets` — parameter sets calibrated to the
  Jaguar XT4 and XT5 partitions described in §V.A of the paper;
- :mod:`repro.machine.machine` — the :class:`Machine` facade that
  assembles all of the above on one simulation engine.
"""

from repro.machine.filesystem import FileSystemConfig, ParallelFileSystem
from repro.machine.machine import Machine
from repro.machine.network import Network, NetworkConfig
from repro.machine.node import MemoryError_, Node, NodeConfig, NodeFailure
from repro.machine.presets import JAGUAR_XT4, JAGUAR_XT5, MachineSpec, TESTING_TINY
from repro.machine.topology import LatencyClass, RegionalTopology, TorusTopology

__all__ = [
    "FileSystemConfig",
    "JAGUAR_XT4",
    "LatencyClass",
    "JAGUAR_XT5",
    "Machine",
    "MachineSpec",
    "MemoryError_",
    "Network",
    "NetworkConfig",
    "Node",
    "NodeConfig",
    "NodeFailure",
    "ParallelFileSystem",
    "RegionalTopology",
    "TESTING_TINY",
    "TorusTopology",
]
