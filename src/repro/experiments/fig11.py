"""Fig. 11 — read time of one global array: merged vs unmerged BP files.

The paper reads one global array of one time step out of two ~80 GB
BP files produced by 4096-compute-core Pixie3D runs: one written
directly from compute nodes ('unmerged' — the array scattered over
4096 small chunks) and one written from the Staging Area after the
array-merge operator ('merged' — a handful of large contiguous
chunks).  Reorganisation yields ~10x faster reads.

This experiment has two halves:

1. *functional*: a representative-scale run through both transports,
   verifying that both files reassemble to the identical global array
   and counting their extents;
2. *timing*: the file-system model prices reading one array at the
   full 4096-writer geometry (extent counts taken from the logical
   layout) for each of the eight Pixie3D variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.pixie3d import PIXIE3D_VARS
from repro.experiments.cli import flagless_cli
from repro.experiments.report import fmt_seconds, format_table
from repro.experiments.runner import run_pixie3d
from repro.machine.filesystem import ParallelFileSystem
from repro.machine.presets import JAGUAR_XT4
from repro.sim.engine import Engine

__all__ = ["Fig11Row", "run_fig11", "main", "cli"]


@dataclass
class Fig11Row:
    var: str
    array_bytes: float
    extents_unmerged: int
    extents_merged: int
    read_unmerged: float
    read_merged: float

    @property
    def speedup(self) -> float:
        return self.read_unmerged / self.read_merged


@dataclass
class Fig11Result:
    rows: list[Fig11Row]
    functional_identical: bool
    rep_extents_unmerged: int
    rep_extents_merged: int


#: file geometry of the paper's 4096-core runs: one writer per core
#: unmerged; 128:1 staging ratio, 2 procs/staging node -> 32 writers merged
WRITERS_LOGICAL = 4096
STAGING_PROCS_LOGICAL = 32
#: production local block edge (32^3 cells per process and variable)
LOCAL_SIZE = 32


def _model_read(extents: int, nbytes: float, stripes: int = None) -> float:
    """Price one client's array read against a fresh XT4 file-system model.

    A merged file's few large contiguous chunks stream from many OSTs
    concurrently (wide effective striping); an unmerged file's
    thousands of small chunks each pay a seek/dispatch and read at
    default striping.
    """
    eng = Engine()
    fs = ParallelFileSystem(eng, JAGUAR_XT4.filesystem, interference=False)

    def reader():
        t = yield from fs.read(nbytes, extents=extents, stripes=stripes)
        return t

    p = eng.process(reader())
    eng.run()
    return p.value


def run_fig11(*, rep_cores: int = 512, functional: bool = True) -> Fig11Result:
    """Build the Fig. 11 comparison.

    ``functional`` runs the representative-scale half on ``rep_cores``
    cores; the timing half is always priced at the paper's geometry.
    """
    # ---- functional half: representative run through both transports
    identical = True
    rep_unmerged = rep_merged = 0
    if functional:
        ic = run_pixie3d(
            rep_cores, "incompute", collect_files=True,
            iterations_per_dump=2, collective_rounds=2,
            fs_interference=False,
        )
        st = run_pixie3d(
            rep_cores, "staging", collect_files=True,
            iterations_per_dump=2, collective_rounds=2,
            fs_interference=False,
        )
        unmerged, merged = ic.unmerged_file, st.merged_file
        rep_unmerged = unmerged.extents_for("rho", 0)
        rep_merged = merged.extents_for("rho", 0)
        for var in PIXIE3D_VARS:
            a = unmerged.read_global_array(var, 0)
            b = merged.read_global_array(var, 0)
            if not np.array_equal(a, b):
                identical = False

    # ---- timing half at the paper's logical geometry
    array_bytes = WRITERS_LOGICAL * LOCAL_SIZE**3 * 8
    rows = []
    fs_cfg = JAGUAR_XT4.filesystem
    for var in PIXIE3D_VARS:
        t_un = _model_read(
            WRITERS_LOGICAL, array_bytes, stripes=fs_cfg.stripe_count
        )
        t_me = _model_read(
            STAGING_PROCS_LOGICAL, array_bytes,
            stripes=min(fs_cfg.n_osts, STAGING_PROCS_LOGICAL * 4),
        )
        rows.append(
            Fig11Row(
                var=var,
                array_bytes=array_bytes,
                extents_unmerged=WRITERS_LOGICAL,
                extents_merged=STAGING_PROCS_LOGICAL,
                read_unmerged=t_un,
                read_merged=t_me,
            )
        )
    return Fig11Result(rows, identical, rep_unmerged, rep_merged)


def main(**kw) -> str:
    """Print the Fig. 11 table; returns the formatted text."""
    res = run_fig11(**kw)
    text = format_table(
        ["var", "bytes", "extents unmerged", "extents merged",
         "read unmerged", "read merged", "speedup"],
        [
            [
                r.var,
                f"{r.array_bytes / 1e9:.2f} GB",
                r.extents_unmerged,
                r.extents_merged,
                fmt_seconds(r.read_unmerged),
                fmt_seconds(r.read_merged),
                f"{r.speedup:.1f}x",
            ]
            for r in res.rows
        ],
        title=(
            "Fig. 11 — read one global array / one step, merged vs "
            f"unmerged (functional files identical: {res.functional_identical})"
        ),
    )
    print(text)
    return text


cli = flagless_cli("fig11", "Fig. 11 — merged vs unmerged reads", main)

if __name__ == "__main__":
    cli()
