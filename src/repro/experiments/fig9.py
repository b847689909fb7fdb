"""Fig. 9 — DataSpaces setup, hashing and query time.

Reproduces §V.B.4: GTC particles are sorted, then indexed by
DataSpaces on their ``(local id, rank)`` attributes into a 2-D domain
distributed over the staging servers.  A querying application on
additional compute cores partitions the domain and issues 11
consecutive queries to disjoint ~200 MB sub-regions.  The first query
carries one-time setup (hashing, discovery, routing); subsequent
queries are much faster.  Query time grows with the number of querying
cores because the (weak-scaled) domain grows and maps onto more
staging cores.

Paper reference points: data fetch 20.3 s, sorting 30.6 s, indexing
2.08 s (all well inside the 120 s I/O interval); all queries answered
in <80 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataspaces import DataSpaces, DSQueryStats, Region
from repro.experiments.cli import flagless_cli
from repro.experiments.report import fmt_seconds, format_table
from repro.machine.machine import Machine
from repro.machine.presets import JAGUAR_XT5
from repro.sim.engine import Engine

__all__ = ["Fig9Row", "run_fig9", "table", "main", "cli"]

#: logical rows per querying core (~200 MB = 100k x 256 x 8 B)
ROWS_PER_CORE_LOGICAL = 100_000
FUNCTIONAL_ROWS_PER_CORE = 64
N_QUERIES = 11
#: per-cell cost of inserting the sorted domain into the index
INDEX_SECONDS_PER_CELL = 1.2e-8


@dataclass
class Fig9Row:
    """Per querying-core-count averages (the Fig. 9 series)."""

    n_query_cores: int
    n_servers: int
    setup_seconds: float  # first-query one-time cost (avg/core)
    hashing_seconds: float  # index hashing (avg/core, first query)
    query_seconds: float  # steady-state query (avg over 10 later)
    index_seconds: float  # time to insert the domain into DataSpaces
    all_queries_seconds: float  # wall time until every core finished


def run_fig9(n_query_cores_list: list[int] | None = None) -> list[Fig9Row]:
    """Run the DataSpaces experiment for each querying-core count."""
    return [_one_scale(q) for q in n_query_cores_list or [32, 64, 128, 256]]


def _one_scale(q: int) -> Fig9Row:
    nservers = max(4, q // 8)
    eng = Engine()
    machine = Machine(
        eng,
        n_compute_nodes=q,
        n_staging_nodes=max(1, nservers // 2),
        spec=JAGUAR_XT5,
        fs_interference=False,
    )
    server_nodes = [
        list(machine.staging_node_ids)[i % machine.n_staging_nodes]
        for i in range(nservers)
    ]
    wire_scale = ROWS_PER_CORE_LOGICAL / FUNCTIONAL_ROWS_PER_CORE
    ds = DataSpaces(
        eng,
        machine,
        server_nodes,
        wire_scale=wire_scale,
        hash_seconds_per_block=0.01,
        serve_bandwidth=0.25e9,
        setup_server_seconds=0.02,
        reply_overhead_seconds=0.02,
    )
    rows_func = q * FUNCTIONAL_ROWS_PER_CORE
    ds.declare("particles", (rows_func, 256))
    rng = np.random.default_rng(3)
    domain = rng.random((rows_func, 256))

    # ---- indexing: each server inserts its slice of the sorted data
    index_done = {}

    def indexer(server: int):
        lo = server * rows_func // nservers
        hi = (server + 1) * rows_func // nservers
        if hi <= lo:
            return
        region = Region((lo, 0), (hi, 256))
        yield from ds.put(
            server_nodes[server], "particles", region,
            domain[lo:hi],
        )
        # per-entry index insertion cost at logical scale
        cells_logical = (hi - lo) * 256 * wire_scale
        yield eng.timeout(cells_logical * INDEX_SECONDS_PER_CELL / nservers)
        index_done[server] = eng.now

    t_index_start = eng.now
    for s in range(nservers):
        eng.process(indexer(s), name=f"index[{s}]")
    eng.run()
    index_seconds = max(index_done.values()) - t_index_start

    # ---- querying application
    stats_first: list[DSQueryStats] = []
    stats_later: list[DSQueryStats] = []
    finished = {}

    def query_core(core: int):
        lo = core * rows_func // q
        hi = (core + 1) * rows_func // q
        span = max((hi - lo) // N_QUERIES, 1)
        for k in range(N_QUERIES):
            qlo = lo + k * span
            qhi = min(lo + (k + 1) * span, hi)
            if qhi <= qlo:
                break
            stats = DSQueryStats()
            yield from ds.get(
                core, "particles", Region((qlo, 0), (qhi, 256)), stats=stats
            )
            (stats_first if k == 0 else stats_later).append(stats)
        finished[core] = eng.now

    t_q_start = eng.now
    for c in range(q):
        eng.process(query_core(c), name=f"query[{c}]")
    eng.run()

    return Fig9Row(
        n_query_cores=q,
        n_servers=nservers,
        setup_seconds=float(
            np.mean([s.setup_seconds for s in stats_first])
        ),
        hashing_seconds=float(
            np.mean([s.hashing_seconds for s in stats_first])
        ),
        query_seconds=float(
            np.mean([s.query_seconds for s in stats_later])
        ),
        index_seconds=index_seconds,
        all_queries_seconds=max(finished.values()) - t_q_start,
    )


def table(rows: list[Fig9Row]) -> str:
    """The Fig. 9 table."""
    return format_table(
        ["query cores", "servers", "setup", "hashing", "query",
         "indexing", "all queries done"],
        [
            [
                r.n_query_cores,
                r.n_servers,
                fmt_seconds(r.setup_seconds),
                fmt_seconds(r.hashing_seconds),
                fmt_seconds(r.query_seconds),
                fmt_seconds(r.index_seconds),
                fmt_seconds(r.all_queries_seconds),
            ]
            for r in rows
        ],
        title="Fig. 9 — DataSpaces setup, hashing and query time",
    )


def main(n_query_cores_list: list[int] | None = None) -> str:
    """Print the Fig. 9 table; returns the formatted text."""
    text = table(run_fig9(n_query_cores_list))
    print(text)
    return text


cli = flagless_cli("fig9", "Fig. 9 — DataSpaces query service", main)

if __name__ == "__main__":
    cli()
