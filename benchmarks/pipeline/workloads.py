"""The five benchmark workloads, driven through the stack's public calls.

Each workload is a class with the same five steps:

- ``prepare(seed, quick)`` builds the inputs (outside the timed region);
- ``run()`` makes one repetition through the public entry points and
  returns the raw outputs — this, and only this, is timed and traced;
- ``functional(out)`` checks outputs against an independent numpy
  computation and returns ``[(check name, ok), ...]``;
- ``simulated(out)`` flattens the deterministic simulated results
  (seconds, bytes, latencies, digests) that ``expected.json`` pins;
- ``counters(out)`` reads per-layer counts off public surfaces.

``work`` is the fixed work of one repetition — a constant of the
inputs, never an internal event count, so an optimisation that
schedules fewer events cannot look slower.

Sizes: ``FULL`` is what the driver measures (one repetition is
1-2.2 s on the 2-core sandbox); ``QUICK`` is the smoke-test profile.
"""

from __future__ import annotations

import numpy as np

from repro.apps.gtc import gtc_particles
from repro.apps.pixie3d import PIXIE3D_VARS
from repro.check.workloads import field_step, particle_step, run_workload
from repro.experiments.runner import run_gtc, run_pixie3d
from repro.machine.network import live_networks, registry_mark
from repro.serve.bench import bench_query
from repro.stream.scenario import run_stream

__all__ = ["WORKLOADS"]


class _NetMeter:
    """Simulated seconds and interconnect bytes of the runs a workload makes.

    Read right after each public call returns, while the simulation it
    built is still referenced by the registry's weak references.
    """

    def __init__(self):
        self.sim_s = 0.0
        self.net_bytes = 0.0
        self._mark = registry_mark()

    def lap(self):
        nets = live_networks(self._mark)
        self.sim_s += max((n.env.now for n in nets), default=0.0)
        self.net_bytes += sum(n.total_bytes() for n in nets)
        self._mark = registry_mark()


def _report_fields(prefix, report):
    keys = ("fetch", "map", "shuffle", "reduce", "finalize", "latency",
            "bytes_fetched", "bytes_shuffled", "peak_buffer_bytes")
    return {f"{prefix}.{k}": getattr(report, k) for k in keys}


def _metrics_fields(prefix, m):
    keys = ("compute", "comm", "io_blocking", "operations", "total")
    return {f"{prefix}.{k}": getattr(m, k) for k in keys}


def _hist_ok(res, cols, bins):
    """Histogram result equals numpy's on the same global min-max edges."""
    edges = res["edges"]
    if len(cols) == 1:
        edges = [edges]
    for e, col, nb in zip(edges, cols, bins):
        if len(e) != nb + 1 or e[0] != col.min() or e[-1] != col.max():
            return False
    if len(cols) == 1:
        ref, _ = np.histogram(cols[0], bins=edges[0])
    else:
        ref, _, _ = np.histogram2d(cols[0], cols[1], bins=edges)
    return np.array_equal(res["counts"], ref.astype(np.int64))


def _owner(per_rank):
    """The single non-None per-rank result of a reducing operator."""
    owners = [v for v in per_rank.values() if v is not None]
    return owners[0] if len(owners) == 1 else None


def _sorted_permutation(per_rank, data, key_column):
    """Rank-ordered buckets are globally sorted and hold exactly *data*."""
    out = np.concatenate([np.atleast_2d(per_rank[r]) for r in sorted(per_rank)])
    if out.shape != data.shape:
        return False
    if not np.array_equal(out[:, key_column], np.sort(data[:, key_column])):
        return False
    # same rows, not just same keys: one scalar per row, same arithmetic
    w = np.arange(1.0, data.shape[1] + 1.0)
    return np.array_equal(np.sort(out @ w), np.sort(data @ w))


class GtcOps:
    """Fig. 7/8: GTC with sort and 2-D histogram under both placements."""

    name = "gtc_ops"
    work_unit = "rank-steps"
    seeded = False  # particle data comes from the fixed seeds in repro.apps
    CORES = 16384
    FULL = dict(ndumps=1)
    QUICK = dict(ndumps=1, iterations_per_dump=1, rep_ranks=16)
    COMBOS = [(op, pl) for op in ("sort", "histogram2d")
              for pl in ("staging", "incompute")]

    def prepare(self, seed, quick):
        self.kwargs = self.QUICK if quick else self.FULL
        self.ranks = self.kwargs.get("rep_ranks", 64)  # run_gtc's defaults
        iters = self.kwargs.get("iterations_per_dump", 4) * self.kwargs["ndumps"]
        self.work = len(self.COMBOS) * self.ranks * iters

    def run(self):
        meter = _NetMeter()
        runs = {}
        for op, pl in self.COMBOS:
            runs[(op, pl)] = run_gtc(self.CORES, pl, op, **self.kwargs)
            meter.lap()
        return {"runs": runs, "meter": meter}

    def _species(self, seed):
        rows = 128 // 2  # run_gtc's default functional_rows, per species
        return np.concatenate([
            gtc_particles(r, self.ranks, rows, step=0, seed=seed)
            for r in range(self.ranks)
        ])

    def functional(self, out):
        checks = []
        data = {"electrons": self._species(42), "ions": self._species(43)}
        sort = out["runs"][("sort", "staging")].predata.service.results
        hist = out["runs"][("histogram2d", "staging")].predata.service.results
        for var, rows in data.items():
            checks.append((f"sort:{var}",
                           _sorted_permutation(sort[f"sort:{var}"][0], rows, 7)))
            res = _owner(hist[f"histogram2d:{var}"][0])
            checks.append((
                f"histogram2d:{var}",
                res is not None
                and _hist_ok(res, (rows[:, 0], rows[:, 3]), (256, 256)),
            ))
        return checks

    def simulated(self, out):
        sim = {"sim_s": out["meter"].sim_s, "net_bytes": out["meter"].net_bytes}
        for (op, pl), r in out["runs"].items():
            tag = f"{op}.{pl}"
            sim.update(_metrics_fields(tag, r.metrics))
            sim[f"{tag}.visible_write_s"] = r.visible_write_seconds
            for rep in r.staging_reports:
                sim.update(_report_fields(f"{tag}.step{rep.step}", rep))
            for name, t in r.in_compute_timings.items():
                sim[f"{tag}.{name}.compute"] = t.compute
                sim[f"{tag}.{name}.communicate"] = t.communicate
                sim[f"{tag}.{name}.io"] = t.io
        return sim

    def counters(self, out):
        return {"core.scheduler.deferred_fetches": sum(
            r.predata.scheduler.deferred_fetches
            for r in out["runs"].values() if r.predata is not None
        )}


class PixieMerge:
    """Fig. 10 + Fig. 11's functional half: merged vs unmerged BP output."""

    name = "pixie_merge"
    work_unit = "rank-steps"
    seeded = False
    FULL = dict(scales=(256, 1024, 4096),
                kwargs=dict(collect_files=True, iterations_per_dump=8))
    QUICK = dict(scales=(256, 4096),
                 kwargs=dict(collect_files=True, iterations_per_dump=2,
                             rep_ranks=32))

    def prepare(self, seed, quick):
        p = self.QUICK if quick else self.FULL
        self.scales, self.kwargs = p["scales"], p["kwargs"]
        ranks = self.kwargs.get("rep_ranks", 64)
        self.work = (2 * len(self.scales) * ranks
                     * self.kwargs["iterations_per_dump"])

    def run(self):
        meter = _NetMeter()
        runs, arrays = {}, {}
        for c in self.scales:
            for pl in ("staging", "incompute"):
                runs[(c, pl)] = run_pixie3d(c, pl, **self.kwargs)
                meter.lap()
            merged = runs[(c, "staging")].merged_file
            unmerged = runs[(c, "incompute")].unmerged_file
            arrays[c] = [
                (merged.read_global_array(v, 0), unmerged.read_global_array(v, 0))
                for v in PIXIE3D_VARS
            ]
        return {"runs": runs, "arrays": arrays, "meter": meter}

    def functional(self, out):
        return [
            (f"merged==unmerged:{c}",
             len(pairs) == 8
             and all(a.size > 0 and np.array_equal(a, b) for a, b in pairs))
            for c, pairs in out["arrays"].items()
        ]

    def simulated(self, out):
        sim = {"sim_s": out["meter"].sim_s, "net_bytes": out["meter"].net_bytes}
        for (c, pl), r in out["runs"].items():
            tag = f"c{c}.{pl}"
            sim.update(_metrics_fields(tag, r.metrics))
            for rep in r.staging_reports:
                sim.update(_report_fields(f"{tag}.step{rep.step}", rep))
            f = r.merged_file if pl == "staging" else r.unmerged_file
            sim[f"{tag}.file_bytes"] = f.nbytes
        return sim

    def counters(self, out):
        return {}


class StagingDataplane:
    """The Fig. 7 operators, kernels and FFS packer on real data volumes."""

    name = "staging_dataplane"
    work_unit = "rows"
    seeded = True
    FULL = dict(rows=80_000, nsteps=2, local_n=40)
    QUICK = dict(rows=10_000, nsteps=1, local_n=16)
    NPROCS = 8
    PARTICLE_KINDS = ("sort", "histogram", "histogram2d", "bitmap", "minmax")

    def prepare(self, seed, quick):
        p = self.QUICK if quick else self.FULL
        self.nsteps = p["nsteps"]
        n = self.NPROCS
        self.particles = {
            (r, s): particle_step(r, n, p["rows"], step=s, scale=10.0, seed=seed)
            for r in range(n) for s in range(self.nsteps)
        }
        self.fields = {
            (r, s): field_step(r, n, p["local_n"], step=s, scale=10.0, seed=seed)
            for r in range(n) for s in range(self.nsteps)
        }
        self.work = len(self.PARTICLE_KINDS) * self.nsteps * n * p["rows"]

    def _global(self, steps, var, s):
        return np.concatenate(
            [steps[(r, s)].values[var] for r in range(self.NPROCS)]
        )

    def run(self):
        meter = _NetMeter()
        runs = {}
        for kind in self.PARTICLE_KINDS + ("array_merge",):
            steps = self.fields if kind == "array_merge" else self.particles
            run = run_workload(
                kind, nprocs=self.NPROCS, nsteps=self.nsteps, nstaging_nodes=2,
                make_step=lambda rank, s, steps=steps: steps[(rank, s)],
            )
            meter.lap()
            # Keep the outputs, not the pipeline: six resident pipelines
            # would hide the program's own peak memory behind the harness's.
            runs[kind] = {
                "results": run.results(),
                "end_s": run.engine.now,
                "visible_s": max(run.visible.values()),
                "reports": [run.predata.service.step_report(s)
                            for s in range(self.nsteps)],
                "deferred_fetches": run.predata.scheduler.deferred_fetches,
            }
        return {"runs": runs, "meter": meter}

    def functional(self, out):
        checks = []
        runs = out["runs"]
        for s in range(self.nsteps):
            data = self._global(self.particles, "electrons", s)
            checks.append((f"sort.step{s}",
                           _sorted_permutation(runs["sort"]["results"][s], data, 0)))
            res = _owner(runs["histogram"]["results"][s])
            checks.append((f"histogram.step{s}",
                           res is not None and _hist_ok(res, (data[:, 1],), (16,))))
            res = _owner(runs["histogram2d"]["results"][s])
            checks.append((
                f"histogram2d.step{s}",
                res is not None
                and _hist_ok(res, (data[:, 1], data[:, 2]), (8, 8)),
            ))
            per = runs["bitmap"]["results"][s]
            indexed = np.concatenate(
                [np.asarray(per[r].values) for r in sorted(per)]
            )
            checks.append((f"bitmap.step{s}",
                           np.array_equal(np.sort(indexed), np.sort(data[:, 2]))))
            checks.append((f"minmax.step{s}", all(
                res is not None and res.count == data.shape[0]
                and np.array_equal(res.mins, data.min(axis=0))
                and np.array_equal(res.maxs, data.max(axis=0))
                for res in runs["minmax"]["results"][s].values()
            )))
            field = self._global(self.fields, "rho", s)
            rebuilt = np.full(field.shape, np.nan)
            for merged in runs["array_merge"]["results"][s].values():
                if "rho" in merged:
                    lo, slab = merged["rho"]
                    rebuilt[lo:lo + slab.shape[0]] = slab
            checks.append((f"array_merge.step{s}", np.array_equal(rebuilt, field)))
        return checks

    def simulated(self, out):
        sim = {"sim_s": out["meter"].sim_s, "net_bytes": out["meter"].net_bytes}
        for kind, run in out["runs"].items():
            sim[f"{kind}.end_s"] = run["end_s"]
            sim[f"{kind}.visible_s"] = run["visible_s"]
            for s, report in enumerate(run["reports"]):
                sim.update(_report_fields(f"{kind}.step{s}", report))
        return sim

    def counters(self, out):
        return {"core.scheduler.deferred_fetches": sum(
            run["deferred_fetches"] for run in out["runs"].values()
        )}


class StreamCoupled:
    """Coupled producer/consumer streaming over DataSpaces."""

    name = "stream_coupled"
    work_unit = "steps"
    seeded = True
    FULL = dict(nsteps=28, grid=96, producers=8)
    QUICK = dict(nsteps=8, grid=48, producers=4)

    def prepare(self, seed, quick):
        self.seed = seed
        self.kwargs = self.QUICK if quick else self.FULL
        self.work = self.kwargs["nsteps"]

    def run(self):
        meter = _NetMeter()
        run = run_stream(seed=self.seed, **self.kwargs)
        meter.lap()
        return {"run": run, "meter": meter}

    def functional(self, out):
        run = out["run"]
        return [("violations==[]", run.violations == []),
                ("published==nsteps", run.published == self.kwargs["nsteps"])]

    def simulated(self, out):
        run = out["run"]
        sim = {"sim_s": run.wall_seconds, "net_bytes": out["meter"].net_bytes,
               "digest": run.digest(),
               "first_notify_latency": run.first_notify_latency}
        for name, g in run.groups.items():
            for k in ("sent", "delivered", "deduped", "consumed", "max_lag",
                      "bytes_fetched", "notify_p50", "notify_p99"):
                sim[f"{name}.{k}"] = getattr(g, k)
        return sim

    def counters(self, out):
        groups = out["run"].groups.values()
        sent = sum(g.sent for g in groups)
        return {"stream.redelivered_frac":
                sum(g.deduped for g in groups) / sent if sent else 0.0}


class ServeSweep:
    """Offered-load sweep of the query-serving layer."""

    name = "serve_sweep"
    work_unit = "queries"
    seeded = True
    FULL = dict(loads=(50, 400, 3200), duration=12.0)
    QUICK = dict(loads=(50, 400, 3200), duration=1.5)

    def prepare(self, seed, quick):
        self.seed = seed
        self.kwargs = self.QUICK if quick else self.FULL
        # Seeded Poisson arrivals in simulated time: the expected count
        # is the constant of the inputs (the drawn count varies by seed).
        self.work = int(sum(self.kwargs["loads"]) * self.kwargs["duration"])

    def run(self):
        return {"record": bench_query(seed=self.seed, **self.kwargs)}

    def functional(self, out):
        return [
            (f"issued==completed+shed:load{int(p['offered_qps'])}",
             p["issued"] > 0 and p["issued"] == p["completed"] + p["shed"])
            for p in out["record"]["points"]
        ]

    def simulated(self, out):
        rec = out["record"]
        sim = {"sim_s": sum(p["duration"] for p in rec["points"]),
               "net_bytes": 0.0}
        sim.update({f"guard.{k}": v for k, v in rec["guards"].items()})
        for p in rec["points"]:
            tag = f"load{int(p['offered_qps'])}"
            for k in ("issued", "completed", "shed", "degraded", "p50", "p99",
                      "mean", "cache_hits", "cache_misses"):
                sim[f"{tag}.{k}"] = p[k]
        return sim

    def counters(self, out):
        pts = out["record"]["points"]
        issued = sum(p["issued"] for p in pts)
        looked = sum(p["cache_hits"] + p["cache_misses"] for p in pts)
        return {
            "serve.cache_hit_frac":
                sum(p["cache_hits"] for p in pts) / looked if looked else 0.0,
            "serve.shed_frac":
                sum(p["shed"] for p in pts) / issued if issued else 0.0,
        }


WORKLOADS = {w.name: w for w in
             (GtcOps, PixieMerge, StagingDataplane, StreamCoupled, ServeSweep)}
