"""Benchmark harness (driver-run, one JSON line on stdout).

Headline: the flagship tiling pipeline (webpages -> geoparse -> assign
-> aggregate -> MVT-encode -> consume) over $GRAFT_SF_DIR (default
/root/testdata/sf0.1), plus representative operator pipelines.

  python bench.py             # one run at RAY_GRAFT_CPUS (default 32)
  python bench.py --scaling   # fresh processes at 8 and 32 cpus ->
                              # throughput at both + scaling efficiency

The synthetic webpages input is materialized (cached) before timing;
an untimed read warms the page cache so timings measure compute +
shuffle, not first-touch disk I/O.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _tables_big(rep: int = 16) -> str:
    """Replicated big-table tier for the per-query scaling legs
    (sfbig12 is webpages-only): sf0.1's lineitem / orders / documents
    are replicated ``rep``x with per-replica KEY OFFSETS (orderkey,
    doc_id), so join and group cardinalities scale with the data
    instead of degenerating into hot keys; dimension tables
    (customer/part/supplier/nation/region/embeddings) copy through
    unchanged — dims stay dims at any fact scale. Deterministic,
    cached under /tmp/raytiles_synth, one parquet part per replica
    (the resumable-layout shape)."""
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    root = f"/tmp/raytiles_synth/tablesbig{rep}"
    done = os.path.join(root, "_DONE")
    if os.path.exists(done):
        return root
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    src = "/root/testdata/sf0.1"
    for name in ("customer", "part", "supplier", "nation", "region",
                 "embeddings", "events"):
        shutil.copy(f"{src}/{name}.parquet", f"{root}/{name}.parquet")
    li = pq.read_table(f"{src}/lineitem.parquet")
    od = pq.read_table(f"{src}/orders.parquet")
    dc = pq.read_table(f"{src}/documents.parquet")
    ko = int(pc.max(od["o_orderkey"]).as_py()) + 1
    kd = int(pc.max(dc["doc_id"]).as_py()) + 1
    for tname, tbl, keys, k in (("lineitem", li, ("l_orderkey",), ko),
                                ("orders", od, ("o_orderkey",), ko),
                                ("documents", dc, ("doc_id",), kd)):
        os.makedirs(f"{root}/{tname}.parquet", exist_ok=True)
        for r in range(rep):
            t = tbl
            for kc in keys:
                idx = t.schema.get_field_index(kc)
                t = t.set_column(idx, kc, pc.add(t[kc], r * k))
            pq.write_table(t, f"{root}/{tname}.parquet/part-{r:04d}.parquet")
    open(done, "w").write("ok")
    return root


# per-query scaling candidates: one bucketed-join shape and one dedup
# shape, so the partitioning story generalizes beyond the tile pipeline
def _query_fn(name: str):
    if name == "big_orders":
        from raytiles.ops.warehouse import big_orders
        return lambda sf: big_orders(sf).count()
    if name == "minhash_bands":
        from raytiles.ops.dedup import minhash_bands
        return lambda sf: minhash_bands(sf).count()
    raise KeyError(name)


def run_query_bench(names: list[str]) -> dict:
    """GRAFT_QUERY_BENCH leg body: run the named queries over SF_DIR
    (min-of-N each), one JSON line — the per-query counterpart of the
    flagship leg for bench.py --scaling-queries."""
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # NOTE: op_resource_reservation stays ON here (unlike the flagship
    # leg): with it off, Dataset.join's HashShuffleAggregator actors
    # starve behind the map tasks and big_orders DEADLOCKS at 16 cpus
    # (observed: all workers idle at 0% CPU indefinitely). The
    # reservation system is exactly what guarantees the join actors
    # their slots.
    n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "2"))
    queries: dict[str, float] = {}
    for name in names:
        fn = _query_fn(name)
        fn(SF_DIR)  # untimed warm-up (worker spawn + imports)
        best = float("inf")
        for _ in range(n_runs):
            t0 = time.time()
            fn(SF_DIR)
            best = min(best, time.time() - t0)
        queries[name] = round(best, 3)
    ray.shutdown()
    return {"metric": "query_bench", "value": round(sum(queries.values()), 3),
            "unit": "sec", "queries": queries, "sf": SF_DIR,
            "num_cpus": NUM_CPUS}


def run_benchmarks() -> dict:
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # measured r2: the streaming executor's per-operator resource
    # reservation starves the fused map chain at low CPU counts
    # (sfbig@8cpu 18.9s -> 10.8s, @32cpu 5.7s -> 4.9s with it off)
    ctx.op_resource_reservation_enabled = False

    from raytiles.pipeline.synth import webpages_path
    from raytiles.pipeline import flagship

    wp = webpages_path(SF_DIR)  # materialize outside timing
    # warm page cache (untimed)
    import pyarrow.parquet as pq
    n_docs = pq.read_table(wp, columns=["url"]).num_rows

    queries: dict[str, float] = {}
    extras: dict[str, float] = {}
    _b0, _s0 = _cpu_stat()  # ambient-noise provenance for this run

    # --- headline: flagship end-to-end ---
    # one untimed warm-up run first: Ray spawns worker processes
    # lazily, so a cold first run measures process spawn + import, not
    # the pipeline. Steady-state is what a long-running 100 TB job
    # sees; the warm-up cost is reported separately as cold_start_sec.
    import shutil
    out_dir = f"/tmp/raytiles_bench/tiles_z12_{NUM_CPUS}"
    t0 = time.time()
    shutil.rmtree(out_dir, ignore_errors=True)
    flagship.tiles_pipeline(wp, 12).write_parquet(out_dir)
    extras["cold_start_sec"] = round(time.time() - t0, 3)

    # N timed steady-state runs; report the min (this host carries
    # bursty background load from other tenants — min is the least
    # biased estimator of the pipeline's own cost). Scaling legs bump
    # this to 3 so a single in-leg noise burst can't skew a leg.
    runs = []
    for _ in range(int(os.environ.get("GRAFT_BENCH_RUNS", "3"))):
        t0 = time.time()
        tiles = flagship.tiles_pipeline(wp, 12)
        shutil.rmtree(out_dir, ignore_errors=True)
        tiles.write_parquet(out_dir)
        runs.append(time.time() - t0)
    t_e2e = min(runs)
    queries["tiles_e2e"] = round(t_e2e, 3)
    extras["tiles_e2e_runs"] = [round(r, 3) for r in runs]

    n_tiles = sum(
        pq.read_metadata(os.path.join(out_dir, f)).num_rows
        for f in os.listdir(out_dir) if f.endswith(".parquet"))
    extras["docs_per_sec"] = round(n_docs / t_e2e, 1)
    extras["tiles_per_sec"] = round(n_tiles / t_e2e, 1)
    extras["n_docs"] = n_docs
    extras["n_tiles"] = n_tiles

    headline_only = os.environ.get("GRAFT_HEADLINE_ONLY") == "1"

    # --- decode: read the tiles we just wrote and decode every MVT ---
    from raytiles.codec.decode import decode_tile_safe
    import pyarrow as pa

    def decode_batch(b: pa.Table) -> pa.Table:
        n_feat = []
        for mvt in b["mvt"]:
            t, err = decode_tile_safe(mvt.as_py())
            n_feat.append(-1 if t is None else
                          sum(len(l.points) + len(l.linestrings) + len(l.polygons)
                              for l in t.layers.values()))
        return pa.table({"n": pa.array(n_feat, pa.int64())})

    # every per-query number is min-of-N for the same reason as the
    # headline: the recorded figure should be the pipeline's own cost,
    # not whichever co-tenant burst happened to overlap one run
    n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "3"))

    def timed_min(fn) -> float:
        best = float("inf")
        for _ in range(n_runs):
            t0 = time.time()
            fn()
            best = min(best, time.time() - t0)
        return round(best, 3)

    if not headline_only:
        def run_decode():
            total = ray.data.read_parquet(out_dir, columns=["mvt"]) \
                .map_batches(decode_batch, batch_format="pyarrow",
                             batch_size=256).sum("n")
            assert total >= 0
        queries["mvt_decode"] = timed_min(run_decode)

    # --- representative operator pipelines (only when the testdata
    # tables exist for this tier — the synthetic scaling tier has none)
    if not headline_only and os.path.exists(os.path.join(SF_DIR, "lineitem.parquet")):
        from raytiles.ops.relational import pricing_summary
        queries["pricing_summary"] = timed_min(
            lambda: pricing_summary(SF_DIR).to_pandas())

        from raytiles.ops.dedup import minhash_bands
        queries["minhash_bands"] = timed_min(
            lambda: minhash_bands(SF_DIR).count())

        from raytiles.ops.similarity import knn_bruteforce
        queries["knn"] = timed_min(
            lambda: knn_bruteforce(SF_DIR).to_pandas())

        from raytiles.ops.raster import iso_segments, point_clusters
        from raytiles.pipeline.synth import webpages_path
        wp = webpages_path(SF_DIR)
        queries["point_clusters"] = timed_min(
            lambda: point_clusters(wp, 12).count())
        queries["iso_segments"] = timed_min(
            lambda: iso_segments(wp, 8).count())

        from raytiles.ops.warehouse import big_orders
        queries["big_orders"] = timed_min(
            lambda: big_orders(SF_DIR).count())

        from raytiles.ops.text import bm25_search
        queries["bm25_search"] = timed_min(
            lambda: bm25_search(SF_DIR).to_pandas())

        from raytiles.pipeline.citytiles import city_tiles_pipeline
        queries["city_tileset"] = timed_min(
            lambda: city_tiles_pipeline(wp, 6).count())

        from raytiles.pipeline.polytiles import polygon_tiles_pipeline
        queries["polygon_tiles"] = timed_min(
            lambda: polygon_tiles_pipeline(wp, 6).count())

    # --- codec microbenchmarks: direct parity with the reference's
    # criterion numbers (BASELINE.md: decode roads 9.98ms, encode
    # roads 13.47ms, layer names 6.46ms, tiny fixtures ~2-3us) ---
    from raytiles.codec.decode import decode_tile, layer_names
    from raytiles.codec.encode import encode_tile

    def best_of(fn, reps):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    if not headline_only:
        from raytiles.pipeline.roundtrip import fixture_path
        roads = open(fixture_path("roads.mvt"), "rb").read()
        onepoint = open(fixture_path("onepoint.mvt"), "rb").read()
        roads_tile = decode_tile(roads)
        from raytiles.codec.decode import first_feature
        extras["codec_us"] = {
            "decode_roads": round(best_of(lambda: decode_tile(roads), 10) * 1e6, 1),
            "encode_roads": round(best_of(lambda: encode_tile(roads_tile), 10) * 1e6, 1),
            "layer_names_roads": round(best_of(lambda: layer_names(roads), 50) * 1e6, 1),
            "decode_onepoint": round(best_of(lambda: decode_tile(onepoint), 200) * 1e6, 1),
            "first_polygon_water": round(
                best_of(lambda: first_feature(roads, b"water", 3), 50) * 1e6, 1),
        }

    ray.shutdown()
    # ambient-noise provenance: hypervisor steal across the whole run
    # and current loadavg, so a recorded BENCH json carries its own
    # measurement context (this shared host loses 0-66% of cycles to
    # steal in bursts — BASELINE.md "measurement-noise provenance")
    _b1, _s1 = _cpu_stat()
    _tot = (_b1 - _b0) + (_s1 - _s0)
    extras["ambient_steal_pct"] = round(
        100.0 * (_s1 - _s0) / _tot, 1) if _tot else 0.0
    with open("/proc/loadavg") as fh:
        extras["loadavg_1m"] = float(fh.read().split()[0])
    return {
        "metric": "flagship_tiles_e2e",
        "value": queries["tiles_e2e"],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **extras,
    }


def _effective_parallelism(n: int, seconds: float = 1.5) -> float:
    """Burn-test: how many of n requested cores this host actually
    delivers right now (the sandbox shares cores with other tenants —
    background loadavg of 4-14 with zero own processes is routine).
    Used to report a noise-adjusted efficiency alongside the raw one."""
    import multiprocessing as mp

    t0 = time.time()
    with mp.Pool(n) as pool:
        pool.map(_burn, [seconds] * n)
    wall = time.time() - t0
    return round(n * seconds / wall, 2)


def _burn(seconds: float) -> int:
    t0 = time.time()
    x = 0
    while time.time() - t0 < seconds:
        x += 1
    return x


def _work_chunk(n_iter: int) -> float:
    """Fixed-WORK memory-touching kernel (vs _burn's fixed-TIME spin):
    n_iter xorshift-multiply passes over an 8 MB int64 array, so the
    measured seconds capture per-core SPEED including turbo state and
    shared cache/memory-bandwidth contention at the current
    concurrency — the two things a fixed-time spin cannot see."""
    import numpy as _np
    a = _np.arange(1 << 20, dtype=_np.int64)
    t0 = time.time()
    for _ in range(n_iter):
        a = (a * 7046029254386353131) ^ (a >> 13)
    return time.time() - t0


def _capability(n: int, n_iter: int = 120) -> float:
    """Aggregate work rate (chunks/sec) of n concurrent workers right
    now. The RATIO capability(hi)/capability(lo) is what a perfectly
    scaling engine could achieve on THIS shared socket: 16 workers on
    one socket share LLC/memory bandwidth that 4 workers do not (the
    measured ratio here is routinely 3.2-3.6x, not 4x, at zero steal),
    while real cluster NODES each bring their own. Reported alongside
    the raw ratio, never replacing it."""
    import multiprocessing as mp

    with mp.Pool(n) as pool:
        times = pool.map(_work_chunk, [n_iter] * n)
    return round(sum(n_iter / t for t in times), 2)


def _cpu_stat() -> tuple[float, float]:
    """(busy_jiffies, steal_jiffies) from /proc/stat — the sandbox is
    a shared VM and the hypervisor steals cycles in bursts (measured
    ~25% during spikes), invisible to loadavg and to a pre-run burn
    test. Sampling around each scaling leg quantifies it honestly."""
    with open("/proc/stat") as fh:
        f = fh.readline().split()
    vals = [float(v) for v in f[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = vals
    return user + nice + system + irq + softirq, steal


def _steal_cores(seconds: float = 10.0) -> float:
    """Cores currently being stolen by the hypervisor (pre-leg gate —
    when the box is idle, steal/busy ratios are 0/0, so gate on
    absolute stolen cores instead)."""
    _, s0 = _cpu_stat()
    time.sleep(seconds)
    _, s1 = _cpu_stat()
    return (s1 - s0) / 100.0 / seconds


STEAL_GATE_CORES = float(os.environ.get("GRAFT_STEAL_GATE_CORES", "0.5"))
STEAL_GATE_LEG_PCT = float(os.environ.get("GRAFT_STEAL_GATE_LEG_PCT", "1.5"))


def run_scaling() -> None:
    """Two-cluster-size criterion, STEAL-GATED: this VM loses 0-25%+
    of cycles to hypervisor steal in multi-minute bursts (measured 90%
    once), invisible to loadavg. Each attempt (a) waits for a window
    with < STEAL_GATE_CORES stolen cores, (b) runs the hi then lo leg
    sampling /proc/stat steal around each, and (c) DISCARDS the pair
    if either leg saw > STEAL_GATE_LEG_PCT% steal. Only a steal-clean
    pair is reported as the result; discards are counted and their
    efficiencies listed for transparency."""
    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1")
        env.setdefault("GRAFT_BENCH_RUNS", "3")
        b0, s0 = _cpu_stat()
        t0 = time.time()
        # Sample OUR process tree's cumulative CPU during the leg:
        # hidden co-tenant processes never appear in /proc/<pid> but do
        # appear in /proc/stat busy time, so (busy - ours) attributes
        # the leg's contention honestly. A per-pid running max survives
        # worker exit (ray.shutdown at leg end would otherwise lose
        # every worker's accumulated jiffies).
        seen: dict[str, float] = {}
        stop = threading.Event()

        def sample_ours() -> None:
            while not stop.is_set():
                for pid in os.listdir("/proc"):
                    if not pid.isdigit():
                        continue
                    try:
                        with open(f"/proc/{pid}/stat") as fh:
                            parts = fh.read().rsplit(")", 1)[1].split()
                        seen[pid] = max(seen.get(pid, 0.0),
                                        float(parts[11]) + float(parts[12]))
                    except (OSError, IndexError, ValueError):
                        continue
                stop.wait(0.5)

        base = {}
        for pid in os.listdir("/proc"):
            if pid.isdigit():
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        parts = fh.read().rsplit(")", 1)[1].split()
                    base[pid] = float(parts[11]) + float(parts[12])
                except (OSError, IndexError, ValueError):
                    continue
        th = threading.Thread(target=sample_ours, daemon=True)
        th.start()
        try:
            out = subprocess.run(
                [sys.executable, os.path.join(REPO, "bench.py")],
                env=env, capture_output=True, text=True, check=True).stdout
        finally:
            stop.set()
            th.join()
        wall = time.time() - t0
        b1, s1 = _cpu_stat()
        r = json.loads(out.strip().splitlines()[-1])
        total = (b1 - b0) + (s1 - s0)
        r["steal_pct_during_leg"] = round(100.0 * (s1 - s0) / total, 1) if total else 0.0
        ours = sum(max(0.0, v - base.get(pid, 0.0)) for pid, v in seen.items())
        r["own_busy_cores"] = round(ours / 100.0 / wall, 1)
        r["other_busy_cores"] = round(
            max(0.0, ((b1 - b0) - ours) / 100.0 / wall), 1)
        return r

    lo, hi = (int(v) for v in
              os.environ.get("GRAFT_SCALING_CPUS", "4,16").split(","))
    # Two-cluster-size criterion, N -> 4N (BASELINE.md): default 4 vs
    # 16 cpus. Rationale: the rule scales NODES, and nodes bring their
    # own caches/memory; on this single-socket shared VM, per-core
    # throughput degrades with worker count (measured ~1.5-1.7x from
    # 4 to 16 workers even at near-zero hypervisor steal — shared
    # cache/allocator contention), so high core counts measure the
    # socket, not the engine's partitioning. 4->16 minimizes that
    # while still spanning the rule's 4x factor.
    # GRAFT_SCALING_CPUS=8,32 reproduces the high-contention variant.
    # scaling tier: 36x sf0.1 (21.6M docs) so fixed pipeline-fill /
    # barrier latency is <5% of the small-cluster T (same input at
    # both levels) — the 10^12-row regime is where fixed costs vanish
    scaling_dir = os.environ.get("GRAFT_SCALING_SF_DIR", "/root/testdata/sfbig12")
    from raytiles.pipeline.synth import webpages_path
    webpages_path(scaling_dir)  # materialize once, outside both timings
    os.environ["GRAFT_SF_DIR"] = scaling_dir

    max_attempts = int(os.environ.get("GRAFT_SCALING_MAX_ATTEMPTS", "6"))
    gate_budget_s = float(os.environ.get("GRAFT_SCALING_GATE_BUDGET", "900"))
    discarded = []
    result = None
    for attempt in range(max_attempts):
        # (a) pre-leg gate: wait for a steal-quiet AND load-quiet window
        # (loadavg catches this box's own other processes, which steal
        # sampling cannot; steal catches the hypervisor, which loadavg
        # cannot)
        waited = 0.0
        while waited < gate_budget_s:
            sc = _steal_cores(8.0)
            waited += 8.0
            with open("/proc/loadavg") as fh:
                load1 = float(fh.read().split()[0])
            if sc < STEAL_GATE_CORES and load1 < 2.0:
                break
        # (b) hi leg FIRST: quiet windows close within minutes, and the
        # short hi leg should spend the freshly-verified one (the long
        # lo leg is far less sensitive to ambient contention)
        p_hi = _effective_parallelism(hi)
        cap_hi = _capability(hi)
        r_hi = one(hi)
        if (r_hi["steal_pct_during_leg"] > STEAL_GATE_LEG_PCT
                or r_hi["other_busy_cores"] > 2.0):
            discarded.append({"leg": "hi", "steal_pct": r_hi["steal_pct_during_leg"],
                              "other_busy_cores": r_hi["other_busy_cores"],
                              "sec": r_hi["value"]})
            continue
        p_lo = _effective_parallelism(lo)
        cap_lo = _capability(lo)
        r_lo = one(lo)
        if (r_lo["steal_pct_during_leg"] > STEAL_GATE_LEG_PCT
                or r_lo["other_busy_cores"] > 2.0):
            discarded.append({"leg": "lo", "steal_pct": r_lo["steal_pct_during_leg"],
                              "other_busy_cores": r_lo["other_busy_cores"],
                              "sec": r_lo["value"],
                              "eff_if_kept": round(r_lo["value"] / r_hi["value"] / (hi / lo), 3)})
            continue
        result = (p_lo, p_hi, r_lo, r_hi, cap_lo, cap_hi)
        break
    if result is None:
        print(json.dumps({"metric": "scaling_efficiency", "value": None,
                          "unit": "ratio", "error": "no steal-clean pair",
                          "discarded_attempts": discarded, "sf": scaling_dir}))
        return
    p_lo, p_hi, r_lo, r_hi, cap_lo, cap_hi = result
    speedup = r_lo["value"] / r_hi["value"]
    eff = speedup / (hi / lo)
    # noise-adjusted: scale by the core ratio the host actually
    # delivered during each run (shared-tenant background load)
    eff_adj = round(speedup / (p_hi / p_lo), 3) if p_lo else None
    # capability-normalized: divide by the work-rate ratio this socket
    # actually offers between the two concurrencies (captures turbo +
    # shared LLC/memory-bandwidth saturation, which distinct cluster
    # nodes would not share) — the raw value stays the headline
    eff_cap = round(speedup / (cap_hi / cap_lo), 3) if cap_lo else None
    print(json.dumps({
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "steal_clean": True,
        "n_discarded": len(discarded),
        "discarded_attempts": discarded,
        f"parallelism_delivered_{lo}": p_lo,
        f"parallelism_delivered_{hi}": p_hi,
        "efficiency_vs_delivered_cores": eff_adj,
        f"capability_{lo}": cap_lo, f"capability_{hi}": cap_hi,
        "capability_ratio": round(cap_hi / cap_lo, 3) if cap_lo else None,
        "efficiency_vs_capability": eff_cap,
        f"sec_{lo}": r_lo["value"], f"sec_{hi}": r_hi["value"],
        f"docs_per_sec_{lo}": r_lo.get("docs_per_sec"),
        f"docs_per_sec_{hi}": r_hi.get("docs_per_sec"),
        f"tiles_per_sec_{lo}": r_lo.get("tiles_per_sec"),
        f"tiles_per_sec_{hi}": r_hi.get("tiles_per_sec"),
        f"steal_pct_{lo}": r_lo.get("steal_pct_during_leg"),
        f"steal_pct_{hi}": r_hi.get("steal_pct_during_leg"),
        "speedup": round(speedup, 3),
        "sf": scaling_dir,
    }))


def run_scaling_queries() -> None:
    """Per-query two-cluster-size evidence beyond the flagship: one
    bucketed-join query (big_orders) and one dedup query
    (minhash_bands) run at lo and hi cpu counts in fresh processes
    over the replicated big-table tier, steal-gated like run_scaling
    (pre-leg quiet window + per-leg steal sampling, discards listed).
    Both queries share each leg's subprocess, so a pair is either
    clean for both or discarded for both."""
    lo, hi = (int(v) for v in
              os.environ.get("GRAFT_SCALING_CPUS", "4,16").split(","))
    names = os.environ.get("GRAFT_SCALING_QUERIES",
                           "big_orders,minhash_bands").split(",")
    tier = _tables_big(int(os.environ.get("GRAFT_TABLESBIG_REP", "16")))

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_QUERY_BENCH=",".join(names), GRAFT_SF_DIR=tier)
        b0, s0 = _cpu_stat()
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True).stdout
        b1, s1 = _cpu_stat()
        r = json.loads(out.strip().splitlines()[-1])
        total = (b1 - b0) + (s1 - s0)
        r["steal_pct_during_leg"] = \
            round(100.0 * (s1 - s0) / total, 1) if total else 0.0
        return r

    max_attempts = int(os.environ.get("GRAFT_SCALING_MAX_ATTEMPTS", "6"))
    gate_budget_s = float(os.environ.get("GRAFT_SCALING_GATE_BUDGET", "900"))
    discarded = []
    result = None
    for _ in range(max_attempts):
        waited = 0.0
        while waited < gate_budget_s:
            sc = _steal_cores(8.0)
            waited += 8.0
            with open("/proc/loadavg") as fh:
                load1 = float(fh.read().split()[0])
            if sc < STEAL_GATE_CORES and load1 < 2.0:
                break
        r_hi = one(hi)
        if r_hi["steal_pct_during_leg"] > STEAL_GATE_LEG_PCT:
            discarded.append({"leg": "hi",
                              "steal_pct": r_hi["steal_pct_during_leg"],
                              "queries": r_hi["queries"]})
            continue
        cap_hi = _capability(hi)
        cap_lo = _capability(lo)
        r_lo = one(lo)
        if r_lo["steal_pct_during_leg"] > STEAL_GATE_LEG_PCT:
            discarded.append({"leg": "lo",
                              "steal_pct": r_lo["steal_pct_during_leg"],
                              "queries": r_lo["queries"]})
            continue
        result = (r_lo, r_hi, cap_lo, cap_hi)
        break
    if result is None:
        print(json.dumps({"metric": "query_scaling_efficiency",
                          "value": None, "unit": "ratio",
                          "error": "no steal-clean pair",
                          "discarded_attempts": discarded, "sf": tier}))
        return
    r_lo, r_hi, cap_lo, cap_hi = result
    per_query = {}
    for name in names:
        sp = r_lo["queries"][name] / r_hi["queries"][name]
        per_query[name] = {
            f"sec_{lo}": r_lo["queries"][name],
            f"sec_{hi}": r_hi["queries"][name],
            "speedup": round(sp, 3),
            "efficiency": round(sp / (hi / lo), 3),
            "efficiency_vs_capability": round(sp / (cap_hi / cap_lo), 3)
            if cap_lo else None,
        }
    print(json.dumps({
        "metric": "query_scaling_efficiency",
        "value": round(min(q["efficiency"] for q in per_query.values()), 3),
        "unit": "ratio",
        "steal_clean": True,
        "n_discarded": len(discarded),
        "discarded_attempts": discarded,
        "queries": per_query,
        f"capability_{lo}": cap_lo, f"capability_{hi}": cap_hi,
        "capability_ratio": round(cap_hi / cap_lo, 3) if cap_lo else None,
        f"steal_pct_{lo}": r_lo["steal_pct_during_leg"],
        f"steal_pct_{hi}": r_hi["steal_pct_during_leg"],
        "sf": tier,
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    elif "--scaling-queries" in sys.argv:
        run_scaling_queries()
    elif os.environ.get("GRAFT_QUERY_BENCH"):
        print(json.dumps(run_query_bench(
            os.environ["GRAFT_QUERY_BENCH"].split(","))))
    else:
        print(json.dumps(run_benchmarks()))
