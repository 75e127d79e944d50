"""Resumable end-to-end tiling job — the `ray job submit` entry.

Two checkpointed stages, each with per-partition lineage + metrics
(pipeline.checkpoint), partitioned so a killed job resumes without
recomputing completed work:

  Stage A  parse+assign: webpages -> mention assignments, written as
           hash(z, x>>4, y>>4) % B bucket files. Each input block is a
           partition; the bucket column makes stage B embarrassingly
           parallel (a tile's rows live in exactly one bucket).
  Stage B  per bucket: group to tiles (numpy offsets) -> vectorized
           MVT encode -> tiles parquet. Each bucket is a partition
           with its own manifest record.

The tile pyramid key (z, coarse_x, coarse_y) is the ONE partitioning
key reused across both stages (SURVEY §4.2: pick one key, reuse it).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..codec.fastpoint import encode_point_tiles
from .checkpoint import finished_partitions, write_partition
from .flagship import assign, geoparse, read_webpages
from .stages import COARSE_SHIFT, tile_bucket

# FIXED on purpose (not derive_buckets): the bucket count IS the
# checkpoint partition layout — a data-size-derived count would give
# the same input a different layout across runs and invalidate every
# manifest on resume. Callers scale it explicitly per deployment;
# checkpoint._invalidate handles a changed count safely.
N_BUCKETS = 64


def stage_a(webpages_path: str, root: str, zoom: int = 12,
            n_buckets: int = N_BUCKETS) -> str:
    """parse+assign, output bucketed by the coarse tile key. Skipped
    entirely when its done-marker exists."""
    out_dir = os.path.join(root, "stage_a")
    marker = os.path.join(root, "stage_a.done")
    if os.path.exists(marker):
        return out_dir

    def add_bucket(b: pa.Table) -> pa.Table:
        # the flagship's tile mix over the COARSE key (z, x>>4, y>>4)
        bucket = tile_bucket(b["z"].to_numpy(),
                             b["x"].to_numpy() >> COARSE_SHIFT,
                             b["y"].to_numpy() >> COARSE_SHIFT, n_buckets)
        return b.append_column("bucket", pa.array(bucket))

    ds = read_webpages(webpages_path)
    ds = geoparse(ds)
    ds = assign(ds, zoom, with_cells=False)
    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    tmp_dir = os.path.join(root, ".stage_a.tmp")
    import shutil
    shutil.rmtree(tmp_dir, ignore_errors=True)
    ds.write_parquet(tmp_dir, partition_cols=["bucket"])
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp_dir, out_dir)
    with open(marker, "w") as fh:
        fh.write("done")
    return out_dir


def _encode_bucket(table: pa.Table, extent: int = 4096) -> pa.Table:
    """One bucket's assignment rows -> encoded tile rows (the stage-B
    transform; pure, deterministic)."""
    if table.num_rows == 0:
        return pa.table({"z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
                         "y": pa.array([], pa.int32()), "mvt": pa.array([], pa.binary()),
                         "n_features": pa.array([], pa.int64())})
    z = table["z"].to_numpy()
    x = table["x"].to_numpy()
    y = table["y"].to_numpy()
    urls = table["url"].to_pandas()
    midx = table["mention_idx"].to_numpy()
    lx = table["local_x"].to_numpy()
    ly = table["local_y"].to_numpy()
    order = np.lexsort((midx, urls.to_numpy(), y, x, z))
    z, x, y = z[order], x[order], y[order]
    urls = urls.iloc[order].reset_index(drop=True)
    midx, lx, ly = midx[order], lx[order], ly[order]
    change = np.empty(len(z), dtype=bool)
    change[0] = True
    change[1:] = (z[1:] != z[:-1]) | (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    starts = np.flatnonzero(change)
    offsets = np.concatenate([starts, [len(z)]]).astype(np.int64)
    mvts = encode_point_tiles(offsets, urls, midx, lx, ly, extent=extent)
    return pa.table({
        "z": pa.array(z[starts].astype(np.int32), pa.int32()),
        "x": pa.array(x[starts].astype(np.int32), pa.int32()),
        "y": pa.array(y[starts].astype(np.int32), pa.int32()),
        "mvt": pa.array(mvts, pa.binary()),
        "n_features": pa.array(np.diff(offsets), pa.int64()),
    })


def stage_b(root: str, n_buckets: int = N_BUCKETS) -> dict:
    """Per-bucket tile encode with checkpoint manifests; resume skips
    finished buckets."""
    a_dir = os.path.join(root, "stage_a")
    b_root = os.path.join(root, "stage_b")
    os.makedirs(b_root, exist_ok=True)
    done = finished_partitions(b_root)

    @ray.remote
    def do_bucket(pid: int) -> dict:
        t0 = time.time()
        bdir = os.path.join(a_dir, f"bucket={pid}")
        if os.path.isdir(bdir):
            table = pq.read_table(bdir)
        else:  # bucket got no rows
            table = pa.table({"z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
                              "y": pa.array([], pa.int32()),
                              "url": pa.array([], pa.string()),
                              "mention_idx": pa.array([], pa.int32()),
                              "local_x": pa.array([], pa.int32()),
                              "local_y": pa.array([], pa.int32())})
        out = _encode_bucket(table)
        return write_partition(b_root, pid, table, out, t0)

    futures = [do_bucket.remote(pid) for pid in range(n_buckets) if pid not in done]
    recs = ray.get(futures)
    all_recs = list(done.values()) + recs
    return {"partitions": len(all_recs), "skipped": len(done),
            "computed": len(recs),
            "tiles": sum(r["rows_out"] for r in all_recs),
            "bytes_out": sum(r["bytes_out"] for r in all_recs)}


def run_job(webpages_path: str, root: str, zoom: int = 12,
            n_buckets: int = N_BUCKETS) -> dict:
    stage_a(webpages_path, root, zoom, n_buckets)
    return stage_b(root, n_buckets)
