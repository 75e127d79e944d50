"""Resumable end-to-end tiling job — the `ray job submit` entry.

Two checkpointed stages, so a killed job resumes without recomputing
completed work:

  Stage A  parse+assign: webpages -> mention assignments, written as
           hash(z, x>>4, y>>4) % B bucket directories, where B is
           util.layout's reducer count for the input's on-disk size
           unless the caller passes one. One Ray map
           operator (flagship.mentions: each task reads its own input
           row groups and runs parse -> assign -> bucket), then one
           write. All or nothing: the write is swapped into place,
           then a marker records the job's arguments (input path,
           zoom, bucket count) and each input file's path, size and
           mtime. A rerun with the same arguments and input skips it;
           any other marker drops both stages' output and recomputes.
  Stage B  per bucket: the flagship's own kernels, pack -> merge ->
           encode (stages.pack_tile_partials, stages.merge_tile_partials,
           encode_stage.FastPointEncoder) -> tiles parquet. Each bucket
           stage A wrote is a partition with its own manifest record
           (pipeline.checkpoint); a tile's rows live in exactly one
           bucket, so buckets encode independently.

The tile pyramid key (z, coarse_x, coarse_y) is the ONE partitioning
key reused across both stages (SURVEY §4.2: pick one key, reuse it).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..util import input_bytes, layout
from .checkpoint import finished_partitions, write_partition
from .encode_stage import FastPointEncoder
from .flagship import input_files, mentions
from .stages import merge_tile_partials, pack_tile_partials, tile_bucket

COARSE_SHIFT = 4  # stage A buckets by the 16x16-tile coarse cell


def _read_marker(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def stage_a(webpages_path: str, root: str, zoom: int = 12,
            n_buckets: int | None = None) -> str:
    """parse+assign, output bucketed by the coarse tile key into
    ``n_buckets`` checkpoint partitions: by default the reducer count
    ``mentions`` derives for the same input (``util.layout``), so a
    small input is not cut into 64 tiny partitions. Skipped when its
    marker records these same arguments and the same input files
    (path, size and mtime of each), so an input rewritten in place
    recomputes; the resolved count is recorded, so a default run
    resumes a root written with the same count."""
    if n_buckets is None:
        n_buckets = layout(input_bytes(webpages_path))[1]
    out_dir = os.path.join(root, "stage_a")
    marker = os.path.join(root, "stage_a.done")
    args = {"webpages_path": webpages_path, "zoom": zoom, "n_buckets": n_buckets,
            "input": [[f.path, f.size, f.mtime_ns]
                      for f in input_files(webpages_path)[1]]}
    if _read_marker(marker) == args:
        return out_dir
    # stage B's partitions were encoded from whatever stage A output
    # is on disk: drop the marker first, so a kill below never leaves
    # a marker vouching for missing or stale output
    if os.path.exists(marker):
        os.remove(marker)
    shutil.rmtree(os.path.join(root, "stage_b"), ignore_errors=True)

    def add_bucket(b: pa.Table) -> pa.Table:
        # the flagship's tile mix over the COARSE key (z, x>>4, y>>4)
        bucket = tile_bucket(b["z"].to_numpy(),
                             b["x"].to_numpy() >> COARSE_SHIFT,
                             b["y"].to_numpy() >> COARSE_SHIFT, n_buckets)
        return b.append_column("bucket", pa.array(bucket))

    ds, _ = mentions(webpages_path, zoom, then=add_bucket)
    tmp_dir = os.path.join(root, ".stage_a.tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    ds.write_parquet(tmp_dir, partition_cols=["bucket"])
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp_dir, out_dir)
    with open(marker, "w") as fh:  # a torn write fails to parse: rerun
        json.dump(args, fh)
    return out_dir


def stage_b(root: str) -> dict:
    """Per-bucket tile encode with checkpoint manifests; resume skips
    finished buckets."""
    a_dir = os.path.join(root, "stage_a")
    b_root = os.path.join(root, "stage_b")
    os.makedirs(b_root, exist_ok=True)
    done = finished_partitions(b_root)
    encoder = FastPointEncoder()

    @ray.remote
    def do_bucket(pid: int) -> dict:
        t0 = time.time()
        table = pq.read_table(os.path.join(a_dir, f"bucket={pid}"))
        out = encoder(merge_tile_partials(pack_tile_partials(table)))
        return write_partition(b_root, pid, table, out, t0)

    # sorted: listdir order is the filesystem's (creation order on some),
    # and the submission order decides which bucket straggles at the end
    pids = sorted(int(d.split("=", 1)[1]) for d in os.listdir(a_dir)
                  if d.startswith("bucket="))
    recs = ray.get([do_bucket.remote(pid) for pid in pids if pid not in done])
    all_recs = list(done.values()) + recs
    return {"partitions": len(all_recs), "skipped": len(done),
            "computed": len(recs),
            "tiles": sum(r["rows_out"] for r in all_recs),
            "bytes_out": sum(r["bytes_out"] for r in all_recs)}


def run_job(webpages_path: str, root: str, zoom: int = 12,
            n_buckets: int | None = None) -> dict:
    """Both stages; ``n_buckets`` as in ``stage_a`` (None: sized from
    the input)."""
    stage_a(webpages_path, root, zoom, n_buckets)
    return stage_b(root)
