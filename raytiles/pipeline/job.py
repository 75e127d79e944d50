"""Resumable end-to-end tiling job — the `ray job submit` entry.

Two checkpointed stages, each one plain Ray task per partition, so a
killed job resumes without recomputing completed work:

  Stage A  parse+assign, one task per read group. The driver plans the
           groups as flagship.mentions does (input_files -> read_groups
           in util.layout's read-block count); each task runs the
           flagship's map kernel (flagship.parse_group: read -> parse
           -> TileAssigner), splits its rows by hash(z, x>>4, y>>4) % B,
           where B is util.layout's reducer count for the input's
           on-disk size unless the caller passes one, writes
           stage_a/bucket=<b>/group-<g>.parquet (tmp + rename) for each
           bucket it reached, then publishes its group's manifest
           record (pipeline.checkpoint) under stage_a_manifest/.
           Before any group starts, stage_a.args records the job's
           arguments (input path, zoom, bucket count), each input
           file's path, size and mtime, and the group plan; once every
           group is done, stage_a.done repeats that record. A rerun
           with the same record skips the groups that have a manifest;
           any other rerun drops both stages' output and recomputes.
  Stage B  per bucket: the flagship's own kernels, pack -> merge ->
           encode (stages.pack_tile_partials, stages.merge_tile_partials,
           encode_stage.FastPointEncoder) -> tiles parquet. Each bucket
           stage A wrote is a partition with its own manifest record
           (pipeline.checkpoint); a tile's rows live in exactly one
           bucket, so buckets encode independently. Stage B's output
           is dropped whenever stage A was not complete.

Neither stage builds a Ray Dataset: a job pays no Data executor
start-up, only one task per group and one per bucket.

The tile pyramid key (z, coarse_x, coarse_y) is the ONE partitioning
key reused across both stages (SURVEY §4.2: pick one key, reuse it).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray

from ..geo.parse import GeoParser
from ..util import input_bytes, layout, run_starts
from .checkpoint import finished_partitions, publish, write_partition
from .encode_stage import FastPointEncoder
from .flagship import input_files, parse_group, read_groups
from .stages import (TileAssigner, merge_tile_partials, pack_tile_partials,
                     tile_bucket)

COARSE_SHIFT = 4  # stage A buckets by the 16x16-tile coarse cell
# what stage B reads: the assigner's lon and lat stay out of stage A's files
STAGE_A_COLUMNS = ["url", "mention_idx", "z", "x", "y", "local_x", "local_y"]
A_MANIFEST = "stage_a_manifest"


def _read_marker(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _write_marker(path: str, args: dict) -> None:
    with open(path, "w") as fh:  # a torn write fails to parse: rerun
        json.dump(args, fh)


@ray.remote
def _stage_a_group(fs: pafs.FileSystem, group: dict, g: int, zoom: int,
                   n_buckets: int, root: str) -> dict:
    """Read group ``g`` -> mention assignments, one file per bucket
    reached, then the group's manifest record."""
    t0 = time.time()
    docs, rows = parse_group(fs, group, GeoParser(),
                             TileAssigner(zoom, with_cells=False))
    # the flagship's tile mix over the COARSE key (z, x>>4, y>>4)
    bucket = tile_bucket(rows["z"].to_numpy(),
                         rows["x"].to_numpy() >> COARSE_SHIFT,
                         rows["y"].to_numpy() >> COARSE_SHIFT, n_buckets)
    order = np.argsort(bucket, kind="stable")
    bucket = bucket[order]
    rows = rows.select(STAGE_A_COLUMNS).take(order)
    bounds = np.append(np.flatnonzero(run_starts(bucket)), bucket.size)
    nbytes = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        b_dir = os.path.join(root, "stage_a", f"bucket={bucket[lo]}")
        os.makedirs(b_dir, exist_ok=True)
        tmp = os.path.join(b_dir, f".group-{g}.parquet.tmp")
        final = os.path.join(b_dir, f"group-{g}.parquet")
        pq.write_table(rows.slice(lo, hi - lo), tmp)
        os.replace(tmp, final)
        nbytes += os.path.getsize(final)
    return publish(root, g, docs, rows.num_rows, nbytes, t0, A_MANIFEST)


def stage_a(webpages_path: str, root: str, zoom: int = 12,
            n_buckets: int | None = None) -> dict:
    """parse+assign, output bucketed by the coarse tile key into
    ``n_buckets`` checkpoint partitions: by default the reducer count
    ``mentions`` derives for the same input (``util.layout``), so a
    small input is not cut into 64 tiny partitions. Resumes when the
    recorded arguments, input files (path, size and mtime of each) and
    group plan are these same ones, so an input rewritten in place
    recomputes; the resolved count is recorded, so a default run
    resumes a root written with the same count. Returns the group
    counts: planned, skipped as finished, computed."""
    read_blocks, reducers = layout(input_bytes(webpages_path))
    if n_buckets is None:
        n_buckets = reducers
    fs, files = input_files(webpages_path)
    groups = read_groups(fs, files, read_blocks)
    args = {"webpages_path": webpages_path, "zoom": zoom, "n_buckets": n_buckets,
            "input": [[f.path, f.size, f.mtime_ns] for f in files],
            "groups": groups}
    done = os.path.join(root, "stage_a.done")
    if _read_marker(done) == args:
        return {"groups": len(groups), "groups_skipped": len(groups),
                "groups_computed": 0}
    # stage B's partitions were encoded from whatever stage A output
    # is on disk: drop the marker first, so a kill below never leaves
    # a marker vouching for missing or stale output
    if os.path.exists(done):
        os.remove(done)
    shutil.rmtree(os.path.join(root, "stage_b"), ignore_errors=True)
    args_path = os.path.join(root, "stage_a.args")
    if _read_marker(args_path) != args:
        shutil.rmtree(os.path.join(root, A_MANIFEST), ignore_errors=True)
        shutil.rmtree(os.path.join(root, "stage_a"), ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        _write_marker(args_path, args)
    os.makedirs(os.path.join(root, "stage_a"), exist_ok=True)
    finished = finished_partitions(root, A_MANIFEST)
    recs = ray.get([_stage_a_group.remote(fs, groups[g], g, zoom, n_buckets, root)
                    for g in range(len(groups)) if g not in finished])
    _write_marker(done, args)
    return {"groups": len(groups), "groups_skipped": len(finished),
            "groups_computed": len(recs)}


@ray.remote
def _encode_bucket(root: str, pid: int) -> dict:
    """Stage A's bucket ``pid`` -> encoded tiles, published as stage
    B's partition ``pid``."""
    t0 = time.time()
    table = pq.read_table(os.path.join(root, "stage_a", f"bucket={pid}"))
    out = FastPointEncoder()(merge_tile_partials(pack_tile_partials(table)))
    return write_partition(os.path.join(root, "stage_b"), pid, table, out, t0)


def stage_b(root: str) -> dict:
    """Per-bucket tile encode with checkpoint manifests; resume skips
    finished buckets."""
    b_root = os.path.join(root, "stage_b")
    os.makedirs(b_root, exist_ok=True)
    done = finished_partitions(b_root)
    # sorted: listdir order is the filesystem's (creation order on some),
    # and the submission order decides which bucket straggles at the end
    pids = sorted(int(d.split("=", 1)[1])
                  for d in os.listdir(os.path.join(root, "stage_a"))
                  if d.startswith("bucket="))
    recs = ray.get([_encode_bucket.remote(root, pid)
                    for pid in pids if pid not in done])
    all_recs = list(done.values()) + recs
    return {"partitions": len(all_recs), "skipped": len(done),
            "computed": len(recs),
            "tiles": sum(r["rows_out"] for r in all_recs),
            "bytes_out": sum(r["bytes_out"] for r in all_recs)}


def run_job(webpages_path: str, root: str, zoom: int = 12,
            n_buckets: int | None = None) -> dict:
    """Both stages; ``n_buckets`` as in ``stage_a`` (None: sized from
    the input). Returns stage B's partition counts and totals, and
    stage A's group counts."""
    groups = stage_a(webpages_path, root, zoom, n_buckets)
    return {**stage_b(root), **groups}
