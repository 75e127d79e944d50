"""Per-partition checkpointing with lineage + metrics. Both stages of
pipeline.job publish each finished partition with a manifest record
and resume by skipping the ids ``finished_partitions`` lists: stage A
one record per read group (its files are written by the job, one per
bucket it reached), stage B one partition per stage-A bucket through
``write_partition``.

Layout of a ``write_partition`` root:

    <root>/
      partition=<pid>/            # one directory per partition
        data.parquet              # that partition's output rows
      manifest/
        <pid>.json                # atomic (tmp+rename) lineage record

A partition's manifest record is written ONLY after its data is fully
written and renamed into place, so a killed job can never leave a
manifest entry pointing at partial data. Records carry lineage (input
fingerprint) and metrics (rows in/out, bytes, wall seconds) — the
audit trail of what each partition did.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def _fingerprint(table: pa.Table) -> str:
    """Cheap deterministic lineage fingerprint of a partition's input:
    schema + row count + first/last row hash."""
    h = hashlib.md5()
    h.update(str(table.schema).encode())
    h.update(str(table.num_rows).encode())
    if table.num_rows:
        h.update(str(table.slice(0, 1).to_pylist()).encode())
        h.update(str(table.slice(table.num_rows - 1, 1).to_pylist()).encode())
    return h.hexdigest()


def finished_partitions(root: str, manifest: str = "manifest") -> dict[int, dict]:
    """The records of the finished partitions under ``root/<manifest>``,
    by partition id."""
    mdir = os.path.join(root, manifest)
    out: dict[int, dict] = {}
    if not os.path.isdir(mdir):
        return out
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                rec = json.load(fh)
            if rec.get("status") == "done":
                out[rec["partition_id"]] = rec
    return out


def publish(root: str, pid: int, input_table: pa.Table, rows_out: int,
            bytes_out: int, t_start: float, manifest: str = "manifest") -> dict:
    """Atomically write partition ``pid``'s manifest record under
    ``root/<manifest>``; call it only once the partition's data is in
    place."""
    rec = {
        "partition_id": pid,
        "status": "done",
        "input_fingerprint": _fingerprint(input_table),
        "rows_in": input_table.num_rows,
        "rows_out": rows_out,
        "bytes_out": bytes_out,
        "wall_sec": round(time.time() - t_start, 3),
    }
    mdir = os.path.join(root, manifest)
    os.makedirs(mdir, exist_ok=True)
    mtmp = os.path.join(mdir, f".{pid}.json.tmp")
    with open(mtmp, "w") as fh:
        json.dump(rec, fh)
    os.replace(mtmp, os.path.join(mdir, f"{pid}.json"))
    return rec


def write_partition(root: str, pid: int, input_table: pa.Table,
                    output_table: pa.Table, t_start: float) -> dict:
    """Atomically publish one partition's output + manifest record."""
    pdir = os.path.join(root, f"partition={pid}")
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, ".data.parquet.tmp")
    final = os.path.join(pdir, "data.parquet")
    pq.write_table(output_table, tmp)
    os.replace(tmp, final)
    return publish(root, pid, input_table, output_table.num_rows,
                   os.path.getsize(final), t_start)


def read_output(root: str) -> ray.data.Dataset:
    """Read back a checkpointed run's full output."""
    parts = sorted(d for d in os.listdir(root) if d.startswith("partition="))
    return ray.data.read_parquet([os.path.join(root, d, "data.parquet") for d in parts])
