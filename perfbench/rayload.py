"""Ray session and the two Ray workloads' passes.

Every Ray workload runs under one fixed session config (SESSION and
DATA_CONTEXT below); both are recorded in every result.
"""

from __future__ import annotations

import re
import shutil

import ray
import ray.data
from ray.data import DataContext

from raytiles.pipeline import flagship, job

# With num_cpus=1 Ray warned that no CPUs were free and warm 60k-doc
# flagship passes took 5.0-7.9 s, against 2.8-3.0 s with num_cpus=2.
SESSION = {"num_cpus": 2, "object_store_memory": 768 << 20}
# The reservation starves the fused map chain at low CPU counts.
DATA_CONTEXT = {"enable_progress_bars": False,
                "op_resource_reservation_enabled": False}


def start(temp_dir: str) -> None:
    ray.init(include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=temp_dir, **SESSION)
    ctx = DataContext.get_current()
    for k, v in DATA_CONTEXT.items():
        setattr(ctx, k, v)


def stop() -> None:
    ray.shutdown()


def context_facts() -> dict:
    ctx = DataContext.get_current()
    facts = {k: getattr(ctx, k) for k in DATA_CONTEXT}
    facts["target_max_block_size"] = ctx.target_max_block_size
    facts["shuffle_strategy"] = str(ctx.shuffle_strategy)
    return facts


def flagship_pass(path: str, out_dir: str):
    """One flagship pass; returns the written Dataset (for its stats)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = flagship.tiles_pipeline(path, 12)
    ds.write_parquet(out_dir)
    return ds


def job_pass(path: str, root: str) -> dict:
    """One checkpointed job over a fresh root."""
    shutil.rmtree(root, ignore_errors=True)
    return job.run_job(path, root)


class WriteCapture:
    """Keeps every Dataset that calls write_parquet while installed, so
    the stats of a Dataset built inside a library function (job.stage_a)
    can be read from outside."""

    def __init__(self) -> None:
        self.datasets = []

    def __enter__(self):
        self._orig = orig = ray.data.Dataset.write_parquet
        seen = self.datasets

        def write_parquet(ds, *args, **kwargs):
            seen.append(ds)
            return orig(ds, *args, **kwargs)
        ray.data.Dataset.write_parquet = write_parquet
        return self

    def __exit__(self, *exc):
        ray.data.Dataset.write_parquet = self._orig


def _op_class(name: str) -> str:
    if name.startswith("ReadParquet"):
        return "read"
    if name.startswith(("Sort", "Repartition", "Aggregate", "Shuffle")):
        return "exchange"
    if name.endswith("Write"):
        return "write"
    return "map"


def operator_stats(ds) -> list[dict]:
    """Operators of a written Dataset, upstream first: name, whether it
    is a sub-operator of an all-to-all exchange, wall/CPU seconds
    summed over tasks, and output blocks, rows and bytes."""
    summary = ds._write_ds._plan.stats().to_summary()
    chain = []
    while summary is not None:
        chain.append(summary)
        summary = summary.parents[0] if summary.parents else None
    ops = []
    for s in reversed(chain):
        for op in s.operators_stats:
            rows = op.output_num_rows or {}
            blocks = re.search(r"(\d+) blocks produced", op.block_execution_summary_str)
            ops.append({"name": op.operator_name, "sub": op.is_sub_operator,
                        "wall_s": (op.wall_time or {}).get("sum", 0.0),
                        "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                        "blocks": int(blocks.group(1)) if blocks else 0,
                        "rows_max": rows.get("max", 0),
                        "rows_mean": rows.get("mean", 0),
                        "bytes": (op.output_size_bytes or {}).get("sum", 0)})
    return ops


def layer_stats(ops: list[dict]) -> dict:
    """Wall/CPU per operator class, and the exchange's shape: blocks in
    (the upstream operator's output), blocks out, bytes and bucket skew
    (max / mean rows per output block of its last sub-operator). Only
    all-to-all exchanges have sub-operators. The metrics of a class the
    workload lacks are 0."""
    out = {}
    for cls in ("read", "map", "exchange", "write"):
        out[f"ray.op.{cls}.wall_s"] = 0.0
        out[f"ray.op.{cls}.cpu_s"] = 0.0
    out.update({"read.blocks": 0, "exchange.blocks_in": 0, "exchange.blocks_out": 0,
                "exchange.bytes": 0, "exchange.bucket_skew": 0.0})
    upstream, exchange = None, []
    for op in ops:
        cls = "exchange" if op["sub"] else _op_class(op["name"])
        out[f"ray.op.{cls}.wall_s"] += op["wall_s"]
        out[f"ray.op.{cls}.cpu_s"] += op["cpu_s"]
        if cls == "read":
            out["read.blocks"] += op["blocks"]
        if cls == "exchange":
            if not exchange and upstream:
                out["exchange.blocks_in"] = upstream["blocks"]
            exchange.append(op)
        else:
            upstream = op
    if exchange:
        last = exchange[-1]
        out["exchange.blocks_out"] = last["blocks"]
        out["exchange.bytes"] = last["bytes"]
        if last["rows_mean"]:
            out["exchange.bucket_skew"] = last["rows_max"] / last["rows_mean"]
    out["exchange.wall_s"] = out["ray.op.exchange.wall_s"]
    out["exchange.cpu_s"] = out["ray.op.exchange.cpu_s"]
    return out
