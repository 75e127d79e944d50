"""Table profiling: the data-engineering utility pass that summarizes
every column (row/null counts, EXACT distinct cardinality, varchar
min/max, average stringified length) before a corpus enters a
pipeline. All columns profile in ONE read pass; distinct counting
uses the repo's md5-u64 bucket pattern (exact — disjoint hash ranges
sum exactly), and every statistic matches a DuckDB twin over
CAST(col AS VARCHAR) semantics (ASCII corpus: byte-lex min/max ==
DuckDB varchar collation, byte length == char length)."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..util import bucket_of, derive_buckets

PROFILE_COLUMNS = ("doc_id", "text", "lang", "source", "n_chars")


def _round6(x: float) -> float:
    """DuckDB round(): half away from zero."""
    v = x * 1e6
    return (np.floor(v + 0.5) if v >= 0 else np.ceil(v - 0.5)) / 1e6


def profile_table(sf_dir: str) -> pd.DataFrame:
    """One profile row per column of the documents table.

    Shape: a single map_batches pass emits, per column, one tiny stats
    partial (n, nulls, varchar min/max truncated to a 16-char prefix —
    prefix-of-min == min-of-prefixes under lexicographic order — and
    the length sum) plus the batch's DISTINCT md5-u64 value hashes
    packed as ONE binary cell per bounded splitmix bucket (the
    _shingle_sets pattern: no object lists ride the shuffle); ONE
    groupby over (col, bucket, kind) merges, and the driver folds
    <= cols x (buckets + 1) rows. Raw values never shuffle."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 256)

    def partial(batch: pa.Table) -> pa.Table:
        rows = {"col_name": [], "bucket": [], "kind": [], "n": [],
                "nulls": [], "lsum": [], "mn": [], "mx": []}

        def emit(name, bucket, kind, n, nulls, lsum, mn, mx):
            rows["col_name"].append(name)
            rows["bucket"].append(bucket)
            rows["kind"].append(kind)
            rows["n"].append(n)
            rows["nulls"].append(nulls)
            rows["lsum"].append(lsum)
            rows["mn"].append(mn)
            rows["mx"].append(mx)

        for name in PROFILE_COLUMNS:
            col = batch[name].combine_chunks()
            n_all = len(col)
            nn = col.null_count
            if pa.types.is_string(col.type) or \
                    pa.types.is_large_string(col.type):
                valid = col.drop_null()
                lsum = int(pc.sum(pc.utf8_length(valid)).as_py() or 0)
                mm = pc.min_max(valid)
                mn = (mm["min"].as_py() or "")[:16]
                mx = (mm["max"].as_py() or "")[:16]
                uniq = np.unique(valid.to_numpy(zero_copy_only=False))
            else:
                vals = col.drop_null().to_numpy(zero_copy_only=False)
                s = np.char.mod("%d", vals.astype(np.int64))
                lsum = int(np.char.str_len(s).sum()) if len(s) else 0
                uniq = np.unique(s)  # sorted — min/max fall out
                mn = str(uniq[0])[:16] if len(uniq) else ""
                mx = str(uniq[-1])[:16] if len(uniq) else ""
            emit(name, -1, "stats", n_all, nn, lsum, mn, mx)
            if len(uniq):
                h = np.array(
                    [int.from_bytes(
                        hashlib.md5(str(u).encode()).digest()[:8], "big")
                     for u in uniq], dtype=np.uint64)
                bks = bucket_of(h, n_buckets)
                for b in np.unique(bks):
                    packed = h[bks == b].view(np.int64).tobytes()
                    emit(name, int(b), "hashes", 0, 0, 0,
                         packed.hex(), "")
        return pa.table({
            "col_name": pa.array(rows["col_name"], pa.string()),
            "bucket": pa.array(rows["bucket"], pa.int64()),
            "kind": pa.array(rows["kind"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "nulls": pa.array(rows["nulls"], pa.int64()),
            "lsum": pa.array(rows["lsum"], pa.int64()),
            "mn": pa.array(rows["mn"], pa.string()),
            "mx": pa.array(rows["mx"], pa.string())})

    def reduce_group(g: pa.Table) -> pa.Table:
        kind = g["kind"][0].as_py()
        cname = g["col_name"][0].as_py()
        mn_list = g["mn"].to_pylist()
        if kind == "hashes":
            hs = np.concatenate([
                np.frombuffer(bytes.fromhex(x), np.int64)
                for x in mn_list])
            return pa.table({
                "col_name": pa.array([cname]), "kind": pa.array([kind]),
                "n": pa.array([len(np.unique(hs))], pa.int64()),
                "nulls": pa.array([0], pa.int64()),
                "lsum": pa.array([0], pa.int64()),
                "mn": pa.array([""]), "mx": pa.array([""])})
        return pa.table({
            "col_name": pa.array([cname]), "kind": pa.array([kind]),
            "n": pa.array([int(pc.sum(g["n"]).as_py() or 0)], pa.int64()),
            "nulls": pa.array([int(pc.sum(g["nulls"]).as_py() or 0)],
                              pa.int64()),
            "lsum": pa.array([int(pc.sum(g["lsum"]).as_py() or 0)],
                             pa.int64()),
            "mn": pa.array([min(mn_list)]),
            "mx": pa.array([max(g["mx"].to_pylist())])})

    parts = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(PROFILE_COLUMNS)) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby(["col_name", "bucket", "kind"]) \
        .map_groups(reduce_group, batch_format="pyarrow").to_pandas()

    out = []
    for cname in PROFILE_COLUMNS:
        sub = parts[parts["col_name"] == cname]
        st = sub[sub["kind"] == "stats"]
        n = int(st["n"].sum())
        nulls = int(st["nulls"].sum())
        out.append({
            "col_name": cname, "n_rows": n, "n_nulls": nulls,
            "n_distinct": int(sub.loc[sub["kind"] == "hashes",
                                      "n"].sum()),
            "min_val": min(st["mn"]), "max_val": max(st["mx"]),
            "avg_len": float(_round6(int(st["lsum"].sum())
                                     / (n - nulls)))})
    return pd.DataFrame(out)
