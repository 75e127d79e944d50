"""Part / supplier dimension queries (TPC-H Q14/Q15/Q16 shapes).

These close the last table-coverage gap: `part` and `supplier` were
the only testdata tables no query touched. All three follow the
repo's broadcast-dimension discipline (ray.put the dim ONCE, look it
up per batch inside map_batches — never a shuffle join for a
dimension side) and the exact-cents parity rule: per-row revenue is
quantized half-away-from-zero to int64 cents BEFORE any wide sum, so
the aggregation is an order-free integer sum that matches the DuckDB
oracle bit-for-bit (the pattern proven by ops.relational.nation_revenue).

Scale note: `part`/`supplier` are dimension tables (|part| ~ 0.3% of
|lineitem| rows in TPC-H); the broadcast here ships partkey -> flag /
suppkey -> name arrays, a few bytes per dim row. If a deployment's
dim outgrows worker heaps, swap the broadcast for the partitioned
hash-join idiom in nation_revenue — the partial-aggregate front end
is unchanged.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from ..util import bucket_of, derive_buckets
from .relational import _fq, _p


def _cents(ext, disc) -> np.ndarray:
    """Per-row revenue extprice*(1-disc) as exact int64 cents,
    half-away-from-zero (revenue >= 0 so floor(x*100 + 0.5) is HAFZ —
    the oracle quantizes with the identical expression)."""
    rev = ext.to_numpy(zero_copy_only=False) * \
        (1.0 - disc.to_numpy(zero_copy_only=False))
    return np.floor(rev * 100.0 + 0.5).astype(np.int64)


def promo_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q14 shape, per ship-month: share of revenue from PROMO
    parts. lineitem |><| part via a broadcast partkey -> is_promo
    lookup; per-batch partial sums of (promo_cents, total_cents) per
    month; ONE tiny groupby over <= n_months rows."""
    import pyarrow.parquet as pq
    part = pq.read_table(_p(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy()
    promo = pc_equal_np(part["p_type"], "PROMO")
    # dense direct-index lookup when partkeys are 1..N (TPC-H layout),
    # else a searchsorted fallback
    dense = pk.min() >= 0 and pk.max() < 4 * len(pk) + 64
    if dense:
        flag = np.zeros(int(pk.max()) + 1, dtype=bool)
        flag[pk] = promo
        dim_ref = ray.put(("dense", flag))
    else:
        order = np.argsort(pk)
        dim_ref = ray.put(("sorted", pk[order], promo[order]))

    def partial(b: pa.Table, _dim=dim_ref) -> pa.Table:
        import pyarrow.compute as pc
        mode, *payload = ray.get(_dim)
        keys = b["l_partkey"].to_numpy()
        if mode == "dense":
            is_promo = payload[0][keys]
        else:
            spk, sflag = payload
            is_promo = sflag[np.searchsorted(spk, keys)]
        cents = _cents(b["l_extendedprice"], b["l_discount"])
        month = pc.strftime(b["l_shipdate"], format="%Y-%m")
        t = pa.table({"month": month,
                      "promo_cents": np.where(is_promo, cents, 0),
                      "total_cents": cents})
        g = pa.TableGroupBy(t, "month").aggregate(
            [("promo_cents", "sum"), ("total_cents", "sum")])
        return g.rename_columns(["month", "promo_cents", "total_cents"])

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("month").aggregate(
            Sum("promo_cents", alias_name="promo_cents"),
            Sum("total_cents", alias_name="total_cents"))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        p = df["promo_cents"].to_numpy().astype(np.float64)
        t = df["total_cents"].to_numpy().astype(np.float64)
        return pd.DataFrame({
            "month": df["month"],
            "promo_cents": df["promo_cents"].astype(np.int64),
            "total_cents": df["total_cents"].astype(np.int64),
            "promo_share": _fq(100.0 * p / t, 6)})

    return agg.map_batches(finalize, batch_format="pandas")


def pc_equal_np(col: pa.ChunkedArray, val: str) -> np.ndarray:
    import pyarrow.compute as pc
    return pc.equal(col, val).combine_chunks().to_numpy(zero_copy_only=False)


def top_suppliers(sf_dir: str, date_lo: str = "1996-01-01",
                  date_hi: str = "1996-04-01", k: int = 5) -> ray.data.Dataset:
    """TPC-H Q15 shape: top-k suppliers by revenue in a 3-month ship
    window. lineitem collapses to per-suppkey cents partials per batch
    -> one groupby over <= |supplier| rows -> broadcast s_name join ->
    sort + limit on the tiny result (deterministic tiebreak on
    s_suppkey)."""
    import pyarrow.parquet as pq
    lo = np.datetime64(date_lo).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype(np.int64)
    sup = pq.read_table(_p(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_name"]).to_pandas()
    sup_ref = ray.put(sup)

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        d = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")), pa.int64())
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        if b.num_rows == 0:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        t = pa.table({"l_suppkey": b["l_suppkey"],
                      "cents": _cents(b["l_extendedprice"], b["l_discount"])})
        g = pa.TableGroupBy(t, "l_suppkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_suppkey", "cents"])

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("l_suppkey").aggregate(Sum("cents", alias_name="cents"))

    class JoinSup:
        def __init__(self, ref):
            self.sup = ray.get(ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            j = df.merge(self.sup, left_on="l_suppkey", right_on="s_suppkey")
            return pd.DataFrame({
                "s_suppkey": j["s_suppkey"].astype(np.int64),
                "s_name": j["s_name"],
                "revenue": j["cents"].to_numpy().astype(np.float64) / 100.0})

    joined = agg.map_batches(JoinSup, batch_format="pandas", concurrency=2,
                             fn_constructor_kwargs={"ref": sup_ref})
    return joined.sort(["revenue", "s_suppkey"],
                       descending=[True, False]).limit(k)


def brand_type_stats(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q16 flavor (no partsupp in this corpus): per (p_brand,
    p_type): distinct parts shipped, total quantity, revenue. The
    distinct-part count is exact WITHOUT a high-cardinality groupby:
    per-batch partials collapse to one row per partkey seen, the wide
    exchange groups by splitmix(partkey) % n_buckets (bounded domain),
    each bucket merges its disjoint partkeys vectorized, and the final
    (brand, type) groupby sums disjoint per-bucket distinct counts."""
    n_buckets = derive_buckets(f"{sf_dir}/part.parquet", 256)
    import pyarrow.parquet as pq
    part = pq.read_table(_p(sf_dir, "part"),
                         columns=["p_partkey", "p_brand", "p_type"])
    pk = part["p_partkey"].to_numpy()
    dorder = np.argsort(pk, kind="stable")
    dim_ref = ray.put((pk[dorder],
                       part["p_brand"].to_numpy(zero_copy_only=False)[dorder],
                       part["p_type"].to_numpy(zero_copy_only=False)[dorder]))

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"l_partkey": b["l_partkey"],
                      "qty": b["l_quantity"],
                      "cents": _cents(b["l_extendedprice"], b["l_discount"])})
        g = pa.TableGroupBy(t, "l_partkey").aggregate(
            [("qty", "sum"), ("cents", "sum")])
        g = g.rename_columns(["l_partkey", "qty", "cents"])
        return g.append_column(
            "bucket", pa.array(bucket_of(g["l_partkey"].to_numpy(), n_buckets)))

    def bucket_merge(g: pa.Table) -> pa.Table:
        """Merge per-partkey partials within a bucket, attach brand and
        type from the broadcast dim (ray.get of a local ref is a
        plasma lookup, not a copy), and re-collapse to per-(brand,
        type) partials — n_parts is exact because partkeys are
        disjoint across buckets. Stable sorts keep within-key row
        order, so float sums add in the same sequence pandas did."""
        dpk, dbrand, dtype_ = ray.get(dim_ref)
        lk = g["l_partkey"].to_numpy()
        qty = g["qty"].to_numpy()
        cents = g["cents"].to_numpy()
        order = np.argsort(lk, kind="stable")
        lk, qty, cents = lk[order], qty[order], cents[order]
        if len(lk) == 0:
            return pa.table({"p_brand": pa.array([], pa.string()),
                             "p_type": pa.array([], pa.string()),
                             "n_parts": pa.array([], pa.int64()),
                             "qty": pa.array([], pa.float64()),
                             "cents": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.concatenate(([True], lk[1:] != lk[:-1])))
        lk = lk[starts]
        qty = np.add.reduceat(qty, starts)
        cents = np.add.reduceat(cents, starts)
        pos = np.clip(np.searchsorted(dpk, lk), 0, len(dpk) - 1)
        found = dpk[pos] == lk  # inner-join semantics
        lk, qty, cents, pos = lk[found], qty[found], cents[found], pos[found]
        brand, ptype = dbrand[pos], dtype_[pos]
        o2 = np.lexsort((ptype, brand))
        brand, ptype, qty, cents = brand[o2], ptype[o2], qty[o2], cents[o2]
        first = np.concatenate(
            ([True], (brand[1:] != brand[:-1]) | (ptype[1:] != ptype[:-1])))
        s2 = np.flatnonzero(first)
        return pa.table({
            "p_brand": pa.array(brand[s2], pa.string()),
            "p_type": pa.array(ptype[s2], pa.string()),
            "n_parts": pa.array(np.diff(np.append(s2, len(brand)))
                                .astype(np.int64)),
            "qty": pa.array(np.add.reduceat(qty, s2)),
            "cents": pa.array(np.add.reduceat(cents, s2).astype(np.int64))})

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_merge, batch_format="pyarrow")
    agg = merged.groupby(["p_brand", "p_type"]).aggregate(
        Sum("n_parts", alias_name="n_parts"),
        Sum("qty", alias_name="sum_qty"),
        Sum("cents", alias_name="cents"))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "p_brand": df["p_brand"], "p_type": df["p_type"],
            "n_parts": df["n_parts"].astype(np.int64),
            "sum_qty": _fq(df["sum_qty"], 2),
            "revenue": df["cents"].to_numpy().astype(np.float64) / 100.0})

    return agg.map_batches(finalize, batch_format="pandas")
