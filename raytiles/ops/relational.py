"""General relational operators, Ray-Data-first.

These demonstrate the engine's wide-operation patterns at 100 TB scale
(SURVEY §2.2 "Aggregations"/"Joins"):

- partial (combiner) aggregation inside map_batches BEFORE the groupby
  shuffle, so the all-to-all exchange moves one row per (key, batch)
  instead of one per input row; every one-input bucket exchange is
  ``util.exchange`` and every run scan over sorted keys
  ``util.run_starts``;
- broadcast hash joins: the small side is ray.put once and looked up
  per batch — never a shuffle join for dimension tables;
- top-k as aggregate + sort + limit on the already-tiny result.

Float determinism note: partial sums are accumulated with numpy
float64 and finalized in a single groupby; the DuckDB oracle computes
the same double sums — equal up to float addition order, so oracle
comparisons round where documented.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Sum

from ..util import (cached_ref, cogroup, derive_buckets, exchange, run_starts,
                    splitmix64, sum_by_key)


def _p(sf_dir: str, table: str) -> str:
    return f"{sf_dir}/{table}.parquet"


def _fq(x, k: int) -> np.ndarray:
    """Round half-away-from-zero to k decimals — DuckDB round()
    semantics. pandas .round() is half-even, a latent tie-case parity
    break vs the SQL oracles; floor-quantize is no fix for SUMS (it
    amplifies addition-order ulp noise at every 10^-k boundary), so
    the engine mirrors DuckDB's rounding rule explicitly instead."""
    q = 10.0 ** k
    v = np.asarray(x, dtype=np.float64) * q
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)) / q


def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-shaped pricing summary over lineitem (filter on
    l_shipdate, groupby returnflag+linestatus, sums/avgs/count) with a
    per-batch partial aggregate before the shuffle."""
    cutoff = np.datetime64("1998-09-02T00:00:00")
    _EMPTY_PARTIAL = pa.schema([
        ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
        ("s_qty", pa.float64()), ("s_base", pa.float64()),
        ("s_disc", pa.float64()), ("s_charge", pa.float64()),
        ("s_discount", pa.float64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        """Arrow-native combiner: pc kernels + one C++ hash aggregate
        per batch — the string key columns never round-trip through
        pandas object arrays."""
        import pyarrow.compute as pc
        b = batch.filter(pc.less_equal(batch["l_shipdate"], cutoff))
        if b.num_rows == 0:
            return _EMPTY_PARTIAL.empty_table()
        disc_price = pc.multiply(
            b["l_extendedprice"], pc.subtract(1.0, b["l_discount"]))
        charge = pc.multiply(disc_price, pc.add(1.0, b["l_tax"]))
        t = pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "s_qty": b["l_quantity"], "s_base": b["l_extendedprice"],
            "s_disc": disc_price, "s_charge": charge,
            "s_discount": b["l_discount"]})
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("s_qty", "sum"), ("s_base", "sum"), ("s_disc", "sum"),
             ("s_charge", "sum"), ("s_discount", "sum"), ("s_qty", "count")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "s_qty",
                                 "s_base", "s_disc", "s_charge",
                                 "s_discount", "n"])

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax",
                 "l_returnflag", "l_linestatus", "l_shipdate"])
    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("s_qty", alias_name="sum_qty"),
        Sum("s_base", alias_name="sum_base_price"),
        Sum("s_disc", alias_name="sum_disc_price"),
        Sum("s_charge", alias_name="sum_charge"),
        Sum("s_discount", alias_name="sum_discount"),
        Sum("n", alias_name="count_order"),
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["count_order"].astype(np.float64)
        out = pd.DataFrame({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": _fq(batch["sum_qty"], 4),
            "sum_base_price": _fq(batch["sum_base_price"], 2),
            "sum_disc_price": _fq(batch["sum_disc_price"], 2),
            "sum_charge": _fq(batch["sum_charge"], 2),
            "avg_qty": _fq(batch["sum_qty"] / n, 6),
            "avg_price": _fq(batch["sum_base_price"] / n, 6),
            "avg_disc": _fq(batch["sum_discount"] / n, 6),
            "count_order": batch["count_order"].astype(np.int64),
        })
        return out.sort_values(["l_returnflag", "l_linestatus"])

    return agg.map_batches(finalize, batch_format="pandas")


def top_customers(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Revenue per customer: orders x customer x nation with BOTH
    dimension tables broadcast (ray.put) into the orders scan; partial
    per-batch sums -> one small groupby -> top-k."""
    import pyarrow.parquet as pq
    cust = pq.read_table(_p(sf_dir, "customer"),
                         columns=["c_custkey", "c_name", "c_nationkey"]).to_pandas()
    nat = pq.read_table(_p(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    dim_ref = ray.put(dim[["c_custkey", "c_name", "n_name"]])

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, "o_custkey").aggregate(
            [("o_totalprice", "sum"), ("o_orderkey", "count")])
        return g.rename_columns(["o_custkey", "revenue", "n_orders"])

    orders = ray.data.read_parquet(_p(sf_dir, "orders"),
                                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    agg = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(
            Sum("revenue", alias_name="revenue"),
            Sum("n_orders", alias_name="n_orders"))

    def join_dims(batch: pd.DataFrame) -> pd.DataFrame:
        # a task fn on the worker-cached dim, not a 2-actor pool: the
        # pool's actors held both CPU slots of a num_cpus=2 session
        # and the aggregate feeding them never ran
        j = batch.merge(cached_ref(dim_ref), left_on="o_custkey",
                        right_on="c_custkey")
        return pd.DataFrame({
            "c_custkey": j["o_custkey"].astype(np.int64),
            "c_name": j["c_name"], "n_name": j["n_name"],
            "revenue": _fq(j["revenue"], 2),
            "n_orders": j["n_orders"].astype(np.int64)})

    joined = agg.map_batches(join_dims, batch_format="pandas")
    top = joined.sort(["revenue", "c_custkey"], descending=[True, False]).limit(k)
    return top


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour window per event_type: count + value sum/min/max
    (partial per batch, final groupby over (event_type, window))."""
    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = pa.table({"event_type": batch["event_type"],
                      "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                      "value": batch["value"]})
        g = pa.TableGroupBy(t, ["event_type", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum")])
        return g.rename_columns(["event_type", "window_start", "n", "s_value"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["ts", "event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "window_start"]).aggregate(
            Sum("n", alias_name="n_events"),
            Sum("s_value", alias_name="sum_value"),
        )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": batch["event_type"],
            # string timestamps: oracle-comparison-safe across ns/us units
            "window_start": batch["window_start"].dt.strftime("%Y-%m-%d %H:%M:%S"),
            "n_events": batch["n_events"].astype(np.int64),
            "sum_value": _fq(batch["sum_value"], 6),
        })

    return agg.map_batches(finalize, batch_format="pandas")


def events_sliding(sf_dir: str, window_min: int = 60, step_min: int = 15) -> ray.data.Dataset:
    """Sliding window (60 min window, 15 min step) per event_type:
    each event contributes to window_min/step_min windows — the
    explode-then-groupby formulation (no ordering requirement, pure
    partial aggregation before the shuffle)."""
    k = window_min // step_min
    step_us = step_min * 60_000_000

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        base = pc.floor_temporal(batch["ts"], multiple=step_min, unit="minute")
        parts = [pa.table({"event_type": batch["event_type"],
                           "window_start": pc.subtract(
                               base, pa.scalar(step_us * i, pa.duration("us"))),
                           "value": batch["value"]}) for i in range(k)]
        ex = pa.concat_tables(parts)
        g = pa.TableGroupBy(ex, ["event_type", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum")])
        return g.rename_columns(["event_type", "window_start", "n", "s_value"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["ts", "event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "window_start"]).aggregate(
            Sum("n", alias_name="n_events"),
            Sum("s_value", alias_name="sum_value"))

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": batch["event_type"],
            "window_start": batch["window_start"].dt.strftime("%Y-%m-%d %H:%M:%S"),
            "n_events": batch["n_events"].astype(np.int64),
            "sum_value": _fq(batch["sum_value"], 6),
        })

    return agg.map_batches(finalize, batch_format="pandas")


def events_sessions(sf_dir: str, gap_min: int = 30) -> ray.data.Dataset:
    """Gap-based sessionization per user (session breaks when the gap
    to the previous event exceeds gap_min), bucketed: users hash into
    a BOUNDED 256-bucket key (never groupby(user_id) — one Python
    map_groups call per user is the per-group scheduling anti-pattern
    at 10^9 users), and one vectorized sort+diff pass sessionizes ALL
    users in a bucket together. Order within equal ts is pinned by
    event_id so the oracle matches deterministically."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    gap_us = np.int64(gap_min) * 60_000_000

    def sessionize_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].cast(pa.int64()).to_numpy()  # us
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        brk = run_starts(uid) | (np.diff(ts, prepend=ts[:1]) > gap_us)
        starts = np.flatnonzero(brk)
        # sessions are contiguous and ts-ascending after the sort, so
        # first == min and reduceat's sequential adds match pandas'
        # sequential group_add bit-for-bit
        n_ev = np.diff(np.append(starts, len(uid)))
        sval = np.add.reduceat(g["value"].to_numpy()[order], starts) \
            if len(uid) else np.zeros(0, np.float64)
        return pa.table({
            "user_id": pa.array(uid[starts].astype(np.int64)),
            "session_start": pc.strftime(
                # timestamp[s]: pyarrow %S on [us] appends ".000000"
                pa.array((ts[starts] // 1_000_000).astype("datetime64[s]")),
                format="%Y-%m-%d %H:%M:%S"),
            "n_events": pa.array(n_ev.astype(np.int64)),
            "sum_value": pa.array(_fq(sval, 6)),
        })

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_id", "ts", "user_id", "value"])
    return exchange(ds, "user_id", sessionize_bucket, n_buckets)


def events_asof(sf_dir: str, left_type: str = "purchase",
                right_type: str = "click") -> ray.data.Dataset:
    """As-of join, an operator Ray Data has no primitive for: each
    ``left_type`` event is joined to the latest ``right_type`` event
    of the SAME user strictly earlier in ``(ts, event_id)`` order
    (the event_id tiebreak pins equal timestamps deterministically —
    same contract as the oracle's ROWS ... 1 PRECEDING window).

    Composition, per the custom-operator ladder (SURVEY §2.2): a
    column-pruned read, a bounded user-hash bucket key (never a
    groupby on raw user_id), then ONE shuffle and a whole-bucket
    vectorized pass: lexsort by (user, ts, event_id), mark right-type
    rows with their own position, and a segment-reset running maximum
    (one np.maximum.accumulate over bucket-offset keys) yields every
    left row's predecessor without any per-user loop. Timestamps
    travel as epoch microseconds (int64) so engine and oracle hash
    identically."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def asof_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        is_right = np.asarray(g["event_type"]) == right_type
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, is_right = uid[order], ts[order], eid[order], is_right[order]
        n = len(uid)
        if n == 0:
            return pa.table({"event_id": np.empty(0, np.int64),
                             "user_id": np.empty(0, np.int64),
                             "ts_us": np.empty(0, np.int64),
                             "prior_event_id": np.empty(0, np.int64),
                             "prior_ts_us": np.empty(0, np.int64),
                             "gap_us": np.empty(0, np.int64)})
        seg = np.cumsum(run_starts(uid)) - 1
        # right rows carry their own position + 1; the running max of
        # seg*(n+1) + that never crosses a user boundary undetected
        # because seg is the high digit
        r = np.where(is_right, np.arange(1, n + 1), 0)
        run = np.maximum.accumulate(seg * (n + 1) + r)
        prior_pos = run % (n + 1) - 1           # -1: none yet
        prior_seg = run // (n + 1)
        ok = (~is_right) & (prior_pos >= 0) & (prior_seg == seg)
        li = np.flatnonzero(ok)
        pi = prior_pos[li]
        return pa.table({
            "event_id": eid[li].astype(np.int64),
            "user_id": uid[li].astype(np.int64),
            "ts_us": ts[li],
            "prior_event_id": eid[pi].astype(np.int64),
            "prior_ts_us": ts[pi],
            "gap_us": ts[li] - ts[pi]})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "event_type"],
        filter=pc.field("event_type").isin([left_type, right_type]))
    return exchange(ds, "user_id", asof_bucket, n_buckets)


def _order_revenue_sides(sf_dir: str, status: str):
    """The two sides of ``order_revenue`` and ``order_revenue_left``:
    lineitem per-batch per-order revenue partials (l_orderkey, rev,
    n), the status-filtered orders (o_orderkey, o_custkey,
    orderdate_us), and the per-order merge of the partials that runs
    inside each co-group bucket."""
    def li_partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(1.0, b["l_discount"]))
        t = pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})
        g = pa.TableGroupBy(t, "l_orderkey").aggregate(
            [("rev", "sum"), ("rev", "count")])
        return g.rename_columns(["l_orderkey", "rev", "n"])

    def li_merge(g: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(g, "l_orderkey") \
            .aggregate([("rev", "sum"), ("n", "sum")])
        t = t.rename_columns(["l_orderkey", "rev", "n_items"])
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev": t["rev"],
                         "n_items": pc.cast(t["n_items"], pa.int64())})

    def ord_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderstatus"], status))
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_custkey": b["o_custkey"],
            "orderdate_us": pc.cast(
                pc.cast(b["o_orderdate"], pa.timestamp("us")), pa.int64())})

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(li_partial, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_orderdate"]) \
        .map_batches(ord_filter, batch_format="pyarrow")
    return li, orders, li_merge


def order_revenue(sf_dir: str, status: str = "O") -> ray.data.Dataset:
    """Distributed BIG x BIG equi-join: per-order lineitem revenue
    joined to open orders. Neither side broadcasts — lineitem first
    collapses to per-order partials per batch (Arrow hash aggregate),
    and the partials meet the status-filtered orders in ONE bounded
    splitmix(orderkey) bucket exchange (``util.cogroup``): each bucket
    merges its partials to exact per-order revenue, then joins them
    to its orders — never a raw groupby on the high-cardinality key.

    Revenue is rounded half-away-from-zero to 2 decimals (_fq): the
    per-order addend count is tiny (<= ~13 lineitems) so engine and
    oracle sums agree far beyond 2 decimals regardless of addition
    order. o_orderdate travels as epoch microseconds (int64) so the
    hashes match exactly."""
    n_buckets = derive_buckets(f"{sf_dir}/lineitem.parquet", 256)
    li, orders, li_merge = _order_revenue_sides(sf_dir, status)

    def merge_join(l: pa.Table, o: pa.Table) -> pa.Table:
        return li_merge(l).join(o, keys="l_orderkey",
                                right_keys="o_orderkey", join_type="inner")

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"].astype(np.int64),
            "o_custkey": b["o_custkey"].astype(np.int64),
            "orderdate_us": b["orderdate_us"].astype(np.int64),
            "revenue": _fq(b["rev"], 2),
            "n_items": b["n_items"].astype(np.int64)})

    return cogroup(li, orders, "l_orderkey", "o_orderkey", merge_join,
                   n_buckets).map_batches(finalize, batch_format="pandas")


def order_revenue_left(sf_dir: str, status: str = "O") -> ray.data.Dataset:
    """LEFT OUTER variant of ``order_revenue``: EVERY status-filtered
    order appears, orders with no lineitems carrying revenue 0.00 /
    n_items 0 — the null-preserving join shape (reporting joins,
    slowly-filling fact tables) the inner join can't express.

    Same distributed plan — lineitem per-order partials and orders
    meet in one bucket exchange, and each bucket merges its partials
    before the join, so the outer join's probe side is one row per
    order, not one per lineitem — with orders as the preserved (left)
    side of each bucket's Arrow join and a vectorized null-fill
    finalizer."""
    n_buckets = derive_buckets(f"{sf_dir}/lineitem.parquet", 256)
    li, orders, li_merge = _order_revenue_sides(sf_dir, status)

    def join_merged(o: pa.Table, l: pa.Table) -> pa.Table:
        return o.join(li_merge(l), keys="o_orderkey",
                      right_keys="l_orderkey", join_type="left outer")

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        rev = b["rev"].to_numpy(dtype=np.float64, na_value=0.0)
        n_items = b["n_items"].to_numpy(dtype=np.float64, na_value=0.0)
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"].astype(np.int64),
            "o_custkey": b["o_custkey"].astype(np.int64),
            "orderdate_us": b["orderdate_us"].astype(np.int64),
            "revenue": _fq(rev, 2),
            "n_items": n_items.astype(np.int64)})

    return cogroup(orders, li, "o_orderkey", "l_orderkey", join_merged,
                   n_buckets).map_batches(finalize, batch_format="pandas")


def nation_revenue(sf_dir: str, date_lo: str = "1996-01-01",
                   date_hi: str = "1997-01-01") -> ray.data.Dataset:
    """Multi-way join (TPC-H Q5 shape): yearly revenue per nation =
    lineitem |><| orders |><| customer |><| nation.

    The join pipeline mixes both distributed-join idioms by side size:

    - lineitem (the biggest table) never reaches the join at raw
      cardinality — it collapses to per-order revenue partials per
      batch (Arrow hash aggregate) exactly like ``order_revenue``;
    - the lineitem partials and the date-filtered orders meet in ONE
      bounded-bucket exchange (``util.cogroup``); each bucket merges
      its partials to per-order revenue and joins them to its orders
      (BIG x BIG, no aggregator actors);
    - customer and nation are DIMENSIONS: joined driver-side into one
      custkey -> n_name map, ray.put once, looked up per batch — a
      broadcast join, never a shuffle.

    Exactness: per-order revenue (<= ~13 float64 addends) is quantized
    half-away-from-zero to INT64 cents BEFORE the per-nation sum, so
    the wide aggregation is an order-free integer sum, and the
    oracle's SUM runs over identically quantized cents. The per-order
    float sum is NOT layout-free: ``li_partial`` sums an order's lines
    per lineitem batch and the merge sums those partials, so an order
    split across batches adds its floats in another order, and a
    revenue near a half cent can quantize the other way (in a 4-CPU
    session 2 of 25 nations are one cent off the oracle)."""
    n_buckets = derive_buckets(f"{sf_dir}/lineitem.parquet", 256)
    import pyarrow.parquet as pq

    lo = np.datetime64(date_lo).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(date_hi).astype("datetime64[us]").astype(np.int64)

    def li_partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(1.0, b["l_discount"]))
        t = pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})
        g = pa.TableGroupBy(t, "l_orderkey").aggregate([("rev", "sum")])
        return g.rename_columns(["l_orderkey", "rev"])

    def merge_join(l: pa.Table, o: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(l, "l_orderkey").aggregate([("rev", "sum")])
        t = t.rename_columns(["l_orderkey", "rev"])
        # exact per-order revenue -> int64 cents, half-away-from-zero
        # (revenue >= 0 so floor(x*100 + 0.5) IS half-away-from-zero;
        # the oracle quantizes with the identical expression)
        cents = np.floor(t["rev"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"], "cents": cents}) \
            .join(o, keys="l_orderkey", right_keys="o_orderkey",
                  join_type="inner")

    def ord_filter(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")), pa.int64())
        m = pc.and_(pc.greater_equal(d, lo), pc.less(d, hi))
        b = b.filter(m)
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "o_custkey": b["o_custkey"]})

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"]) \
        .map_batches(li_partial, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(ord_filter, batch_format="pyarrow")
    j = cogroup(li, orders, "l_orderkey", "o_orderkey", merge_join, n_buckets)

    # dimension side: customer |><| nation folded to ONE broadcast map
    cust = pq.read_table(_p(sf_dir, "customer"),
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(_p(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"])
    dim = cust.to_pandas().merge(
        nat.to_pandas(), left_on="c_nationkey", right_on="n_nationkey")
    keys = dim["c_custkey"].to_numpy(np.int64)
    order = np.argsort(keys, kind="stable")
    dim_ref = ray.put((keys[order], dim["n_name"].to_numpy()[order]))

    def nation_partial(b: pa.Table) -> pa.Table:
        """Broadcast custkey -> n_name lookup + per-batch partial sum:
        each batch leaves as <= 25 (nation, cents, n) rows. A task fn
        on the worker-cached dim, not a 2-actor pool: the pool's
        actors held both CPU slots of a num_cpus=2 session."""
        keys, names = cached_ref(dim_ref)
        ck = b["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, ck)
        pos = np.clip(pos, 0, len(keys) - 1)
        # synth FKs are complete; guard anyway (drop misses)
        ok = keys[pos] == ck
        t = pa.table({"n_name": pa.array(names[pos][ok]),
                      "cents": pa.array(
                          b["cents"].to_numpy(zero_copy_only=False)[ok]),
                      "one": pa.array(np.ones(int(ok.sum()), np.int64))})
        g = pa.TableGroupBy(t, "n_name").aggregate(
            [("cents", "sum"), ("one", "sum")])
        return g.rename_columns(["n_name", "cents", "n"])

    partials = j.map_batches(nation_partial, batch_format="pyarrow")

    # <= 25 rows per block after the partial: a third hash-shuffle's
    # aggregator-actor spin-up would dominate — coalesce + one narrow
    # merge instead (the sketch-family tiny-merge idiom)
    def finalize(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, "n_name").aggregate(
            [("cents", "sum"), ("n", "sum")])
        g = g.rename_columns(["n_name", "revenue_cents", "n_orders"])
        order = pc.sort_indices(g["n_name"])
        return pa.table({
            "n_name": pc.take(g["n_name"], order),
            "revenue_cents": pc.cast(pc.take(g["revenue_cents"], order),
                                     pa.int64()),
            "n_orders": pc.cast(pc.take(g["n_orders"], order), pa.int64())})

    return partials.repartition(1).map_batches(
        finalize, batch_format="pyarrow")


def small_quantity_revenue(sf_dir: str, brand: str = "Brand#4",
                           factor: float = 0.5) -> ray.data.Dataset:
    """Correlated-aggregate join (TPC-H Q17 shape): revenue from
    lineitems of one brand's parts whose quantity is below
    ``factor * (that part's own average quantity)`` — the correlated
    subquery ``l_quantity < f * (SELECT avg(l_quantity) ... WHERE
    l2.l_partkey = l_partkey)`` DECORRELATED into a two-pass
    broadcast plan:

    pass 1: brand partkeys (dimension, driver-read, ray.put) prune
    lineitem BEFORE the per-part aggregate, so the bounded-bucket
    shuffle moves only the brand's rows; the resulting per-part
    (sum_qty, n) table is model-sized and broadcasts back;
    pass 2: a shuffle-free scan compares each row against its part's
    threshold via searchsorted lookup and folds exact integer-cent
    partials.

    Parity: the threshold ``factor * (sq / n)`` is the identical
    double op sequence as the oracle; revenue is per-row quantized to
    INT64 cents before summing (order-free exact)."""
    n_buckets = derive_buckets(f"{sf_dir}/part.parquet", 256)
    import pyarrow.parquet as pq

    part_keys = np.sort(pq.read_table(
        _p(sf_dir, "part"),
        columns=["p_partkey", "p_brand"],
        filters=[("p_brand", "=", brand)])["p_partkey"].to_numpy())
    keys_ref = ray.put(part_keys)

    def qty_partial(b: pa.Table) -> pa.Table:
        pk = ray.get(keys_ref)
        lk = b["l_partkey"].to_numpy()
        if len(pk):
            pos = np.clip(np.searchsorted(pk, lk), 0, len(pk) - 1)
            mask = pk[pos] == lk
        else:
            mask = np.zeros(len(lk), bool)
        b = b.filter(pa.array(mask))
        t = pa.table({"l_partkey": b["l_partkey"],
                      "sq": b["l_quantity"],
                      "n": np.ones(b.num_rows, np.int64)})
        g = pa.TableGroupBy(t, "l_partkey").aggregate(
            [("sq", "sum"), ("n", "sum")])
        return g.rename_columns(["l_partkey", "sq", "n"])

    def qty_merge(g: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(g.select(["l_partkey", "sq", "n"]),
                            "l_partkey") \
            .aggregate([("sq", "sum"), ("n", "sum")])
        return t.rename_columns(["l_partkey", "sq", "n"])

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    agg = exchange(ray.data.read_parquet(_p(sf_dir, "lineitem"),
                                         columns=["l_partkey", "l_quantity"])
                   .map_batches(qty_partial, batch_format="pyarrow"),
                   "l_partkey", qty_merge, n_buckets) \
        .to_pandas()  # bounded: <= |brand parts| rows (a dimension)
    order = np.argsort(agg["l_partkey"].to_numpy(), kind="stable")
    thr = (factor * (agg["sq"].to_numpy(np.float64)
                     / agg["n"].to_numpy(np.float64)))[order]
    thr_ref = ray.put((agg["l_partkey"].to_numpy(np.int64)[order], thr))

    def score(b: pa.Table) -> pa.Table:
        pk, th = ray.get(thr_ref)
        lk = b["l_partkey"].to_numpy()
        if len(pk) == 0:
            return pa.table({"n_items": np.zeros(1, np.int64),
                             "sum_cents": np.zeros(1, np.int64)})
        pos = np.searchsorted(pk, lk)
        pos = np.clip(pos, 0, len(pk) - 1)
        hit = pk[pos] == lk
        q = b["l_quantity"].to_numpy()
        keep = hit & (q < th[pos])
        cents = np.floor(
            b["l_extendedprice"].to_numpy()[keep] * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({
            "n_items": np.array([int(keep.sum())], np.int64),
            "sum_cents": np.array([int(cents.sum())], np.int64)})

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_items": pa.array(
                [pc.sum(b["n_items"]).as_py() or 0], pa.int64()),
            "sum_cents": pa.array(
                [pc.sum(b["sum_cents"]).as_py() or 0], pa.int64())})

    return ray.data.read_parquet(_p(sf_dir, "lineitem"), columns=li_cols) \
        .map_batches(score, batch_format="pyarrow") \
        .repartition(1).map_batches(finalize, batch_format="pyarrow")


def cohort_revenue_full(sf_dir: str, year_a: int = 1996,
                        year_b: int = 1999) -> ray.data.Dataset:
    """FULL OUTER join: one row per customer active in EITHER buying
    cohort (year_a or year_b), with both sides' revenue — the
    year-over-year retention/churn report shape where neither side
    may be dropped (customers who churned, customers newly acquired,
    and retained customers all appear).

    Each side collapses to per-customer partials per batch (per-row
    INT64-cent quantization -> per-batch hash-agg); both sides meet in
    ONE bounded splitmix(custkey) bucket exchange (``util.cogroup``),
    where each bucket merges each side to exact per-customer totals
    and full-outer joins them — one row per (customer, side) reaches
    the join; the finalizer null-fills the missing side with zeros.
    Both null directions are exercised by construction (disjoint
    cohort members exist on each side)."""
    n_buckets = derive_buckets(f"{sf_dir}/orders.parquet", 256)

    def window(year: int):
        lo = np.datetime64(f"{year}-01-01").astype("datetime64[us]") \
            .astype(np.int64)
        hi = np.datetime64(f"{year + 1}-01-01").astype("datetime64[us]") \
            .astype(np.int64)
        return lo, hi

    def side(year: int, key: str, cents_col: str, n_col: str):
        lo, hi = window(year)

        def partial(b: pa.Table) -> pa.Table:
            d = pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")),
                        pa.int64())
            b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
            # per-ROW exact quantization (identical op in the oracle),
            # then integer sums — order-free exact end-to-end
            cents = np.floor(
                b["o_totalprice"].to_numpy() * 100.0 + 0.5).astype(np.int64)
            t = pa.table({key: b["o_custkey"],
                          cents_col: cents,
                          n_col: np.ones(b.num_rows, np.int64)})
            g = pa.TableGroupBy(t, key).aggregate(
                [(cents_col, "sum"), (n_col, "sum")])
            return g.rename_columns([key, cents_col, n_col])

        return ray.data.read_parquet(
            _p(sf_dir, "orders"),
            columns=["o_custkey", "o_orderdate", "o_totalprice"]) \
            .map_batches(partial, batch_format="pyarrow")

    def merge(g: pa.Table) -> pa.Table:
        key, cents_col, n_col = g.column_names
        t = pa.TableGroupBy(g, key) \
            .aggregate([(cents_col, "sum"), (n_col, "sum")])
        t = t.rename_columns([key, cents_col, n_col])
        return pa.table({key: t[key],
                         cents_col: pc.cast(t[cents_col], pa.int64()),
                         n_col: pc.cast(t[n_col], pa.int64())})

    def merge_join(a: pa.Table, b: pa.Table) -> pa.Table:
        return merge(a).join(merge(b), keys="ck_a", right_keys="ck_b",
                             join_type="full outer")

    j = cogroup(side(year_a, "ck_a", "cents_a", "n_a"),
                side(year_b, "ck_b", "cents_b", "n_b"),
                "ck_a", "ck_b", merge_join, n_buckets)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        # Arrow's full outer join emits the join key ONCE, coalesced
        # into the left key column — ck_a is non-null for every row
        out = pd.DataFrame({
            "o_custkey": df["ck_a"].to_numpy(dtype=np.float64)
                .astype(np.int64),
            "cents_a": df["cents_a"].to_numpy(dtype=np.float64,
                                              na_value=0.0).astype(np.int64),
            "n_a": df["n_a"].to_numpy(dtype=np.float64,
                                      na_value=0.0).astype(np.int64),
            "cents_b": df["cents_b"].to_numpy(dtype=np.float64,
                                              na_value=0.0).astype(np.int64),
            "n_b": df["n_b"].to_numpy(dtype=np.float64,
                                      na_value=0.0).astype(np.int64)})
        return out

    return j.map_batches(finalize, batch_format="pandas")


def group_stats(sf_dir: str) -> ray.data.Dataset:
    """Grouped second-moment statistics: per (l_returnflag): count,
    covariance and Pearson correlation of (l_quantity,
    l_extendedprice) — the moment-sketch shape (n, Sx, Sy, Sxx, Syy,
    Sxy) every distributed stats library builds on: per-batch partial
    moment rows (one Arrow hash aggregate per batch, <= 3 rows out),
    an order-free Sum merge over the tiny bounded key domain, and a
    closed-form finalizer.

    Parity: the six moment sums are float64 on both sides (addition
    order differs engine vs oracle, relative noise ~1e-12); the
    finalizer applies the IDENTICAL double op sequence as the oracle
    SQL and floor-quantizes cov/corr to micro units, 4+ orders of
    magnitude above the noise floor."""
    _EMPTY = pa.schema([
        ("l_returnflag", pa.string()), ("n", pa.int64()),
        ("sx", pa.float64()), ("sy", pa.float64()), ("sxx", pa.float64()),
        ("syy", pa.float64()), ("sxy", pa.float64())])

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if b.num_rows == 0:
            return _EMPTY.empty_table()
        x = b["l_quantity"]
        y = b["l_extendedprice"]
        t = pa.table({
            "l_returnflag": b["l_returnflag"],
            "one": pa.array(np.ones(b.num_rows, np.int64)),
            "sx": x, "sy": y,
            "sxx": pc.multiply(x, x), "syy": pc.multiply(y, y),
            "sxy": pc.multiply(x, y)})
        g = pa.TableGroupBy(t, "l_returnflag").aggregate(
            [("one", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
        return g.rename_columns(
            ["l_returnflag", "n", "sx", "sy", "sxx", "syy", "sxy"])

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("l_returnflag").aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"), Sum("sxy", alias_name="sxy"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        # identical double op sequence as the oracle SQL twin
        n = b["n"].to_numpy(np.float64)
        sx = b["sx"].to_numpy(np.float64)
        sy = b["sy"].to_numpy(np.float64)
        cov = (b["sxy"].to_numpy(np.float64) - sx * sy / n) / n
        vx = (b["sxx"].to_numpy(np.float64) - sx * sx / n) / n
        vy = (b["syy"].to_numpy(np.float64) - sy * sy / n) / n
        corr = cov / np.sqrt(vx * vy)
        return pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "n": b["n"].astype(np.int64),
            "mean_qty_micro": np.floor(sx / n * 1e6).astype(np.int64),
            "cov_micro": np.floor(cov * 1e6).astype(np.int64),
            "corr_micro": np.floor(corr * 1e6).astype(np.int64),
        }).sort_values("l_returnflag")

    return agg.map_batches(finalize, batch_format="pandas")


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_features(sf_dir: str) -> ray.data.Dataset:
    """Per-user feature vector (pivot / one-hot aggregation — the
    feature-engineering step before model training): one row per user
    with a count column per event type plus the value sum.

    Per-batch partial: ONE Arrow hash-aggregate per batch keyed by
    user with a pre-pivoted count column per type (boolean masks cast
    to int — no per-type pass over the batch), so the shuffle moves
    one 7-column row per (user, batch). Final: bounded-bucket groupby
    on splitmix(user_id), vectorized sum-merge per user."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    cols = [f"n_{t}" for t in EVENT_TYPES]

    def partial(b: pa.Table) -> pa.Table:
        t = {"user_id": b["user_id"], "value": b["value"]}
        for name in EVENT_TYPES:
            t[f"n_{name}"] = pc.cast(
                pc.equal(b["event_type"], name), pa.int64())
        g = pa.TableGroupBy(pa.table(t), "user_id").aggregate(
            [(c, "sum") for c in cols] + [("value", "sum")])
        return g.rename_columns(["user_id"] + cols + ["sum_value"])

    def merge(g: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(
            g.select(["user_id"] + cols + ["sum_value"]), "user_id") \
            .aggregate([(c, "sum") for c in cols] + [("sum_value", "sum")])
        t = t.rename_columns(["user_id"] + cols + ["sum_value"])
        out = {"user_id": t["user_id"]}
        for c in cols:
            out[c] = pc.cast(t[c], pa.int64())
        out["sum_value"] = pa.array(_fq(t["sum_value"].to_numpy(), 6))
        return pa.table(out)

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "event_type", "value"])
    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    "user_id", merge, n_buckets)


def funnel_conversion(sf_dir: str) -> ray.data.Dataset:
    """Funnel / sequence-match: for every user with a signup, the
    first purchase STRICTLY after their first signup (user_id,
    signup_us, conv_us [-1 if none], converted) — the ordered-event
    conversion operator windows can't express without a join.

    Read prunes to the two funnel event types (row filter pushed to
    the parquet scan); rows shuffle once on a bounded splitmix(user)
    bucket; the per-bucket finalizer is one lexsort + segment
    minimum.reduceat over masked timestamps — no per-user loop."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts_us": pc.cast(b["ts"], pa.int64()),
            "is_purchase": pc.equal(b["event_type"], "purchase")})

    _EMPTY = pa.schema([("user_id", pa.int64()), ("signup_us", pa.int64()),
                        ("conv_us", pa.int64()), ("converted", pa.bool_())])

    def final(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        isp = g["is_purchase"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts, isp = uid[order], ts[order], isp[order]
        new = run_starts(uid)
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        big = np.iinfo(np.int64).max
        # first signup ts per user (inf-masked purchases)
        s_ts = np.where(isp, big, ts)
        signup = np.minimum.reduceat(s_ts, starts)
        has_signup = signup != big
        # first purchase strictly after the user's first signup
        p_ts = np.where(isp & (ts > signup[seg]), ts, big)
        conv = np.minimum.reduceat(p_ts, starts)
        keep = has_signup
        if not keep.any():
            return _EMPTY.empty_table()
        converted = conv[keep] != big
        return pa.table({
            "user_id": uid[starts][keep],
            "signup_us": signup[keep],
            "conv_us": np.where(converted, conv[keep], -1),
            "converted": converted})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_type"],
        filter=(pa.compute.field("event_type") == "signup")
        | (pa.compute.field("event_type") == "purchase"))
    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "user_id", final, n_buckets)


def urgent_revenue(sf_dir: str, priority: str = "1-URGENT",
                   n_bits: int = 1 << 20,
                   n_hashes: int = 4) -> ray.data.Dataset:
    """Bloom-prefiltered semi-join: lineitem revenue restricted to
    orders of the given priority, grouped by l_returnflag —
    (l_returnflag, n_items, revenue).

    The 100 TB shuffle-reduction pattern: when the build-side key set
    is too big to broadcast exactly but its BLOOM FILTER is not, probe
    rows that cannot match are dropped BEFORE the exchange, so the
    shuffle moves ~|semi-join| rows instead of |lineitem|. Exactness
    never depends on the bloom: survivors are verified against the
    true key set in a bounded-bucket join, so false positives are
    removed and the DuckDB twin (plain IN-subquery) matches exactly.

    Stages: (1) build — read-pruned urgent orders stream per-batch
    DISTINCT bloom bit positions (splitmix64 double hashing, k probes)
    which the driver ORs into the fixed-size bitmap (n_bits/8 bytes —
    the one driver-side materialization, bounded by the filter size by
    construction) and `ray.put`s once; (2) probe — each lineitem batch
    tests membership vectorized (k gather+mask passes), then collapses
    survivors to per-(orderkey, returnflag) partial sums; (3) verify —
    build keys and probe partials meet in a bounded splitmix(orderkey)
    bucket, one np.isin drops bloom false positives, partials collapse
    per returnflag; (4) a final 3-row groupby sums the buckets."""
    n_buckets = derive_buckets(f"{sf_dir}/orders.parquet", 256)

    mask = np.uint64(n_bits - 1)
    seeds = np.arange(1, n_hashes + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15)

    def _positions(keys: np.ndarray) -> np.ndarray:
        """(n_hashes, n) bloom bit positions via double hashing."""
        k = keys.astype(np.uint64)
        h1 = splitmix64(k)
        h2 = splitmix64(k ^ np.uint64(0xD6E8FEB86659FD93)) | np.uint64(1)
        return (h1[None, :] + seeds[:, None] * h2[None, :]) & mask

    def build_partial(b: pa.Table) -> pa.Table:
        pos = np.unique(_positions(b["o_orderkey"].to_numpy()))
        return pa.table({"pos": pos.astype(np.int64)})

    build = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey"],
        filter=pa.compute.field("o_orderpriority") == priority)
    bits = np.zeros(n_bits >> 3, np.uint8)
    for nb in build.map_batches(
            build_partial, batch_format="pyarrow").iter_batches(
            batch_format="numpy"):
        p = nb["pos"].astype(np.uint64)
        np.bitwise_or.at(bits, p >> np.uint64(3),
                         (np.uint8(1) << (p & np.uint64(7)).astype(np.uint8)))
    bloom_ref = ray.put(bits)

    _SCHEMA = pa.schema([
        ("orderkey", pa.int64()), ("l_returnflag", pa.string()),
        ("s_price", pa.float64()), ("n", pa.int64())])

    def probe(b: pa.Table) -> pa.Table:
        blm = ray.get(bloom_ref)
        key = b["l_orderkey"].to_numpy()
        pos = _positions(key)
        member = np.ones(len(key), bool)
        for i in range(n_hashes):
            p = pos[i]
            member &= (blm[p >> np.uint64(3)]
                       >> (p & np.uint64(7)).astype(np.uint8)) & 1 > 0
        if not member.any():
            return _SCHEMA.empty_table()
        t = pa.table({
            "orderkey": pa.array(key[member].astype(np.int64)),
            "l_returnflag": b["l_returnflag"].filter(pa.array(member)),
            "s_price": b["l_extendedprice"].filter(pa.array(member))})
        g = pa.TableGroupBy(t, ["orderkey", "l_returnflag"]).aggregate(
            [("s_price", "sum"), ("s_price", "count")])
        g = g.rename_columns(["orderkey", "l_returnflag", "s_price", "n"])
        return pa.table({
            "orderkey": g["orderkey"], "l_returnflag": g["l_returnflag"],
            "s_price": g["s_price"],
            "n": pc.cast(g["n"], pa.int64())}, schema=_SCHEMA)

    def verify(keys: pa.Table, g: pa.Table) -> pa.Table:
        keep = np.isin(g["orderkey"].to_numpy(), keys["o_orderkey"].to_numpy())
        if not keep.any():
            return pa.schema([("l_returnflag", pa.string()),
                              ("s_price", pa.float64()),
                              ("n", pa.int64())]).empty_table()
        t = g.filter(pa.array(keep)).select(["l_returnflag", "s_price", "n"])
        m = pa.TableGroupBy(t, "l_returnflag").aggregate(
            [("s_price", "sum"), ("n", "sum")])
        return m.rename_columns(["l_returnflag", "s_price", "n"])

    probe_ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice"]) \
        .map_batches(probe, batch_format="pyarrow")
    parts = cogroup(build, probe_ds, "o_orderkey", "orderkey", verify,
                    n_buckets)
    agg = parts.groupby("l_returnflag").aggregate(
        Sum("s_price", alias_name="s"), Sum("n", alias_name="n_items"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "n_items": b["n_items"].astype(np.int64),
            "revenue": _fq(b["s"], 2)})

    return agg.map_batches(finalize, batch_format="pandas")


def running_revenue(sf_dir: str) -> ray.data.Dataset:
    """Cumulative window: per customer, orders by (o_orderdate,
    o_orderkey) with the running revenue total — (o_custkey,
    o_orderkey, order_us, cum_revenue). The ordered-prefix aggregate
    (SUM OVER PARTITION BY ... ORDER BY ...) the tumbling/sliding/
    session windows don't cover.

    One bounded splitmix(custkey) bucket shuffle; per bucket a single
    lexsort + whole-bucket cumsum with a per-segment offset subtract —
    no per-customer loop. Prices are exact 2-decimal values, so the
    engine accumulates in INTEGER cents (exact; no float addition-order
    hazard); the oracle's windowed double sum rounded to 2 decimals
    equals the cents value while accumulated fp error < half a cent,
    i.e. for any realistic per-customer prefix."""
    n_buckets = derive_buckets(f"{sf_dir}/orders.parquet", 256)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
            "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
            "order_us": pc.cast(b["o_orderdate"], pa.int64()),
            "price": b["o_totalprice"]})

    def final(g: pa.Table) -> pa.Table:
        cust = g["o_custkey"].to_numpy()
        okey = g["o_orderkey"].to_numpy()
        ts = g["order_us"].to_numpy()
        price = g["price"].to_numpy()
        order = np.lexsort((okey, ts, cust))
        cust, okey, ts, price = (cust[order], okey[order], ts[order],
                                 price[order])
        cents = np.rint(price * 100.0).astype(np.int64)
        new = run_starts(cust)
        cs = np.cumsum(cents)
        prefix = np.where(new, cs - cents, 0)
        cum = cs - np.maximum.accumulate(prefix)
        return pa.table({
            "o_custkey": cust, "o_orderkey": okey, "order_us": ts,
            "cum_revenue": cum.astype(np.float64) / 100.0})

    ds = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])
    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "o_custkey", final, n_buckets)


_WEEK_US = 7 * 86_400_000_000


def _week_start_us(ts_us: np.ndarray) -> np.ndarray:
    """Monday-start week truncation in epoch-microseconds — exact
    integer twin of DuckDB date_trunc('week', ts) (1970-01-01 was a
    Thursday; verified boundary-for-boundary)."""
    d = ts_us // 86_400_000_000
    return (d - ((d + 3) % 7)) * 86_400_000_000


def cohort_retention(sf_dir: str) -> ray.data.Dataset:
    """Weekly cohort retention triangle: users cohorted by their
    first-signup week; n_active = distinct cohort users active (any
    event) in cohort_week + week_offset — (cohort_us, week_offset,
    n_active), offsets >= 0. The week-0 row is the cohort size (the
    signup event itself is activity).

    One bounded splitmix(user) bucket shuffle co-locates each user's
    events; the per-bucket finalizer is lexsort + segment minimum for
    the cohort week, np.unique for distinct (user, week), and a
    unique-count partial per (cohort, offset); the final groupby key
    domain is (weeks x offsets) — tens of rows, never user-sized."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def project(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy()
        return pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "week_us": _week_start_us(ts),
            "is_signup": pc.equal(b["event_type"], "signup")})

    _EMPTY = pa.schema([("cohort_us", pa.int64()),
                        ("week_offset", pa.int64()),
                        ("n", pa.int64())])

    def final(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        wk = g["week_us"].to_numpy()
        iss = g["is_signup"].to_numpy(zero_copy_only=False)
        order = np.lexsort((wk, uid))
        uid, wk, iss = uid[order], wk[order], iss[order]
        new = run_starts(uid)
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        big = np.iinfo(np.int64).max
        cohort = np.minimum.reduceat(np.where(iss, wk, big), starts)
        has = cohort != big
        keep = has[seg]
        if not keep.any():
            return _EMPTY.empty_table()
        # distinct (user, week) among cohorted users — rows are already
        # lexsorted by (user, week), so distinct = adjacent difference
        # (no packed key that could overflow at real user-id scale)
        sel = keep & run_starts(uid, wk)
        w_sel = wk[sel]
        c_sel = cohort[seg][sel]
        off = (w_sel - c_sel) // _WEEK_US
        pos = off >= 0
        pk, cnt = np.unique(
            np.stack([c_sel[pos], off[pos]]), axis=1, return_counts=True)
        return pa.table({"cohort_us": pk[0], "week_offset": pk[1],
                         "n": cnt.astype(np.int64)})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_type"])
    parts = exchange(ds.map_batches(project, batch_format="pyarrow"),
                     "user_id", final, n_buckets)
    agg = parts.groupby(["cohort_us", "week_offset"]).aggregate(
        Sum("n", alias_name="n_active"))

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_us": b["cohort_us"],
            "week_offset": b["week_offset"],
            "n_active": pc.cast(b["n_active"], pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow")


def events_watermark(sf_dir: str, lateness_s: int = 300,
                     ids_per_bucket: int = 65536) -> ray.data.Dataset:
    """Streaming-watermark / late-data flagging — a DISTRIBUTED PREFIX
    SCAN: for every event (arrival order = event_id), the exclusive
    running max of event time seen so far (the watermark) and whether
    the event arrived more than ``lateness_s`` behind it.

    Scan shape (a streaming engine can't know a block's global
    prefix): (1) one cheap max(event_id) aggregate sizes the id
    buckets; (2) a streamed pass folds per-bucket max-ts partials on
    the driver (<= ~max_id/ids_per_bucket tiny rows — ids_per_bucket
    is the documented scale knob) into an EXCLUSIVE cross-bucket
    prefix-max, broadcast via ray.put; (3) rows shuffle once on
    splitmix(bucket) so each bucket's events co-locate, the finalizer
    sorts within bucket, takes the local exclusive cummax, and ORs in
    the broadcast carry. Output watermark for the globally first event
    is -1 (SQL twin: COALESCE over the empty frame).

    SQL twin: max(epoch_us(ts)) OVER (ORDER BY event_id ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)."""
    late_us = np.int64(lateness_s * 1_000_000)
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 512)

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_id", "ts"])
    max_id = int(ds.max("event_id"))
    B = ids_per_bucket
    n_bkt = max_id // B + 1

    def bucket_max(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy()
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        bkt = eid // B
        order = np.argsort(bkt, kind="stable")
        sb = bkt[order]
        starts = np.flatnonzero(run_starts(sb))
        return pa.table({
            "bkt": pa.array(sb[starts]),
            "mx": pa.array(np.maximum.reduceat(ts[order], starts))})

    folded = np.full(n_bkt, np.iinfo(np.int64).min, np.int64)
    for nb in ds.map_batches(bucket_max, batch_format="pyarrow") \
            .iter_batches(batch_format="numpy"):
        np.maximum.at(folded, nb["bkt"], nb["mx"])
    # exclusive prefix max across buckets; min() sentinel = "no prior"
    carry = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(folded)[:-1]])
    carry_ref = ray.put(carry)

    def project(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy().astype(np.int64)
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "event_id": pa.array(eid), "ts_us": pa.array(ts),
            "bkt": pa.array(eid // B)})

    def scan(g: pa.Table) -> pa.Table:
        cr = ray.get(carry_ref)
        eid = g["event_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        bkt = g["bkt"].to_numpy()
        order = np.lexsort((eid, bkt))
        eid, ts, bkt = eid[order], ts[order], bkt[order]
        # local exclusive cummax, restarted at each id bucket's start
        starts = np.flatnonzero(run_starts(bkt))
        wm = np.empty_like(ts)
        lo = np.iinfo(np.int64).min
        for s, e in zip(starts, np.concatenate([starts[1:], [len(ts)]])):
            seg = ts[s:e]
            excl = np.concatenate(
                [[lo], np.maximum.accumulate(seg)[:-1]])
            wm[s:e] = np.maximum(excl, cr[bkt[s]])
        first = wm == lo
        return pa.table({
            "event_id": pa.array(eid),
            "ts_us": pa.array(ts),
            "wm_us": pa.array(np.where(first, np.int64(-1), wm)),
            "is_late": pa.array(
                np.where(first, np.int64(0),
                         (ts < wm - late_us).astype(np.int64)))})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "bkt", scan, n_buckets)


def event_transitions(sf_dir: str) -> ray.data.Dataset:
    """Markov transition counts over per-user event streams: how many
    times event type A is immediately followed by type B for the same
    user in (ts, event_id) order — the session-path / next-action
    model every clickstream pipeline trains.

    Shape: the ``events_lag`` bucket pattern (one bounded
    splitmix(user) shuffle keeps each user whole) but the bucket
    REDUCES to the bounded (from_type, to_type) domain (<= |types|^2
    = 25 rows) before leaving the reducer: lexsort, adjacent-pair
    mask, then one np.unique over packed type-index pairs. The tiny
    partials coalesce to a single narrow merge — no second shuffle."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    k = len(EVENT_TYPES)
    type_arr = pa.array(EVENT_TYPES)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts_us": pc.cast(b["ts"], pa.int64()),
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "ti": pc.cast(pc.index_in(b["event_type"], value_set=type_arr),
                          pa.int64())})

    def pairs_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        ti = g["ti"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ti = uid[order], ti[order]
        li = np.flatnonzero(~run_starts(uid))
        if not len(li):
            return pa.table({"pair": np.empty(0, np.int64),
                             "n": np.empty(0, np.int64)})
        pair = ti[li - 1] * k + ti[li]
        vals, counts = np.unique(pair, return_counts=True)
        return pa.table({"pair": vals, "n": counts.astype(np.int64)})

    def finalize(b: pa.Table) -> pa.Table:
        vals = b["pair"].to_numpy()
        ns = b["n"].to_numpy()
        order = np.argsort(vals, kind="stable")
        vals, ns = vals[order], ns[order]
        if not len(vals):
            return pa.table({"from_type": pa.array([], pa.string()),
                             "to_type": pa.array([], pa.string()),
                             "n": np.empty(0, np.int64)})
        st = np.flatnonzero(run_starts(vals))
        vals = vals[st]
        total = np.add.reduceat(ns, st).astype(np.int64)
        types = np.asarray(EVENT_TYPES)
        return pa.table({"from_type": pa.array(types[vals // k]),
                         "to_type": pa.array(types[vals % k]),
                         "n": total})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type"])
    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "user_id", pairs_bucket, n_buckets) \
        .repartition(1).map_batches(finalize, batch_format="pyarrow")


def user_value_history(sf_dir: str,
                       event_type: str = "purchase") -> ray.data.Dataset:
    """SCD-2 history build: turn a change log into validity INTERVALS
    — for each user's ``event_type`` events in (ts, event_id) order,
    emit (user_id, vm, valid_from_us, valid_to_us) where valid_to is
    the next change's timestamp and the current (latest) row is open
    (valid_to = -1, SQL NULL) — the slowly-changing-dimension type-2
    table a warehouse builds from CDC streams.

    Shape: the events_lag bucket pattern (splitmix(user) keeps each
    user whole in one bucket) with a lead()-by-shift: after the
    bucket lexsort, a row's valid_to is simply the NEXT row's ts when
    it shares the user. One bounded shuffle, no window machinery."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def project(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["event_type"], event_type))
        return pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts_us": pc.cast(b["ts"], pa.int64()),
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "vm": np.floor(b["value"].to_numpy() * 1e6).astype(np.int64)})

    def history_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        vm = g["vm"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, vm = uid[order], ts[order], eid[order], vm[order]
        n = len(uid)
        if n == 0:
            return pa.table({"user_id": np.empty(0, np.int64),
                             "event_id": np.empty(0, np.int64),
                             "vm": np.empty(0, np.int64),
                             "valid_from_us": np.empty(0, np.int64),
                             "valid_to_us": np.empty(0, np.int64)})
        valid_to = np.full(n, -1, np.int64)
        same_next = ~run_starts(uid)[1:]
        valid_to[:-1][same_next] = ts[1:][same_next]
        return pa.table({"user_id": uid, "event_id": eid, "vm": vm,
                         "valid_from_us": ts, "valid_to_us": valid_to})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type", "value"])
    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "user_id", history_bucket, n_buckets)


def events_ohlc(sf_dir: str, bucket_hours: int = 6) -> ray.data.Dataset:
    """OHLC resample (open / high / low / close per (event_type,
    time bucket)) — the financial-downsample shape, built on MERGEABLE
    first/last aggregates: a "first" is (argmin key, value-at-argmin)
    and two such partials merge by keeping the smaller key, so unlike
    a naive ``first()`` the result is provably independent of block
    layout and merge order.

    Per batch: one lexsort per (type, bucket) run emits a single
    partial row carrying open/close WITH their (ts, event_id) keys
    plus high/low/sum/n; the (type x bucket) domain is bounded
    (|types| x hours/bucket_hours), so ONE direct groupby merges.
    Values are micro-quantized to INT64 (identical floor op as the
    oracle) so every output column is exact."""
    bucket_us = np.int64(bucket_hours) * 3_600_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy()
        eid = pc.cast(b["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        et = pc.index_in(b["event_type"],
                         value_set=pa.array(EVENT_TYPES))
        et = pc.cast(et, pa.int64()).to_numpy(zero_copy_only=False)
        vm = np.floor(b["value"].to_numpy() * 1e6).astype(np.int64)
        bk = (ts // bucket_us).astype(np.int64)
        order = np.lexsort((eid, ts, bk, et))
        et, bk, ts, eid, vm = (et[order], bk[order], ts[order],
                               eid[order], vm[order])
        n = len(et)
        if n == 0:
            return pa.table({
                "et": np.empty(0, np.int64), "bk": np.empty(0, np.int64),
                "o_ts": np.empty(0, np.int64), "o_id": np.empty(0, np.int64),
                "open_vm": np.empty(0, np.int64),
                "c_ts": np.empty(0, np.int64), "c_id": np.empty(0, np.int64),
                "close_vm": np.empty(0, np.int64),
                "high_vm": np.empty(0, np.int64),
                "low_vm": np.empty(0, np.int64),
                "n": np.empty(0, np.int64), "sum_vm": np.empty(0, np.int64)})
        st = np.flatnonzero(run_starts(et, bk))
        en = np.append(st[1:], n) - 1
        return pa.table({
            "et": et[st], "bk": bk[st],
            "o_ts": ts[st], "o_id": eid[st], "open_vm": vm[st],
            "c_ts": ts[en], "c_id": eid[en], "close_vm": vm[en],
            "high_vm": np.maximum.reduceat(vm, st),
            "low_vm": np.minimum.reduceat(vm, st),
            "n": (en - st + 1).astype(np.int64),
            "sum_vm": np.add.reduceat(vm, st)})

    def merge(g: pa.Table) -> pa.Table:
        et = g["et"].to_numpy()
        bk = g["bk"].to_numpy()
        if len(et) == 0:
            return pa.table({
                "event_type": pa.array([], pa.string()),
                "bucket_id": np.empty(0, np.int64),
                "open_vm": np.empty(0, np.int64),
                "high_vm": np.empty(0, np.int64),
                "low_vm": np.empty(0, np.int64),
                "close_vm": np.empty(0, np.int64),
                "n": np.empty(0, np.int64),
                "sum_vm": np.empty(0, np.int64)})
        ots, oid, ovm = (g["o_ts"].to_numpy(), g["o_id"].to_numpy(),
                         g["open_vm"].to_numpy())
        cts, cid, cvm = (g["c_ts"].to_numpy(), g["c_id"].to_numpy(),
                         g["close_vm"].to_numpy())
        # merge rule: open = value at the (ts, event_id)-smallest
        # partial, close = at the largest — pick via lexsort ends
        oorder = np.lexsort((oid, ots, bk, et))
        st = np.flatnonzero(run_starts(et[oorder], bk[oorder]))
        corder = np.lexsort((cid, cts, bk, et))
        en_keys = np.append(
            np.flatnonzero(run_starts(et[corder], bk[corder]))[1:],
            len(et)) - 1
        hi = pa.TableGroupBy(
            g.select(["et", "bk", "high_vm", "low_vm", "n", "sum_vm"]),
            ["et", "bk"]).aggregate(
            [("high_vm", "max"), ("low_vm", "min"),
             ("n", "sum"), ("sum_vm", "sum")])
        hi = hi.rename_columns(["et", "bk", "high_vm", "low_vm",
                                "n", "sum_vm"])
        agg_order = np.lexsort((hi["bk"].to_numpy(), hi["et"].to_numpy()))
        types = np.asarray(EVENT_TYPES)
        return pa.table({
            "event_type": pa.array(types[hi["et"].to_numpy()[agg_order]]),
            "bucket_id": pc.take(hi["bk"], pa.array(agg_order)),
            "open_vm": ovm[oorder][st],
            "high_vm": pc.take(hi["high_vm"], pa.array(agg_order)),
            "low_vm": pc.take(hi["low_vm"], pa.array(agg_order)),
            "close_vm": cvm[corder][en_keys],
            "n": pc.cast(pc.take(hi["n"], pa.array(agg_order)), pa.int64()),
            "sum_vm": pc.cast(pc.take(hi["sum_vm"], pa.array(agg_order)),
                              pa.int64())})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "event_type", "ts", "value"])
    # (type x bucket) key domain is bounded -> single direct merge
    # group (the whole partial table is tiny); repartition(1) + one
    # vectorized merge keeps key-pairing between open/close picks and
    # the hash-agg trivially aligned
    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")


def events_gapfill(sf_dir: str) -> ray.data.Dataset:
    """Time-series densification (gap filling): the hourly tumbling
    aggregate per event_type with EVERY hour between that type's
    first and last window present — missing hours filled with
    n_events = 0, sum_value = 0 (the densify step before plotting /
    windowed models; the inverse concern of the watermark op).

    Shape: the hourly aggregate is already bounded (types x hours),
    so after the same partial -> groupby as events_hourly the
    finalizer runs per event_type (a bounded-domain groupby key) and
    fills the hour range with a searchsorted scatter — no join, no
    second shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = pa.table({"event_type": batch["event_type"],
                      "window_start": pc.floor_temporal(batch["ts"],
                                                        unit="hour"),
                      "value": batch["value"]})
        g = pa.TableGroupBy(t, ["event_type", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum")])
        return g.rename_columns(["event_type", "window_start", "n",
                                 "s_value"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["ts", "event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "window_start"]).aggregate(
            Sum("n", alias_name="n_events"),
            Sum("s_value", alias_name="sum_value"))

    HOUR = np.timedelta64(1, "h")

    def densify(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        w = g["window_start"].to_numpy().astype("datetime64[us]")
        lo, hi = w.min(), w.max()
        full = np.arange(lo, hi + HOUR, HOUR)
        n = np.zeros(len(full), np.int64)
        s = np.zeros(len(full), np.float64)
        pos = np.searchsorted(full, w)
        n[pos] = g["n_events"].to_numpy().astype(np.int64)
        s[pos] = g["sum_value"].to_numpy()
        # pc.strftime on timestamp[s] == pandas dt.strftime for this
        # format (the events_rollup partial already relies on it)
        ws = pc.strftime(pa.array(full.astype("datetime64[s]")),
                         format="%Y-%m-%d %H:%M:%S")
        et = g["event_type"][0].as_py()
        return pa.table({
            "event_type": pa.array([et] * len(full), pa.string()),
            "window_start": ws,
            "n_events": pa.array(n),
            "sum_value": pa.array(_fq(s, 6))})

    return agg.groupby("event_type").map_groups(
        densify, batch_format="pyarrow")


def events_rollup(sf_dir: str) -> ray.data.Dataset:
    """OLAP rollup over events: count + value sum at three grouping
    sets — (event_type, hour), (event_type), and grand total — in ONE
    pass. The per-batch partial emits each (type, hour) partial row
    once per grouping set with the rolled-up dimensions blanked to ''
    (a bounded x3 fan-out of ALREADY-AGGREGATED rows, never raw
    events), then a single groupby over the bounded composite key
    merges. SQL twin: GROUP BY GROUPING SETS with COALESCE('')."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = pa.table({"event_type": batch["event_type"],
                      "window_start": pc.strftime(
                          pc.cast(pc.floor_temporal(batch["ts"],
                                                    unit="hour"),
                                  pa.timestamp("s")),
                          format="%Y-%m-%d %H:%M:%S"),
                      "value": batch["value"]})
        g = pa.TableGroupBy(t, ["event_type", "window_start"]).aggregate(
            [("value", "count"), ("value", "sum")])
        g = g.rename_columns(["event_type", "window_start", "n", "s"])
        et = g["event_type"]
        ws = g["window_start"]
        blank = pa.array([""] * g.num_rows, pa.string())
        sets = [
            pa.table({"event_type": et, "window_start": ws,
                      "n": g["n"], "s": g["s"]}),
            pa.table({"event_type": et, "window_start": blank,
                      "n": g["n"], "s": g["s"]}),
            pa.table({"event_type": blank, "window_start": blank,
                      "n": g["n"], "s": g["s"]})]
        return pa.concat_tables(sets)

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["ts", "event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "window_start"]).aggregate(
            Sum("n", alias_name="n_events"),
            Sum("s", alias_name="sum_value"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "window_start": b["window_start"],
            "n_events": b["n_events"].astype(np.int64),
            "sum_value": _fq(b["sum_value"], 6)})

    return agg.map_batches(finalize, batch_format="pandas")


def value_histogram(sf_dir: str, bin_width: float = 5.0) -> ray.data.Dataset:
    """Fixed-width histogram of events.value per event_type: bin id =
    floor(value / bin_width), with count and bin min/max. Per-batch
    C++ hash-aggregate partials, one bounded groupby ((type, bin) is
    a bounded domain for bounded value ranges — the documented
    assumption; unbounded domains would bucket the bin id)."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy()
        t = pa.table({"event_type": batch["event_type"],
                      "bin": np.floor(v / bin_width).astype(np.int64),
                      "value": v})
        g = pa.TableGroupBy(t, ["event_type", "bin"]).aggregate(
            [("value", "count"), ("value", "min"), ("value", "max")])
        return g.rename_columns(["event_type", "bin", "n", "vmin", "vmax"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "bin"]).aggregate(
            Sum("n", alias_name="n"),
            Min("vmin", alias_name="vmin"),
            Max("vmax", alias_name="vmax"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "bin": b["bin"].astype(np.int64),
            "n": b["n"].astype(np.int64),
            "vmin": _fq(b["vmin"], 6),
            "vmax": _fq(b["vmax"], 6)})

    return agg.map_batches(finalize, batch_format="pandas")


def events_range_window(sf_dir: str, range_s: int = 300,
                        bucket_s: int = 3600) -> ray.data.Dataset:
    """Trailing time-RANGE window over the global event stream: for
    every event, how many events (any type) fall in [ts - range_s,
    ts] — SQL's RANGE BETWEEN <interval> PRECEDING AND CURRENT ROW,
    peers (equal ts) included.

    The distributed shape is HALO (ghost-cell) REPLICATION: events
    partition by fixed time bucket (bucket_s wide — time itself is
    the shuffle key, bounded by the stream's horizon), and each event
    within range_s of its bucket's END is replicated once into the
    NEXT bucket as a halo row, so every bucket owns all data its
    windows can reach. Per bucket: one sort + two vectorized
    searchsorteds (right bound on ts for peers, left bound on
    ts - range_s) — no per-row loop; halo rows count into neighbors'
    windows but emit no output row. Replication factor is
    range_s / bucket_s (<= ~8% at the defaults), the documented halo
    cost knob.

    SQL twin: count(*) OVER (ORDER BY epoch_us(ts) RANGE BETWEEN
    {range_us} PRECEDING AND CURRENT ROW)."""
    range_us = np.int64(range_s * 1_000_000)
    bucket_us = np.int64(bucket_s * 1_000_000)
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def replicate(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy().astype(np.int64)
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        bkt = ts // bucket_us
        halo = ts >= (bkt + 1) * bucket_us - range_us
        out_eid = np.concatenate([eid, eid[halo]])
        out_ts = np.concatenate([ts, ts[halo]])
        out_bkt = np.concatenate([bkt, bkt[halo] + 1])
        out_halo = np.concatenate(
            [np.zeros(len(eid), bool), np.ones(int(halo.sum()), bool)])
        return pa.table({
            "event_id": pa.array(out_eid), "ts_us": pa.array(out_ts),
            "bkt": pa.array(out_bkt), "is_halo": pa.array(out_halo)})

    def count_windows(g: pa.Table) -> pa.Table:
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        bkt = g["bkt"].to_numpy()
        halo = g["is_halo"].to_numpy()
        order = np.lexsort((ts, bkt))
        ts, eid, bkt, halo = ts[order], eid[order], bkt[order], halo[order]
        starts = np.flatnonzero(run_starts(bkt))
        ends = np.concatenate((starts[1:], [len(ts)]))
        out_eid, out_n = [], []
        for s, e in zip(starts, ends):
            seg = ts[s:e]
            hi = np.searchsorted(seg, seg, side="right")
            lo = np.searchsorted(seg, seg - range_us, side="left")
            own = ~halo[s:e]
            out_eid.append(eid[s:e][own])
            out_n.append((hi - lo)[own])
        return pa.table({
            "event_id": pa.array(np.concatenate(out_eid)),
            "n_in_range": pa.array(
                np.concatenate(out_n).astype(np.int64))})

    return exchange(ray.data.read_parquet(_p(sf_dir, "events"),
                                          columns=["event_id", "ts"])
                    .map_batches(replicate, batch_format="pyarrow"),
                    "bkt", count_windows, n_buckets)


def _events_vm(b: pa.Table) -> pa.Table:
    """(event_id, user_id, ts_us, vm) of an events batch: int64 ids and
    epoch microseconds, the value as exact INT64 micro-units
    (floor(value * 1e6), the identical double op in every twin)."""
    return pa.table({
        "event_id": pc.cast(b["event_id"], pa.int64()),
        "user_id": pc.cast(b["user_id"], pa.int64()),
        "ts_us": pc.cast(b["ts"], pa.int64()),
        "vm": np.floor(b["value"].to_numpy() * 1e6).astype(np.int64)})


def events_lag(sf_dir: str) -> ray.data.Dataset:
    """LAG window (offset lookback): each event paired with the SAME
    user's immediately previous event in ``(ts, event_id)`` order,
    emitting the value delta — SQL's ``lag(...) OVER (PARTITION BY
    user_id ORDER BY ts, event_id)``, rows without a predecessor
    dropped (the oracle's QUALIFY).

    Same distributed shape as ``events_asof``: one bounded
    splitmix(user) bucket shuffle, then a whole-bucket lexsort and a
    shift-by-one compare — a row's predecessor is simply the prior
    sorted row when it shares the user. Values are quantized to exact
    INT64 micro-units (floor(value * 1e6), the identical double op on
    both sides) BEFORE the subtraction so the delta is bit-exact and
    order-free."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def lag_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        vm = g["vm"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, vm = uid[order], ts[order], eid[order], vm[order]
        empty = pa.table({"event_id": np.empty(0, np.int64),
                          "user_id": np.empty(0, np.int64),
                          "ts_us": np.empty(0, np.int64),
                          "prev_event_id": np.empty(0, np.int64),
                          "delta_micro": np.empty(0, np.int64)})
        li = np.flatnonzero(~run_starts(uid))
        return pa.table({
            "event_id": eid[li], "user_id": uid[li], "ts_us": ts[li],
            "prev_event_id": eid[li - 1],
            "delta_micro": vm[li] - vm[li - 1]}) if len(li) else empty

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_id", "ts", "user_id", "value"])
    return exchange(ds.map_batches(_events_vm, batch_format="pyarrow"),
                    "user_id", lag_bucket, n_buckets)


def events_moving_sum(sf_dir: str, k_preceding: int = 3) -> ray.data.Dataset:
    """ROWS-frame moving window: per user, the sum and count of the
    last ``k_preceding + 1`` events' values in ``(ts, event_id)``
    order — SQL's ``sum(...) OVER (... ROWS BETWEEN k PRECEDING AND
    CURRENT ROW)``. Completes the window family (tumbling / sliding /
    session / cumulative / RANGE / LAG) with the ROWS frame.

    One bounded splitmix(user) bucket shuffle; per bucket one lexsort,
    one integer cumsum, and a vectorized frame-start clamp
    (max(i - k, segment_first)) — no per-user loop, no per-row loop.
    Values ride as exact INT64 micro-units so the windowed sums are
    order-free bit-exact vs the oracle's integer sum."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def window_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        vm = g["vm"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, vm = uid[order], ts[order], eid[order], vm[order]
        n = len(uid)
        if n == 0:
            return pa.table({"event_id": np.empty(0, np.int64),
                             "user_id": np.empty(0, np.int64),
                             "ts_us": np.empty(0, np.int64),
                             "w_sum_micro": np.empty(0, np.int64),
                             "w_n": np.empty(0, np.int64)})
        idx = np.arange(n)
        seg_first = np.maximum.accumulate(np.where(run_starts(uid), idx, 0))
        lo = np.maximum(idx - k_preceding, seg_first)
        cs = np.cumsum(vm)
        # frame sum = cs[i] - cs[lo-1]; lo == 0 rows start at the
        # array head, so there is nothing to subtract
        w_sum = cs - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pa.table({
            "event_id": eid, "user_id": uid, "ts_us": ts,
            "w_sum_micro": w_sum, "w_n": (idx - lo + 1)})

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_id", "ts", "user_id", "value"])
    return exchange(ds.map_batches(_events_vm, batch_format="pyarrow"),
                    "user_id", window_bucket, n_buckets)


def events_pivot(sf_dir: str,
                 types: tuple = ("click", "error", "purchase",
                                 "signup", "view")) -> ray.data.Dataset:
    """Hourly pivot (cross-tab) of events: one row per hour with a
    count column per event_type plus the hour's total value sum — the
    wide layout BI layers want. The pivoted domain must be a KNOWN
    bounded set (here the 5 event types); an unknown type raises so
    the operator never silently drops data.

    Shape: the per-batch partial runs ONE C++ hash aggregate on
    (hour, type) and scatters it into the wide (hours x types) matrix
    with numpy indexing, so the shuffle moves one already-wide row per
    (hour, batch); the global groupby key (window_start) is bounded by
    the time range. SQL twin: count(*) FILTER (WHERE event_type = t)
    GROUP BY hour."""
    from ray.data.aggregate import Sum

    tlist = list(types)
    tarr = np.sort(np.asarray(tlist))
    ncols = [f"n_{t}" for t in tlist]

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        w = pc.strftime(pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                                pa.timestamp("s")),
                        format="%Y-%m-%d %H:%M:%S")
        t = pa.table({"w": w, "et": batch["event_type"],
                      "value": batch["value"]})
        g = pa.TableGroupBy(t, ["w", "et"]).aggregate(
            [("value", "count"), ("value", "sum")])
        g = g.rename_columns(["w", "et", "n", "s"])
        if g.num_rows == 0:
            cols = {"window_start": pa.array([], pa.string())}
            for t_name in tlist:
                cols[f"n_{t_name}"] = pa.array([], pa.int64())
            cols["s_value"] = pa.array([], pa.float64())
            return pa.table(cols)
        wv = np.asarray(g["w"].to_numpy(zero_copy_only=False), dtype=object)
        et = np.asarray(g["et"].to_numpy(zero_copy_only=False), dtype="U")
        ti = np.searchsorted(tarr, et)
        bad = (ti >= len(tarr)) | (tarr[np.minimum(ti, len(tarr) - 1)] != et)
        if bad.any():
            raise ValueError(f"unknown event_type {et[bad][0]!r}")
        w_uniq, w_code = np.unique(wv, return_inverse=True)
        mat = np.zeros((len(w_uniq), len(tarr)), np.int64)
        mat[w_code, ti] = g["n"].to_numpy()
        sv = np.zeros(len(w_uniq), np.float64)
        np.add.at(sv, w_code, g["s"].to_numpy())
        cols = {"window_start": pa.array(w_uniq, pa.string())}
        for j, t_name in enumerate(tlist):
            cols[f"n_{t_name}"] = pa.array(
                mat[:, np.searchsorted(tarr, t_name)], pa.int64())
        cols["s_value"] = pa.array(sv, pa.float64())
        return pa.table(cols)

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["ts", "event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("window_start").aggregate(
            *[Sum(c, alias_name=c + "_t") for c in ncols],
            Sum("s_value", alias_name="s_value_t"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        out = {"window_start": b["window_start"]}
        for c in ncols:
            out[c] = b[c + "_t"].astype(np.int64)
        out["sum_value"] = _fq(b["s_value_t"], 6)
        return pd.DataFrame(out)

    return agg.map_batches(finalize, batch_format="pandas")


def value_outliers(sf_dir: str, z_thresh: float = 3.0) -> ray.data.Dataset:
    """Per-type z-score outlier detection over events.value — the
    anomaly/quality filter a training-data pipeline runs before
    ingesting metrics (drop or flag rows > z_thresh population sigmas
    from their group mean).

    Shape: pass 1 reduces to per-type (n, sum, sumsq) via per-batch
    partials + ONE bounded groupby (event_type is a bounded domain);
    the 5-row stats table is collected and BROADCAST into the pass-2
    filter closure (ray.put once per run, never a shuffle join), so
    pass 2 is a pure streaming filter. z is rounded to 4 decimals
    (mean/std derive from float sums whose addition order differs from
    the SQL twin by ulps)."""
    from ray.data.aggregate import Sum

    def stats_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = pa.table({"event_type": batch["event_type"],
                      "v": batch["value"],
                      "v2": pc.multiply(batch["value"], batch["value"])})
        g = pa.TableGroupBy(t, ["event_type"]).aggregate(
            [("v", "count"), ("v", "sum"), ("v2", "sum")])
        return g.rename_columns(["event_type", "n", "s", "s2"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_type", "value"])
    stats = ds.map_batches(stats_partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(
            Sum("n", alias_name="n"), Sum("s", alias_name="s"),
            Sum("s2", alias_name="s2")).to_pandas()
    et = stats["event_type"].to_numpy()
    order = np.argsort(et)
    et_sorted = et[order]
    n = stats["n"].to_numpy().astype(np.float64)[order]
    mu = (stats["s"].to_numpy() / stats["n"].to_numpy())[order]
    sd = np.sqrt(np.maximum(
        stats["s2"].to_numpy()[order] / n - mu * mu, 0.0))
    state = ray.put((et_sorted, mu, sd))

    def flag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        ets, mus, sds = ray.get(state)
        # vectorized type->stats lookup via Arrow's hash index kernel
        ti = pc.index_in(batch["event_type"],
                         value_set=pa.array(list(ets))).to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = batch["value"].to_numpy(zero_copy_only=False)
        z = (v - mus[ti]) / sds[ti]
        keep = np.abs(z) > z_thresh
        return pa.table({
            "event_id": batch["event_id"].to_numpy(
                zero_copy_only=False)[keep],
            "event_type": batch["event_type"].filter(
                pa.array(keep)).combine_chunks(),
            "value": v[keep],
            "z": _fq(z[keep], 4)})

    full = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "event_type", "value"])
    return full.map_batches(flag, batch_format="pyarrow")


def interval_coverage(sf_dir: str, duration_s: int = 300) -> ray.data.Dataset:
    """Interval-union coverage per user: each event opens a
    [ts, ts + duration_s) activity interval; overlapping/touching
    intervals merge, and the operator reports the merged-interval
    count and total covered microseconds per user — the classic
    "active time" computation (sessionization's measure-theoretic
    cousin: coverage is invariant to double-counting overlaps).

    Shape: user_id is high-cardinality, so the shuffle key is a
    bounded splitmix bucket (CLAUDE.md discipline); within a bucket
    the merge is one lexsort + a grouped running max (vectorized,
    O(n log n)), and all arithmetic stays int64 microseconds so the
    DuckDB island-detection twin matches EXACTLY (no float rounding).
    Touching intervals (next.start == prev.end) merge, mirroring the
    SQL's strict `s > prev_max` island break."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 512)
    dur_us = duration_s * 1_000_000

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        return pa.table({"user_id": batch["user_id"], "s": ts,
                         "e": ts + dur_us})

    def merge_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        s = g["s"].to_numpy()
        e = g["e"].to_numpy()
        order = np.lexsort((e, s, uid))
        uid, s, e = uid[order], s[order], e[order]
        n = len(uid)
        if n == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "n_intervals": pa.array([], pa.int64()),
                "covered_us": pa.array([], pa.int64())})
        new_user = run_starts(uid)
        # running max of e within each user segment, EXCLUSIVE of the
        # current row. All intervals share one duration (project sets
        # e = ts + dur_us), so e ascends within each sorted segment
        # and the grouped running max IS the previous row's e — no
        # grouped cummax needed (an offset-and-accumulate trick would
        # overflow int64 at epoch-microsecond magnitudes; revisit if
        # durations ever become per-row).
        prev_max = np.empty(n, np.int64)
        prev_max[0] = np.iinfo(np.int64).min
        prev_max[1:] = e[:-1]
        prev_max[new_user] = np.iinfo(np.int64).min
        new_island = new_user | (s > prev_max)
        # per-island span: first s (sorted, so first row of island),
        # max e within island
        isl_first = np.flatnonzero(new_island)
        isl_s = s[isl_first]
        isl_e = np.maximum.reduceat(e, isl_first)
        isl_uid = uid[isl_first]
        # per-user rollup over islands
        u_first = np.flatnonzero(run_starts(isl_uid))
        covered = np.add.reduceat(isl_e - isl_s, u_first)
        counts = np.diff(np.concatenate((u_first, [len(isl_uid)])))
        return pa.table({
            "user_id": pa.array(isl_uid[u_first].astype(np.int64)),
            "n_intervals": pa.array(counts.astype(np.int64)),
            "covered_us": pa.array(covered.astype(np.int64))})

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "ts"])
    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "user_id", merge_bucket, n_buckets)


def _ts_day_range(path: str, ds: "ray.data.Dataset",
                  day_us: int = 86_400_000_000) -> tuple:
    """Global [min_day, max_day] of the ts column — from the parquet
    FOOTER statistics when available (a metadata-only read: zero data
    rows move, the correct cost at any scale), falling back to a
    min/max Dataset aggregate when any row group lacks stats. `path`
    may be a file or a glob-able directory of parquet parts."""
    import glob as _glob
    import os as _os

    import pyarrow.parquet as _pq
    from ray.data.aggregate import Max, Min

    files = [path]
    if _os.path.isdir(path):
        files = sorted(_glob.glob(_os.path.join(path, "**", "*.parquet"),
                                  recursive=True))
    lo = hi = None
    try:
        for f in files:
            md = _pq.ParquetFile(f).metadata
            names = [md.schema.column(i).name
                     for i in range(md.num_columns)]
            idx = names.index("ts")
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(idx).statistics
                if st is None or not st.has_min_max:
                    raise ValueError("missing ts stats")
                mn, mx = st.min, st.max
                lo = mn if lo is None or mn < lo else lo
                hi = mx if hi is None or mx > hi else hi
        if lo is None:
            raise ValueError("no row groups")

        def _to_us(t):
            return int(t.timestamp() * 1_000_000) \
                if hasattr(t, "timestamp") else int(t)
        return _to_us(lo) // day_us, _to_us(hi) // day_us
    except (ValueError, KeyError):
        pass

    def day_partial(batch: pa.Table) -> pa.Table:
        d = batch["ts"].cast(pa.int64()).to_numpy() // day_us
        if len(d) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        return pa.table({"lo": [int(d.min())], "hi": [int(d.max())]})

    rng = ds.map_batches(day_partial, batch_format="pyarrow") \
        .aggregate(Min("lo", alias_name="lo"), Max("hi", alias_name="hi"))
    return int(rng["lo"]), int(rng["hi"])


def rolling_dau(sf_dir: str, window_days: int = 7) -> ray.data.Dataset:
    """Daily active users + trailing-N-day distinct users for every
    day in the data's [min_day, max_day] range — the engagement
    metric family (DAU / WAU) computed EXACTLY at scale.

    Shape: rolling COUNT(DISTINCT) does not decompose by time, but it
    DOES decompose by user: partition users into bounded splitmix
    buckets, compute each bucket's per-day distinct and rolling-window
    distinct counts over its own (users x days) presence matrix
    (prefix-sum along days; a user counts in window d iff it has any
    presence in [d-N+1, d]), and SUM the per-bucket partials — buckets
    partition the user space, so the sums are exact. The global day
    range comes from the parquet footer statistics (metadata-only) and
    is passed into every bucket so all buckets emit the same day axis.
    Per-batch distinct (day, user) partials bound the shuffle at one
    row per (day, user, batch)."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    from ray.data.aggregate import Sum
    DAY_US = 86_400_000_000

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "ts"])
    lo_day, hi_day = _ts_day_range(_p(sf_dir, "events"), ds)
    n_days = hi_day - lo_day + 1

    def distinct_partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        d = (batch["ts"].cast(pa.int64()).to_numpy() // DAY_US) - lo_day
        # distinct (day, user) pairs without packing uid into 32 bits
        # (user_id is a full int64 at scale): lexsort + first-flag
        order = np.lexsort((uid, d))
        d, uid = d[order], uid[order]
        first = run_starts(d, uid)
        return pa.table({"day_i": d[first].astype(np.int64),
                         "user_id": uid[first]})

    def bucket_counts(g: pa.Table) -> pa.Table:
        # Memory note (the 100x lens): the bucket's working set is
        # users_in_bucket x n_days at ONE byte per cell (bool presence
        # + a rolling uint8 window count that saturates at window_days
        # <= 255) — derive_buckets grows n_buckets with the input so
        # users/bucket x n_days stays in a worker's heap; the math is
        # bucket-local either way.
        day_i = g["day_i"].to_numpy()
        uid = g["user_id"].to_numpy()
        u_uniq, u_code = np.unique(uid, return_inverse=True)
        pres = np.zeros((len(u_uniq), n_days), np.uint8)
        pres[u_code, day_i] = 1
        dau = pres.sum(axis=0, dtype=np.int64)
        w = window_days
        # rolling presence count win[d] = sum(pres[d-w+1 .. d]) kept
        # in uint8 (bounded by window_days), built incrementally
        # without materializing an int32/int64 cumsum matrix
        assert w <= 255, "uint8 window counter"
        win = pres.copy()
        for off in range(1, w):
            win[:, off:] += pres[:, :n_days - off]
        dau_w = (win > 0).sum(axis=0, dtype=np.int64)
        return pa.table({"day_i": pa.array(np.arange(n_days, dtype=np.int64)),
                         "p_dau": pa.array(dau), "p_dau_w": pa.array(dau_w)})

    agg = exchange(ds.map_batches(distinct_partial, batch_format="pyarrow"),
                   "user_id", bucket_counts, n_buckets) \
        .groupby("day_i").aggregate(Sum("p_dau", alias_name="dau"),
                                    Sum("p_dau_w", alias_name="dau_w"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        day_us = ((b["day_i"].to_numpy() + lo_day) * DAY_US)
        day = pd.Series(day_us.astype("datetime64[us]"))
        return pd.DataFrame({
            "day": day.dt.strftime("%Y-%m-%d"),
            "dau": b["dau"].astype(np.int64),
            "dau_window": b["dau_w"].astype(np.int64)})

    return agg.map_batches(finalize, batch_format="pandas")


_CENT_BUCKETS = 512  # fixed: the (type, cent) domain, not the input, sizes it


def _cent_counts(sf_dir: str) -> pd.DataFrame:
    """(event_type, cent, n): how many events of each type carry each
    cent-quantized value. Per-batch partial counts, one bounded
    splitmix(cent) bucket merge, collected on the driver — the table
    is |types| x |cents|, bounded by the value domain whatever the
    input size."""
    def partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                        pa.int64())
        t = pa.table({"event_type": batch["event_type"], "cent": cents,
                      "one": pa.array(np.ones(len(cents), np.int64))})
        g = pa.TableGroupBy(t, ["event_type", "cent"]).aggregate(
            [("one", "sum")])
        return g.rename_columns(["event_type", "cent", "n"])

    def merge(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g.select(["event_type", "cent", "n"]),
                              ["event_type", "cent"]).aggregate([("n", "sum")])
        return out.rename_columns(["event_type", "cent", "n"])

    return exchange(ray.data.read_parquet(_p(sf_dir, "events"),
                                          columns=["event_type", "value"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "cent", merge, _CENT_BUCKETS).to_pandas()


def events_deciles(sf_dir: str) -> pd.DataFrame:
    """Exact rank-based decile statistics per event_type (decile =
    ((rank-1)*10) // n with ties sharing the lower rank): row count,
    min and max value per (type, decile) — the distribution summary a
    feature-engineering pass bins continuous columns with.

    Shape: a global per-type rank normally needs a distributed sort,
    but events.value is cent-quantized (exact 2-decimal money), so the
    FIXED quantization domain — not the row count — bounds the state:
    per-batch partials count (type, cent) occurrences, one bounded
    512-bucket groupby merges them, and the driver finalizes deciles
    from the O(domain) count table (cumulative counts give every
    distinct value's exact rank). At 100 TB the collected table is
    still |types| x |cents| regardless of input size."""
    counts = _cent_counts(sf_dir)

    rows = []
    for et, grp in counts.groupby("event_type"):
        grp = grp.sort_values("cent")
        c = grp["n"].to_numpy().astype(np.int64)
        cents = grp["cent"].to_numpy().astype(np.int64)
        n = int(c.sum())
        before = np.concatenate(([0], np.cumsum(c)[:-1]))
        decile = (before * 10) // n
        for d in np.unique(decile):
            m = decile == d
            rows.append({
                "event_type": et, "decile": int(d),
                "n_events": int(c[m].sum()),
                "min_value": cents[m].min() / 100.0,
                "max_value": cents[m].max() / 100.0})
    return pd.DataFrame(rows)


def _events_initial(batch: pa.Table) -> pa.Table:
    """(user_id, ts_us, event_id, c) of an events batch, c the first
    letter of the event type: the one-char tokens of a journey."""
    return pa.table({
        "user_id": batch["user_id"],
        "ts_us": batch["ts"].cast(pa.int64()),
        "event_id": batch["event_id"],
        "c": pc.utf8_slice_codeunits(batch["event_type"], 0, 1)})


def user_journeys(sf_dir: str) -> ray.data.Dataset:
    """Per-user event-sequence string ("journey"): the first letter of
    each event_type concatenated in (ts, event_id) order — the compact
    behavioral encoding sequence-mining / markov features start from.

    Shape: bucketed by splitmix(user_id) (bounded shuffle domain);
    within a bucket one lexsort orders every user's events, the
    single-char tokens collapse to one contiguous bytes buffer, and
    each user's journey is a buffer slice — the only per-row Python is
    the final per-USER string construction (one slice + decode per
    user, not per event)."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 512)

    def journeys(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid = uid[order]
        chars = np.asarray(g["c"].to_numpy(zero_copy_only=False)[order],
                           dtype="S1")
        buf = chars.tobytes()
        u_first = np.flatnonzero(run_starts(uid))
        bounds = np.concatenate((u_first, [len(uid)]))
        return pa.table({
            "user_id": pa.array(uid[u_first].astype(np.int64)),
            "journey": pa.array([buf[bounds[i]:bounds[i + 1]].decode()
                                 for i in range(len(u_first))], pa.string()),
            "n_events": pa.array(np.diff(bounds).astype(np.int64))})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "event_type"])
    return exchange(ds.map_batches(_events_initial, batch_format="pyarrow"),
                    "user_id", journeys, n_buckets)


def unpivot_lineitem(sf_dir: str) -> ray.data.Dataset:
    """UNPIVOT / melt: the four lineitem measure columns turn into
    (measure, value) long-format rows keyed by (l_orderkey,
    l_linenumber) — the inverse of events_pivot and the reshape a
    metrics store ingests. Values pass through untouched (exact
    parity), and the x4 fan-out happens inside the batch — a pure
    streaming transform with NO shuffle at any scale."""
    MEASURES = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ok = batch["l_orderkey"]
        ln = batch["l_linenumber"].cast(pa.int64())
        parts = []
        for mname in MEASURES:
            parts.append(pa.table({
                "l_orderkey": ok, "l_linenumber": ln,
                "measure": pa.array(np.repeat(mname, n), pa.string()),
                "value": batch[mname]}))
        return pa.concat_tables(parts)

    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", *MEASURES])
    return ds.map_batches(melt, batch_format="pyarrow")


def props_extract(sf_dir: str) -> ray.data.Dataset:
    """JSON scalar extraction + grouped aggregate: pull the integer
    `k` out of the events.props JSON string with Arrow's RE2
    extract kernel (no per-row json.loads) and reduce per event_type
    to count / sum / min / max — the semi-structured-column pattern
    (extract once, aggregate columnar).

    Shape: extraction and the per-batch partial are one pass over the
    zero-copy Arrow batch; the groupby key (event_type) is a bounded
    domain. Integer sums are exact — no rounding needed."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        kcol = pc.struct_field(
            pc.extract_regex(batch["props"], r'"k": (?P<k>[0-9]+)'), "k")
        k = pc.cast(kcol, pa.int64())
        t = pa.table({"event_type": batch["event_type"], "k": k})
        g = pa.TableGroupBy(t, ["event_type"]).aggregate(
            [("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")])
        return g.rename_columns(["event_type", "n", "s", "mn", "mx"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_type", "props"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(
            Sum("n", alias_name="n_events"), Sum("s", alias_name="sum_k"),
            Min("mn", alias_name="min_k"), Max("mx", alias_name="max_k"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "n_events": b["n_events"].astype(np.int64),
            "sum_k": b["sum_k"].astype(np.int64),
            "min_k": b["min_k"].astype(np.int64),
            "max_k": b["max_k"].astype(np.int64)})

    return agg.map_batches(finalize, batch_format="pandas")


def churned_users(sf_dir: str, window_days: int = 1) -> ray.data.Dataset:
    """Churn set-difference: users active in the FIRST window_days of
    the data's range but absent from the LAST window_days — the
    EXCEPT / anti-membership shape over derived distinct sets.

    Shape: the global day range comes from the parquet footer
    statistics (metadata-only); each batch then collapses to distinct (user, in_first, in_last)
    flag rows, ONE bounded splitmix(user) bucket shuffle OR-merges the
    flags per user (a user's whole truth lives in one bucket), and the
    filter (first AND NOT last) is a vectorized mask — no join, no
    second shuffle, output bounded by the churned-user count."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    DAY_US = 86_400_000_000

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "ts"])
    lo_day, hi_day = _ts_day_range(_p(sf_dir, "events"), ds)

    def flags(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        d = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US
        in_first = (d < lo_day + window_days).astype(np.int64)
        in_last = (d > hi_day - window_days).astype(np.int64)
        order = np.argsort(uid, kind="stable")
        uid = uid[order]
        f = in_first[order]
        last = in_last[order]
        u_first = np.flatnonzero(run_starts(uid))
        return pa.table({
            "user_id": uid[u_first],
            "in_first": np.maximum.reduceat(f, u_first),
            "in_last": np.maximum.reduceat(last, u_first)})

    def reduce_bucket(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.select(["user_id", "in_first", "in_last"]),
                            ["user_id"]).aggregate(
            [("in_first", "max"), ("in_last", "max")])
        m = m.rename_columns(["user_id", "in_first", "in_last"])
        fmax = m["in_first"].to_numpy()
        lmax = m["in_last"].to_numpy()
        keep = (fmax == 1) & (lmax == 0)
        return pa.table({"user_id": pa.array(
            m["user_id"].to_numpy()[keep].astype(np.int64))})

    return exchange(ds.map_batches(flags, batch_format="pyarrow"),
                    "user_id", reduce_bucket, n_buckets)


def value_time_corr(sf_dir: str) -> ray.data.Dataset:
    """Grouped Pearson correlation between events.value and
    hour-of-day per event_type — the seasonality diagnostic. Both
    engine and oracle assemble r from the SAME six raw moments
    (n, Σx, Σy, Σxy, Σx², Σy²), so the only divergence is float
    addition order (r rounds to 6 decimals; |r| <= 1 so absolute
    rounding is well-conditioned). Hour-of-day is integer, value is
    cent-quantized — the x moments are exact int64.

    Shape: one per-batch moment partial, one bounded groupby, a
    5-row finalize."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        x = ((batch["ts"].cast(pa.int64()).to_numpy()
              // 3_600_000_000) % 24).astype(np.float64)
        y = batch["value"].to_numpy(zero_copy_only=False)
        t = pa.table({"event_type": batch["event_type"],
                      "x": x, "y": y, "xy": x * y,
                      "x2": x * x, "y2": y * y})
        g = pa.TableGroupBy(t, ["event_type"]).aggregate(
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xy", "sum"), ("x2", "sum"), ("y2", "sum")])
        return g.rename_columns(
            ["event_type", "n", "sx", "sy", "sxy", "sx2", "sy2"])

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["ts", "event_type", "value"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxy", alias_name="sxy"),
            Sum("sx2", alias_name="sx2"), Sum("sy2", alias_name="sy2"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy().astype(np.float64)
        sx, sy = b["sx"].to_numpy(), b["sy"].to_numpy()
        sxy = b["sxy"].to_numpy()
        sx2, sy2 = b["sx2"].to_numpy(), b["sy2"].to_numpy()
        num = n * sxy - sx * sy
        den = np.sqrt((n * sx2 - sx * sx) * (n * sy2 - sy * sy))
        return pd.DataFrame({
            "event_type": b["event_type"],
            "n_events": b["n"].astype(np.int64),
            "r": _fq(num / den, 6)})

    return agg.map_batches(finalize, batch_format="pandas")


def quantile_cont(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.9)) -> pd.DataFrame:
    """Interpolated (type-7 / SQL PERCENTILE_CONT) per-type quantiles
    of events.value — the continuous counterpart of the discrete
    groupops.group_quantiles rule. h = (n-1)*q; the result
    interpolates between the values at 0-based ranks floor(h) and
    ceil(h).

    Shape: like events_deciles, the cent-quantized value DOMAIN (not
    the row count) bounds the state: (type, cent) count partials
    through one bounded bucket groupby, then the driver folds
    cumulative counts to ranks and applies the interpolation formula —
    the IDENTICAL double-op sequence the oracle SQL spells out, so
    parity is exact after a round to 6."""
    counts = _cent_counts(sf_dir)

    rows = []
    for et, grp in counts.groupby("event_type"):
        grp = grp.sort_values("cent")
        c = grp["n"].to_numpy().astype(np.int64)
        vals = grp["cent"].to_numpy().astype(np.int64) / 100.0
        n = int(c.sum())
        cum = np.cumsum(c)  # rank i (0-based) has value vals[searchsorted]
        row = {"event_type": et, "n_events": n}
        for q in qs:
            h = (n - 1) * q
            fl = np.floor(h)
            lo = vals[np.searchsorted(cum, fl + 1)]
            hi = vals[np.searchsorted(cum, np.ceil(h) + 1)]
            row[f"p{int(q * 100)}"] = float(_fq(lo + (h - fl) * (hi - lo), 6))
        rows.append(row)
    return pd.DataFrame(rows)


def journey_pattern(sf_dir: str, pattern: str = "s[cv]*p") -> ray.data.Dataset:
    """Sequence-pattern matching over per-user event journeys (the
    MATCH_RECOGNIZE / CEP shape): count non-overlapping occurrences of
    a regex over each user's ordered event-initial string — here
    "signup, any clicks/views, then purchase". For patterns where
    greedy == leftmost-longest (no alternation), Python re and the
    oracle's RE2 agree match-for-match.

    Shape: identical to user_journeys (bucketed lexsort + buffer
    slices); the only added per-USER work is one compiled-regex
    findall over a short string."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 512)
    import re as _re

    rx = _re.compile(pattern)

    def count_matches(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid = uid[order]
        chars = np.asarray(g["c"].to_numpy(zero_copy_only=False)[order],
                           dtype="S1")
        buf = chars.tobytes().decode()
        u_first = np.flatnonzero(run_starts(uid))
        bounds = np.concatenate((u_first, [len(uid)]))
        return pa.table({
            "user_id": pa.array(uid[u_first].astype(np.int64)),
            "n_matches": pa.array(
                [len(rx.findall(buf[bounds[i]:bounds[i + 1]]))
                 for i in range(len(u_first))], pa.int64())})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "event_type"])
    return exchange(ds.map_batches(_events_initial, batch_format="pyarrow"),
                    "user_id", count_matches, n_buckets)


def new_users_curve(sf_dir: str) -> pd.DataFrame:
    """User-acquisition curve: per day, how many users appear for the
    FIRST time, plus the running cumulative — the growth metric
    (cumsum of a grouped argmin).

    Shape: per-batch (user, min_day) partials shuffle ONCE on
    splitmix(user) (a user's true first day resolves inside its
    bucket); per-bucket first-day histograms over the bounded day
    domain sum exactly across buckets; the cumulative fold runs on the
    driver over n_days rows."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    from ray.data.aggregate import Max, Min, Sum
    DAY_US = 86_400_000_000

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "ts"])
    lo_day, hi_day = _ts_day_range(_p(sf_dir, "events"), ds)
    n_days = hi_day - lo_day + 1

    def first_partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        d = (batch["ts"].cast(pa.int64()).to_numpy() // DAY_US) - lo_day
        order = np.lexsort((d, uid))
        uid, d = uid[order], d[order]
        first = run_starts(uid)
        return pa.table({"user_id": uid[first],
                         "d": d[first].astype(np.int64)})

    def bucket_hist(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        d = g["d"].to_numpy()
        order = np.lexsort((d, uid))
        uid, d = uid[order], d[order]
        hist = np.bincount(d[run_starts(uid)], minlength=n_days).astype(np.int64)
        return pa.table({"day_i": pa.array(np.arange(n_days, dtype=np.int64)),
                         "p_new": pa.array(hist)})

    agg = exchange(ds.map_batches(first_partial, batch_format="pyarrow"),
                   "user_id", bucket_hist, n_buckets) \
        .groupby("day_i").aggregate(Sum("p_new", alias_name="n_new")) \
        .to_pandas().sort_values("day_i")

    day_us = (agg["day_i"].to_numpy() + lo_day) * DAY_US
    return pd.DataFrame({
        "day": pd.Series(day_us.astype("datetime64[us]")).dt.strftime(
            "%Y-%m-%d"),
        "n_new": agg["n_new"].to_numpy().astype(np.int64),
        "cum_users": np.cumsum(agg["n_new"].to_numpy()).astype(np.int64)})


def time_weighted_value(sf_dir: str) -> ray.data.Dataset:
    """Time-weighted average value per user (the IoT / finance TWA:
    each event's value holds until the user's next event; integrate
    over the user's [first, last] span). Users with a single event
    have zero span and are omitted (HAVING n >= 2 in the twin).

    Shape: bounded splitmix(user) bucket shuffle; per bucket one
    lexsort + diff + reduceat. The integral accumulates as int64
    cent-microseconds (exact: max cent 49k x 30-day span ~ 1.3e17 <
    2^63), and BOTH sides convert the same exact int64 numerator to
    double for the final division, so parity holds to the round."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 512)
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "t": batch["ts"].cast(pa.int64()),
            "event_id": batch["event_id"],
            "cent": pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                            pa.int64())})

    def twa_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        t = g["t"].to_numpy()
        eid = g["event_id"].to_numpy()
        cent = g["cent"].to_numpy()
        order = np.lexsort((eid, t, uid))
        uid, t, cent = uid[order], t[order], cent[order]
        n = len(uid)
        if n == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "twa": pa.array([], pa.float64())})
        new_user = run_starts(uid)
        # duration each value is held; a user's LAST event holds 0
        dur = np.empty(n, np.int64)
        dur[:-1] = t[1:] - t[:-1]
        dur[-1] = 0
        last_of_user = np.concatenate((new_user[1:], [True]))
        dur[last_of_user] = 0
        starts = np.flatnonzero(new_user)
        num = np.add.reduceat(cent * dur, starts)
        span = np.add.reduceat(dur, starts)  # == t_last - t_first
        cnt = np.diff(np.concatenate((starts, [n])))
        keep = cnt >= 2
        return pa.table({
            "user_id": pa.array(uid[starts][keep].astype(np.int64)),
            "n_events": pa.array(cnt[keep].astype(np.int64)),
            "twa": pa.array(_fq(num[keep].astype(np.float64)
                                / span[keep].astype(np.float64) / 100.0, 6))})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "value"])
    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    "user_id", twa_bucket, n_buckets)


def audience_overlap(sf_dir: str) -> ray.data.Dataset:
    """Pairwise audience overlap between event types: for every
    unordered type pair, the distinct-user intersection count and
    Jaccard similarity — the segment-overlap matrix an audience /
    targeting system computes.

    Shape: distinct decomposes by USER (the rolling_dau insight): each
    batch collapses to distinct (user, type) pairs, ONE bounded
    splitmix(user) bucket shuffle co-locates each user's type set, and
    per bucket a 5-bit presence mask per user folds to per-type and
    per-pair partial counts (<= 5 + 10 rows per bucket) that SUM
    exactly across buckets; the tiny finalize computes Jaccard."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    from ray.data.aggregate import Sum
    def distinct_pairs(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((et, uid))
        uid, et = uid[order], et[order]
        first = run_starts(uid, et)
        return pa.table({"user_id": uid[first],
                         "event_type": pa.array(et[first], pa.string())})

    def mask_counts(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(zero_copy_only=False)
        types, t_code = np.unique(et, return_inverse=True)
        u_uniq, u_code = np.unique(uid, return_inverse=True)
        pres = np.zeros((len(u_uniq), len(types)), bool)
        pres[u_code, t_code] = True
        ta, tb, cnt = [], [], []
        for a in range(len(types)):
            ta.append(types[a]); tb.append(types[a])
            cnt.append(int(pres[:, a].sum()))
            for b in range(a + 1, len(types)):
                ta.append(types[a]); tb.append(types[b])
                cnt.append(int((pres[:, a] & pres[:, b]).sum()))
        return pa.table({"type_a": pa.array(ta, pa.string()),
                         "type_b": pa.array(tb, pa.string()),
                         "n": pa.array(cnt, pa.int64())})

    agg = exchange(ray.data.read_parquet(_p(sf_dir, "events"),
                                         columns=["user_id", "event_type"])
                   .map_batches(distinct_pairs, batch_format="pyarrow"),
                   "user_id", mask_counts, n_buckets) \
        .groupby(["type_a", "type_b"]).aggregate(Sum("n", alias_name="n"))

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        # split singles (type_a == type_b) from pair rows
        singles = b[b["type_a"] == b["type_b"]].set_index("type_a")["n"]
        pairs = b[b["type_a"] != b["type_b"]]
        na = pairs["type_a"].map(singles).to_numpy().astype(np.int64)
        nb = pairs["type_b"].map(singles).to_numpy().astype(np.int64)
        nboth = pairs["n"].to_numpy().astype(np.int64)
        return pd.DataFrame({
            "type_a": pairs["type_a"], "type_b": pairs["type_b"],
            "n_a": na, "n_b": nb, "n_both": nboth,
            "jaccard": _fq(nboth.astype(np.float64)
                           / (na + nb - nboth), 6)})

    # the aggregate result is tiny (<= types^2 rows) — finalize needs
    # ALL singles to label every pair row, so repartition(1) first
    return agg.repartition(1).map_batches(finalize, batch_format="pandas")


def mad_stats(sf_dir: str) -> pd.DataFrame:
    """Robust location/scale per event_type: discrete median (the
    group_quantiles rule: min value whose cumulative count >=
    ceil(n/2)) and MAD, the same-rule median of absolute deviations —
    the outlier-resistant counterpart of value_outliers' mean/sigma.

    Shape: everything folds from the bounded (type, cent) count table
    (the events_deciles pattern); the deviation re-histogram is a
    driver-side O(domain) regroup, exact integer arithmetic until the
    final /100."""
    counts = _cent_counts(sf_dir)

    def _median_of(cents: np.ndarray, c: np.ndarray) -> int:
        order = np.argsort(cents, kind="stable")
        cents, c = cents[order], c[order]
        cum = np.cumsum(c)
        n = int(cum[-1])
        target = -(-n // 2)  # ceil(n/2) in integer arithmetic
        return int(cents[np.searchsorted(cum, target)])

    rows = []
    for et, grp in counts.groupby("event_type"):
        cents = grp["cent"].to_numpy().astype(np.int64)
        c = grp["n"].to_numpy().astype(np.int64)
        med = _median_of(cents, c)
        dev = np.abs(cents - med)
        mad = _median_of(dev, c)
        rows.append({"event_type": et, "n_events": int(c.sum()),
                     "median_value": med / 100.0, "mad": mad / 100.0})
    return pd.DataFrame(rows)


def loyal_users(sf_dir: str, event_type: str = "purchase") -> ray.data.Dataset:
    """Relational DIVISION (the universal quantifier): users with at
    least one `event_type` event in EVERY week of the data's range —
    the "for all periods" loyalty query most engines express awkwardly
    (HAVING count(DISTINCT week) = |weeks|). Selective by
    construction: a user misses one week and drops out.

    Shape: the divisor domain size (distinct weeks over ALL events)
    comes from a bounded aggregate; each batch then collapses to
    distinct (user, week) pairs for the filtered type; ONE bounded
    splitmix(user) bucket shuffle co-locates a user's week set; the
    bucket finalizer counts distinct weeks per user and keeps
    full-coverage users."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    from ray.data.aggregate import Max
    DAY_US = 86_400_000_000

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "ts", "event_type"])

    def week_partial(batch: pa.Table) -> pa.Table:
        w = np.unique(batch["ts"].cast(pa.int64()).to_numpy()
                      // DAY_US // 7)
        return pa.table({"week": w.astype(np.int64),
                         "one": np.ones(len(w), np.int64)})

    n_weeks = ds.map_batches(week_partial, batch_format="pyarrow") \
        .groupby("week").aggregate(Max("one", alias_name="one")).count()

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.equal(batch["event_type"], event_type)
        batch = batch.filter(m)
        uid = batch["user_id"].to_numpy()
        w = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US // 7
        order = np.lexsort((w, uid))
        uid, w = uid[order], w[order]
        first = run_starts(uid, w)
        return pa.table({"user_id": uid[first],
                         "week": w[first].astype(np.int64)})

    def divide(g: pa.Table) -> pa.Table:
        # rows are already distinct (user, week) pairs from the
        # per-batch collapse, but pairs can repeat ACROSS batches —
        # count distinct weeks per user via lexsort + first-flag
        uid = g["user_id"].to_numpy()
        w = g["week"].to_numpy()
        order = np.lexsort((w, uid))
        uid, w = uid[order], w[order]
        if len(uid) == 0:
            return pa.table({"user_id": pa.array([], pa.int64())})
        uid = uid[run_starts(uid, w)]
        u_first = np.flatnonzero(run_starts(uid))
        cnt = np.diff(np.append(u_first, len(uid)))
        keep = cnt == n_weeks
        return pa.table({"user_id": pa.array(
            uid[u_first][keep].astype(np.int64))})

    return exchange(ds.map_batches(distinct_pairs, batch_format="pyarrow"),
                    "user_id", divide, n_buckets)


def wow_growth(sf_dir: str) -> ray.data.Dataset:
    """Week-over-week growth per event_type: weekly value sums plus
    the previous week's sum and the percent change — period-over-
    period reporting (LAG over an AGGREGATED series, not over raw
    rows).

    Shape: the weekly aggregate is bounded (types x weeks), built with
    per-batch partials + ONE bounded groupby; the lag/pct fold then
    runs per event_type over a handful of rows. Weeks are epoch-day
    // 7 (fixed Thursday-anchored weeks, mirrored in the twin);
    pct rounds to 6."""
    from ray.data.aggregate import Sum

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        w = batch["ts"].cast(pa.int64()).to_numpy() // DAY_US // 7
        t = pa.table({"event_type": batch["event_type"],
                      "week": w.astype(np.int64),
                      "value": batch["value"]})
        g = pa.TableGroupBy(t, ["event_type", "week"]).aggregate(
            [("value", "sum")])
        return g.rename_columns(["event_type", "week", "s"])

    agg = ray.data.read_parquet(_p(sf_dir, "events"),
                                columns=["ts", "event_type", "value"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "week"]).aggregate(
            Sum("s", alias_name="sum_value"))

    def growth(g: pa.Table) -> pa.Table:
        week = g["week"].to_numpy()
        order = np.argsort(week, kind="stable")
        week = week[order]
        s = g["sum_value"].to_numpy()[order]
        et = g["event_type"].to_numpy(zero_copy_only=False)[order]
        prev = np.concatenate(([np.nan], s[:-1]))
        pct = np.where(np.isnan(prev), np.nan, (s - prev) / prev)
        return pa.table({
            "event_type": pa.array(et, pa.string()),
            "week": pa.array(week.astype(np.int64)),
            "sum_value": pa.array(_fq(s, 6)),
            "prev_value": pa.array(_fq(prev, 6)),
            "pct_change": pa.array(_fq(pct, 6))})

    return agg.groupby("event_type").map_groups(
        growth, batch_format="pyarrow")


def order_discount_factor(sf_dir: str) -> ray.data.Dataset:
    """Multiplicative aggregate: per order, the compound discount
    factor prod(1 - l_discount) over its lineitems, carried in the
    LOG domain as integer micro-nats (the repo's entropy/logprob
    pattern): each item contributes floor(ln(1 - d) * 1e6) and the
    per-order sum is an order-free EXACT int64 — a raw float product
    is addition(multiplication)-order-sensitive and a 13-item integer
    numerator would overflow 2^53. The twin applies the identical
    ln/floor sequence, so parity is bit-exact.

    Shape: per-batch lexsort + segmented integer sums collapse each
    batch to one partial per (order, batch); ONE bounded
    splitmix(orderkey) bucket shuffle; in-bucket integer-sum merge."""
    n_buckets = derive_buckets(f"{sf_dir}/lineitem.parquet", 512)
    def partial(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy()
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        unat = np.floor(np.log(1.0 - d) * 1e6).astype(np.int64)
        order = np.argsort(ok, kind="stable")
        ok, unat = ok[order], unat[order]
        starts = np.flatnonzero(run_starts(ok))
        s = np.add.reduceat(unat, starts)
        cnt = np.diff(np.concatenate((starts, [len(ok)])))
        return pa.table({
            "l_orderkey": ok[starts].astype(np.int64),
            "s": s.astype(np.int64), "n": cnt.astype(np.int64)})

    def merge(g: pa.Table) -> pa.Table:
        k, s, n = sum_by_key(g["l_orderkey"].to_numpy(),
                             g["s"].to_numpy(), g["n"].to_numpy())
        return pa.table({
            "l_orderkey": pa.array(k.astype(np.int64)),
            "n_items": pa.array(n.astype(np.int64)),
            "log_factor_unat": pa.array(s.astype(np.int64))})

    ds = ray.data.read_parquet(_p(sf_dir, "lineitem"),
                               columns=["l_orderkey", "l_discount"])
    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    "l_orderkey", merge, n_buckets)


def chi2_type_hour(sf_dir: str) -> pd.DataFrame:
    """Chi-square independence test (+ Cramér's V effect size)
    between event_type and hour-of-day — the categorical drift /
    association check a data-quality layer runs on incoming batches.

    Shape: the contingency table is a BOUNDED domain (types x 24), so
    per-batch C++ hash-aggregate partials + ONE bounded groupby reduce
    any input size to <= types*24 rows; the driver folds chi2 from the
    dense matrix INCLUDING unobserved cells (whose expected counts
    still contribute). chi2 sums 120 double terms — addition order is
    the only engine/oracle divergence, absorbed by the round to 6."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        hr = ((batch["ts"].cast(pa.int64()).to_numpy()
               // 3_600_000_000) % 24).astype(np.int64)
        t = pa.table({"event_type": batch["event_type"], "hr": hr,
                      "one": np.ones(len(hr), np.int64)})
        g = pa.TableGroupBy(t, ["event_type", "hr"]).aggregate(
            [("one", "sum")])
        return g.rename_columns(["event_type", "hr", "n"])

    counts = ray.data.read_parquet(_p(sf_dir, "events"),
                                   columns=["ts", "event_type"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby(["event_type", "hr"]).aggregate(
            Sum("n", alias_name="n")).to_pandas()

    types, t_code = np.unique(counts["event_type"].to_numpy(),
                              return_inverse=True)
    obs = np.zeros((len(types), 24), np.float64)
    obs[t_code, counts["hr"].to_numpy().astype(np.int64)] = \
        counts["n"].to_numpy()
    n = obs.sum()
    exp = obs.sum(axis=1, keepdims=True) * obs.sum(axis=0) / n
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = (len(types) - 1) * (24 - 1)
    v = float(np.sqrt(chi2 / (n * min(len(types) - 1, 23))))
    return pd.DataFrame({
        "n_events": [np.int64(n)], "dof": [np.int64(dof)],
        "chi2": _fq([chi2], 6), "cramers_v": _fq([v], 6)})


def winsorized_mean(sf_dir: str, lo_q: float = 0.05,
                    hi_q: float = 0.95) -> pd.DataFrame:
    """Winsorized mean per event_type: clamp values below the lo_q /
    above the hi_q quantile (the group_quantiles discrete rule: min
    value whose cumulative count >= ceil(q*n)) to those bounds, then
    average — the outlier-robust mean a metrics layer prefers over
    raw averages.

    Shape: everything folds from the bounded (type, cent) count table
    (the events_deciles pattern). Clamping and the weighted sum stay
    EXACT int64 cent arithmetic; the single closing division is the
    only float op (round 6), mirrored in the twin."""
    counts = _cent_counts(sf_dir)

    rows = []
    for et, grp in counts.groupby("event_type"):
        grp = grp.sort_values("cent")
        cents = grp["cent"].to_numpy().astype(np.int64)
        c = grp["n"].to_numpy().astype(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = cents[np.searchsorted(cum, int(np.ceil(lo_q * n)))]
        hi = cents[np.searchsorted(cum, int(np.ceil(hi_q * n)))]
        clamped = np.clip(cents, lo, hi)
        s = int((clamped * c).sum())
        rows.append({
            "event_type": et, "n_events": n,
            "lo_bound": lo / 100.0, "hi_bound": hi / 100.0,
            "wins_mean": float(_fq(s / n / 100.0, 6))})
    return pd.DataFrame(rows)


def order_gini(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of orders-per-customer — the concentration /
    inequality diagnostic (is demand long-tailed?). Output: one row
    with customer count, order total, and gini (round 6).

    Shape: per-customer order counts resolve through ONE bounded
    splitmix(custkey) bucket shuffle (per-batch partials first), then
    collapse to the COUNT-OF-COUNTS histogram — a bounded domain
    (orders per customer is a small integer at any scale) — so the
    driver folds the classic rank formula sum((2i - n - 1) * x_(i))
    / (n * total) block-wise over the histogram in exact int64: a
    tie block's rank sum is assignment-invariant. Only the closing
    division is float, mirrored in the twin."""
    n_buckets = derive_buckets(f"{sf_dir}/orders.parquet", 256)
    from ray.data.aggregate import Sum
    def partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy()
        u, c = np.unique(ck, return_counts=True)
        return pa.table({"o_custkey": u.astype(np.int64),
                         "n": c.astype(np.int64)})

    def hist_bucket(g: pa.Table) -> pa.Table:
        _, per_cust = sum_by_key(g["o_custkey"].to_numpy(),
                                 g["n"].to_numpy())
        vals, cnts = np.unique(per_cust, return_counts=True)
        return pa.table({"n_orders": pa.array(vals.astype(np.int64)),
                         "n_cust": pa.array(cnts.astype(np.int64))})

    hist = exchange(ray.data.read_parquet(_p(sf_dir, "orders"),
                                          columns=["o_custkey"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "o_custkey", hist_bucket, n_buckets) \
        .groupby("n_orders").aggregate(Sum("n_cust", alias_name="n_cust")) \
        .to_pandas().sort_values("n_orders")

    v = hist["n_orders"].to_numpy().astype(np.int64)
    c = hist["n_cust"].to_numpy().astype(np.int64)
    n = int(c.sum())
    tot = int((v * c).sum())
    # block-wise sum of (2i - n - 1) * v over ranks i in [s, s+c)
    starts = np.concatenate(([1], 1 + np.cumsum(c)[:-1]))
    block = 2 * (c * starts + c * (c - 1) // 2) - c * (n + 1)
    num = int((block * v).sum())
    gini = float(np.floor(num / n / tot * 1e6 + 0.5) / 1e6) if num >= 0 \
        else float(np.ceil(num / n / tot * 1e6 - 0.5) / 1e6)
    return pd.DataFrame({"n_customers": [np.int64(n)],
                         "n_orders_total": [np.int64(tot)],
                         "gini": [gini]})


def late_orders(sf_dir: str, grace_days: int = 90) -> ray.data.Dataset:
    """EXISTS semi-join (TPC-H Q4 shape): per order priority, how many
    orders had at least one lineitem shipped more than ``grace_days``
    after the order date.

    The predicate couples both tables (l_shipdate vs o_orderdate), so
    neither side can pre-filter alone — but EXISTS only needs each
    order's MAX ship date: lineitem collapses per batch to one
    (orderkey, max_ship) row, both sides land in the same bounded
    splitmix(orderkey) bucket, and the per-bucket finalizer emits
    per-priority partial counts (<= 5 rows per bucket). Shuffle
    payload: one 20-byte row per order per side, never the lineitems."""
    n_buckets = derive_buckets(f"{sf_dir}/lineitem.parquet", 256)

    grace_us = np.int64(grace_days) * 86_400_000_000

    def li_partial(b: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")), pa.int64())
        t = pa.table({"orderkey": b["l_orderkey"], "ship": ship})
        g = pa.TableGroupBy(t, "orderkey").aggregate([("ship", "max")])
        return g.rename_columns(["orderkey", "max_ship"])

    def ord_partial(b: pa.Table) -> pa.Table:
        od = pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")), pa.int64())
        return pa.table({"orderkey": b["o_orderkey"], "odate": od,
                         "priority": b["o_orderpriority"]})

    def semi(li: pa.Table, o: pa.Table) -> pa.Table:
        k = li["orderkey"].to_numpy()
        order = np.argsort(k, kind="stable")
        k = k[order]
        starts = np.flatnonzero(run_starts(k))
        ms_keys = k[starts]
        ms_vals = np.maximum.reduceat(li["max_ship"].to_numpy()[order],
                                      starts)
        o_key = o["orderkey"].to_numpy()
        mapped = np.full(len(o_key), np.iinfo(np.int64).min, np.int64)
        if len(ms_keys):
            pos = np.clip(np.searchsorted(ms_keys, o_key),
                          0, len(ms_keys) - 1)
            found = ms_keys[pos] == o_key
            mapped[found] = ms_vals[pos[found]]
        late = (mapped > (o["odate"].to_numpy() + grace_us)).astype(np.int64)
        prio = o["priority"].to_numpy(zero_copy_only=False)
        pu, inv = np.unique(prio, return_inverse=True)
        return pa.table({
            "priority": pa.array(pu, pa.string()),
            "n_late": pa.array(
                np.bincount(inv, weights=late, minlength=len(pu))
                .astype(np.int64)),
            "n_orders": pa.array(
                np.bincount(inv, minlength=len(pu)).astype(np.int64))})

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]) \
        .map_batches(li_partial, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(ord_partial, batch_format="pyarrow")
    agg = cogroup(li, orders, "orderkey", "orderkey", semi, n_buckets) \
        .groupby("priority").aggregate(
            Sum("n_late", alias_name="n_late"),
            Sum("n_orders", alias_name="n_orders"))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderpriority": df["priority"],
            "n_late": df["n_late"].astype(np.int64),
            "n_orders": df["n_orders"].astype(np.int64)})

    return agg.map_batches(finalize, batch_format="pandas")


def user_entropy(sf_dir: str) -> ray.data.Dataset:
    """Behavioral entropy: per-user Shannon entropy (nats) of the
    event-type distribution — near 0 = single-behavior user, near
    ln(|types|) = uniform mix. The per-(user, type) count table is
    the bounded unit: per-batch Arrow hash-aggregate partials, ONE
    splitmix(user) bucket shuffle co-locates each user's counts, and
    the entropy finishes vectorized inside the bucket (term order
    fixed by an event_type sort so the float sum is bit-stable)."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def partial(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["user_id", "event_type"]),
                            ["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        return pa.table({"user_id": pc.cast(g["user_id"], pa.int64()),
                         "event_type": g["event_type"],
                         "c": pc.cast(g["event_type_count"], pa.int64())})

    def entropy_group(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(zero_copy_only=False)
        cv = g["c"].to_numpy()
        order = np.lexsort((et, uid))
        uid, et, cv = uid[order], et[order], cv[order]
        if len(uid) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "entropy": pa.array([], pa.float64())})
        pair_first = np.flatnonzero(run_starts(uid, et))
        c = np.add.reduceat(cv, pair_first).astype(np.float64)
        uid = uid[pair_first]
        start = np.flatnonzero(run_starts(uid))
        uu = uid[start]
        n = np.add.reduceat(c, start)
        p = c / np.repeat(n, np.diff(np.append(start, c.size)))
        terms = p * np.log(p)
        ent = -np.add.reduceat(terms, start)
        ent = np.where(ent >= 0, np.floor(ent * 1e6 + 0.5),
                       np.ceil(ent * 1e6 - 0.5)) / 1e6
        return pa.table({"user_id": pa.array(uu.astype(np.int64)),
                         "n_events": pa.array(n.astype(np.int64)),
                         "entropy": pa.array(ent)})

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["user_id", "event_type"])
    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    "user_id", entropy_group, n_buckets)


def _skyline_mask(date_us: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D Pareto frontier: row r survives iff no
    row s has (s.date <= r.date AND s.cents >= r.cents) with at least
    one strict. One lexsort (date asc, cents desc); within a date the
    group max survives (ties included), across dates a row must beat
    the running max of all strictly-earlier dates."""
    n = date_us.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-cents, date_us))
    d, p = date_us[order], cents[order]
    new = run_starts(d)
    gidx = np.cumsum(new) - 1
    gmax = p[np.flatnonzero(new)]  # per-date max (sorted desc in group)
    prev = np.concatenate(([np.iinfo(np.int64).min],
                           np.maximum.accumulate(gmax)[:-1]))
    keep_sorted = (p == gmax[gidx]) & (p > prev[gidx])
    keep = np.zeros(n, dtype=bool)
    keep[order[keep_sorted]] = True
    return keep


def pareto_orders(sf_dir: str) -> pd.DataFrame:
    """Skyline / Pareto frontier over orders on (o_orderdate minimized,
    o_totalprice maximized): an order survives iff no other order is at
    least as early AND at least as expensive with one strict. Skyline
    is a mergeable reduction — skyline(A U B) == skyline(skyline(A) U
    skyline(B)) — so each batch collapses to its LOCAL frontier
    (expected O(log n) rows for exchangeable data; adversarially
    pre-sorted input degrades to the batch itself, documented) and the
    driver folds the bounded union with the same kernel. Prices compare
    as exact half-away-from-zero cents so the frontier membership test
    is bit-identical to the DuckDB window twin."""

    def partial(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        price = b["o_totalprice"].to_numpy()
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        keep = _skyline_mask(d, cents)
        return pa.table({
            "o_orderkey": b["o_orderkey"].to_numpy()[keep].astype(np.int64),
            "date_us": d[keep],
            "cents": cents[keep],
            "o_totalprice": price[keep]})

    ds = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_totalprice"]) \
        .map_batches(partial, batch_format="pyarrow")
    df = ds.to_pandas()  # bounded: union of per-batch frontiers
    keep = _skyline_mask(df["date_us"].to_numpy(), df["cents"].to_numpy())
    out = df[keep].sort_values("o_orderkey")
    return pd.DataFrame({
        "o_orderkey": out["o_orderkey"].to_numpy(),
        "o_orderdate": pd.to_datetime(out["date_us"].to_numpy(), unit="us")
            .strftime("%Y-%m-%d %H:%M:%S"),
        "o_totalprice": out["o_totalprice"].to_numpy()})


def idle_customers(sf_dir: str,
                   cutoff: str = "2000-06-01") -> ray.data.Dataset:
    """TPC-H Q22 shape: per nation, customers whose balance beats the
    global average positive balance but who placed NO order since
    ``cutoff``. Three bounded moves: (1) a 2-int reduce over customer
    yields (sum_pos_cents, n_pos); the threshold test is the exact
    integer cross-multiplication cents * n > sum — no float division
    on either side, so the boundary customer can never flip; (2) the
    recent half of orders collapses per batch to distinct custkeys;
    (3) ONE splitmix(custkey) bucket shuffle co-locates rich customers
    with the has-recent-order key set; the anti-join is one vectorized
    np.isin per bucket emitting <= 25 per-nation partial rows."""
    n_buckets = derive_buckets(f"{sf_dir}/customer.parquet", 256)

    cutoff_us = np.int64(pd.Timestamp(cutoff).value // 1000)

    def bal_partial(b: pa.Table) -> pa.Table:
        cents = np.floor(b["c_acctbal"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        pos = cents[cents > 0]
        return pa.table({"s": np.array([pos.sum()], np.int64),
                         "n": np.array([pos.size], np.int64)})

    st = ray.data.read_parquet(_p(sf_dir, "customer"),
                               columns=["c_acctbal"]) \
        .map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    s_pos, n_pos = int(st["s"].sum()), int(st["n"].sum())

    def cust_partial(b: pa.Table) -> pa.Table:
        cents = np.floor(b["c_acctbal"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        keep = cents * n_pos > s_pos
        return pa.table({
            "custkey": b["c_custkey"].to_numpy()[keep].astype(np.int64),
            "nation": b["c_nationkey"].to_numpy()[keep].astype(np.int64),
            "cents": cents[keep]})

    def ord_partial(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        ck = b["o_custkey"].to_numpy().astype(np.int64)
        return pa.table({"custkey": np.unique(ck[ts >= cutoff_us])})

    def anti(c: pa.Table, o: pa.Table) -> pa.Table:
        idle = ~np.isin(c["custkey"].to_numpy(), o["custkey"].to_numpy())
        nat = c["nation"].to_numpy()[idle]
        cents = c["cents"].to_numpy()[idle]
        if nat.size == 0:
            return pa.table({"nation": pa.array([], pa.int64()),
                             "n_cust": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64())})
        k, s = sum_by_key(nat, cents)
        _, c = np.unique(nat, return_counts=True)  # same asc key order
        return pa.table({"nation": pa.array(k.astype(np.int64)),
                         "n_cust": pa.array(c.astype(np.int64)),
                         "total_cents": pa.array(s.astype(np.int64))})

    cust = ray.data.read_parquet(
        _p(sf_dir, "customer"),
        columns=["c_custkey", "c_nationkey", "c_acctbal"]) \
        .map_batches(cust_partial, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]) \
        .map_batches(ord_partial, batch_format="pyarrow")
    agg = cogroup(cust, orders, "custkey", "custkey", anti, n_buckets) \
        .groupby("nation").aggregate(
            Sum("n_cust", alias_name="n_cust"),
            Sum("total_cents", alias_name="total_cents"))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_nationkey": df["nation"].astype(np.int64),
            "n_cust": df["n_cust"].astype(np.int64),
            "total_cents": df["total_cents"].astype(np.int64)})

    return agg.map_batches(finalize, batch_format="pandas")


def waiting_suppliers(sf_dir: str, grace_days: int = 90) -> ray.data.Dataset:
    """TPC-H Q21 shape (late predicate adapted to this schema's
    dates): over completed ('F') multi-supplier orders where EXACTLY
    ONE supplier shipped late (its max ship date > o_orderdate +
    grace), count blamed orders per supplier. The order's full
    supplier set must co-locate: lineitem collapses per batch to
    (orderkey, suppkey, max_ship) partials — never re-shuffling raw
    lines — orders ship (orderkey, odate) for 'F' rows only, ONE
    bounded splitmix(orderkey) bucket shuffle, and the per-bucket
    finalizer is reduceat arithmetic (per-(order,supplier) late flags,
    per-order supplier counts, the exactly-one filter) emitting
    per-supplier partials bounded by the supplier dimension. Names
    attach from a ray.put-broadcast dim at the tiny tail."""
    n_buckets = derive_buckets(f"{sf_dir}/supplier.parquet", 256)

    grace_us = np.int64(grace_days) * 86_400_000_000

    def li_partial(b: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")),
                       pa.int64())
        t = pa.table({"orderkey": b["l_orderkey"],
                      "suppkey": b["l_suppkey"], "ship": ship})
        g = pa.TableGroupBy(t, ["orderkey", "suppkey"]).aggregate(
            [("ship", "max")])
        return g.rename_columns(["orderkey", "suppkey", "max_ship"])

    def ord_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["o_orderstatus"], "F"))
        od = pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")),
                     pa.int64())
        return pa.table({"orderkey": b["o_orderkey"], "odate": od})

    def blame(li: pa.Table, o: pa.Table) -> pa.Table:
        lo, ls = li["orderkey"].to_numpy(), li["suppkey"].to_numpy()
        lm = li["max_ship"].to_numpy()
        order = np.lexsort((ls, lo))
        lo, ls, lm = lo[order], ls[order], lm[order]
        starts_p = np.flatnonzero(run_starts(lo, ls))
        lo_p, ls_p = lo[starts_p], ls[starts_p]
        lm_p = np.maximum.reduceat(lm, starts_p)
        o_key = o["orderkey"].to_numpy()
        o_od = o["odate"].to_numpy()
        oo = np.argsort(o_key, kind="stable")
        o_key, o_od = o_key[oo], o_od[oo]
        if o_key.size and lo_p.size:
            pos = np.clip(np.searchsorted(o_key, lo_p), 0, o_key.size - 1)
            found = o_key[pos] == lo_p  # drops lineitems of non-'F' orders
            odate = o_od[pos[found]]
        else:
            found = np.zeros(lo_p.size, bool)
            odate = np.zeros(0, np.int64)
        lo_p, ls_p, lm_p = lo_p[found], ls_p[found], lm_p[found]
        if lo_p.size == 0:
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "n_waits": pa.array([], pa.int64())})
        late = lm_p > (odate + grace_us)
        start = np.flatnonzero(run_starts(lo_p))
        n_supp = np.diff(np.append(start, lo_p.size))
        n_late = np.add.reduceat(late.astype(np.int64), start)
        qual = (n_supp >= 2) & (n_late == 1)
        blamed = np.repeat(qual, n_supp) & late
        u, c = np.unique(ls_p[blamed], return_counts=True)
        return pa.table({"s_suppkey": pa.array(u.astype(np.int64)),
                         "n_waits": pa.array(c.astype(np.int64))})

    import pyarrow.parquet as pq
    sup = pq.read_table(_p(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_name"])
    sk = sup["s_suppkey"].to_numpy().astype(np.int64)
    order = np.argsort(sk)
    names_ref = ray.put((sk[order],
                         sup["s_name"].to_numpy(zero_copy_only=False)[order]))

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"]) \
        .map_batches(li_partial, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"]) \
        .map_batches(ord_partial, batch_format="pyarrow")
    agg = cogroup(li, orders, "orderkey", "orderkey", blame, n_buckets) \
        .groupby("s_suppkey").aggregate(Sum("n_waits", alias_name="n_waits"))

    def finalize(df: pd.DataFrame, _ref=names_ref) -> pd.DataFrame:
        keys, names = ray.get(_ref)
        sk = df["s_suppkey"].to_numpy().astype(np.int64)
        idx = np.searchsorted(keys, sk)
        return pd.DataFrame({
            "s_suppkey": sk,
            "s_name": names[idx],
            "n_waits": df["n_waits"].astype(np.int64)})

    return agg.map_batches(finalize, batch_format="pandas")


def order_price_ranks(sf_dir: str, n_parts: int = 64,
                      sample_mod: int = 32) -> ray.data.Dataset:
    """TeraSort-pattern global sort with EXACT ranks: every order gets
    its row_number under ORDER BY (cents, o_orderkey) without a global
    sort barrier. Three column-pruned passes:
    (1) a deterministic hash-selected key sample
    (splitmix(o_orderkey) % sample_mod == 0 — a property of the ROW,
    so the sample is block-layout independent) folds to n_parts-1
    split points on the driver;
    (2) per-batch histograms over the split buckets fold to exact
    cross-bucket prefix offsets (<= n_parts rows per batch);
    (3) rows shuffle ONCE on their range bucket; each reducer lexsorts
    its bucket locally and adds its bucket's offset — local rank +
    exact offset == global row_number. Rows tied on cents share a
    bucket (side='right' partition rule), so the (cents, orderkey)
    total order never straddles a boundary; a fully-degenerate key
    column therefore lands in one bucket (documented skew bound — the
    sample-split balance only helps when keys spread)."""

    def key_of(b: pa.Table):
        ok = b["o_orderkey"].to_numpy().astype(np.int64)
        cents = np.floor(b["o_totalprice"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        return ok, cents

    def sample_batch(b: pa.Table) -> pa.Table:
        ok, cents = key_of(b)
        sel = splitmix64(ok) % np.uint64(sample_mod) == 0
        return pa.table({"cents": cents[sel]})

    cols = ["o_orderkey", "o_totalprice"]
    samp = np.sort(ray.data.read_parquet(_p(sf_dir, "orders"), columns=cols)
                   .map_batches(sample_batch, batch_format="pyarrow")
                   .to_pandas()["cents"].to_numpy())
    if samp.size >= n_parts:
        splits = np.unique(samp[(np.arange(1, n_parts) * samp.size)
                                // n_parts])
    else:
        splits = np.unique(samp)
    n_buckets = splits.size + 1

    def hist_batch(b: pa.Table) -> pa.Table:
        _, cents = key_of(b)
        cnt = np.bincount(np.searchsorted(splits, cents, side="right"),
                          minlength=n_buckets)
        return pa.table({"bucket": np.arange(n_buckets, dtype=np.int64),
                         "n": cnt.astype(np.int64)})

    hist = ray.data.read_parquet(_p(sf_dir, "orders"), columns=cols) \
        .map_batches(hist_batch, batch_format="pyarrow").to_pandas() \
        .groupby("bucket")["n"].sum()
    counts = np.zeros(n_buckets, np.int64)
    counts[hist.index.to_numpy()] = hist.to_numpy()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    def part_batch(b: pa.Table) -> pa.Table:
        ok, cents = key_of(b)
        return pa.table({"o_orderkey": ok, "cents": cents,
                         "bucket": np.searchsorted(splits, cents,
                                                   side="right")
                         .astype(np.int64)})

    def rank_group(g: pa.Table) -> pa.Table:
        bkt = int(g["bucket"][0].as_py())
        ok = g["o_orderkey"].to_numpy()
        cents = g["cents"].to_numpy()
        order = np.lexsort((ok, cents))
        rank = np.empty(len(ok), np.int64)
        rank[order] = np.arange(1, len(ok) + 1)
        return pa.table({"o_orderkey": pa.array(ok), "cents": pa.array(cents),
                         "global_rank": pa.array(rank + offsets[bkt])})

    return ray.data.read_parquet(_p(sf_dir, "orders"), columns=cols) \
        .map_batches(part_batch, batch_format="pyarrow") \
        .groupby("bucket").map_groups(rank_group, batch_format="pyarrow")


EWMA_ALPHA = 0.2
EWMA_WINDOW = 8
# decay weights (1-alpha)^k, computed ONCE here and injected into the
# SQL twin as full-precision literals (repr), so engine and oracle
# share the exact same doubles with no pow() libm dependence.
EWMA_WEIGHTS = tuple((1.0 - EWMA_ALPHA) ** k for k in range(EWMA_WINDOW))


def events_ewma(sf_dir: str) -> ray.data.Dataset:
    """Exponentially weighted moving value per user over the last
    EWMA_WINDOW events in (ts, event_id) order — the decaying-window
    smoother a metrics pipeline runs (finite FIR form, so the state
    is bounded and the twin is a closed-form lag() expression, not a
    recursive CTE).

    Shape: events_lag's plan — ONE bounded splitmix(user) bucket
    shuffle, whole-bucket lexsort, then W-1 vectorized shift-compare
    passes (no per-row loop). Exactness: values quantize to INT64
    micro-units first; the weighted sums accumulate in the IDENTICAL
    left-to-right addition order as the twin's literal + chain, with
    the same weight doubles (EWMA_WEIGHTS is injected into the SQL as
    repr literals)."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    c = EWMA_WEIGHTS
    W = EWMA_WINDOW

    def ewma_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        vm = g["vm"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, vm = uid[order], ts[order], eid[order], vm[order]
        n = len(uid)
        vmf = vm.astype(np.float64)
        num = c[0] * vmf
        den = np.full(n, c[0])
        for k in range(1, W):
            if k >= n:
                break
            ok = np.concatenate((np.zeros(k, dtype=bool),
                                 uid[k:] == uid[:-k]))
            vshift = np.concatenate((np.zeros(k), vmf[:-k]))
            num = num + c[k] * np.where(ok, vshift, 0.0)
            den = den + c[k] * ok.astype(np.float64)
        ewma = _fq(num / den / 1000000.0, 6)
        return pa.table({"event_id": eid, "user_id": uid, "ts_us": ts,
                         "ewma": ewma})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "value"]) \
        .map_batches(_events_vm, batch_format="pyarrow")
    return exchange(ds, "user_id", ewma_bucket, n_buckets)


def events_debounce(sf_dir: str, gap_s: int = 86400) -> ray.data.Dataset:
    """TRUE stateful debounce per user: an event is kept iff it is the
    user's first, or >= gap since the last KEPT event — the classic
    sequential chain a rate-limiter / alert-dedup stage runs. Unlike a
    lag filter (events_lag), the predicate depends on the running
    RESULT, so there is no closed window form.

    The chain is still vectorized: within each user bucket, rows sort
    by (user, ts, event_id) and the loop runs over the per-user event
    INDEX in lockstep across every user in the bucket (the CRC32C /
    fastdecode cursor pattern) — each step is one vectorized
    compare-and-update over all users whose chain is that deep, so
    work is sum(chain lengths) with no per-event Python. Timestamps
    are integers; the twin is a recursive CTE carrying last_kept per
    user — bit-exact."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    gap_us = int(gap_s) * 1_000_000

    def debounce_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid = uid[order], ts[order], eid[order]
        n = len(uid)
        if n == 0:
            return pa.table({"event_id": np.empty(0, np.int64),
                             "user_id": np.empty(0, np.int64),
                             "ts_us": np.empty(0, np.int64)})
        starts = np.flatnonzero(run_starts(uid))
        counts = np.diff(np.concatenate((starts, [n])))
        max_depth = int(counts.max())
        # lockstep over chain depth: user u's j-th event is at
        # starts[u] + j, alive while j < counts[u]
        last_kept = ts[starts].copy()  # depth 0 always kept
        kept = np.zeros(n, dtype=bool)
        kept[starts] = True
        for j in range(1, max_depth):
            alive = counts > j
            rows = starts[alive] + j
            ok = ts[rows] - last_kept[alive] >= gap_us
            kept[rows[ok]] = True
            lk = last_kept[alive]
            lk[ok] = ts[rows[ok]]
            last_kept[alive] = lk
        return pa.table({"event_id": eid[kept], "user_id": uid[kept],
                         "ts_us": ts[kept]})

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(b["event_id"], pa.int64()),
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts_us": pc.cast(b["ts"], pa.int64())})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id"]) \
        .map_batches(project, batch_format="pyarrow")
    return exchange(ds, "user_id", debounce_bucket, n_buckets)


def events_cusum(sf_dir: str, drift_micro: int = 80_000_000,
                 threshold_micro: int = 150_000_000) -> ray.data.Dataset:
    """CUSUM change-point detection per user (Page's classic test):
    s_i = max(0, s_{i-1} + (x_i - drift)), alarm when s_i crosses the
    threshold, s resets to 0 on alarm. Like events_debounce the state
    depends on the running RESULT, so the chain runs in LOCKSTEP over
    per-user event index — one vectorized update per chain depth —
    after ONE bounded user-bucket shuffle. Values quantize to INT64
    micro-units first, so the recurrence is pure integer arithmetic
    and the recursive-CTE twin is bit-exact.

    Output: the alarm events only (event_id, user_id, ts_us, s_micro
    at alarm)."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def cusum_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        vm = g["vm"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, vm = uid[order], ts[order], eid[order], vm[order]
        n = len(uid)
        empty = pa.table({"event_id": np.empty(0, np.int64),
                          "user_id": np.empty(0, np.int64),
                          "ts_us": np.empty(0, np.int64),
                          "s_micro": np.empty(0, np.int64)})
        if n == 0:
            return empty
        starts = np.flatnonzero(run_starts(uid))
        counts = np.diff(np.concatenate((starts, [n])))
        s = np.zeros(len(starts), np.int64)  # per-user running CUSUM
        alarm = np.zeros(n, dtype=bool)
        s_at = np.zeros(n, np.int64)
        for j in range(int(counts.max())):
            alive = counts > j
            rows = starts[alive] + j
            sj = np.maximum(0, s[alive] + (vm[rows] - drift_micro))
            fired = sj > threshold_micro
            alarm[rows[fired]] = True
            s_at[rows] = sj
            sj[fired] = 0  # reset after alarm
            s[alive] = sj
        return pa.table({"event_id": eid[alarm], "user_id": uid[alarm],
                         "ts_us": ts[alarm], "s_micro": s_at[alarm]})

    ds = ray.data.read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "ts", "user_id", "value"]) \
        .map_batches(_events_vm, batch_format="pyarrow")
    return exchange(ds, "user_id", cusum_bucket, n_buckets)


def type_affinity(sf_dir: str) -> ray.data.Dataset:
    """Market-basket affinity over event types (association-rule
    lift): for each unordered type pair (a < b), the number of users
    exhibiting both, each type's user count, and
    lift = (n_ab * n_users) / (n_a * n_b) — the support/lift mining
    pass a behavioral pipeline runs. All counts are exact integers
    (distinct-user semantics); lift is one float division of exact
    ints, identical on both sides.

    Shape: per-batch distinct (user, type) partials (types are a
    BOUNDED domain), ONE splitmix(user) bucket shuffle co-locates each
    user's whole type set, per-bucket pair expansion is <= C(|types|,2)
    rows per user, and the final merge domain is pairs of a bounded
    vocabulary."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"user_id": b["user_id"], "event_type": b["event_type"]})
        return pa.TableGroupBy(t, ["user_id", "event_type"]).aggregate([])

    def pairs_bucket(g: pa.Table) -> pa.Table:
        d = pa.TableGroupBy(g.select(["user_id", "event_type"]),
                            ["user_id", "event_type"]).aggregate([]) \
            .rename_columns(["user_id", "event_type"])
        uid = d["user_id"].to_numpy(zero_copy_only=False)
        typ = np.asarray(d["event_type"])
        order = np.lexsort((typ, uid))
        uid, typ = uid[order], typ[order]
        n = len(uid)
        if n == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        starts = np.flatnonzero(run_starts(uid))
        counts = np.diff(np.concatenate((starts, [n])))
        # ragged pair expansion: types sorted within user -> (a < b)
        pa_list, pb_list = [], []
        for s, c in zip(starts, counts):  # bounded: <= C(5,2) per user
            for i in range(c):
                for j in range(i + 1, c):
                    pa_list.append(typ[s + i])
                    pb_list.append(typ[s + j])
        t = pa.table({"a": pa.array(pa_list, pa.string()),
                      "b": pa.array(pb_list, pa.string()),
                      "one": np.ones(len(pa_list), np.int64)})
        g2 = pa.TableGroupBy(t, ["a", "b"]).aggregate([("one", "sum")])
        return g2.rename_columns(["a", "b", "n"])

    def singles_bucket(g: pa.Table) -> pa.Table:
        d = pa.TableGroupBy(g.select(["user_id", "event_type"]),
                            ["user_id", "event_type"]).aggregate([]) \
            .rename_columns(["user_id", "event_type"])
        t = d.append_column("one", pa.array(np.ones(d.num_rows, np.int64)))
        g2 = pa.TableGroupBy(t.select(["event_type", "one"]), "event_type") \
            .aggregate([("one", "sum")])
        users = pa.table({
            "event_type": pa.array(["__USERS__"], pa.string()),
            "n": pa.array([len(np.unique(
                d["user_id"].to_numpy(zero_copy_only=False)))], pa.int64())})
        return pa.concat_tables([
            g2.rename_columns(["event_type", "n"]), users])

    src = ray.data.read_parquet(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]) \
        .map_batches(partial, batch_format="pyarrow")

    pairs = exchange(src, "user_id", pairs_bucket, n_buckets)
    singles = exchange(src, "user_id", singles_bucket, n_buckets)

    # bounded finals: pairs of a tiny type vocabulary
    singles_df = singles.to_pandas()
    agg = singles_df.groupby("event_type")["n"].sum()
    n_users = int(agg.pop("__USERS__"))
    counts = {str(k): int(v) for k, v in agg.items()}

    def finalize(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, ["a", "b"]).aggregate([("n", "sum")])
        g = g.rename_columns(["a", "b", "n_ab"])
        a = np.asarray(g["a"])
        bb = np.asarray(g["b"])
        n_ab = g["n_ab"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((bb, a))
        a, bb, n_ab = a[order], bb[order], n_ab[order]
        n_a = np.array([counts[str(x)] for x in a], np.int64)
        n_b = np.array([counts[str(x)] for x in bb], np.int64)
        lift = _fq((n_ab.astype(np.float64) * n_users)
                   / (n_a.astype(np.float64) * n_b), 6)
        return pa.table({
            "a": pa.array(a.tolist(), pa.string()),
            "b": pa.array(bb.tolist(), pa.string()),
            "n_ab": pa.array(n_ab), "n_a": pa.array(n_a),
            "n_b": pa.array(n_b), "lift": pa.array(lift)})

    return pairs.repartition(1).map_batches(finalize, batch_format="pyarrow")


def orders_seasonality(sf_dir: str) -> ray.data.Dataset:
    """Seasonal index per calendar month: month revenue share vs the
    uniform-month baseline, index = (month_cents * 12) / total_cents —
    the seasonality profile a demand-forecasting pipeline starts from.
    Exact int cents per row; the index is one division of exact ints
    spelled identically in the twin. Bounded domain (12 rows), zero
    shuffles: per-batch partials merge in one block."""
    def partial(b: pa.Table) -> pa.Table:
        month = pa.compute.month(b["o_orderdate"].cast(pa.timestamp("us"))) \
            .cast(pa.int64()).to_numpy()
        cents = np.floor(b["o_totalprice"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        t = pa.table({"month": month, "cents": cents,
                      "one": np.ones(len(month), np.int64)})
        g = pa.TableGroupBy(t, "month").aggregate(
            [("cents", "sum"), ("one", "sum")])
        return g.rename_columns(["month", "cents", "n"])

    def merge(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, "month").aggregate(
            [("cents", "sum"), ("n", "sum")])
        g = g.rename_columns(["month", "month_cents", "n_orders"])
        m = g["month"].to_numpy(zero_copy_only=False)
        order = np.argsort(m, kind="stable")
        mc = g["month_cents"].to_numpy(zero_copy_only=False)[order]
        n = g["n_orders"].to_numpy(zero_copy_only=False)[order]
        total = int(mc.sum())
        idx = _fq((mc.astype(np.float64) * 12.0) / total, 6)
        return pa.table({
            "month": pa.array(m[order].astype(np.int64)),
            "month_cents": pa.array(mc.astype(np.int64)),
            "n_orders": pa.array(n.astype(np.int64)),
            "seasonal_index": pa.array(idx)})

    return ray.data.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderdate", "o_totalprice"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")
