"""Grouped-selection operators: top-k per group, stratified sampling,
exact per-group quantiles, range join, distributed count-distinct.

These extend the relational family (SURVEY §2.2 "custom operators")
with the shapes Ray Data has no primitive for, built on the repo's
shuffle discipline (CLAUDE.md): a vectorized per-batch PARTIAL that
collapses each batch to at most O(groups_in_batch × k) rows, then ONE
bounded-bucket groupby (splitmix hash of the group key — never a raw
groupby on a high-cardinality key), and a whole-bucket vectorized
finalizer.  At 100 TB the shuffle therefore moves the per-batch
partials, not the input rows, and no stage holds more than a bucket.

Reference parity: the reference engine (fosskers/vectortiles) has no
relational surface — these operators are engine-side additions per the
build brief; each keeps an exact DuckDB oracle twin in
raytiles/oracles.py.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..util import bucket_of, derive_buckets, run_rank, run_starts


def _p(sf_dir: str, table: str) -> str:
    return f"{sf_dir}/{table}.parquet"


# ---------------------------------------------------------------------------
# top-k per group
# ---------------------------------------------------------------------------

def top_orders_per_customer(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """Top-k orders by o_totalprice per customer (ties broken by
    o_orderkey ascending — same contract as the oracle's row_number).

    Partial: each batch keeps at most k rows per customer seen in the
    batch (one lexsort + a run-rank, no Python loop), so the shuffle
    payload is <= k rows per (customer, batch).  Final: ONE bounded
    256-bucket groupby on splitmix(o_custkey); the whole-bucket
    finalizer re-runs the same kernel and emits the rank."""
    n_buckets = derive_buckets(f"{sf_dir}/orders.parquet", 256)

    _EMPTY = pa.schema([
        ("o_custkey", pa.int64()), ("o_orderkey", pa.int64()),
        ("o_totalprice", pa.float64()), ("bucket", pa.int64())])

    def _topk(cust, okey, price, kk):
        order = np.lexsort((okey, -price, cust))
        rank = run_rank(run_starts(cust[order])) + 1
        keep = order[rank <= kk]
        return keep, rank[rank <= kk]

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY.empty_table()
        cust = batch["o_custkey"].to_numpy()
        okey = batch["o_orderkey"].to_numpy()
        price = batch["o_totalprice"].to_numpy()
        keep, _ = _topk(cust, okey, price, k)
        return pa.table({
            "o_custkey": cust[keep].astype(np.int64),
            "o_orderkey": okey[keep].astype(np.int64),
            "o_totalprice": price[keep],
            "bucket": bucket_of(cust[keep], n_buckets)})

    def final(g: pa.Table) -> pa.Table:
        cust = g["o_custkey"].to_numpy()
        okey = g["o_orderkey"].to_numpy()
        price = g["o_totalprice"].to_numpy()
        keep, rank = _topk(cust, okey, price, k)
        return pa.table({
            "o_custkey": cust[keep].astype(np.int64),
            "o_orderkey": okey[keep].astype(np.int64),
            "o_totalprice": price[keep],
            "rank": rank.astype(np.int64)})

    ds = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# stratified sample
# ---------------------------------------------------------------------------

def stratified_sample(sf_dir: str,
                      n_per_stratum: int = 20) -> ray.data.Dataset:
    """Deterministic stratified sample: exactly min(n, |stratum|) docs
    per language, chosen by md5(doc_id-as-decimal-string) rank (the
    repo's md5-derived-hash parity rule — DuckDB reproduces the order
    with row_number() OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)))).

    The 16-byte digest travels through the shuffle as fixed-size
    binary (computed once per doc in the partial) and byte-order ==
    lowercase-hex order, so engine and oracle rank identically.
    Partial top-n per stratum bounds the shuffle at n rows per
    (stratum, batch); strata hash into a bounded bucket key so the
    operator survives high-cardinality strata unchanged."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)

    _EMPTY = pa.schema([
        ("lang", pa.string()), ("doc_id", pa.int64()),
        ("n_chars", pa.int64()), ("skey", pa.binary(16)),
        ("bucket", pa.int64())])

    def _strat_topn(lang_codes, skey, ids, nn):
        order = np.lexsort((ids, skey, lang_codes))
        rank = run_rank(run_starts(lang_codes[order])) + 1
        keep = order[rank <= nn]
        return keep, rank[rank <= nn]

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY.empty_table()
        ids = batch["doc_id"].to_numpy()
        lang = np.asarray(batch["lang"])
        uniq, inv = np.unique(lang, return_inverse=True)
        stratum_h = np.array(
            [int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big")
             for u in uniq], dtype=np.uint64)
        skey = np.array([hashlib.md5(str(i).encode()).digest() for i in ids],
                        dtype="S16")
        keep, _ = _strat_topn(inv, skey, ids, n_per_stratum)
        return pa.table({
            "lang": lang[keep],
            "doc_id": ids[keep].astype(np.int64),
            "n_chars": batch["n_chars"].to_numpy()[keep].astype(np.int64),
            "skey": pa.array(skey[keep], type=pa.binary(16)),
            "bucket": bucket_of(stratum_h, n_buckets)[inv][keep]})

    def final(g: pa.Table) -> pa.Table:
        lang = np.asarray(g["lang"])
        ids = g["doc_id"].to_numpy()
        skey = np.asarray(g["skey"]).astype("S16")
        _, inv = np.unique(lang, return_inverse=True)
        keep, rank = _strat_topn(inv, skey, ids, n_per_stratum)
        return pa.table({
            "lang": lang[keep],
            "doc_id": ids[keep].astype(np.int64),
            "n_chars": g["n_chars"].to_numpy()[keep].astype(np.int64),
            "sample_rank": rank.astype(np.int64)})

    ds = ray.data.read_parquet(_p(sf_dir, "documents"),
                               columns=["doc_id", "lang", "n_chars"])
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact per-group quantiles via bounded histogram
# ---------------------------------------------------------------------------

def group_quantiles(sf_dir: str,
                    qs=(0.25, 0.50, 0.75, 0.95)) -> ray.data.Dataset:
    """Exact per-supplier quantiles of l_quantity via a bounded
    histogram: l_quantity is integral with a tiny domain (1..50), so
    each batch collapses to <= suppliers_in_batch × 50 (supplier,
    quantity, count) rows — the classic exact-quantile-at-scale shape
    (one Arrow hash-aggregate per batch, no sort of the input).

    Quantile rule (shared with the oracle SQL by construction):
    p_q = min value whose within-group cumulative count >= ceil(q·n).
    The finalizer does it for all groups in a bucket with one lexsort
    + segment cumsum + a minimum.reduceat — no per-group loop."""
    n_buckets = derive_buckets(f"{sf_dir}/lineitem.parquet", 64)

    _EMPTY = pa.schema([
        ("l_suppkey", pa.int64()), ("l_quantity", pa.float64()),
        ("n", pa.int64()), ("bucket", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY.empty_table()
        t = pa.table({"l_suppkey": batch["l_suppkey"],
                      "l_quantity": batch["l_quantity"]})
        g = pa.TableGroupBy(t, ["l_suppkey", "l_quantity"]).aggregate(
            [("l_quantity", "count")])
        g = g.rename_columns(["l_suppkey", "l_quantity", "n"])
        return g.append_column(
            "bucket", pa.array(bucket_of(g["l_suppkey"].to_numpy(), n_buckets)))

    def final(g: pa.Table) -> pa.Table:
        supp = g["l_suppkey"].to_numpy()
        qty = g["l_quantity"].to_numpy()
        cnt = g["n"].to_numpy()
        order = np.lexsort((qty, supp))
        supp, qty, cnt = supp[order], qty[order], cnt[order]
        m = len(supp)
        if m == 0:
            return pa.table(
                {"l_suppkey": np.empty(0, np.int64), "n": np.empty(0, np.int64),
                 **{f"p{int(q * 100)}": np.empty(0, np.float64) for q in qs}})
        new = np.empty(m, dtype=bool)
        new[0] = True
        new[1:] = supp[1:] != supp[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        tot = np.add.reduceat(cnt, starts)
        c = np.cumsum(cnt)
        seg_base = c[starts] - cnt[starts]
        cumw = c - seg_base[seg]           # cumulative count within group
        cols = {"l_suppkey": supp[starts].astype(np.int64),
                "n": tot.astype(np.int64)}
        pos_all = np.arange(m, dtype=np.int64)
        for q in qs:
            target = np.ceil(q * tot.astype(np.float64))[seg]
            pos = np.where(cumw >= target, pos_all, m)
            idx = np.minimum.reduceat(pos, starts)
            cols[f"p{int(q * 100)}"] = qty[idx]
        return pa.table(cols)

    ds = ray.data.read_parquet(_p(sf_dir, "lineitem"),
                               columns=["l_suppkey", "l_quantity"])
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# range join
# ---------------------------------------------------------------------------

def range_join(left: ray.data.Dataset, value_col: str, carry_col: str,
               intervals: pa.Table, chunk: float) -> ray.data.Dataset:
    """Distributed range join (an operator Ray Data has no primitive
    for): each left row joins every interval [lo, hi) containing its
    value.  Partitioning: the value domain is chunked at width
    ``chunk``; each interval is REPLICATED to every chunk it overlaps
    and each left row lands in exactly one chunk, so one bounded
    groupby("chunk") co-locates each row with precisely the intervals
    that can match it.  Within a chunk the matcher loops over the
    (few) resident intervals with a vectorized mask per interval.

    Partitioning assumption (documented per the custom-operator
    ladder): intervals-per-chunk is bounded by interval_density ×
    (1 + max_width/chunk) — pick ``chunk`` near the typical interval
    width so the per-chunk loop stays O(overlap factor), and the
    replication factor stays ~(width/chunk + 1).

    ``intervals`` must have columns (band_id int64, lo float64,
    hi float64), as a pyarrow Table or a ray Dataset; the join is
    lo <= value < hi.  Replication runs INSIDE map_batches over the
    intervals dataset, so an interval table too large to hold on the
    driver streams through the same path."""

    def replicate(b: pa.Table) -> pa.Table:
        bid = b["band_id"].to_numpy()
        lo = b["lo"].to_numpy().astype(np.float64)
        hi = b["hi"].to_numpy().astype(np.float64)
        c0 = np.floor(lo / chunk).astype(np.int64)
        c1 = np.ceil(hi / chunk).astype(np.int64)  # hi exclusive: last chunk is c1-1
        reps = np.maximum(c1 - c0, 1)
        idx = np.repeat(np.arange(len(bid)), reps)
        off = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        return pa.table({
            "chunk": (c0[idx] + off).astype(np.int64),
            "side": np.ones(len(idx), np.int8),
            carry_col: np.full(len(idx), -1, np.int64),
            value_col: np.full(len(idx), np.nan),
            "band_id": bid[idx].astype(np.int64),
            "lo": lo[idx], "hi": hi[idx]})

    if isinstance(intervals, pa.Table):
        intervals = ray.data.from_arrow(intervals)
    right = intervals.map_batches(replicate, batch_format="pyarrow")

    def tag(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy().astype(np.float64)
        n = len(v)
        return pa.table({
            "chunk": np.floor(v / chunk).astype(np.int64),
            "side": np.zeros(n, np.int8),
            carry_col: batch[carry_col],
            value_col: batch[value_col],
            "band_id": np.full(n, -1, np.int64),
            "lo": np.full(n, np.nan), "hi": np.full(n, np.nan)})

    _EMPTY_OUT = pa.schema([
        (carry_col, pa.int64()), ("band_id", pa.int64()),
        (value_col, pa.float64())])

    def join_chunk(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy()
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        if li.size == 0 or ri.size == 0:
            return _EMPTY_OUT.empty_table()
        v = g[value_col].to_numpy()[li]
        carry = g[carry_col].to_numpy()[li]
        blo = g["lo"].to_numpy()[ri]
        bhi = g["hi"].to_numpy()[ri]
        bb = g["band_id"].to_numpy()[ri]
        outc, outb, outv = [], [], []
        for j in range(ri.size):                  # bounded by overlap factor
            m = (v >= blo[j]) & (v < bhi[j])
            if m.any():
                outc.append(carry[m])
                outb.append(np.full(int(m.sum()), bb[j], np.int64))
                outv.append(v[m])
        if not outc:
            return _EMPTY_OUT.empty_table()
        return pa.table({
            carry_col: np.concatenate(outc).astype(np.int64),
            "band_id": np.concatenate(outb),
            value_col: np.concatenate(outv)})

    both = left.map_batches(tag, batch_format="pyarrow").union(right)
    return both.groupby("chunk").map_groups(join_chunk, batch_format="pyarrow")


def orders_price_bands(sf_dir: str, n_bands: int = 120,
                       chunk: float = 5000.0,
                       width: float = 15000.0) -> ray.data.Dataset:
    """Demo query for range_join: orders against overlapping price
    bands [i·chunk, i·chunk + width) — each order matches up to
    width/chunk bands, so the join is a genuine interval match, not a
    bucketing in disguise.  The bands here are formulaic (the oracle
    derives them with range()), but they enter the operator as DATA —
    the same path handles a band table too large to broadcast."""
    band_id = np.arange(n_bands, dtype=np.int64)
    intervals = pa.table({"band_id": band_id,
                          "lo": band_id * chunk,
                          "hi": band_id * chunk + width})
    left = ray.data.read_parquet(_p(sf_dir, "orders"),
                                 columns=["o_orderkey", "o_totalprice"])
    return range_join(left, "o_totalprice", "o_orderkey", intervals, chunk)


# ---------------------------------------------------------------------------
# distributed count-distinct
# ---------------------------------------------------------------------------

def distinct_users(sf_dir: str) -> ray.data.Dataset:
    """Exact count(DISTINCT user_id) per event_type, distributed: each
    batch collapses to its distinct (event_type, user_id) pairs (one
    Arrow hash-aggregate), the pairs shuffle on a bounded
    splitmix(user_id) bucket — so every occurrence of a user lands in
    one bucket and each (type, user) pair is counted exactly once —
    and the per-bucket partial counts reduce in a final groupby over
    the bounded event_type domain."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"event_type": batch["event_type"],
                      "user_id": batch["user_id"]})
        g = pa.TableGroupBy(t, ["event_type", "user_id"]).aggregate([])
        return g.append_column(
            "bucket", pa.array(bucket_of(g["user_id"].to_numpy(), n_buckets)))

    def count_bucket(g: pa.Table) -> pa.Table:
        et = np.asarray(g["event_type"])
        uid = g["user_id"].to_numpy()
        uniq, inv = np.unique(et, return_inverse=True)
        order = np.lexsort((uid, inv))
        ii, uu = inv[order], uid[order]
        first = np.empty(len(ii), dtype=bool)
        if len(ii):
            first[0] = True
            first[1:] = (ii[1:] != ii[:-1]) | (uu[1:] != uu[:-1])
        n = np.bincount(ii[first], minlength=len(uniq))
        return pa.table({"event_type": pa.array(uniq),
                         "n_partial": n.astype(np.int64)})

    ds = ray.data.read_parquet(_p(sf_dir, "events"),
                               columns=["event_type", "user_id"])
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(count_bucket, batch_format="pyarrow") \
        .groupby("event_type").aggregate(Sum("n_partial", alias_name="n_users"))

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({"event_type": batch["event_type"],
                         "n_users": pc.cast(batch["n_users"], pa.int64())})

    return agg.map_batches(finalize, batch_format="pyarrow")


def group_mode(sf_dir: str) -> ray.data.Dataset:
    """Distributed ARGMAX / mode: the most frequent user per
    event_type, ties to the smallest user_id — (event_type,
    modal_user, n). The grouped-mode shape for a high-cardinality
    value domain: exact counts need each (type, user) pair co-located
    ONCE, so per-batch partial counts shuffle on splitmix(user_id)
    into bounded buckets, each bucket reduces to ONE candidate row
    per event_type (its local argmax — correct because a user's whole
    count lives in exactly one bucket), and a tiny final pass picks
    the best of <= n_buckets candidates per type with the same
    (n DESC, user ASC) rule.

    SQL twin: row_number() OVER (PARTITION BY event_type ORDER BY
    count(*) DESC, user_id) = 1."""
    n_buckets = derive_buckets(f"{sf_dir}/events.parquet", 256)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"event_type": b["event_type"],
                      "user_id": b["user_id"].cast(pa.int64())})
        g = pa.TableGroupBy(t, ["event_type", "user_id"]).aggregate(
            [("user_id", "count")])
        g = g.rename_columns(["event_type", "user_id", "n"])
        return g.append_column("bucket", pa.array(bucket_of(
            g["user_id"].to_numpy().astype(np.uint64), n_buckets)))

    def _argmax_per_type(et: np.ndarray, uid: np.ndarray,
                         n: np.ndarray) -> pa.Table:
        # sort (type asc, n desc, user asc); first row per type wins
        order = np.lexsort((uid, -n, np.asarray(et, dtype=object)))
        ets, us, ns = et[order], uid[order], n[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], ets[1:] != ets[:-1])))
        return pa.table({
            "event_type": pa.array([str(x) for x in ets[starts]],
                                   pa.string()),
            "modal_user": pa.array(us[starts].astype(np.int64)),
            "n": pa.array(ns[starts].astype(np.int64))})

    def bucket_best(g: pa.Table) -> pa.Table:
        et = np.asarray(g["event_type"])
        uid = g["user_id"].to_numpy()
        n = g["n"].to_numpy()
        # merge duplicate (type, user) partials within the bucket
        order = np.lexsort((uid, np.asarray(et, dtype=object)))
        ets, us, ns = et[order], uid[order], n[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (ets[1:] != ets[:-1]) | (us[1:] != us[:-1]))))
        t = _argmax_per_type(ets[starts], us[starts],
                             np.add.reduceat(ns, starts))
        return t.append_column("g", pa.array(np.zeros(t.num_rows, np.int64)))

    def final(g: pa.Table) -> pa.Table:
        return _argmax_per_type(np.asarray(g["event_type"]),
                                g["modal_user"].to_numpy(),
                                g["n"].to_numpy())

    return ray.data.read_parquet(_p(sf_dir, "events"),
                                 columns=["event_type", "user_id"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_best, batch_format="pyarrow") \
        .groupby("g").map_groups(final, batch_format="pyarrow")


def weighted_sample(sf_dir: str, k: int = 100) -> ray.data.Dataset:
    """Deterministic weighted sampling WITHOUT replacement (the A-ES /
    Efraimidis-Spirakis scheme): each doc draws priority u^(1/w) from
    a uniform u derived from md5(doc_id) (the repo's md5-derived-hash
    parity rule) with weight w = n_chars, and the global top-k
    priorities form the sample — longer documents are proportionally
    likelier, and the draw is reproducible run-to-run and in the
    DuckDB twin (same md5 -> u64 -> double -> pow chain).

    Shape: each batch collapses to its local top-k (one vectorized
    argpartition-free sort over <= batch rows), the tiny partials are
    sorted once globally (k rows per batch in flight, never the
    input), and the final limit emits k rows. The float priority is
    used ONLY for ordering (ties broken by doc_id) and is not an
    output column, so cross-libm pow ulp differences cannot produce a
    value mismatch; an ordering flip would need two priorities within
    one ulp of each other across a continuous hash domain."""
    TWO64 = 18446744073709551616.0

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_chars": pa.array([], pa.int64()),
                             "prio": pa.array([], pa.float64())})
        ids = batch["doc_id"].to_numpy()
        w = batch["n_chars"].to_numpy().astype(np.float64)
        u64 = np.array(
            [int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "big")
             for i in ids], dtype=np.uint64)
        u = u64.astype(np.float64) / TWO64
        prio = np.power(u, 1.0 / w)
        # local top-k: sort by (-prio, doc_id), keep k
        order = np.lexsort((ids, -prio))[:k]
        return pa.table({
            "doc_id": ids[order].astype(np.int64),
            "n_chars": batch["n_chars"].to_numpy()[order].astype(np.int64),
            "prio": prio[order]})

    ds = ray.data.read_parquet(_p(sf_dir, "documents"),
                               columns=["doc_id", "n_chars"])
    top = ds.map_batches(partial, batch_format="pyarrow") \
        .sort(["prio", "doc_id"], descending=[True, False]) \
        .limit(k)
    return top.drop_columns(["prio"])
