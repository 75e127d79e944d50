"""Mergeable-sketch operators: HyperLogLog approximate count-distinct.

The sketch family demonstrates the third custom-operator shape from
the build brief (alongside the as-of/range joins and windowed
aggregates): per-batch partial state that is ASSOCIATIVE and
COMMUTATIVE under merge (here: elementwise register max), so the
all-to-all exchange moves at most ``groups x m`` register rows per
batch no matter the input cardinality, and any re-grouping of batches
yields bit-identical registers.

Algorithm: HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) with
the standard small-range correction, on a splitmix64 hash — fully
deterministic, so tests can pin exact outputs, not just error bounds.
No SQL oracle (approximate by design); the pytest oracle checks the
estimate against the exact distinct count within the 1.04/sqrt(m)
error regime and the merge-invariance property.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..util import bucket_of, derive_buckets, splitmix64
from .relational import _fq

_HLL_BUCKETS = 64  # register-merge buckets of the HLL chain


def _hll_rows(sf_dir: str, p: int) -> ray.data.Dataset:
    """Shared HLL register chain: per-batch (event_type, reg, rank)
    max partials -> bounded bucket merge. Consumed by the estimating
    query (approx_distinct_users) and the sketch-column packers
    (hll_sketches / hll_union)."""
    m = 1 << p
    low_bits = 64 - p
    low_mask = np.uint64((1 << low_bits) - 1)

    def _max_per_key(key: np.ndarray, rank: np.ndarray):
        order = np.argsort(key, kind="stable")
        k, r = key[order], rank[order]
        starts = np.flatnonzero(
            np.concatenate(([True], k[1:] != k[:-1]))) if len(k) else \
            np.empty(0, np.int64)
        if len(k) == 0:
            return k, r
        return k[starts], np.maximum.reduceat(r, starts)

    def partial(b: pa.Table) -> pa.Table:
        et = np.asarray(b["event_type"])
        codes, inv = np.unique(et, return_inverse=True)
        h = splitmix64(b["user_id"].to_numpy())
        idx = (h >> np.uint64(low_bits)).astype(np.int64)
        v = (h & low_mask).astype(np.float64)   # < 2^52: float64-exact
        _, ex = np.frexp(v)
        rank = np.where(v > 0, low_bits - (ex - 1), low_bits + 1) \
            .astype(np.int64)
        key = inv.astype(np.int64) * m + idx
        ku, mx = _max_per_key(key, rank)
        return pa.table({
            "event_type": pa.array(codes[ku // m]),
            "reg": ku % m,
            "rank": mx,
            "bucket": (ku % m) % _HLL_BUCKETS})

    def merge(g: pa.Table) -> pa.Table:
        et = np.asarray(g["event_type"])
        codes, inv = np.unique(et, return_inverse=True)
        key = inv.astype(np.int64) * m + g["reg"].to_numpy()
        ku, mx = _max_per_key(key, g["rank"].to_numpy())
        return pa.table({"event_type": pa.array(codes[ku // m]),
                         "reg": ku % m, "rank": mx})

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def approx_distinct_users(sf_dir: str, p: int = 12) -> ray.data.Dataset:
    """Approximate count(DISTINCT user_id) per event_type via HLL with
    m = 2**p registers.

    Partial (per batch): hash user_ids, split each hash into a
    register index (top p bits) and a rank (leading-zero count of the
    remaining 64-p bits, +1), and collapse to the per-(event_type,
    register) max — one argsort + maximum.reduceat, no Python loop.
    Shuffle: registers hash-partition into a bounded bucket key; the
    per-bucket merge is the same max-reduce (register max is
    associative+commutative, so partial order never matters).
    Finalize: ONE bounded groupby over event_type computes the HLL
    estimate from its <= m register rows (absent registers count as
    rank 0 in the harmonic sum)."""
    m = 1 << p

    def estimate(g: pa.Table) -> pa.Table:
        ranks = g["rank"].to_numpy()
        zeros = m - len(ranks)
        s = float(np.sum(np.ldexp(1.0, -ranks))) + zeros
        alpha = 0.7213 / (1 + 1.079 / m)
        e = alpha * m * m / s
        if e <= 2.5 * m and zeros > 0:
            e = m * np.log(m / zeros)   # small-range (linear counting)
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()]),
            "n_users_est": np.array([int(round(e))], dtype=np.int64)})

    return _hll_rows(sf_dir, p) \
        .groupby("event_type").map_groups(estimate, batch_format="pyarrow")


def heavy_hitters(sf_dir: str, k: int = 64) -> ray.data.Dataset:
    """Approximate heavy hitters (Misra-Gries / mergeable-summaries
    shape) over the documents token stream: <= ``k`` (token, est_cnt)
    rows whose estimates undercount by at most 2N/(k+1) total-weight
    error (one Misra-Gries compression at the bucket level + one at
    the final merge; Agarwal et al., Mergeable Summaries, PODS'12).

    Unlike ``vocab_topk`` (exact, full count shuffle), the summary
    memory is O(k) per reducer regardless of vocabulary size — the
    100 TB shape for "what are the dominant tokens" when the
    vocabulary itself doesn't fit anywhere.

    Determinism despite compression: the per-batch partial is an
    EXACT per-token count (layout-dependent Misra-Gries at batch level
    would make output depend on block boundaries), the ONE bounded
    shuffle co-locates each token's total in its md5 bucket, and both
    compressions then see layout-independent exact inputs.

    Pytest oracle: est <= true, true - est <= 2N/(k+1), and every
    token with true count > 2N/(k+1) survives. No SQL twin
    (approximate by design)."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    import hashlib

    from .text import _tokens_table

    def _mg(tok: np.ndarray, cnt: np.ndarray, cap: int):
        """Misra-Gries compression of exact (token, count) pairs to
        <= cap survivors: subtract the (cap+1)-th largest count, drop
        non-positive. Deterministic in values (ties all drop)."""
        if len(tok) <= cap:
            return tok, cnt
        cstar = np.partition(cnt, len(cnt) - cap - 1)[len(cnt) - cap - 1]
        keep = cnt > cstar
        return tok[keep], cnt[keep] - cstar

    def partial(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64())})
        tok, cnt = np.unique(np.asarray(t["token"]), return_counts=True)
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
             for s in tok), dtype=np.uint64, count=len(tok))
        return pa.table({"token": pa.array(tok.tolist(), pa.string()),
                         "cnt": pa.array(cnt.astype(np.int64)),
                         "bucket": pa.array(
                             bucket_of(h, n_buckets).astype(np.int64))})

    def bucket_compress(g: pa.Table) -> pa.Table:
        tok = np.asarray(g["token"])
        cnt = g["cnt"].to_numpy()
        order = np.argsort(tok, kind="stable")
        ts, cs = tok[order], cnt[order]
        starts = np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1])))
        utok, ucnt = ts[starts], np.add.reduceat(cs, starts)
        utok, ucnt = _mg(utok, ucnt, k)
        return pa.table({"token": pa.array(utok.tolist(), pa.string()),
                         "cnt": pa.array(ucnt.astype(np.int64)),
                         "g": pa.array(np.zeros(len(utok), np.int64))})

    def final(g: pa.Table) -> pa.Table:
        tok = np.asarray(g["token"])
        cnt = g["cnt"].to_numpy()
        tok, cnt = _mg(tok, cnt, k)   # buckets are disjoint: no re-sum
        order = np.lexsort((np.asarray(tok, dtype=object), -cnt))
        return pa.table({
            "token": pa.array(tok[order].tolist(), pa.string()),
            "est_cnt": pa.array(cnt[order].astype(np.int64))})

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_compress, batch_format="pyarrow") \
        .groupby("g").map_groups(final, batch_format="pyarrow")


def hdr_quantiles(sf_dir: str, qs=(0.5, 0.95, 0.99),
                  sub: int = 16) -> ray.data.Dataset:
    """Mergeable quantile sketch (HDR-histogram shape): per-group
    quantile estimates of l_extendedprice from a log2-octave histogram
    with ``sub`` linear sub-buckets per octave — bounded-memory
    (<= 64*sub bins per group) at ANY value distribution, relative
    error <= 1/sub, and bin counts merge by plain addition, so output
    is block-layout-independent.

    Unlike ``group_quantiles`` (exact, needs a small integral domain),
    this is the 100 TB shape for continuous unbounded values. Every
    binning step is INTEGER arithmetic on cents (bits via np.frexp,
    exact below 2^53; lower bound via shifts; sub-bucket via integer
    division), so the DuckDB twin — length(bin(cents)), BIGINT <<,
    // — reproduces it bit-exactly: an ORACLE-CHECKED approximate
    sketch. Estimate = the selected bin's lower bound in cents
    (est_cents), rank rule cum >= ceil(q*n)."""
    qs = tuple(qs)

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        _, e = np.frexp(cents.astype(np.float64))
        b1 = e.astype(np.int64) - 1
        lower = np.int64(1) << b1
        bin_key = b1 * sub + (cents - lower) * sub // lower
        t = pa.table({"flag": b["l_returnflag"], "bin_key": pa.array(bin_key)})
        g = pa.TableGroupBy(t, ["flag", "bin_key"]).aggregate(
            [("bin_key", "count")])
        g = g.rename_columns(["flag", "bin_key", "n"])
        return g.append_column(
            "bucket", pa.array(g["bin_key"].to_numpy() % 64))

    def bucket_merge(g: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(g.select(["flag", "bin_key", "n"]),
                            ["flag", "bin_key"]).aggregate([("n", "sum")])
        t = t.rename_columns(["flag", "bin_key", "n"])
        return t.append_column("g", pa.array(np.zeros(t.num_rows, np.int64)))

    def final(g: pa.Table) -> pa.Table:
        flag = np.asarray(g["flag"])
        key = g["bin_key"].to_numpy()
        n = g["n"].to_numpy()
        order = np.lexsort((key, np.asarray(flag, dtype=object)))
        flag, key, n = flag[order], key[order], n[order]
        # merge duplicate (flag, bin_key) partials, then per-flag scan
        out_f, out_q, out_e = [], [], []
        starts = np.flatnonzero(np.concatenate(
            ([True], (flag[1:] != flag[:-1]))))
        for s, e_ in zip(starts, np.concatenate((starts[1:], [len(n)]))):
            k_, n_ = key[s:e_], n[s:e_]
            ks = np.flatnonzero(np.concatenate(([True], k_[1:] != k_[:-1])))
            ku, nu = k_[ks], np.add.reduceat(n_, ks)
            cum = np.cumsum(nu)
            tot = cum[-1]
            for q in qs:
                i = int(np.searchsorted(cum, np.ceil(q * tot)))
                b1 = ku[i] // sub
                lower = np.int64(1) << b1
                est = lower + (lower * (ku[i] % sub)) // sub
                out_f.append(flag[s])
                out_q.append(q)
                out_e.append(est)
        return pa.table({
            "l_returnflag": pa.array([str(x) for x in out_f], pa.string()),
            "q": pa.array(out_q, pa.float64()),
            "est_cents": pa.array(np.array(out_e, np.int64))})

    return ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(bucket_merge, batch_format="pyarrow") \
        .groupby("g").map_groups(final, batch_format="pyarrow")


def _hll_estimate(dense_ranks: np.ndarray) -> int:
    """HLL estimate from a DENSE m-register rank array (zeros = empty
    registers) — the same formula approx_distinct_users applies to its
    sparse rows, shared so sketch-column estimates agree bit-for-bit."""
    m = len(dense_ranks)
    nz = dense_ranks[dense_ranks > 0]
    zeros = m - len(nz)
    s = float(np.sum(np.ldexp(1.0, -nz))) + zeros
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / s
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)   # small-range (linear counting)
    return int(round(e))


def hll_sketches(sf_dir: str, p: int = 12) -> ray.data.Dataset:
    """Persistable HLL sketches — the sketch-AS-DATA pattern: one row
    per event_type whose ``sketch`` column is the dense m=2**p
    register array packed as m bytes (rank <= 64-p+1 fits uint8).
    Stored sketches union by elementwise byte max, so later queries
    (rollups, cross-snapshot distincts) merge them WITHOUT rereading
    the events table — see ``hll_union``.

    Same partial/merge shuffle as approx_distinct_users (per-batch
    register-max collapse, bounded bucket merge); the finalizer
    scatters the <= m sparse rows into the dense byte array."""
    m = 1 << p
    base = _hll_rows(sf_dir, p)

    def pack(g: pa.Table) -> pa.Table:
        dense = np.zeros(m, np.uint8)
        dense[g["reg"].to_numpy()] = g["rank"].to_numpy().astype(np.uint8)
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()]),
            "sketch": pa.array([dense.tobytes()], pa.binary()),
            "n_users_est": pa.array([_hll_estimate(
                dense.astype(np.int64))], pa.int64())})

    return base.groupby("event_type").map_groups(pack, batch_format="pyarrow")


def hll_union(sf_dir: str, p: int = 12) -> ray.data.Dataset:
    """Union stored HLL sketches into one corpus-wide distinct-user
    estimate WITHOUT touching the events table again: elementwise max
    over the per-type register bytes (HLL union is exact over unions
    of the underlying sets). Output one row (n_types, n_users_est)."""
    m = 1 << p
    sketches = hll_sketches(sf_dir, p=p)

    def union(b: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.uint8)
        for s in b["sketch"].to_pylist():
            regs = np.maximum(regs, np.frombuffer(s, np.uint8))
        return pa.table({"n_types": pa.array([b.num_rows], pa.int64()),
                         "regs": pa.array([regs.tobytes()], pa.binary())})

    def finish(b: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.uint8)
        n = 0
        for s, k in zip(b["regs"].to_pylist(), b["n_types"].to_numpy()):
            regs = np.maximum(regs, np.frombuffer(s, np.uint8))
            n += int(k)
        return pa.table({
            "n_types": pa.array([n], pa.int64()),
            "n_users_est": pa.array(
                [_hll_estimate(regs.astype(np.int64))], pa.int64())})

    # per-block partial unions, then one tiny final row
    return sketches.map_batches(union, batch_format="pyarrow") \
        .repartition(1).map_batches(finish, batch_format="pyarrow")


def kmv_distinct(sf_dir: str, k: int = 16) -> ray.data.Dataset:
    """KMV (k-minimum-values) distinct-token sketch per source — the
    third sketch family (after HLL and Misra-Gries): keep the k
    smallest md5-derived hash values of the distinct tokens; the k-th
    smallest hash as a [0,1) fraction estimates distinct count as
    (k-1)/frac. Unlike HLL this sketch has an EXACT DuckDB twin (the
    k-th smallest md5 hash is order-statistics SQL), so the oracle
    checks values, not just shape.

    Per-batch partial: distinct (source, token) via one C++ hash
    aggregate, md5 the distinct tokens only, keep each source's k
    smallest. Hashes ride the shuffle as order-preserving SIGNED
    int64 (h XOR 2^63 — the uint64 column ban in CLAUDE.md), so the
    merge's sort equals unsigned hash order. Merge is one block:
    partial rows are bounded by k x sources x blocks. Sources with
    fewer than k distinct tokens drop (no k-th value), mirroring the
    twin's rn = k row."""
    import hashlib

    import pyarrow.compute as pc

    from .text import NON_TOKEN_RE

    FLIP = np.uint64(1 << 63)

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b["text"], NON_TOKEN_RE)
        flat = pc.list_flatten(toks)
        src = pc.take(b["source"], pc.list_parent_indices(toks))
        t = pa.table({"source": src, "token": flat})
        t = t.filter(pc.not_equal(t["token"], ""))
        t = pa.TableGroupBy(t, ["source", "token"]).aggregate([]) \
            .rename_columns(["source", "token"])
        toks_py = t["token"].to_pylist()
        h = np.array([int.from_bytes(hashlib.md5(s.encode()).digest()[:8],
                                     "big") for s in toks_py], np.uint64)
        signed = (h ^ FLIP).view(np.int64)
        src_np = np.asarray(t["source"])
        order = np.lexsort((signed, src_np))
        src_s, sig_s = src_np[order], signed[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], src_s[1:] != src_s[:-1]))) if len(src_s) else \
            np.zeros(0, np.int64)
        ends = np.concatenate((starts[1:], [len(src_s)])) if len(src_s) \
            else starts
        keep = np.zeros(len(src_s), dtype=bool)
        for s, e in zip(starts, ends):  # bounded: one iteration per source
            keep[s:min(s + k, e)] = True
        return pa.table({"source": pa.array(src_s[keep].tolist(), pa.string()),
                         "hsigned": pa.array(sig_s[keep])})

    def merge(b: pa.Table) -> pa.Table:
        src = np.asarray(b["source"])
        sig = b["hsigned"].to_numpy(zero_copy_only=False)
        # distinct (source, hash): same token seen in many blocks
        key = np.char.add(np.char.add(src.astype(str), "|"),
                          sig.astype(str))
        _, first = np.unique(key, return_index=True)
        src, sig = src[first], sig[first]
        order = np.lexsort((sig, src))
        src, sig = src[order], sig[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], src[1:] != src[:-1]))) if len(src) else \
            np.zeros(0, np.int64)
        ends = np.concatenate((starts[1:], [len(src)])) if len(src) \
            else starts
        out_src, out_frac, out_est = [], [], []
        for s, e in zip(starts, ends):
            if e - s < k:
                continue  # twin's rn = k row does not exist
            h64 = sig[s + k - 1].astype(np.int64).view(np.uint64) ^ FLIP
            frac = float(h64) / 18446744073709551616.0
            out_src.append(str(src[s]))
            out_frac.append(frac)
            out_est.append((k - 1.0) / frac)
        return pa.table({
            "source": pa.array(out_src, pa.string()),
            "kth_frac": pa.array(_fq(np.array(out_frac, np.float64), 9)),
            "est_distinct": pa.array(_fq(np.array(out_est, np.float64), 4))})

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")
