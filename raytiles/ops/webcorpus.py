"""Web-corpus curation operators: per-host statistics, anti-join
(rows with no match on the other side), benchmark decontamination
(n-gram overlap against a broadcast test set), and repetition-ratio
quality scoring.

These are the corpus-hygiene passes of a Common-Crawl-style training-
data pipeline (the build brief's "operations a large-scale training-
data pipeline would need"); the reference engine
(fosskers/vectortiles) has no text surface, so there is no reference
file to cite — semantics are pinned by the DuckDB twins in
raytiles/oracles.py and by pytest.

Shuffle discipline (CLAUDE.md): per-batch vectorized partials collapse
each batch before the ONE bounded bucket exchange (``util.exchange``
on an md5-derived key); the decontamination scan has NO shuffle at
all — the benchmark gram set is
`ray.put` once and every task reads the same object-store copy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..util import cogroup, derive_buckets, exchange, run_rank, run_starts
from .text import NON_TOKEN_RE, _tokens_table

HOST_RE = r"^https?://(?P<host>[^/]+)/"


def _md5_u64(strings) -> np.ndarray:
    """First 8 bytes of md5 as uint64 (big-endian) per string — the
    repo's md5-derived-hash parity rule: DuckDB reproduces it with
    ('0x' || substr(md5(s), 1, 16))::UBIGINT."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
         for s in strings),
        dtype=np.uint64, count=len(strings))


def _with_md5(t: pa.Table, col: str, key: str) -> pa.Table:
    """``t`` plus column ``key``: ``_md5_u64`` of the string column
    ``col`` as int64, the form a string key rides ``util.exchange``."""
    return t.append_column(
        key, pa.array(_md5_u64(t[col].to_pylist()).view(np.int64)))


def train_split(sf_dir: str, val_pct: int = 5,
                test_pct: int = 10) -> ray.data.Dataset:
    """Deterministic hash train/val/test split of the corpus — the
    assignment step every training-data pipeline needs to be STABLE
    across reruns and machines (never random.random(): re-ingesting a
    shard must land every doc in the same split).

    slot = md5(CAST(doc_id AS VARCHAR)) first-8-bytes-u64 % 100 (the
    repo's md5-derived-hash parity rule); split = 'test' if slot <
    test_pct, 'val' if slot < test_pct + val_pct, else 'train'.
    Returns the stratified summary per (source, split): n_docs,
    sum_chars — per-batch partials collapse first, then ONE groupby on
    the BOUNDED composite key (sources x 3). SQL twin:
    oracles.train_split_sql."""
    def partial(b: pa.Table) -> pa.Table:
        slot = (_md5_u64([str(i) for i in b["doc_id"].to_pylist()])
                % np.uint64(100)).astype(np.int64)
        split = np.where(slot < test_pct, "test",
                         np.where(slot < test_pct + val_pct, "val",
                                  "train"))
        t = pa.table({"source": b["source"],
                      "split": pa.array(split.tolist(), pa.string()),
                      "n_chars": pc.cast(b["n_chars"], pa.int64())})
        g = pa.TableGroupBy(t, ["source", "split"]).aggregate(
            [([], "count_all"), ("n_chars", "sum")])
        g = g.rename_columns(["source", "split", "n_docs", "sum_chars"])
        return pa.table({
            "source": g["source"], "split": g["split"],
            "n_docs": pc.cast(g["n_docs"], pa.int64()),
            "sum_chars": pc.cast(g["sum_chars"], pa.int64())})

    def merge(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g, ["source", "split"]).aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum")])
        out = out.rename_columns(["source", "split", "n_docs", "sum_chars"])
        return pa.table({
            "source": out["source"], "split": out["split"],
            "n_docs": pc.cast(out["n_docs"], pa.int64()),
            "sum_chars": pc.cast(out["sum_chars"], pa.int64())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "n_chars"])
    # groupby on the bounded composite key (|sources| x 3 groups)
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["source", "split"]).map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-host aggregation over the webpages table
# ---------------------------------------------------------------------------

def host_stats(webpages_path: str) -> ray.data.Dataset:
    """Per-host corpus stats: (host, n_docs, total_chars, n_en).

    Partial: one RE2 extract + one Arrow hash-aggregate per batch, so
    the shuffle moves <= hosts_in_batch rows per batch; hosts exchange
    on their md5 hash into bounded buckets (hosts are unbounded at
    crawl scale — never the raw groupby key). Final: sum-merge per
    bucket."""
    n_buckets = derive_buckets(webpages_path, 256)

    def partial(b: pa.Table) -> pa.Table:
        host = pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host")
        t = pa.table({
            "host": host,
            "n_chars": pc.cast(pc.utf8_length(b["text"]), pa.int64()),
            "is_en": pc.cast(pc.equal(b["lang"], "en"), pa.int64()),
        })
        g = pa.TableGroupBy(t, "host").aggregate(
            [("host", "count"), ("n_chars", "sum"), ("is_en", "sum")])
        g = g.rename_columns(["host", "n_docs", "total_chars", "n_en"])
        return _with_md5(g, "host", "hk")

    def merge(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.select(["host", "n_docs", "total_chars", "n_en"]),
                            "host").aggregate(
            [("n_docs", "sum"), ("total_chars", "sum"), ("n_en", "sum")])
        m = m.rename_columns(["host", "n_docs", "total_chars", "n_en"])
        return pa.table({"host": m["host"],
                         "n_docs": pc.cast(m["n_docs"], pa.int64()),
                         "total_chars": pc.cast(m["total_chars"], pa.int64()),
                         "n_en": pc.cast(m["n_en"], pa.int64())})

    ds = ray.data.read_parquet(webpages_path, columns=["url", "text", "lang"])
    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    "hk", merge, n_buckets)


# ---------------------------------------------------------------------------
# distributed anti-join
# ---------------------------------------------------------------------------

def customers_without_big_orders(
        sf_dir: str, threshold: float = 300000.0) -> ray.data.Dataset:
    """Anti-join: customers with NO order above ``threshold`` (TPC-H
    Q22 shape), both sides big. The probe side prunes at the read
    (row filter pushed to the parquet scan) and collapses each batch
    to its DISTINCT o_custkey values (np.unique) before the shuffle;
    both sides land in the same bounded splitmix(custkey) bucket
    (``util.cogroup``), so the per-bucket finalizer sees every order
    key that could match its customers and one vectorized np.isin
    emits the non-matches.
    Shuffle payload: distinct keys per batch, never the order rows."""
    n_buckets = derive_buckets(f"{sf_dir}/customer.parquet", 256)

    def orders_partial(b: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": np.unique(b["o_custkey"].to_numpy())})

    def anti(c: pa.Table, o: pa.Table) -> pa.Table:
        miss = ~np.isin(c["c_custkey"].to_numpy(), o["o_custkey"].to_numpy())
        return c.filter(pa.array(miss))

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_acctbal"])
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=pc.field("o_totalprice") > threshold) \
        .map_batches(orders_partial, batch_format="pyarrow")
    return cogroup(cust, orders, "c_custkey", "o_custkey", anti, n_buckets)


# ---------------------------------------------------------------------------
# benchmark decontamination (test-set n-gram overlap)
# ---------------------------------------------------------------------------

NGRAM = 5
BENCH_MOD = 35  # deterministic stand-in benchmark: doc_id % 35 == 0


def _doc_gram_hashes(texts: pa.Array):
    """Distinct (doc_row, gram_hash) pairs for a combined-chunk string
    array: one RE2 split pass, fixed-width np.char window concat
    (token-for-token identical to the oracle's
    array_to_string(t[i:i+n-1], ' ')), md5-u64 per DISTINCT gram only.
    Returns (doc_row_idx int64, gh uint64)."""
    toks = pc.split_pattern_regex(texts, NON_TOKEN_RE)
    flat = np.asarray(pc.list_flatten(toks))
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    # split never yields internal empties — only at string boundaries
    keep = flat != ""
    flat, parent = flat[keep], parent[keep]
    m = len(flat) - (NGRAM - 1)
    if m <= 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    ok = parent[:m] == parent[NGRAM - 1:]
    u = flat.astype("U")
    g = u[:m]
    for k in range(1, NGRAM):
        g = np.char.add(np.char.add(g, " "), u[k:k + m])
    g, doc = g[ok], parent[:m][ok].astype(np.int64)
    if len(g) == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    ug, inv = np.unique(g, return_inverse=True)
    gh = _md5_u64(ug)[inv]
    order = np.lexsort((gh, doc))
    doc, gh = doc[order], gh[order]
    first = run_starts(doc, gh)
    return doc[first], gh[first]


def decontaminate(sf_dir: str, mod: int = BENCH_MOD) -> ray.data.Dataset:
    """Training-set decontamination: for every non-benchmark document,
    the number of DISTINCT word 5-grams it shares with the benchmark
    set (docs with doc_id % mod == 0 stand in for an external test
    set); only contaminated docs (n_hits >= 1) are emitted.

    Scale shape: the benchmark gram set (small by definition — test
    sets are KB-MB) is built by a parallel pass whose per-batch output
    is already-distinct gram hashes, unioned once on the driver and
    broadcast via ray.put; the corpus scan is then embarrassingly
    parallel — one sorted-array membership np.isin per batch, NO
    shuffle. At 10^12 docs the scan streams; only the benchmark set is
    ever materialized."""
    path = f"{sf_dir}/documents.parquet"

    def bench_partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        sel = ids % mod == 0
        if not sel.any():
            return pa.table({"gh": pa.array([], pa.int64())})
        texts = b["text"].combine_chunks().filter(pa.array(sel))
        _, gh = _doc_gram_hashes(texts)
        # int64 view: uint64 values >= 2^63 can round through float64
        # in pandas-converting output paths (see corpus_checksums)
        return pa.table({"gh": np.unique(gh).view(np.int64)})

    bench_parts = ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(bench_partial, batch_format="pyarrow").take_all()
    bench = np.unique(np.asarray([r["gh"] for r in bench_parts],
                                 dtype=np.int64).view(np.uint64))
    bench_ref = ray.put(bench)  # broadcast once; read per task, zero-copy

    def scan(b: pa.Table) -> pa.Table:
        bset = ray.get(bench_ref)
        ids = b["doc_id"].to_numpy()
        doc, gh = _doc_gram_hashes(b["text"].combine_chunks())
        hit = np.isin(gh, bset)  # bset sorted unique -> binary search
        n_hits = np.bincount(doc[hit], minlength=len(ids))
        out = (n_hits > 0) & (ids % mod != 0)
        return pa.table({"doc_id": ids[out].astype(np.int64),
                         "n_hits": n_hits[out].astype(np.int64)})

    return ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(scan, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# repetition-ratio quality scoring
# ---------------------------------------------------------------------------

def doc_repetition(sf_dir: str) -> ray.data.Dataset:
    """Per-doc token-repetition quality signal (the Gopher-style
    duplicate-fraction filter): (doc_id, n_tokens, n_distinct,
    dup_ratio) with dup_ratio = floor-quantized 1 - distinct/total.
    Embarrassingly parallel — docs never split across batches, one
    Arrow hash-aggregate per batch, no shuffle."""

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return pa.table({"doc_id": np.empty(0, np.int64),
                             "n_tokens": np.empty(0, np.int64),
                             "n_distinct": np.empty(0, np.int64),
                             "dup_ratio": np.empty(0, np.float64)})
        g = pa.TableGroupBy(t, "doc_id").aggregate(
            [("token", "count"), ("token", "count_distinct")])
        g = g.rename_columns(["doc_id", "n_tokens", "n_distinct"])
        nt = g["n_tokens"].to_numpy().astype(np.float64)
        nd = g["n_distinct"].to_numpy().astype(np.float64)
        dup = np.floor((1.0 - nd / nt) * 1e6) / 1e6  # q6: DuckDB-exact
        return pa.table({"doc_id": pc.cast(g["doc_id"], pa.int64()),
                         "n_tokens": pc.cast(g["n_tokens"], pa.int64()),
                         "n_distinct": pc.cast(g["n_distinct"], pa.int64()),
                         "dup_ratio": pa.array(dup, pa.float64())})

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"]) \
        .map_batches(fn, batch_format="pyarrow")


def boilerplate_ngrams(sf_dir: str, min_docs: int = 2) -> ray.data.Dataset:
    """Cross-document repeated-n-gram (boilerplate) scoring: per doc,
    how many of its DISTINCT word 5-grams occur in >= min_docs docs
    corpus-wide — (doc_id, n_grams, n_boiler, boiler_ratio). The
    exact-substring-flavored hygiene pass (repeated spans = templates,
    navboxes, licenses) complementing decontaminate's external-set
    scan.

    Scale shape: pass 1 streams per-batch distinct (doc, gram) pairs
    collapsed to per-gram partial doc-counts (exact: docs never split
    across batches), one bounded exchange on gh sums and thresholds;
    the heavy set (grams in >= min_docs docs) is unioned on the
    driver and broadcast via ray.put — bounded by the
    boilerplate assumption (repeated-content vocabulary << corpus;
    same contract as decontaminate's benchmark set). Pass 2 is a
    shuffle-free np.isin scan per batch."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 256)

    path = f"{sf_dir}/documents.parquet"

    def count_partial(b: pa.Table) -> pa.Table:
        _, gh = _doc_gram_hashes(b["text"].combine_chunks())
        u, c = np.unique(gh, return_counts=True)
        return pa.table({"gh": u.view(np.int64), "n": c.astype(np.int64)})

    def heavy_in_bucket(g: pa.Table) -> pa.Table:
        gh = g["gh"].to_numpy()
        n = g["n"].to_numpy()
        u, inv = np.unique(gh, return_inverse=True)
        tot = np.bincount(inv, weights=n, minlength=len(u))
        return pa.table({"gh": u[tot >= min_docs]})

    parts = exchange(ray.data.read_parquet(path, columns=["doc_id", "text"])
                     .map_batches(count_partial, batch_format="pyarrow"),
                     "gh", heavy_in_bucket, n_buckets)
    chunks = [nb["gh"] for nb in parts.iter_batches(batch_format="numpy")
              if len(nb["gh"])]
    heavy = (np.sort(np.concatenate(chunks).view(np.uint64))
             if chunks else np.empty(0, np.uint64))
    heavy_ref = ray.put(heavy)

    def scan(b: pa.Table) -> pa.Table:
        hv = ray.get(heavy_ref)
        ids = b["doc_id"].to_numpy()
        doc, gh = _doc_gram_hashes(b["text"].combine_chunks())
        total = np.bincount(doc, minlength=len(ids))
        boiler = np.bincount(doc[np.isin(gh, hv)], minlength=len(ids))
        out = total > 0
        ratio = np.floor(boiler[out] / total[out] * 1e6) / 1e6
        return pa.table({
            "doc_id": ids[out].astype(np.int64),
            "n_grams": total[out].astype(np.int64),
            "n_boiler": boiler[out].astype(np.int64),
            "boiler_ratio": ratio})

    return ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(scan, batch_format="pyarrow")


def mixture_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic domain-mixture sampling (the dataset-mixing step
    of a training-data pipeline): each document is kept iff
    md5_u64(doc_id) / 2^64 < rate(source), with the per-source rate
    derived from the source id — rate = (1 + src_num % 4) / 4, i.e.
    the four mixing weights 0.25 / 0.5 / 0.75 / 1.0. Shuffle-free
    pruned-read filter pass; md5-derived hashing is the repo's
    SQL-parity rule (DuckDB reproduces it exactly), and the hash is
    compared in float64 on BOTH sides so rate 1.0 needs no uint64
    overflow special-case."""
    import ray.data

    def fn(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy()
        h = _md5_u64([str(i) for i in doc_id])
        src = np.asarray(b["source"])
        num = np.array([int(s[3:]) for s in src], np.int64)
        rate = (1 + num % 4) / 4.0
        keep = (h.astype(np.float64) / 18446744073709551616.0) < rate
        return pa.table({
            "doc_id": pa.array(doc_id[keep].astype(np.int64)),
            "source": pa.array(src[keep].tolist(), pa.string()),
            "rate": pa.array(rate[keep])})

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source"]).map_batches(
        fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-source document cap (host-level downsampling)
# ---------------------------------------------------------------------------

def per_source_cap(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Keep at most k documents per source (smallest doc_ids win) —
    the host-level downsampling pass of crawl curation (one domain
    must not dominate the training mix).

    Bounded top-k per key, two-phase: each batch keeps its own k
    smallest doc_ids per source (run-length rank over a sorted batch,
    all vectorized), so the shuffle moves <= k rows per (source,
    batch); ONE bounded exchange on md5(source) re-ranks and emits the
    global winners. No full sort, no per-source group
    materialization beyond a bucket."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    def _cap(t: pa.Table) -> pa.Table:
        t = t.sort_by([("source", "ascending"), ("doc_id", "ascending")])
        s = t["source"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(run_rank(run_starts(s)) < k))

    def partial(b: pa.Table) -> pa.Table:
        return _with_md5(_cap(b.select(["source", "doc_id"])), "source", "sh")

    def merge(g: pa.Table) -> pa.Table:
        return _cap(g.select(["source", "doc_id"]))

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "doc_id"])
    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    "sh", merge, n_buckets)


# ---------------------------------------------------------------------------
# per-source KL divergence from the corpus unigram distribution
# ---------------------------------------------------------------------------

def source_kl(sf_dir: str, vocab_k: int = 100) -> ray.data.Dataset:
    """Data-mixing diagnostic: KL(source || corpus) over the top-V
    vocabulary's unigram distributions — how far each source's token
    mix sits from the corpus average (high-KL sources skew a training
    mixture; near-zero sources are redundant with the mean).

    Three bounded passes: (1) the distributed vocab build
    (vocab_topk: k x buckets rows max); (2) per-(source, token) exact
    counts — per-batch Arrow hash-aggregate partials, ONE bounded
    exchange on md5(source), materialized because the result is the
    bounded aggregate table (<= |sources| x V rows) consumed twice;
    (3) the token marginal (<= V rows) broadcasts back and the counts
    exchange again on md5(source), so every (source, token) row of a
    source is local to one group and each source's KL finishes
    there."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    from .text import vocab_topk

    vocab = vocab_topk(sf_dir, vocab_k).to_pandas()["token"].tolist()
    vref = ray.put(vocab)

    _EMPTY = pa.schema([("source", pa.string()), ("token", pa.string()),
                        ("c", pa.int64()), ("sh", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        v = ray.get(vref)
        toks = pc.split_pattern_regex(b["text"], NON_TOKEN_RE)
        flat = pc.list_flatten(toks)
        src = pc.take(b["source"], pc.list_parent_indices(toks))
        t = pa.table({"source": src, "token": flat})
        t = t.filter(pc.is_valid(pc.index_in(t["token"],
                                             value_set=pa.array(v))))
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        g = pa.TableGroupBy(t, ["source", "token"]).aggregate(
            [("token", "count")]).rename_columns(["source", "token", "c"])
        return _with_md5(g.set_column(2, "c", pc.cast(g["c"], pa.int64())),
                         "source", "sh")

    def merge(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.select(["source", "token", "c"]),
                            ["source", "token"]).aggregate([("c", "sum")])
        return _with_md5(m.rename_columns(["source", "token", "c"]),
                         "source", "sh")

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])
    counts = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                      "sh", merge, n_buckets) \
        .materialize()  # bounded aggregate (<= |sources| x V rows)

    from ray.data.aggregate import Sum
    marg = counts.groupby("token").aggregate(Sum("c", alias_name="ct")) \
        .to_pandas()  # <= V rows
    tot = float(marg["ct"].sum())
    qref = ray.put({t: float(ct) / tot
                    for t, ct in zip(marg["token"], marg["ct"])})

    def kl_group(g: pa.Table) -> pa.Table:
        q = ray.get(qref)
        df = g.select(["source", "token", "c"]).to_pandas()
        # deterministic term order: sort by (source, token) so the
        # float sum is bit-stable across block layouts
        df = df.sort_values(["source", "token"], kind="stable")
        out_src, out_n, out_kl = [], [], []
        for src, grp in df.groupby("source", sort=True):
            c = grp["c"].to_numpy(np.float64)
            cs = c.sum()
            p = c / cs
            qv = np.array([q[t] for t in grp["token"]], dtype=np.float64)
            kl = float(np.sum(p * np.log(p / qv)))
            out_src.append(src)
            out_n.append(int(cs))
            out_kl.append(np.floor(kl * 1e6 + 0.5) / 1e6 if kl >= 0
                          else np.ceil(kl * 1e6 - 0.5) / 1e6)
        return pa.table({"source": pa.array(out_src, pa.string()),
                         "n_invocab": pa.array(out_n, pa.int64()),
                         "kl": pa.array(out_kl, pa.float64())})

    return exchange(counts, "sh", kl_group, n_buckets)


def temperature_weights(sf_dir: str, alpha: float = 0.7) -> "object":
    """Temperature-scaled mixture weights (the multilingual /
    multi-domain sampling rule w_s = (n_s/N)^alpha, renormalized):
    upweights small sources, damps dominant ones. Also reports each
    source's effective epoch count under the weights (epochs > 1 =
    the source is repeated in a single pass over the mix).

    Per-batch partial counts collapse each batch to <= |sources in
    batch| rows; ONE bounded exchange on md5(source) merges; the
    normalization runs driver-side over the RESULT-SIZED per-source
    table (that table IS the query output — nothing unbounded
    materializes)."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    import pandas as pd

    def partial(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["source"]), "source").aggregate(
            [("source", "count")]).rename_columns(["source", "n"])
        return _with_md5(pa.table({"source": g["source"],
                                   "n": pc.cast(g["n"], pa.int64())}),
                         "source", "sh")

    def merge(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.select(["source", "n"]), "source") \
            .aggregate([("n", "sum")]).rename_columns(["source", "n"])
        return m

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source"])
    counts = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                      "sh", merge, n_buckets) \
        .to_pandas().sort_values("source").reset_index(drop=True)

    n = counts["n"].to_numpy().astype(np.float64)
    big_n = n.sum()
    pw = np.power(n / big_n, alpha)
    w = pw / pw.sum()
    epochs = w * big_n / n

    def _r6(x):
        return np.where(x >= 0, np.floor(x * 1e6 + 0.5),
                        np.ceil(x * 1e6 - 0.5)) / 1e6

    return pd.DataFrame({"source": counts["source"],
                         "n_docs": counts["n"].astype(np.int64),
                         "weight": _r6(w), "epochs": _r6(epochs)})


# ---------------------------------------------------------------------------
# end-to-end curation manifest
# ---------------------------------------------------------------------------

def curation_manifest(sf_dir: str, score_min: float = 0.5,
                      lang_keep: str = "en") -> ray.data.Dataset:
    """The composed keep/weight decision of the whole curation
    pipeline, one row per document: exact-dedup survivorship x quality
    score x language id x temperature mixture weight ->
    (doc_id, is_survivor, keep, weight).

    Composition shape: the survivor set comes from the DISTRIBUTED
    exact_dedup output (never a driver-side set — at crawl scale the
    survivor list is corpus-sized); per-doc score/lang/weight are
    shuffle-free batch kernels (the mixture-weight table is
    result-sized and broadcasts via ray.put); ONE bounded
    splitmix(doc_id) bucket co-group (``util.cogroup``) joins flags to
    survivorship.
    Thresholds compare floor-quantized values on both sides, so the
    keep boundary is bit-exact vs the SQL twin."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 512)
    import pandas as pd

    from .dedup import exact_dedup
    from .text import LANG_MARKERS, STOP_RE, TOKEN_RE

    w = temperature_weights(sf_dir)
    wref = ray.put(dict(zip(w["source"], w["weight"])))

    def doc_rows(b: pa.Table) -> pa.Table:
        wmap = ray.get(wref)
        text = b["text"]
        n_tok = pc.count_substring_regex(text, TOKEN_RE) \
            .to_numpy().astype(np.int64)
        n_stop = pc.count_substring_regex(text, STOP_RE) \
            .to_numpy().astype(np.int64)
        tok_chars = pc.utf8_length(
            pc.replace_substring_regex(text, "[^0-9A-Za-z_]", "")
        ).to_numpy().astype(np.int64)
        denom = np.maximum(n_tok, 1)
        stop_ratio = np.floor(n_stop / denom * 1e6) / 1e6
        avg_len = np.floor(tok_chars / denom * 1e6) / 1e6
        score = np.floor((0.5 * np.minimum(n_tok / 50.0, 1.0)
                          + 0.3 * stop_ratio
                          + 0.2 * np.minimum(avg_len / 8.0, 1.0)) * 1e6) / 1e6
        low = pc.utf8_lower(text)
        en = pc.count_substring_regex(low, LANG_MARKERS["en"]).to_numpy()
        de = pc.count_substring_regex(low, LANG_MARKERS["de"]).to_numpy()
        fr = pc.count_substring_regex(low, LANG_MARKERS["fr"]).to_numpy()
        lang = np.where((en >= de) & (en >= fr) & (en > 0), "en",
                        np.where((de >= fr) & (de > 0), "de",
                                 np.where(fr > 0, "fr", "und")))
        src = b["source"].to_pylist()
        weight = np.array([wmap[s] for s in src], dtype=np.float64)
        return pa.table({
            "doc_id": b["doc_id"].to_numpy().astype(np.int64),
            "score": score, "lang_pred": lang.astype(object),
            "weight": weight})

    def decide(d: pa.Table, surv: pa.Table) -> pa.Table:
        surv_ids = np.sort(surv["doc_id"].to_numpy())
        d_ids = d["doc_id"].to_numpy()
        is_surv = np.zeros(len(d_ids), bool)
        if len(surv_ids):
            pos = np.clip(np.searchsorted(surv_ids, d_ids),
                          0, len(surv_ids) - 1)
            is_surv = surv_ids[pos] == d_ids
        lang_pred = d["lang_pred"].to_numpy(zero_copy_only=False)
        keep = (is_surv & (d["score"].to_numpy() >= score_min)
                & (lang_pred == lang_keep))
        return pa.table({
            "doc_id": pa.array(d_ids.astype(np.int64)),
            "is_survivor": pa.array(is_surv.astype(np.int64)),
            "keep": pa.array(keep.astype(np.int64)),
            "weight": pa.array(
                np.where(keep, d["weight"].to_numpy(), 0.0))})

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "source"]) \
        .map_batches(doc_rows, batch_format="pyarrow")
    surv = exact_dedup(sf_dir).select_columns(["doc_id"])
    return cogroup(docs, surv, "doc_id", "doc_id", decide, n_buckets)
