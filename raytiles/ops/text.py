"""Text-analysis operators over the documents table: token counting,
quality scoring, language-ID heuristic, md5 fingerprint, and a
rolling-hash (Karp-Rabin) winnowing fingerprint.

Each operator is a vectorized map_batches stage; the regex grammar is
ASCII-only so Python `re` and DuckDB's RE2 agree token-for-token (the
SQL twins live in __ray_entry__.oracle_sql)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..util import cached_ref, derive_buckets, exchange, run_starts

TOKEN_RE = r"[0-9A-Za-z_]+"
STOP_RE = r"\b(?:the|a|of|and|to)\b"
LANG_MARKERS = {
    "en": r"\b(?:the|a|to|is|in)\b",
    "de": r"\b(?:der|die|das|und|ist)\b",
    "fr": r"\b(?:le|la|les|et|est)\b",
}


def _docs(sf_dir: str, columns) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


def token_counts(sf_dir: str) -> ray.data.Dataset:
    """doc_id, n_tokens, n_chars. SQL twin: array_length(
    regexp_extract_all(text, TOKEN_RE)), length(text). Arrow-native:
    RE2 kernels over the zero-copy batch — the same engine the DuckDB
    oracle uses, no pandas conversion."""
    def fn(b: pa.Table) -> pa.Table:
        text = b["text"]
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "n_tokens": pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
        })
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


# GPT-2-style pre-tokenizer, RE2-compatible (no lookahead): English
# contraction suffixes, space-prefixed letter / digit / punctuation
# runs, whitespace runs. The count approximates BPE token count the
# way pretraining-cost estimators do (pre-tokens, before merges).
BPE_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+"
WS_RE = r"\S+"


def bpe_token_counts(sf_dir: str) -> ray.data.Dataset:
    """doc_id, n_ws_tokens (whitespace split), n_bpe_tokens (BPE-ish
    pre-tokenizer matches) — the two token-count flavors a training-
    data pipeline budgets with. Arrow-native: two RE2 count kernels
    over the zero-copy batch; the DuckDB twin runs the identical
    patterns through its own RE2 (parity verified match-for-match)."""
    def fn(b: pa.Table) -> pa.Table:
        text = b["text"]
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "n_ws_tokens": pc.cast(
                pc.count_substring_regex(text, WS_RE), pa.int64()),
            "n_bpe_tokens": pc.cast(
                pc.count_substring_regex(text, BPE_RE), pa.int64()),
        })
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    """doc_id, n_tokens, stop_ratio, avg_token_len, score — simple
    deterministic quality heuristics (length / stopword-density /
    word-shape), the standard pretraining-corpus filters."""
    def fn(b: pa.Table) -> pa.Table:
        text = b["text"]
        n_tok = pc.count_substring_regex(text, TOKEN_RE).to_numpy().astype(np.int64)
        n_stop = pc.count_substring_regex(text, STOP_RE).to_numpy().astype(np.int64)
        tok_chars = pc.utf8_length(
            pc.replace_substring_regex(text, "[^0-9A-Za-z_]", "")
        ).to_numpy().astype(np.int64)
        denom = np.maximum(n_tok, 1)

        def q6(x):  # floor-quantize: bit-identical in numpy and DuckDB
            return np.floor(x * 1e6) / 1e6

        stop_ratio = q6(n_stop / denom)
        avg_len = q6(tok_chars / denom)
        score = q6(0.5 * np.minimum(n_tok / 50.0, 1.0)
                   + 0.3 * stop_ratio
                   + 0.2 * np.minimum(avg_len / 8.0, 1.0))
        return pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64()),
                         "stop_ratio": pa.array(stop_ratio, pa.float64()),
                         "avg_token_len": pa.array(avg_len, pa.float64()),
                         "score": pa.array(score, pa.float64())})
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """doc_id, lang_pred via marker-word counts with a fixed priority
    tie-break (en >= de >= fr, all-zero -> 'und'); deterministic and
    SQL-expressible."""
    def fn(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(b["text"])
        en = pc.count_substring_regex(t, LANG_MARKERS["en"]).to_numpy()
        de = pc.count_substring_regex(t, LANG_MARKERS["de"]).to_numpy()
        fr = pc.count_substring_regex(t, LANG_MARKERS["fr"]).to_numpy()
        pred = np.where((en >= de) & (en >= fr) & (en > 0), "en",
                        np.where((de >= fr) & (de > 0), "de",
                                 np.where(fr > 0, "fr", "und")))
        return pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                         "lang_pred": pa.array(pred.tolist(), pa.string())})
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def doc_md5(sf_dir: str) -> ray.data.Dataset:
    """doc_id, h (md5 hex of text) — the exact-dedup content key.
    SQL twin: md5(text)."""
    import hashlib

    def fn(b: pa.Table) -> pa.Table:
        col = b["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type):
            col = col.cast(pa.string())
        n = b.num_rows
        offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
            col.offset:col.offset + n + 1].astype(np.int64)
        data = memoryview(col.buffers()[2])  # md5 over zero-copy slices
        md5 = hashlib.md5
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "h": pa.array([md5(data[offs[i]:offs[i + 1]]).hexdigest()
                           for i in range(n)], pa.string())})
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Karp-Rabin winnowing fingerprint (no SQL twin — verified by a
# single-process oracle in tests)
# ---------------------------------------------------------------------------

KR_BASE = np.uint64(1000003)
KR_K = 16  # char k-grams


def _rolling_hashes(text) -> np.ndarray:
    """uint64 wraparound polynomial hashes of all K-grams, vectorized:
    K shifted adds instead of a per-gram loop. Accepts bytes or a
    contiguous uint8 array (an Arrow string-buffer slice)."""
    if isinstance(text, np.ndarray):
        b = text.astype(np.uint64)
    else:
        b = np.frombuffer(text, dtype=np.uint8).astype(np.uint64)
    n = b.size
    if n < KR_K:
        return np.empty(0, np.uint64)
    m = n - KR_K + 1
    h = np.zeros(m, dtype=np.uint64)
    for j in range(KR_K):
        h = h * KR_BASE + b[j:j + m]
    return h


class WinnowFingerprint:
    """doc_id -> min-hash fingerprint + winnowed sketch size (window
    w): the classic winnowing document fingerprint."""

    def __init__(self, window: int = 8) -> None:
        self.window = window

    def __call__(self, b: pa.Table) -> pa.Table:
        n = b.num_rows
        fps = np.zeros(n, dtype=np.uint64)
        sketch = np.zeros(n, dtype=np.int64)
        # per-doc utf-8 straight off the Arrow string buffers — the
        # rolling hash consumes bytes, so no Python str materializes
        col = b["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type):
            col = col.cast(pa.string())
        offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
            col.offset:col.offset + n + 1].astype(np.int64)
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        for i in range(n):
            h = _rolling_hashes(data[offs[i]:offs[i + 1]])
            if h.size == 0:
                continue
            fps[i] = h.min()
            if h.size >= self.window:
                win = np.lib.stride_tricks.sliding_window_view(h, self.window)
                mins = win.min(axis=1)
                sketch[i] = np.unique(mins).size
            else:
                sketch[i] = 1
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "fingerprint": pa.array(fps.view(np.int64)),  # two's-complement view
            "sketch_size": pa.array(sketch)})


_WINNOW = WinnowFingerprint()  # stateless bar the window constant


def winnow_fingerprints(sf_dir: str) -> ray.data.Dataset:
    # task-based: actor pools cost ~2s spin-up per execution and the
    # stage state is one integer
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _WINNOW, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# vocabulary building: corpus document-frequency / per-doc top terms
# ---------------------------------------------------------------------------

NON_TOKEN_RE = r"[^0-9A-Za-z_]+"


def _tokens_table(b: pa.Table) -> pa.Table:
    """(doc_id, token) rows, one per token occurrence, via ONE RE2
    split-by-complement pass + list_flatten/list_parent_indices — all
    C++ over Arrow buffers, no Python strings.  Splitting by
    NON_TOKEN_RE and dropping empties is token-for-token identical to
    regexp_extract_all(text, TOKEN_RE), the oracle's formulation."""
    toks = pc.split_pattern_regex(b["text"], NON_TOKEN_RE)
    flat = pc.list_flatten(toks)
    doc = pc.take(b["doc_id"], pc.list_parent_indices(toks))
    t = pa.table({"doc_id": pc.cast(doc, pa.int64()), "token": flat})
    return t.filter(pc.not_equal(t["token"], ""))


def vocab_topk(sf_dir: str, k: int = 100) -> ray.data.Dataset:
    """Corpus vocabulary: top-k tokens by document frequency (ties by
    token ascending), with total term frequency — the vocabulary-build
    pass of a training-data pipeline.

    Per-batch partial: tokenize (Arrow RE2), collapse to per-token
    (df, tf) partials with two C++ hash-aggregates (docs never split
    across batches, so per-batch distinct (doc, token) is globally
    exact), and md5-hash the DISTINCT tokens.  ONE bounded exchange on
    that hash merges per-token partials and keeps each bucket's top-k,
    so the driver-side sort sees <= k x n_buckets rows no matter the
    corpus vocabulary size."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    import hashlib


    _EMPTY = pa.schema([("token", pa.string()), ("df", pa.int64()),
                        ("tf", pa.int64()), ("h", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        per_doc = pa.TableGroupBy(t, ["token", "doc_id"]).aggregate(
            [("doc_id", "count")]).rename_columns(["token", "doc_id", "tf"])
        per_tok = pa.TableGroupBy(per_doc, "token").aggregate(
            [("doc_id", "count"), ("tf", "sum")]).rename_columns(
            ["token", "df", "tf"])
        toks = per_tok["token"].to_pylist()
        h = np.array([int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
                      for s in toks], dtype=np.uint64)
        return pa.table({
            "token": per_tok["token"],
            "df": pc.cast(per_tok["df"], pa.int64()),
            "tf": pc.cast(per_tok["tf"], pa.int64()),
            "h": pa.array(h.view(np.int64))})

    def merge_bucket(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.select(["token", "df", "tf"]), "token") \
            .aggregate([("df", "sum"), ("tf", "sum")]) \
            .rename_columns(["token", "df", "tf"])
        m = m.sort_by([("df", "descending"), ("token", "ascending")])
        return pa.table({"token": m["token"].slice(0, k),
                         "df": pc.cast(m["df"].slice(0, k), pa.int64()),
                         "tf": pc.cast(m["tf"].slice(0, k), pa.int64())})

    topn = exchange(_docs(sf_dir, ["doc_id", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "h", merge_bucket, n_buckets)
    return topn.sort(["df", "token"], descending=[True, False]).limit(k)


def doc_top_terms(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """Per-document top-k tokens by (term frequency DESC, token ASC) —
    embarrassingly parallel (docs never split across batches, so no
    shuffle at all): tokenize, one C++ hash-aggregate per batch, one
    C++ sort, and a vectorized run-rank."""
    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return pa.table({"doc_id": np.empty(0, np.int64),
                             "token": pa.array([], pa.string()),
                             "tf": np.empty(0, np.int64),
                             "rank": np.empty(0, np.int64)})
        tf = pa.TableGroupBy(t, ["doc_id", "token"]).aggregate(
            [("token", "count")]).rename_columns(["doc_id", "token", "tf"])
        tf = tf.sort_by([("doc_id", "ascending"), ("tf", "descending"),
                         ("token", "ascending")])
        doc = tf["doc_id"].to_numpy()
        new = run_starts(doc)
        starts = np.flatnonzero(new)
        rank = np.arange(len(doc), dtype=np.int64) \
            - starts[np.cumsum(new) - 1] + 1
        keep = rank <= k
        return pa.table({"doc_id": doc[keep],
                         "token": tf["token"].filter(pa.array(keep)),
                         "tf": pc.cast(tf["tf"], pa.int64()).filter(pa.array(keep)),
                         "rank": rank[keep]})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus-median length filter + tf-idf scoring against a broadcast
# vocabulary (the two-pass broadcast-scalar / broadcast-table shapes)
# ---------------------------------------------------------------------------

def median_length_filter(sf_dir: str) -> ray.data.Dataset:
    """Docs at or above the corpus-median token count — the two-pass
    quantile-threshold corpus filter.  Pass 1 collapses to a bounded
    (n_tokens, count) histogram (distinct doc lengths, a tiny domain
    at any corpus size) merged on the driver; the median rule is the
    repo's exact-quantile contract: min v with cumulative count >=
    ceil(0.5 * n).  Pass 2 is a shuffle-free filter scan with the
    scalar threshold in the closure."""
    def hist(b: pa.Table) -> pa.Table:
        n_tok = pc.count_substring_regex(b["text"], TOKEN_RE)
        t = pa.table({"v": pc.cast(n_tok, pa.int64())})
        g = pa.TableGroupBy(t, "v").aggregate([("v", "count")])
        return g.rename_columns(["v", "c"])

    parts = _docs(sf_dir, ["text"]).map_batches(
        hist, batch_format="pyarrow").take_all()
    v = np.array([r["v"] for r in parts], dtype=np.int64)
    c = np.array([r["c"] for r in parts], dtype=np.int64)
    order = np.argsort(v, kind="stable")
    v, c = v[order], c[order]
    uv, starts = np.unique(v, return_index=True)
    cc = np.add.reduceat(c, starts)
    cum = np.cumsum(cc)
    med = int(uv[np.searchsorted(cum, np.ceil(0.5 * cum[-1]))])

    def keep(b: pa.Table) -> pa.Table:
        n_tok = pc.cast(pc.count_substring_regex(b["text"], TOKEN_RE),
                        pa.int64())
        t = pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                      "n_tokens": n_tok})
        return t.filter(pc.greater_equal(t["n_tokens"], med))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        keep, batch_format="pyarrow")


def doc_tfidf_top(sf_dir: str, vocab_k: int = 100) -> ray.data.Dataset:
    """Each doc's top tf-idf term against the corpus top-``vocab_k``
    vocabulary (score = tf * ln(N/df); ties break token-ascending).
    The vocabulary (vocab_topk output, k rows) and N are broadcast in
    the closure — the classic broadcast-table join, no shuffle in the
    scoring pass."""
    vocab = vocab_topk(sf_dir, k=vocab_k).to_pandas()  # k rows: driver-safe
    n_docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    vtok = vocab["token"].to_numpy()
    vdf = vocab["df"].to_numpy().astype(np.float64)
    vorder = np.argsort(vtok)
    vtok_sorted = vtok[vorder]
    idf_sorted = np.log(n_docs / vdf)[vorder]

    _EMPTY = pa.schema([("doc_id", pa.int64()), ("token", pa.string()),
                        ("tf", pa.int64()), ("tfidf", pa.float64())])

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        tok = np.asarray(t["token"])
        pos = np.searchsorted(vtok_sorted, tok)
        pos[pos >= len(vtok_sorted)] = 0
        inv = vtok_sorted[pos] == tok
        if not inv.any():
            return _EMPTY.empty_table()
        doc = t["doc_id"].to_numpy()[inv]
        pos = pos[inv]
        # tf per (doc, vocab-token)
        key = doc * np.int64(len(vtok_sorted)) + pos
        uk, tf = np.unique(key, return_counts=True)
        d = uk // len(vtok_sorted)
        p = (uk % len(vtok_sorted)).astype(np.int64)
        score = tf.astype(np.float64) * idf_sorted[p]
        # top-1 per doc: (score DESC, token ASC); lexsort is stable
        order = np.lexsort((vtok_sorted[p], -score, d))
        sel = order[run_starts(d[order])]
        return pa.table({
            "doc_id": d[sel].astype(np.int64),
            "token": pa.array(vtok_sorted[p[sel]].tolist(), pa.string()),
            "tf": tf[sel].astype(np.int64),
            "tfidf": np.floor(score[sel] * 1e6) / 1e6})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def inverted_index(sf_dir: str, k: int = 16) -> ray.data.Dataset:
    """Capped inverted index: per token, document frequency + the
    first min(k, df) doc_ids ascending as a comma-joined posting
    string — the index-build pass of a retrieval pipeline, with the
    posting cap making the per-token payload bounded (the no-fat-rows
    shuffle rule; df still counts ALL docs).

    Partial: distinct (token, doc_id) per batch (exact globally: docs
    never split across batches), keep the k smallest ids per token,
    carry (token, partial_df, id list, md5(token)) into one bounded
    exchange on the hash.  Merge: sum df, k smallest of the union of
    partial lists (each <= k ids, so merge work per token is
    O(parts * k))."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    import hashlib


    _EMPTY = pa.schema([("token", pa.string()), ("df", pa.int64()),
                        ("ids", pa.list_(pa.int64())), ("h", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        dt = pa.TableGroupBy(t, ["token", "doc_id"]).aggregate([])
        dt = dt.sort_by([("token", "ascending"), ("doc_id", "ascending")])
        tok = np.asarray(dt["token"])
        ids = dt["doc_id"].to_numpy()
        n = len(tok)
        new = run_starts(tok)
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rank = np.arange(n, dtype=np.int64) - starts[seg]
        df = np.diff(np.append(starts, n))
        keep = rank < k
        kept_seg = seg[keep]
        offs = np.append(0, np.cumsum(np.bincount(kept_seg,
                                                  minlength=len(starts))))
        utok = tok[starts]
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
             for s in utok), dtype=np.uint64, count=len(utok))
        return pa.table({
            "token": pa.array(utok.tolist(), pa.string()),
            "df": df.astype(np.int64),
            "ids": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()),
                pa.array(ids[keep], pa.int64())),
            "h": pa.array(h.view(np.int64))})

    def merge(g: pa.Table) -> pa.Table:
        tok = np.asarray(g["token"])
        flat = pc.list_flatten(g["ids"]).to_numpy()
        parent = pc.list_parent_indices(
            g["ids"].combine_chunks()).to_numpy(zero_copy_only=False)
        dfs = g["df"].to_numpy()
        # per-token df sum over partials
        ut, inv = np.unique(tok, return_inverse=True)
        df = np.bincount(inv, weights=dfs, minlength=len(ut)).astype(np.int64)
        # k smallest ids per token across partials (each partial <= k)
        tcode = inv[parent]
        order = np.lexsort((flat, tcode))
        tc, fv = tcode[order], flat[order]
        new = run_starts(tc)
        starts = np.flatnonzero(new)
        rank = np.arange(len(tc), dtype=np.int64) \
            - starts[np.cumsum(new) - 1]
        keep = rank < k
        s = pd.Series(fv[keep].astype(str))
        postings = s.groupby(tc[keep]).agg(",".join)
        out_tok = ut[postings.index.to_numpy()]
        return pa.table({
            "token": pa.array(out_tok.tolist(), pa.string()),
            "df": df[postings.index.to_numpy()],
            "postings": pa.array(postings.to_numpy().tolist(), pa.string())})

    return exchange(_docs(sf_dir, ["doc_id", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "h", merge, n_buckets)


def doc_rank(sf_dir: str) -> ray.data.Dataset:
    """Global ranking without a global sort: (doc_id, n_chars, rank)
    with rank = row_number() ORDER BY (n_chars DESC, doc_id ASC).

    The zipWithIndex problem — a streaming engine can't know a block's
    global offset — solved with the two-pass histogram pattern:
    pass 1 streams per-batch length histograms and the driver folds
    them into prefix offsets per distinct length (bounded domain:
    distinct doc lengths, broadcast via ray.put); pass 2 groups rows
    by length (already-bounded key, no salt needed), ranks each group
    locally by doc_id, and adds the broadcast offset. No stage ever
    holds more than one length-group; nothing global is sorted."""
    path = f"{sf_dir}/documents.parquet"

    def hist(b: pa.Table) -> pa.Table:
        ln = pc.utf8_length(b["text"]).to_numpy().astype(np.int64)
        u, c = np.unique(ln, return_counts=True)
        return pa.table({"n_chars": u, "cnt": c.astype(np.int64)})

    parts = ray.data.read_parquet(path, columns=["text"]) \
        .map_batches(hist, batch_format="pyarrow")
    agg: dict[int, int] = {}
    for nb in parts.iter_batches(batch_format="numpy"):
        for ln, c in zip(nb["n_chars"], nb["cnt"]):
            agg[int(ln)] = agg.get(int(ln), 0) + int(c)
    lens = np.array(sorted(agg, reverse=True), dtype=np.int64)
    counts = np.array([agg[int(l)] for l in lens], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    off_ref = ray.put((lens[::-1].copy(), offsets[::-1].copy()))
    # (stored ascending so searchsorted works directly)

    def tag(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(b["text"]), pa.int64())})

    def rank_group(g: pa.Table) -> pa.Table:
        lens_asc, offs_asc = ray.get(off_ref)
        ids = np.sort(g["doc_id"].to_numpy())
        base = offs_asc[np.searchsorted(lens_asc, g["n_chars"][0].as_py())]
        return pa.table({
            "doc_id": ids,
            "n_chars": pa.array(
                np.full(len(ids), g["n_chars"][0].as_py(), np.int64)),
            "rank": np.arange(1, len(ids) + 1, dtype=np.int64) + base})

    return ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(tag, batch_format="pyarrow") \
        .groupby("n_chars").map_groups(rank_group, batch_format="pyarrow")


def chunk_documents(sf_dir: str, chunk_words: int = 32) -> ray.data.Dataset:
    """Fixed-size document chunking (the training-data flat_map):
    every doc splits into ceil(n_words / chunk_words) chunks of
    consecutive space-separated words; output (doc_id, chunk_idx,
    chunk_text, n_words).

    Shuffle-free row expansion, computed entirely on the raw Arrow
    UTF-8 buffer: one np.flatnonzero finds every space byte (0x20
    never occurs inside a UTF-8 multibyte sequence), searchsorted
    buckets them per doc, and each chunk is a CONTIGUOUS byte slice
    [space_{kW-1}+1, space_{(k+1)W-1}) of the original text — the
    output string column is built by one ragged gather into a fresh
    values buffer + from_buffers (no per-chunk Python).

    SQL twin: string_split(text, ' ') + 1-based inclusive list slices
    words[kW+1 : (k+1)W] joined with ' ' — byte-identical by
    construction, including empty-token edge cases (split on single
    space keeps empties, and rejoining them reproduces the original
    byte run)."""
    W = chunk_words

    def fn(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy().astype(np.int64)
        col = b["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        if pa.types.is_large_string(col.type):
            offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
                col.offset:col.offset + n + 1]
        else:
            if not pa.types.is_string(col.type):
                col = col.cast(pa.string())
            offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
                col.offset:col.offset + n + 1].astype(np.int64)
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        spaces = np.flatnonzero(data[offs[0]:offs[-1]] == 0x20) + offs[0]
        sbase = np.searchsorted(spaces, offs)
        words = (sbase[1:] - sbase[:-1]) + 1
        chunks = -(-words // W)
        total = int(chunks.sum())
        cid = np.repeat(np.arange(n), chunks)
        cstarts = np.concatenate([[0], np.cumsum(chunks)[:-1]])
        k = np.arange(total, dtype=np.int64) - cstarts[cid]
        first = k == 0
        last = (k + 1) * W >= words[cid]
        # np.where evaluates both branches: clamp the space indices so
        # they stay in-bounds where the branch is unused (k=0 / last
        # chunk / a batch with no spaces at all)
        sp = spaces if len(spaces) else np.zeros(1, np.int64)
        lo_i = np.clip(sbase[:-1][cid] + k * W - 1, 0, len(sp) - 1)
        hi_i = np.clip(sbase[:-1][cid] + (k + 1) * W - 1, 0, len(sp) - 1)
        byte_lo = np.where(first, offs[:-1][cid], sp[lo_i] + 1)
        byte_hi = np.where(last, offs[1:][cid], sp[hi_i])
        lens = byte_hi - byte_lo
        out_offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        idx = (np.arange(int(out_offs[-1]), dtype=np.int64)
               - out_offs[:-1].repeat(lens) + byte_lo.repeat(lens))
        buf = data[idx]
        text_col = pa.Array.from_buffers(
            pa.utf8(), total,
            [None, pa.py_buffer(out_offs.astype(np.int32).tobytes()),
             pa.py_buffer(buf.tobytes())])
        return pa.table({
            "doc_id": pa.array(doc_id[cid]),
            "chunk_idx": pa.array(k),
            "chunk_text": text_col,
            "n_words": pa.array(np.minimum((k + 1) * W, words[cid]) - k * W)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def unigram_logprob(sf_dir: str, vocab_k: int = 256) -> ray.data.Dataset:
    """Unigram-LM document scoring (the perplexity-proxy quality
    filter): score_micro = sum over tokens of floor(ln(p(token)) *
    1e6) as INT64, with p = tf/total for the corpus top-``vocab_k``
    vocabulary and 1/total for OOV. The per-token log-probs are
    pre-quantized to integer micro-nats, so the per-doc SUM is
    order-free and bit-exact against the SQL twin (the repo's
    floor-quantize parity rule — float SUM order would not be).

    Broadcast-vocab scoring pass, no shuffle; total token count comes
    from one Sum aggregate, vocabulary from vocab_topk (k rows)."""
    from ray.data.aggregate import Sum
    vocab = vocab_topk(sf_dir, k=vocab_k).to_pandas()  # k rows
    total = float(token_counts(sf_dir).aggregate(Sum("n_tokens"))
                  ["sum(n_tokens)"])
    vtok = vocab["token"].to_numpy()
    vtf = vocab["tf"].to_numpy().astype(np.float64)
    vorder = np.argsort(vtok)
    vtok_sorted = vtok[vorder]
    lp_sorted = np.floor(np.log(vtf[vorder] / total) * 1e6).astype(np.int64)
    lp_oov = np.int64(np.floor(np.log(1.0 / total) * 1e6))

    _EMPTY = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                        ("logprob_micro", pa.int64())])

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        tok = np.asarray(t["token"])
        doc = t["doc_id"].to_numpy()
        pos = np.searchsorted(vtok_sorted, tok)
        pos[pos >= len(vtok_sorted)] = 0
        hit = vtok_sorted[pos] == tok
        lp = np.where(hit, lp_sorted[pos], lp_oov)
        # docs never split across batches: per-doc sums are exact
        order = np.argsort(doc, kind="stable")
        doc, lp = doc[order], lp[order]
        starts = np.flatnonzero(run_starts(doc))
        return pa.table({
            "doc_id": pa.array(doc[starts]),
            "n_tokens": pa.array(np.diff(
                np.concatenate([starts, [len(doc)]])).astype(np.int64)),
            "logprob_micro": pa.array(
                np.add.reduceat(lp, starts).astype(np.int64))})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")

def dedup_chunks(sf_dir: str, chunk_words: int = 4) -> ray.data.Dataset:
    """C4-style corpus-wide duplicate-span removal: split every doc
    into fixed ``chunk_words``-word chunks (the ``chunk_documents``
    grammar), keep each distinct chunk's globally FIRST occurrence
    (min doc_id, then min chunk_idx), and reassemble the surviving
    chunks per document. Output (doc_id, clean_text, n_kept); docs
    whose every chunk was seen earlier elsewhere drop out.

    Shuffle discipline (CLAUDE.md): the global first-occurrence rule
    needs each chunk hash's occurrences co-located ONCE — chunks
    exchange (``util.exchange``) on md5-u64(chunk) into ``n_buckets``
    bounded buckets, the winner per hash is one vectorized lexsort +
    run-start slice per bucket, survivors exchange a second time on
    doc_id to reassemble. No driver materialization; both
    shuffle keys have a bounded domain. The 64-bit hash is the first
    16 hex chars of md5 (the repo's md5-derived parity rule), so the
    DuckDB twin partitions by substr(md5(chunk), 1, 16) and groups
    byte-identically."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 512)
    import hashlib


    def tag(b: pa.Table) -> pa.Table:
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
             for s in b["chunk_text"].to_pylist()),
            dtype=np.uint64, count=b.num_rows)
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "chunk_idx": pc.cast(b["chunk_idx"], pa.int64()),
            "chunk_text": b["chunk_text"],
            # two's-complement int64 view: uint64 columns >= 2^63 can
            # round through float64 in pandas-converting paths (see
            # corpus_checksums); equality grouping is view-invariant
            "h": pa.array(h.view(np.int64))})

    def first_occurrence(g: pa.Table) -> pa.Table:
        doc = g["doc_id"].to_numpy()
        idx = g["chunk_idx"].to_numpy()
        h = g["h"].to_numpy()
        order = np.lexsort((idx, doc, h))
        hs = h[order]
        win = order[run_starts(hs)]  # ORDER BY doc_id, chunk_idx per hash
        return g.take(pa.array(np.sort(win))) \
            .select(["doc_id", "chunk_idx", "chunk_text"])

    def reassemble(g: pa.Table) -> pa.Table:
        df = g.select(["doc_id", "chunk_idx", "chunk_text"]).to_pandas() \
            .sort_values(["doc_id", "chunk_idx"], kind="stable")
        agg = df.groupby("doc_id", sort=True)["chunk_text"].agg(
            [(" ".join), "size"])
        return pa.table({
            "doc_id": pa.array(agg.index.to_numpy().astype(np.int64)),
            "clean_text": pa.array(agg.iloc[:, 0].to_numpy().tolist(),
                                   pa.string()),
            "n_kept": pa.array(agg.iloc[:, 1].to_numpy().astype(np.int64))})

    chunks = chunk_documents(sf_dir, chunk_words) \
        .map_batches(tag, batch_format="pyarrow")
    return exchange(exchange(chunks, "h", first_occurrence, n_buckets),
                    "doc_id", reassemble, n_buckets)


def pack_sequences(sf_dir: str, seq_len: int = 64,
                   ids_per_bucket: int = 65536) -> ray.data.Dataset:
    """Training-sequence packing: concatenate all documents in doc_id
    order into one global token stream (token = space-separated word,
    the ``string_split(text, ' ')`` grammar) and cut it into fixed
    ``seq_len``-token sequences. Output one row per (doc, sequence)
    overlap: (doc_id, seq_id, tok_from, tok_to) with doc-local token
    positions [tok_from, tok_to) — exactly what a sequence-assembly
    pass needs to gather each training sequence's pieces.

    The global token offset per doc is a DISTRIBUTED PREFIX SUM (the
    events_watermark scan shape): (1) one max(doc_id) aggregate sizes
    the id buckets; (2) a streamed pass folds per-bucket token-count
    partials on the driver (<= max_id/ids_per_bucket tiny rows) into
    an exclusive cross-bucket carry, broadcast via ray.put; (3) rows
    exchange once on their id bucket (``util.exchange``), each id
    bucket cumsums locally and adds its carry, then expands to overlap
    rows with repeat/arange arithmetic. Nothing global is sorted or
    driver-materialized.

    SQL twin: sum(n) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING) + unnest(range(s//L, (s+n-1)//L + 1))."""
    L = np.int64(seq_len)
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 512)

    ds = _docs(sf_dir, ["doc_id", "text"])
    max_id = int(ds.max("doc_id"))
    B = ids_per_bucket
    n_bkt = max_id // B + 1

    def bucket_tokens(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy().astype(np.int64)
        n = pc.add(pc.count_substring(b["text"], " "), 1) \
            .to_numpy().astype(np.int64)
        bkt = did // B
        order = np.argsort(bkt, kind="stable")
        sb = bkt[order]
        starts = np.flatnonzero(run_starts(sb))
        return pa.table({
            "bkt": pa.array(sb[starts]),
            "s": pa.array(np.add.reduceat(n[order], starts))})

    folded = np.zeros(n_bkt, np.int64)
    for nb in ds.map_batches(bucket_tokens, batch_format="pyarrow") \
            .iter_batches(batch_format="numpy"):
        np.add.at(folded, nb["bkt"], nb["s"])
    carry = np.concatenate([[0], np.cumsum(folded)[:-1]])
    carry_ref = ray.put(carry)

    def tag(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy().astype(np.int64)
        n = pc.add(pc.count_substring(b["text"], " "), 1) \
            .to_numpy().astype(np.int64)
        return pa.table({"doc_id": pa.array(did), "n": pa.array(n),
                         "bkt": pa.array(did // B)})

    def expand(g: pa.Table) -> pa.Table:
        cr = ray.get(carry_ref)
        did = g["doc_id"].to_numpy()
        n = g["n"].to_numpy()
        bkt = g["bkt"].to_numpy()
        order = np.lexsort((did, bkt))
        did, n, bkt = did[order], n[order], bkt[order]
        # local exclusive cumsum, reset at bucket starts, plus carry
        cum = np.cumsum(n) - n
        starts = np.flatnonzero(run_starts(bkt))
        base = np.zeros(len(n), np.int64)
        base[starts] = cum[starts]
        start = cum - np.maximum.accumulate(base) + cr[bkt]
        keep = n > 0
        did, n, start = did[keep], n[keep], start[keep]
        first = start // L
        nseq = (start + n - 1) // L - first + 1
        total = int(nseq.sum())
        rep = np.repeat(np.arange(len(n)), nseq)
        cstarts = np.concatenate([[0], np.cumsum(nseq)[:-1]])
        i = first[rep] + (np.arange(total, dtype=np.int64) - cstarts[rep])
        s_r, n_r = start[rep], n[rep]
        return pa.table({
            "doc_id": pa.array(did[rep]),
            "seq_id": pa.array(i),
            "tok_from": pa.array(np.maximum(s_r, i * L) - s_r),
            "tok_to": pa.array(np.minimum(s_r + n_r, (i + 1) * L) - s_r)})

    return exchange(ds.map_batches(tag, batch_format="pyarrow"),
                    "bkt", expand, n_buckets)


def bigram_pmi(sf_dir: str, vocab_k: int = 256,
               min_count: int = 5) -> ray.data.Dataset:
    """Bigram PMI scoring (the phrase-detection pass of an NLP
    pipeline): for every adjacent token pair whose BOTH members are in
    the corpus top-``vocab_k`` vocabulary, pmi_micro = floor(ln(
    (n_xy * N) / (tf_x * tf_y)) * 1e6) with N = total corpus tokens;
    pairs below ``min_count`` drop. Output (bigram, n_xy, pmi_micro).

    Scale shape: the vocabulary (bounded by contract) broadcasts with
    its term frequencies; bigrams ride the shuffle as ONE int64 vocab
    index pair (i1*V + i2 — no strings), per-batch np.unique partials
    collapse before one bounded exchange on that key, and the PMI
    finalizer is pure vectorized arithmetic per bucket. Docs never
    split across batches, so adjacency never crosses a batch edge.

    The float ln matches the oracle by the repo's floor-quantize rule
    (same double ops in the same order: ln((n_xy*N)/(tf1*tf2)))."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 256)
    from ray.data.aggregate import Sum

    vocab = vocab_topk(sf_dir, k=vocab_k).to_pandas()
    N = float(token_counts(sf_dir).aggregate(Sum("n_tokens"))
              ["sum(n_tokens)"])
    vtok = vocab["token"].to_numpy()
    vtf = vocab["tf"].to_numpy().astype(np.float64)
    vorder = np.argsort(vtok)
    vtok_sorted = vtok[vorder]
    vtf_sorted = vtf[vorder]
    V = np.int64(len(vtok_sorted))

    _EMPTY = pa.schema([("key", pa.int64()), ("n_xy", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows < 2:
            return _EMPTY.empty_table()
        tok = np.asarray(t["token"])
        doc = t["doc_id"].to_numpy()
        pos = np.searchsorted(vtok_sorted, tok)
        pos[pos >= V] = 0
        hit = vtok_sorted[pos] == tok
        adj = ~run_starts(doc)[1:] & hit[1:] & hit[:-1]
        if not adj.any():
            return _EMPTY.empty_table()
        key = pos[:-1][adj].astype(np.int64) * V + pos[1:][adj]
        ku, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(ku),
                         "n_xy": pa.array(cnt.astype(np.int64))})

    def final(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        n = g["n_xy"].to_numpy()
        order = np.argsort(key, kind="stable")
        k_, n_ = key[order], n[order]
        starts = np.flatnonzero(run_starts(k_))
        ku, nu = k_[starts], np.add.reduceat(n_, starts)
        keep = nu >= min_count
        ku, nu = ku[keep], nu[keep]
        i1, i2 = ku // V, ku % V
        pmi = np.floor(np.log((nu.astype(np.float64) * N)
                              / (vtf_sorted[i1] * vtf_sorted[i2]))
                       * 1e6).astype(np.int64)
        bg = np.char.add(np.char.add(vtok_sorted[i1].astype(str), " "),
                         vtok_sorted[i2].astype(str))
        return pa.table({"bigram": pa.array(bg.tolist(), pa.string()),
                         "n_xy": pa.array(nu.astype(np.int64)),
                         "pmi_micro": pa.array(pmi)})

    return exchange(_docs(sf_dir, ["doc_id", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "key", final, n_buckets)


def lang_percentiles(sf_dir: str) -> ray.data.Dataset:
    """Per-language percentile normalization of document length: for
    every doc, pct_micro = floor((rank-1)/(n_lang-1) * 1e6) with SQL
    RANK tie semantics (ties share the min rank) — the percent_rank()
    window twin, quantized by the repo's floor rule (n_lang==1 -> 0,
    DuckDB's convention for a single-row partition).

    The rank problem solves with the doc_rank histogram pattern, made
    two-dimensional: distinct (lang, n_chars) cells are a BOUNDED
    domain, so one streamed histogram pass folds per-batch cell counts
    on the driver into per-cell exclusive prefix ranks, and a second
    shuffle-free pass broadcasts the (lang, n_chars) -> (rank, n)
    map and scores every doc vectorized. Nothing is globally sorted."""

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({
            "lang": b["lang"],
            "n_chars": pc.cast(pc.utf8_length(b["text"]), pa.int64())})
        g = pa.TableGroupBy(t, ["lang", "n_chars"]).aggregate(
            [("n_chars", "count")])
        return g.rename_columns(["lang", "n_chars", "cnt"])

    parts = _docs(sf_dir, ["lang", "text"]) \
        .map_batches(hist, batch_format="pyarrow")
    agg: dict = {}
    for nb in parts.iter_batches(batch_format="pyarrow"):
        for lang, n, c in zip(np.asarray(nb["lang"]),
                              nb["n_chars"].to_numpy(),
                              nb["cnt"].to_numpy()):
            k = (str(lang), int(n))
            agg[k] = agg.get(k, 0) + int(c)
    langs = sorted({k[0] for k in agg})
    lut = {}
    for lg in langs:
        lens = sorted(n for (l2, n) in agg if l2 == lg)
        total = sum(agg[(lg, n)] for n in lens)
        run = 0
        for n in lens:
            lut[(lg, n)] = (run + 1, total)  # min rank of ties, n_lang
            run += agg[(lg, n)]
    lut_ref = ray.put(lut)

    def score(b: pa.Table) -> pa.Table:
        m = ray.get(lut_ref)
        lang = np.asarray(b["lang"])
        n = pc.cast(pc.utf8_length(b["text"]), pa.int64()).to_numpy()
        rank = np.empty(len(n), np.int64)
        tot = np.empty(len(n), np.int64)
        for i in range(len(n)):          # dict lookup per row: the map
            r, t = m[(str(lang[i]), int(n[i]))]   # is bounded, rows few
            rank[i], tot[i] = r, t
        pct = np.where(
            tot > 1,
            np.floor((rank - 1).astype(np.float64)
                     / (tot - 1).astype(np.float64) * 1e6), 0.0) \
            .astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "lang": b["lang"],
            "n_chars": pa.array(n),
            "pct_micro": pa.array(pct)})

    return _docs(sf_dir, ["doc_id", "lang", "text"]) \
        .map_batches(score, batch_format="pyarrow")


def corpus_checksums(sf_dir: str, n_buckets: int = 64) -> ray.data.Dataset:
    """Order-free per-bucket content checksums — the integrity /
    anti-entropy primitive a resumable 100 TB pipeline verifies
    partitions with: per doc h = md5-u64(text), bucket = doc_id %
    n_buckets (ids are dense, so plain modulo is uniform AND exactly
    SQL-reproducible — splitmix would need wraparound arithmetic
    DuckDB lacks), checksum = XOR of h per bucket (XOR is associative
    + commutative, so block layout and merge order never matter).
    Output (bucket, n_docs, checksum) with checksum as 16 lowercase
    hex chars: uint64 COLUMNS ARE UNSAFE as Ray Data outputs — the
    streaming block builder can round them through float64 (verified:
    exact via to_arrow_refs, low bits zeroed via streamed to_pandas),
    so the 64-bit word rides the shuffle as two int32-range int64
    halves (XOR composes bitwise, so the halves fold independently)
    and hex-formats only at the final <= n_buckets rows.

    Per-batch partials collapse to <= n_buckets rows before the ONE
    bounded exchange on the output bucket; the merge is the same XOR
    fold."""
    import hashlib

    def fold(part, n_docs, hi, lo):
        """(part, n_docs, ck_hi, ck_lo) per distinct part: row counts
        add, checksum halves XOR."""
        order = np.argsort(part, kind="stable")
        starts = np.flatnonzero(run_starts(part[order]))
        return (part[order][starts],
                np.add.reduceat(n_docs[order], starts),
                np.bitwise_xor.reduceat(hi[order], starts),
                np.bitwise_xor.reduceat(lo[order], starts))

    def partial(b: pa.Table) -> pa.Table:
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
             for s in b["text"].to_pylist()),
            dtype=np.uint64, count=b.num_rows)
        part, n, hi, lo = fold(
            b["doc_id"].to_numpy().astype(np.int64) % n_buckets,
            np.ones(len(h), np.int64),
            (h >> np.uint64(32)).astype(np.int64),
            (h & np.uint64(0xFFFFFFFF)).astype(np.int64))
        return pa.table({"part": part, "n_docs": n, "ck_hi": hi, "ck_lo": lo})

    def merge(g: pa.Table) -> pa.Table:
        part, n, hi, lo = fold(*(g[c].to_numpy() for c in
                                 ("part", "n_docs", "ck_hi", "ck_lo")))
        return pa.table({
            "bucket": pa.array(part, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "checksum": pa.array(
                [f"{(int(a) << 32) | int(b):016x}" for a, b in zip(hi, lo)],
                pa.string())})

    return exchange(_docs(sf_dir, ["doc_id", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "part", merge, n_buckets)


def feature_hashing(sf_dir: str, n_features: int = 256) -> ray.data.Dataset:
    """Hashing-trick vectorizer (Weinberger et al. 2009): every token
    maps to bucket = md5-u64(token) % n_features with sign from the
    hash's top bit; per-doc signed counts are the sparse feature
    vector — (doc_id, fh_bucket, weight) rows, zero weights dropped.

    Shuffle-FREE: docs never split across batches, so per-doc sign
    sums complete in one vectorized pass (distinct-token md5s via
    np.unique, scatter-add per (doc, bucket)). The md5-derived hash is
    the repo parity rule, so the DuckDB twin reproduces bucket and
    sign exactly."""
    import hashlib

    _EMPTY = pa.schema([("doc_id", pa.int64()), ("fh_bucket", pa.int64()),
                        ("weight", pa.int64())])

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        tok = np.asarray(t["token"])
        doc = t["doc_id"].to_numpy()
        ut, inv = np.unique(tok, return_inverse=True)
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
             for s in ut), dtype=np.uint64, count=len(ut))
        bkt = (h % np.uint64(n_features)).astype(np.int64)[inv]
        sign = np.where((h >> np.uint64(63)).astype(np.int64)[inv] == 1,
                        -1, 1).astype(np.int64)
        # scatter-add per (doc, bucket): docs are contiguous in the
        # tokens table, so one lexsort + reduceat does every doc
        key = doc * n_features + bkt
        order = np.argsort(key, kind="stable")
        ks, ss = key[order], sign[order]
        starts = np.flatnonzero(run_starts(ks))
        ku = ks[starts]
        w = np.add.reduceat(ss, starts)
        keep = w != 0
        ku, w = ku[keep], w[keep]
        return pa.table({
            "doc_id": pa.array(ku // n_features),
            "fh_bucket": pa.array(ku % n_features),
            "weight": pa.array(w)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")

def token_entropy(sf_dir: str) -> ray.data.Dataset:
    """Per-doc token-distribution Shannon entropy — the
    repetitiveness/quality signal (low entropy = boilerplate or
    degenerate repetition; complements doc_repetition's duplicate-
    token fraction with a distribution-shape measure).

    Shuffle-free: docs never split across batches, so per-(doc,
    token) counts complete per batch via one Arrow C++ hash-agg on
    the exact token strings (no hashing — the oracle twin groups the
    same strings). Parity: each term c*ln(c) floor-quantizes to
    INT64 micro-nats BEFORE the per-doc sum (integer sums are
    order-free exact — the unigram_logprob trick), and the final
    entropy expression ln(n) - (s/n)/1e6 is the identical double-op
    sequence on identical integer inputs on both sides. Docs with
    zero tokens emit no row (they have no toks rows in the twin)."""

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return pa.table({"doc_id": np.empty(0, np.int64),
                             "n_tokens": np.empty(0, np.int64),
                             "ent_micro": np.empty(0, np.int64)})
        cnt = t.group_by(["doc_id", "token"]).aggregate([("token", "count")])
        c = cnt["token_count"].to_numpy().astype(np.int64)
        term = np.floor(c * np.log(c) * 1e6).astype(np.int64)
        per = pa.table({"doc_id": cnt["doc_id"], "c": pa.array(c),
                        "term": pa.array(term)})
        agg = per.group_by("doc_id").aggregate([("c", "sum"),
                                                ("term", "sum")])
        n = agg["c_sum"].to_numpy().astype(np.int64)
        s = agg["term_sum"].to_numpy().astype(np.int64)
        ent = np.floor((np.log(n) - (s / n) / 1e6) * 1e6).astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(agg["doc_id"], pa.int64()),
            "n_tokens": pa.array(n), "ent_micro": pa.array(ent)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")

def compression_ratio(sf_dir: str, level: int = 6) -> ray.data.Dataset:
    """Per-doc DEFLATE compression ratio — the Gopher/C4-family
    quality signal orthogonal to token statistics: highly repetitive
    or templated text compresses far below natural prose, so a low
    ratio flags boilerplate and degenerate generation even when token
    entropy looks healthy.

    Shuffle-free map: zlib (C) runs straight over each row's UTF-8
    slice of the Arrow values buffer — no Python str materializes.
    Output ratio_ppm = compressed*1e6 // raw is exact integer
    arithmetic (order-free, platform-deterministic for a fixed zlib),
    so the gate row hash is stable; no SQL twin exists for DEFLATE ->
    rows-only + a single-process recompute pytest."""
    import zlib

    def fn(b: pa.Table) -> pa.Table:
        col = b["text"].combine_chunks()
        n = len(col)
        if pa.types.is_large_string(col.type):
            offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
                col.offset:col.offset + n + 1]
        else:
            offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
                col.offset:col.offset + n + 1].astype(np.int64)
        mv = memoryview(col.buffers()[2])
        comp = zlib.compress
        raw = np.diff(offs)
        clen = np.fromiter(
            (len(comp(mv[offs[i]:offs[i + 1]], level)) for i in range(n)),
            np.int64, n)
        keep = raw > 0
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()).filter(
                pa.array(keep)),
            "raw_bytes": pa.array(raw[keep]),
            "comp_bytes": pa.array(clen[keep]),
            "ratio_ppm": pa.array(clen[keep] * 1_000_000 // raw[keep])})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")

def bigram_logprob(sf_dir: str, vocab_k: int = 256) -> ray.data.Dataset:
    """Bigram-LM document scoring — the next rung above
    ``unigram_logprob`` on the LM-quality-filter ladder: for every
    adjacent in-vocabulary token pair, lp = floor(ln((c(w1,w2) + 1) /
    (tf(w1) + V)) * 1e6) — add-one-smoothed conditional probability
    over the top-``vocab_k`` vocabulary — summed per doc as exact
    INT64 micro-nats (order-free, the unigram trick).

    Two corpus passes, the train-then-score LM shape: (1) bigram
    counts over in-vocab pairs collapse per batch to int64 key
    partials (i1*V+i2, no strings) through one bounded exchange on the
    key — the result is bounded by V^2, a model constant, so it
    collects and broadcasts like the vocabulary itself; (2) a
    shuffle-free scoring pass looks pairs up via searchsorted against
    the broadcast count table. Docs never split across batches, so
    adjacency and per-doc sums complete in-batch."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 256)
    from ray.data.aggregate import Sum  # noqa: F401  (parity w/ unigram)

    vocab = vocab_topk(sf_dir, k=vocab_k).to_pandas()
    vtok = vocab["token"].to_numpy()
    vtf = vocab["tf"].to_numpy().astype(np.int64)
    vorder = np.argsort(vtok)
    vtok_sorted = vtok[vorder]
    vtf_sorted = vtf[vorder]
    V = np.int64(len(vtok_sorted))

    _EMPTY_P = pa.schema([("key", pa.int64()), ("c", pa.int64())])

    def count_partial(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows < 2:
            return _EMPTY_P.empty_table()
        tok = np.asarray(t["token"])
        doc = t["doc_id"].to_numpy()
        pos = np.searchsorted(vtok_sorted, tok)
        pos[pos >= V] = 0
        hit = vtok_sorted[pos] == tok
        adj = ~run_starts(doc)[1:] & hit[1:] & hit[:-1]
        if not adj.any():
            return _EMPTY_P.empty_table()
        key = pos[:-1][adj].astype(np.int64) * V + pos[1:][adj]
        ku, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(ku),
                         "c": pa.array(cnt.astype(np.int64))})

    def count_merge(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        c = g["c"].to_numpy()
        order = np.argsort(key, kind="stable")
        k_, c_ = key[order], c[order]
        starts = np.flatnonzero(run_starts(k_))
        return pa.table({"key": pa.array(k_[starts]),
                         "c": pa.array(np.add.reduceat(c_, starts)
                                       .astype(np.int64))})

    counts = exchange(_docs(sf_dir, ["doc_id", "text"])
                      .map_batches(count_partial, batch_format="pyarrow"),
                      "key", count_merge, n_buckets) \
        .to_pandas()  # bounded by V^2 — a model constant, like the vocab
    bk = counts["key"].to_numpy().astype(np.int64)
    bc = counts["c"].to_numpy().astype(np.int64)
    border = np.argsort(bk)
    bk_sorted, bc_sorted = bk[border], bc[border]

    _EMPTY_S = pa.schema([("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
                          ("logprob_micro", pa.int64())])

    def score(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows < 2:
            return _EMPTY_S.empty_table()
        tok = np.asarray(t["token"])
        doc = t["doc_id"].to_numpy()
        pos = np.searchsorted(vtok_sorted, tok)
        pos[pos >= V] = 0
        hit = vtok_sorted[pos] == tok
        adj = ~run_starts(doc)[1:] & hit[1:] & hit[:-1]
        if not adj.any():
            return _EMPTY_S.empty_table()
        i1 = pos[:-1][adj].astype(np.int64)
        key = i1 * V + pos[1:][adj]
        at = np.searchsorted(bk_sorted, key)
        c = bc_sorted[at]  # every observed pair was counted in pass 1
        lp = np.floor(np.log((c + 1).astype(np.float64)
                             / (vtf_sorted[i1] + V)) * 1e6).astype(np.int64)
        d = doc[:-1][adj]
        order = np.argsort(d, kind="stable")
        d, lp = d[order], lp[order]
        starts = np.flatnonzero(run_starts(d))
        return pa.table({
            "doc_id": pa.array(d[starts]),
            "n_bigrams": pa.array(np.diff(
                np.concatenate((starts, [len(d)]))).astype(np.int64)),
            "logprob_micro": pa.array(np.add.reduceat(lp, starts)
                                      .astype(np.int64))})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow")


def fuzzy_search(sf_dir: str,
                 query: str = "batch window spark order data",
                 prefix_len: int = 32, k: int = 20) -> ray.data.Dataset:
    """Fuzzy full-scan search: Levenshtein distance from each
    document's first `prefix_len` characters to a query string, global
    top-k by (distance, doc_id) — the approximate string-match lookup
    (typo-tolerant title/dedup search) over the corpus. Distances are
    small integers, so engine/oracle parity is exact.

    Shape: the per-batch kernel is a WAVEFRONT edit-distance DP
    vectorized ACROSS the batch — the DP state is an
    (n_rows, len(query)+1) int32 matrix advanced once per string
    position (prefix_len iterations, each a handful of whole-column
    numpy mins), never a per-row Python DP. Rows shorter than
    prefix_len freeze their final state via masking. Each batch emits
    only its local top-k; the global sort touches k rows per batch."""
    qb = query.encode()
    m = len(qb)
    qarr = np.frombuffer(qb, np.uint8)

    def lev_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        col = batch["text"].combine_chunks()
        if pa.types.is_large_string(col.type):
            col = col.cast(pa.string())
        # zero-copy (n, prefix_len) byte matrix from the Arrow buffers
        bufs = col.buffers()
        data = np.frombuffer(bufs[2], np.uint8)
        offs = np.frombuffer(bufs[1], np.int32)[
            col.offset:col.offset + len(col) + 1]
        lens = np.minimum(offs[1:] - offs[:-1], prefix_len).astype(np.int64)
        idx = offs[:-1, None].astype(np.int64) + np.arange(prefix_len)
        mat = data[np.minimum(idx, len(data) - 1)]
        n = len(col)
        # DP rows: state[r, i] = edit distance between s[:j] and q[:i]
        state = np.broadcast_to(np.arange(m + 1, dtype=np.int32),
                                (n, m + 1)).copy()
        new = np.empty_like(state)
        for j in range(prefix_len):
            active = j < lens
            if not active.any():
                break
            sj = mat[:, j]
            new[:, 0] = j + 1
            neq = (sj[:, None] != qarr[None, :]).astype(np.int32)
            for i in range(1, m + 1):
                new[:, i] = np.minimum(
                    np.minimum(state[:, i] + 1, new[:, i - 1] + 1),
                    state[:, i - 1] + neq[:, i - 1])
            state[active] = new[active]
        dist = state[:, m].astype(np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, dist))[:k]
        return pa.table({"doc_id": ids[order].astype(np.int64),
                         "dist": dist[order]})

    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(lev_partial, batch_format="pyarrow") \
        .sort(["dist", "doc_id"]).limit(k)


def char_trigrams(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Per-language character-trigram profile: the top-k most frequent
    3-char substrings per lang with exact counts — the feature table a
    statistical language-ID model trains on (document fingerprinting
    at the character level). ASCII corpus: byte trigrams == the twin's
    substr() character trigrams.

    Shape: trigrams never exist as Python strings in the hot path —
    each batch packs all 3-byte windows of the raw Arrow values buffer
    into int32 keys with three shifted views and counts distinct
    (lang, key) pairs via np.unique; ONE bounded exchange on the key
    completes each key's global count (a key lives in exactly
    ONE bucket, so per-bucket top-k candidates are globally sound);
    the driver folds k*buckets candidate rows. State is bounded by
    the trigram VOCABULARY, not the corpus size."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 256)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch["text"].combine_chunks()
        if pa.types.is_large_string(col.type):
            col = col.cast(pa.string())
        bufs = col.buffers()
        data = np.frombuffer(bufs[2], np.uint8)
        offs = np.frombuffer(bufs[1], np.int32)[
            col.offset:col.offset + len(col) + 1].astype(np.int64)
        lens = offs[1:] - offs[:-1]
        m = np.maximum(lens - 2, 0)
        # ragged arange: every trigram start position across the batch
        tot = int(m.sum())
        if tot == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        rep = np.repeat(np.arange(len(m)), m)
        base = np.concatenate(([0], np.cumsum(m)[:-1]))
        pos = offs[:-1][rep] + (np.arange(tot) - base[rep])
        key = (data[pos].astype(np.int64) << 16) \
            | (data[pos + 1].astype(np.int64) << 8) \
            | data[pos + 2].astype(np.int64)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        lcode, luniq = pd.factorize(lang[rep])
        pair = key * np.int64(64) + lcode  # few langs; packed pair key
        uniq, counts = np.unique(pair, return_counts=True)
        ukey = uniq // 64
        ulang = luniq[(uniq % 64).astype(np.int64)]
        return pa.table({
            "lang": pa.array(ulang, pa.string()),
            "key": ukey, "n": counts.astype(np.int64)})

    def bucket_topk(g: pa.Table) -> pa.Table:
        lang = g["lang"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy()
        nn = g["n"].to_numpy()
        order = np.lexsort((key, lang))
        lang, key, nn = lang[order], key[order], nn[order]
        if len(key) == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        starts = np.flatnonzero(run_starts(lang, key))
        tot = np.add.reduceat(nn, starts)
        lang, key = lang[starts], key[starts]
        # per-lang local top-k candidates (globally sound: every key's
        # count is complete inside its bucket): sort (lang asc, n
        # desc, key asc) and keep each lang's first k rows
        order = np.lexsort((key, -tot, lang))
        lang, key, tot = lang[order], key[order], tot[order]
        lfirst = run_starts(lang)
        lsizes = np.diff(np.append(np.flatnonzero(lfirst), len(lang)))
        rank = np.arange(len(lang)) - np.repeat(
            np.flatnonzero(lfirst), lsizes)
        keep = rank < k
        return pa.table({"lang": pa.array(lang[keep], pa.string()),
                         "key": pa.array(key[keep].astype(np.int64)),
                         "n": pa.array(tot[keep].astype(np.int64))})

    cand = exchange(_docs(sf_dir, ["lang", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "key", bucket_topk, n_buckets).to_pandas()

    out = []
    for lang, g in cand.groupby("lang"):
        g = g.sort_values(["n", "key"], ascending=[False, True]).head(k)
        tri = [bytes([ky >> 16, (ky >> 8) & 0xFF, ky & 0xFF]).decode()
               for ky in g["key"]]
        out.append(pd.DataFrame({
            "lang": lang, "trigram": tri,
            "n": g["n"].to_numpy().astype(np.int64)}))
    return pd.concat(out, ignore_index=True)


def oov_rate(sf_dir: str, vocab_k: int = 100) -> ray.data.Dataset:
    """Out-of-vocabulary rate per document: the fraction (exact
    integer ppm) of a doc's tokens falling outside the corpus top-V
    vocabulary — the coverage/novelty quality signal a tokenizer-
    aware data pipeline filters on.

    Shape: pass 1 is the distributed vocab build (vocab_topk, bounded
    k x buckets); the V-token set broadcasts via ray.put; pass 2 is
    shuffle-free — docs never split across batches, so one Arrow
    hash-agg + one index_in membership kernel per batch complete
    every doc's counts locally. ppm = (n - in) * 1e6 // n stays in
    exact int64 (DuckDB // truncation == floor on non-negatives)."""
    vocab = vocab_topk(sf_dir, vocab_k).to_pandas()["token"].tolist()
    vref = ray.put(vocab)

    def score(b: pa.Table) -> pa.Table:
        v = ray.get(vref)
        t = _tokens_table(b)
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "oov_ppm": pa.array([], pa.int64())})
        inv = pc.is_valid(pc.index_in(t["token"],
                                      value_set=pa.array(v)))
        g = pa.TableGroupBy(
            pa.table({"doc_id": t["doc_id"],
                      "inv": pc.cast(inv, pa.int64())}),
            "doc_id").aggregate([("inv", "count"), ("inv", "sum")])
        g = g.rename_columns(["doc_id", "n", "n_in"])
        n = g["n"].to_numpy().astype(np.int64)
        n_in = g["n_in"].to_numpy().astype(np.int64)
        keep = n > 0
        return pa.table({
            "doc_id": g["doc_id"].to_numpy()[keep].astype(np.int64),
            "n_tokens": n[keep],
            "oov_ppm": (n[keep] - n_in[keep]) * np.int64(1_000_000)
            // n[keep]})

    return _docs(sf_dir, ["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow")


def zipf_slope(sf_dir: str, topn: int = 100) -> ray.data.Dataset:
    """Zipf rank-frequency fit per source: OLS slope of ln(tf) on
    ln(rank) over the top-``topn`` tokens (ties tf DESC, token ASC) —
    the corpus-health statistic a curation pipeline tracks (natural
    text sits near -1; templated/spam sources flatten or steepen).

    Shape: vocab_topk's bounded plan (per-batch (source, token) tf
    partials, ONE exchange on md5(token), per-bucket top-n) then a single
    merge block sees <= topn x buckets x sources rows. Exactness: the
    regression runs over INT64 micro-nat quantized logs (the unigram
    trick), so every sum is order-free and the twin's HUGEINT sums
    cast to DOUBLE the same way."""
    n_buckets = derive_buckets(f"{sf_dir}/documents.parquet", 64)
    import hashlib

    from .relational import _fq

    _EMPTY = pa.schema([("source", pa.string()), ("token", pa.string()),
                        ("tf", pa.int64()), ("h", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b["text"], NON_TOKEN_RE)
        flat = pc.list_flatten(toks)
        src = pc.take(b["source"], pc.list_parent_indices(toks))
        t = pa.table({"source": src, "token": flat})
        t = t.filter(pc.not_equal(t["token"], ""))
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        tf = pa.TableGroupBy(t, ["source", "token"]).aggregate(
            [("token", "count")]).rename_columns(["source", "token", "tf"])
        toks_py = tf["token"].to_pylist()
        h = np.array([int.from_bytes(hashlib.md5(s.encode()).digest()[:8],
                                     "big") for s in toks_py], dtype=np.uint64)
        return pa.table({
            "source": tf["source"], "token": tf["token"],
            "tf": pc.cast(tf["tf"], pa.int64()),
            "h": pa.array(h.view(np.int64))})

    def _rank(src: np.ndarray) -> np.ndarray:
        """1-based row rank within each run of equal ``src``."""
        new = run_starts(src)
        starts = np.flatnonzero(new)
        return np.arange(len(src), dtype=np.int64) \
            - starts[np.cumsum(new) - 1] + 1

    def merge_bucket(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.select(["source", "token", "tf"]),
                            ["source", "token"]).aggregate([("tf", "sum")]) \
            .rename_columns(["source", "token", "tf"])
        m = m.sort_by([("source", "ascending"), ("tf", "descending"),
                       ("token", "ascending")])
        return m.filter(pa.array(_rank(np.asarray(m["source"])) <= topn))

    def finalize(b: pa.Table) -> pa.Table:
        m = b.sort_by([("source", "ascending"), ("tf", "descending"),
                       ("token", "ascending")])
        src = np.asarray(m["source"])
        tf = m["tf"].to_numpy(zero_copy_only=False)
        rank = _rank(src)
        keep = rank <= topn
        src, tf, rank = src[keep], tf[keep], rank[keep]
        xi = np.floor(np.log(rank.astype(np.float64)) * 1e6 + 0.5) \
            .astype(np.int64)
        yi = np.floor(np.log(tf.astype(np.float64)) * 1e6 + 0.5) \
            .astype(np.int64)
        starts = np.flatnonzero(run_starts(src))
        cnt = np.diff(np.concatenate((starts, [len(src)])))
        sx = np.add.reduceat(xi, starts)
        sy = np.add.reduceat(yi, starts)
        sxy = np.add.reduceat(xi * yi, starts)
        sxx = np.add.reduceat(xi * xi, starts)
        nf = cnt.astype(np.float64)
        num = nf * sxy.astype(np.float64) \
            - sx.astype(np.float64) * sy.astype(np.float64)
        den = nf * sxx.astype(np.float64) \
            - sx.astype(np.float64) * sx.astype(np.float64)
        return pa.table({
            "source": pa.array(src[starts].tolist(), pa.string()),
            "n_top": pa.array(cnt.astype(np.int64)),
            "slope": pa.array(_fq(num / den, 6))})

    return exchange(_docs(sf_dir, ["source", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "h", merge_bucket, n_buckets) \
        .repartition(1).map_batches(finalize, batch_format="pyarrow")


def type_token_ratio(sf_dir: str) -> ray.data.Dataset:
    """Per-document lexical diversity: token count, distinct-token
    count, type-token ratio (round 6; 0.0 for empty docs, mirroring
    the twin's CASE). Embarrassingly parallel — docs never split
    across batches, so both counts complete with two C++ hash
    aggregates per batch and zero shuffles."""
    from .relational import _fq

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        per = pa.TableGroupBy(t, ["doc_id", "token"]).aggregate(
            [("token", "count")]).rename_columns(["doc_id", "token", "tf"])
        agg = pa.TableGroupBy(per, "doc_id").aggregate(
            [("tf", "sum"), ("token", "count")]).rename_columns(
            ["doc_id", "n_tokens", "n_types"])
        keys = agg["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        ntok_s = agg["n_tokens"].to_numpy(zero_copy_only=False)[order]
        ntyp_s = agg["n_types"].to_numpy(zero_copy_only=False)[order]
        all_ids = b["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys_s, all_ids)
        pos = np.clip(pos, 0, max(len(keys_s) - 1, 0))
        ok = (keys_s[pos] == all_ids) if len(keys_s) else \
            np.zeros(len(all_ids), dtype=bool)
        n_tokens = np.where(ok, ntok_s[pos] if len(keys_s) else 0, 0) \
            .astype(np.int64)
        n_types = np.where(ok, ntyp_s[pos] if len(keys_s) else 0, 0) \
            .astype(np.int64)
        ttr = np.where(n_tokens > 0,
                       _fq(n_types / np.maximum(n_tokens, 1), 6), 0.0)
        return pa.table({
            "doc_id": pa.array(all_ids.astype(np.int64)),
            "n_tokens": pa.array(n_tokens),
            "n_types": pa.array(n_types),
            "ttr": pa.array(ttr)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


BM25_K1 = 1.2
BM25_B = 0.75
BM25_QUERY = ("hash", "join", "merge", "sort")


def bm25_search(sf_dir: str, k: int = 20) -> ray.data.Dataset:
    """BM25 lexical retrieval (Robertson/Sparck-Jones, the classic
    public formula) for a fixed query, top-k docs — the lexical leg of
    a hybrid search pipeline next to the knn family.

    Two passes, both bounded: (1) corpus stats — N, total tokens, and
    per-query-token document frequencies — fold driver-side from
    per-batch partials (|query| + 2 scalars); (2) scoring — per-batch
    tf over the broadcast query set, each (doc, token) BM25 term
    quantized to INT64 micro-units with the twin's IDENTICAL double
    sequence, integer-summed per doc, per-block top-k partials then a
    single-block final. Docs containing no query token never leave
    their batch."""
    from .relational import _p as _rp  # noqa: F401 (naming parity)

    q_tokens = np.array(sorted(BM25_QUERY))

    def stats_partial(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        tq = t.filter(pc.is_in(t["token"], value_set=pa.array(
            q_tokens.tolist(), pa.string())))
        d = pa.TableGroupBy(tq, ["token", "doc_id"]).aggregate([]) \
            .rename_columns(["token", "doc_id"])
        dfp = pa.TableGroupBy(d, "token").aggregate([("doc_id", "count")]) \
            .rename_columns(["token", "df"])
        return pa.table({
            "token": pa.concat_arrays([
                dfp["token"].combine_chunks(),
                pa.array(["__N__", "__TOT__"], pa.string())]),
            "df": pa.concat_arrays([
                pc.cast(dfp["df"], pa.int64()).combine_chunks(),
                pa.array([b.num_rows, t.num_rows], pa.int64())])})

    stats = {}
    for t in _docs(sf_dir, ["doc_id", "text"]) \
            .map_batches(stats_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for tok, v in zip(np.asarray(t["token"]),
                          t["df"].to_numpy(zero_copy_only=False)):
            stats[str(tok)] = stats.get(str(tok), 0) + int(v)
    n_docs = stats.pop("__N__")
    tot = stats.pop("__TOT__")
    avgdl = tot / n_docs
    idf = {tok: np.log((n_docs - stats.get(tok, 0) + 0.5)
                       / (stats.get(tok, 0) + 0.5) + 1.0)
           for tok in q_tokens}
    idf_arr = np.array([idf[tok] for tok in q_tokens])
    model_ref = ray.put((q_tokens, idf_arr, avgdl))

    def score_partial(b: pa.Table) -> pa.Table:
        q_m, idf_m, avgdl_m = cached_ref(model_ref)
        dl_all = pc.count_substring_regex(b["text"], TOKEN_RE) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        ids_all = b["doc_id"].to_numpy(zero_copy_only=False)
        t = _tokens_table(b)
        tq = t.filter(pc.is_in(t["token"], value_set=pa.array(
            q_m.tolist(), pa.string())))
        tfb = pa.TableGroupBy(tq, ["doc_id", "token"]).aggregate(
            [("token", "count")]).rename_columns(["doc_id", "token", "tf"])
        doc = tfb["doc_id"].to_numpy(zero_copy_only=False)
        tok = np.asarray(tfb["token"])
        tf = tfb["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        tpos = np.searchsorted(q_m, tok)
        dpos = np.searchsorted(np.sort(ids_all), doc)
        order_ids = np.argsort(ids_all, kind="stable")
        dl = dl_all[order_ids][dpos]
        ratio = (tf * (BM25_K1 + 1.0)) \
            / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avgdl_m)))
        term = np.floor(idf_m[tpos] * ratio * 1e6).astype(np.int64)
        tt = pa.table({"doc_id": doc, "term": term})
        g = pa.TableGroupBy(tt, "doc_id").aggregate([("term", "sum")])
        g = g.rename_columns(["doc_id", "score_micro"])
        # per-block top-k partial
        sc = g["score_micro"].to_numpy(zero_copy_only=False)
        di = g["doc_id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((di, -sc))[:k]
        return pa.table({"doc_id": pa.array(di[o].astype(np.int64)),
                         "score_micro": pa.array(sc[o].astype(np.int64))})

    def topk_final(b: pa.Table) -> pa.Table:
        sc = b["score_micro"].to_numpy(zero_copy_only=False)
        di = b["doc_id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((di, -sc))[:k]
        return pa.table({"doc_id": pa.array(di[o].astype(np.int64)),
                         "score_micro": pa.array(sc[o].astype(np.int64))})

    return _docs(sf_dir, ["doc_id", "text"]) \
        .map_batches(score_partial, batch_format="pyarrow") \
        .repartition(1).map_batches(topk_final, batch_format="pyarrow")
