"""Embedding clustering + cluster-based semantic dedup.

- ``kmeans``: distributed spherical k-means (Lloyd's) over the
  embeddings table. Each iteration is ONE streamed pass: centroids
  broadcast via ray.put, per-batch assignment is a single matmul, and
  each batch emits at most k partial rows (cluster, count, packed
  float64 sum vector) — the merge the driver does per iteration is
  over k * num_blocks tiny rows, never the data. No shuffle at any
  point; at 100 TB the per-iteration cost is exactly one read pass.
  Deterministic given the init (first-k vec_ids) up to float summation
  order across blocks; the pytest oracle therefore compares with a
  margin guard instead of bit equality (repo parity-rule discipline:
  only well-separated assignments are asserted).

- ``semantic_dedup``: SemDeDup-style near-duplicate discovery
  (cluster with k-means, then pairwise cosine WITHIN each cluster
  only — the k-means pass bounds the quadratic). The within-cluster
  stage is a groupby on the cluster id, which is a BOUNDED domain
  (k <= a few thousand) — the one groupby key the repo's shuffle
  discipline allows directly. Oversized clusters are capped like
  ops/similarity.lsh_neardup_pairs: a deterministic chunked fallback
  compares consecutive chunk windows so worst-case work is
  O(cap * n), with the dropped-comparison count surfaced in an
  output stats row (no silent caps).

The reference has no clustering surface; these are engine-side
operators for the 100 TB curation family (SemDeDup: Abbas et al.,
2023, arXiv:2303.09540 — public method).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .similarity import _cached_stage, _emb, _stack
from .text import LANG_MARKERS, STOP_RE, TOKEN_RE
from .warehouse import _cached_ref

MAX_SEM_CLUSTER = 4096  # pairwise-compare cap per k-means cluster


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return v / n


def _init_centroids(sf_dir: str, k: int) -> np.ndarray:
    """Deterministic init: the first k vec_ids (read-pruned)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    t = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        filter=pc.field("vec_id") < k, columns=["vec_id", "embedding"])
    order = np.argsort(t["vec_id"].to_numpy())
    return _normalize(_stack(t["embedding"])[order])


def _partial_sums_stage(cent_ref, k: int):
    """Per-batch: assign to nearest centroid (cosine), emit per-cluster
    partial (count, packed float64 sum). <= k rows per batch."""

    def factory():
        cn = ray.get(cent_ref)

        def fn(t: pa.Table) -> pa.Table:
            v = _normalize(_stack(t["embedding"]))
            a = np.argmax(v @ cn.T, axis=1)
            order = np.argsort(a, kind="stable")
            sa = a[order]
            starts = np.flatnonzero(
                np.concatenate([[True], sa[1:] != sa[:-1]]))
            clusters = sa[starts]
            counts = np.diff(np.concatenate([starts, [len(sa)]]))
            sums = np.add.reduceat(v[order], starts, axis=0)
            return pa.table({
                "cluster": pa.array(clusters.astype(np.int64)),
                "n": pa.array(counts.astype(np.int64)),
                "vsum": pa.array([s.tobytes() for s in sums],
                                 pa.binary())})
        return fn

    return _cached_stage(("kmeans_partial", cent_ref.hex(), k), factory)


def _lloyd(ds: ray.data.Dataset, cents: np.ndarray,
           iters: int) -> np.ndarray:
    """Run ``iters`` Lloyd iterations over ``ds``; each is one streamed
    pass whose driver-side merge touches only k * num_blocks partial
    rows (never the data). Empty clusters keep their centroid."""
    k = len(cents)
    for _ in range(iters):
        ref = ray.put(cents)
        part = ds.map_batches(_partial_sums_stage(ref, k),
                              batch_format="pyarrow").to_pandas()
        part = part.sort_values(["cluster", "n"],
                                kind="stable").reset_index(drop=True)
        new = cents.copy()
        for c, g in part.groupby("cluster"):
            s = np.sum([np.frombuffer(b, np.float64) for b in g["vsum"]],
                       axis=0)
            norm = np.linalg.norm(s)
            if norm > 0:
                new[int(c)] = s / norm
        cents = new
    return cents


def kmeans(sf_dir: str, k: int = 16, iters: int = 5) -> ray.data.Dataset:
    """Spherical k-means assignments: (vec_id, cluster, sim). One
    streamed pass per iteration plus a final assignment pass; empty
    clusters keep their previous centroid."""
    ds = _emb(sf_dir)
    cents = _lloyd(ds, _init_centroids(sf_dir, k), iters)
    ref = ray.put(cents)

    def factory():
        cn = ray.get(ref)

        def fn(t: pa.Table) -> pa.Table:
            v = _normalize(_stack(t["embedding"]))
            sims = v @ cn.T
            a = np.argmax(sims, axis=1)
            return pa.table({
                "vec_id": pa.array(t["vec_id"].to_numpy().astype(np.int64)),
                "cluster": pa.array(a.astype(np.int64)),
                "sim": pa.array(sims[np.arange(len(a)), a])})
        return fn

    return ds.map_batches(_cached_stage(("kmeans_assign", ref.hex()), factory),
                          batch_format="pyarrow")


def _plant_neardups(t: pa.Table, n_planted: int, dim: int) -> pa.Table:
    """Deterministic planted near-duplicates (the lsh_neardup gate
    pattern): for vec_id < n_planted, append a copy with id + 10^6 and
    a tiny deterministic perturbation."""
    ids = t["vec_id"].to_numpy()
    sel = np.flatnonzero(ids < n_planted)
    if len(sel) == 0:
        return t
    v = _stack(t["embedding"])
    pv = v[sel].copy()
    bump = (np.arange(dim) % 7 - 3) * 1e-4
    pv = pv + bump[None, :]
    plant = pa.table({
        "vec_id": pa.array((ids[sel] + 1_000_000).astype(np.int64)),
        "embedding": pa.array(list(pv), pa.list_(pa.float64()))})
    base = pa.table({
        "vec_id": pa.array(ids.astype(np.int64)),
        "embedding": pa.array([list(r) for r in v], pa.list_(pa.float64()))})
    return pa.concat_tables([base, plant])


def semantic_dedup(sf_dir: str, k: int = 16, iters: int = 3,
                   threshold: float = 0.95,
                   n_planted: int = 16) -> ray.data.Dataset:
    """SemDeDup: k-means cluster, then pairwise cosine >= threshold
    within each cluster. Output (id_a, id_b, sim) with id_a < id_b,
    plus one stats row (id_a = id_b = -1) whose ``sim`` carries the
    number of comparisons dropped by the MAX_SEM_CLUSTER cap (0 when
    no cluster overflowed — no silent caps).

    n_planted > 0 appends deterministic near-duplicate copies
    (vec_id + 10^6) so the pair-emission path runs live on the
    near-orthogonal test embeddings, exactly like lsh_neardup."""
    init = _init_centroids(sf_dir, k)
    dim = init.shape[1]
    planted = _emb(sf_dir).map_batches(
        lambda t: _plant_neardups(t, n_planted, dim),
        batch_format="pyarrow")
    cents = _lloyd(planted, init, iters)
    ref = ray.put(cents)

    def assign_factory():
        cn = ray.get(ref)

        def fn(t: pa.Table) -> pa.Table:
            v = _normalize(_stack(t["embedding"]))
            a = np.argmax(v @ cn.T, axis=1)
            return pa.table({
                "cluster": pa.array(a.astype(np.int64)),
                "vec_id": pa.array(t["vec_id"].to_numpy().astype(np.int64)),
                "emb": pa.array([r.tobytes() for r in v], pa.binary())})
        return fn

    assigned = planted.map_batches(
        _cached_stage(("semdedup_assign", ref.hex()), assign_factory),
        batch_format="pyarrow")

    def pairs_of_cluster(g: pa.Table) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        v = np.stack([np.frombuffer(b, np.float64)
                      for b in g["emb"].to_pylist()])[order]
        n = len(ids)
        dropped = 0
        out_a, out_b, out_s = [], [], []

        def emit(ii, jj, block_a, block_b):
            sims = block_a @ block_b.T
            x, y = np.nonzero(sims >= threshold)
            a, b = ii[x], jj[y]
            m = a < b
            out_a.append(a[m])
            out_b.append(b[m])
            out_s.append(sims[x[m], y[m]])

        if n <= MAX_SEM_CLUSTER:
            emit(ids, ids, v, v)
        else:
            # chunked fallback: compare consecutive chunk windows so
            # work stays O(cap * n); cross-window pairs are dropped
            # and COUNTED (sorted ids => near-dups of a doc cluster
            # usually land adjacent after the id sort is irrelevant —
            # this is an honest recall cap, surfaced, not silent)
            step = MAX_SEM_CLUSTER
            for s0 in range(0, n, step):
                hi = min(n, s0 + 2 * step)
                emit(ids[s0:s0 + step], ids[s0:hi],
                     v[s0:s0 + step], v[s0:hi])
                far = n - hi
                if far > 0:
                    dropped += (min(step, n - s0)) * far
        a = (np.concatenate(out_a) if out_a else np.empty(0, np.int64))
        b = (np.concatenate(out_b) if out_b else np.empty(0, np.int64))
        s = (np.concatenate(out_s) if out_s else np.empty(0))
        df = pd.DataFrame({"id_a": a.astype(np.int64),
                           "id_b": b.astype(np.int64), "sim": s})
        if dropped:
            df = pd.concat([df, pd.DataFrame(
                {"id_a": [-1], "id_b": [-1], "sim": [float(dropped)]})],
                ignore_index=True)
        return df

    pairs = assigned.groupby("cluster").map_groups(
        pairs_of_cluster, batch_format="pyarrow")

    def dedupe_and_stats(df: pd.DataFrame) -> pd.DataFrame:
        stats = df[df["id_a"] == -1]
        live = df[df["id_a"] != -1]
        live = live.drop_duplicates(["id_a", "id_b"])
        total_dropped = float(stats["sim"].sum())
        out = live.sort_values(["id_a", "id_b"]).reset_index(drop=True)
        return pd.concat([out, pd.DataFrame(
            {"id_a": [-1], "id_b": [-1], "sim": [total_dropped]})],
            ignore_index=True)

    # final tidy: the pair set is tiny (near-dups only); one
    # repartition(1) merge emits the stats row exactly once
    return pairs.repartition(1).map_batches(
        dedupe_and_stats, batch_format="pandas")


def _lr_features(b: pa.Table):
    """Deterministic per-doc feature matrix + language label for the
    quality classifier: x = [1, min(n_tok/50,1), stop_ratio,
    min(avg_len/8,1)], y = 1.0 iff the lang_id marker heuristic says
    'en'. All Arrow kernels — no Python per row."""
    import pyarrow.compute as pc

    text = b["text"]
    n_tok = pc.count_substring_regex(text, TOKEN_RE).to_numpy() \
        .astype(np.float64)
    n_stop = pc.count_substring_regex(text, STOP_RE).to_numpy() \
        .astype(np.float64)
    tok_chars = pc.utf8_length(
        pc.replace_substring_regex(text, "[^0-9A-Za-z_]", "")
    ).to_numpy().astype(np.float64)
    denom = np.maximum(n_tok, 1.0)
    lower = pc.utf8_lower(text)
    en = pc.count_substring_regex(lower, LANG_MARKERS["en"]).to_numpy()
    de = pc.count_substring_regex(lower, LANG_MARKERS["de"]).to_numpy()
    fr = pc.count_substring_regex(lower, LANG_MARKERS["fr"]).to_numpy()
    y = ((en >= de) & (en >= fr) & (en > 0)).astype(np.float64)
    x = np.column_stack([
        np.ones(len(y)),
        np.minimum(n_tok / 50.0, 1.0),
        n_stop / denom,
        np.minimum(tok_chars / denom / 8.0, 1.0),
        np.minimum(en.astype(np.float64) / denom * 5.0, 1.0)])
    return x, y


def train_quality_lr(sf_dir: str, n_iters: int = 40,
                     step: float = 2.0) -> ray.data.Dataset:
    """DISTRIBUTED MODEL TRAINING: full-batch gradient descent for a
    logistic-regression quality/language classifier — the
    kmeans/PageRank broadcast-model pattern applied to learning: per
    iteration the weight vector (a model-sized constant) broadcasts
    via ray.put, each batch emits ONE partial row (gradient-sum
    vector + count), and the driver applies the step. N iterations
    touch the corpus N times and the driver only ever folds
    #blocks-many tiny rows — how large-scale linear-model training
    actually distributes (parameter broadcast + gradient all-reduce).

    Deterministic up to float summation order across blocks (the
    kmeans discipline); the pytest oracle runs single-process GD and
    compares with tolerance, plus an AUC floor proving the model
    learned. Output: per-doc (doc_id, label, score_micro) under the
    final weights."""
    def read():
        return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id", "text"])

    d = 5
    w = np.zeros(d)
    for _ in range(n_iters):
        w_ref = ray.put(w.copy())

        def grad_partial(b: pa.Table, _ref=w_ref) -> pa.Table:
            wv = ray.get(_ref)
            x, y = _lr_features(b)
            p = 1.0 / (1.0 + np.exp(-(x @ wv)))
            g = x.T @ (p - y)
            return pa.table({"g": [g.tolist()],
                             "n": np.array([len(y)], np.int64)})

        parts = []
        for t in read().map_batches(grad_partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            gs = t["g"].to_pylist()      # iter_batches may coalesce
            ns = t["n"].to_pylist()      # blocks: take EVERY row
            parts.extend((np.asarray(g), int(nn))
                         for g, nn in zip(gs, ns))
        # deterministic fold: sort partials by their bytes
        parts.sort(key=lambda p: (p[0].tobytes(), p[1]))
        grad = np.sum([p[0] for p in parts], axis=0)
        n_total = sum(p[1] for p in parts)
        w = w - step * grad / max(n_total, 1)

    w_ref = ray.put(w)

    def score(b: pa.Table, _ref=w_ref) -> pa.Table:
        wv = ray.get(_ref)
        x, y = _lr_features(b)
        p = 1.0 / (1.0 + np.exp(-(x @ wv)))
        import pyarrow.compute as pc
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "label": y.astype(np.int64),
            "score_micro": np.floor(p * 1e6).astype(np.int64)})

    return read().map_batches(score, batch_format="pyarrow")


def nb_lang_classify(sf_dir: str) -> ray.data.Dataset:
    """Multinomial naive-Bayes language classifier, trained AND
    applied distributed with an EXACT DuckDB twin — the end-to-end
    "train a model on the corpus, score the corpus" loop of a
    curation pipeline, with zero float ambiguity:

    train pass: per-batch (lang, token) term counts collapse through
    Arrow hash aggregates; the merged count table is VOCABULARY x
    CLASSES sized (bounded by the token vocabulary — broadcastable by
    definition, the vocab_topk contract), so it folds on the driver
    into Laplace-smoothed log-probabilities quantized to INT64
    micro-nats: lq(tok, lang) = floor(ln((c+1)/(n_lang+V)) * 1e6),
    prior pq(lang) = floor(ln(d_lang/D) * 1e6).

    apply pass: the quantized model broadcasts via ray.put; each batch
    tokenizes, maps tokens to vocab rows (searchsorted), and scores
    every class with INTEGER sums score = pq + sum(tf * lq) — exact,
    order-free, and identical to the twin's HUGEINT arithmetic.
    argmax per doc, ties broken lang ASC like the twin's row_number.

    Output: doc_id, pred_lang, lang (actual), is_correct (0/1)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq_mod

    from .text import NON_TOKEN_RE

    def count_partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b["text"], NON_TOKEN_RE)
        flat = pc.list_flatten(toks)
        lang = pc.take(b["lang"], pc.list_parent_indices(toks))
        t = pa.table({"lang": lang, "token": flat})
        t = t.filter(pc.not_equal(t["token"], ""))
        g = pa.TableGroupBy(t, ["lang", "token"]).aggregate(
            [("token", "count")])
        return g.rename_columns(["lang", "token", "c"])

    def count_merge(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, ["lang", "token"]).aggregate([("c", "sum")])
        return g.rename_columns(["lang", "token", "c"])

    # vocabulary x classes — bounded, driver fold is scale-safe
    counts = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]) \
        .map_batches(count_partial, batch_format="pyarrow") \
        .repartition(1).map_batches(count_merge, batch_format="pyarrow") \
        .to_pandas()

    langs = np.sort(counts["lang"].unique())
    vocab = np.sort(counts["token"].unique())
    L, V = len(langs), len(vocab)
    c = np.zeros((V, L), np.int64)
    li = np.searchsorted(langs, counts["lang"].to_numpy())
    vi = np.searchsorted(vocab, counts["token"].to_numpy())
    c[vi, li] = counts["c"].to_numpy()
    n_l = c.sum(axis=0)
    # INT64 micro-nat quantized log-probs (pure floor on both sides)
    lq = np.floor(np.log((c + 1.0) / (n_l + V)) * 1e6).astype(np.int64)

    docs_meta = pq_mod.read_table(f"{sf_dir}/documents.parquet",
                                  columns=["lang"])
    lang_all = np.asarray(docs_meta["lang"])
    d_l = np.array([(lang_all == g).sum() for g in langs], np.int64)
    D = int(len(lang_all))
    pq_prior = np.floor(np.log(d_l.astype(np.float64) / D) * 1e6) \
        .astype(np.int64)

    model_ref = ray.put((langs, vocab, lq, pq_prior))

    def apply_batch(b: pa.Table) -> pa.Table:
        langs_m, vocab_m, lq_m, pq_m = _cached_ref(model_ref)
        toks = pc.split_pattern_regex(b["text"], NON_TOKEN_RE)
        flat = pc.list_flatten(toks)
        row = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        tok_np = np.asarray(flat)
        keep = tok_np != ""
        tok_np, row = tok_np[keep], row[keep]
        vi_a = np.searchsorted(vocab_m, tok_np)
        # OOV mask: train and apply read the same corpus today, but an
        # unseen token must not index out of bounds (or hit a wrong row)
        # if the op is reused on new text — drop its contribution.
        clipped = np.minimum(vi_a, len(vocab_m) - 1)
        in_vocab = vocab_m[clipped] == tok_np
        vi_a, row = clipped[in_vocab], row[in_vocab]
        n_docs = b.num_rows
        scores = np.tile(pq_m, (n_docs, 1))  # (docs, L) int64
        contrib = lq_m[vi_a]                 # (tokens, L) int64
        for col in range(len(langs_m)):      # bounded: one per class
            np.add.at(scores[:, col], row, contrib[:, col])
        # argmax with lang-ASC tie-break: argmax picks the FIRST max
        # and langs_m is sorted ascending
        pred = np.argmax(scores, axis=1)
        actual = np.asarray(b["lang"])
        pred_lang = langs_m[pred]
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "pred_lang": pa.array(pred_lang.tolist(), pa.string()),
            "lang": b["lang"],
            "is_correct": pa.array((pred_lang == actual).astype(np.int64))})

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "text"]) \
        .map_batches(apply_batch, batch_format="pyarrow")


def kmeans_exact(sf_dir: str, k: int = 16, iters: int = 5) -> ray.data.Dataset:
    """PURE-INTEGER distributed k-means with an exact declarative twin
    — the r4 exact-twin program applied to Lloyd's algorithm:

    - vectors quantize ONCE to INT64 micro-units (floor(x * 1e6));
      every subsequent distance, comparison and centroid update is
      integer arithmetic, so there is NO float anywhere an ordering
      decision is made;
    - assignment: argmin_c of ||x - c||^2 computed via the integer
      expansion -2*x.c + ||c||^2 (the ||x||^2 term is constant per
      vector and cannot change the argmin); ties break on the SMALLER
      surviving cluster id, matching the twin's row_number;
    - update: new centroid dim = floor(sum(xq) / count) with the
      division done in float64 (sums stay far below 2^53) — spelled
      identically in the twin; clusters that lose every member DROP
      (the twin's missing GROUP BY rows), surviving ids keep their
      original labels;
    - iterations unroll in the twin as one assignment + one update
      CTE pair per step (oracles.kmeans_exact_sql).

    Distributed shape: vectors never leave their batches — each batch
    computes integer dot products against the ray.put centroid matrix
    and emits (k x d)-bounded partial sums + counts; the driver folds
    the bounded partials and re-broadcasts. Output: (vec_id, cluster)
    from a final assignment pass."""
    import pyarrow.compute as pc

    def _xq(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = np.stack(b["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        return ids, np.floor(mat * 1e6).astype(np.int64)

    src = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])

    # init: the k smallest vec_ids' quantized vectors (bounded take)
    import pyarrow.parquet as pq_mod
    all_ids = pq_mod.read_table(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id"])["vec_id"] \
        .to_numpy(zero_copy_only=False)
    init_ids = np.sort(all_ids)[:k]
    init_set = set(int(i) for i in init_ids)

    def pick_init(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        keep = np.isin(ids, init_ids)
        return b.filter(pa.array(keep))

    seed = src.map_batches(pick_init, batch_format="pyarrow").take_all()
    seed_rows = sorted(seed, key=lambda r: r["vec_id"])
    cq = np.stack([np.floor(np.asarray(r["embedding"], np.float64) * 1e6)
                   for r in seed_rows]).astype(np.int64)
    cluster_ids = np.arange(k, dtype=np.int64)

    def assign(xq: np.ndarray, cq_m: np.ndarray) -> np.ndarray:
        # integer argmin via -2 x.c + ||c||^2 (exact)
        dots = xq @ cq_m.T                      # (n, k') int64
        cnorm = np.einsum("ij,ij->i", cq_m, cq_m)  # (k',) int64
        scores = cnorm[None, :] - 2 * dots
        return np.argmin(scores, axis=1)        # first min = smallest id

    for _ in range(iters):
        state = ray.put((cluster_ids, cq))

        def partials(b: pa.Table, _ref=state) -> pa.Table:
            cids, cq_m = ray.get(_ref)
            ids, xq = _xq(b)
            a = assign(xq, cq_m)
            kk, d = cq_m.shape
            sums = np.zeros((kk, d), np.int64)
            np.add.at(sums, a, xq)
            cnt = np.bincount(a, minlength=kk).astype(np.int64)
            return pa.table({
                "cluster": cids,
                "cnt": cnt,
                "sums": pa.array(list(sums), pa.list_(pa.int64()))})

        folded: dict[int, tuple[np.ndarray, int]] = {}
        for t in src.map_batches(partials, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            cl = t["cluster"].to_numpy(zero_copy_only=False)
            cn = t["cnt"].to_numpy(zero_copy_only=False)
            sm = t["sums"].to_pylist()
            for c, n_c, s in zip(cl, cn, sm):
                prev = folded.get(int(c))
                arr = np.asarray(s, np.int64)
                folded[int(c)] = (arr if prev is None else prev[0] + arr,
                                  int(n_c) + (prev[1] if prev else 0))
        keep_ids, new_cq = [], []
        for c in cluster_ids:
            s, n_c = folded[int(c)]
            if n_c == 0:
                continue  # empty cluster drops (twin's missing rows)
            keep_ids.append(int(c))
            new_cq.append(np.floor(s.astype(np.float64) / n_c)
                          .astype(np.int64))
        cluster_ids = np.array(keep_ids, np.int64)
        cq = np.stack(new_cq)

    state = ray.put((cluster_ids, cq))

    def final_assign(b: pa.Table, _ref=state) -> pa.Table:
        cids, cq_m = ray.get(_ref)
        ids, xq = _xq(b)
        a = assign(xq, cq_m)
        return pa.table({"vec_id": pa.array(ids),
                         "cluster": pa.array(cids[a])})

    return src.map_batches(final_assign, batch_format="pyarrow")
