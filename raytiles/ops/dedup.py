"""Deduplication operators: exact (hash + keep-first), MinHash-LSH
band buckets + candidate pairs, SimHash, and n-gram Jaccard
verification — the dedup toolbox of a pretraining-data pipeline.

Scale shape (100 TB), per the repo's shuffle discipline (bounded
bucket keys, no driver materialization):

- exact dedup: per-batch partial dedup (one row per distinct hash per
  batch), then ONE 512-bucket exchange (``util.exchange``) on the
  hash with a vectorized within-bucket merge — never a groupby on the
  md5 itself (one group per distinct doc = per-group scheduling death
  at 10^12 keys);
- MinHash: whole-batch vectorized kernel — all shingles of a batch
  are hashed once (md5 of the deduped shingle set), permutations are
  xor'd in one (n_shingles, n_hashes) broadcast, signatures come from
  np.minimum.reduceat over per-doc segments;
- LSH candidate pairs: band rows exchange once on band_hash into
  bounded buckets; within a bucket the same-signature groups are
  paired by a vectorized self-merge (capped at MAX_BAND_GROUP docs per
  signature — pair output is inherently quadratic in a duplicate
  cluster's size, so enumeration is bounded; the truncated groups are
  SURFACED by minhash_band_overflow, and the SQL oracle mirrors the
  cap so both stay exact twins); pair-distinct is a second
  bounded exchange on doc_a with a vectorized drop_duplicates, not a
  per-pair map_groups;
- Jaccard verify: DISTRIBUTED equi-joins on the bounded bucket
  exchange (util.join) of candidate pairs against per-doc shingle-hash
  sets — no .to_pandas() of either side onto the driver, no per-pair
  Python loop over driver state. Intersections are numpy set ops on
  sorted uint64 arrays per joined row.

Hashing is md5-derived everywhere (first 16 hex chars as uint64) so
the DuckDB oracle can reproduce it exactly:
    h(s)      = ('0x' || substr(md5(s), 1, 16))::UBIGINT
    h_i(s)    = xor(h(s), SEED_CONSTS[i])   # per-permutation variant
"""

from __future__ import annotations

import binascii
import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..util import (cogroup, exchange, join, run_rank, run_starts,
                    sum_by_key)
from .text import TOKEN_RE

# fixed xor constants deriving the i-th minhash permutation from one md5
# (seeded rng, frozen at build time — reproduced literally in oracle SQL)
SEED_CONSTS = np.random.default_rng(1234).integers(
    0, 2 ** 63, size=8, dtype=np.uint64).tolist()
N_HASHES = 8
N_BANDS = 4  # rows per band = 2
SHINGLE_W = 3

N_DEDUP_BUCKETS = 512
N_PAIR_BUCKETS = 512
MAX_BAND_GROUP = 1024  # pair-enumeration cap per (band_id, band_hash)


def _md5_u64(strings) -> np.ndarray:
    """uint64 of the first 8 md5 bytes — int(hexdigest[:16], 16)
    without the hex-string round trip."""
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(s.encode("utf-8")).digest()[:8], "big")
         for s in strings),
        dtype=np.uint64, count=len(strings))


def _docs(sf_dir: str, columns) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(sf_dir: str, normalize: bool = False) -> ray.data.Dataset:
    """One surviving row per distinct text: (h, doc_id=min, n_dups).

    With ``normalize=True`` the content key is taken over the
    case-folded, whitespace-collapsed, trimmed text (the standard
    near-exact dedup key — catches reflowed/re-cased copies exact md5
    misses); the normalization is three vectorized Arrow kernels, so
    the zero-copy md5-over-buffer path below is unchanged.

    Two-phase: the per-batch partial collapses duplicates within the
    batch (shuffle moves one 32-byte hex + 24 bytes per DISTINCT doc
    per batch, never the text), then one bounded 512-bucket exchange
    on the hash merges with a vectorized pandas groupby — no per-hash Python
    calls, no unbounded-key shuffle."""
    def partial(b: pa.Table) -> pa.Table:
        # md5 over each row's UTF-8 slice of the Arrow values buffer —
        # no Python str materializes, no .encode() copy (the md5 loop
        # itself is inherent; this keeps its input zero-copy)
        col = b["text"].combine_chunks()
        if normalize:
            # kernels on a plain Array return a plain Array (offset 0)
            col = pc.utf8_trim_whitespace(pc.replace_substring_regex(
                pc.utf8_lower(col), r"\s+", " "))
        if pa.types.is_large_string(col.type):
            offs = np.frombuffer(col.buffers()[1], dtype=np.int64)
        else:
            if not pa.types.is_string(col.type):
                col = col.cast(pa.string())
            offs = np.frombuffer(col.buffers()[1], dtype=np.int32)
        offs = offs[col.offset:col.offset + len(col) + 1]
        mv = memoryview(col.buffers()[2])
        md5 = hashlib.md5
        digests = [md5(mv[offs[i]:offs[i + 1]]).digest()
                   for i in range(len(col))]
        hs = np.array([d.hex() for d in digests], dtype=object)
        doc_ids = b["doc_id"].to_numpy().astype(np.int64)
        uniq, first, inv = np.unique(hs, return_index=True, return_inverse=True)
        doc_min = np.full(uniq.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(doc_min, inv, doc_ids)
        n = np.bincount(inv, minlength=uniq.size).astype(np.int64)
        hk = np.fromiter(
            (int.from_bytes(digests[i][:8], "big") for i in first),
            np.uint64, count=uniq.size)
        return pa.table({"h": pa.array(uniq, pa.string()),
                         "doc_id": doc_min, "n": n,
                         "hk": hk.view(np.int64)})

    def merge_bucket(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g.select(["h", "doc_id", "n"]), "h").aggregate(
            [("doc_id", "min"), ("n", "sum")])
        return out.rename_columns(["h", "doc_id", "n_dups"])

    return exchange(_docs(sf_dir, ["doc_id", "text"])
                    .map_batches(partial, batch_format="pyarrow"),
                    "hk", merge_bucket, N_DEDUP_BUCKETS)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_TOK_RE = re.compile(TOKEN_RE)


def _shingles(text: str) -> list[str]:
    toks = _TOK_RE.findall(text)
    if len(toks) < SHINGLE_W:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i:i + SHINGLE_W]) for i in range(len(toks) - SHINGLE_W + 1)]


class MinHasher:
    """doc -> N_BANDS rows (doc_id, band_id, band_hash), whole-batch
    vectorized: one md5 per DISTINCT shingle in the batch (np.unique
    dedups repeated shingles before hashing), permutations via one
    (n_shingles, n_hashes) xor broadcast, per-doc signature mins via
    np.minimum.reduceat over segment starts. The only per-doc Python
    work left is tokenization and one md5 call per band over a
    precomputed hex slice (the hex itself is one batch hexlify)."""

    def __init__(self) -> None:
        self.consts = np.array(SEED_CONSTS, dtype=np.uint64)

    def __call__(self, b: pa.Table) -> pa.Table:
        doc_ids = b["doc_id"].to_numpy()
        sh_lists = [_shingles(t) for t in b["text"].to_pylist()]
        counts = np.array([len(s) for s in sh_lists], dtype=np.int64)
        keep = counts > 0
        if not keep.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "band_id": pa.array([], pa.int64()),
                             "band_hash": pa.array([], pa.int64())})
        flat = np.array([s for lst in sh_lists for s in lst], dtype=object)
        uniq, inv = np.unique(flat, return_inverse=True)
        base = _md5_u64(uniq)[inv]  # (total_shingles,)
        sig_all = np.bitwise_xor(base[:, None], self.consts[None, :])
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1][keep]
        sigs = np.minimum.reduceat(sig_all, starts, axis=0)  # (n_docs, 8)
        rpb = N_HASHES // N_BANDS
        kept_ids = doc_ids[keep].astype(np.int64)
        n = kept_ids.size
        md5 = hashlib.md5
        out_hash = np.empty(n * N_BANDS, dtype=np.uint64)
        # band key = md5 over the band's signature words as fixed-width
        # lowercase hex (ONE hexlify for the whole batch — no per-row
        # int->str->join; SQL twin: md5(lower(lpad(to_hex(m),16,'0'))||…)
        w = 16 * rpb  # hex chars per band row
        for band in range(N_BANDS):
            part = np.ascontiguousarray(
                sigs[:, band * rpb:(band + 1) * rpb]).astype(">u8")
            hx = binascii.hexlify(part.tobytes())
            out_hash[band * n:(band + 1) * n] = np.fromiter(
                (int.from_bytes(md5(hx[i * w:(i + 1) * w]).digest()[:8], "big")
                 for i in range(n)),
                dtype=np.uint64, count=n)
        return pa.table({
            "doc_id": pa.array(np.tile(kept_ids, N_BANDS), pa.int64()),
            "band_id": pa.array(np.repeat(np.arange(N_BANDS, dtype=np.int64), n)),
            "band_hash": pa.array(out_hash.astype(np.int64), pa.int64())})


_MINHASHER = MinHasher()  # per-process singleton: state is one 8-const array


def minhash_bands(sf_dir: str) -> ray.data.Dataset:
    # task-based: an actor pool costs ~2s spin-up per execution on
    # this cluster (measured round 1) while MinHasher carries no heavy
    # per-actor state — the module-level instance is reused per worker
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _MINHASHER, batch_format="pyarrow")


def minhash_pairs(sf_dir: str) -> ray.data.Dataset:
    """Distinct candidate near-dup pairs (doc_a < doc_b) sharing any
    LSH band bucket. Shuffle discipline: band rows exchange on
    band_hash into N_PAIR_BUCKETS buckets; same-signature groups pair
    via a vectorized self-merge (capped at MAX_BAND_GROUP docs per
    signature); cross-band pair-distinct is a second bounded exchange
    on doc_a with drop_duplicates — never a per-pair map_groups."""

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        band = g["band_id"].to_numpy()
        bh = g["band_hash"].to_numpy()
        doc = g["doc_id"].to_numpy()
        # doc ascending within each (band, hash) signature group
        order = np.lexsort((doc, bh, band))
        band, bh, doc = band[order], bh[order], doc[order]
        n = len(doc)
        new = run_starts(band, bh)
        sizes = np.diff(np.append(np.flatnonzero(new), n))
        # cap each signature group at its MAX_BAND_GROUP smallest docs
        offs = run_rank(new)
        keep = offs < MAX_BAND_GROUP
        doc, offs = doc[keep], offs[keep]
        sizes = np.minimum(sizes, MAX_BAND_GROUP)
        # all a<b pairs per group, fully vectorized: element at offset
        # o pairs with the (size-1-o) elements after it
        reps = np.repeat(sizes, sizes) - 1 - offs
        a_idx = np.repeat(np.arange(len(doc)), reps)
        if len(a_idx) == 0:  # every group a singleton
            return distinct(a_idx, a_idx)
        run_pos = np.arange(len(a_idx)) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)[:-1])), reps)
        b_idx = a_idx + 1 + run_pos
        # pair-distinct within the bucket (same pair can arise from
        # several signatures), then again across buckets: exact
        return distinct(doc[a_idx], doc[b_idx])

    def distinct(doc_a: np.ndarray, doc_b: np.ndarray) -> pa.Table:
        po = np.lexsort((doc_b, doc_a))
        doc_a, doc_b = doc_a[po], doc_b[po]
        pf = run_starts(doc_a, doc_b)
        return pa.table({"doc_a": pa.array(doc_a[pf].astype(np.int64)),
                         "doc_b": pa.array(doc_b[pf].astype(np.int64))})

    def distinct_bucket(g: pa.Table) -> pa.Table:
        return distinct(g["doc_a"].to_numpy(), g["doc_b"].to_numpy())

    pairs = exchange(minhash_bands(sf_dir), "band_hash", pairs_in_bucket,
                     N_PAIR_BUCKETS)
    return exchange(pairs, "doc_a", distinct_bucket, N_PAIR_BUCKETS)


_PAIRS_CACHE: dict[str, "ray.data.Dataset"] = {}


def candidate_pairs(sf_dir: str) -> ray.data.Dataset:
    """``minhash_pairs`` materialized ONCE per process per sf_dir (one
    cache slot — stale entries are dropped so their blocks unpin).
    The pair set is the LSH-filtered small side (16 B/row), so pinning
    it in the object store is cheap, and every consumer in the same
    session (the minhash_pairs gate query, jaccard verification) costs
    one execution of the minhash chain instead of one each."""
    if sf_dir not in _PAIRS_CACHE:
        _PAIRS_CACHE.clear()
        _PAIRS_CACHE[sf_dir] = minhash_pairs(sf_dir).materialize()
    return _PAIRS_CACHE[sf_dir]


def minhash_band_overflow(sf_dir: str) -> ray.data.Dataset:
    """No-silent-caps stats: band groups larger than MAX_BAND_GROUP —
    the groups whose pair enumeration minhash_pairs truncates — with
    the doc count and how many docs were truncated. Shuffle shape:
    per-batch partial counts per (band_id, band_hash) collapse first,
    then ONE bounded exchange on band_hash sums and filters (the same
    exchange as minhash_pairs, so a group's rows meet exactly once).
    SQL twin: oracles.minhash_overflow_sql."""
    bands = minhash_bands(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        part = pa.TableGroupBy(b.select(["band_id", "band_hash"]),
                               ["band_id", "band_hash"]).aggregate(
            [([], "count_all")])
        part = part.rename_columns(["band_id", "band_hash", "n"])
        return part.set_column(2, "n", pc.cast(part["n"], pa.int64()))

    def merge(g: pa.Table) -> pa.Table:
        band = g["band_id"].to_numpy()
        bh = g["band_hash"].to_numpy()
        nn = g["n"].to_numpy()
        order = np.lexsort((bh, band))
        band, bh, nn = band[order], bh[order], nn[order]
        starts = np.flatnonzero(run_starts(band, bh))
        tot = np.add.reduceat(nn, starts)
        band, bh = band[starts], bh[starts]
        keep = tot > MAX_BAND_GROUP
        return pa.table({
            "band_id": pa.array(band[keep].astype(np.int64)),
            "band_hash": pa.array(bh[keep].astype(np.int64)),
            "n_docs": pa.array(tot[keep].astype(np.int64)),
            "n_truncated": pa.array(
                (tot[keep] - MAX_BAND_GROUP).astype(np.int64))})

    return exchange(bands.map_batches(partial, batch_format="pyarrow"),
                    "band_hash", merge, N_PAIR_BUCKETS)


# ---------------------------------------------------------------------------
# n-gram Jaccard verification of candidate pairs
# ---------------------------------------------------------------------------

def _shingle_sets(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, sh: sorted distinct uint64 shingle hashes packed as a
    binary blob, n_sh) per doc with >=1 shingle — the join side of
    Jaccard verification. The set travels as raw little-endian uint64
    bytes because Acero's hash join rejects list payload columns;
    np.frombuffer recovers it zero-copy on the other side."""
    def fn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        shs = [np.unique(_md5_u64(_shingles(t))) for t in b["text"].to_pylist()]
        sizes = np.array([s.size for s in shs], dtype=np.int64)
        keep = sizes > 0
        return pa.table({
            "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
            "sh": pa.array([s.tobytes() for s in shs if s.size], pa.binary()),
            "n_sh": pa.array(sizes[keep], pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")


def jaccard_verify(sf_dir: str, threshold: float = 0.7) -> ray.data.Dataset:
    """MinHash candidates -> exact shingle-set Jaccard, fully
    distributed: two equi-joins on the bounded bucket exchange
    (util.join) attach each side's shingle-hash set to the pair row,
    then a map_batches computes |A∩B| via np.intersect1d on the sorted
    uint64 arrays. The shingle sets are computed once and materialized
    for both joins. No driver materialization anywhere — at 100 TB
    with real duplication the candidate set is NOT small."""
    pairs = candidate_pairs(sf_dir)
    sets = _shingle_sets(sf_dir).materialize()
    j = join(pairs, sets, "doc_a", "doc_id", "inner", N_PAIR_BUCKETS)

    def rename_a(t: pa.Table) -> pa.Table:
        # the join drops the right key column; retag the set columns
        # so the second join's can keep their plain names
        names = {"sh": "sh_a", "n_sh": "n_a"}
        return t.rename_columns([names.get(c, c) for c in t.column_names])

    j = j.map_batches(rename_a, batch_format="pyarrow")
    j = join(j, sets, "doc_b", "doc_id", "inner", N_PAIR_BUCKETS)

    def verify(t: pa.Table) -> pa.Table:
        sh_a, sh_b = t["sh_a"].to_pylist(), t["sh"].to_pylist()
        n_a = t["n_a"].to_numpy()
        n_b = t["n_sh"].to_numpy()
        out_a, out_b, out_j = [], [], []
        for i in range(t.num_rows):
            a = np.frombuffer(sh_a[i], dtype=np.uint64)
            bb = np.frombuffer(sh_b[i], dtype=np.uint64)
            inter = np.intersect1d(a, bb, assume_unique=True).size
            jac = inter / (n_a[i] + n_b[i] - inter)
            if jac >= threshold:
                out_a.append(t["doc_a"][i].as_py())
                out_b.append(t["doc_b"][i].as_py())
                # floor-quantize: bit-identical to the SQL oracle's floor()
                out_j.append(np.floor(jac * 1e6) / 1e6)
        return pa.table({
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        })

    return j.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash(sf_dir: str) -> ray.data.Dataset:
    """64-bit SimHash over token md5 hashes, emitted as two int32-range
    halves (simhash_hi, simhash_lo) to stay BIGINT-safe for the SQL
    oracle. Bit b set iff 2*count_ones(b) >= n_tokens.

    Whole-batch vectorized like MinHasher: one md5 per DISTINCT token
    in the batch, one (total_tokens, 64) bit unpack, per-doc bit
    histograms via np.add.reduceat over token segments — the only
    per-doc Python left is tokenization."""
    powers = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    shifts = np.arange(64, dtype=np.uint64)

    def fn(b: pa.Table) -> pa.Table:
        n = b.num_rows
        hi = np.zeros(n, dtype=np.int64)
        lo = np.zeros(n, dtype=np.int64)
        tok_lists = [_TOK_RE.findall(t) for t in b["text"].to_pylist()]
        counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
        keep = counts > 0
        if keep.any():
            flat = np.array([t for lst in tok_lists for t in lst], dtype=object)
            uniq, inv = np.unique(flat, return_inverse=True)
            h = _md5_u64(uniq)[inv]
            bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
            starts = np.concatenate([[0], np.cumsum(counts)])[:-1][keep]
            ones = np.add.reduceat(bits, starts, axis=0)  # (n_kept, 64)
            vote = (2 * ones >= counts[keep, None]).astype(np.uint64)
            words = (vote * powers[None, :]).sum(axis=1, dtype=np.uint64)
            hi[keep] = (words >> np.uint64(32)).astype(np.int64)
            lo[keep] = (words & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                         "simhash_hi": pa.array(hi), "simhash_lo": pa.array(lo)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# cluster resolution (connected components) + survivor selection
# ---------------------------------------------------------------------------

_CLUSTERS_CACHE: dict[str, "ray.data.Dataset"] = {}


def dup_clusters(sf_dir: str, max_rounds: int = 16) -> ray.data.Dataset:
    """Connected components over the candidate-pair graph:
    (doc_id, cluster_id) for every doc in >=1 pair, cluster_id = min
    doc_id of its component — the cluster-resolution step between
    pair generation and survivor selection that a dedup pipeline
    needs (pairs alone don't say WHICH copy survives a triangle
    a-b, b-c).

    Cached per process per sf_dir like candidate_pairs (one slot):
    the result is one 16-byte row per dup doc, and both the gate
    query and dedup_survivors consume it — one propagation loop
    instead of one each.

    Distributed min-label propagation (no Dataset primitive exists):
    labels start as identity; each round ships labels onto the
    bidirectional edge set with one bucket-exchange join (util.join),
    then a bounded exchange on doc_id takes each node's min over (own
    label, neighbours' labels). Labels only ever DECREASE, so sum(label) is
    a monotone convergence metric checked driver-side per round
    (one scalar — never the labels themselves). Rounds needed =
    component diameter; LSH components are near-cliques, so 2-3.
    Non-convergence within max_rounds raises — never a silent
    truncation. At 10^12 docs every step stays bounded: edges and
    labels are O(dup docs), and the join and the exchange both run on
    512 hash buckets."""
    if sf_dir in _CLUSTERS_CACHE:
        return _CLUSTERS_CACHE[sf_dir]
    pairs = candidate_pairs(sf_dir)

    def to_edges(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy().astype(np.int64)
        b = t["doc_b"].to_numpy().astype(np.int64)
        return pa.table({"src": np.concatenate([a, b]),
                         "dst": np.concatenate([b, a])})

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    EMPTY = pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64())])
    if edges.count() == 0:
        return ray.data.from_arrow(EMPTY.empty_table())

    def node_partial(t: pa.Table) -> pa.Table:
        u = np.unique(t["src"].to_numpy()).astype(np.int64)
        return pa.table({"doc_id": u, "label": u})

    def label_merge(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy()
        lab = g["label"].to_numpy()
        uniq, inv = np.unique(ids, return_inverse=True)
        lab_min = np.full(uniq.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(lab_min, inv, lab)
        return pa.table({"doc_id": uniq.astype(np.int64), "label": lab_min})

    labels = exchange(edges.map_batches(node_partial, batch_format="pyarrow"),
                      "doc_id", label_merge, N_DEDUP_BUCKETS).materialize()
    prev_sum = labels.sum("label")

    for _ in range(max_rounds):
        j = join(edges, labels, "src", "doc_id", "inner", N_DEDUP_BUCKETS)

        def msg(t: pa.Table) -> pa.Table:
            return pa.table({"doc_id": t["dst"], "label": t["label"]})

        cand = labels.map_batches(
            lambda t: t.select(["doc_id", "label"]), batch_format="pyarrow") \
            .union(j.map_batches(msg, batch_format="pyarrow"))
        labels = exchange(cand, "doc_id", label_merge,
                          N_DEDUP_BUCKETS).materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"dup_clusters: labels still changing after {max_rounds} rounds "
            f"(component diameter exceeds the bound) — raise max_rounds")

    def finalize(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id", "cluster_id"])

    out = labels.map_batches(finalize, batch_format="pyarrow").materialize()
    _CLUSTERS_CACHE.clear()
    _CLUSTERS_CACHE[sf_dir] = out
    return out


def dedup_survivors(sf_dir: str) -> ray.data.Dataset:
    """doc_ids that survive near-dup collapse: every doc except the
    non-minimum members of each dup_clusters component. An anti-join
    of all docs against the cluster losers on one bounded ``cogroup``
    on doc_id — no driver-side set."""
    def doc_ids(t: pa.Table) -> pa.Table:
        # a new table: the parquet read's pandas schema metadata would
        # make the co-group's block merge log "Failed to hash"
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64())})

    def losers(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t["doc_id"], t["cluster_id"])) \
            .select(["doc_id"])

    def survivors(docs: pa.Table, lost: pa.Table) -> pa.Table:
        ids = np.unique(docs["doc_id"].to_numpy())
        return pa.table(
            {"doc_id": ids[~np.isin(ids, lost["doc_id"].to_numpy())]})

    return cogroup(
        _docs(sf_dir, ["doc_id"]).map_batches(doc_ids,
                                              batch_format="pyarrow"),
        dup_clusters(sf_dir).map_batches(losers, batch_format="pyarrow"),
        "doc_id", "doc_id", survivors, N_DEDUP_BUCKETS)


# ---------------------------------------------------------------------------
# substring-level duplication: duplicated n-gram span rate
# ---------------------------------------------------------------------------

def dup_spans(sf_dir: str) -> ray.data.Dataset:
    """Per-document duplicated-shingle rate — the substring-granularity
    dedup signal (the fraction of a doc's distinct SHINGLE_W-token
    windows that also occur in at least one OTHER document). Exact-dup
    docs score 1e6 ppm against each other; partially copied docs score
    in proportion to the copied span.

    Fully bounded: per-batch partials emit one row per DISTINCT
    (doc, shingle-hash) — the text never shuffles — then TWO chained
    512-bucket exchanges (``util.exchange``): (1) on h: within a
    bucket every occurrence of a hash is present (hash-partitioned), so
    "appears in >= 2 docs" is a vectorized per-group transform,
    collapsed to per-doc partial counts before leaving the bucket; (2)
    on doc_id: merges each doc's per-bucket partials into its final
    counts. Shuffle payload: 24 B per distinct (doc, shingle)
    for phase 1, 32 B per (doc, bucket) for phase 2."""
    def partial(b: pa.Table) -> pa.Table:
        doc_ids = b["doc_id"].to_numpy().astype(np.int64)
        sh_lists = [_shingles(t) for t in b["text"].to_pylist()]
        counts = np.array([len(s) for s in sh_lists], dtype=np.int64)
        if counts.sum() == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "h": pa.array([], pa.int64())})
        flat = np.array([s for lst in sh_lists for s in lst], dtype=object)
        uniq, inv = np.unique(flat, return_inverse=True)
        h = _md5_u64(uniq)[inv]
        didx = np.repeat(np.arange(doc_ids.size), counts)
        # distinct (doc, h): docs are whole rows of this batch, so
        # in-batch distinct IS global distinct
        order = np.lexsort((h, didx))
        ds_, hs_ = didx[order], h[order]
        first = run_starts(ds_, hs_)
        return pa.table({"doc_id": pa.array(doc_ids[ds_[first]]),
                         "h": pa.array(hs_[first].view(np.int64))})

    def count_bucket(g: pa.Table) -> pa.Table:
        # rows are distinct (doc, h); per-h row count == distinct-doc
        # count. Collapse to per-doc (n_sh, n_dup) partials.
        h = g["h"].to_numpy()
        doc = g["doc_id"].to_numpy()
        ho = np.argsort(h, kind="stable")
        hs = h[ho]
        starts = np.flatnonzero(run_starts(hs))
        sizes = np.diff(np.append(starts, len(hs)))
        n_docs = np.empty(len(hs), np.int64)
        n_docs[ho] = np.repeat(sizes, sizes)
        dup = (n_docs >= 2).astype(np.int64)
        k, n_dup = sum_by_key(doc, dup)
        _, n_sh = np.unique(doc[np.argsort(doc, kind="stable")],
                            return_counts=True)
        return pa.table({
            "doc_id": pa.array(k.astype(np.int64)),
            "n_sh": pa.array(n_sh.astype(np.int64)),
            "n_dup": pa.array(n_dup.astype(np.int64))})

    def merge_doc(g: pa.Table) -> pa.Table:
        doc = g["doc_id"].to_numpy()
        k, n_sh, n_dup = sum_by_key(doc, g["n_sh"].to_numpy(),
                                     g["n_dup"].to_numpy())
        n_sh = n_sh.astype(np.int64)
        n_dup = n_dup.astype(np.int64)
        return pa.table({
            "doc_id": pa.array(k.astype(np.int64)),
            "n_shingles": pa.array(n_sh), "n_dup": pa.array(n_dup),
            "dup_ppm": pa.array(n_dup * 1_000_000 // n_sh)})

    parts = _docs(sf_dir, ["doc_id", "text"]) \
        .map_batches(partial, batch_format="pyarrow")
    return exchange(exchange(parts, "h", count_bucket, N_DEDUP_BUCKETS),
                    "doc_id", merge_doc, N_DEDUP_BUCKETS)
