"""Shared integer-mix helpers for bounded-bucket shuffle keys.

The repo's shuffle discipline (CLAUDE.md): never groupby a
high-cardinality key — group by a splitmix-mixed hash bucket with a
bounded domain and vectorize within the group. This module is the one
place that mixing lives so every operator derives buckets the same way
(never Python hash(), which is salted per process), and the one place
that sizes layouts: ``layout`` for read blocks and reducers,
``derive_buckets`` for every op's bucket count. ``exchange`` is the
one way to write a one-input hash-bucket exchange, ``run_starts``
the one way to write a run scan over sorted keys and ``run_rank`` a
row's position in its run; ``cogroup`` and
``join`` are the one path every two-input equi-join takes.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (public domain constant set) — avalanche a
    uint64 key array; vectorized, wrap-around arithmetic."""
    x = np.asarray(x).astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def bucket_of(x, n_buckets: int) -> np.ndarray:
    """Bounded shuffle-bucket ids (int64 in [0, n_buckets)) for an
    integer key array."""
    return (splitmix64(x) % np.uint64(n_buckets)).astype(np.int64)


def input_bytes(path: str) -> int:
    """On-disk size of a table: the file's size, or the sum of the
    regular files directly inside a directory. Local filesystem only:
    a non-local path (s3://, gs://, ...) or a missing one sizes as 0,
    which every size-derived layout treats as unsized: derive_buckets
    takes its floor and ``layout`` its fixed 64-block layout."""
    if os.path.isdir(path):
        with os.scandir(path) as it:
            return sum(e.stat().st_size for e in it if e.is_file())
    if os.path.isfile(path):
        return os.path.getsize(path)
    return 0


TARGET_BLOCK_BYTES = 96 << 20  # input bytes per read block at scale
MIN_BLOCK_BYTES = 4 << 20      # input bytes per read block below 64 blocks
MAX_REDUCERS = 64  # <= stages.N_MERGE_BUCKETS: reducers get whole buckets


def layout(nbytes: int) -> tuple[int, int]:
    """(read blocks, reducers) for an input of ``nbytes`` on-disk
    bytes — a pure function of input size, never of the cluster, so
    the same dataset gets the same layout at every cluster size
    (cpu-scaled counts made the 4N leg pay 16x the shuffle objects of
    the N leg).

    - Large inputs (>= 64 x TARGET_BLOCK_BYTES): ~96 MiB of input per
      block, capped at 512 blocks — the layout the recorded scaling
      runs used. Beyond the cap, shard the job (the checkpointed
      tile_job runs shard-sized shuffles for exactly this reason).
    - Smaller inputs: one block per started MIN_BLOCK_BYTES, at most
      64. A fixed 64-block floor cut a 5 MB input into 64 x 64 tiny
      exchange objects whose per-block Ray cost dwarfed the kernels.
      In a sweep of 256 KiB..16 MiB on one core (CHANGES.md), 4 MiB
      was fastest on the 5.5 MB flagship input; 8 MiB was faster on
      the 10.7 MB tile job and 53 MB sf0.1, but halves the blocks a
      many-core host can run at once, which one core cannot measure.
    - Unsized inputs (``nbytes == 0``: a non-local or missing path,
      see ``input_bytes``) keep the fixed (64, 64) layout, so an
      s3:// corpus never runs as one task.

    Reducers are ``min(64, read_blocks)``: the sort exchange costs
    ~M x R object transfers (measured at 5.4M docs, 16 cpus: 32
    blocks -> 0.49 s shuffle, 64 -> 1.33 s, 128 -> 3.73 s), and no
    input needs more reducers than it has blocks."""
    if nbytes <= 0:
        return MAX_REDUCERS, MAX_REDUCERS
    if nbytes >= 64 * TARGET_BLOCK_BYTES:
        blocks = min(512, nbytes // TARGET_BLOCK_BYTES)
    else:
        blocks = min(64, -(-nbytes // MIN_BLOCK_BYTES))
    return blocks, min(MAX_REDUCERS, blocks)


BUCKET_TARGET_BYTES = 32 << 20  # input bytes per exchange bucket
MAX_BUCKETS = 1 << 20          # bound on a derived bucket count


def derive_buckets(path: str, floor: int) -> int:
    """Hash-bucket count of a bounded-bucket exchange over the table
    at ``path``: the one place every bucketed op gets its count (ops
    take no bucket-count option; the few whose count never follows
    the input keep a module constant instead).

    - One bucket per ``BUCKET_TARGET_BYTES`` of on-disk input
      (``input_bytes``; ~3x that in heap once decoded), so a bucket's
      group block stays bounded as the input grows: a fixed count of
      256 over 10^12 rows would put ~4B rows in one group block.
    - ``floor`` is the op's historical fixed count. Every tier up to
      sf0.1 sizes far below ``floor * BUCKET_TARGET_BYTES``, so there
      the count is the floor and RESULTS_SHA is unchanged. Unsized
      inputs (non-local or missing paths size as 0) take the floor.
    - ``MAX_BUCKETS`` bounds the group-key domain: groups are cheap
      (the sort exchange's cost rides block counts, not key
      cardinality), but a runaway domain adds per-group dispatch.
    - A function of data size, never of the cluster: the same dataset
      gets the same layout at N and 4N nodes.

    ``RAYTILES_FORCE_BUCKETS`` overrides the count for every op at
    once; tests use it to check that output does not depend on it."""
    forced = os.environ.get("RAYTILES_FORCE_BUCKETS")
    if forced:
        return int(forced)
    return int(min(MAX_BUCKETS,
                   max(floor, input_bytes(path) // BUCKET_TARGET_BYTES)))


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Run-boundary mask of rows sorted by ``keys``: True at row 0 and
    wherever any key differs from the previous row, an empty mask for
    empty input. ``np.flatnonzero`` of it gives the run starts,
    ``np.cumsum(mask) - 1`` each row's run id, and OR-ing another
    break into it (a gap test) splits the runs further."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new


def run_rank(mask: np.ndarray) -> np.ndarray:
    """0-based int64 position of each row within its run, given a
    ``run_starts`` mask: 0 at every run start, then 1, 2, ... up to the
    next one. ``run_rank(m) < k`` keeps each run's first k rows."""
    idx = np.arange(len(mask), dtype=np.int64)
    return idx - np.maximum.accumulate(np.where(mask, idx, 0))


def sum_by_key(key: np.ndarray, *vals: np.ndarray):
    """(unique sorted keys, per-key sums of each val array) via one
    argsort + add.reduceat — the shared Arrow-native bucket-merge
    kernel (sequential adds, bit-identical to pandas' group_add for
    ints and for floats in the same order)."""
    order = np.argsort(key, kind="stable")
    k = key[order]
    starts = np.flatnonzero(run_starts(k))
    return (k[starts],) + tuple(np.add.reduceat(v[order], starts)
                                for v in vals)


def exchange(ds, key: str, fn, n_buckets: int):
    """The one-input hash-bucket exchange: every row goes to bucket
    ``bucket_of(row[key], n_buckets)`` and ``fn(g) -> pa.Table`` runs
    once per bucket on all of that bucket's rows (the bucket column
    included), so a key's rows always meet in one call.

    - The bucket column is appended by its own
      ``map_batches(batch_format="pyarrow")`` with no ``batch_size``,
      which Ray fuses into the caller's map: a partial aggregate
      upstream sees the same batches it would without the tag.
    - The tag drops the schema metadata. Parquet tables carry pandas
      metadata, a dict, which makes ``pa.Schema`` unhashable; Ray's
      ``unify_schemas`` then logs ``Failed to hash the schemas`` in
      every sort reduce task.
    - The exchange itself is ``_by_bucket``, shared with ``cogroup``."""
    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket", pa.array(bucket_of(b[key].to_numpy(), n_buckets))) \
            .replace_schema_metadata(None)

    return _by_bucket(ds.map_batches(tag, batch_format="pyarrow"), fn)


def _by_bucket(ds, fn):
    """The exchange strategy, in one place: Ray's sort-based
    ``groupby("bucket").map_groups``, ``fn`` once per bucket."""
    return ds.groupby("bucket").map_groups(fn, batch_format="pyarrow")


def cogroup(left, right, left_key: str, right_key: str, fn,
            n_buckets: int):
    """Co-group two datasets on an integer equi-key: both sides are
    bucketed by ``bucket_of(key, n_buckets)`` and exchanged together
    by ONE ``_by_bucket`` exchange, which calls
    ``fn(l, r) -> pa.Table`` once per bucket with each side's rows in
    that bucket, as that side's own typed columns. Either side may
    have zero rows in a bucket.

    - The union that feeds the exchange needs one schema, or Ray warns
      and null-fills: each side's columns travel prefixed ("l:" /
      "r:") next to typed nulls for the other side's, plus an int8
      side tag. Each side is materialized first, so its schema comes
      from block metadata instead of a second run of its plan; the
      exchange is a barrier anyway.
    - Each side materializes in input order (``preserve_order``, set
      on that dataset's own context), so a bucket's rows reach ``fn``
      in the same order every run. A float merge inside ``fn``
      (per-order revenue partials) would otherwise follow task
      completion order, which moved a half-cent tie of
      ``order_revenue`` between a cold and a warm run.
    - Each side's blocks are then merged, rows in order, to the count
      ``layout`` gives its size. The sort exchange costs ~M x R
      objects for M input blocks, and exchange outputs fed back in
      (``dup_clusters``' label rounds) would otherwise add blocks
      every round: at sf0.1 that doubled ``dup_clusters``' time.
    - No aggregator actors, nothing sized to the cluster."""
    (left, ls), (right, rs) = _coalesced(left), _coalesced(right)
    union_schema = pa.schema(
        [pa.field("l:" + f.name, f.type) for f in ls]
        + [pa.field("r:" + f.name, f.type) for f in rs]
        + [pa.field("side", pa.int8()), pa.field("bucket", pa.int64())])

    def tagger(side: int, key: str):
        def tag(b: pa.Table) -> pa.Table:
            n = b.num_rows
            own = [b[f.name] for f in (ls, rs)[side]]
            nulls = [pa.nulls(n, f.type) for f in (ls, rs)[1 - side]]
            cols = own + nulls if side == 0 else nulls + own
            return pa.Table.from_arrays(
                cols + [pa.array(np.full(n, side, np.int8)),
                        pa.array(bucket_of(b[key].to_numpy(), n_buckets))],
                schema=union_schema)
        return tag

    def per_bucket(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g["side"], 0)
        lt = g.filter(is_left)
        rt = g.filter(pc.invert(is_left))
        return fn(
            pa.Table.from_arrays([lt["l:" + f.name] for f in ls], schema=ls),
            pa.Table.from_arrays([rt["r:" + f.name] for f in rs], schema=rs))

    return _by_bucket(
        left.map_batches(tagger(0, left_key), batch_format="pyarrow")
        .union(right.map_batches(tagger(1, right_key), batch_format="pyarrow")),
        per_bucket)


def _coalesced(ds):
    """(``ds`` materialized in input order and merged to as many blocks
    as ``layout`` gives its in-memory size, its Arrow schema). The
    schema comes from the first materialization: an empty side's
    merged block carries none. A dataset with no blocks at all has no
    schema either, and reaches ``cogroup``'s fn as zero columns."""
    ds.context.execution_options.preserve_order = True
    ds = ds.materialize()
    s = ds.schema()
    schema = s.base_schema if s is not None else pa.schema([])
    nbytes = ds.size_bytes()
    if nbytes:
        ds = ds.repartition(layout(nbytes)[0]).materialize()
    return ds, schema


def join(left, right, on: str, right_on: str, join_type: str,
         n_buckets: int):
    """Equi-join of two datasets on the bucket exchange: ``cogroup``
    with each bucket's rows joined by Arrow (``join_type`` is Arrow's
    verb: "inner", "left outer", "full outer", ...). The same Arrow
    call Ray's join operator makes per partition, so the rows are
    the ones ``Dataset.join`` gives, without its aggregator actors."""
    def fn(l, r):
        return l.join(r, keys=on, right_keys=right_on, join_type=join_type)

    return cogroup(left, right, on, right_on, fn, n_buckets)


def pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-sensitive uint64 key for an id pair (a, b)."""
    return (np.asarray(a).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + np.asarray(b).astype(np.uint64))


# ---------------------------------------------------------------------------
# CRC32C (Castagnoli, reflected poly 0x82F63B78) — the TFRecord
# framing checksum. No crc32c in the stdlib (zlib.crc32 is the
# IEEE/PNG polynomial), so this is a from-scratch numpy kernel.
# ---------------------------------------------------------------------------

_CRC32C_TABLE: "np.ndarray | None" = None


def _crc32c_table() -> np.ndarray:
    global _CRC32C_TABLE
    if _CRC32C_TABLE is None:
        t = np.arange(256, dtype=np.uint32)
        for _ in range(8):
            t = np.where(t & np.uint32(1),
                         np.uint32(0x82F63B78) ^ (t >> np.uint32(1)),
                         t >> np.uint32(1))
        _CRC32C_TABLE = t
    return _CRC32C_TABLE


def crc32c_batch(buf: np.ndarray, offsets: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """CRC32C of N variable-length byte slices of one uint8 buffer,
    computed in LOCKSTEP: the per-byte CRC recurrence is sequential in
    the byte POSITION, so the loop runs over positions and each step
    updates every record still longer than j as one vectorized table
    gather. Records are processed length-sorted so the active set is
    always a contiguous prefix — total work is sum(lengths) table
    lookups, all numpy, no per-byte Python loop (the fastdecode
    cursor-lockstep pattern applied to a checksum)."""
    table = _crc32c_table()
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(lengths)
    out = np.empty(n, np.uint32)
    if n == 0:
        return out
    order = np.argsort(-lengths, kind="stable")
    off = offsets[order]
    ln = lengths[order]
    neg_ln = -ln  # ascending, for the active-prefix searchsorted
    crc = np.full(n, 0xFFFFFFFF, np.uint32)
    for j in range(int(ln[0])):
        k = int(np.searchsorted(neg_ln, -(j + 1), side="right"))
        b = buf[off[:k] + j].astype(np.uint32)
        c = crc[:k]
        crc[:k] = table[(c ^ b) & np.uint32(0xFF)] ^ (c >> np.uint32(8))
    out[order] = crc ^ np.uint32(0xFFFFFFFF)
    return out


def crc32c_masked(crc: np.ndarray) -> np.ndarray:
    """TFRecord's masked CRC: rot-right-15 then += magic (mod 2^32)."""
    crc = np.asarray(crc, dtype=np.uint32)
    rot = (crc >> np.uint32(15)) | (crc << np.uint32(17))
    return (rot + np.uint32(0xA282EAD8)).astype(np.uint32)


_REF_CACHE: dict = {}


def cached_ref(ref):
    """ray.get(ref) once per worker process: broadcast state rides
    plain TASK functions without actor-pool CPU slots (which can
    starve hash-join aggregator actors on small clusters). Bounded: at
    most 4 cached refs per worker, cleared wholesale beyond that."""
    key = ref.hex()
    if key not in _REF_CACHE:
        if len(_REF_CACHE) >= 4:
            _REF_CACHE.clear()
        _REF_CACHE[key] = ray.get(ref)
    return _REF_CACHE[key]
