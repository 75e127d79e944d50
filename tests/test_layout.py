"""Size-derived block layout (util.layout): the flagship's read-block
and reducer counts follow the input's on-disk size, never the cluster.

- large inputs keep the recorded scaling layout exactly;
- the layout never shrinks as the input grows, and never has more
  reducers than read blocks;
- small inputs get fewer, larger blocks; unsized inputs keep 64;
- the encoded tiles do not depend on the reducer count;
- the exchange primitives: ``run_starts`` and ``run_rank`` equal a
  per-row loop, and ``exchange`` hands each bucket's rows to one call.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raytiles.util import (MAX_REDUCERS, MIN_BLOCK_BYTES, TARGET_BLOCK_BYTES,
                           bucket_of, derive_buckets, exchange, input_bytes,
                           layout, run_rank, run_starts)


def _sizes() -> list[int]:
    """Every block-count boundary of both regimes plus a geometric
    sweep up to 10 PB."""
    sizes = {1, 2, 10**15}
    for k in range(1, 66):
        for d in (-1, 0, 1):
            sizes.add(k * MIN_BLOCK_BYTES + d)
    for k in range(63, 514):
        for d in (-1, 0, 1):
            sizes.add(k * TARGET_BLOCK_BYTES + d)
    sizes.update(int(v) for v in np.geomspace(1, 10**16, 400))
    return sorted(sizes)


def test_large_inputs_keep_recorded_layout():
    """From 64 x TARGET_BLOCK_BYTES up, the read layout is exactly the
    fixed-floor formula the scaling runs were recorded with."""
    for n in _sizes():
        if n >= 64 * TARGET_BLOCK_BYTES:
            blocks, reducers = layout(n)
            assert blocks == min(512, max(64, n // TARGET_BLOCK_BYTES)), n
            assert reducers == 64, n


def test_layout_monotone_and_reducers_bounded():
    from raytiles.pipeline.stages import N_MERGE_BUCKETS

    assert MAX_REDUCERS <= N_MERGE_BUCKETS
    prev = (0, 0)
    for n in _sizes():
        blocks, reducers = layout(n)
        assert 1 <= reducers <= blocks <= 512, n
        assert blocks >= prev[0] and reducers >= prev[1], n
        prev = (blocks, reducers)


def test_small_inputs_get_fewer_blocks():
    """The perfbench inputs (5-11 MB) and sf0.1 (~53 MB) sit below the
    old 64-block floor: one block per started MIN_BLOCK_BYTES, so a
    tiny input is one block."""
    for n in list(range(5_000_000, 11_000_001, 500_000)) + [53 * 10**6]:
        blocks, reducers = layout(n)
        assert blocks == -(-n // MIN_BLOCK_BYTES) < 64, n
        assert reducers == blocks, n
    assert layout(1) == (1, 1)
    assert layout(MIN_BLOCK_BYTES + 1) == (2, 2)
    assert layout(64 * MIN_BLOCK_BYTES) == (64, 64)


def test_unsized_inputs_keep_64_blocks(tmp_path):
    """A non-local or missing path sizes as 0 and keeps the fixed
    (64, 64) layout, so a remote corpus never runs as one task."""
    assert layout(0) == (64, 64)
    assert layout(input_bytes("s3://bucket/webpages.parquet")) == (64, 64)
    assert layout(input_bytes(str(tmp_path / "missing"))) == (64, 64)


def test_merge_tile_partials_empty_table():
    """A zero-row input gives the typed empty merge table (stage B of
    the job calls the merge directly, without Ray's empty-block skip),
    and the encoder accepts it."""
    from raytiles.pipeline.encode_stage import FastPointEncoder
    from raytiles.pipeline.stages import (_PARTIAL_SCHEMA, merge_tile_partials,
                                          pack_tile_partials)

    one = pa.table({
        "url": pa.array(["https://a.example/1"]),
        "mention_idx": pa.array([0], pa.int32()),
        "z": pa.array([12], pa.int32()), "x": pa.array([5], pa.int32()),
        "y": pa.array([7], pa.int32()),
        "local_x": pa.array([10], pa.int32()),
        "local_y": pa.array([20], pa.int32())})
    full = merge_tile_partials(pack_tile_partials(one))
    empty = merge_tile_partials(_PARTIAL_SCHEMA.empty_table())
    assert empty.num_rows == 0
    assert empty.schema == full.schema
    encoded = FastPointEncoder()(empty)
    assert encoded.num_rows == 0
    assert encoded.schema == FastPointEncoder()(full).schema


@pytest.mark.usefixtures("ray_session")
def test_tiles_independent_of_reducer_count(tmp_path):
    """aggregate_tiles with 1 and with 64 reducers encodes byte-identical
    tiles: a tile's partials always meet in one reducer block."""
    from raytiles.pipeline.flagship import (aggregate_tiles, encode_tiles,
                                            mentions)
    from raytiles.pipeline.stages import pack_tile_partials
    from raytiles.pipeline.synth import generate_webpages

    path = str(tmp_path / "webpages.parquet")
    pq.write_table(generate_webpages(3000, seed=7), path, row_group_size=250)

    def tiles(reducers: int):
        packed, _ = mentions(path, 12, then=pack_tile_partials)
        df = encode_tiles(aggregate_tiles(packed, reducers)).to_pandas()
        return df.sort_values(["z", "x", "y"]).reset_index(drop=True)

    one, wide = tiles(1), tiles(64)
    assert len(one) > 100
    assert one[["z", "x", "y"]].equals(wide[["z", "x", "y"]])
    assert (one["mvt"] == wide["mvt"]).all()
    assert (one["n_features"] == wide["n_features"]).all()


def _run_starts_loop(*keys):
    """(run-start mask, 0-based in-run rank) of sorted keys, row by row."""
    new, rank = [], []
    for i in range(len(keys[0])):
        new.append(i == 0 or any(k[i] != k[i - 1] for k in keys))
        rank.append(0 if new[-1] else rank[-1] + 1)
    return np.array(new, dtype=bool), np.array(rank, dtype=np.int64)


@pytest.mark.parametrize("n_keys", [1, 2, 3])
def test_run_starts_matches_row_loop(n_keys):
    rng = np.random.default_rng(n_keys)
    for n in (0, 1, 2, 40, 400):
        keys = [rng.integers(0, 4, n),
                rng.choice(np.array(["a", "bb", "c"]), n),
                rng.integers(-3, 3, n)][:n_keys]
        order = np.lexsort(keys[::-1])
        several = [k[order] for k in keys]
        one_run = [np.full(n, 7)] * n_keys
        for keys in (several, one_run):
            want, want_rank = _run_starts_loop(*keys)
            for ks in (keys, [k.astype(object) for k in keys]):
                got = run_starts(*ks)
                assert got.dtype == bool and len(got) == n
                assert np.array_equal(got, want)
            rank = run_rank(want)
            assert rank.dtype == np.int64
            assert np.array_equal(rank, want_rank)
    assert run_starts(np.array([5])).tolist() == [True]


@pytest.mark.usefixtures("ray_session")
def test_exchange_one_call_per_bucket(monkeypatch):
    """Under RAYTILES_FORCE_BUCKETS=7, fn sees every input row exactly
    once, tagged with ``bucket_of(key, 7)``, and all rows of a bucket
    arrive in one call."""
    import ray
    monkeypatch.setenv("RAYTILES_FORCE_BUCKETS", "7")
    n_buckets = derive_buckets("no/such/table.parquet", 256)
    assert n_buckets == 7
    n = 3000
    keys = np.arange(n) * 7919 % 211
    ds = ray.data.from_arrow(
        pa.table({"k": keys, "row": np.arange(n)})).repartition(5)

    def fn(g: pa.Table) -> pa.Table:
        b = g["bucket"].to_numpy()
        return pa.table({
            "bucket": [int(b[0])],
            "one_bucket": [bool((b == b[0]).all())],
            "tagged": [bool((bucket_of(g["k"].to_numpy(), 7) == b).all())],
            "rows": [g["row"].to_numpy().tolist()]})

    out = exchange(ds, "k", fn, n_buckets).to_pandas()
    assert out["one_bucket"].all() and out["tagged"].all()
    assert out["bucket"].is_unique
    assert set(out["bucket"]) == set(bucket_of(keys, 7).tolist())
    rows = np.sort(np.concatenate(out["rows"].to_numpy()))
    assert np.array_equal(rows, np.arange(n))
