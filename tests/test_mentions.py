"""flagship.mentions: the one map stage of every parquet-webpages
pipeline, which reads its own row groups inside the map task. It must
give exactly the rows of Ray's own read -> geoparse -> assign chain,
whatever the input's shape, and the flagship's plan must hold no read
operator of its own."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from raytiles import util
from raytiles.pipeline.flagship import (MENTION_SCHEMA, assign, geoparse,
                                        input_files, mentions, read_groups,
                                        read_webpages)
from raytiles.pipeline.stages import TileAssigner
from raytiles.pipeline.synth import generate_webpages, webpages_path
from tests.conftest import SF_SMOKE

pytestmark = pytest.mark.usefixtures("ray_session")

ASSIGNED_SCHEMA = TileAssigner(12, with_cells=False)(
    MENTION_SCHEMA.empty_table()).schema


def _table(ds) -> pa.Table:
    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _reference(path: str, zoom) -> pa.Table:
    ds = geoparse(read_webpages(path))
    return _table(ds if zoom is None else assign(ds, zoom, with_cells=False))


def _check_same_rows(path: str) -> None:
    for zoom in (None, 12):
        got = _table(mentions(path, zoom)[0])
        want = _reference(path, zoom)
        assert got.num_rows > 0
        assert got.schema == want.schema  # dtype-strict
        assert got.equals(want)


def test_single_file(tmp_path):
    path = str(tmp_path / "webpages.parquet")
    pq.write_table(generate_webpages(1500, seed=3), path)
    _check_same_rows(path)


def test_64_file_directory(tmp_path):
    for i in range(64):
        pq.write_table(generate_webpages(40, seed=i, idx_offset=40 * i),
                       str(tmp_path / f"part-{i:03d}.parquet"))
    fs, files = input_files(str(tmp_path))
    assert len(files) == 64
    assert len(read_groups(fs, files, 3)) == 3
    _check_same_rows(str(tmp_path))


def test_row_group_split(tmp_path, monkeypatch):
    """One file whose layout asks for more blocks than there are files:
    the groups split it by row group, and the rows stay the same."""
    path = str(tmp_path / "webpages.parquet")
    pq.write_table(generate_webpages(2000, seed=11), path, row_group_size=200)
    monkeypatch.setattr(util, "MIN_BLOCK_BYTES", 64 << 10)
    blocks = util.layout(util.input_bytes(path))[0]
    assert blocks > 1
    fs, files = input_files(path)
    groups = read_groups(fs, files, blocks)
    assert len(groups) == min(blocks, 10)
    assert sorted(rg for g in groups for rgs in g.values() for rg in rgs) == list(range(10))
    _check_same_rows(path)


def test_file_uri_is_unsized(tmp_path):
    """A file:// URI sizes as 0, so it takes the unsized 64-block
    layout: the one file splits into its row groups."""
    path = str(tmp_path / "webpages.parquet")
    pq.write_table(generate_webpages(1200, seed=5), path, row_group_size=300)
    uri = "file://" + path
    assert util.input_bytes(uri) == 0
    fs, files = input_files(uri)
    assert len(read_groups(fs, files, util.layout(0)[0])) == 4
    for zoom in (None, 12):
        got = _table(mentions(uri, zoom)[0])
        want = _reference(path, zoom)
        assert got.schema == want.schema and got.equals(want)


def test_empty_directory_is_typed(tmp_path):
    for zoom, schema in ((None, MENTION_SCHEMA), (12, ASSIGNED_SCHEMA)):
        t = pa.concat_tables(ray.get(mentions(str(tmp_path), zoom)[0].to_arrow_refs()))
        assert t.num_rows == 0 and t.schema == schema


def test_no_mention_table_is_typed(tmp_path):
    path = str(tmp_path / "webpages.parquet")
    pq.write_table(pa.table({"url": ["https://a/1", "https://b/2"],
                             "text": ["no place here", "nor here"]}), path)
    for zoom, schema in ((None, MENTION_SCHEMA), (12, ASSIGNED_SCHEMA)):
        t = _table(mentions(path, zoom)[0])
        assert t.num_rows == 0 and t.schema == schema


def test_flagship_plan_has_one_map_before_the_sort():
    """The read runs inside the map task: the flagship's executed plan
    holds no ReadParquet operator, and only the input items and one
    map operator come before the sort."""
    from raytiles.pipeline.flagship import tiles_pipeline
    ds = tiles_pipeline(webpages_path(SF_SMOKE), 12).materialize()
    ops = [line.split(":")[0].split(" ", 2)[2]
           for line in ds.stats().splitlines() if line.startswith("Operator ")]
    assert not any("ReadParquet" in op for op in ops), ops
    assert ops[:3] == ["FromItems", "MapBatches(read_parse)", "Sort"], ops
