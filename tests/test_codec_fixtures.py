"""Conformance against the reference's own .mvt fixtures
(/root/reference/test/*.mvt, declared at vectortiles.cabal:21-25):

- all 5 fixtures decode (Test.hs:36-41)
- golden mid-level facts for the tiny fixtures (Test.hs:113-154)
- decode->encode fixpoint: re-decode is structurally equal, and
  encode(decode(encode(decode(f)))) == encode(decode(f)) at byte level
  (the reference's encodeIso, Test.hs:93-96)
"""

import numpy as np
import pytest

from raytiles.codec.decode import CodecError, decode_tile, decode_tile_safe
from raytiles.codec.encode import encode_tile
from raytiles.codec.model import (
    BV, DO, FL, I64V, S64V, ST, W64V, Feature, Layer, VectorTile, tiles_equal,
)
from tests.conftest import fixture_bytes, fixture_path

FIXTURES = ["onepoint.mvt", "linestring.mvt", "polygon.mvt", "roads.mvt", "clearlake.mvt"]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_decodes(name):
    tile = decode_tile(fixture_bytes(name))
    assert len(tile.layers) >= 1


def test_onepoint_golden():
    tile = decode_tile(fixture_bytes("onepoint.mvt"))
    layer = tile.layers[b"OnePoint"]
    assert layer.version == 1 and layer.extent == 4096
    assert len(layer.points) == 1 and not layer.linestrings and not layer.polygons
    f = layer.points[0]
    assert f.fid == 0 and f.metadata == {}
    assert f.geometry.tolist() == [[5, 5]]  # MoveTo(+5,+5), Test.hs:124


def test_linestring_golden():
    tile = decode_tile(fixture_bytes("linestring.mvt"))
    layer = tile.layers[b"OneLineString"]
    [f] = layer.linestrings
    # MoveTo(+5,+5), LineTo(+1195,+1195) — Test.hs:139
    assert [seg.tolist() for seg in f.geometry] == [[[5, 5], [1200, 1200]]]


def test_polygon_golden():
    tile = decode_tile(fixture_bytes("polygon.mvt"))
    layer = tile.layers[b"OnePolygon"]
    [f] = layer.polygons
    [rings] = [f.geometry[0]]
    # MoveTo(+2,+2), LineTo(+3,+2),(-3,+2), ClosePath, ring closed — Test.hs:154
    assert rings[0].tolist() == [[2, 2], [5, 4], [2, 6], [2, 2]]


def test_roads_layer_inventory():
    tile = decode_tile(fixture_bytes("roads.mvt"))
    assert len(tile.layers) == 15  # README.md:85
    assert b"water" in tile.layers
    water = tile.layers[b"water"]
    assert len(water.polygons) > 0


@pytest.mark.parametrize("name", FIXTURES)
def test_fixpoint(name):
    raw = fixture_bytes(name)
    t1 = decode_tile(raw)
    b1 = encode_tile(t1)
    t2 = decode_tile(b1)
    assert tiles_equal(t1, t2)
    b2 = encode_tile(t2)
    assert b1 == b2  # byte idempotency of the normalization


def test_tiny_fixture_normalized_bytes():
    """encode(decode(onepoint)) differs from the original ONLY by the
    always-written id field (Internal.hs:339) — verifiable byte shape."""
    raw = fixture_bytes("onepoint.mvt")
    enc = encode_tile(decode_tile(raw))
    # original feature msg: 1807 1801 2203 090a0a; ours adds 08 00 id
    assert b"\x08\x00" in enc
    assert enc != raw
    assert tiles_equal(decode_tile(enc), decode_tile(raw))


def test_all_value_variants_roundtrip():
    meta = {
        b"s": (ST, b"Some Value"),
        b"f": (FL, 1.5),
        b"d": (DO, 2.25),
        b"i": (I64V, -5),
        b"u": (W64V, 5),
        b"z": (S64V, -5),
        b"b": (BV, True),
        b"i2": (I64V, 5),   # same numeral, distinct variants must survive
        b"z2": (S64V, 5),
        b"u2": (W64V, 2 ** 63 + 1),
    }
    f = Feature(fid=7, metadata=meta, geometry=np.array([[10, 20]], dtype=np.int64))
    tile = VectorTile({b"L": Layer(name=b"L", version=2, extent=512, points=[f])})
    out = decode_tile(encode_tile(tile))
    got = out.layers[b"L"].points[0]
    assert got.fid == 7
    assert got.metadata == meta
    assert out.layers[b"L"].extent == 512 and out.layers[b"L"].version == 2


def test_value_variants_not_conflated():
    f = Feature(metadata={b"a": (I64V, 5), b"b": (W64V, 5), b"c": (S64V, 5)},
                geometry=np.array([[1, 1]], dtype=np.int64))
    tile = VectorTile({b"L": Layer(name=b"L", points=[f])})
    got = decode_tile(encode_tile(tile)).layers[b"L"].points[0]
    assert got.metadata[b"a"] == (I64V, 5)
    assert got.metadata[b"b"] == (W64V, 5)
    assert got.metadata[b"c"] == (S64V, 5)


def test_empty_layer_rejected():
    # a layer with zero features must fail decode (Internal.hs:296)
    from raytiles.codec import wire
    inner: list = []
    wire.put_len_field(inner, 1, b"empty")
    wire.put_varint_field(inner, 5, 4096)
    wire.put_varint_field(inner, 15, 1)
    outer: list = []
    wire.put_len_field(outer, 3, b"".join(inner))
    with pytest.raises(CodecError, match="empty"):
        decode_tile(b"".join(outer))


def test_unknown_geom_type_rejected():
    from raytiles.codec import wire
    feat: list = []
    wire.put_varint_field(feat, 3, 0)  # UNKNOWN
    inner: list = []
    wire.put_len_field(inner, 1, b"bad")
    wire.put_len_field(inner, 2, b"".join(feat))
    outer: list = []
    wire.put_len_field(outer, 3, b"".join(inner))
    with pytest.raises(CodecError, match="UNKNOWN"):
        decode_tile(b"".join(outer))


def test_decode_safe_returns_error_not_raise():
    tile, err = decode_tile_safe(b"\xff\xff\xff garbage")
    assert tile is None and err


def test_duplicate_layer_names_last_wins():
    t = VectorTile({b"A": Layer(name=b"A", points=[
        Feature(geometry=np.array([[1, 2]], dtype=np.int64))])})
    layer_bytes = encode_tile(t)
    # two copies of the same layer name: decode keeps the LAST
    from raytiles.codec import wire
    t2 = VectorTile({b"A": Layer(name=b"A", points=[
        Feature(geometry=np.array([[9, 9]], dtype=np.int64))])})
    doubled = layer_bytes + encode_tile(t2)
    out = decode_tile(doubled)
    assert out.layers[b"A"].points[0].geometry.tolist() == [[9, 9]]


def test_testtile_golden_metadata():
    """The reference's hand-written testTile (Test.hs:98-110): layer
    "testlayer" v2 extent 4096, key "somekey" -> St "Some Value",
    tags [0,0], geometry MoveTo(+25,+17)."""
    from raytiles.codec import wire
    feat: list = []
    wire.put_varint_field(feat, 1, 0)
    wire.put_packed_field(feat, 2, __import__("numpy").array([0, 0], dtype="uint32"))
    wire.put_varint_field(feat, 3, 1)
    wire.put_packed_field(feat, 4, __import__("numpy").array([9, 50, 34], dtype="uint32"))
    val: list = []
    wire.put_len_field(val, 1, b"Some Value")
    layer: list = []
    wire.put_len_field(layer, 1, b"testlayer")
    wire.put_len_field(layer, 2, b"".join(feat))
    wire.put_len_field(layer, 3, b"somekey")
    wire.put_len_field(layer, 4, b"".join(val))
    wire.put_varint_field(layer, 5, 4096)
    wire.put_varint_field(layer, 15, 2)
    tile_msg: list = []
    wire.put_len_field(tile_msg, 3, b"".join(layer))
    t = decode_tile(b"".join(tile_msg))
    layer_out = t.layers[b"testlayer"]
    assert layer_out.version == 2 and layer_out.extent == 4096
    [f] = layer_out.points
    assert f.metadata == {b"somekey": (ST, b"Some Value")}
    assert f.geometry.tolist() == [[25, 17]]  # unzig(50)=25, unzig(34)=17
    # and our encoder reproduces these bytes exactly
    assert encode_tile(t) == b"".join(tile_msg)


def test_arrow_feature_table_roundtrip():
    """bytes -> Arrow feature rows (B3 schema) -> bytes: structural
    fixpoint through the columnar representation, on the real fixtures
    and synthetic multi-geometry tiles."""
    import pyarrow as pa
    from raytiles.codec.arrowio import feature_table_to_tiles, tiles_to_feature_table
    from raytiles.pipeline.roundtrip import tiles_in_table
    for name in FIXTURES:  # tiles_in_table reads the reference corpus
        fixture_path(name)
    src = tiles_in_table()
    batch = pa.table({
        "z": pa.array([0] * src.num_rows, pa.int32()),
        "x": pa.array(list(range(src.num_rows)), pa.int32()),
        "y": pa.array([0] * src.num_rows, pa.int32()),
        "mvt": src["mvt"],
    })
    feats = tiles_to_feature_table(batch)
    assert feats.num_rows > src.num_rows  # exploded
    assert feats["error"].null_count == feats.num_rows  # no decode errors
    back = feature_table_to_tiles(feats)
    assert back.num_rows == src.num_rows
    n_equal = 0
    for i in range(back.num_rows):
        x = back["x"][i].as_py()
        a = decode_tile(src["mvt"][x].as_py())
        b = decode_tile(back["mvt"][i].as_py())
        if tiles_equal(a, b):
            n_equal += 1
    assert n_equal == src.num_rows


def test_first_feature_lazy_partial_access():
    """first_feature matches the full decode's first feature per
    (layer, type) on every fixture — the reference's lazy first-polygon
    fetch (Bench.hs:63-67) without decoding the rest of the tile."""
    from raytiles.codec.decode import first_feature
    for name in FIXTURES:
        buf = fixture_bytes(name)
        tile = decode_tile(buf)
        for lname, layer in tile.layers.items():
            for gtype, feats in ((1, layer.points), (2, layer.linestrings),
                                 (3, layer.polygons)):
                got = first_feature(buf, lname, gtype)
                if not feats:
                    assert got is None
                    continue
                want = feats[0]
                assert got is not None
                assert got.fid == want.fid
                assert got.metadata == want.metadata
                if gtype == 1:
                    assert np.array_equal(got.geometry, want.geometry)
    assert first_feature(fixture_bytes("roads.mvt"), b"no_such_layer", 3) is None


def test_point_empty_moveto_yields_empty_vector():
    """A lone MoveTo carrying zero pairs decodes to an empty point
    vector (Internal.hs:154 accepts `[MoveTo ps]` for empty ps);
    'No points given!' is reserved for an empty command list
    (Internal.hs:156)."""
    from raytiles.codec.geometry import GeometryError, decode_points
    # header: MoveTo (cmd 1), count 0 -> single u32 command word
    empty_move = np.array([(0 << 3) | 1], dtype=np.uint32)
    pts = decode_points(empty_move)
    assert pts.shape == (0, 2)
    with pytest.raises(GeometryError, match="No points given"):
        decode_points(np.empty(0, dtype=np.uint32))


def test_arrowio_coordinate_overflow_is_error_row():
    """A legally decodable tile whose cumsum'd coordinates exceed int32
    becomes ONE error row in the feature table (row-level error
    channel), not a batch-killing ArrowInvalid."""
    import pyarrow as pa
    from raytiles.codec.arrowio import tiles_to_feature_table
    from raytiles.codec.geometry import encode_points
    # two MoveTo deltas of +2^30 each accumulate past int32 range
    # deltas of +2^30 each are int32-legal on the wire, but the second
    # point's accumulated coordinate (2^31) exceeds int32 range
    big = np.array([[2 ** 30, 2 ** 30], [2 ** 31, 2 ** 31]], dtype=np.int64)
    layer = Layer(name=b"big", version=2, extent=4096)
    layer.points.append(Feature(1, {}, big))
    overflow_mvt = encode_tile(VectorTile({b"big": layer}))
    ok_mvt = fixture_bytes("onepoint.mvt")
    batch = pa.table({
        "z": pa.array([0, 0], pa.int32()),
        "x": pa.array([0, 1], pa.int32()),
        "y": pa.array([0, 0], pa.int32()),
        "mvt": pa.array([overflow_mvt, ok_mvt], pa.binary()),
    })
    out = tiles_to_feature_table(batch)
    err_rows = out.filter(out["error"].is_valid())
    assert err_rows.num_rows == 1
    assert "int32" in err_rows["error"][0].as_py()
    live = out.filter(out["error"].is_null())
    assert live.num_rows >= 1  # the good tile survived


def test_truncated_fixed_field_is_error_on_every_path():
    """A truncated trailing I64/I32 field must error on the main
    decode path exactly like the wire.scan_fields lazy path — the
    inlined scanners must not silently accept it (path parity)."""
    from raytiles.codec.decode import decode_tile_safe, layer_names
    import pytest as _pt
    # tile level: unknown field 19, wire type I64, only 3 payload bytes
    t, err = decode_tile_safe(b"\x99\x01bad")
    assert t is None and "truncated" in err
    # layer level: wrap the truncated field inside a layer message
    inner = b"\x0a\x01L" + b"\x99\x01bad"          # name "L", bad I64
    buf = b"\x1a" + bytes([len(inner)]) + inner
    t, err = decode_tile_safe(buf)
    assert t is None and "truncated" in err
    # feature level: feature message with truncated I32 field
    feat = b"\x9d\x01ab"                            # field 19, I32, 2 bytes
    inner = b"\x0a\x01L" + b"\x12" + bytes([len(feat)]) + feat
    buf = b"\x1a" + bytes([len(inner)]) + inner
    t, err = decode_tile_safe(buf)
    assert t is None and "truncated" in err
