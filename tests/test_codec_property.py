"""Property-based codec conformance (seeded, deterministic profile):

1. random high-level tiles -> encode -> decode -> structural equality
   and byte idempotency (the reference's fixpoint, generalized);
2. random byte garbage -> decode_tile_safe never raises;
3. random valid command streams roundtrip through the geometry codec.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from raytiles.codec.decode import decode_tile, decode_tile_safe
from raytiles.codec.encode import encode_tile
from raytiles.codec.geometry import (
    decode_linestrings, decode_points, decode_polygons,
    encode_linestrings, encode_points, encode_polygons,
)
from raytiles.codec.model import (
    BV, DO, FL, I64V, S64V, ST, W64V, Feature, Layer, VectorTile, tiles_equal,
)
from tests.conftest import fixture_bytes

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

coord = st.integers(min_value=-8192, max_value=8191)


@st.composite
def val_strategy(draw):
    tag = draw(st.sampled_from([ST, FL, DO, I64V, W64V, S64V, BV]))
    if tag == ST:
        return (ST, draw(st.binary(min_size=0, max_size=12)))
    if tag == FL:
        return (FL, float(np.float32(draw(st.floats(-1e4, 1e4, allow_nan=False)))))
    if tag == DO:
        return (DO, draw(st.floats(-1e9, 1e9, allow_nan=False)))
    if tag == I64V:
        return (I64V, draw(st.integers(-2**40, 2**40)))
    if tag == W64V:
        return (W64V, draw(st.integers(0, 2**50)))
    if tag == S64V:
        return (S64V, draw(st.integers(-2**40, 2**40)))
    return (BV, draw(st.booleans()))


metadata = st.dictionaries(st.binary(min_size=1, max_size=8), val_strategy(),
                           max_size=4)


@st.composite
def point_feature(draw):
    n = draw(st.integers(1, 6))
    pts = np.array([[draw(coord), draw(coord)] for _ in range(n)], dtype=np.int64)
    return Feature(fid=draw(st.integers(0, 1000)), metadata=draw(metadata),
                   geometry=pts)


@st.composite
def line_feature(draw):
    segs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 5))
        segs.append(np.array([[draw(coord), draw(coord)] for _ in range(n)],
                             dtype=np.int64))
    return Feature(fid=draw(st.integers(0, 1000)), metadata=draw(metadata),
                   geometry=segs)


@st.composite
def polygon_feature(draw):
    """Axis-aligned rectangles: guaranteed CW-exterior (positive
    shoelace, y-down) with optional CCW hole."""
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        x0 = draw(st.integers(0, 4000))
        y0 = draw(st.integers(0, 4000))
        w = draw(st.integers(8, 90))
        h = draw(st.integers(8, 90))
        ext = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h],
                        [x0, y0 + h], [x0, y0]], dtype=np.int64)
        rings = [ext]
        if draw(st.booleans()):
            hole = np.array([[x0 + 2, y0 + 2], [x0 + 2, y0 + 5],
                             [x0 + 5, y0 + 5], [x0 + 5, y0 + 2],
                             [x0 + 2, y0 + 2]], dtype=np.int64)
            rings.append(hole)
        polys.append(rings)
    return Feature(fid=draw(st.integers(0, 1000)), metadata=draw(metadata),
                   geometry=polys)


@st.composite
def tile_strategy(draw):
    layers = {}
    for name in draw(st.lists(st.binary(min_size=1, max_size=6), min_size=1,
                              max_size=3, unique=True)):
        pts = draw(st.lists(point_feature(), max_size=3))
        lines = draw(st.lists(line_feature(), max_size=2))
        polys = draw(st.lists(polygon_feature(), max_size=2))
        if not (pts or lines or polys):
            pts = [draw(point_feature())]
        layers[name] = Layer(name=name, version=draw(st.integers(1, 2)),
                             extent=draw(st.sampled_from([256, 4096])),
                             points=pts, linestrings=lines, polygons=polys)
    return VectorTile(layers)


@SETTINGS
@given(tile_strategy())
def test_random_tile_fixpoint(tile):
    b1 = encode_tile(tile)
    t2 = decode_tile(b1)
    assert tiles_equal(tile, t2)
    assert encode_tile(t2) == b1  # byte idempotency


@SETTINGS
@given(st.binary(min_size=0, max_size=200))
def test_decoder_never_raises_on_garbage(buf):
    tile, err = decode_tile_safe(buf)
    assert (tile is None) == (err is not None)


@SETTINGS
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
def test_point_commands_roundtrip(pairs):
    pts = np.array(pairs, dtype=np.int64)
    assert np.array_equal(decode_points(encode_points(pts)), pts)


@SETTINGS
@given(st.lists(st.lists(st.tuples(coord, coord), min_size=2, max_size=8),
                min_size=1, max_size=4))
def test_linestring_commands_roundtrip(segs):
    lines = [np.array(s, dtype=np.int64) for s in segs]
    got = decode_linestrings(encode_linestrings(lines))
    assert len(got) == len(lines)
    for a, b in zip(got, lines):
        assert np.array_equal(a, b)


def test_mutated_fixture_path_parity_and_fixpoint():
    """Seeded fuzz: random byte mutations of the real fixtures must
    (a) decode to the SAME outcome — tile structure AND error message
    — on the batched and exact paths (the class of bug the truncated
    fixed-field fix closed), and (b) keep the encode-decode fixpoint
    for every mutant that still decodes."""
    import random
    from raytiles.codec import decode as D
    from raytiles.codec.decode import decode_tile_safe
    from raytiles.codec.encode import encode_tile
    from raytiles.codec.model import tiles_equal

    fixtures = [fixture_bytes(f"{f}.mvt")
                for f in ("onepoint", "linestring", "polygon",
                          "roads", "clearlake")]
    rng = random.Random(20260819)
    decodable = 0
    for _ in range(400):
        b = bytearray(rng.choice(fixtures))
        for _ in range(rng.randint(1, 3)):
            b[rng.randrange(len(b))] = rng.randrange(256)
        raw = bytes(b)
        ta, ea = decode_tile_safe(raw)
        saved = D.LAYER_BATCH_BYTES
        D.LAYER_BATCH_BYTES = 1 << 30       # force the exact path
        try:
            tb, eb = decode_tile_safe(raw)
        finally:
            D.LAYER_BATCH_BYTES = saved
        assert (ta is None) == (tb is None)
        if ta is None:
            assert ea == eb
        else:
            assert tiles_equal(ta, tb)
            decodable += 1
            enc = encode_tile(ta)
            t2, _ = decode_tile_safe(enc)
            assert t2 is not None and tiles_equal(ta, t2)
    assert decodable > 50  # the fuzz actually exercises the happy path


def test_small_tile_fast_path_parity():
    """Seeded fuzz over TINY tiles: the fused small-tile decoder
    (decode.SMALL_TILE_BYTES path) must produce the same outcome —
    structure AND error text — as the exact path, on mutations,
    truncations, extensions of onepoint.mvt and on random small
    byte strings."""
    import random
    from raytiles.codec import decode as D
    from raytiles.codec.decode import decode_tile_safe
    from raytiles.codec.encode import encode_tile
    from raytiles.codec.model import tiles_equal

    base = fixture_bytes("onepoint.mvt")
    rng = random.Random(4042026)
    cases = []
    for _ in range(800):
        b = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            b[rng.randrange(len(b))] = rng.randrange(256)
        cases.append(bytes(b))
    for _ in range(200):
        cases.append(base[:rng.randrange(len(base) + 1)])  # truncations
    for _ in range(200):
        cases.append(base + bytes(rng.randrange(256)
                                  for _ in range(rng.randint(1, 8))))
    for _ in range(300):  # random noise, layer-tagged half the time
        k = rng.randint(0, 40)
        body = bytes(rng.randrange(256) for _ in range(k))
        cases.append((b"\x1a" + bytes([k]) + body) if rng.random() < 0.5
                     else body)
    decodable = 0
    for raw in cases:
        assert len(raw) <= D.SMALL_TILE_BYTES + 16
        ta, ea = decode_tile_safe(raw)
        saved = D.SMALL_TILE_BYTES
        D.SMALL_TILE_BYTES = -1  # force the general path
        try:
            tb, eb = decode_tile_safe(raw)
        finally:
            D.SMALL_TILE_BYTES = saved
        assert (ta is None) == (tb is None), raw.hex()
        if ta is None:
            assert ea == eb, (raw.hex(), ea, eb)
        else:
            assert tiles_equal(ta, tb), raw.hex()
            decodable += 1
            assert encode_tile(ta) == encode_tile(tb)
    assert decodable > 30
