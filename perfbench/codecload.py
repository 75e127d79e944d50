"""Seeded mixed tiles for the codec_fixpoint workload.

Each tile holds 1-3 layers of points (some multi-point), linestrings
(some multi-line) and polygons (some with holes, some multi-polygon),
and its metadata uses all seven Val tags. Layer sizes are mixed so
every general-codec path runs: one-feature layers take the small
decoders, layers of 8 or more features take the batched encoder.
"""

from __future__ import annotations

import time

import numpy as np

from raytiles.codec.decode import decode_tile
from raytiles.codec.encode import encode_tile
from raytiles.codec.model import (BV, DO, FL, I64V, S64V, ST, W64V, Feature,
                                  Layer, VectorTile, tiles_equal)

KEYS = [b"name", b"kind", b"rank", b"height", b"id", b"offset", b"oneway",
        b"area", b"class", b"lanes"]
WORDS = [b"road", b"river", b"park", b"school", b"bridge", b"main st",
         b"harbour", b"", b"north", b"caf\xc3\xa9"]


def _value(rng, tag):
    if tag == ST:
        return (ST, WORDS[rng.integers(len(WORDS))] * int(rng.integers(1, 3)))
    if tag == FL:
        return (FL, float(np.float32(rng.normal(0, 1e3))))
    if tag == DO:
        return (DO, float(rng.normal(0, 1e6)))
    if tag == I64V:
        return (I64V, int(rng.integers(-2**40, 2**40)))
    if tag == W64V:
        return (W64V, int(rng.integers(0, 2**50)))
    if tag == S64V:
        return (S64V, int(rng.integers(-2**40, 2**40)))
    return (BV, bool(rng.integers(2)))


TAGS = (ST, FL, DO, I64V, W64V, S64V, BV)

# Sizes (features per layer, points, vertices, rings, metadata keys) are
# fixed functions of a feature's position; only the values (coordinates,
# metadata) are drawn from the seed, so a pass does the same work on
# every seed.
LAYER_FEATURES = (1, 24, 1, 59, 8, 1, 36, 3)
LAYER_NAMES = (b"points", b"lines", b"areas", b"mixed")


def _metadata(rng, f: int) -> dict:
    keys = rng.choice(len(KEYS), size=f % 5, replace=False)
    return {KEYS[k]: _value(rng, TAGS[(f + j) % len(TAGS)]) for j, k in enumerate(keys)}


def _ring(rng, cx, cy, r, n, clockwise):
    """Closed star-shaped ring around (cx, cy); orientation chosen so
    the codec's shoelace sign marks exterior (>0) or hole (<0). Angles
    are jittered around even steps, so no ring degenerates to a line."""
    ang = (np.arange(n) + rng.uniform(0, 0.8, n)) * (2 * np.pi / n)
    rad = r * rng.uniform(0.6, 1.0, n)
    pts = np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], 1)
    pts = np.round(pts).astype(np.int64)
    if not clockwise:
        pts = pts[::-1]
    return np.concatenate([pts, pts[:1]])


def _polygon(rng, f: int, p: int):
    cx, cy = rng.integers(200, 3900, 2)
    r = float(rng.integers(60, 180))
    rings = [_ring(rng, cx, cy, r, 5 + (5 * f + p) % 19, True)]
    for h in range((f + p) % 3):
        hx = cx + rng.uniform(-0.2, 0.2) * r
        hy = cy + rng.uniform(-0.2, 0.2) * r
        rings.append(_ring(rng, hx, hy, 0.2 * r, 4 + (f + h) % 5, False))
    return rings


def _feature(rng, f: int, kind: int) -> Feature:
    """Feature number ``f`` of the tile set, of geometry ``kind``
    (0 points, 1 linestrings, 2 polygons)."""
    if kind == 0:
        geom = rng.integers(-64, 4160, size=(1 + f % 3, 2)).astype(np.int64)
    elif kind == 1:
        geom = [(np.cumsum(rng.integers(-90, 91, size=(2 + (7 * f + 3 * p) % 28, 2)), 0)
                 + rng.integers(0, 4096, 2)).astype(np.int64) for p in range(1 + f % 2)]
    else:
        geom = [_polygon(rng, f, p) for p in range(1 + f % 2)]
    return Feature(fid=int(rng.integers(0, 1 << 20)), metadata=_metadata(rng, f),
                   geometry=geom)


def make_tiles(seed: int, n_tiles: int) -> list[VectorTile]:
    rng = np.random.default_rng(seed)
    tiles = []
    slot = f = 0
    for i in range(n_tiles):
        layers = {}
        for j in range(1 + i % 3):
            ni = (i + j) % 4
            feats = [[], [], []]
            for _ in range(LAYER_FEATURES[slot % len(LAYER_FEATURES)]):
                kind = f % 3 if ni == 3 else ni
                feats[kind].append(_feature(rng, f, kind))
                f += 1
            slot += 1
            layers[LAYER_NAMES[ni]] = Layer(
                name=LAYER_NAMES[ni], version=2, extent=int(rng.choice([4096, 512])),
                points=feats[0], linestrings=feats[1], polygons=feats[2])
        tiles.append(VectorTile(layers))
    return tiles


def tile_roundtrip(tile: VectorTile, tr) -> bool:
    """encode_tile -> decode_tile -> tiles_equal -> encode_tile again.
    True when the tile decodes equal and re-encodes to the same bytes."""
    with tr.span("codec.encode"):
        blob = encode_tile(tile)
    with tr.span("codec.decode"):
        back = decode_tile(blob)
    with tr.span("codec.check"):
        ok = tiles_equal(tile, back) and encode_tile(back) == blob
    tr.count("codec.tiles", 1)
    if tr.enabled:
        tr.count("codec.bytes", len(blob))
        tr.count("codec.features", sum(
            len(lay.points) + len(lay.linestrings) + len(lay.polygons)
            for lay in back.layers.values()))
    return ok


def codec_pass(tiles: list[VectorTile], tr) -> tuple[int, list[float]]:
    """One round trip per tile. Returns the number of failed tiles and
    each tile's seconds."""
    failed, seconds = 0, []
    for tile in tiles:
        t0 = time.perf_counter()
        failed += not tile_roundtrip(tile, tr)
        seconds.append(time.perf_counter() - t0)
    return failed, seconds
