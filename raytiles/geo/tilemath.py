"""XYZ / WebMercator tile math and a from-scratch hierarchical cell
index (res 0-9), all vectorized float64 numpy.

The cell index plays the role of H3 in the engine (north_star): a
quadtree-style equirectangular hierarchy where resolution r covers the
globe with a 2^(r+1) x 2^r lon/lat grid (r=0: two hemispheres), each
cell splitting into 2x2 children at r+1. Cell ids pack
(res, ix, iy) into an int64: id = (res << 56) | (ix << 28) | iy —
chosen so the identical arithmetic is expressible in ANSI SQL for the
DuckDB oracle (res*2^56 + ix*2^28 + iy fits BIGINT for res <= 9).

Every formula here is written to match its SQL oracle twin
word-for-word (same operation order, float64 throughout) so floor()
boundaries agree bit-for-bit between numpy and DuckDB.
"""

from __future__ import annotations

import numpy as np

MAX_LAT = 85.05  # WebMercator-safe latitude clamp used by the synth generator
DEFAULT_EXTENT = 4096


def lonlat_to_tile(lon: np.ndarray, lat: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
    """(lon, lat) -> XYZ tile (x, y) at zoom z. y=0 is the north edge.

    SQL twin:
      x = CAST(floor((lon + 180.0) / 360.0 * 2^z) AS INT)  clipped to [0, 2^z-1]
      y = CAST(floor((1.0 - ln(tan(radians(lat)) + 1.0/cos(radians(lat))) / pi()) / 2.0 * 2^z) AS INT)
    """
    n = float(1 << z)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    xt = np.floor((lon + 180.0) / 360.0 * n)
    rad = np.radians(lat)
    yt = np.floor((1.0 - np.log(np.tan(rad) + 1.0 / np.cos(rad)) / np.pi) / 2.0 * n)
    xt = np.clip(xt, 0, n - 1).astype(np.int32)
    yt = np.clip(yt, 0, n - 1).astype(np.int32)
    return xt, yt


def lonlat_to_local(lon: np.ndarray, lat: np.ndarray, z: int,
                    tx: np.ndarray, ty: np.ndarray,
                    extent: int = DEFAULT_EXTENT) -> tuple[np.ndarray, np.ndarray]:
    """Tile-local integer coords in [0, extent-1] (y-down, matching the
    MVT convention that (0,0) is the tile's top-left)."""
    n = float(1 << z)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    fx = (lon + 180.0) / 360.0 * n - tx.astype(np.float64)
    rad = np.radians(lat)
    fy = (1.0 - np.log(np.tan(rad) + 1.0 / np.cos(rad)) / np.pi) / 2.0 * n - ty.astype(np.float64)
    lx = np.clip(np.floor(fx * extent), 0, extent - 1).astype(np.int32)
    ly = np.clip(np.floor(fy * extent), 0, extent - 1).astype(np.int32)
    return lx, ly


def tile_bounds(z: int, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """WebMercator-projected lon/lat bounding boxes (lon_min, lat_min,
    lon_max, lat_max) of XYZ tiles; vectorized; returns (n, 4).
    Test reference: test_rtree_tile_assignment_equals_floor_math and
    test_floor_tile_among_unshrunk_rtree_hits build their R-trees from
    it to check the assign stage's floor math."""
    n = float(1 << z)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    lon_min = tx / n * 360.0 - 180.0
    lon_max = (tx + 1) / n * 360.0 - 180.0

    def merc_lat(yt):
        return np.degrees(np.arctan(np.sinh(np.pi * (1.0 - 2.0 * yt / n))))

    lat_max = merc_lat(ty)
    lat_min = merc_lat(ty + 1)
    return np.stack([lon_min, lat_min, lon_max, lat_max], axis=1)


# ---------------------------------------------------------------------------
# hierarchical cell index (H3-role), res 0-9
# ---------------------------------------------------------------------------

CELL_RES_BITS = 56
CELL_IX_BITS = 28


def cell_id(lon: np.ndarray, lat: np.ndarray, res: int) -> np.ndarray:
    """Pack (res, ix, iy) -> int64.

    SQL twin (BIGINT arithmetic):
      ix = CAST(floor((lon + 180.0) / 360.0 * nx) AS BIGINT) clipped to [0, nx-1]
      iy = CAST(floor((90.0 - lat) / 180.0 * ny) AS BIGINT)  clipped to [0, ny-1]
      id = res * 72057594037927936 + ix * 268435456 + iy
    with nx = 2^(res+1), ny = 2^res.
    """
    nx = float(1 << (res + 1))
    ny = float(1 << res)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    ix = np.clip(np.floor((lon + 180.0) / 360.0 * nx), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.floor((90.0 - lat) / 180.0 * ny), 0, ny - 1).astype(np.int64)
    return (np.int64(res) << np.int64(CELL_RES_BITS)) | (ix << np.int64(CELL_IX_BITS)) | iy


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of v to even bit positions (Morton)."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def morton_cell(lon: np.ndarray, lat: np.ndarray, level: int = 12) -> np.ndarray:
    """Z-order (Morton) curve cell id over the WebMercator grid at
    ``level`` — the engine's S2-role space-filling-curve index: ids of
    spatially-close points are numerically close, so range-partitioning
    by id co-locates neighborhoods (the property S2/Hilbert ids give a
    distributed join).

    id = interleave(x, y) with x even bits, y odd bits, as BIGINT.
    SQL twin: sum_i ((x>>i & 1) + 2*(y>>i & 1)) * 4^i for i < level.
    """
    x, y = lonlat_to_tile(lon, lat, level)
    return (_part1by1(x.astype(np.uint64))
            | (_part1by1(y.astype(np.uint64)) << np.uint64(1))).astype(np.int64)


def cell_parent(cid: np.ndarray) -> np.ndarray:
    """Parent cell at res-1 (2x2 split ⇒ halve indices). Test
    reference: test_cell_hierarchy checks ``cell_id`` against it."""
    cid = np.asarray(cid, dtype=np.int64)
    res = cid >> np.int64(CELL_RES_BITS)
    ix = (cid >> np.int64(CELL_IX_BITS)) & np.int64((1 << CELL_RES_BITS - CELL_IX_BITS) - 1)
    iy = cid & np.int64((1 << CELL_IX_BITS) - 1)
    return ((res - 1) << np.int64(CELL_RES_BITS)) | ((ix >> 1) << np.int64(CELL_IX_BITS)) | (iy >> 1)


def cell_unpack(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(res, ix, iy) of packed cell ids. Test reference:
    test_cell_hierarchy checks ``cell_id``'s packing with it."""
    cid = np.asarray(cid, dtype=np.int64)
    res = cid >> np.int64(CELL_RES_BITS)
    ix = (cid >> np.int64(CELL_IX_BITS)) & np.int64((1 << (CELL_RES_BITS - CELL_IX_BITS)) - 1)
    iy = cid & np.int64((1 << CELL_IX_BITS) - 1)
    return res, ix, iy


def quadkey(lon: np.ndarray, lat: np.ndarray, z: int = 12) -> np.ndarray:
    """Bing-style quadkey string per point at zoom ``z`` (the
    string-keyed spatial index used by XYZ tile CDNs; prefix match =
    ancestor tile): digit i (most significant first) is
    (x >> (z-1-i) & 1) + 2 * (y >> (z-1-i) & 1). Vectorized: one
    (n, z) uint8 char-code matrix viewed as fixed-width bytes — no
    per-point Python."""
    x, y = lonlat_to_tile(lon, lat, z)
    n = len(x)
    codes = np.empty((n, z), dtype=np.uint8)
    for i in range(z):
        s = z - 1 - i
        codes[:, i] = 48 + ((x >> s) & 1) + 2 * ((y >> s) & 1)
    return codes.reshape(-1).view(f"S{z}").astype("U")

GEOHASH_ALPHABET = b"0123456789bcdefghjkmnpqrstuvwxyz"


def _part1by1_32(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v to even bit positions (64-bit
    Morton) — the 16-bit _part1by1 widened for geohash precisions
    above 6 (up to 12 chars = 60 interleaved bits)."""
    v = v.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def geohash(lon: np.ndarray, lat: np.ndarray, precision: int = 6) -> np.ndarray:
    """Standard geohash strings (base-32, lon bit first) — the third
    spatial-index family next to XYZ/quadkey and Morton: a geohash
    PREFIX is a containing cell, so prefix range scans and
    prefix-joins co-locate neighborhoods in plain string order.

    precision chars = 5*precision bits, split ceil/floor between lon
    and lat. Vectorized: clamp+quantize both axes, one Morton-style
    bit spread (lat even / lon odd positions => lon leads from the
    MSB), then a (n, precision) uint8 alphabet gather viewed as
    fixed-width bytes. SQL twin: the morton_cells arithmetic-
    interleave pattern + substr(alphabet) per 5-bit group."""
    bits = 5 * precision
    nlon = bits - bits // 2
    nlat = bits // 2
    x = np.clip(np.floor((lon + 180.0) / 360.0 * (1 << nlon)),
                0, (1 << nlon) - 1).astype(np.uint64)
    y = np.clip(np.floor((lat + 90.0) / 180.0 * (1 << nlat)),
                0, (1 << nlat) - 1).astype(np.uint64)
    # lon leads from the MSB; with an ODD bit count the lon stream
    # also ends at bit 0, flipping which axis sits on even positions
    if bits % 2 == 0:
        g = (_part1by1_32(y)
             | (_part1by1_32(x) << np.uint64(1))).astype(np.int64)
    else:
        g = (_part1by1_32(x)
             | (_part1by1_32(y) << np.uint64(1))).astype(np.int64)
    shifts = np.arange(bits - 5, -5, -5, dtype=np.int64)
    codes = ((g[:, None] >> shifts[None, :]) & 31).astype(np.uint8)
    chars = np.frombuffer(GEOHASH_ALPHABET, np.uint8)[codes]
    return chars.view(f"S{precision}").ravel().astype(str)
