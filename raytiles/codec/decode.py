"""MVT bytes -> high-level VectorTile.

From-scratch reimplementation of the reference decode path
(`tile` entry, lib/Geography/VectorTile.hs:70-71; `fromProtobuf`
instances, lib/Geography/VectorTile/Internal.hs:96-143;
`feats`/`getMeta`, Internal.hs:295-317), over the hand-rolled wire
scanner in .wire and vectorized geometry in .geometry.

Semantics replicated exactly:
- duplicate layer names: last wins (Internal.hs:99)
- layer with zero features -> error (Internal.hs:296)
- GeomType UNKNOWN / missing -> error (Internal.hs:308)
- Value with no field set -> error; first-set-field wins in declaration
  order string,float,double,int,uint,sint,bool (Internal.hs:127-135)
- tags: odd trailing index silently dropped (Util.hs:29-31); index out
  of dictionary range -> error (reference crashes on Seq.index)
- extent defaults to 4096 when absent (Internal.hs:111)
- unknown fields / extensions discarded (Tile.hs:50-51)
"""

from __future__ import annotations

import struct

import numpy as np


def _unpack_f4(b):
    # struct.unpack, not a module-level struct.Struct: Struct objects
    # don't pickle, and this module ships to workers by value
    return struct.unpack("<f", b)


def _unpack_f8(b):
    return struct.unpack("<d", b)

from . import fastdecode, wire
from .geometry import (
    GEOM_LINESTRING, GEOM_POINT, GEOM_POLYGON, GeometryError,
    decode_linestrings, decode_points, decode_polygons,
)
from .model import (
    BV, DO, FL, I64V, S64V, ST, W64V, DEFAULT_EXTENT, Feature, Layer, VectorTile,
)


class CodecError(ValueError):
    """Decode failure — the reference's `Left Text` channel."""


def _decode_value(buf, start: int, end: int):
    """Tile.Value message -> Val tuple (Internal.hs:127-135). Later
    occurrences of a field overwrite earlier (wire merge), then the
    first set field in declaration order wins."""
    fields = {}
    for fno, wtype, val in wire.scan_fields(buf, start, end):
        if fno == 1 and wtype == wire.LEN:
            s, e = val
            fields[1] = bytes(buf[s:e])
        elif fno == 2 and wtype == wire.I32:
            s, e = val
            fields[2] = _unpack_f4(buf[s:e])[0]
        elif fno == 3 and wtype == wire.I64:
            s, e = val
            fields[3] = _unpack_f8(buf[s:e])[0]
        elif fno == 4 and wtype == wire.VARINT:
            fields[4] = wire.u64_to_int64(val)
        elif fno == 5 and wtype == wire.VARINT:
            fields[5] = val
        elif fno == 6 and wtype == wire.VARINT:
            # sint64 zigzag (64-bit, no truncation: standard wire sint64)
            fields[6] = (val >> 1) ^ -(val & 1)
        elif fno == 7 and wtype == wire.VARINT:
            fields[7] = bool(val)
    for fno, tag in ((1, ST), (2, FL), (3, DO), (4, I64V), (5, W64V), (6, S64V), (7, BV)):
        if fno in fields:
            return (tag, fields[fno])
    raise CodecError("Value decode: No legal Value type offered")


SMALL_GEOM_BYTES = 320  # below this, list arithmetic beats numpy's call costs


def _decode_feature_raw(buf, start: int, end: int):
    """Tile.Feature message -> (fid, tags list, geom_type, geometry).
    Accepts packed and unpacked repeated encodings (Feature.hs:57-62).

    Inline field scan (no generator — this runs once per feature) and
    a small-geometry fast path: geometry runs under SMALL_GEOM_BYTES
    stay plain Python lists all the way through the geometry decoders
    (most real features are a handful of command words; numpy's fixed
    per-call costs dominate there). Large runs use the vectorized
    array path. Tags are always small -> always a list."""
    fid = 0
    geom_type = None
    tags_parts: list = []
    geom_parts: list = []
    pos = start
    uvarint = wire.uvarint_decode
    W_VARINT, W_LEN, W_I32, W_I64 = wire.VARINT, wire.LEN, wire.I32, wire.I64
    # single-byte varints are inlined (the overwhelmingly common case
    # for keys and small values — a function call per varint is the
    # dominant cost of tiny-tile decode); multi-byte falls back to the
    # shared decoder, and IndexError past the buffer maps to the same
    # truncation error the decoder raises
    try:
        while pos < end:
            key = buf[pos]
            pos += 1
            if key & 0x80:
                key, pos = uvarint(buf, pos - 1)
            fno = key >> 3
            wtype = key & 7
            if wtype == W_VARINT:
                val = buf[pos]
                pos += 1
                if val & 0x80:
                    val, pos = uvarint(buf, pos - 1)
                if fno == 1:
                    fid = val
                elif fno == 2:
                    tags_parts.append([val])
                elif fno == 3:
                    geom_type = val
                elif fno == 4:
                    geom_parts.append([val])
            elif wtype == W_LEN:
                ln = buf[pos]
                pos += 1
                if ln & 0x80:
                    ln, pos = uvarint(buf, pos - 1)
                s, e = pos, pos + ln
                if e > end:
                    raise wire.WireError("scan_fields: truncated LEN field")
                pos = e
                if fno == 2:
                    seg = buf[s:e]
                    # all-single-byte runs (tiny tag/geom words are the
                    # norm) decode as a C-speed list(bytes) — max() is
                    # a C scan, no per-byte Python
                    tags_parts.append(
                        list(seg) if not seg or max(seg) < 0x80
                        else wire.uvarint_decode_list(seg))
                elif fno == 4:
                    seg = buf[s:e]
                    if ln < SMALL_GEOM_BYTES:
                        geom_parts.append(
                            list(seg) if not seg or max(seg) < 0x80
                            else wire.uvarint_decode_list(seg))
                    else:
                        geom_parts.append(wire.uvarint_decode_array(seg))
            elif wtype == W_I32:
                pos += 4
                if pos > end:
                    raise wire.WireError("scan_fields: truncated I32 field")
            elif wtype == W_I64:
                pos += 8
                if pos > end:
                    raise wire.WireError("scan_fields: truncated I64 field")
            else:
                raise wire.WireError(f"scan_fields: unsupported wire type {wtype}")
    except IndexError:
        raise wire.WireError("uvarint_decode: truncated varint") from None

    tags = [t for part in tags_parts for t in part]
    if not geom_parts:
        geometry = []
    elif len(geom_parts) == 1:
        g = geom_parts[0]
        geometry = g if isinstance(g, list) else g.astype(np.uint32, copy=False)
    elif all(isinstance(g, list) for g in geom_parts):
        geometry = [v for g in geom_parts for v in g]
    else:
        geometry = np.concatenate(
            [np.asarray(g, dtype=np.uint64) for g in geom_parts]).astype(np.uint32)
    return fid, tags, geom_type, geometry


def _get_meta(keys: list, values: list, tags) -> dict:
    """tags (k_idx, v_idx) pairs -> metadata dict in tag order
    (`getMeta`, Internal.hs:314-317); odd trailing tag dropped."""
    if not tags:
        return {}
    t = tags
    if len(t) % 2:
        t = t[:-1]
    meta = {}
    nk, nv = len(keys), len(values)
    for i in range(0, len(t), 2):
        k, v = int(t[i]), int(t[i + 1])
        if k >= nk or v >= nv:
            raise CodecError(f"tag index out of range: ({k},{v}) vs ({nk},{nv})")
        meta[keys[k]] = values[v]
    return meta


LAYER_BATCH_BYTES = 512  # above this, batched whole-layer decode wins
# (re-measured after the combined geometry+tags varint pass: 512 beats
# 2048 on roads.mvt because mid-size layers now amortize the batch
# machinery across tags too)


def _decode_layer(buf, start: int, end: int) -> Layer:
    """Size-dispatched: large layers go through the batched decoder
    (fastdecode.decode_layer_batched — one vectorized varint/unzig/
    cumsum pass for ALL features); small layers and ANY anomaly use
    the exact per-feature path, which owns the reference's error
    messages and error order."""
    if end - start >= LAYER_BATCH_BYTES:
        try:
            return fastdecode.decode_layer_batched(
                buf, start, end, _decode_value, _get_meta)
        except fastdecode.FallbackDecode:
            pass
    return _decode_layer_exact(buf, start, end)


def _decode_layer_exact(buf, start: int, end: int) -> Layer:
    version = 1
    name = b""
    extent = None
    keys: list[bytes] = []
    value_spans: list[tuple[int, int]] = []
    feature_spans: list[tuple[int, int]] = []
    # inline field scan (no generator): this and the feature scan are
    # the per-tile hot loops for small tiles
    pos = start
    uvarint = wire.uvarint_decode
    W_VARINT, W_LEN, W_I32, W_I64 = wire.VARINT, wire.LEN, wire.I32, wire.I64
    # inline single-byte varint fast path — see _decode_feature_raw
    try:
        while pos < end:
            key = buf[pos]
            pos += 1
            if key & 0x80:
                key, pos = uvarint(buf, pos - 1)
            fno = key >> 3
            wtype = key & 7
            if wtype == W_LEN:
                ln = buf[pos]
                pos += 1
                if ln & 0x80:
                    ln, pos = uvarint(buf, pos - 1)
                span = (pos, pos + ln)
                if span[1] > end:
                    raise wire.WireError("scan_fields: truncated LEN field")
                pos = span[1]
                if fno == 2:
                    feature_spans.append(span)
                elif fno == 1:
                    name = bytes(buf[span[0]:span[1]])
                elif fno == 3:
                    keys.append(bytes(buf[span[0]:span[1]]))
                elif fno == 4:
                    value_spans.append(span)
            elif wtype == W_VARINT:
                val = buf[pos]
                pos += 1
                if val & 0x80:
                    val, pos = uvarint(buf, pos - 1)
                if fno == 15:
                    version = val
                elif fno == 5:
                    extent = val
            elif wtype == W_I32:
                pos += 4
                if pos > end:
                    raise wire.WireError("scan_fields: truncated I32 field")
            elif wtype == W_I64:
                pos += 8
                if pos > end:
                    raise wire.WireError("scan_fields: truncated I64 field")
            else:
                raise wire.WireError(f"scan_fields: unsupported wire type {wtype}")
    except IndexError:
        raise wire.WireError("uvarint_decode: truncated varint") from None
    if not feature_spans:
        raise CodecError("VectorTile.features: `[RawFeature]` empty")
    values = [_decode_value(buf, s, e) for s, e in value_spans]
    layer = Layer(name=name, version=version,
                  extent=DEFAULT_EXTENT if extent is None else extent)
    for s, e in feature_spans:
        fid, tags, geom_type, geometry = _decode_feature_raw(buf, s, e)
        meta = _get_meta(keys, values, tags)
        try:
            if geom_type == GEOM_POINT:
                layer.points.append(Feature(fid, meta, decode_points(geometry)))
            elif geom_type == GEOM_LINESTRING:
                layer.linestrings.append(Feature(fid, meta, decode_linestrings(geometry)))
            elif geom_type == GEOM_POLYGON:
                layer.polygons.append(Feature(fid, meta, decode_polygons(geometry)))
            else:
                raise CodecError("Geometry type of UNKNOWN given.")
        except GeometryError as g:
            raise CodecError(str(g)) from g
    return layer


SMALL_TILE_BYTES = 64  # below this, the fused one-pass decoder wins


def _decode_tile_small(buf, n: int):
    """Fused straight-line decode for TINY tiles: one pass, no span
    lists, no per-level dispatch — the fixed per-call costs of the
    general three-level scan dominate a 26-byte tile. Specializes the
    common shape only (single-byte field headers and varints, no
    keys/values/tags, packed geometry, known geometry type); returns
    None on ANYTHING else so the exact path owns all semantics and
    error messages (anomalies decode twice — errors are cold)."""
    tile = VectorTile()
    pos = 0
    while pos < n:
        if buf[pos] != 0x1A:  # tag(3, LEN), single-byte
            return None
        pos += 1
        if pos >= n:
            return None
        ln = buf[pos]
        pos += 1
        if ln & 0x80:
            return None
        e = pos + ln
        if e > n:
            return None
        version = 1
        name = b""
        extent = None
        fspans = []
        p = pos
        while p < e:
            k = buf[p]
            p += 1
            if k & 0x80 or p >= e:
                return None
            fno = k >> 3
            wt = k & 7
            if wt == 2:
                l2 = buf[p]
                p += 1
                if l2 & 0x80:
                    return None
                s2 = p
                p += l2
                if p > e:
                    return None
                if fno == 2:
                    fspans.append((s2, p))
                elif fno == 1:
                    name = bytes(buf[s2:p])
                else:  # keys/values/unknown LEN field: exact path owns
                    return None
            elif wt == 0:
                v = buf[p]
                p += 1
                if v & 0x80:  # multi-byte varint value (e.g. extent 4096)
                    b2 = buf[p]
                    if b2 & 0x80:  # 3+ bytes: shared decoder
                        v, p = wire.uvarint_decode(buf, p - 1)
                    else:
                        v = (v & 0x7F) | (b2 << 7)
                        p += 1
                    if p > e:
                        return None
                if fno == 15:
                    version = v
                elif fno == 5:
                    extent = v
                # other varint fields are ignored, as in the exact scan
            else:
                return None
        if not fspans:
            return None  # empty-layer error owned by the exact path
        layer = Layer(name=name, version=version,
                      extent=DEFAULT_EXTENT if extent is None else extent)
        for s2, e2 in fspans:
            fid = 0
            gt = None
            geom = None
            p = s2
            while p < e2:
                k = buf[p]
                p += 1
                if k & 0x80 or p >= e2:
                    return None
                fno = k >> 3
                wt = k & 7
                if wt == 0:
                    v = buf[p]
                    p += 1
                    if v & 0x80:  # multi-byte varint (e.g. a big fid)
                        v, p = wire.uvarint_decode(buf, p - 1)
                        if p > e2:
                            return None
                    if fno == 1:
                        fid = v
                    elif fno == 3:
                        gt = v
                    else:  # unpacked tag/geom word: exact path owns
                        return None
                elif wt == 2:
                    l2 = buf[p]
                    p += 1
                    if l2 & 0x80:
                        return None
                    s3 = p
                    p += l2
                    if p > e2:
                        return None
                    if fno == 4 and geom is None:
                        seg = buf[s3:p]
                        geom = (list(seg) if not seg or max(seg) < 0x80
                                else wire.uvarint_decode_list(seg))
                    else:  # tags / repeated geom / unknown LEN field
                        return None
                else:
                    return None
            if geom is None:
                geom = []
            try:
                if gt == GEOM_POINT:
                    if len(geom) == 3 and geom[0] == 9:
                        # inline single-MoveTo point (the dominant tiny
                        # shape): unzig with int32 truncation, exactly
                        # decode_points' fast path
                        u = geom[1] & 0xFFFFFFFF
                        x = ((u >> 1) ^ (-(u & 1) & 0xFFFFFFFF)) & 0xFFFFFFFF
                        u = geom[2] & 0xFFFFFFFF
                        y = ((u >> 1) ^ (-(u & 1) & 0xFFFFFFFF)) & 0xFFFFFFFF
                        pt = np.empty((1, 2), dtype=np.int64)
                        pt[0, 0] = x - 0x100000000 if x >= 0x80000000 else x
                        pt[0, 1] = y - 0x100000000 if y >= 0x80000000 else y
                        layer.points.append(Feature(fid, {}, pt))
                    else:
                        layer.points.append(
                            Feature(fid, {}, decode_points(geom)))
                elif gt == GEOM_LINESTRING:
                    layer.linestrings.append(
                        Feature(fid, {}, decode_linestrings(geom)))
                elif gt == GEOM_POLYGON:
                    layer.polygons.append(
                        Feature(fid, {}, decode_polygons(geom)))
                else:  # UNKNOWN/missing: error text owned by exact path
                    return None
            except GeometryError:
                return None  # exact path re-raises with reference text
        tile.layers[layer.name] = layer
        pos = e
    return tile


_FEATURE_NEW = Feature.__new__
_LAYER_NEW = Layer.__new__
_TILE_NEW = VectorTile.__new__


def _decode_tile_onepoint(buf, n):
    """STRAIGHT-LINE decode of the canonical single-point tiny tile
    (the dominant tile-server shape and the reference's onepoint.mvt
    benchmark row): one layer in canonical field order (name, ONE
    point feature with single-byte fid and [MoveTo zx zy] geometry,
    extent, version), every header and varint single-byte except the
    2-byte extent. No loops, no span lists; dataclass __init__ is
    bypassed with __new__ + direct slot stores (measured ~2x the
    whole-call throughput vs the fused loop path). Returns None on
    ANY deviation — the fused small scan, then the exact path, own
    all other shapes and every error message."""
    if buf[0] != 0x1A:
        return None
    lay_len = buf[1]
    if (lay_len & 0x80) or 2 + lay_len != n:
        return None
    if buf[2] != 0x0A:
        return None
    name_len = buf[3]
    if name_len & 0x80:
        return None
    p = 4 + name_len
    name = buf[4:p]
    if buf[p] != 0x12:
        return None
    feat_len = buf[p + 1]
    if feat_len & 0x80:
        return None
    fe = p + 2 + feat_len
    p += 2
    fid = 0
    if buf[p] == 0x08:
        fid = buf[p + 1]
        if fid & 0x80:
            return None
        p += 2
    if buf[p] != 0x18 or buf[p + 1] != 1:
        return None
    p += 2
    if buf[p] != 0x22 or buf[p + 1] != 3 or p + 5 != fe:
        return None
    if buf[p + 2] != 9:  # MoveTo, count 1
        return None
    zx = buf[p + 3]
    zy = buf[p + 4]
    if (zx | zy) & 0x80:
        return None
    p = fe
    extent = DEFAULT_EXTENT
    version = 1
    if p < n and buf[p] == 0x28:
        v = buf[p + 1]
        if v & 0x80:
            b2 = buf[p + 2]
            if b2 & 0x80:
                return None
            extent = (v & 0x7F) | (b2 << 7)
            p += 3
        else:
            extent = v
            p += 2
    if p < n and buf[p] == 0x78:
        version = buf[p + 1]
        if version & 0x80:
            return None
        p += 2
    if p != n:
        return None
    pt = np.empty((1, 2), np.int64)
    pt[0, 0] = (zx >> 1) ^ -(zx & 1)  # single-byte zigzag: no int32 wrap
    pt[0, 1] = (zy >> 1) ^ -(zy & 1)
    f = _FEATURE_NEW(Feature)
    f.fid = fid
    f.metadata = {}
    f.geometry = pt
    lay = _LAYER_NEW(Layer)
    lay.name = name
    lay.version = version
    lay.extent = extent
    lay.points = [f]
    lay.linestrings = []
    lay.polygons = []
    tile = _TILE_NEW(VectorTile)
    tile.layers = {name: lay}
    return tile


def decode_tile(buf: bytes) -> VectorTile:
    """`tile` (lib/Geography/VectorTile.hs:70-71). Raises CodecError."""
    n_small = len(buf)
    if n_small <= SMALL_TILE_BYTES:
        try:
            tile = _decode_tile_onepoint(buf, n_small) if n_small >= 10 \
                else None
            if tile is None:
                tile = _decode_tile_small(buf, n_small)
        except (IndexError, wire.WireError):
            tile = None  # general path re-raises with wrapped text
        if tile is not None:
            return tile
    try:
        tile = VectorTile()
        # inline outer scan (no generator): one pass over the tile's
        # field headers; non-layer fields are skipped by wire type
        pos, n = 0, len(buf)
        uvarint = wire.uvarint_decode
        W_VARINT, W_LEN, W_I32, W_I64 = (
            wire.VARINT, wire.LEN, wire.I32, wire.I64)
        try:
            while pos < n:
                key = buf[pos]
                pos += 1
                if key & 0x80:
                    key, pos = uvarint(buf, pos - 1)
                wtype = key & 7
                if wtype == W_LEN:
                    ln = buf[pos]
                    pos += 1
                    if ln & 0x80:
                        ln, pos = uvarint(buf, pos - 1)
                    s, e = pos, pos + ln
                    if e > n:
                        raise wire.WireError("scan_fields: truncated LEN field")
                    pos = e
                    if key >> 3 == 3:
                        layer = _decode_layer(buf, s, e)
                        tile.layers[layer.name] = layer  # dup name: last wins
                elif wtype == W_VARINT:
                    while buf[pos] & 0x80:
                        pos += 1
                    pos += 1
                elif wtype == W_I32:
                    pos += 4
                    if pos > n:
                        raise wire.WireError(
                            "scan_fields: truncated I32 field")
                elif wtype == W_I64:
                    pos += 8
                    if pos > n:
                        raise wire.WireError(
                            "scan_fields: truncated I64 field")
                else:
                    raise wire.WireError(
                        f"scan_fields: unsupported wire type {wtype}")
        except IndexError:
            raise wire.WireError("uvarint_decode: truncated varint") from None
        return tile
    except wire.WireError as w:
        raise CodecError(str(w)) from w


def layer_names(buf: bytes) -> list:
    """Names of all layers WITHOUT decoding features — the engine's
    analogue of the reference's lazy partial access (README.md:105-119;
    Bench.hs:63-64 benchmarks exactly this). Scans only each layer's
    field headers and its name field; feature/value payloads are
    skipped via their length prefixes."""
    names = []
    for fno, wtype, val in wire.scan_fields(buf, 0, len(buf)):
        if fno == 3 and wtype == wire.LEN:
            s, e = val
            for lf, lw, lv in wire.scan_fields(buf, s, e):
                if lf == 1 and lw == wire.LEN:
                    ns, ne = lv
                    names.append(bytes(buf[ns:ne]))
                    break  # name found; skip the rest of this layer
    return names


def first_feature(buf: bytes, name: bytes, geom_type: int):
    """First feature of ``geom_type`` in the named layer, decoding ONLY
    that feature — the engine twin of the reference's lazy partial
    access (Bench.hs:63-67 fetches one layer's first polygon without
    forcing the rest). Other layers are skipped via length prefixes;
    within the layer, feature payloads are only header-scanned until
    the first type match, and the value table is decoded only at the
    indices that feature's tags reference. Duplicate layer names keep
    the reference's last-wins rule. Returns a Feature or None."""
    span = None
    for fno, wtype, val in wire.scan_fields(buf, 0, len(buf)):
        if fno != 3 or wtype != wire.LEN:
            continue
        s, e = val
        for lf, lw, lv in wire.scan_fields(buf, s, e):
            if lf == 1 and lw == wire.LEN:
                ns, ne = lv
                if bytes(buf[ns:ne]) == name:
                    span = (s, e)  # last wins
                break
    if span is None:
        return None
    for lf, lw, lv in wire.scan_fields(buf, *span):
        if lf == 2 and lw == wire.LEN:
            fid, tags, gtype, geometry = _decode_feature_raw(buf, *lv)
            if gtype != geom_type:
                continue
            # lazily finish collecting the layer's keys/value spans
            # (fields may appear after this feature in the stream)
            rest_keys, rest_vals = [], []
            for rf, rw, rv in wire.scan_fields(buf, *span):
                if rf == 3 and rw == wire.LEN:
                    ks, ke = rv
                    rest_keys.append(bytes(buf[ks:ke]))
                elif rf == 4 and rw == wire.LEN:
                    rest_vals.append(rv)
            t = tags[:-1] if len(tags) % 2 else tags
            values = {}
            for vi in {int(v) for v in t[1::2]}:
                if vi >= len(rest_vals):
                    raise CodecError(
                        f"tag index out of range: {vi} vs {len(rest_vals)}")
                values[vi] = _decode_value(buf, *rest_vals[vi])
            meta = {}
            for i in range(0, len(t), 2):
                k = int(t[i])
                if k >= len(rest_keys):
                    raise CodecError(
                        f"tag index out of range: {k} vs {len(rest_keys)}")
                meta[rest_keys[k]] = values[int(t[i + 1])]
            try:
                if gtype == GEOM_POINT:
                    geom = decode_points(geometry)
                elif gtype == GEOM_LINESTRING:
                    geom = decode_linestrings(geometry)
                elif gtype == GEOM_POLYGON:
                    geom = decode_polygons(geometry)
                else:
                    raise CodecError("Geometry type of UNKNOWN given.")
            except GeometryError as g:
                raise CodecError(str(g)) from g
            return Feature(fid, meta, geom)
    return None


def decode_tile_safe(buf: bytes):
    """Never raises: returns (VectorTile | None, error_message | None) —
    the engine's row-level error channel (errors become an `error`
    column, never an exception kill)."""
    try:
        return decode_tile(buf), None
    except (CodecError, Exception) as e:  # noqa: BLE001 — row-level isolation
        return None, f"{type(e).__name__}: {e}"
