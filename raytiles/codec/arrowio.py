"""MVT <-> Arrow feature tables (the columnar data model of
SURVEY §1.2 / FIXTURES B3).

``tiles_to_feature_table`` explodes a batch of encoded tiles into one
Arrow row PER FEATURE:

    z:int32, x:int32, y:int32, layer:string, feature_id:uint64,
    geom_type:uint8 (1=point 2=linestring 3=polygon),
    geometry: list<list<struct<x:int32, y:int32>>>   (parts/rings),
    meta: map<string, struct<string_v:string, float_v:float,
          double_v:double, int_v:int64, uint_v:uint64, sint_v:int64,
          bool_v:bool>>

The 7-field struct mirrors Tile.Value exactly so the wire variant
survives columnar roundtrip (I64 5 != W64 5 != S64 5 — SURVEY §1.2).
Polygon rings are flattened in wire order (exterior, its holes, next
exterior, ...) — hole grouping is recomputable from the shoelace sign.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import decode_tile_safe
from .model import BV, DO, FL, I64V, S64V, ST, W64V

VALUE_STRUCT = pa.struct([
    ("string_v", pa.string()), ("float_v", pa.float32()),
    ("double_v", pa.float64()), ("int_v", pa.int64()),
    ("uint_v", pa.uint64()), ("sint_v", pa.int64()), ("bool_v", pa.bool_()),
])
META_TYPE = pa.map_(pa.string(), VALUE_STRUCT)
GEOM_TYPE = pa.list_(pa.list_(pa.struct([("x", pa.int32()), ("y", pa.int32())])))

FEATURE_SCHEMA = pa.schema([
    ("z", pa.int32()), ("x", pa.int32()), ("y", pa.int32()),
    ("layer", pa.string()), ("layer_version", pa.int32()),
    ("layer_extent", pa.int32()), ("feature_id", pa.uint64()),
    ("geom_type", pa.uint8()), ("geometry", GEOM_TYPE),
    ("meta", META_TYPE), ("error", pa.string()),
])

_TAG_FIELD = {ST: "string_v", FL: "float_v", DO: "double_v", I64V: "int_v",
              W64V: "uint_v", S64V: "sint_v", BV: "bool_v"}


def _val_struct(val) -> dict:
    tag, v = val
    out = {f: None for f in ("string_v", "float_v", "double_v", "int_v",
                             "uint_v", "sint_v", "bool_v")}
    out[_TAG_FIELD[tag]] = v.decode("utf-8", errors="replace") if tag == ST else v
    return out


def _meta_items(meta: dict) -> list:
    return [(k.decode("utf-8", errors="replace"), _val_struct(v))
            for k, v in meta.items()]


_I32_MIN, _I32_MAX = -(2 ** 31), 2 ** 31 - 1


def _feature_parts(geom, geom_type: int) -> list:
    """One decoded feature -> list of (k, 2) int64 part arrays in wire
    order (points: one part; linestrings: one per segment; polygons:
    rings flattened exterior-then-holes)."""
    if geom_type == 1:
        return [np.asarray(geom, dtype=np.int64).reshape(-1, 2)]
    if geom_type == 2:
        return [np.asarray(s, dtype=np.int64).reshape(-1, 2) for s in geom]
    return [np.asarray(r, dtype=np.int64).reshape(-1, 2)
            for rings in geom for r in rings]


def tiles_to_feature_table(batch: pa.Table) -> pa.Table:
    """{z,x,y,mvt} rows -> per-feature rows (FEATURE_SCHEMA). Decode
    failures become one row with error set (row-level error channel,
    never an exception kill).

    Geometry is assembled with offset arithmetic: per-feature part
    arrays are concatenated ONCE per batch and the nested
    list<list<struct<x,y>>> column is built from flat int32 children +
    offset buffers — no per-point Python dicts (VERDICT r2 item 3)."""
    rows = {name: [] for name in FEATURE_SCHEMA.names if name != "geometry"}
    part_arrays: list[np.ndarray] = []   # flat (k, 2) parts, feature order
    parts_per_feature: list[int] = []

    def emit(z, x, y, layer, fid, gtype, parts, meta, error,
             lversion=2, lextent=4096):
        rows["z"].append(z)
        rows["x"].append(x)
        rows["y"].append(y)
        rows["layer"].append(layer)
        rows["layer_version"].append(lversion)
        rows["layer_extent"].append(lextent)
        rows["feature_id"].append(fid)
        rows["geom_type"].append(gtype)
        part_arrays.extend(parts)
        parts_per_feature.append(len(parts))
        rows["meta"].append(meta)
        rows["error"].append(error)

    for i in range(batch.num_rows):
        z = batch["z"][i].as_py()
        x = batch["x"][i].as_py()
        y = batch["y"][i].as_py()
        tile, err = decode_tile_safe(batch["mvt"][i].as_py())
        if tile is None:
            emit(z, x, y, None, 0, 0, [], [], err)
            continue
        mark = len(rows["z"])  # rollback point for per-tile isolation
        pmark = len(part_arrays)
        try:
            tile_parts: list[np.ndarray] = []
            for name in sorted(tile.layers):
                layer = tile.layers[name]
                lname = name.decode("utf-8", errors="replace")
                for gtype, feats in ((1, layer.points), (2, layer.linestrings),
                                     (3, layer.polygons)):
                    for f in feats:
                        parts = _feature_parts(f.geometry, gtype)
                        tile_parts.extend(parts)
                        emit(z, x, y, lname, f.fid, gtype, parts,
                             _meta_items(f.metadata), None,
                             layer.version, layer.extent)
            # one int32-range check per TILE (legal on the wire as
            # int32 deltas, unrepresentable in the int32 schema)
            if tile_parts:
                allc = np.concatenate(tile_parts)
                if allc.size and (allc.min() < _I32_MIN or allc.max() > _I32_MAX):
                    raise ValueError("accumulated coordinate beyond int32 range")
        except (OverflowError, ValueError, pa.ArrowInvalid) as e:
            # Row-level error channel: one error row, batch survives.
            for col in rows.values():
                del col[mark:]
            del part_arrays[pmark:]
            del parts_per_feature[mark:]
            emit(z, x, y, None, 0, 0, [], [], f"{type(e).__name__}: {e}")

    if part_arrays:
        flat = np.concatenate(part_arrays)
        part_lens = np.fromiter((p.shape[0] for p in part_arrays),
                                dtype=np.int64, count=len(part_arrays))
    else:
        flat = np.empty((0, 2), np.int64)
        part_lens = np.empty(0, np.int64)
    inner_off = np.zeros(part_lens.size + 1, np.int64)
    np.cumsum(part_lens, out=inner_off[1:])
    inner_off = inner_off.astype(np.int32)
    outer_off = np.zeros(len(parts_per_feature) + 1, np.int64)
    np.cumsum(np.asarray(parts_per_feature, np.int64), out=outer_off[1:])
    outer_off = outer_off.astype(np.int32)
    pts = pa.StructArray.from_arrays(
        [pa.array(np.ascontiguousarray(flat[:, 0]).astype(np.int32)),
         pa.array(np.ascontiguousarray(flat[:, 1]).astype(np.int32))],
        names=["x", "y"])
    geometry = pa.ListArray.from_arrays(
        pa.array(outer_off, pa.int32()),
        pa.ListArray.from_arrays(pa.array(inner_off, pa.int32()), pts))

    return pa.table({
        "z": pa.array(rows["z"], pa.int32()),
        "x": pa.array(rows["x"], pa.int32()),
        "y": pa.array(rows["y"], pa.int32()),
        "layer": pa.array(rows["layer"], pa.string()),
        "layer_version": pa.array(rows["layer_version"], pa.int32()),
        "layer_extent": pa.array(rows["layer_extent"], pa.int32()),
        "feature_id": pa.array(rows["feature_id"], pa.uint64()),
        "geom_type": pa.array(rows["geom_type"], pa.uint8()),
        "geometry": geometry,
        "meta": pa.array(rows["meta"], META_TYPE),
        "error": pa.array(rows["error"], pa.string()),
    })


def feature_table_to_tiles(table: pa.Table) -> pa.Table:
    """Inverse: per-feature rows -> encoded {z,x,y,mvt} (generic
    encoder; polygon hole re-grouping by shoelace sign).

    Columnar access throughout (VERDICT r2 item 3): one stable lexsort
    on (z,x,y), flat numpy views of the nested geometry buffers, and
    per-feature part slices — no pandas, no iterrows, no per-point
    ``.as_py()``.

    Test reference: test_arrow_feature_table_roundtrip checks
    ``tiles_to_feature_table`` against this inverse."""
    from .encode import encode_tile
    from .geometry import surveyor
    from .model import Feature, Layer, VectorTile

    t = table.combine_chunks()
    n = t.num_rows
    if n == 0:
        return pa.table({
            "z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
            "y": pa.array([], pa.int32()), "mvt": pa.array([], pa.binary()),
        })
    zc = t["z"].to_numpy(zero_copy_only=False)
    xc = t["x"].to_numpy(zero_copy_only=False)
    yc = t["y"].to_numpy(zero_copy_only=False)
    order = np.lexsort((yc, xc, zc))  # stable: intra-group order kept
    ts = t.take(pa.array(order))
    zs = zc[order]
    xs = xc[order]
    ys = yc[order]
    layers_col = ts["layer"].to_pylist()
    lver = ts["layer_version"].to_numpy(zero_copy_only=False)
    lext = ts["layer_extent"].to_numpy(zero_copy_only=False)
    fid = ts["feature_id"].to_numpy(zero_copy_only=False)
    gtc = ts["geom_type"].to_numpy(zero_copy_only=False)
    meta_col = ts["meta"].to_pylist()  # one C pass: list of [(k, {...})]
    geom = ts.column("geometry").combine_chunks()
    if geom.offset != 0:  # compact a sliced layout before raw-buffer reads
        geom = pa.array(geom.to_pylist(), GEOM_TYPE)
    outer_off = geom.offsets.to_numpy()
    inner = geom.values
    inner_off = inner.offsets.to_numpy()
    pts = inner.values
    coords = np.empty((len(pts), 2), np.int64)
    coords[:, 0] = pts.field("x").to_numpy(zero_copy_only=False)
    coords[:, 1] = pts.field("y").to_numpy(zero_copy_only=False)

    if n > 1:
        chg = np.flatnonzero((np.diff(zs) != 0) | (np.diff(xs) != 0)
                             | (np.diff(ys) != 0)) + 1
    else:
        chg = np.empty(0, np.int64)
    starts = np.concatenate([[0], chg]).astype(np.int64)
    ends = np.concatenate([chg, [n]]).astype(np.int64)

    out = {"z": [], "x": [], "y": [], "mvt": []}
    for a, b in zip(starts, ends):
        layers: dict = {}
        for i in range(a, b):
            lname = layers_col[i]
            if lname is None:
                continue
            name = lname.encode("utf-8")
            layer = layers.setdefault(name, Layer(
                name=name, version=int(lver[i]), extent=int(lext[i])))
            meta = {}
            for k, v in (meta_col[i] or []):
                for tag, field in _TAG_FIELD.items():
                    if v[field] is not None:
                        val = v[field]
                        if tag == ST:
                            val = val.encode("utf-8")
                        elif tag == FL:
                            val = float(val)
                        meta[k.encode("utf-8")] = (tag, val)
                        break
            parts = [coords[inner_off[p]:inner_off[p + 1]]
                     for p in range(outer_off[i], outer_off[i + 1])]
            gt = int(gtc[i])
            if gt == 1:
                layer.points.append(Feature(int(fid[i]), meta, parts[0]))
            elif gt == 2:
                layer.linestrings.append(Feature(int(fid[i]), meta, parts))
            else:
                polys: list = []
                for ring in parts:
                    if surveyor(ring) > 0 or not polys:
                        polys.append([ring])
                    else:
                        polys[-1].append(ring)
                layer.polygons.append(Feature(int(fid[i]), meta, polys))
        out["z"].append(zs[a])
        out["x"].append(xs[a])
        out["y"].append(ys[a])
        out["mvt"].append(encode_tile(VectorTile(layers)))
    return pa.table({
        "z": pa.array(out["z"], pa.int32()), "x": pa.array(out["x"], pa.int32()),
        "y": pa.array(out["y"], pa.int32()),
        "mvt": pa.array(out["mvt"], pa.binary()),
    })
