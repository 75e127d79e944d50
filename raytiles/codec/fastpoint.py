"""Vectorized columnar MVT encoder for the flagship's point layers.

Encodes MANY tiles in one numpy pass: all per-feature wire pieces
(ids, tag indices, geometry commands, value dictionaries) are computed
as flat arrays across every tile in the batch, then scattered into one
output byte buffer with ragged-copy index arithmetic. The only
per-tile Python work is two buffer slices and a small join.

Byte-for-byte identical to the generic encoder (codec.encode) for the
shape it covers — a single layer of point features with metadata
{url: St, mention_idx: I64} — which is asserted by tests against
encode_tile on random tiles. Wire layout follows the reference
(Layer.hs:51-55, Feature.hs:37-40, Value.hs:53-57; id always written,
Internal.hs:339).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import wire

LAYER_NAME = b"mentions"
KEY_URL = b"url"
KEY_MIDX = b"mention_idx"


def _varint_lengths(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64)
    n = np.ones(v.shape, dtype=np.int64)
    for k in range(1, 10):
        t = np.uint64(1) << np.uint64(7 * k)
        if not (v >= t).any():
            break
        n += v >= t
    return n


def _ragged_target_idx(dst_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat destination indices for copying chunk i (length l_i) to
    dst_starts[i]: [d0, d0+1, .., d0+l0-1, d1, ...]. Built with ONE
    cumsum over step deltas (no np.repeat / modular arithmetic — those
    dominated the encoder's profile at mega-tile scale)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    nz = np.flatnonzero(lengths)
    d = dst_starts[nz]
    ln = lengths[nz]
    out = np.ones(total, dtype=np.int64)
    out[0] = d[0]
    if ln.size > 1:
        pos = np.cumsum(ln)[:-1]
        out[pos] = d[1:] - (d[:-1] + ln[:-1]) + 1
    return np.cumsum(out, out=out)


def _write_varints(out: np.ndarray, dst_starts: np.ndarray,
                   values: np.ndarray, lengths: np.ndarray) -> None:
    """Encode uvarints DIRECTLY into the output buffer as byte planes:
    pass j writes byte j of every varint still active (one shift + one
    fancy-index scatter per plane, <= 10 planes, typically 1-3). No
    intermediate varint byte stream, no per-element ragged index
    arithmetic — this replaced a uvarint_encode_array + ragged-scatter
    pipeline that dominated the hot-tile encode profile."""
    v = values.astype(np.uint64, copy=False)
    if lengths.size == 0:
        return
    maxlen = int(lengths.max())
    if maxlen == 1:  # common fast path: all single-byte
        out[dst_starts] = v.astype(np.uint8)
        return
    # plane 0 over all, later planes over the still-active subset
    cont = lengths > 1
    out[dst_starts] = (v & np.uint64(0x7F)).astype(np.uint8) \
        | (cont.astype(np.uint8) << np.uint8(7))
    active = np.flatnonzero(cont)
    for j in range(1, maxlen):
        d = dst_starts[active] + j
        vv = (v[active] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = lengths[active] > j + 1
        out[d] = vv.astype(np.uint8) | (cont.astype(np.uint8) << np.uint8(7))
        if j + 1 < maxlen:
            active = active[cont]


def _scatter_varints(out: np.ndarray, dst_starts: np.ndarray,
                     src: np.ndarray, lengths: np.ndarray) -> None:
    """Scatter concatenated variable-length chunks to dst_starts.
    Fast path: chunks of length 1 (the overwhelmingly common varint
    size here) are a single fancy-index assignment; only the rare
    longer chunks pay the ragged-index arithmetic."""
    one = lengths == 1
    if one.all():
        out[dst_starts] = src
        return
    src_starts = np.cumsum(lengths) - lengths
    out[dst_starts[one]] = src[src_starts[one]]
    rest = ~one
    if rest.any():
        idx = _ragged_target_idx(dst_starts[rest], lengths[rest])
        sidx = _ragged_target_idx(src_starts[rest], lengths[rest])
        out[idx] = src[sidx]


def _zig32(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64)
    return ((v << np.int64(1)) ^ (v >> np.int64(63))).astype(np.uint64)


def encode_point_tiles(tile_offsets: np.ndarray,
                       urls: pa.Array | pa.ChunkedArray,
                       midx: np.ndarray,
                       lx: np.ndarray,
                       ly: np.ndarray,
                       extent: int = 4096,
                       version: int = 2) -> pa.BinaryArray:
    """Encode T tiles at once.

    tile_offsets: int64 (T+1,) feature spans per tile into the flat
    arrays (features already sorted (url, mention_idx) within tile);
    urls: Arrow string array (flat); midx/lx/ly: int arrays (flat).
    Returns the T mvt messages as one binary array over the encode
    buffer (zero-copy); a tile without features is b"".
    """
    n = int(tile_offsets[-1])
    T = tile_offsets.size - 1
    if n == 0:
        return pa.array([b""] * T, pa.binary())
    tile_of = np.repeat(np.arange(T), np.diff(tile_offsets))

    # ---- per-tile value dictionaries (first-appearance order over the
    # interleaved url,midx stream) via pure integer factorization:
    # value identity = 2*url_code for St values, 2*midx+1 for I64.
    # The urls stay Arrow: dictionary_encode runs in C++ and the
    # distinct-url lengths come straight from the dictionary's offsets
    # buffer — no Python string ever materializes ----
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    if not pa.types.is_string(urls.type):
        # large_string (int64 offsets) or a view type would garble
        # the int32 raw-offsets read below — normalize to utf8
        urls = urls.cast(pa.string())
    denc = urls.dictionary_encode()
    url_codes = denc.indices.to_numpy().astype(np.int64)
    dict_arr = denc.dictionary
    assert pa.types.is_string(dict_arr.type), dict_arr.type
    u_offs = np.frombuffer(dict_arr.buffers()[1], dtype=np.int32)[
        dict_arr.offset:dict_arr.offset + len(dict_arr) + 1].astype(np.int64)
    url_len_by_code = np.diff(u_offs)
    inter_code = np.empty(2 * n, dtype=np.int64)
    inter_code[0::2] = 2 * url_codes.astype(np.int64)
    inter_code[1::2] = 2 * midx.astype(np.int64) + 1
    inter_tile = np.repeat(tile_of, 2)
    K = int(inter_code.max()) + 1
    pair = inter_tile * K + inter_code
    uniq_pair, first_idx, inverse = np.unique(pair, return_index=True, return_inverse=True)
    # dictionary index of each unique pair = rank of its first
    # appearance within its tile
    u_tile = uniq_pair // K
    ord_fa = np.lexsort((first_idx, u_tile))  # tile-major, appearance order
    counts_per_tile = np.bincount(u_tile, minlength=T)
    tile_starts_u = np.concatenate([[0], np.cumsum(counts_per_tile)])[:-1]
    rank_within = np.empty(uniq_pair.size, dtype=np.int64)
    rank_within[ord_fa] = (np.arange(uniq_pair.size, dtype=np.int64)
                           - np.repeat(tile_starts_u, counts_per_tile))
    vidx = rank_within[inverse]
    v_url = vidx[0::2].astype(np.uint64)
    v_midx = vidx[1::2].astype(np.uint64)

    # uniques in per-tile dictionary order: rows first_idx[ord_fa]
    uniq_rows = first_idx[ord_fa]
    uniq_is_url = np.zeros(2 * n, dtype=bool)
    uniq_is_url[0::2] = True
    vals_tile = inter_tile[uniq_rows]

    # ---- wire pieces as flat streams ----
    # feature-local ids
    starts = tile_offsets[:-1]
    fid = np.arange(n, dtype=np.int64) - np.repeat(starts, np.diff(tile_offsets))
    fid_u = fid.astype(np.uint64)
    len_fid = _varint_lengths(fid_u)
    # tags payload: varints of [0, v_url, 1, v_midx]
    tags_vals = np.empty((n, 4), dtype=np.uint64)
    tags_vals[:, 0] = 0
    tags_vals[:, 1] = v_url
    tags_vals[:, 2] = 1
    tags_vals[:, 3] = v_midx
    tags_flat = tags_vals.ravel()
    len_tags_each = _varint_lengths(tags_flat).reshape(n, 4)
    len_tags = len_tags_each.sum(axis=1)
    # geometry: [9, zig(lx), zig(ly)]
    zx = _zig32(lx)
    zy = _zig32(ly)
    geom_vals = np.empty((n, 3), dtype=np.uint64)
    geom_vals[:, 0] = 9
    geom_vals[:, 1] = zx
    geom_vals[:, 2] = zy
    geom_flat = geom_vals.ravel()
    len_geom_each = _varint_lengths(geom_flat).reshape(n, 3)
    len_geom = len_geom_each.sum(axis=1)

    len_tags_len = _varint_lengths(len_tags.astype(np.uint64))
    len_geom_len = _varint_lengths(len_geom.astype(np.uint64))
    # feature message: 08 <fid> 12 <len> <tags> 18 01 22 <len> <geom>
    msg_len = 1 + len_fid + 1 + len_tags_len + len_tags + 2 + 1 + len_geom_len + len_geom
    len_msg_len = _varint_lengths(msg_len.astype(np.uint64))
    feat_total = 1 + len_msg_len + msg_len  # 12 <msglen> <msg>

    # ---- value-section lengths (computed before layout so features
    # and values write DIRECTLY into the final buffer) ----
    is_url_u = uniq_is_url[uniq_rows]
    u_codes = inter_code[uniq_rows]
    st_codes = u_codes[is_url_u] // 2
    st_len = url_len_by_code[st_codes]
    st_len_len = _varint_lengths(st_len.astype(np.uint64))
    iv = ((u_codes[~is_url_u] - 1) // 2).astype(np.int64).astype(np.uint64)
    iv_len = _varint_lengths(iv)
    nu = uniq_rows.size
    inner_len = np.empty(nu, dtype=np.int64)
    inner_len[is_url_u] = 1 + st_len_len + st_len
    inner_len[~is_url_u] = 1 + iv_len
    inner_len_len = _varint_lengths(inner_len.astype(np.uint64))
    val_total = 1 + inner_len_len + inner_len  # 22 <len> <inner>

    # ---- final buffer layout ----
    nfeat = np.diff(tile_offsets)
    feat_cum = np.concatenate([[0], np.cumsum(feat_total)])
    tile_feat_len = feat_cum[tile_offsets[1:]] - feat_cum[tile_offsets[:-1]]
    vcount = np.bincount(vals_tile, minlength=T)
    val_cum = np.concatenate([[0], np.cumsum(val_total)])
    v_off = np.concatenate([[0], np.cumsum(vcount)])
    tile_val_len = val_cum[v_off[1:]] - val_cum[v_off[:-1]]

    keys_bytes = (wire.tag(3, wire.LEN) + wire.uvarint_encode(len(KEY_URL)) + KEY_URL
                  + wire.tag(3, wire.LEN) + wire.uvarint_encode(len(KEY_MIDX)) + KEY_MIDX)
    name_bytes = wire.tag(1, wire.LEN) + wire.uvarint_encode(len(LAYER_NAME)) + LAYER_NAME
    tail_bytes = (wire.tag(5, wire.VARINT) + wire.uvarint_encode(extent)
                  + wire.tag(15, wire.VARINT) + wire.uvarint_encode(version))
    fixed_len = len(name_bytes) + len(keys_bytes) + len(tail_bytes)

    layer_len = fixed_len + tile_feat_len + tile_val_len
    layer_len_len = _varint_lengths(layer_len.astype(np.uint64))
    tile_total = np.where(nfeat > 0, 1 + layer_len_len + layer_len, 0)
    tile_starts_b = np.cumsum(tile_total) - tile_total
    buf = np.empty(int(tile_total.sum()), dtype=np.uint8)

    # per-tile section origins
    tile_content = tile_starts_b + 1 + layer_len_len + len(name_bytes)  # features origin
    tile_vals_origin = tile_content + tile_feat_len + len(keys_bytes)   # values origin

    # ---- write features at absolute positions (varints encode
    # directly into the buffer as byte planes — see _write_varints) ----
    # rel position of each feature within its tile's feature block
    rel_feat = (feat_cum[:-1] - np.repeat(feat_cum[tile_offsets[:-1]], nfeat))
    p = np.repeat(tile_content, nfeat) + rel_feat
    buf[p] = 0x12
    _write_varints(buf, p + 1, msg_len, len_msg_len)
    q = p + 1 + len_msg_len
    buf[q] = 0x08
    _write_varints(buf, q + 1, fid_u, len_fid)
    r = q + 1 + len_fid
    buf[r] = 0x12
    _write_varints(buf, r + 1, len_tags, len_tags_len)
    tp = r + 1 + len_tags_len
    tag_off = np.zeros((n, 4), dtype=np.int64)
    tag_off[:, 1:] = np.cumsum(len_tags_each, axis=1)[:, :-1]
    _write_varints(buf, (tp[:, None] + tag_off).ravel(), tags_flat,
                   len_tags_each.ravel())
    sbase = tp + len_tags
    buf[sbase] = 0x18
    buf[sbase + 1] = 0x01
    buf[sbase + 2] = 0x22
    _write_varints(buf, sbase + 3, len_geom, len_geom_len)
    gp = sbase + 3 + len_geom_len
    geom_off = np.zeros((n, 3), dtype=np.int64)
    geom_off[:, 1:] = np.cumsum(len_geom_each, axis=1)[:, :-1]
    _write_varints(buf, (gp[:, None] + geom_off).ravel(), geom_flat,
                   len_geom_each.ravel())

    # ---- write values at absolute positions ----
    rel_val = val_cum[:-1] - np.repeat(val_cum[v_off[:-1]], vcount)
    vp = np.repeat(tile_vals_origin, vcount) + rel_val
    buf[vp] = 0x22
    _write_varints(buf, vp + 1, inner_len, inner_len_len)
    ip = vp + 1 + inner_len_len
    st_ip = ip[is_url_u]
    buf[st_ip] = 0x0A
    _write_varints(buf, st_ip + 1, st_len, st_len_len)
    st_data_starts = st_ip + 1 + st_len_len
    if st_codes.size:
        dst = _ragged_target_idx(st_data_starts, st_len)
        # Arrow take concatenates the payload bytes CONTIGUOUSLY in
        # output order — one gather in C++ instead of a second ragged
        # source-index build over every payload byte
        taken = dict_arr.take(pa.array(st_codes, pa.int64()))
        tb = taken.buffers()
        toffs = np.frombuffer(tb[1], dtype=np.int32)
        lo = toffs[taken.offset]
        hi = toffs[taken.offset + len(taken)]
        buf[dst] = np.frombuffer(tb[2], dtype=np.uint8)[lo:hi]
    iv_ip = ip[~is_url_u]
    buf[iv_ip] = 0x20
    _write_varints(buf, iv_ip + 1, iv, iv_len)

    # ---- fixed sections + headers per nonempty tile ----
    tnz = np.flatnonzero(nfeat > 0)
    hp = tile_starts_b[tnz]
    buf[hp] = 0x1A  # tag(3, LEN)
    _write_varints(buf, hp + 1, layer_len[tnz], layer_len_len[tnz])
    name_arr = np.frombuffer(name_bytes, np.uint8)
    nq = hp + 1 + layer_len_len[tnz]
    buf[(nq[:, None] + np.arange(len(name_bytes))[None, :]).ravel()] = \
        np.tile(name_arr, tnz.size)
    keys_arr = np.frombuffer(keys_bytes, np.uint8)
    kq = tile_content[tnz] + tile_feat_len[tnz]
    buf[(kq[:, None] + np.arange(len(keys_bytes))[None, :]).ravel()] = \
        np.tile(keys_arr, tnz.size)
    tail_arr = np.frombuffer(tail_bytes, np.uint8)
    tq = tile_vals_origin[tnz] + tile_val_len[tnz]
    buf[(tq[:, None] + np.arange(len(tail_bytes))[None, :]).ravel()] = \
        np.tile(tail_arr, tnz.size)

    # tiles lie back to back in buf, so their offsets are tile_total's
    # running sum; binary's int32 offsets bound one batch's output
    if buf.size >= 2**31:
        raise OverflowError(f"{buf.size} encoded bytes exceed one binary array")
    offsets = np.concatenate([[0], np.cumsum(tile_total)]).astype(np.int32)
    return pa.BinaryArray.from_buffers(
        pa.binary(), T, [None, pa.py_buffer(offsets), pa.py_buffer(buf)])
