"""Geoparsing: extract lat/lon mentions from web-page text.

Three mention grammars, chosen to be exactly re-expressible in the
DuckDB oracle's regexp functions:

  fmt1:  "located at 37.7749, -122.4194"
  fmt2:  "(lat 51.5074, lon -0.1278)"
  fmt3:  "40.7128N 74.0060W"           (hemisphere-suffixed, abs values)

All coordinates are printed with exactly 4 decimals by the generator;
the \\d{1,3}\\.\\d{4} shape keeps decoy numerals (prices "12.99",
versions "3.2.1", dates "12.05.2024") from parsing. Mentions are
indexed by appearance order within the document (mention_idx, 0-based).
Out-of-range coordinates (|lat| > 85.05, |lon| > 180) are dropped.

``GeoParser.parse_arrow`` does not run the regex: it is a one-pass
numpy scanner over the Arrow UTF-8 buffer that finds exactly the
matches of ``re.finditer(MASTER_RE)`` over each document (leftmost
first, non-overlapping). ``GeoParser._py_scan_arrow`` runs the regex
itself and is the reference the scanner is tested against.

SQL twin (see raytiles/oracles.py):
  unnest(regexp_extract_all(text, MASTER_RE)) with
  generate_subscripts(...) for order, then per-match CASE parsing.
"""

from __future__ import annotations

import re

import numpy as np

# NOTE: keep these three in sync with the oracle SQL in oracles.py.
FMT1 = r"located at (-?\d{1,2}\.\d{4}), (-?\d{1,3}\.\d{4})"
FMT2 = r"\(lat (-?\d{1,2}\.\d{4}), lon (-?\d{1,3}\.\d{4})\)"
FMT3 = r"(\d{1,2}\.\d{4})([NS]) (\d{1,3}\.\d{4})([EW])"

# alternation for in-order matching; grammars have disjoint prefixes
MASTER_RE = f"(?:{FMT1})|(?:{FMT2})|(?:{FMT3})"

MAX_LAT = 85.05

PIECE_BYTES = 1 << 20  # text bytes per scan (see _pieces)

_EMPTY = (np.empty(0, np.int64), np.empty(0, np.int32),
          np.empty(0, np.float64), np.empty(0, np.float64))


def _renumber(row: np.ndarray) -> np.ndarray:
    """Appearance order within each row of a row-sorted array."""
    run_first = np.zeros(row.size, dtype=np.int64)
    if row.size:
        change = np.empty(row.size, dtype=bool)
        change[0] = True
        change[1:] = row[1:] != row[:-1]
        firsts = np.flatnonzero(change)
        run_first = np.repeat(firsts, np.diff(np.append(firsts, row.size)))
    return np.arange(row.size, dtype=np.int64) - run_first


def _buffers(arr):
    """A string array's (uint8 data, int64-or-int32 offsets) views, no
    copy; any type other than string / large_string is cast first."""
    import pyarrow as pa
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        arr = arr.cast(pa.string())
    otype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    _, obuf, dbuf = arr.buffers()
    offs = np.frombuffer(obuf, dtype=otype)[arr.offset:arr.offset + len(arr) + 1]
    data = np.frombuffer(dbuf, dtype=np.uint8) if dbuf is not None \
        else np.zeros(0, np.uint8)
    return arr, data, offs


def _pieces(col):
    """Doc-aligned pieces of a string column of about PIECE_BYTES each,
    as (first row, array): runs of small chunks are concatenated (a copy
    of at most one piece), larger chunks sliced at doc boundaries. A
    scan's fixed cost is ~0.6 ms and its temporaries grow with the
    piece, so both tiny and whole-column pieces are slower."""
    import pyarrow as pa
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    run, run_row, run_bytes, row = [], 0, 0, 0
    for chunk in chunks:
        if chunk.nbytes > PIECE_BYTES:
            if run:
                yield run_row, pa.concat_arrays(run)
                run, run_bytes = [], 0
            _, _, offs = _buffers(chunk)
            cuts = np.searchsorted(offs, np.arange(int(offs[0]), int(offs[-1]),
                                                   PIECE_BYTES)[1:])
            bounds = np.unique(np.concatenate([[0], cuts, [len(chunk)]]))
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                yield row + a, chunk.slice(a, b - a)
        elif len(chunk):
            if not run:
                run_row = row
            run.append(chunk)
            run_bytes += chunk.nbytes
            if run_bytes >= PIECE_BYTES:
                yield run_row, pa.concat_arrays(run)
                run, run_bytes = [], 0
        row += len(chunk)
    if run:
        yield run_row, pa.concat_arrays(run)


class _Bytes:
    """Byte gathers over one buffer at arrays of positions. Positions
    past either end read the end byte; callers bound every match by
    its doc."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def at(self, pos: np.ndarray) -> np.ndarray:
        return self.data.take(pos, mode="clip")

    def digit(self, pos: np.ndarray) -> np.ndarray:
        """-> uint8 digit values; non-digits wrap to >= 10."""
        return self.at(pos) - ord("0")

    def literal(self, pos: np.ndarray, text: bytes) -> np.ndarray:
        ok = self.at(pos) == text[0]
        for j in range(1, len(text)):
            ok &= self.at(pos + j) == text[j]
        return ok

    def fixed4(self, int_part: np.ndarray, dot: np.ndarray, neg: np.ndarray):
        """(ok, value) of ``int_part`` and the 4 digits after ``dot``.
        The value is bit-equal to float() of the text: IEEE division of
        two exact integers is correctly rounded, as is float()'s
        decimal parse."""
        ok = np.ones(dot.size, bool)
        frac = np.zeros(dot.size, np.int64)
        for j in range(1, 5):
            x = self.digit(dot + j)
            ok &= x < 10
            frac = frac * 10 + x
        v = (int_part * 10000 + frac) / 10000.0
        return ok, np.where(neg, -v, v)

    def number(self, pos: np.ndarray, signed: np.ndarray):
        """``-?\\d{1,3}\\.\\d{4}`` at ``pos``, the sign allowed where
        ``signed`` -> (ok, value, end). The digit run must be 1-3 long
        and end at the dot, as the regex's backtracking demands."""
        neg = signed & (self.at(pos) == ord("-"))
        p = pos + neg
        ip = np.zeros(pos.size, np.int64)
        width = np.zeros(pos.size, np.int64)
        run = np.ones(pos.size, bool)
        for j in range(3):
            x = self.digit(p + j)
            run &= x < 10
            ip = np.where(run, ip * 10 + x, ip)
            width += run
        dot = p + width
        ok, value = self.fixed4(ip, dot, neg)
        return ok & (width > 0) & (self.at(dot) == ord(".")), value, dot + 5


def _scan(arr):
    """One string array -> the regex's matches, unfiltered:
    (row, lat, lon) in appearance order.

    Every match has an anchor at its latitude's dot: a digit before it,
    4 digits after, then ``,`` (fmt1, fmt2) or ``N``/``S`` (fmt3). The
    grammars' literals are tested at fixed offsets from each anchor; a
    candidate must start and end inside its anchor's doc. Candidates
    that overlap their predecessor (fmt1 ending in digits, then fmt3
    whose integer digits run into them) are resolved per doc, left to
    right, as the regex would."""
    arr, data, offs = _buffers(arr)
    lo, hi = int(offs[0]), int(offs[-1])
    if hi <= lo:
        return _EMPTY[0], _EMPTY[2], _EMPTY[3]
    b = _Bytes(data)
    d = np.flatnonzero(data[lo:hi] == ord("."))
    d += lo
    sep = b.at(d + 5)
    keep = (sep == ord(",")) | (sep == ord("N")) | (sep == ord("S"))
    keep &= b.digit(d - 1) < 10
    d, sep = d[keep], sep[keep]
    row = np.searchsorted(offs, d, side="right") - 1
    ds, de = offs[row], offs[row + 1]
    keep = d - 1 >= ds
    if arr.null_count:
        keep &= arr.is_valid().to_numpy(zero_copy_only=False)[row]
    d, sep, row, ds, de = d[keep], sep[keep], row[keep], ds[keep], de[keep]
    # a second integer digit before the dot, looked up no further back
    # than the doc's start
    x2 = b.digit(d - 2)
    two = (d - 2 >= ds) & (x2 < 10)
    lat_int = np.where(two, x2.astype(np.int64) * 10, 0) + b.digit(d - 1)

    comma = sep == ord(",")
    # fmt1 / fmt2: the prefix ends right before the sign or the 1-2
    # digits (a longer digit run puts a digit where its space must be)
    p = d - 1 - two
    neg = comma & (b.at(p - 1) == ord("-"))
    q = p - neg
    lon_lit = b.literal(d + 5, b", lon ")
    f1 = comma & ~lon_lit & (b.at(d + 6) == ord(" ")) & (q - 11 >= ds) \
        & b.literal(q - 11, b"located at ")
    f2 = comma & lon_lit & (q - 5 >= ds) & b.literal(q - 5, b"(lat ")
    # fmt3: unsigned, the regex starts at the first of <= 2 digits
    f3 = ~comma & (b.at(d + 6) == ord(" "))
    lon_ok, lon, end = b.number(d + 7 + 4 * lon_lit, comma)
    tail = b.at(end)
    f2 &= tail == ord(")")
    f3 &= (tail == ord("E")) | (tail == ord("W"))
    end += f2 | f3
    lat_ok, lat = b.fixed4(lat_int, d, np.where(comma, neg, sep == ord("S")))
    m = (f1 | f2 | f3) & lon_ok & lat_ok & (end <= de)
    start = np.where(f1, q - 11, np.where(f2, q - 5, p))[m]
    row, end, lat, d, f3, two = row[m], end[m], lat[m], d[m], f3[m], two[m]
    lon = np.where(f3 & (tail[m] == ord("W")), -lon[m], lon[m])
    clash = np.flatnonzero(start[1:] < end[:-1]) + 1
    if clash.size:
        keep = np.ones(row.size, bool)
        last_end = -1
        for i in np.flatnonzero(np.isin(row, row[clash])):
            if start[i] >= last_end:
                last_end = end[i]
            elif f3[i] and two[i] and start[i] + 1 == last_end:
                # the previous match took the first of two integer
                # digits: the regex starts one digit later
                one = d[i:i + 1]
                lat[i] = b.fixed4(b.digit(one - 1).astype(np.int64), one,
                                  np.signbit(lat[i:i + 1]))[1][0]
                last_end = end[i]
            else:
                keep[i] = False
        row, lat, lon = row[keep], lat[keep], lon[keep]
    return row, lat, lon


class GeoParser:
    """The parse kernel. Stateless: it ships by value with each task,
    and its constructor compiles nothing."""

    def __init__(self) -> None:
        # every grammar contains a 4-decimal numeral; parse_arrow needs
        # no prefilter, perfbench's kernel chain still filters with it
        self.prefilter = r"\d\.\d{4}"

    def parse_arrow(self, col):
        """Arrow string column (string, large_string, sliced, chunked,
        with nulls) -> (row_pos, mention_idx, lat, lon) numpy arrays:
        int64 positions into ``col``, int32 appearance order within the
        row after the range filter, float64 degrees. Null texts yield
        no mentions.

        One vectorized pass per piece of the raw UTF-8 buffers, no
        Python strings and no regex (see ``_scan``). Best of 7 on a
        1-vCPU host, 120k synthetic docs in 64 chunks took 0.04 s, where
        the pyarrow RE2 round loop it replaced took 0.26 s with its
        prefilter; the sf0.1 webpages (48 MB of text) took 0.22 s
        against 1.33 s."""
        rows, lats, lons = [], [], []
        for base, piece in _pieces(col):
            row, lat, lon = _scan(piece)
            rows.append(row + base)
            lats.append(lat)
            lons.append(lon)
        if not rows:
            return _EMPTY
        row, lat, lon = (np.concatenate(rows), np.concatenate(lats),
                         np.concatenate(lons))
        keep = (np.abs(lat) <= MAX_LAT) & (np.abs(lon) <= 180.0)
        row = row[keep]
        return row, _renumber(row).astype(np.int32), lat[keep], lon[keep]

    def _py_scan_arrow(self, col):
        """Reference for parse_arrow's scanner, used by
        tests/test_geo.py::test_geoparser_scanner_matches_python_scan:
        Python re.finditer of MASTER_RE over an Arrow string array's
        raw UTF-8 buffer, NUL-joined (no grammar matches across a NUL).
        -> RAW match arrays (row, within_row_seq, lat, lon), unfiltered;
        null rows yield no matches."""
        n = len(col)
        empty = (np.empty(0, np.int64), np.empty(0, np.int64),
                 np.empty(0, np.float64), np.empty(0, np.float64))
        if n == 0:
            return empty
        col, data, offs = _buffers(col)
        offs = offs.astype(np.int64)
        lens = np.diff(offs)
        if col.null_count:
            lens = np.where(col.is_valid().to_numpy(zero_copy_only=False), lens, 0)
        out_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens + 1, out=out_starts[1:])
        buf = np.zeros(int(out_starts[-1]), dtype=np.uint8)
        total = int(lens.sum())
        cum = np.cumsum(lens) - lens
        ar = np.arange(total, dtype=np.int64)
        buf[ar + np.repeat(out_starts[:-1] - cum, lens)] = \
            data[ar + np.repeat(offs[:-1] - cum, lens)]
        positions, groups = [], []
        for m in re.compile(MASTER_RE.encode()).finditer(buf.tobytes()):
            positions.append(m.start())
            groups.append(m.groups())
        if not positions:
            return empty
        row_pos = np.searchsorted(out_starts, np.array(positions, dtype=np.int64),
                                  side="right") - 1
        g = np.array(groups, dtype=object)
        lat = np.empty(len(groups), dtype=np.float64)
        lon = np.empty(len(groups), dtype=np.float64)
        # an unmatched alternative's groups are None, a matched one's
        # never empty
        f1 = g[:, 0].astype(bool)
        f2 = g[:, 2].astype(bool)
        f3 = g[:, 4].astype(bool)
        lat[f1] = g[f1, 0].astype(np.float64)
        lon[f1] = g[f1, 1].astype(np.float64)
        lat[f2] = g[f2, 2].astype(np.float64)
        lon[f2] = g[f2, 3].astype(np.float64)
        lat[f3] = g[f3, 4].astype(np.float64) * np.where(g[f3, 5] == b"N", 1.0, -1.0)
        lon[f3] = g[f3, 6].astype(np.float64) * np.where(g[f3, 7] == b"E", 1.0, -1.0)
        return row_pos, _renumber(row_pos), lat, lon
