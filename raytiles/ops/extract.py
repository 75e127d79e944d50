"""HTML -> text extraction with per-row validation.

The rule's per-row invariant (BASELINE.json input_hint): the engine's
extracted text must be byte-identical per url to the authoritative
``text`` column. The stage extracts from ``html`` (stripping the
deterministic <html><body>...</body></html> wrapper the corpus uses)
and validates byte equality against ``text`` in the same pass, so any
extraction drift surfaces as valid=false rows, never silently.

Arrow-native fast path: both columns are walked as raw buffer slices
(memoryview memcmp for the wrapper probe and the byte-equality check,
md5 straight over the html values buffer — no Python str/bytes object
per row), and n_chars comes from ONE vectorized non-continuation-byte
count over the text values buffer (UTF-8 char count == bytes with
(b & 0xC0) != 0x80). Only rows that FAIL byte-validation fall back to
a per-row decode (errors='replace'), matching the original contract.

On a real crawl the strip step becomes a full HTML parser; the
validation contract (compare against the reference text column,
output the md5 for cheap downstream equality joins) stays the same.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray
import ray.data

PREFIX = b"<html><body>"
SUFFIX = b"</body></html>"


def _offs_data(col, want_binary: bool) -> tuple[np.ndarray, memoryview]:
    """(offsets int64, values-buffer memoryview) for a string/binary
    Arrow array — large_* variants carry int64 offsets (pyarrow
    promotes for >2GB data), so dispatch on the type instead of
    assuming int32 (the parse_arrow lesson)."""
    n = len(col)
    t = col.type
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
            col.offset:col.offset + n + 1]
    elif pa.types.is_string(t) or pa.types.is_binary(t):
        offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
            col.offset:col.offset + n + 1].astype(np.int64)
    else:
        col = col.cast(pa.binary() if want_binary else pa.string())
        offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[
            col.offset:col.offset + n + 1].astype(np.int64)
    return offs, memoryview(col.buffers()[2])


def extract_batch(b: pa.Table) -> pa.Table:
    md5 = hashlib.md5
    html = b["html"].combine_chunks()
    text = b["text"].combine_chunks()
    n = len(html)
    hoffs, hm = _offs_data(html, want_binary=True)
    toffs, tm = _offs_data(text, want_binary=False)
    # vectorized UTF-8 char count over the whole text buffer
    tarr = np.frombuffer(tm, dtype=np.uint8)
    csum = np.zeros(len(tarr) + 1, dtype=np.int64)
    if len(tarr):
        np.cumsum((tarr & 0xC0) != 0x80, out=csum[1:])
    lp, ls = len(PREFIX), len(SUFFIX)
    text_md5 = [""] * n
    valid = np.zeros(n, dtype=bool)
    n_chars = np.zeros(n, dtype=np.int64)
    for i in range(n):
        s, e = hoffs[i], hoffs[i + 1]
        bs, be = s, e
        if e - s >= lp + ls and hm[s:s + lp] == PREFIX \
                and hm[e - ls:e] == SUFFIX:
            bs, be = s + lp, e - ls
        ts, te = toffs[i], toffs[i + 1]
        if be - bs == te - ts and hm[bs:be] == tm[ts:te]:
            valid[i] = True
            text_md5[i] = md5(hm[bs:be]).hexdigest()
            n_chars[i] = csum[te] - csum[ts]
        else:
            # drifted row: reproduce the decode-with-replacement
            # contract exactly (md5 over the re-encoded extraction)
            extracted = bytes(hm[bs:be]).decode("utf-8", "replace")
            text_md5[i] = md5(extracted.encode("utf-8")).hexdigest()
            n_chars[i] = len(extracted)
    return pa.table({
        "url": b["url"],
        "text_md5": pa.array(text_md5, pa.string()),
        "n_chars": pa.array(n_chars),
        "valid": pa.array(valid)})


def extract_text(webpages_path: str) -> ray.data.Dataset:
    """url, text_md5, n_chars, valid — extraction + validation over
    the html binary column (columns pruned to url/html/text)."""
    ds = ray.data.read_parquet(webpages_path, columns=["url", "html", "text"])
    return ds.map_batches(extract_batch, batch_format="pyarrow",
                          batch_size=2048)


def redact_locations(webpages_path: str) -> ray.data.Dataset:
    """Location-PII scrub: every coordinate mention (the geoparse
    grammar, geo/parse.py MASTER_RE) is replaced with '[LOC]' — the
    corpus-sanitization pass a training-data pipeline runs before
    export. Deliberately broader than geoparse itself: anything that
    LOOKS like a coordinate is scrubbed, including mentions geoparse
    would drop as out-of-range (redaction errs conservative).

    Stateless vectorized map: two RE2 kernels (count + replace) over
    the zero-copy Arrow batch — the same engine DuckDB's regexp_replace
    (flag 'g') and regexp_extract_all use, so the twin is exact."""
    import pyarrow.compute as pc

    from ..geo.parse import MASTER_RE

    def fn(b: pa.Table) -> pa.Table:
        return pa.table({
            "url": b["url"],
            "clean_text": pc.replace_substring_regex(
                b["text"], MASTER_RE, "[LOC]"),
            "n_redacted": pc.cast(
                pc.count_substring_regex(b["text"], MASTER_RE), pa.int64())})

    ds = ray.data.read_parquet(webpages_path, columns=["url", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")
