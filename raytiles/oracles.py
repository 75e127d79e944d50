"""DuckDB oracle SQL builders — the ANSI-SQL twins of every
SQL-expressible engine query (driver correctness gate).

Each SQL string replicates the engine's computation EXACTLY:
same regexes (RE2-compatible, ASCII), same float64 formula order,
floor-quantization instead of round() where rounding modes differ,
md5-derived hashing reproduced via ('0x' || substr(md5(s),1,16))::UBIGINT.
"""

from __future__ import annotations

from .geo.parse import FMT1, FMT2, MASTER_RE
from .ops.dedup import MAX_BAND_GROUP, SEED_CONSTS
from .ops.text import STOP_RE, TOKEN_RE

# RE2-compatible rewrites of the Python regexes (Python (?:..) works in
# RE2 too; token/stop need the \b form DuckDB accepts)
SQL_TOKEN_RE = "[0-9A-Za-z_]+"
SQL_STOP_RE = r"\b(?:the|a|of|and|to)\b"
ZOOM = 12
EXTENT = 4096


def mentions_cte(webpages_parquet: str) -> str:
    """CTE producing (url, mention_idx, lon, lat) — the geoparse twin."""
    return f"""
matches AS (
  SELECT url,
         unnest(regexp_extract_all(text, '{MASTER_RE}')) AS mt,
         generate_subscripts(regexp_extract_all(text, '{MASTER_RE}'), 1) AS mpos
  FROM read_parquet('{webpages_parquet}/*.parquet')
),
parsed AS (
  SELECT url, mpos,
    CASE
      WHEN mt LIKE 'located at%' THEN CAST(regexp_extract(mt, '{FMT1}', 1) AS DOUBLE)
      WHEN mt LIKE '(lat%'       THEN CAST(regexp_extract(mt, '{FMT2}', 1) AS DOUBLE)
      ELSE CAST(regexp_extract(mt, '(\\d{{1,2}}\\.\\d{{4}})([NS])', 1) AS DOUBLE)
           * (CASE WHEN regexp_extract(mt, '(\\d{{1,2}}\\.\\d{{4}})([NS])', 2) = 'N' THEN 1.0 ELSE -1.0 END)
    END AS lat,
    CASE
      WHEN mt LIKE 'located at%' THEN CAST(regexp_extract(mt, '{FMT1}', 2) AS DOUBLE)
      WHEN mt LIKE '(lat%'       THEN CAST(regexp_extract(mt, '{FMT2}', 2) AS DOUBLE)
      ELSE CAST(regexp_extract(mt, ' (\\d{{1,3}}\\.\\d{{4}})([EW])', 1) AS DOUBLE)
           * (CASE WHEN regexp_extract(mt, ' (\\d{{1,3}}\\.\\d{{4}})([EW])', 2) = 'E' THEN 1.0 ELSE -1.0 END)
    END AS lon
  FROM matches
),
mentions AS (
  SELECT url,
         row_number() OVER (PARTITION BY url ORDER BY mpos) - 1 AS mention_idx,
         lon, lat
  FROM parsed
  WHERE abs(lat) <= 85.05 AND abs(lon) <= 180.0
)"""


def _tile_exprs(z: int = ZOOM, extent: int = EXTENT) -> str:
    n = float(1 << z)
    return f"""
assigned AS (
  SELECT url, mention_idx, lon, lat,
    CAST(least(greatest(floor((lon + 180.0) / 360.0 * {n}), 0), {n} - 1) AS BIGINT) AS x,
    CAST(least(greatest(floor((1.0 - ln(tan(radians(lat)) + 1.0/cos(radians(lat))) / pi()) / 2.0 * {n}), 0), {n} - 1) AS BIGINT) AS y,
    (lon + 180.0) / 360.0 * {n} AS fx,
    (1.0 - ln(tan(radians(lat)) + 1.0/cos(radians(lat))) / pi()) / 2.0 * {n} AS fy
  FROM mentions
),
localized AS (
  SELECT url, mention_idx, lon, lat, {z} AS z, x, y,
    CAST(least(greatest(floor((fx - x) * {extent}), 0), {extent} - 1) AS BIGINT) AS local_x,
    CAST(least(greatest(floor((fy - y) * {extent}), 0), {extent} - 1) AS BIGINT) AS local_y
  FROM assigned
)"""


def _cell_expr(r: int) -> str:
    nx = float(1 << (r + 1))
    ny = float(1 << r)
    return (f"{r} * 72057594037927936 "
            f"+ CAST(least(greatest(floor((lon + 180.0) / 360.0 * {nx}), 0), {nx} - 1) AS BIGINT) * 268435456 "
            f"+ CAST(least(greatest(floor((90.0 - lat) / 180.0 * {ny}), 0), {ny} - 1) AS BIGINT)")


def geoparse_sql(webpages_parquet: str) -> str:
    return (f"WITH {mentions_cte(webpages_parquet)} "
            "SELECT url, mention_idx, lon, lat FROM mentions")


def geoparse_lang_sql(webpages_parquet: str, lang: str = "en") -> str:
    """Twin of the hive-partitioned pruned read: the geoparse twin
    restricted to one partition value (the engine never reads the
    other partitions' bytes; the oracle filters)."""
    return (f"WITH {mentions_cte(webpages_parquet)}, "
            "langs AS (SELECT url, lang FROM "
            f"read_parquet('{webpages_parquet}/*.parquet')) "
            "SELECT m.url, m.mention_idx, m.lon, m.lat "
            "FROM mentions m JOIN langs l ON m.url = l.url "
            f"WHERE l.lang = '{lang}'")


def tile_assign_sql(webpages_parquet: str) -> str:
    cells = ",\n    ".join(f"{_cell_expr(r)} AS cell_r{r}" for r in range(10))
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs()} "
            f"SELECT url, mention_idx, lon, lat,\n    {cells},\n"
            "    z, x, y, local_x, local_y FROM localized")


def tile_counts_sql(webpages_parquet: str) -> str:
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs()} "
            "SELECT z, x, y, count(*) AS n_features "
            "FROM localized GROUP BY z, x, y")


def raster_cells_sql(webpages_parquet: str, z: int = 8, grid_cell: int = 16) -> str:
    """Sparse raster twin: counts per (tile, gx, gy) grid cell."""
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=z)} "
            f"SELECT z, x, y, local_x // {grid_cell} AS gx, "
            f"local_y // {grid_cell} AS gy, count(*) AS n "
            "FROM localized GROUP BY z, x, y, gx, gy")


def morton_cells_sql(webpages_parquet: str, level: int = 12) -> str:
    """Morton (Z-order) curve id twin: bit interleave as arithmetic."""
    n = float(1 << level)
    terms = " + ".join(
        f"(((x >> {i}) & 1) + 2 * ((y >> {i}) & 1)) * {4 ** i}"
        for i in range(level))
    return f"""
WITH {mentions_cte(webpages_parquet)}, xy AS (
  SELECT url, mention_idx,
    CAST(least(greatest(floor((lon + 180.0) / 360.0 * {n}), 0), {n} - 1) AS BIGINT) AS x,
    CAST(least(greatest(floor((1.0 - ln(tan(radians(lat)) + 1.0/cos(radians(lat))) / pi()) / 2.0 * {n}), 0), {n} - 1) AS BIGINT) AS y
  FROM mentions
)
SELECT url, mention_idx, {terms} AS morton FROM xy
"""


def tile_pyramid_sql(webpages_parquet: str, zooms=(6, 8, 10, 12),
                     base_zoom: int = 12) -> str:
    """Pyramid rollup twin: parent tile via integer division."""
    selects = []
    for zp in zooms:
        d = 1 << (base_zoom - zp)
        selects.append(
            f"SELECT {zp} AS z, x // {d} AS x, y // {d} AS y, count(*) AS n "
            "FROM localized GROUP BY 1, 2, 3")
    union = " UNION ALL ".join(selects)
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=base_zoom)} "
            f"{union}")


def cell_counts_sql(webpages_parquet: str) -> str:
    return (f"WITH {mentions_cte(webpages_parquet)} "
            f"SELECT {_cell_expr(5)} AS cell_r5, count(*) AS n_mentions, "
            "count(DISTINCT url) AS n_docs FROM mentions GROUP BY 1")


# ---------------------------------------------------------------------------
# relational
# ---------------------------------------------------------------------------

PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 4) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
       round(sum(l_quantity) / count(*), 6) AS avg_qty,
       round(sum(l_extendedprice) / count(*), 6) AS avg_price,
       round(sum(l_discount) / count(*), 6) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""

TOP_CUSTOMERS_SQL = """
SELECT o.o_custkey AS c_custkey, c.c_name, n.n_name,
       round(sum(o.o_totalprice), 2) AS revenue,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY o.o_custkey, c.c_name, n.n_name
ORDER BY revenue DESC, c_custkey
LIMIT 10
"""

EVENTS_HOURLY_SQL = """
SELECT event_type,
       strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start,
       count(*) AS n_events,
       round(sum(value), 6) AS sum_value
FROM events
GROUP BY 1, 2
"""

# ---------------------------------------------------------------------------
# text / dedup / similarity
# ---------------------------------------------------------------------------

TOKEN_COUNTS_SQL = f"""
SELECT doc_id,
       array_length(regexp_extract_all(text, '{SQL_TOKEN_RE}')) AS n_tokens,
       length(text) AS n_chars
FROM documents
"""

QUALITY_SCORES_SQL = f"""
WITH raw AS (
  SELECT doc_id,
         array_length(regexp_extract_all(text, '{SQL_TOKEN_RE}')) AS n_tokens,
         array_length(regexp_extract_all(text, '{SQL_STOP_RE}')) AS n_stop,
         length(regexp_replace(text, '[^0-9A-Za-z_]', '', 'g')) AS tok_chars
  FROM documents
), q AS (
  SELECT doc_id, n_tokens,
         floor(n_stop / greatest(n_tokens, 1) * 1000000) / 1000000 AS stop_ratio,
         floor(tok_chars / greatest(n_tokens, 1) * 1000000) / 1000000 AS avg_token_len
  FROM raw
)
SELECT doc_id, n_tokens, stop_ratio, avg_token_len,
       floor((0.5 * least(n_tokens / 50.0, 1.0) + 0.3 * stop_ratio
              + 0.2 * least(avg_token_len / 8.0, 1.0)) * 1000000) / 1000000 AS score
FROM q
"""

LANG_ID_SQL = r"""
WITH c AS (
  SELECT doc_id,
         array_length(regexp_extract_all(lower(text), '\b(?:the|a|to|is|in)\b')) AS en,
         array_length(regexp_extract_all(lower(text), '\b(?:der|die|das|und|ist)\b')) AS de,
         array_length(regexp_extract_all(lower(text), '\b(?:le|la|les|et|est)\b')) AS fr
  FROM documents
)
SELECT doc_id,
  CASE WHEN en >= de AND en >= fr AND en > 0 THEN 'en'
       WHEN de >= fr AND de > 0 THEN 'de'
       WHEN fr > 0 THEN 'fr' ELSE 'und' END AS lang_pred
FROM c
"""

DOC_MD5_SQL = "SELECT doc_id, md5(text) AS h FROM documents"

EXACT_DEDUP_SQL = """
SELECT md5(text) AS h, min(doc_id) AS doc_id, count(*) AS n_dups
FROM documents GROUP BY md5(text)
"""


def _shingles_cte() -> str:
    return f"""
toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{SQL_TOKEN_RE}')) AS w,
         generate_subscripts(regexp_extract_all(text, '{SQL_TOKEN_RE}'), 1) AS pos
  FROM documents
),
long_sh AS (
  SELECT doc_id, w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win AS s
  FROM toks WINDOW win AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(w, 2) OVER win IS NOT NULL
),
short_sh AS (
  SELECT doc_id, string_agg(w, ' ' ORDER BY pos) AS s
  FROM toks GROUP BY doc_id HAVING count(*) < 3
),
shingles AS (SELECT * FROM long_sh UNION ALL SELECT * FROM short_sh)"""


def minhash_bands_sql() -> str:
    mins = ",\n    ".join(
        f"min(xor(h, {c}::UBIGINT)) AS m{i}" for i, c in enumerate(SEED_CONSTS))
    bands = []
    rpb = 2
    for b in range(4):
        # band key = md5 of the band's signature words as fixed-width
        # lowercase hex — the exact twin of MinHasher's batch hexlify
        key = " || ".join(
            f"lower(lpad(to_hex(m{b * rpb + j}), 16, '0'))" for j in range(rpb))
        bands.append(
            f"SELECT doc_id, {b} AS band_id, "
            f"((('0x' || substr(md5({key}), 1, 16))::UBIGINT)::HUGEINT "
            f"- CASE WHEN ('0x' || substr(md5({key}), 1, 16))::UBIGINT >= 9223372036854775808::UBIGINT "
            f"THEN 18446744073709551616::HUGEINT ELSE 0::HUGEINT END)::BIGINT AS band_hash FROM sig")
    union = " UNION ALL ".join(bands)
    return (f"WITH {_shingles_cte()}, "
            "hashed AS (SELECT doc_id, ('0x' || substr(md5(s), 1, 16))::UBIGINT AS h FROM shingles), "
            f"sig AS (SELECT doc_id, {mins} FROM hashed GROUP BY doc_id) "
            f"{union}")


# the engine caps pair enumeration at MAX_BAND_GROUP docs per
# (band_id, band_hash), smallest doc_ids kept (dedup.pairs_in_bucket);
# the oracle mirrors the cap so engine and SQL stay exact twins even
# on duplicate-heavy data where a band group exceeds the cap
_BANDS_CAPPED = (
    "SELECT doc_id, band_id, band_hash FROM bands "
    "QUALIFY row_number() OVER (PARTITION BY band_id, band_hash "
    f"ORDER BY doc_id) <= {MAX_BAND_GROUP}")


def minhash_pairs_sql() -> str:
    return (f"WITH bands AS ({minhash_bands_sql()}), "
            f"capped AS ({_BANDS_CAPPED}) "
            "SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "FROM capped a JOIN capped b ON a.band_id = b.band_id "
            "AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id")


def minhash_overflow_sql() -> str:
    """Band groups whose size exceeds the engine's pair-enumeration
    cap, with the truncated-doc count — the queryable twin of the
    engine's no-silent-caps stats output."""
    return (f"WITH bands AS ({minhash_bands_sql()}) "
            "SELECT band_id, band_hash, count(*) AS n_docs, "
            f"count(*) - {MAX_BAND_GROUP} AS n_truncated "
            "FROM bands GROUP BY band_id, band_hash "
            f"HAVING count(*) > {MAX_BAND_GROUP}")


def jaccard_pairs_sql(threshold: float = 0.7) -> str:
    """Exact shingle-set Jaccard over the MinHash candidate pairs."""
    return (f"WITH bands AS ({minhash_bands_sql()}), "
            f"capped AS ({_BANDS_CAPPED}), "
            "cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b "
            " FROM capped a JOIN capped b ON a.band_id = b.band_id "
            " AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id), "
            f"{_shingles_cte().lstrip()}, "
            "dsh AS (SELECT DISTINCT doc_id, s FROM shingles), "
            "sizes AS (SELECT doc_id, count(*) AS n FROM dsh GROUP BY doc_id), "
            "inter AS (SELECT c.doc_a, c.doc_b, count(*) AS i FROM cand c "
            " JOIN dsh a ON a.doc_id = c.doc_a JOIN dsh b ON b.doc_id = c.doc_b "
            " AND b.s = a.s GROUP BY c.doc_a, c.doc_b) "
            "SELECT i.doc_a, i.doc_b, "
            " floor(i.i / (sa.n + sb.n - i.i) * 1000000) / 1000000 AS jaccard "
            "FROM inter i JOIN sizes sa ON sa.doc_id = i.doc_a "
            "JOIN sizes sb ON sb.doc_id = i.doc_b "
            f"WHERE i.i / (sa.n + sb.n - i.i) >= {threshold}")


EVENTS_SLIDING_SQL = """
WITH ex AS (
  SELECT event_type, value,
         time_bucket(INTERVAL 15 MINUTE, ts) - to_minutes(15 * m.i) AS window_start
  FROM events, (SELECT unnest([0, 1, 2, 3]) AS i) m
)
SELECT event_type,
       strftime(window_start, '%Y-%m-%d %H:%M:%S') AS window_start,
       count(*) AS n_events,
       round(sum(value), 6) AS sum_value
FROM ex GROUP BY 1, window_start
"""

EVENTS_SESSIONS_SQL = """
WITH e AS (
  SELECT user_id, event_id, ts, value,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts, value,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM e
)
SELECT user_id,
       strftime(min(ts), '%Y-%m-%d %H:%M:%S') AS session_start,
       count(*) AS n_events,
       round(sum(value), 6) AS sum_value
FROM s GROUP BY user_id, sid
"""


def extract_text_sql(webpages_parquet: str) -> str:
    """HTML -> text via the deterministic wrapper strip; valid must be
    true everywhere (byte-identical per-url invariant)."""
    return f"""
WITH d AS (
  SELECT url, text, decode(html) AS h FROM read_parquet('{webpages_parquet}/*.parquet')
), x AS (
  SELECT url, text,
         CASE WHEN h LIKE '<html><body>%</body></html>'
              THEN substr(h, 13, length(h) - 26) ELSE h END AS extracted
  FROM d
)
SELECT url, md5(extracted) AS text_md5,
       length(extracted) AS n_chars,
       extracted = text AS valid
FROM x
"""


def knn_sql(k: int = 10, n_queries: int = 8) -> str:
    return f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < {n_queries}),
s AS (
  SELECT q.qid, e.vec_id AS nid,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS sim
  FROM q, embeddings e
  WHERE e.vec_id <> q.qid
)
SELECT qid AS query_id, nid AS neighbor_id,
       row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid) AS rank
FROM s
QUALIFY rank <= {k}
"""


def media_meta_sql(webpages_parquet: str) -> str:
    return f"""
SELECT url, octet_length(html) AS n_bytes,
       octet_length(html) % 640 AS fake_width,
       octet_length(html) % 480 AS fake_height
FROM read_parquet('{webpages_parquet}/*.parquet')
"""


def dup_clusters_sql() -> str:
    """Connected components over the capped candidate-pair graph via
    a recursive reachability walk: a node's cluster_id is the min
    label among everything reachable (edges are bidirectional, so
    reachability = component). Exact twin of ops.dedup.dup_clusters'
    min-label propagation fixpoint."""
    return (f"WITH RECURSIVE pairs AS ({minhash_pairs_sql()}), "
            "edges AS (SELECT doc_a AS src, doc_b AS dst FROM pairs "
            "UNION ALL SELECT doc_b, doc_a FROM pairs), "
            "nodes AS (SELECT DISTINCT src AS doc_id FROM edges), "
            "walk(doc_id, label) AS ("
            "  SELECT doc_id, doc_id FROM nodes"
            "  UNION"
            "  SELECT e.dst, w.label FROM walk w "
            "  JOIN edges e ON e.src = w.doc_id) "
            "SELECT doc_id, min(label) AS cluster_id "
            "FROM walk GROUP BY doc_id")


def dedup_survivors_sql() -> str:
    """Docs minus the non-minimum members of each dup cluster."""
    return (f"WITH clusters AS ({dup_clusters_sql()}) "
            "SELECT doc_id FROM documents "
            "WHERE doc_id NOT IN "
            "(SELECT doc_id FROM clusters WHERE doc_id != cluster_id)")


def events_asof_sql(left_type: str = "purchase",
                    right_type: str = "click") -> str:
    """As-of join twin: latest right-type event of the same user
    strictly earlier in (ts, event_id) order — the ROWS ...
    1 PRECEDING frame with the event_id tiebreak in ORDER BY pins
    equal timestamps exactly like the engine's lexsort."""
    return f"""
SELECT event_id, user_id, ts_us, prior_event_id, prior_ts_us,
       ts_us - prior_ts_us AS gap_us
FROM (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us, event_type,
         last_value(CASE WHEN event_type = '{right_type}' THEN event_id END IGNORE NULLS)
           OVER w AS prior_event_id,
         last_value(CASE WHEN event_type = '{right_type}' THEN epoch_us(ts) END IGNORE NULLS)
           OVER w AS prior_ts_us
  FROM events
  WHERE event_type IN ('{right_type}', '{left_type}')
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
)
WHERE event_type = '{left_type}' AND prior_event_id IS NOT NULL"""


def top_orders_sql(k: int = 3) -> str:
    """Top-k orders per customer by (o_totalprice DESC, o_orderkey) —
    twin of ops.groupops.top_orders_per_customer's lexsort rank."""
    return f"""
SELECT o_custkey, o_orderkey, o_totalprice, rank FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rank
  FROM orders)
WHERE rank <= {k}"""


def stratified_sample_sql(n_per_stratum: int = 20) -> str:
    """md5-rank stratified sample twin: DuckDB's md5(varchar) is the
    lowercase hex of the same digest the engine carries as binary, and
    hex order == byte order, so the row_number ranks match exactly."""
    return f"""
SELECT lang, doc_id, n_chars, sample_rank FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
           AS sample_rank
  FROM documents)
WHERE sample_rank <= {n_per_stratum}"""


def group_quantiles_sql(qs=(0.25, 0.50, 0.75, 0.95)) -> str:
    """Histogram-quantile twin: p_q = min l_quantity whose within-group
    cumulative count >= ceil(q*n) — the identical rule groupops'
    finalizer evaluates with cumsum + minimum.reduceat."""
    picks = ", ".join(
        f"min(l_quantity) FILTER (WHERE cum >= ceil({q} * tot)) AS p{int(q * 100)}"
        for q in qs)
    return f"""
WITH h AS (
  SELECT l_suppkey, l_quantity, count(*) AS n
  FROM lineitem GROUP BY l_suppkey, l_quantity),
c AS (
  SELECT l_suppkey, l_quantity,
         sum(n) OVER (PARTITION BY l_suppkey ORDER BY l_quantity) AS cum,
         sum(n) OVER (PARTITION BY l_suppkey) AS tot
  FROM h)
SELECT l_suppkey, CAST(max(tot) AS BIGINT) AS n, {picks}
FROM c GROUP BY l_suppkey"""


def range_join_sql(n_bands: int = 120, chunk: float = 5000.0,
                   width: float = 15000.0) -> str:
    """Range-join twin: the same formulaic overlapping band table via
    range(), joined on lo <= o_totalprice < hi."""
    return f"""
SELECT o.o_orderkey, b.band_id, o.o_totalprice
FROM orders o
JOIN (SELECT i AS band_id, i * {chunk} AS lo, i * {chunk} + {width} AS hi
      FROM range(0, {n_bands}) t(i)) b
  ON o.o_totalprice >= b.lo AND o.o_totalprice < b.hi"""


DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type"""


_TOKS_CTE = f"""
toks AS (SELECT doc_id, unnest(regexp_extract_all(text, '{SQL_TOKEN_RE}')) AS token
         FROM documents)"""


def vocab_topk_sql(k: int = 100) -> str:
    """Vocabulary twin: DF = distinct docs per token, TF = total
    occurrences; top-k by (df DESC, token) — the tie-break makes the
    LIMIT boundary deterministic, matching the engine's bucket-top-k
    + final sort."""
    return f"""
WITH {_TOKS_CTE},
dt AS (SELECT token, doc_id, count(*) AS tf FROM toks GROUP BY token, doc_id)
SELECT token, count(*) AS df, CAST(sum(tf) AS BIGINT) AS tf
FROM dt GROUP BY token
ORDER BY df DESC, token LIMIT {k}"""


def doc_top_terms_sql(k: int = 5) -> str:
    """Per-doc top-k terms twin: row_number over (tf DESC, token)."""
    return f"""
WITH {_TOKS_CTE},
tf AS (SELECT doc_id, token, count(*) AS tf FROM toks GROUP BY doc_id, token)
SELECT doc_id, token, tf, rank FROM (
  SELECT doc_id, token, tf,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY tf DESC, token) AS rank
  FROM tf)
WHERE rank <= {k}"""


ORDER_REVENUE_SQL = """
SELECT o.o_orderkey, o.o_custkey, epoch_us(o.o_orderdate) AS orderdate_us,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
       count(*) AS n_items
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE o.o_orderstatus = 'O'
GROUP BY 1, 2, 3"""


# Twin of ops.relational.nation_revenue (TPC-H Q5 shape). Per-order
# revenue is quantized to INT64 cents with the engine's identical
# half-away-from-zero expression (revenue >= 0) BEFORE the per-nation
# sum, so the wide aggregate is an exact integer sum on both sides.
NATION_REVENUE_SQL = """
WITH li AS (
  SELECT l_orderkey,
         CAST(floor(sum(l_extendedprice * (1 - l_discount)) * 100 + 0.5)
              AS BIGINT) AS cents
  FROM lineitem GROUP BY l_orderkey
)
SELECT n_name,
       CAST(sum(li.cents) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_orders
FROM li
JOIN orders   ON o_orderkey = li.l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation   ON n_nationkey = c_nationkey
WHERE o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1997-01-01'
GROUP BY n_name"""


# Twin of ops.relational.small_quantity_revenue (TPC-H Q17 shape):
# correlated avg-per-part subquery written as an explicit per-part
# (sum, count) aggregate; the threshold 0.5 * (sq / n) is the engine
# finalizer's identical double op sequence, and revenue quantizes to
# INT64 cents per row before the sum.
SMALL_QUANTITY_REVENUE_SQL = """
WITH pk AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#4'),
ag AS (
  SELECT l_partkey, sum(l_quantity) AS sq,
         CAST(count(*) AS DOUBLE) AS n
  FROM lineitem JOIN pk ON p_partkey = l_partkey
  GROUP BY 1)
SELECT CAST(count(*) AS BIGINT) AS n_items,
       CAST(coalesce(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                               AS BIGINT)), 0) AS BIGINT) AS sum_cents
FROM lineitem l JOIN ag ON ag.l_partkey = l.l_partkey
WHERE l.l_quantity < 0.5 * (sq / n)"""


# Twin of ops.relational.cohort_revenue_full: per-row INT64-cent
# quantization (identical floor(x*100+0.5), o_totalprice >= 0) then
# integer sums per cohort year, FULL JOIN, zero-fill both directions.
COHORT_REVENUE_FULL_SQL = """
WITH a AS (
  SELECT o_custkey,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS cents_a,
         CAST(count(*) AS BIGINT) AS n_a
  FROM orders
  WHERE o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1997-01-01'
  GROUP BY 1),
b AS (
  SELECT o_custkey,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS cents_b,
         CAST(count(*) AS BIGINT) AS n_b
  FROM orders
  WHERE o_orderdate >= DATE '1999-01-01' AND o_orderdate < DATE '2000-01-01'
  GROUP BY 1)
SELECT CAST(coalesce(a.o_custkey, b.o_custkey) AS BIGINT) AS o_custkey,
       coalesce(cents_a, 0) AS cents_a, coalesce(n_a, 0) AS n_a,
       coalesce(cents_b, 0) AS cents_b, coalesce(n_b, 0) AS n_b
FROM a FULL JOIN b ON a.o_custkey = b.o_custkey"""


# Twin of ops.relational.group_stats: six float64 moment sums, then
# the IDENTICAL double op sequence as the engine finalizer (left-assoc
# division/multiplication order), floor-quantized to micro units —
# 4+ orders of magnitude above the sum-order noise floor.
GROUP_STATS_SQL = """
WITH m AS (
  SELECT l_returnflag,
         CAST(count(*) AS BIGINT) AS n,
         CAST(count(*) AS DOUBLE) AS nd,
         sum(CAST(l_quantity AS DOUBLE)) AS sx,
         sum(l_extendedprice) AS sy,
         sum(CAST(l_quantity AS DOUBLE) * CAST(l_quantity AS DOUBLE)) AS sxx,
         sum(l_extendedprice * l_extendedprice) AS syy,
         sum(CAST(l_quantity AS DOUBLE) * l_extendedprice) AS sxy
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag, n,
       CAST(floor(sx / nd * 1e6) AS BIGINT) AS mean_qty_micro,
       CAST(floor((sxy - sx * sy / nd) / nd * 1e6) AS BIGINT) AS cov_micro,
       CAST(floor(((sxy - sx * sy / nd) / nd)
                  / sqrt(((sxx - sx * sx / nd) / nd)
                         * ((syy - sy * sy / nd) / nd)) * 1e6)
            AS BIGINT) AS corr_micro
FROM m"""


def tile_neighborhood_sql(webpages_parquet: str, zoom: int = 12) -> str:
    """Stencil twin: counts-per-tile self-joined on the 3x3 BETWEEN
    box (edge tiles clip — no wraparound, same as the engine)."""
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(zoom)}, "
            "counts AS (SELECT x, y, count(*) AS n FROM localized GROUP BY x, y), "
            "hood AS (SELECT a.x, a.y, sum(b.n) AS n_hood FROM counts a "
            "JOIN counts b ON b.x BETWEEN a.x - 1 AND a.x + 1 "
            "AND b.y BETWEEN a.y - 1 AND a.y + 1 GROUP BY a.x, a.y) "
            f"SELECT {zoom} AS z, h.x, h.y, c.n AS n_features, "
            "CAST(h.n_hood AS BIGINT) AS n_hood "
            "FROM hood h JOIN counts c ON c.x = h.x AND c.y = h.y")


def redact_locations_sql(webpages_parquet: str) -> str:
    """Redaction twin: same MASTER_RE, global regexp_replace."""
    return f"""
SELECT url,
       regexp_replace(text, '{MASTER_RE}', '[LOC]', 'g') AS clean_text,
       len(regexp_extract_all(text, '{MASTER_RE}')) AS n_redacted
FROM read_parquet('{webpages_parquet}/*.parquet')"""


USER_FEATURES_SQL = """
SELECT user_id,
       CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view,
       round(sum(value), 6) AS sum_value
FROM events GROUP BY user_id"""


def host_stats_sql(webpages_parquet: str) -> str:
    """Per-host stats twin: same host regex (RE2 both sides)."""
    return f"""
SELECT regexp_extract(url, '^https?://([^/]+)/', 1) AS host,
       count(*) AS n_docs,
       CAST(sum(length(text)) AS BIGINT) AS total_chars,
       CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS n_en
FROM read_parquet('{webpages_parquet}/*.parquet')
GROUP BY 1"""


def customers_without_big_orders_sql(threshold: float = 300000.0) -> str:
    """Anti-join twin: NOT EXISTS over the thresholded probe side."""
    return f"""
SELECT c_custkey, c_acctbal FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_totalprice > {threshold})"""


def decontaminate_sql(mod: int = 35, n: int = 5) -> str:
    """Decontamination twin: word n-grams via list slicing over the
    same token grammar; the join key is the SAME md5-u64 the engine
    uses (md5-derived-hash parity rule), so engine and oracle are
    exact twins by construction."""
    return f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '[^0-9A-Za-z_]+'),
                     x -> x <> '') AS t
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id,
         substr(md5(array_to_string(t[i:i+{n - 1}], ' ')), 1, 16) AS gh
  FROM toks, unnest(range(1, len(t) - {n - 2})) AS u(i)
  WHERE len(t) >= {n}
), bench AS (SELECT DISTINCT gh FROM grams WHERE doc_id % {mod} = 0)
SELECT d.doc_id, count(*) AS n_hits
FROM grams d JOIN bench USING (gh)
WHERE d.doc_id % {mod} <> 0
GROUP BY 1"""


DOC_REPETITION_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '{SQL_TOKEN_RE}') AS t
  FROM documents
), c AS (
  SELECT doc_id, len(t) AS n_tokens, len(list_distinct(t)) AS n_distinct
  FROM toks WHERE len(t) > 0
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_distinct AS BIGINT) AS n_distinct,
       floor((1.0 - CAST(n_distinct AS DOUBLE) / CAST(n_tokens AS DOUBLE))
             * 1000000) / 1000000 AS dup_ratio
FROM c"""


# ---------------------------------------------------------------------------
# spatial joins (ops/spatial.py) — squared coordinate distance is pure
# IEEE multiply/add, so engine and twin are bit-identical
# ---------------------------------------------------------------------------

def _fences_cte() -> str:
    from .pipeline.synth import CITIES
    rows = ", ".join(f"({i}, {float(lat)!r}, {float(lon)!r})"
                     for i, (lat, lon) in enumerate(CITIES))
    return f"fences(fence_id, flat, flon) AS (VALUES {rows})"


_D2 = ("(m.lat - f.flat) * (m.lat - f.flat) + "
       "(m.lon - f.flon) * (m.lon - f.flon)")


def geofence_join_sql(webpages_parquet: str, radius: float = 2.0) -> str:
    return f"""
WITH {mentions_cte(webpages_parquet)}, {_fences_cte()}
SELECT m.url, m.mention_idx, f.fence_id, {_D2} AS d2
FROM mentions m CROSS JOIN fences f
WHERE {_D2} <= {radius * radius!r}"""


def nearest_city_sql(webpages_parquet: str) -> str:
    return f"""
WITH {mentions_cte(webpages_parquet)}, {_fences_cte()}
SELECT url, mention_idx, city_id, d2 FROM (
  SELECT m.url, m.mention_idx, f.fence_id AS city_id, {_D2} AS d2,
         row_number() OVER (PARTITION BY m.url, m.mention_idx
                            ORDER BY {_D2}, f.fence_id) AS rn
  FROM mentions m CROSS JOIN fences f)
WHERE rn = 1"""


_HOST_BBOX_CTE = """
hosted AS (
  SELECT regexp_extract(url, '^https?://([^/]+)/', 1) AS host, lon, lat
  FROM mentions
),
bbox AS (
  SELECT host, count(*) AS n_mentions,
         min(lon) AS min_lon, max(lon) AS max_lon,
         min(lat) AS min_lat, max(lat) AS max_lat,
         floor((sum(CAST(round(lon * 10000) AS BIGINT)) * 100.0)
               / count(*)) / 1000000 AS cen_lon,
         floor((sum(CAST(round(lat * 10000) AS BIGINT)) * 100.0)
               / count(*)) / 1000000 AS cen_lat
  FROM hosted GROUP BY host
)"""


def host_bbox_sql(webpages_parquet: str) -> str:
    return (f"WITH {mentions_cte(webpages_parquet)}, {_HOST_BBOX_CTE} "
            "SELECT host, n_mentions, min_lon, max_lon, min_lat, max_lat, "
            "cen_lon, cen_lat FROM bbox")


def host_tile_cover_sql(webpages_parquet: str, zoom: int = 4) -> str:
    n = float(1 << zoom)

    def xe(c):
        return (f"CAST(least(greatest(floor(({c} + 180.0) / 360.0 * {n}), 0),"
                f" {n} - 1) AS BIGINT)")

    def ye(c):
        return (f"CAST(least(greatest(floor((1.0 - ln(tan(radians({c})) + "
                f"1.0/cos(radians({c}))) / pi()) / 2.0 * {n}), 0), {n} - 1) "
                "AS BIGINT)")

    return f"""
WITH {mentions_cte(webpages_parquet)}, {_HOST_BBOX_CTE},
corners AS (
  SELECT host, {xe('min_lon')} AS x0, {xe('max_lon')} AS x1,
         {ye('max_lat')} AS y0, {ye('min_lat')} AS y1
  FROM bbox
)
SELECT host, {zoom} AS z, ux.x, uy.y
FROM corners,
     unnest(generate_series(x0, x1)) AS ux(x),
     unnest(generate_series(y0, y1)) AS uy(y)"""


MEDIAN_LENGTH_FILTER_SQL = f"""
WITH t AS (
  SELECT doc_id, len(regexp_extract_all(text, '{SQL_TOKEN_RE}')) AS n_tokens
  FROM documents
),
h AS (SELECT n_tokens AS v, count(*) AS c FROM t GROUP BY 1),
cum AS (SELECT v, sum(c) OVER (ORDER BY v) AS cumc, sum(c) OVER () AS tot FROM h),
m AS (SELECT min(v) AS med FROM cum WHERE cumc >= ceil(0.5 * tot))
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens
FROM t, m WHERE n_tokens >= med"""


def doc_tfidf_sql(vocab_k: int = 100) -> str:
    """tf-idf twin: same top-k vocabulary formulation as
    vocab_topk_sql, same ln(N/df) double arithmetic, raw-score
    ordering with token tie-break, q6-floored output."""
    return f"""
WITH {_TOKS_CTE},
tf AS (SELECT doc_id, token, count(*) AS tf FROM toks GROUP BY 1, 2),
dt AS (SELECT token, doc_id FROM toks GROUP BY token, doc_id),
vocab AS (
  SELECT token, count(*) AS df FROM dt GROUP BY token
  ORDER BY df DESC, token LIMIT {vocab_k}),
nd AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.token, tf.tf,
         tf.tf * ln(CAST(n AS DOUBLE) / CAST(df AS DOUBLE)) AS s,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * ln(CAST(n AS DOUBLE) / CAST(df AS DOUBLE)) DESC,
                    tf.token) AS rn
  FROM tf JOIN vocab USING (token), nd)
SELECT doc_id, token, CAST(tf AS BIGINT) AS tf,
       floor(s * 1000000) / 1000000 AS tfidf
FROM scored WHERE rn = 1"""


def inverted_index_sql(k: int = 16) -> str:
    """Inverted-index twin: capped ordered posting string via
    row_number + string_agg(ORDER BY doc_id)."""
    return f"""
WITH {_TOKS_CTE},
dt AS (SELECT DISTINCT token, doc_id FROM toks),
ranked AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY token) AS df
  FROM dt)
SELECT token, CAST(max(df) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM ranked WHERE rn <= {k} GROUP BY token"""


FUNNEL_CONVERSION_SQL = """
WITH s AS (
  SELECT user_id, min(ts) AS signup_ts FROM events
  WHERE event_type = 'signup' GROUP BY 1),
p AS (
  SELECT s.user_id, min(e.ts) AS conv_ts
  FROM s JOIN events e ON e.user_id = s.user_id
   AND e.event_type = 'purchase' AND e.ts > s.signup_ts
  GROUP BY 1)
SELECT s.user_id, epoch_us(s.signup_ts) AS signup_us,
       COALESCE(epoch_us(p.conv_ts), -1) AS conv_us,
       p.conv_ts IS NOT NULL AS converted
FROM s LEFT JOIN p USING (user_id)"""


URGENT_REVENUE_SQL = """
SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n_items,
       round(sum(l_extendedprice), 2) AS revenue
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')
GROUP BY l_returnflag"""


RUNNING_REVENUE_SQL = """
SELECT o_custkey, o_orderkey, epoch_us(o_orderdate) AS order_us,
       round(sum(o_totalprice) OVER (
           PARTITION BY o_custkey
           ORDER BY o_orderdate, o_orderkey), 2) AS cum_revenue
FROM orders"""


def bpe_token_counts_sql() -> str:
    """Twin of ops.text.bpe_token_counts — same RE2 patterns, quote
    doubled for SQL."""
    from raytiles.ops.text import BPE_RE, WS_RE
    bpe = BPE_RE.replace("'", "''")
    return f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{WS_RE.replace("'", "''")}')) AS BIGINT) AS n_ws_tokens,
       CAST(len(regexp_extract_all(text, '{bpe}')) AS BIGINT) AS n_bpe_tokens
FROM documents"""


DOC_RANK_SQL = """
SELECT doc_id, length(text) AS n_chars,
       row_number() OVER (ORDER BY length(text) DESC, doc_id) AS rank
FROM documents"""


COHORT_RETENTION_SQL = """
WITH s AS (
  SELECT user_id, date_trunc('week', min(ts)) AS cw FROM events
  WHERE event_type = 'signup' GROUP BY 1),
a AS (
  SELECT DISTINCT e.user_id, s.cw, date_trunc('week', e.ts) AS aw
  FROM events e JOIN s USING (user_id)
  WHERE date_trunc('week', e.ts) >= s.cw)
SELECT epoch_us(cw) AS cohort_us,
       CAST(date_diff('week', cw, aw) AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_active
FROM a GROUP BY 1, 2"""


def boilerplate_ngrams_sql(min_docs: int = 2, n: int = 5) -> str:
    """Boilerplate twin: same token grammar / gram construction /
    md5-derived hash as decontaminate_sql; heavy = grams in >=
    min_docs distinct docs."""
    return f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '[^0-9A-Za-z_]+'),
                     x -> x <> '') AS t
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id,
         substr(md5(array_to_string(t[i:i+{n - 1}], ' ')), 1, 16) AS gh
  FROM toks, unnest(range(1, len(t) - {n - 2})) AS u(i)
  WHERE len(t) >= {n}
), heavy AS (
  SELECT gh FROM grams GROUP BY gh HAVING count(*) >= {min_docs})
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(count(h.gh) AS BIGINT) AS n_boiler,
       floor(CAST(count(h.gh) AS DOUBLE) / count(*) * 1000000)
           / 1000000 AS boiler_ratio
FROM grams g LEFT JOIN heavy h USING (gh)
GROUP BY 1"""


NORMALIZED_DEDUP_SQL = r"""
SELECT md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS h,
       min(doc_id) AS doc_id, count(*) AS n_dups
FROM documents
GROUP BY 1"""


def quadkeys_sql(webpages_parquet: str, z: int = 12) -> str:
    """Quadkey twin: the same WebMercator tile exprs as morton, digits
    concatenated most-significant-first via substr('0123', ...)."""
    n = float(1 << z)
    digits = " || ".join(
        f"substr('0123', 1 + ((x >> {z - 1 - i}) & 1)"
        f" + 2 * ((y >> {z - 1 - i}) & 1), 1)"
        for i in range(z))
    return f"""
WITH {mentions_cte(webpages_parquet)}, xy AS (
  SELECT url, mention_idx,
    CAST(least(greatest(floor((lon + 180.0) / 360.0 * {n}), 0), {n} - 1) AS BIGINT) AS x,
    CAST(least(greatest(floor((1.0 - ln(tan(radians(lat)) + 1.0/cos(radians(lat))) / pi()) / 2.0 * {n}), 0), {n} - 1) AS BIGINT) AS y
  FROM mentions
)
SELECT url, mention_idx, {digits} AS quadkey FROM xy
"""


def chunk_documents_sql(chunk_words: int = 32) -> str:
    """Fixed-size chunking twin: 1-based inclusive list slices over
    string_split(text, ' '), rejoined with ' ' — byte-identical to the
    engine's contiguous-byte-slice construction by definition of the
    single-space delimiter."""
    w = chunk_words
    return f"""
WITH w AS (SELECT doc_id, string_split(text, ' ') AS words FROM documents)
SELECT doc_id,
       i AS chunk_idx,
       array_to_string(words[i*{w} + 1 : (i+1)*{w}], ' ') AS chunk_text,
       len(words[i*{w} + 1 : (i+1)*{w}]) AS n_words
FROM w, unnest(range(0, CAST(ceil(len(words)/{w}.0) AS BIGINT))) AS t(i)
"""


def unigram_logprob_sql(vocab_k: int = 256) -> str:
    """Unigram-LM scoring twin: per-token log-probs pre-quantized to
    INTEGER micro-nats (floor(ln(p)*1e6)), so the per-doc SUM is
    order-free and bit-exact vs the engine (float-sum order parity
    would not hold)."""
    return f"""
WITH {_TOKS_CTE},
dt AS (SELECT token, doc_id, count(*) AS tf FROM toks GROUP BY token, doc_id),
vocab AS (
  SELECT token, count(*) AS df, CAST(sum(tf) AS BIGINT) AS tf
  FROM dt GROUP BY token
  ORDER BY df DESC, token LIMIT {vocab_k}),
tot AS (SELECT count(*) AS n FROM toks),
lp AS (SELECT v.token,
              CAST(floor(ln(v.tf / t.n) * 1e6) AS BIGINT) AS lp
       FROM vocab v, tot t)
SELECT toks.doc_id,
       count(*) AS n_tokens,
       CAST(sum(COALESCE(lp.lp,
            (SELECT CAST(floor(ln(1.0 / n) * 1e6) AS BIGINT) FROM tot)))
            AS BIGINT) AS logprob_micro
FROM toks LEFT JOIN lp ON toks.token = lp.token
GROUP BY toks.doc_id"""


MIXTURE_SAMPLE_SQL = """
SELECT doc_id, source,
       (1 + CAST(regexp_extract(source, '([0-9]+)', 1) AS BIGINT) % 4) / 4.0 AS rate
FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT AS DOUBLE)
        / 18446744073709551616.0
      < (1 + CAST(regexp_extract(source, '([0-9]+)', 1) AS BIGINT) % 4) / 4.0
"""


def events_watermark_sql(lateness_s: int = 300) -> str:
    """Watermark twin: exclusive running max over arrival order
    (event_id is the unique arrival sequence, so the ROWS frame is
    deterministic)."""
    late_us = lateness_s * 1_000_000
    return f"""
WITH e AS (SELECT event_id, epoch_us(ts) AS ts_us FROM events)
SELECT event_id, ts_us,
  COALESCE(max(ts_us) OVER w, -1) AS wm_us,
  CASE WHEN max(ts_us) OVER w IS NULL THEN 0
       ELSE CAST(ts_us < max(ts_us) OVER w - {late_us} AS BIGINT) END AS is_late
FROM e
WINDOW w AS (ORDER BY event_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)"""


EVENTS_GAPFILL_SQL = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS w,
         count(*) AS n, round(sum(value), 6) AS s
  FROM events GROUP BY 1, 2),
b AS (SELECT event_type, min(w) AS lo, max(w) AS hi FROM h GROUP BY 1),
g AS (SELECT b.event_type,
             unnest(generate_series(b.lo, b.hi, INTERVAL 1 HOUR)) AS w
      FROM b)
SELECT g.event_type,
       strftime(g.w, '%Y-%m-%d %H:%M:%S') AS window_start,
       COALESCE(h.n, 0) AS n_events,
       COALESCE(h.s, 0) AS sum_value
FROM g LEFT JOIN h ON g.event_type = h.event_type AND g.w = h.w
"""


EVENTS_ROLLUP_SQL = """
SELECT COALESCE(event_type, '') AS event_type,
       COALESCE(strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S'), '')
         AS window_start,
       count(*) AS n_events,
       round(sum(value), 6) AS sum_value
FROM events
GROUP BY GROUPING SETS ((event_type, date_trunc('hour', ts)),
                        (event_type), ())
"""


def value_histogram_sql(bin_width: float = 5.0) -> str:
    return f"""
SELECT event_type,
       CAST(floor(value / {bin_width}) AS BIGINT) AS bin,
       count(*) AS n,
       round(min(value), 6) AS vmin,
       round(max(value), 6) AS vmax
FROM events GROUP BY 1, 2"""


def dedup_chunks_sql(chunk_words: int = 4) -> str:
    """C4-style chunk-dedup twin: the chunk_documents_sql grammar,
    global first occurrence per chunk via row_number() OVER
    (PARTITION BY substr(md5(chunk), 1, 16) ORDER BY doc_id,
    chunk_idx) — the same 64-bit md5 prefix the engine buckets and
    groups by — then per-doc reassembly of the survivors."""
    w = chunk_words
    return f"""
WITH w AS (SELECT doc_id, string_split(text, ' ') AS words FROM documents),
c AS (SELECT doc_id, i AS chunk_idx,
             array_to_string(words[i*{w} + 1 : (i+1)*{w}], ' ') AS chunk
      FROM w, unnest(range(0, CAST(ceil(len(words)/{w}.0) AS BIGINT))) AS t(i)),
k AS (SELECT doc_id, chunk_idx, chunk,
             row_number() OVER (PARTITION BY substr(md5(chunk), 1, 16)
                                ORDER BY doc_id, chunk_idx) AS rn
      FROM c)
SELECT doc_id,
       array_to_string(list(chunk ORDER BY chunk_idx), ' ') AS clean_text,
       CAST(count(*) AS BIGINT) AS n_kept
FROM k WHERE rn = 1 GROUP BY doc_id"""


def pack_sequences_sql(seq_len: int = 64) -> str:
    """Sequence-packing twin: exclusive running token sum in doc_id
    order (the engine's distributed prefix scan) + one range-unnest
    per overlapped sequence; token positions are doc-local."""
    L = seq_len
    return f"""
WITH t AS (SELECT doc_id,
                  CAST(len(string_split(text, ' ')) AS BIGINT) AS n
           FROM documents),
c AS (SELECT doc_id, n,
             CAST(COALESCE(sum(n) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS BIGINT) AS s
      FROM t)
SELECT doc_id, i AS seq_id,
       greatest(s, i*{L}) - s AS tok_from,
       least(s + n, (i+1)*{L}) - s AS tok_to
FROM c, unnest(range(s // {L}, (s + n - 1) // {L} + 1)) AS u(i)
WHERE n > 0"""


def hdr_quantiles_sql(qs=(0.5, 0.95, 0.99), sub: int = 16) -> str:
    """Twin of ops.sketch.hdr_quantiles: the identical INTEGER binning
    (bits via length(bin(cents)), lower bound via BIGINT <<, linear
    sub-bucket via //) and rank rule cum >= ceil(q*n) — the sketch is
    a deterministic function of exact bin counts, so the approximate
    operator is fully oracle-checkable."""
    s = sub
    vals = ", ".join(f"({q})" for q in qs)
    return f"""
WITH c AS (
  SELECT l_returnflag,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT) AS cents
  FROM lineitem),
k AS (
  SELECT l_returnflag,
         (length(bin(cents)) - 1) * {s}
           + ((cents - (1::BIGINT << (length(bin(cents)) - 1))) * {s}
              // (1::BIGINT << (length(bin(cents)) - 1))) AS bin_key,
         count(*) AS n
  FROM c GROUP BY 1, 2),
cum AS (
  SELECT l_returnflag, bin_key, n,
         sum(n) OVER (PARTITION BY l_returnflag ORDER BY bin_key) AS c,
         sum(n) OVER (PARTITION BY l_returnflag) AS tot
  FROM k)
SELECT l_returnflag, CAST(q AS DOUBLE) AS q,
       min((1::BIGINT << (bin_key // {s}))
           + ((1::BIGINT << (bin_key // {s})) * (bin_key % {s})) // {s})
         AS est_cents
FROM cum, (VALUES {vals}) AS qs(q)
WHERE c >= ceil(q * tot)
GROUP BY 1, 2"""


def bigram_pmi_sql(vocab_k: int = 256, min_count: int = 5) -> str:
    """Twin of ops.text.bigram_pmi: adjacent token pairs via the
    boilerplate range-unnest pattern, vocabulary and N from the
    vocab_topk / token-count twins, and the identical double
    arithmetic ln((n_xy*N)/(tf1*tf2)) floor-quantized to micro-nats."""
    return f"""
WITH ta AS (SELECT doc_id, regexp_extract_all(text, '{SQL_TOKEN_RE}') AS t
            FROM documents),
v AS (
  SELECT token, CAST(sum(tf) AS BIGINT) AS tf FROM (
    SELECT token, doc_id, count(*) AS tf
    FROM (SELECT doc_id, unnest(t) AS token FROM ta)
    GROUP BY token, doc_id)
  GROUP BY token
  ORDER BY count(*) DESC, token LIMIT {vocab_k}),
n AS (SELECT CAST(sum(len(t)) AS DOUBLE) AS n FROM ta),
big AS (SELECT t[i] AS t1, t[i + 1] AS t2
        FROM ta, unnest(range(1, len(t))) AS u(i)
        WHERE len(t) >= 2),
bc AS (SELECT t1, t2, CAST(count(*) AS BIGINT) AS n_xy
       FROM big
       JOIN v v1 ON v1.token = big.t1
       JOIN v v2 ON v2.token = big.t2
       GROUP BY 1, 2
       HAVING count(*) >= {min_count})
SELECT bc.t1 || ' ' || bc.t2 AS bigram, bc.n_xy,
       CAST(floor(ln((bc.n_xy::DOUBLE * n.n) / (v1.tf::DOUBLE * v2.tf))
                  * 1e6) AS BIGINT) AS pmi_micro
FROM bc
JOIN v v1 ON v1.token = bc.t1
JOIN v v2 ON v2.token = bc.t2, n"""


def trajectory_lengths_sql(webpages_parquet: str) -> str:
    """Twin of ops.spatial.trajectory_lengths: lag window per url over
    mention order, the identical haversine double ops, per-leg floor
    to BIGINT millimeters before the sum (order-free exactness)."""
    return f"""
WITH {mentions_cte(webpages_parquet)},
legs AS (
  SELECT url,
         lag(lat) OVER w AS plat, lag(lon) OVER w AS plon, lat, lon
  FROM mentions
  WINDOW w AS (PARTITION BY url ORDER BY mention_idx)),
d AS (
  SELECT url,
         CAST(floor(12742000000.0 * asin(sqrt(
           sin(radians((lat - plat) / 2)) * sin(radians((lat - plat) / 2))
           + cos(radians(plat)) * cos(radians(lat))
             * sin(radians((lon - plon) / 2)) * sin(radians((lon - plon) / 2))
         ))) AS BIGINT) AS mm
  FROM legs WHERE plat IS NOT NULL)
SELECT url, CAST(count(*) AS BIGINT) AS n_legs,
       CAST(sum(mm) AS BIGINT) AS length_mm
FROM d GROUP BY url"""


def lang_percentiles_sql() -> str:
    """Twin of ops.text.lang_percentiles: percent_rank() already IS
    (rank-1)/(n-1) with min-rank tie semantics and 0 for single-row
    partitions — floor-quantize to micro units on both sides."""
    return """
SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS n_chars,
       CAST(floor(percent_rank() OVER (
           PARTITION BY lang ORDER BY length(text)) * 1e6) AS BIGINT)
         AS pct_micro
FROM documents"""


def corpus_checksums_sql(n_buckets: int = 64) -> str:
    """Twin of ops.text.corpus_checksums: the repo's md5-u64 parity
    rule + DuckDB's bit_xor aggregate (XOR is order-free, so engine
    merge order is irrelevant by construction); checksum compares as
    16 lowercase hex chars (uint64 columns are unsafe through Ray's
    streamed output path — see the engine docstring)."""
    return f"""
SELECT doc_id % {n_buckets} AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs,
       lpad(lower(to_hex(
           bit_xor(('0x' || substr(md5(text), 1, 16))::UBIGINT))),
           16, '0') AS checksum
FROM documents GROUP BY 1"""


GROUP_MODE_SQL = """
SELECT event_type, modal_user, n FROM (
  SELECT event_type, user_id AS modal_user,
         CAST(count(*) AS BIGINT) AS n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY count(*) DESC, user_id) AS rn
  FROM events GROUP BY event_type, user_id)
WHERE rn = 1"""


def events_range_window_sql(range_s: int = 300) -> str:
    """Twin of ops.relational.events_range_window: DuckDB's RANGE
    frame over integer microseconds — peers at equal ts included on
    both sides by the frame definition."""
    return f"""
SELECT event_id,
       CAST(count(*) OVER (ORDER BY epoch_us(ts)
            RANGE BETWEEN {range_s * 1_000_000} PRECEDING
            AND CURRENT ROW) AS BIGINT) AS n_in_range
FROM events"""


def feature_hashing_sql(n_features: int = 256) -> str:
    """Twin of ops.text.feature_hashing: the md5-u64 parity expression
    supplies bucket (mod) and sign (top bit); zero weights dropped."""
    return f"""
WITH {_TOKS_CTE},
h AS (SELECT doc_id,
             ('0x' || substr(md5(token), 1, 16))::UBIGINT AS hv
      FROM toks)
SELECT doc_id,
       CAST(hv % {n_features} AS BIGINT) AS fh_bucket,
       CAST(sum(CASE WHEN hv >= 9223372036854775808 THEN -1 ELSE 1 END)
            AS BIGINT) AS weight
FROM h GROUP BY 1, 2
HAVING sum(CASE WHEN hv >= 9223372036854775808 THEN -1 ELSE 1 END) <> 0"""

# Twin of ops.relational.user_value_history (SCD-2 build): lead(ts)
# per user over the filtered change log; open rows carry -1 (the
# engine's NULL sentinel, coalesced identically here).
USER_VALUE_HISTORY_SQL = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 1e6) AS BIGINT) AS vm
  FROM events WHERE event_type = 'purchase')
SELECT user_id, event_id, vm,
       ts_us AS valid_from_us,
       coalesce(lead(ts_us) OVER (PARTITION BY user_id
                                  ORDER BY ts_us, event_id),
                -1) AS valid_to_us
FROM e"""


# Twin of ops.relational.events_ohlc: first/last via row_number over
# (ts, event_id) both directions; values micro-quantized with the
# engine's identical floor op so every column is exact INT64.
EVENTS_OHLC_SQL = """
WITH e AS (
  SELECT event_type, event_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 1e6) AS BIGINT) AS vm,
         epoch_us(ts) // 21600000000 AS bk
  FROM events),
w AS (
  SELECT *,
         row_number() OVER (PARTITION BY event_type, bk
                            ORDER BY ts_us, event_id) AS ra,
         row_number() OVER (PARTITION BY event_type, bk
                            ORDER BY ts_us DESC, event_id DESC) AS rd
  FROM e)
SELECT event_type, bk AS bucket_id,
       max(CASE WHEN ra = 1 THEN vm END) AS open_vm,
       max(vm) AS high_vm,
       min(vm) AS low_vm,
       max(CASE WHEN rd = 1 THEN vm END) AS close_vm,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(vm) AS BIGINT) AS sum_vm
FROM w GROUP BY 1, 2"""


EVENT_TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events)
SELECT prev AS from_type, event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev IS NOT NULL
GROUP BY 1, 2"""


def events_lag_sql() -> str:
    """Twin of ops.relational.events_lag: lag() over (user, ts,
    event_id) order; values quantized to INT64 micro-units with the
    identical floor(value * 1e6) double op before the subtraction, so
    the delta is bit-exact on both sides."""
    return """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 1e6) AS BIGINT) AS vm
  FROM events)
SELECT event_id, user_id, ts_us,
       lag(event_id) OVER win AS prev_event_id,
       vm - lag(vm) OVER win AS delta_micro
FROM e
WINDOW win AS (PARTITION BY user_id ORDER BY ts_us, event_id)
QUALIFY lag(event_id) OVER win IS NOT NULL"""


def events_moving_sum_sql(k_preceding: int = 3) -> str:
    """Twin of ops.relational.events_moving_sum: the ROWS frame over
    (user, ts, event_id) order; integer micro-unit sums are order-free
    exact."""
    return f"""
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 1e6) AS BIGINT) AS vm
  FROM events)
SELECT event_id, user_id, ts_us,
       CAST(sum(vm) OVER win AS BIGINT) AS w_sum_micro,
       CAST(count(*) OVER win AS BIGINT) AS w_n
FROM e
WINDOW win AS (PARTITION BY user_id ORDER BY ts_us, event_id
               ROWS BETWEEN {k_preceding} PRECEDING AND CURRENT ROW)"""

def comention_edges_sql(webpages_parquet: str, res: int = 5) -> str:
    """Twin of ops.spatial.comention_edges: distinct (url, cell) then
    an a.cell < b.cell self-join on url, counting co-mentioning docs."""
    return f"""
WITH {mentions_cte(webpages_parquet)},
cells AS (
  SELECT DISTINCT url, {_cell_expr(res)} AS cell FROM mentions)
SELECT a.cell AS cell_a, b.cell AS cell_b, count(*) AS n_docs
FROM cells a JOIN cells b ON a.url = b.url AND a.cell < b.cell
GROUP BY 1, 2"""

def hotspot_regions_sql(webpages_parquet: str, res: int = 5,
                        threshold: int = 8) -> str:
    """Twin of ops.spatial.hotspot_regions: dense cells, 8-adjacency
    edges via decoded (cx, cy) deltas (no longitude wrap), recursive
    reachability -> min-label components (the dup_clusters walk)."""
    return f"""
WITH RECURSIVE {mentions_cte(webpages_parquet)},
counts AS (
  SELECT {_cell_expr(res)} AS cell, count(*) AS n
  FROM mentions GROUP BY 1),
dense AS (SELECT cell, n FROM counts WHERE n >= {threshold}),
coords AS (
  SELECT cell, n, (cell % 72057594037927936) // 268435456 AS cx,
         cell % 268435456 AS cy
  FROM dense),
edges AS (
  SELECT a.cell AS src, b.cell AS dst
  FROM coords a JOIN coords b
  ON abs(a.cx - b.cx) <= 1 AND abs(a.cy - b.cy) <= 1
     AND a.cell != b.cell),
walk(cell, label) AS (
  SELECT cell, cell FROM dense
  UNION
  SELECT e.dst, w.label FROM walk w JOIN edges e ON e.src = w.cell)
SELECT d.cell AS cell_r{res}, min(w.label) AS region_id,
       CAST(d.n AS BIGINT) AS n_mentions
FROM walk w JOIN dense d ON d.cell = w.cell
GROUP BY 1, 3"""


def cell_triangles_sql(webpages_parquet: str, res: int = 5) -> str:
    """Twin of ops.graph.cell_triangles: the co-mention edge set
    (distinct a < b pairs) three-way self-joined so each triangle
    {a < b < c} is counted once at its smallest-vertex edge (a, b)."""
    return f"""
WITH {mentions_cte(webpages_parquet)},
cells AS (
  SELECT DISTINCT url, {_cell_expr(res)} AS cell FROM mentions),
e AS (
  SELECT a.cell AS cell_a, b.cell AS cell_b
  FROM cells a JOIN cells b ON a.url = b.url AND a.cell < b.cell
  GROUP BY 1, 2)
SELECT e1.cell_a AS cell_a, e1.cell_b AS cell_b,
       CAST(count(*) AS BIGINT) AS n_tri
FROM e e1
JOIN e e2 ON e2.cell_a = e1.cell_b
JOIN e e3 ON e3.cell_a = e1.cell_a AND e3.cell_b = e2.cell_b
GROUP BY 1, 2"""


def token_entropy_sql() -> str:
    """Twin of ops.text.token_entropy: per-(doc, token) counts, each
    c*ln(c) term floor-quantized to INT64 micro-nats before the
    order-free integer per-doc sum; the closing entropy expression is
    the identical double-op sequence."""
    return f"""
WITH {_TOKS_CTE},
cnt AS (SELECT doc_id, token, count(*) AS c FROM toks GROUP BY 1, 2),
agg AS (SELECT doc_id,
               CAST(sum(c) AS BIGINT) AS n_tokens,
               CAST(sum(CAST(floor(c * ln(c) * 1e6) AS BIGINT)) AS BIGINT) AS s
        FROM cnt GROUP BY 1)
SELECT doc_id, n_tokens,
       CAST(floor((ln(n_tokens) - (s / n_tokens) / 1e6) * 1e6) AS BIGINT)
         AS ent_micro
FROM agg"""

ORDER_REVENUE_LEFT_SQL = """
SELECT o.o_orderkey, o.o_custkey, epoch_us(o.o_orderdate) AS orderdate_us,
       round(coalesce(sum(l.l_extendedprice * (1 - l.l_discount)), 0), 2)
         AS revenue,
       CAST(count(l.l_orderkey) AS BIGINT) AS n_items
FROM orders o LEFT JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE o.o_orderstatus = 'O'
GROUP BY 1, 2, 3"""

def bigram_logprob_sql(vocab_k: int = 256) -> str:
    """Twin of ops.text.bigram_logprob: add-one-smoothed bigram
    conditional log-probs over the top-V vocabulary, each term
    floor-quantized to INT64 micro-nats before the order-free per-doc
    integer sum. V is (SELECT count(*) FROM v) on both sides."""
    return f"""
WITH ta AS (SELECT doc_id, regexp_extract_all(text, '{SQL_TOKEN_RE}') AS t
            FROM documents),
v AS (
  SELECT token, CAST(sum(tf) AS BIGINT) AS tf FROM (
    SELECT token, doc_id, count(*) AS tf
    FROM (SELECT doc_id, unnest(t) AS token FROM ta)
    GROUP BY token, doc_id)
  GROUP BY token
  ORDER BY count(*) DESC, token LIMIT {vocab_k}),
vn AS (SELECT count(*) AS cnt FROM v),
big AS (SELECT doc_id, t[i] AS t1, t[i + 1] AS t2
        FROM ta, unnest(range(1, len(t))) AS u(i)
        WHERE len(t) >= 2),
inv AS (SELECT big.doc_id, big.t1, big.t2, v1.tf AS tf1
        FROM big
        JOIN v v1 ON v1.token = big.t1
        JOIN v v2 ON v2.token = big.t2),
bc AS (SELECT t1, t2, CAST(count(*) AS BIGINT) AS c
       FROM inv GROUP BY 1, 2),
scored AS (
  SELECT inv.doc_id,
         CAST(floor(ln((bc.c + 1)::DOUBLE / (inv.tf1 + vn.cnt)) * 1e6)
              AS BIGINT) AS lp
  FROM inv JOIN bc ON bc.t1 = inv.t1 AND bc.t2 = inv.t2, vn)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(lp) AS BIGINT) AS logprob_micro
FROM scored GROUP BY 1"""

def geohashes_sql(webpages_parquet: str, precision: int = 6) -> str:
    """Twin of geo/tilemath.geohash at even precision: the
    morton_cells arithmetic-interleave pattern (lat even / lon odd
    bit positions -> lon leads from the MSB) + substr(alphabet) per
    5-bit group."""
    bits = 5 * precision
    assert bits % 2 == 0, "SQL twin pinned to even precisions"
    half = bits // 2
    n = float(1 << half)
    terms = " + ".join(
        f"(((y >> {i}) & 1) + 2 * ((x >> {i}) & 1)) * {4 ** i}"
        for i in range(half))
    alpha = "0123456789bcdefghjkmnpqrstuvwxyz"
    chars = " || ".join(
        f"substr('{alpha}', CAST(((g >> {bits - 5 * (j + 1)}) & 31) + 1 "
        f"AS BIGINT), 1)" for j in range(precision))
    return f"""
WITH {mentions_cte(webpages_parquet)}, xy AS (
  SELECT url, mention_idx,
    CAST(least(greatest(floor((lon + 180.0) / 360.0 * {n}), 0), {n} - 1) AS BIGINT) AS x,
    CAST(least(greatest(floor((lat + 90.0) / 180.0 * {n}), 0), {n} - 1) AS BIGINT) AS y
  FROM mentions
), gh AS (SELECT url, mention_idx, {terms} AS g FROM xy)
SELECT url, mention_idx, {chars} AS geohash FROM gh"""


EVENTS_PIVOT_SQL = """
SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start,
       count(*) FILTER (WHERE event_type = 'click')    AS n_click,
       count(*) FILTER (WHERE event_type = 'error')    AS n_error,
       count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       count(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
       count(*) FILTER (WHERE event_type = 'view')     AS n_view,
       round(sum(value), 6) AS sum_value
FROM events GROUP BY 1
"""


def value_outliers_sql(z_thresh: float = 3.0) -> str:
    """Twin computes mean/std from the same (n, sum, sumsq) moments
    the engine reduces to, so both sides apply identical formulas to
    float sums that differ only in addition order (z rounds to 4)."""
    return f"""
WITH st AS (SELECT event_type, count(*) AS n, sum(value) AS s,
                   sum(value * value) AS s2
            FROM events GROUP BY 1),
m AS (SELECT event_type, s / n AS mu,
             sqrt(greatest(s2 / n - (s / n) * (s / n), 0)) AS sd
      FROM st)
SELECT e.event_id, e.event_type, e.value,
       round((e.value - m.mu) / m.sd, 4) AS z
FROM events e JOIN m USING (event_type)
WHERE abs((e.value - m.mu) / m.sd) > {z_thresh}
"""


def interval_coverage_sql(duration_s: int = 300) -> str:
    """Island detection twin, all int64 microseconds (exact): strict
    `s > prev_max` break means touching intervals merge."""
    dur_us = duration_s * 1_000_000
    return f"""
WITH iv AS (SELECT user_id, epoch_us(ts) AS s,
                   epoch_us(ts) + {dur_us} AS e FROM events),
m AS (SELECT user_id, s, e,
             max(e) OVER (PARTITION BY user_id ORDER BY s, e
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS pmax
      FROM iv),
g AS (SELECT user_id, s, e,
             sum(CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY s, e
                     ROWS BETWEEN UNBOUNDED PRECEDING
                     AND CURRENT ROW) AS isl
      FROM m),
islands AS (SELECT user_id, isl, min(s) AS s0, max(e) AS e1
            FROM g GROUP BY 1, 2)
SELECT user_id, count(*) AS n_intervals,
       CAST(sum(e1 - s0) AS BIGINT) AS covered_us
FROM islands GROUP BY 1
"""


def rolling_dau_sql(window_days: int = 7) -> str:
    return f"""
WITH du AS (SELECT DISTINCT epoch_us(ts) // 86400000000 AS d, user_id
            FROM events),
b AS (SELECT min(d) AS lo, max(d) AS hi FROM du),
days AS (SELECT unnest(generate_series(b.lo, b.hi)) AS d FROM b)
SELECT strftime(make_timestamp(days.d * 86400000000), '%Y-%m-%d') AS day,
       (SELECT count(DISTINCT user_id) FROM du WHERE du.d = days.d)
         AS dau,
       (SELECT count(DISTINCT user_id) FROM du
        WHERE du.d BETWEEN days.d - {window_days - 1} AND days.d)
         AS dau_window
FROM days
"""


def weighted_sample_sql(k: int = 100) -> str:
    """A-ES twin: identical md5 -> u64 -> double -> pow priority chain;
    the float priority orders but is not output (see ops.groupops)."""
    return f"""
SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars,
         pow(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                    ::UBIGINT AS DOUBLE) / 18446744073709551616.0,
             1.0 / n_chars) AS prio
  FROM documents
  ORDER BY prio DESC, doc_id
  LIMIT {k})
"""


EVENTS_DECILES_SQL = """
WITH r AS (SELECT event_type, value,
                  rank() OVER (PARTITION BY event_type
                               ORDER BY value) AS rk,
                  count(*) OVER (PARTITION BY event_type) AS n
           FROM events)
SELECT event_type, CAST(((rk - 1) * 10) // n AS BIGINT) AS decile,
       count(*) AS n_events,
       min(value) AS min_value, max(value) AS max_value
FROM r GROUP BY 1, 2
"""


USER_JOURNEYS_SQL = """
SELECT user_id,
       string_agg(substr(event_type, 1, 1), ''
                  ORDER BY ts, event_id) AS journey,
       count(*) AS n_events
FROM events GROUP BY 1
"""


def fuzzy_search_sql(query: str = "batch window spark order data",
                     prefix_len: int = 32, k: int = 20) -> str:
    """Levenshtein twin — integer distances, (dist, doc_id) total
    order, so top-k is deterministic. ASCII corpus: byte prefixes
    (engine) == character prefixes (substr)."""
    return f"""
SELECT doc_id, levenshtein(substr(text, 1, {prefix_len}),
                           '{query}') AS dist
FROM documents ORDER BY dist, doc_id LIMIT {k}
"""


UNPIVOT_LINEITEM_SQL = """
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       'l_quantity' AS measure, l_quantity AS value FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT),
       'l_extendedprice', l_extendedprice FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT),
       'l_discount', l_discount FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT),
       'l_tax', l_tax FROM lineitem
"""


PROPS_EXTRACT_SQL = """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT))
            AS BIGINT) AS sum_k,
       min(CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT))
         AS min_k,
       max(CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT))
         AS max_k
FROM events GROUP BY 1
"""


def churned_users_sql(window_days: int = 1) -> str:
    return f"""
WITH b AS (SELECT min(epoch_us(ts) // 86400000000) AS lo,
                  max(epoch_us(ts) // 86400000000) AS hi FROM events)
SELECT DISTINCT user_id FROM events, b
WHERE epoch_us(ts) // 86400000000 < b.lo + {window_days}
EXCEPT
SELECT DISTINCT user_id FROM events, b
WHERE epoch_us(ts) // 86400000000 > b.hi - {window_days}
"""


VALUE_TIME_CORR_SQL = """
WITH m AS (SELECT event_type,
                  CAST((epoch_us(ts) // 3600000000) % 24 AS DOUBLE) AS x,
                  value AS y
           FROM events),
s AS (SELECT event_type, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * y) AS sxy, sum(x * x) AS sx2, sum(y * y) AS sy2
      FROM m GROUP BY 1)
SELECT event_type, n AS n_events,
       round((n * sxy - sx * sy)
             / sqrt((n * sx2 - sx * sx) * (n * sy2 - sy * sy)), 6) AS r
FROM s
"""


def quantile_cont_sql(qs=(0.25, 0.5, 0.75, 0.9)) -> str:
    """Interpolated-quantile twin spelling out the IDENTICAL
    h = (n-1)*q double-op sequence (not DuckDB's quantile_cont
    internals) so engine/oracle agree bit-for-bit before the round."""
    cols = []
    for q in qs:
        cols.append(f"""
       round(max(CASE WHEN i = CAST(floor((n - 1) * {q}) AS BIGINT)
                      THEN value END)
             + ((max(n) - 1) * {q} - floor((max(n) - 1) * {q}))
               * (max(CASE WHEN i = CAST(ceil((n - 1) * {q}) AS BIGINT)
                           THEN value END)
                  - max(CASE WHEN i = CAST(floor((n - 1) * {q}) AS BIGINT)
                             THEN value END)), 6) AS p{int(q * 100)}""")
    return f"""
WITH v AS (SELECT event_type, value,
                  row_number() OVER (PARTITION BY event_type
                                     ORDER BY value) - 1 AS i,
                  count(*) OVER (PARTITION BY event_type) AS n
           FROM events)
SELECT event_type, CAST(max(n) AS BIGINT) AS n_events,{','.join(cols)}
FROM v GROUP BY event_type
"""


def journey_pattern_sql(pattern: str = "s[cv]*p") -> str:
    return f"""
WITH j AS (SELECT user_id,
                  string_agg(substr(event_type, 1, 1), ''
                             ORDER BY ts, event_id) AS journey
           FROM events GROUP BY 1)
SELECT user_id,
       CAST(len(regexp_extract_all(journey, '{pattern}')) AS BIGINT)
         AS n_matches
FROM j
"""


NEW_USERS_CURVE_SQL = """
WITH f AS (SELECT user_id, min(epoch_us(ts) // 86400000000) AS d
           FROM events GROUP BY 1),
b AS (SELECT min(epoch_us(ts) // 86400000000) AS lo,
             max(epoch_us(ts) // 86400000000) AS hi FROM events),
days AS (SELECT unnest(generate_series(b.lo, b.hi)) AS d FROM b),
c AS (SELECT d, count(*) AS n_new FROM f GROUP BY 1)
SELECT strftime(make_timestamp(days.d * 86400000000), '%Y-%m-%d') AS day,
       COALESCE(c.n_new, 0) AS n_new,
       CAST(sum(COALESCE(c.n_new, 0))
              OVER (ORDER BY days.d) AS BIGINT) AS cum_users
FROM days LEFT JOIN c ON days.d = c.d
"""


TIME_WEIGHTED_VALUE_SQL = """
WITH e AS (SELECT user_id, epoch_us(ts) AS t,
                  CAST(round(value * 100) AS BIGINT) AS cent,
                  lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS nxt
           FROM events)
SELECT user_id, count(*) AS n_events,
       round(CAST(sum(cent * (nxt - t)) AS DOUBLE)
             / (max(t) - min(t)) / 100, 6) AS twa
FROM e GROUP BY 1 HAVING count(*) >= 2
"""


AUDIENCE_OVERLAP_SQL = """
WITH du AS (SELECT DISTINCT user_id, event_type FROM events),
p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
             count(*) AS n_both
      FROM du a JOIN du b ON a.user_id = b.user_id
                         AND a.event_type < b.event_type
      GROUP BY 1, 2),
c AS (SELECT event_type, count(*) AS n FROM du GROUP BY 1)
SELECT type_a, type_b, ca.n AS n_a, cb.n AS n_b, n_both,
       round(CAST(n_both AS DOUBLE) / (ca.n + cb.n - n_both), 6)
         AS jaccard
FROM p JOIN c ca ON ca.event_type = type_a
       JOIN c cb ON cb.event_type = type_b
"""


MAD_STATS_SQL = """
WITH c AS (SELECT event_type,
                  CAST(round(value * 100) AS BIGINT) AS cent
           FROM events),
r AS (SELECT event_type, cent,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY cent) AS rn,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM c),
m AS (SELECT event_type, max(n) AS n,
             min(cent) FILTER (WHERE rn >= CAST(ceil(n / 2.0) AS BIGINT))
               AS med
      FROM r GROUP BY 1),
d AS (SELECT r.event_type, abs(r.cent - m.med) AS dev
      FROM r JOIN m USING (event_type)),
r2 AS (SELECT event_type, dev,
              row_number() OVER (PARTITION BY event_type
                                 ORDER BY dev) AS rn,
              count(*) OVER (PARTITION BY event_type) AS n
       FROM d),
m2 AS (SELECT event_type,
              min(dev) FILTER (WHERE rn >= CAST(ceil(n / 2.0) AS BIGINT))
                AS mad
       FROM r2 GROUP BY 1)
SELECT m.event_type, CAST(m.n AS BIGINT) AS n_events,
       m.med / 100.0 AS median_value, m2.mad / 100.0 AS mad
FROM m JOIN m2 USING (event_type)
"""


def loyal_users_sql(event_type: str = "purchase") -> str:
    return f"""
WITH d AS (SELECT count(DISTINCT epoch_us(ts) // 86400000000 // 7)
             AS nw FROM events)
SELECT user_id FROM events, d
WHERE event_type = '{event_type}'
GROUP BY user_id, d.nw
HAVING count(DISTINCT epoch_us(ts) // 86400000000 // 7) = d.nw
"""


WOW_GROWTH_SQL = """
WITH w AS (SELECT event_type,
                  epoch_us(ts) // 86400000000 // 7 AS week,
                  sum(value) AS s
           FROM events GROUP BY 1, 2)
SELECT event_type, CAST(week AS BIGINT) AS week,
       round(s, 6) AS sum_value,
       round(lag(s) OVER (PARTITION BY event_type ORDER BY week), 6)
         AS prev_value,
       round((s - lag(s) OVER (PARTITION BY event_type ORDER BY week))
             / lag(s) OVER (PARTITION BY event_type ORDER BY week), 6)
         AS pct_change
FROM w
"""


ORDER_DISCOUNT_FACTOR_SQL = """
SELECT l_orderkey, count(*) AS n_items,
       CAST(sum(CAST(floor(ln(1 - l_discount) * 1000000) AS BIGINT))
            AS BIGINT) AS log_factor_unat
FROM lineitem GROUP BY 1
"""


def char_trigrams_sql(k: int = 20) -> str:
    """Trigram-profile twin: packed-int key order == lexicographic
    byte order for ASCII, so the (n DESC, trigram ASC) tie-break
    agrees on both sides."""
    return f"""
WITH t AS (SELECT lang, substr(text, CAST(i AS INTEGER), 3) AS trigram
           FROM (SELECT lang, text,
                        unnest(generate_series(1, length(text) - 2)) AS i
                 FROM documents)),
c AS (SELECT lang, trigram, count(*) AS n FROM t GROUP BY 1, 2)
SELECT lang, trigram, n FROM c
QUALIFY row_number() OVER (PARTITION BY lang
                           ORDER BY n DESC, trigram) <= {k}
"""


CHI2_TYPE_HOUR_SQL = """
WITH o AS (SELECT event_type, (epoch_us(ts) // 3600000000) % 24 AS hr,
                  count(*) AS n
           FROM events GROUP BY 1, 2),
r AS (SELECT event_type, CAST(sum(n) AS DOUBLE) AS rn FROM o GROUP BY 1),
h AS (SELECT unnest(generate_series(0, 23)) AS hr),
c AS (SELECT hr, CAST(sum(n) AS DOUBLE) AS cn FROM o GROUP BY 1),
t AS (SELECT CAST(sum(n) AS DOUBLE) AS tot FROM o),
cells AS (SELECT r.event_type, h.hr, r.rn,
                 COALESCE(c.cn, 0) AS cn,
                 COALESCE(o.n, 0) AS obs
          FROM r CROSS JOIN h
          LEFT JOIN c ON c.hr = h.hr
          LEFT JOIN o ON o.event_type = r.event_type AND o.hr = h.hr)
SELECT CAST(t.tot AS BIGINT) AS n_events,
       (SELECT (count(*) - 1) * 23 FROM r) AS dof,
       round(sum(pow(obs - rn * cn / t.tot, 2) / (rn * cn / t.tot)), 6)
         AS chi2,
       round(sqrt(sum(pow(obs - rn * cn / t.tot, 2)
                      / (rn * cn / t.tot))
                  / (t.tot * least((SELECT count(*) - 1 FROM r), 23))), 6)
         AS cramers_v
FROM cells, t GROUP BY t.tot
"""


def iceberg_cells_sql(webpages_parquet: str,
                      ppm_threshold: int = 5000) -> str:
    """Iceberg twin: exact integer ppm shares (DuckDB // truncates
    toward zero == floor on non-negative counts)."""
    return f"""
WITH {mentions_cte(webpages_parquet)},
c AS (SELECT {_cell_expr(5)} AS cell_r5, count(*) AS n_mentions,
             count(DISTINCT url) AS n_docs FROM mentions GROUP BY 1),
t AS (SELECT CAST(sum(n_mentions) AS BIGINT) AS tot FROM c)
SELECT cell_r5, n_mentions, n_docs,
       CAST(n_mentions * 1000000 // t.tot AS BIGINT) AS share_ppm
FROM c, t
WHERE n_mentions * 1000000 // t.tot > {ppm_threshold}
"""


def winsorized_mean_sql(lo_q: float = 0.05, hi_q: float = 0.95) -> str:
    """Winsorized-mean twin: the discrete quantile rule (min value
    with cum count >= ceil(q*n)) via rank CTE, exact integer cent
    clamping, one closing division."""
    return f"""
WITH c AS (SELECT event_type,
                  CAST(round(value * 100) AS BIGINT) AS cent
           FROM events),
r AS (SELECT event_type, cent,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY cent) AS rn,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM c),
b AS (SELECT event_type, max(n) AS n,
             min(cent) FILTER (WHERE rn >= CAST(ceil(n * {lo_q})
                                              AS BIGINT)) AS lo,
             min(cent) FILTER (WHERE rn >= CAST(ceil(n * {hi_q})
                                              AS BIGINT)) AS hi
      FROM r GROUP BY 1)
SELECT b.event_type, CAST(b.n AS BIGINT) AS n_events,
       b.lo / 100.0 AS lo_bound, b.hi / 100.0 AS hi_bound,
       round(CAST(sum(least(greatest(c.cent, b.lo), b.hi)) AS DOUBLE)
             / b.n / 100.0, 6) AS wins_mean
FROM c JOIN b USING (event_type)
GROUP BY b.event_type, b.n, b.lo, b.hi
"""


def profile_table_sql() -> str:
    """Profiling twin: CAST-to-VARCHAR semantics per column, 16-char
    min/max prefixes, exact distinct, avg length rounded to 6."""
    parts = []
    for c in ("doc_id", "text", "lang", "source", "n_chars"):
        parts.append(f"""
SELECT '{c}' AS col_name, count(*) AS n_rows,
       count(*) - count({c}) AS n_nulls,
       count(DISTINCT CAST({c} AS VARCHAR)) AS n_distinct,
       substr(min(CAST({c} AS VARCHAR)), 1, 16) AS min_val,
       substr(max(CAST({c} AS VARCHAR)), 1, 16) AS max_val,
       round(avg(length(CAST({c} AS VARCHAR))), 6) AS avg_len
FROM documents""")
    return "\nUNION ALL\n".join(parts)


def oov_rate_sql(vocab_k: int = 100) -> str:
    """OOV twin: same top-V vocabulary rule (df DESC, token), exact
    integer ppm."""
    return f"""
WITH {_TOKS_CTE},
dt AS (SELECT token, doc_id, count(*) AS tf FROM toks
       GROUP BY token, doc_id),
vocab AS (SELECT token FROM dt GROUP BY token
          ORDER BY count(*) DESC, token LIMIT {vocab_k}),
d AS (SELECT doc_id, count(*) AS n_tokens,
             count(*) FILTER (WHERE token IN (SELECT token FROM vocab))
               AS n_in
      FROM toks GROUP BY 1)
SELECT doc_id, n_tokens,
       CAST((n_tokens - n_in) * 1000000 // n_tokens AS BIGINT) AS oov_ppm
FROM d WHERE n_tokens > 0
"""


ORDER_GINI_SQL = """
WITH oc AS (SELECT o_custkey, count(*) AS n_orders
            FROM orders GROUP BY 1),
r AS (SELECT n_orders,
             row_number() OVER (ORDER BY n_orders) AS i,
             count(*) OVER () AS n,
             sum(n_orders) OVER () AS tot
      FROM oc)
SELECT CAST(max(n) AS BIGINT) AS n_customers,
       CAST(max(tot) AS BIGINT) AS n_orders_total,
       round(CAST(sum((2 * i - n - 1) * n_orders) AS DOUBLE)
             / max(n) / max(tot), 6) AS gini
FROM r
"""


# Twins of ops.partdim (TPC-H Q14/Q15/Q16 shapes). Per-row revenue
# quantizes to INT64 cents with the engine's identical
# half-away-from-zero expression before every wide sum; promo_share
# repeats the engine finalizer's exact double op order
# ((100.0 * promo) / total, then round-half-away to 6).
PROMO_REVENUE_SQL = """
WITH r AS (
  SELECT strftime(l_shipdate, '%Y-%m') AS month,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100.0 + 0.5)
              AS BIGINT) AS cents,
         p_type = 'PROMO' AS is_promo
  FROM lineitem JOIN part ON p_partkey = l_partkey)
SELECT month,
       CAST(sum(CASE WHEN is_promo THEN cents ELSE 0 END) AS BIGINT)
         AS promo_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       round(100.0 * sum(CASE WHEN is_promo THEN cents ELSE 0 END)
             / sum(cents), 6) AS promo_share
FROM r GROUP BY month"""


TOP_SUPPLIERS_SQL = """
WITH r AS (
  SELECT l_suppkey,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100.0 + 0.5)
              AS BIGINT) AS cents
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01')
SELECT s_suppkey, s_name,
       CAST(sum(cents) AS BIGINT) / 100.0 AS revenue
FROM r JOIN supplier ON s_suppkey = l_suppkey
GROUP BY s_suppkey, s_name
ORDER BY revenue DESC, s_suppkey
LIMIT 5"""


BRAND_TYPE_STATS_SQL = """
WITH r AS (
  SELECT p_brand, p_type, l_partkey, l_quantity,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100.0 + 0.5)
              AS BIGINT) AS cents
  FROM lineitem JOIN part ON p_partkey = l_partkey)
SELECT p_brand, p_type,
       CAST(count(DISTINCT l_partkey) AS BIGINT) AS n_parts,
       round(sum(l_quantity), 2) AS sum_qty,
       CAST(sum(cents) AS BIGINT) / 100.0 AS revenue
FROM r GROUP BY p_brand, p_type"""


def dup_spans_sql() -> str:
    """Twin of ops.dedup.dup_spans: per-doc distinct shingles (the
    SHINGLE_W-token windows of the shared _shingles_cte), the count
    that occur in >= 2 documents, and the integer-exact ppm rate."""
    return (f"WITH {_shingles_cte()}, "
            "hashed AS (SELECT DISTINCT doc_id, "
            "('0x' || substr(md5(s), 1, 16))::UBIGINT AS h FROM shingles), "
            "freq AS (SELECT h, count(*) AS nd FROM hashed GROUP BY h) "
            "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shingles, "
            "CAST(count(*) FILTER (WHERE nd >= 2) AS BIGINT) AS n_dup, "
            "CAST(count(*) FILTER (WHERE nd >= 2) * 1000000 // count(*) "
            "AS BIGINT) AS dup_ppm "
            "FROM hashed JOIN freq USING (h) GROUP BY doc_id")


PER_SOURCE_CAP_SQL = """
SELECT source, doc_id FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= 10
"""


def source_kl_sql(vocab_k: int = 100) -> str:
    """Twin of ops.webcorpus.source_kl: same top-V vocabulary rule
    (df DESC, token), integer counts, double divisions, natural log,
    round-half-away 6."""
    return f"""
WITH {_TOKS_CTE},
dt AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
vocab AS (SELECT token FROM dt ORDER BY df DESC, token LIMIT {vocab_k}),
tok2 AS (SELECT d.source, t.token
         FROM toks t JOIN documents d USING (doc_id)
         WHERE t.token IN (SELECT token FROM vocab)),
c AS (SELECT source, token, count(*) AS c FROM tok2 GROUP BY 1, 2),
s AS (SELECT source, sum(c) AS cs FROM c GROUP BY 1),
q AS (SELECT token, sum(c) AS ct FROM c GROUP BY 1),
tot AS (SELECT sum(c) AS t FROM c)
SELECT c.source, CAST(max(s.cs) AS BIGINT) AS n_invocab,
       round(sum((c.c / s.cs) * ln((c.c / s.cs) / (q.ct / tot.t))), 6) AS kl
FROM c JOIN s USING (source) JOIN q USING (token) CROSS JOIN tot
GROUP BY c.source
"""


TEMPERATURE_WEIGHTS_SQL = """
WITH c AS (SELECT source, count(*) AS n FROM documents GROUP BY 1),
t AS (SELECT sum(n) AS nn FROM c),
p AS (SELECT source, n, pow(n / t.nn, 0.7) AS pw FROM c CROSS JOIN t),
z AS (SELECT sum(pw) AS s FROM p)
SELECT p.source, CAST(p.n AS BIGINT) AS n_docs,
       round(p.pw / z.s, 6) AS weight,
       round(p.pw / z.s * t.nn / p.n, 6) AS epochs
FROM p CROSS JOIN z CROSS JOIN t
"""


LATE_ORDERS_SQL = """
WITH late AS (
  SELECT o_orderkey
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
  WHERE l_shipdate > o_orderdate + INTERVAL 90 DAY
  GROUP BY 1)
SELECT o_orderpriority,
       CAST(count(*) FILTER (WHERE o_orderkey IN
            (SELECT o_orderkey FROM late)) AS BIGINT) AS n_late,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders GROUP BY 1
"""


USER_ENTROPY_SQL = """
WITH c AS (SELECT user_id, event_type, count(*) AS c
           FROM events GROUP BY 1, 2),
s AS (SELECT user_id, sum(c) AS n FROM c GROUP BY 1)
SELECT c.user_id, CAST(max(s.n) AS BIGINT) AS n_events,
       round(-sum((c.c / s.n) * ln(c.c / s.n)), 6) AS entropy
FROM c JOIN s USING (user_id) GROUP BY c.user_id
"""


CURATION_MANIFEST_SQL = f"""
WITH surv AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)),
raw AS (
  SELECT doc_id, source,
         array_length(regexp_extract_all(text, '{SQL_TOKEN_RE}')) AS n_tokens,
         array_length(regexp_extract_all(text, '{SQL_STOP_RE}')) AS n_stop,
         length(regexp_replace(text, '[^0-9A-Za-z_]', '', 'g')) AS tok_chars,
         array_length(regexp_extract_all(lower(text),
             '\\b(?:the|a|to|is|in)\\b')) AS en,
         array_length(regexp_extract_all(lower(text),
             '\\b(?:der|die|das|und|ist)\\b')) AS de,
         array_length(regexp_extract_all(lower(text),
             '\\b(?:le|la|les|et|est)\\b')) AS fr
  FROM documents),
q AS (
  SELECT doc_id, source, en, de, fr,
         floor((0.5 * least(n_tokens / 50.0, 1.0)
                + 0.3 * (floor(n_stop / greatest(n_tokens, 1) * 1000000)
                         / 1000000)
                + 0.2 * least(floor(tok_chars / greatest(n_tokens, 1)
                                    * 1000000) / 1000000 / 8.0, 1.0))
               * 1000000) / 1000000 AS score
  FROM raw),
l AS (
  SELECT doc_id, source, score,
         CASE WHEN en >= de AND en >= fr AND en > 0 THEN 'en'
              WHEN de >= fr AND de > 0 THEN 'de'
              WHEN fr > 0 THEN 'fr' ELSE 'und' END AS lang_pred
  FROM q),
c AS (SELECT source, count(*) AS n FROM documents GROUP BY 1),
t AS (SELECT sum(n) AS nn FROM c),
p AS (SELECT source, pow(n / t.nn, 0.7) AS pw FROM c CROSS JOIN t),
z AS (SELECT sum(pw) AS s FROM p),
w AS (SELECT source, round(pw / z.s, 6) AS wt FROM p CROSS JOIN z)
SELECT l.doc_id,
       CAST(l.doc_id IN (SELECT doc_id FROM surv) AS BIGINT) AS is_survivor,
       CAST(l.doc_id IN (SELECT doc_id FROM surv)
            AND l.score >= 0.5 AND l.lang_pred = 'en' AS BIGINT) AS keep,
       CASE WHEN l.doc_id IN (SELECT doc_id FROM surv)
                 AND l.score >= 0.5 AND l.lang_pred = 'en'
            THEN w.wt ELSE 0.0 END AS weight
FROM l JOIN w USING (source)
"""


PARETO_ORDERS_SQL = """
WITH pts AS (
  SELECT o_orderkey, o_orderdate, o_totalprice,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders),
w AS (
  SELECT o_orderkey, o_orderdate, o_totalprice, cents,
         max(cents) OVER (PARTITION BY o_orderdate) AS mx_same,
         max(cents) OVER (ORDER BY o_orderdate
             RANGE BETWEEN UNBOUNDED PRECEDING
                   AND INTERVAL 1 MICROSECOND PRECEDING) AS mx_prev
  FROM pts)
SELECT o_orderkey,
       strftime(o_orderdate, '%Y-%m-%d %H:%M:%S') AS o_orderdate,
       o_totalprice
FROM w
WHERE cents = mx_same AND (mx_prev IS NULL OR cents > mx_prev)
ORDER BY 1
"""


IDLE_CUSTOMERS_SQL = """
WITH stats AS (
  SELECT sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS s,
         count(*) AS n
  FROM customer WHERE floor(c_acctbal * 100 + 0.5) > 0),
rich AS (
  SELECT c_custkey, c_nationkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
  FROM customer, stats
  WHERE CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) * stats.n > stats.s)
SELECT c_nationkey,
       CAST(count(*) AS BIGINT) AS n_cust,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM rich r
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = r.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '2000-06-01 00:00:00')
GROUP BY 1
"""


WAITING_SUPPLIERS_SQL = """
WITH os AS (
  SELECT l_orderkey AS ok, l_suppkey AS sk, max(l_shipdate) AS ms
  FROM lineitem GROUP BY 1, 2),
j AS (
  SELECT os.ok, os.sk,
         (os.ms > o.o_orderdate + INTERVAL 90 DAY) AS late
  FROM os JOIN orders o ON o.o_orderkey = os.ok
  WHERE o.o_orderstatus = 'F'),
q AS (
  SELECT ok FROM j GROUP BY 1
  HAVING count(*) >= 2 AND sum(CASE WHEN late THEN 1 ELSE 0 END) = 1)
SELECT j.sk AS s_suppkey, max(s.s_name) AS s_name,
       CAST(count(*) AS BIGINT) AS n_waits
FROM j JOIN q USING (ok) JOIN supplier s ON s.s_suppkey = j.sk
WHERE j.late GROUP BY 1
"""


ORDER_PRICE_RANKS_SQL = """
SELECT o_orderkey,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
       CAST(row_number() OVER (
            ORDER BY floor(o_totalprice * 100 + 0.5), o_orderkey)
            AS BIGINT) AS global_rank
FROM orders
"""


def point_clusters_sql(webpages_parquet: str, zoom: int = 12,
                       radius: int = 256) -> str:
    """Supercluster twin: per (tile, grid cell) exact integer centroid
    (sum // n — identical floor division both sides; local coords are
    non-negative) and point count."""
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=zoom)} "
            f"SELECT z, x, y, local_x // {radius} AS gx, "
            f"local_y // {radius} AS gy, "
            "CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(local_x) // count(*) AS BIGINT) AS cx, "
            "CAST(sum(local_y) // count(*) AS BIGINT) AS cy "
            "FROM localized GROUP BY z, x, y, gx, gy")


def raster_blur_sql(webpages_parquet: str, zoom: int = 8,
                    grid_cell: int = 16) -> str:
    """Halo-blur twin: per-cell counts convolved with the same 3x3
    integer binomial kernel via a 9-row VALUES cross join; identical
    edge clipping (targets outside [0, span) excluded)."""
    cells = 4096 // grid_cell
    span = (1 << zoom) * cells
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=zoom)}, "
            f"counts AS (SELECT x * {cells} + local_x // {grid_cell} AS gx, "
            f"y * {cells} + local_y // {grid_cell} AS gy, count(*) AS n "
            "FROM localized GROUP BY 1, 2), "
            "k(dx, dy, w) AS (VALUES (-1,-1,1),(-1,0,2),(-1,1,1),"
            "(0,-1,2),(0,0,4),(0,1,2),(1,-1,1),(1,0,2),(1,1,1)) "
            "SELECT c.gx + k.dx AS gx, c.gy + k.dy AS gy, "
            "CAST(sum(c.n * k.w) AS BIGINT) AS blurred "
            "FROM counts c CROSS JOIN k "
            f"WHERE c.gx + k.dx >= 0 AND c.gx + k.dx < {span} "
            f"AND c.gy + k.dy >= 0 AND c.gy + k.dy < {span} "
            "GROUP BY 1, 2")


def iso_segments_sql(webpages_parquet: str, zoom: int = 8,
                     grid_cell: int = 16, threshold: int = 1) -> str:
    """Marching-squares segment twin: per-tile occupied cells -> 2x2
    block cases via four LEFT JOIN corner probes -> the identical
    case/edge table as a VALUES lookup (saddles split as two corner
    rows) -> integer edge-midpoint coordinates."""
    g = 4096 // grid_cell  # cells per tile side
    s = grid_cell
    h = grid_cell // 2
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=zoom)}, "
            f"occ AS (SELECT x, y, local_x // {s} AS gx, "
            f"local_y // {s} AS gy FROM localized "
            f"GROUP BY 1, 2, 3, 4 HAVING count(*) >= {threshold}), "
            "blk AS (SELECT DISTINCT o.x, o.y, o.gx + d.dx AS cx, "
            "o.gy + d.dy AS cy FROM occ o CROSS JOIN "
            "(VALUES (0, 0), (-1, 0), (0, -1), (-1, -1)) AS d(dx, dy) "
            f"WHERE o.gx + d.dx BETWEEN 0 AND {g - 2} "
            f"AND o.gy + d.dy BETWEEN 0 AND {g - 2}), "
            "cases AS (SELECT b.x, b.y, b.cx, b.cy, "
            "8 * CAST(tl.gx IS NOT NULL AS INT) "
            "+ 4 * CAST(tr.gx IS NOT NULL AS INT) "
            "+ 2 * CAST(br.gx IS NOT NULL AS INT) "
            "+ CAST(bl.gx IS NOT NULL AS INT) AS c FROM blk b "
            "LEFT JOIN occ tl ON tl.x = b.x AND tl.y = b.y "
            "AND tl.gx = b.cx AND tl.gy = b.cy "
            "LEFT JOIN occ tr ON tr.x = b.x AND tr.y = b.y "
            "AND tr.gx = b.cx + 1 AND tr.gy = b.cy "
            "LEFT JOIN occ br ON br.x = b.x AND br.y = b.y "
            "AND br.gx = b.cx + 1 AND br.gy = b.cy + 1 "
            "LEFT JOIN occ bl ON bl.x = b.x AND bl.y = b.y "
            "AND bl.gx = b.cx AND bl.gy = b.cy + 1), "
            "k(c, ea, eb) AS (VALUES "
            "(1,'W','S'),(2,'S','E'),(3,'W','E'),(4,'N','E'),"
            "(5,'N','E'),(5,'W','S'),(6,'N','S'),(7,'W','N'),"
            "(8,'W','N'),(9,'N','S'),(10,'W','N'),(10,'S','E'),"
            "(11,'N','E'),(12,'W','E'),(13,'S','E'),(14,'W','S')) "
            f"SELECT CAST({zoom} AS BIGINT) AS z, x, y, "
            f"CAST(CASE k.ea WHEN 'W' THEN cx * {s} + {h} "
            f"WHEN 'E' THEN cx * {s} + {s} + {h} "
            f"ELSE cx * {s} + {s} END AS BIGINT) AS x0, "
            f"CAST(CASE k.ea WHEN 'N' THEN cy * {s} + {h} "
            f"WHEN 'S' THEN cy * {s} + {s} + {h} "
            f"ELSE cy * {s} + {s} END AS BIGINT) AS y0, "
            f"CAST(CASE k.eb WHEN 'W' THEN cx * {s} + {h} "
            f"WHEN 'E' THEN cx * {s} + {s} + {h} "
            f"ELSE cx * {s} + {s} END AS BIGINT) AS x1, "
            f"CAST(CASE k.eb WHEN 'N' THEN cy * {s} + {h} "
            f"WHEN 'S' THEN cy * {s} + {s} + {h} "
            f"ELSE cy * {s} + {s} END AS BIGINT) AS y1 "
            "FROM cases JOIN k USING (c)")


def cell_compact_sql(webpages_parquet: str, zoom: int = 12,
                     min_zoom: int = 6) -> str:
    """Compaction twin: the promote step unrolled level by level —
    parents with exactly 4 distinct occupied children promote, the
    rest emit at their level; identical recursion to the engine."""
    parts = [f"c{zoom} AS (SELECT DISTINCT x, y FROM localized)"]
    emits = []
    for z in range(zoom, min_zoom, -1):
        parts.append(
            f"p{z - 1} AS (SELECT x // 2 AS x, y // 2 AS y FROM c{z} "
            "GROUP BY 1, 2 HAVING count(*) = 4)")
        parts.append(
            f"e{z} AS (SELECT {z} AS z, x, y FROM c{z} c "
            f"WHERE NOT EXISTS (SELECT 1 FROM p{z - 1} q "
            "WHERE q.x = c.x // 2 AND q.y = c.y // 2))")
        parts.append(f"c{z - 1} AS (SELECT x, y FROM p{z - 1})")
        emits.append(f"SELECT z, x, y FROM e{z}")
    emits.append(f"SELECT {min_zoom} AS z, x, y FROM c{min_zoom}")
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=zoom)}, "
            + ",\n".join(parts)
            + " SELECT CAST(z AS BIGINT) AS z, CAST(x AS BIGINT) AS x, "
              "CAST(y AS BIGINT) AS y FROM ("
            + " UNION ALL ".join(emits) + ")")


def train_split_sql(val_pct: int = 5, test_pct: int = 10) -> str:
    """Twin of ops.webcorpus.train_split: slot = first-8-md5-bytes of
    the doc_id's decimal string, modulo 100 (the repo's md5 parity
    rule); sums CAST to BIGINT (DuckDB BIGINT sum returns HUGEINT —
    the props_extract lesson)."""
    return f"""
WITH s AS (
  SELECT source, n_chars,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT
           % 100 AS slot
  FROM documents)
SELECT source,
       CASE WHEN slot < {test_pct} THEN 'test'
            WHEN slot < {test_pct} + {val_pct} THEN 'val'
            ELSE 'train' END AS split,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM s GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Warehouse wave two (ops/warehouse.py): the remaining TPC-H shapes.
# Parity rules as everywhere: per-row INT64-cent quantization with
# floor(x*100+0.5) for non-negative money (round(x*100, 0) where the
# value can be negative, matching the engine's signed half-away-from-
# zero), BIGINT casts on every aggregate output, epoch_us timestamps.
# ---------------------------------------------------------------------------

# Twin of ops.warehouse.shipping_priority (TPC-H Q3 shape).
SHIPPING_PRIORITY_SQL = """
WITH li AS (
  SELECT l_orderkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS cents
  FROM lineitem WHERE l_shipdate > DATE '1998-01-01' GROUP BY 1)
SELECT o_orderkey, epoch_us(o_orderdate) AS orderdate_us,
       li.cents AS revenue_cents
FROM li
JOIN orders ON o_orderkey = li.l_orderkey
JOIN customer ON c_custkey = o_custkey
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1998-01-01'
ORDER BY revenue_cents DESC, o_orderkey
LIMIT 10"""


# Twin of ops.warehouse.ship_volume (TPC-H Q7 shape, region pair).
SHIP_VOLUME_SQL = """
SELECT r1.r_name AS supp_region, r2.r_name AS cust_region,
       CAST(year(l_shipdate) AS BIGINT) AS year,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation n1 ON n1.n_nationkey = s_nationkey
JOIN region r1 ON r1.r_regionkey = n1.n_regionkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation n2 ON n2.n_nationkey = c_nationkey
JOIN region r2 ON r2.r_regionkey = n2.n_regionkey
WHERE r1.r_name IN ('ASIA', 'AMERICA') AND r2.r_name IN ('ASIA', 'AMERICA')
  AND r1.r_name <> r2.r_name
GROUP BY 1, 2, 3"""


# Twin of ops.warehouse.market_share (TPC-H Q8 shape). share divides
# the two exact int-cent sums as doubles and rounds to 6 like the
# engine's _fq(num/den, 6).
MARKET_SHARE_SQL = """
WITH r AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS cents,
         (n1.n_name = 'NATION_2') AS from_nation
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_type = 'ECONOMY'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation n1 ON n1.n_nationkey = s_nationkey
  JOIN orders ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n2 ON n2.n_nationkey = c_nationkey
  JOIN region ON r_regionkey = n2.n_regionkey AND r_name = 'ASIA')
SELECT year,
       CAST(sum(CASE WHEN from_nation THEN cents ELSE 0 END) AS BIGINT)
         AS num_cents,
       CAST(sum(cents) AS BIGINT) AS den_cents,
       round(CAST(sum(CASE WHEN from_nation THEN cents ELSE 0 END) AS DOUBLE)
             / CAST(sum(cents) AS DOUBLE), 6) AS share
FROM r GROUP BY year"""


# Twin of ops.warehouse.product_profit (TPC-H Q9 shape). Profit can be
# negative: round(x*100, 0) is DuckDB's half-away-from-zero, matching
# the engine's signed _cents.
PRODUCT_PROFIT_SQL = """
SELECT n_name, CAST(year(l_shipdate) AS BIGINT) AS year,
       CAST(sum(CAST(round((l_extendedprice * (1 - l_discount)
                            - 0.5 * l_quantity * p_retailprice) * 100, 0)
                     AS BIGINT)) AS BIGINT) AS profit_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
JOIN part ON p_partkey = l_partkey AND p_name LIKE 'red %'
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
GROUP BY 1, 2"""


# Twin of ops.warehouse.important_parts (TPC-H Q11 shape). The theta
# predicate is the exact integer cross-multiplication on both sides.
IMPORTANT_PARTS_SQL = """
WITH pr AS (
  SELECT l_partkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem GROUP BY 1)
SELECT CAST(l_partkey AS BIGINT) AS p_partkey, p_name, revenue_cents
FROM pr JOIN part ON p_partkey = l_partkey
WHERE revenue_cents * 10000 > 8 * (SELECT sum(revenue_cents) FROM pr)"""


# Twin of ops.warehouse.custdist (TPC-H Q13 shape, zero bin included
# via the LEFT JOIN).
CUSTDIST_SQL = """
WITH c_orders AS (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer
  LEFT JOIN orders ON o_custkey = c_custkey
                   AND o_orderpriority <> '1-URGENT'
  GROUP BY 1)
SELECT CAST(c_count AS BIGINT) AS c_count,
       CAST(count(*) AS BIGINT) AS custdist
FROM c_orders GROUP BY 1"""


# Twin of ops.warehouse.top_supplier (TPC-H Q15 shape).
TOP_SUPPLIER_SQL = """
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS total_cents
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
  GROUP BY 1)
SELECT rev.s_suppkey, s_name, total_cents
FROM rev JOIN supplier ON supplier.s_suppkey = rev.s_suppkey
WHERE total_cents = (SELECT max(total_cents) FROM rev)"""


# Twin of ops.warehouse.part_supp_counts (TPC-H Q16 shape over the
# observed lineitem pair relation).
PART_SUPP_COUNTS_SQL = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) ps
JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#5' AND p_size IN (1, 9, 15, 25, 35, 49)
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2, 3"""


# Twin of ops.warehouse.big_orders (TPC-H Q18 shape). Quantities are
# integral doubles; both sides carry them as BIGINT.
BIG_ORDERS_SQL = """
WITH q AS (
  SELECT l_orderkey,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY 1
  HAVING sum(CAST(l_quantity AS BIGINT)) > 150)
SELECT c_name, CAST(o_custkey AS BIGINT) AS o_custkey, o_orderkey,
       epoch_us(o_orderdate) AS orderdate_us,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS totalprice_cents,
       sum_qty
FROM q
JOIN orders ON o_orderkey = q.l_orderkey
JOIN customer ON c_custkey = o_custkey"""


# Twin of ops.warehouse.banded_revenue (TPC-H Q19 shape). The engine's
# first-match band ids equal this OR because bands are brand-disjoint.
BANDED_REVENUE_SQL = """
SELECT CAST(count(*) AS BIGINT) AS n_items,
       CAST(coalesce(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                    + 0.5) AS BIGINT)), 0) AS BIGINT)
         AS revenue_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)"""


# Twin of ops.warehouse.excess_shippers (TPC-H Q20 shape). The shipped
# fraction test is the exact integer cross-multiplication q*10 > 3*tq.
EXCESS_SHIPPERS_SQL = """
WITH sp AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'red %'
    AND l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
  GROUP BY 1, 2),
tot AS (SELECT pk, CAST(sum(q) AS BIGINT) AS tq FROM sp GROUP BY 1)
SELECT DISTINCT s_name
FROM sp JOIN tot USING (pk) JOIN supplier ON s_suppkey = sp.sk
WHERE sp.q * 10 > 3 * tot.tq"""


# Twin of ops.warehouse.min_cost_supplier (TPC-H Q2 shape): argmin by
# exact int cents with suppkey tie-break, via row_number() = 1.
MIN_COST_SUPPLIER_SQL = """
WITH costs AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS cents
  FROM lineitem
  JOIN part ON p_partkey = l_partkey AND p_size = 15
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation ON n_nationkey = s_nationkey
  JOIN region ON r_regionkey = n_regionkey AND r_name = 'EUROPE'
  GROUP BY 1, 2),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY l_partkey
                               ORDER BY cents, l_suppkey) AS rn
  FROM costs)
SELECT CAST(ranked.l_partkey AS BIGINT) AS p_partkey, p_name,
       CAST(ranked.l_suppkey AS BIGINT) AS s_suppkey, s_name,
       cents AS min_cents
FROM ranked
JOIN part ON p_partkey = ranked.l_partkey
JOIN supplier ON s_suppkey = ranked.l_suppkey
WHERE rn = 1"""


# ---------------------------------------------------------------------------
# Wave three twins: KMV sketch (exact order-statistics twin), Zipf
# slope (micro-nat quantized regression), type-token ratio, bearing
# sectors (libm-parity contract like trajectory_lengths).
# ---------------------------------------------------------------------------

# Twin of ops.sketch.kmv_distinct: the k-th smallest md5-derived
# 64-bit hash of each source's distinct tokens, as a [0,1) fraction,
# and the KMV estimate (k-1)/frac. Both sides convert the SAME uint64
# to double and divide by 2^64, so the doubles are identical.
KMV_DISTINCT_SQL = """
WITH toks AS (
  SELECT DISTINCT source, tok FROM (
    SELECT source, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
    FROM documents)),
h AS (
  SELECT source, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h64
  FROM toks),
r AS (
  SELECT source, h64,
         row_number() OVER (PARTITION BY source ORDER BY h64) AS rn
  FROM h)
SELECT source,
       round(CAST(h64 AS DOUBLE) / 18446744073709551616.0, 9) AS kth_frac,
       round((16.0 - 1.0)
             / (CAST(h64 AS DOUBLE) / 18446744073709551616.0), 4)
         AS est_distinct
FROM r WHERE rn = 16"""


# Twin of ops.text.zipf_slope: top-100 tokens per source by (tf DESC,
# token ASC), OLS slope of ln(tf) on ln(rank) over INT64 micro-nat
# quantized logs; HUGEINT sums cast to DOUBLE exactly like the
# engine's int64 -> float64 conversions.
ZIPF_SLOPE_SQL = """
WITH t AS (
  SELECT source, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
  FROM documents),
tf AS (SELECT source, tok, count(*) AS tf FROM t GROUP BY 1, 2),
r AS (
  SELECT source, tf,
         row_number() OVER (PARTITION BY source
                            ORDER BY tf DESC, tok) AS rank
  FROM tf),
q AS (
  SELECT source,
         CAST(floor(ln(rank) * 1000000 + 0.5) AS BIGINT) AS xi,
         CAST(floor(ln(tf) * 1000000 + 0.5) AS BIGINT) AS yi
  FROM r WHERE rank <= 100),
s AS (
  SELECT source, count(*) AS n, sum(xi) AS sx, sum(yi) AS sy,
         sum(xi * yi) AS sxy, sum(xi * xi) AS sxx
  FROM q GROUP BY 1)
SELECT source, CAST(n AS BIGINT) AS n_top,
       round((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
             / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)), 6) AS slope
FROM s"""


# Twin of ops.text.type_token_ratio (zero-token docs keep a 0.0 row
# via the LEFT JOIN + CASE).
TYPE_TOKEN_RATIO_SQL = """
WITH t AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
  FROM documents),
a AS (
  SELECT doc_id, count(*) AS n_tokens, count(DISTINCT tok) AS n_types
  FROM t GROUP BY 1)
SELECT d.doc_id,
       CAST(coalesce(n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(n_types, 0) AS BIGINT) AS n_types,
       CASE WHEN coalesce(n_tokens, 0) = 0 THEN 0.0
            ELSE round(CAST(n_types AS DOUBLE) / CAST(n_tokens AS DOUBLE), 6)
       END AS ttr
FROM documents d LEFT JOIN a ON a.doc_id = d.doc_id"""


def segment_bearings_sql(webpages_parquet: str) -> str:
    """Twin of ops.spatial.segment_bearings: lag window per url, the
    identical bearing double-op sequence, 45-degree sector fold."""
    return f"""
WITH {mentions_cte(webpages_parquet)},
legs AS (
  SELECT url,
         lag(lat) OVER w AS plat, lag(lon) OVER w AS plon, lat, lon
  FROM mentions
  WINDOW w AS (PARTITION BY url ORDER BY mention_idx)),
d AS (
  SELECT CAST(floor(fmod(degrees(atan2(
           sin(radians(lon - plon)) * cos(radians(lat)),
           cos(radians(plat)) * sin(radians(lat))
             - sin(radians(plat)) * cos(radians(lat))
               * cos(radians(lon - plon))
         )) + 382.5, 360.0) / 45.0) AS BIGINT) AS sector
  FROM legs WHERE plat IS NOT NULL)
SELECT sector, CAST(count(*) AS BIGINT) AS n_legs
FROM d GROUP BY sector"""


# Twin of ops.cluster.nb_lang_classify: Laplace-smoothed multinomial
# naive Bayes with INT64 micro-nat quantized log-probs (pure floor on
# both sides) so scores are exact integer sums; argmax per doc with
# lang-ASC tie-break via row_number.
NB_LANG_CLASSIFY_SQL = """
WITH t AS (
  SELECT doc_id, lang, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
  FROM documents),
tf AS (SELECT doc_id, tok, count(*) AS tf FROM t GROUP BY 1, 2),
ctl AS (SELECT lang, tok, count(*) AS c FROM t GROUP BY 1, 2),
nl AS (SELECT lang, sum(c) AS n FROM ctl GROUP BY 1),
v AS (SELECT count(DISTINCT tok) AS v FROM t),
langs AS (SELECT DISTINCT lang FROM documents),
vocab AS (SELECT DISTINCT tok FROM t),
lp AS (
  SELECT l.lang, vb.tok,
         CAST(floor(ln((coalesce(ctl.c, 0) + 1.0) / (nl.n + v.v)) * 1000000)
              AS BIGINT) AS lq
  FROM langs l
  CROSS JOIN vocab vb
  CROSS JOIN v
  JOIN nl ON nl.lang = l.lang
  LEFT JOIN ctl ON ctl.lang = l.lang AND ctl.tok = vb.tok),
pri AS (
  SELECT lang,
         CAST(floor(ln(CAST(dl.dcnt AS DOUBLE) / dd.dtot) * 1000000)
              AS BIGINT) AS pq
  FROM (SELECT lang, count(*) AS dcnt FROM documents GROUP BY 1) dl
  CROSS JOIN (SELECT count(*) AS dtot FROM documents) dd),
scores AS (
  SELECT f.doc_id, lp.lang AS cand, pri.pq + sum(f.tf * lp.lq) AS score
  FROM tf f
  JOIN lp ON lp.tok = f.tok
  JOIN pri ON pri.lang = lp.lang
  GROUP BY 1, 2, pri.pq),
ranked AS (
  SELECT doc_id, cand,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, cand) AS rn
  FROM scores)
SELECT r.doc_id, r.cand AS pred_lang, d.lang,
       CAST(CASE WHEN r.cand = d.lang THEN 1 ELSE 0 END AS BIGINT)
         AS is_correct
FROM ranked r JOIN documents d ON d.doc_id = r.doc_id
WHERE rn = 1"""


def events_ewma_sql() -> str:
    """Twin of ops.relational.events_ewma: the finite-window EWMA as a
    literal lag() + chain whose weight doubles are injected from
    EWMA_WEIGHTS (repr full precision — no pow() parity dependence),
    added in the engine's exact left-to-right order."""
    from .ops.relational import EWMA_WEIGHTS
    c = [repr(w) for w in EWMA_WEIGHTS]
    num_terms = [f"CAST(vm AS DOUBLE) * {c[0]}"]
    den_terms = [c[0]]
    for k in range(1, len(c)):
        num_terms.append(
            f"coalesce(CAST(lag(vm, {k}) OVER win AS DOUBLE) * {c[k]}, 0.0)")
        den_terms.append(
            f"CASE WHEN lag(vm, {k}) OVER win IS NULL THEN 0.0 ELSE {c[k]} END")
    num = "\n           + ".join(num_terms)
    den = "\n           + ".join(den_terms)
    return f"""
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 1e6) AS BIGINT) AS vm
  FROM events),
w AS (
  SELECT event_id, user_id, ts_us,
         ({num}) AS num,
         ({den}) AS den
  FROM e
  WINDOW win AS (PARTITION BY user_id ORDER BY ts_us, event_id))
SELECT event_id, user_id, ts_us, round(num / den / 1000000.0, 6) AS ewma
FROM w"""


# Twin of the npz_roundtrip query: per-vector squared norms from the
# parquet list column, each element micro-quantized with the engine's
# identical (x*x)*1e9 floor before the integer sum — so the check is
# order-free and bit-exact through the float32 shard roundtrip.
NPZ_ROUNDTRIP_SQL = """
SELECT vec_id, CAST(label AS BIGINT) AS label,
       CAST(sum(CAST(floor(CAST(x AS DOUBLE) * CAST(x AS DOUBLE)
                           * 1000000000.0) AS BIGINT)) AS BIGINT)
         AS norm2_micro
FROM (SELECT vec_id, label, unnest(embedding) AS x FROM embeddings)
GROUP BY 1, 2"""


def pagerank_sql(webpages_parquet: str, res: int = 5,
                 damping: float = 0.85, n_iters: int = 10) -> str:
    """Twin of ops.graph.cell_pagerank: the power iteration UNROLLED
    as one CTE per step over the comention edge list, with the
    engine's exact quantization — INT64 nano-unit rank state, INT64
    pico-unit per-edge contributions floored BEFORE the sum — so an
    ITERATIVE algorithm gets a bit-exact declarative twin."""
    d = repr(damping)
    steps = []
    for k in range(1, n_iters + 1):
        steps.append(f"""r{k} AS (
  SELECT e.dst AS cell,
         CAST(floor(((1.0 - {d}) / nn.n
              + {d} * (CAST(sum(CAST(floor(CAST(r.rq AS DOUBLE)
                / 1000000000.0 / CAST(dg.d AS DOUBLE) * e.w
                * 1000000000000.0) AS BIGINT)) AS DOUBLE)
                / 1000000000000.0)) * 1000000000.0) AS BIGINT) AS rq
  FROM edges e
  JOIN r{k - 1} r ON r.cell = e.src
  JOIN deg dg ON dg.cell = e.src
  CROSS JOIN nn
  GROUP BY 1, nn.n)""")
    chain = ",\n".join(steps)
    return f"""
WITH {mentions_cte(webpages_parquet)},
cellsd AS (
  SELECT DISTINCT url, {_cell_expr(res)} AS cell FROM mentions),
e0 AS (
  SELECT a.cell AS ca, b.cell AS cb, count(*) AS w
  FROM cellsd a JOIN cellsd b ON a.url = b.url AND a.cell < b.cell
  GROUP BY 1, 2),
edges AS (
  SELECT ca AS src, cb AS dst, w FROM e0
  UNION ALL
  SELECT cb AS src, ca AS dst, w FROM e0),
deg AS (SELECT src AS cell, CAST(sum(w) AS BIGINT) AS d
        FROM edges GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg),
r0 AS (SELECT cell, CAST(floor(1000000000.0 / nn.n) AS BIGINT) AS rq
       FROM deg CROSS JOIN nn),
{chain}
SELECT cell, rq AS rank_micro FROM r{n_iters}"""


# Twin of ops.dedup.simhash (r4 upgrade from rows-only): md5-u64 token
# hashes, per-doc per-bit majority vote (2*ones >= n_tokens), the two
# int32-range halves assembled with integer shifts — all exact.
SIMHASH_SQL = """
WITH t AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
  FROM documents),
h AS (
  SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h64 FROM t),
n AS (SELECT doc_id, count(*) AS n_tok FROM h GROUP BY 1),
bits AS (
  SELECT doc_id, bs.b AS b,
         sum(CASE WHEN (h64 >> bs.b) & 1 = 1 THEN 1 ELSE 0 END) AS ones
  FROM h CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) bs
  GROUP BY 1, 2),
words AS (
  SELECT bits.doc_id,
         CAST(sum(CASE WHEN 2 * ones >= n_tok AND b >= 32
                       THEN 1::BIGINT << (b - 32) ELSE 0 END) AS BIGINT)
           AS hi,
         CAST(sum(CASE WHEN 2 * ones >= n_tok AND b < 32
                       THEN 1::BIGINT << b ELSE 0 END) AS BIGINT) AS lo
  FROM bits JOIN n USING (doc_id) GROUP BY 1)
SELECT d.doc_id, coalesce(hi, 0) AS simhash_hi, coalesce(lo, 0) AS simhash_lo
FROM documents d LEFT JOIN words ON words.doc_id = d.doc_id"""


def kmeans_exact_sql(k: int = 16, iters: int = 5) -> str:
    """Twin of ops.cluster.kmeans_exact: Lloyd's algorithm UNROLLED
    (one assignment + one update CTE pair per iteration) over INT64
    micro-quantized vectors — distances are pure-integer sums, ties
    break on cluster id, centroid updates floor(sum/count) in float64
    exactly like the engine, and empty clusters vanish as missing
    GROUP BY rows on both sides."""
    parts = [f"""xq AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000.0)
              AS BIGINT) AS xq
  FROM embeddings),
c0 AS (
  SELECT r.cl AS cluster, q.dim, q.xq AS cq
  FROM (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS cl
        FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})) r
  JOIN xq q ON q.vec_id = r.vec_id)"""]
    for s in range(1, iters + 1):
        parts.append(f"""a{s} AS (
  SELECT vec_id, cluster FROM (
    SELECT q.vec_id, c.cluster,
           row_number() OVER (PARTITION BY q.vec_id
             ORDER BY sum((q.xq - c.cq) * (q.xq - c.cq)), c.cluster) AS rn
    FROM xq q JOIN c{s - 1} c ON c.dim = q.dim
    GROUP BY q.vec_id, c.cluster)
  WHERE rn = 1),
c{s} AS (
  SELECT a.cluster, q.dim,
         CAST(floor(CAST(sum(q.xq) AS DOUBLE) / count(*)) AS BIGINT) AS cq
  FROM a{s} a JOIN xq q ON q.vec_id = a.vec_id
  GROUP BY 1, 2)""")
    parts.append(f"""afinal AS (
  SELECT vec_id, cluster FROM (
    SELECT q.vec_id, c.cluster,
           row_number() OVER (PARTITION BY q.vec_id
             ORDER BY sum((q.xq - c.cq) * (q.xq - c.cq)), c.cluster) AS rn
    FROM xq q JOIN c{iters} c ON c.dim = q.dim
    GROUP BY q.vec_id, c.cluster)
  WHERE rn = 1)""")
    chain = ",\n".join(parts)
    return f"""
WITH {chain}
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM afinal"""


# Twin of ops.text.bm25_search: the classic BM25 formula with each
# (doc, token) term micro-quantized via the engine's identical double
# sequence (idf * ratio * 1e6, floor) before the integer per-doc sum;
# top-k by (score DESC, doc_id ASC).
BM25_SEARCH_SQL = """
WITH q(tok) AS (VALUES ('hash'), ('join'), ('merge'), ('sort')),
t AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
  FROM documents),
dl AS (SELECT doc_id, count(*) AS dl FROM t GROUP BY 1),
stats AS (SELECT (SELECT count(*) FROM documents) AS n,
                 (SELECT count(*) FROM t) AS tot),
df AS (SELECT tok, count(DISTINCT doc_id) AS df
       FROM t JOIN q USING (tok) GROUP BY 1),
tf AS (SELECT doc_id, tok, count(*) AS tf
       FROM t JOIN q USING (tok) GROUP BY 1, 2),
terms AS (
  SELECT tf.doc_id,
         CAST(floor(ln((n - df + 0.5) / (df + 0.5) + 1.0)
              * ((tf * (1.2 + 1.0))
                 / (tf + 1.2 * (1.0 - 0.75
                                + 0.75 * (dl.dl / (CAST(tot AS DOUBLE) / n)))))
              * 1000000.0) AS BIGINT) AS term
  FROM tf
  JOIN df USING (tok)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats)
SELECT doc_id, CAST(sum(term) AS BIGINT) AS score_micro
FROM terms GROUP BY 1
ORDER BY score_micro DESC, doc_id
LIMIT 20"""


# Twin of ops.similarity.hybrid_search: RRF fusion of the BM25 CTE
# chain (identical to BM25_SEARCH_SQL, pool 50) and the knn CTE for
# query vector 0; each leg's 1/(60+rank) floors to INT64 nano-units
# independently before the fused integer sum.
HYBRID_SEARCH_SQL = """
WITH q(tok) AS (VALUES ('hash'), ('join'), ('merge'), ('sort')),
t AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[0-9A-Za-z_]+')) AS tok
  FROM documents),
dl AS (SELECT doc_id, count(*) AS dl FROM t GROUP BY 1),
stats AS (SELECT (SELECT count(*) FROM documents) AS n,
                 (SELECT count(*) FROM t) AS tot),
df AS (SELECT tok, count(DISTINCT doc_id) AS df
       FROM t JOIN q USING (tok) GROUP BY 1),
tf AS (SELECT doc_id, tok, count(*) AS tf
       FROM t JOIN q USING (tok) GROUP BY 1, 2),
terms AS (
  SELECT tf.doc_id,
         CAST(floor(ln((n - df + 0.5) / (df + 0.5) + 1.0)
              * ((tf * (1.2 + 1.0))
                 / (tf + 1.2 * (1.0 - 0.75
                                + 0.75 * (dl.dl / (CAST(tot AS DOUBLE) / n)))))
              * 1000000.0) AS BIGINT) AS term
  FROM tf
  JOIN df USING (tok)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats),
lex AS (
  SELECT doc_id, CAST(sum(term) AS BIGINT) AS score_micro
  FROM terms GROUP BY 1
  ORDER BY score_micro DESC, doc_id LIMIT 50),
lexr AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score_micro DESC, doc_id) AS r
  FROM lex),
qv AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
vs AS (
  SELECT e.vec_id AS nid,
         list_cosine_similarity(qv.qe::DOUBLE[], e.embedding::DOUBLE[]) AS sim
  FROM qv, embeddings e WHERE e.vec_id <> 0),
vecr AS (
  SELECT nid, row_number() OVER (ORDER BY sim DESC, nid) AS r
  FROM vs QUALIFY r <= 50),
contrib AS (
  SELECT doc_id, CAST(floor(1000000000.0 / (60 + r)) AS BIGINT) AS c
  FROM lexr
  UNION ALL
  SELECT nid AS doc_id, CAST(floor(1000000000.0 / (60 + r)) AS BIGINT) AS c
  FROM vecr)
SELECT doc_id, CAST(sum(c) AS BIGINT) AS rrf_micro
FROM contrib GROUP BY 1
ORDER BY rrf_micro DESC, doc_id
LIMIT 20"""


def events_debounce_sql(gap_s: int = 86400) -> str:
    """Twin of ops.relational.events_debounce: the kept-chain walked
    as a recursive CTE carrying last_kept per user (pure integer
    timestamps — bit-exact), first event always kept."""
    gap_us = int(gap_s) * 1_000_000
    return f"""
WITH RECURSIVE e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS idx
  FROM events),
walk(user_id, idx, ts_us, event_id, last_kept, kept) AS (
  SELECT user_id, idx, ts_us, event_id, ts_us, TRUE FROM e WHERE idx = 1
  UNION ALL
  SELECT e.user_id, e.idx, e.ts_us, e.event_id,
         CASE WHEN e.ts_us - w.last_kept >= {gap_us}
              THEN e.ts_us ELSE w.last_kept END,
         e.ts_us - w.last_kept >= {gap_us}
  FROM e JOIN walk w ON e.user_id = w.user_id AND e.idx = w.idx + 1)
SELECT event_id, CAST(user_id AS BIGINT) AS user_id, ts_us
FROM walk WHERE kept"""


def events_cusum_sql(drift_micro: int = 80_000_000,
                     threshold_micro: int = 150_000_000) -> str:
    """Twin of ops.relational.events_cusum: the CUSUM recurrence
    (max(0, s + x - drift), reset to 0 on alarm) walked as a recursive
    CTE per user over integer micro-units — bit-exact."""
    return f"""
WITH RECURSIVE e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 1e6) AS BIGINT) AS vm,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS idx
  FROM events),
walk(user_id, idx, ts_us, event_id, s, fired) AS (
  SELECT user_id, idx, ts_us, event_id,
         greatest(0, vm - {drift_micro}),
         greatest(0, vm - {drift_micro}) > {threshold_micro}
  FROM e WHERE idx = 1
  UNION ALL
  SELECT e.user_id, e.idx, e.ts_us, e.event_id,
         greatest(0, (CASE WHEN w.fired THEN 0 ELSE w.s END)
                  + e.vm - {drift_micro}),
         greatest(0, (CASE WHEN w.fired THEN 0 ELSE w.s END)
                  + e.vm - {drift_micro}) > {threshold_micro}
  FROM e JOIN walk w ON e.user_id = w.user_id AND e.idx = w.idx + 1)
SELECT event_id, CAST(user_id AS BIGINT) AS user_id, ts_us,
       s AS s_micro
FROM walk WHERE fired"""


# Twin of ops.relational.type_affinity: distinct-user pair/single
# counts (exact integers) + the identical one-division lift.
TYPE_AFFINITY_SQL = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
nu AS (SELECT count(DISTINCT user_id) AS n_users FROM events),
s AS (SELECT event_type, count(*) AS n FROM d GROUP BY 1),
p AS (
  SELECT x.event_type AS a, y.event_type AS b, count(*) AS n_ab
  FROM d x JOIN d y ON x.user_id = y.user_id
                    AND x.event_type < y.event_type
  GROUP BY 1, 2)
SELECT a, b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST(sa.n AS BIGINT) AS n_a, CAST(sb.n AS BIGINT) AS n_b,
       round((CAST(n_ab AS DOUBLE) * nu.n_users)
             / (CAST(sa.n AS DOUBLE) * sb.n), 6) AS lift
FROM p
JOIN s sa ON sa.event_type = p.a
JOIN s sb ON sb.event_type = p.b
CROSS JOIN nu"""


# Twin of ops.relational.orders_seasonality: per-row int cents,
# integer month sums, index = (month_cents * 12.0) / total as the
# engine's identical division.
ORDERS_SEASONALITY_SQL = """
WITH m AS (
  SELECT CAST(month(o_orderdate) AS BIGINT) AS month,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS month_cents,
         CAST(count(*) AS BIGINT) AS n_orders
  FROM orders GROUP BY 1),
t AS (SELECT sum(month_cents) AS total FROM m)
SELECT month, month_cents, n_orders,
       round((CAST(month_cents AS DOUBLE) * 12.0) / total, 6)
         AS seasonal_index
FROM m CROSS JOIN t"""


def tile_adjacency_sql(webpages_parquet: str, z: int = 12) -> str:
    """Twin of ops.spatial.tile_adjacency: self-join of the per-tile
    mention counts on 8-neighborhood contiguity, lexicographic
    (xa, ya) < (xb, yb) so each unordered pair appears once — the same
    ordering the engine's forward-probe emission builds in."""
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=z)}, "
            "tiles AS (SELECT z, x, y, count(*) AS n FROM localized "
            "GROUP BY z, x, y) "
            "SELECT a.z AS z, a.x AS xa, a.y AS ya, b.x AS xb, "
            "b.y AS yb, a.n AS n_a, b.n AS n_b "
            "FROM tiles a JOIN tiles b ON a.z = b.z "
            "AND abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1 "
            "AND (a.x < b.x OR (a.x = b.x AND a.y < b.y))")


def tile_moran_sql(webpages_parquet: str, z: int = 12) -> str:
    """Twin of ops.spatial.tile_moran: the same six integer aggregates
    (N, S1, S2 over tiles; E, SC, SA over unordered adjacency edges)
    assembled with the IDENTICAL left-associative double expressions,
    rounded half-away-from-zero to 6."""
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=z)}, "
            "tiles AS (SELECT x, y, count(*) AS n FROM localized "
            "GROUP BY x, y), "
            "adj AS (SELECT a.n AS n_a, b.n AS n_b FROM tiles a "
            "JOIN tiles b ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1 "
            "AND (a.x < b.x OR (a.x = b.x AND a.y < b.y))), "
            "s AS (SELECT count(*) AS nt, sum(n) AS s1, sum(n * n) AS s2 "
            "FROM tiles), "
            "ee AS (SELECT count(*) AS e, sum(n_a * n_b) AS sc, "
            "sum(n_a + n_b) AS sa FROM adj), "
            "m AS (SELECT nt, s1, s2, e, sc, sa, "
            "CAST(s1 AS DOUBLE) / nt AS xbar FROM s, ee) "
            "SELECT nt AS n_tiles, 2 * e AS w_sum, "
            "round((nt / (2.0 * e)) * "
            "(2.0 * (sc - xbar * sa + e * xbar * xbar)) / "
            "(s2 - nt * xbar * xbar), 6) AS moran_i, "
            "round(-1.0 / (nt - 1), 6) AS expected_i FROM m")


def tile_components_sql(webpages_parquet: str, z: int = 12) -> str:
    """Twin of ops.spatial.tile_components: recursive reachability
    walk over the bidirectional tile-adjacency edges; a node's cluster
    is the min (x * 2^26 + y) key among everything reachable."""
    kx = 1 << 26
    return (f"WITH RECURSIVE {mentions_cte(webpages_parquet)}, "
            f"{_tile_exprs(z=z)}, "
            "tiles AS (SELECT x, y, count(*) AS n FROM localized "
            "GROUP BY x, y), "
            f"adj AS (SELECT a.x * {kx} + a.y AS ka, "
            f"b.x * {kx} + b.y AS kb FROM tiles a JOIN tiles b "
            "ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1 "
            "AND (a.x < b.x OR (a.x = b.x AND a.y < b.y))), "
            "edges AS (SELECT ka AS src, kb AS dst FROM adj "
            "UNION ALL SELECT kb, ka FROM adj), "
            "nodes AS (SELECT DISTINCT src AS key FROM edges), "
            "walk(key, label) AS ("
            "  SELECT key, key FROM nodes"
            "  UNION"
            "  SELECT e.dst, w.label FROM walk w "
            "  JOIN edges e ON e.src = w.key), "
            "comp AS (SELECT key, min(label) AS label FROM walk "
            "GROUP BY key) "
            f"SELECT {z} AS z, key // {kx} AS x, key % {kx} AS y, "
            f"label // {kx} AS cluster_x, label % {kx} AS cluster_y "
            "FROM comp")


def tile_hotspots_sql(webpages_parquet: str, z: int = 12) -> str:
    """Twin of ops.spatial.tile_hotspots: neighbor sums via the
    8-neighborhood self-join, lift = (ns / k) / (S1 / N) with the
    identical two-division sequence, round 6, -1.0 sentinel for
    isolated tiles."""
    return (f"WITH {mentions_cte(webpages_parquet)}, {_tile_exprs(z=z)}, "
            "tiles AS (SELECT x, y, count(*) AS n FROM localized "
            "GROUP BY x, y), "
            "nb AS (SELECT a.x AS x, a.y AS y, sum(b.n) AS ns, "
            "count(*) AS k FROM tiles a JOIN tiles b "
            "ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1 "
            "AND NOT (a.x = b.x AND a.y = b.y) GROUP BY a.x, a.y), "
            "s AS (SELECT count(*) AS nt, sum(n) AS s1 FROM tiles) "
            f"SELECT {z} AS z, t.x AS x, t.y AS y, t.n AS n, "
            "coalesce(nb.k, 0) AS n_neighbors, "
            # sum(BIGINT) is HUGEINT in DuckDB -> float64 via pandas;
            # the engine emits int64 (dtype-strict gate)
            "CAST(coalesce(nb.ns, 0) AS BIGINT) AS neigh_sum, "
            "CASE WHEN coalesce(nb.k, 0) = 0 THEN -1.0 "
            "ELSE round((nb.ns / nb.k) / (CAST(s.s1 AS DOUBLE) / s.nt), 6) "
            "END AS lift "
            "FROM tiles t LEFT JOIN nb ON t.x = nb.x AND t.y = nb.y "
            "CROSS JOIN s")
