"""Flagship extraction expressed over the driver's documents table.

The graft testdata has no raw-HTML column, so pages are *derived
deterministically* from ``documents.parquet``: each doc's text becomes
the main content of a boilerplate-wrapped HTML page (every ~7th doc a
mini-PDF instead), keyed only on (doc_id, text) — same page bytes at
any scale factor or partitioning. The extraction then runs the real
pipeline stages and, by construction, must recover exactly the
documents' text for HTML rows (boilerplate stripped), which the test
suite asserts.
"""

from __future__ import annotations

import os
import random
import re
from html import escape as html_escape

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.functions.exact import WS_SPLIT_RE_SQL, trim_ws_sql
from pdf_extractor_ray.stages.extract import extract_all_batch
from pdf_extractor_ray.sources.pages import make_pdf, wrap_in_boilerplate


def _doc_to_page(doc_id: int, text: str, lang: str = "", source: str = "") -> bytes:
    """Page bytes for one document. A trailing details block plants
    labeled fields (DOC ID / LANG / SOURCE) so the schema-driven field
    extraction stage has a SQL-checkable ground truth.

    A trim-empty document derives a page with NO content at all — no
    meta lines either — so it genuinely extracts to '' / 0 fields,
    exactly as the oracles' ``len(TRIM_WS(text)) = 0`` branch models
    (planting the meta lines would make "empty" docs extract 3 fields
    of recoverable text and silently diverge from the SQL)."""
    rng = random.Random(doc_id * 2654435761 % (1 << 31))
    if not text.strip():
        meta_lines = []
    else:
        meta_lines = [f"DOC ID: {doc_id}", f"LANG CODE: {lang}", f"SOURCE NAME: {source}"]
    if doc_id % 7 == 3:  # PDF row: text lines as runs, shuffled emission
        words = text.split()
        lines = [" ".join(words[i : i + 8]) for i in range(0, len(words), 8)]
        runs = [(72.0, 720.0 - 24.0 * i, 12.0, ln) for i, ln in enumerate(lines[:26]) if ln]
        for j, ml in enumerate(meta_lines):
            runs.append((72.0, 60.0 - 18.0 * j, 12.0, ml))
        rng.shuffle(runs)
        return make_pdf([runs], compress=doc_id % 2 == 0)
    # HTML row: doc text as main paragraph + details block, in the
    # shared boilerplate wrapper. Escaped on the way in (the extraction
    # kernel unescapes), so text containing '<' or '&' round-trips.
    meta_html = "".join(f"<p>{html_escape(ml)}</p>" for ml in meta_lines)
    main_html = (
        f"<article><p>{html_escape(text)}</p></article>"
        f'<section id="details">{meta_html}</section>'
    )
    return wrap_in_boilerplate(main_html)


def pages_from_documents(sf_dir: str) -> ray.data.Dataset:
    """documents.parquet → pages Dataset (url, html) — vectorized derive."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang", "source"]
    )

    def derive(b: pa.Table) -> pa.Table:
        # pyarrow in and out, one read block per call: the read blocks
        # carry documents.parquet's pandas schema metadata, and Ray cannot
        # hash such schemas when it concatenates blocks into a batch
        ids, texts, langs, sources = (b.column(c).to_pylist() for c in ("doc_id", "text", "lang", "source"))
        return pa.table(
            {
                "url": pa.array([f"https://docs.example.com/{d}" for d in ids], pa.string()),
                "html": pa.array(
                    [_doc_to_page(int(d), t, lg, sc) for d, t, lg, sc in zip(ids, texts, langs, sources)],
                    pa.binary(),
                ),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow", batch_size=None)


def extract_documents(sf_dir: str, batch_size: int = 256) -> ray.data.Dataset:
    """The flagship extraction stage over derived pages; returns the
    full extraction table (url, kind, status, extracted_text, ...)."""
    pages = pages_from_documents(sf_dir)
    return pages.map_batches(extract_all_batch, batch_format="pyarrow", batch_size=batch_size)


def extract_fields_documents(sf_dir: str) -> ray.data.Dataset:
    """End-to-end extract → schema-driven field extraction, returning
    (doc_id, lang, source) recovered FROM THE PAGE BYTES — the DuckDB
    oracle compares against the documents table directly, making the
    whole extraction+field path SQL-checked."""
    import pandas as pd

    from pdf_extractor_ray.stages.fields import FieldSpec, with_fields

    specs = [
        FieldSpec("DOC ID", alt_names=["document id"]),
        FieldSpec("LANG CODE", alt_names=["language"]),
        FieldSpec("SOURCE NAME", alt_names=["origin"]),
    ]
    ds = with_fields(extract_documents(sf_dir), specs)

    def project(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for url, fields in zip(b["url"], b["fields"]):
            vals = {f["key"]: f["value"] for f in fields}
            rows.append(
                {
                    "doc_id": int(vals.get("DOC ID", -1)),
                    "lang": vals.get("LANG CODE", ""),
                    "source": vals.get("SOURCE NAME", ""),
                }
            )
        return pd.DataFrame(rows, columns=["doc_id", "lang", "source"]).astype(
            {"doc_id": "int64", "lang": "str", "source": "str"}
        )

    return ds.map_batches(project, batch_format="pandas")


# SQL replica of Python's str.strip() emptiness test — shared single
# source with every tokenizing oracle (see functions.exact.trim_ws_sql).
_TRIM_WS = trim_ws_sql("text")


# trim-empty docs derive meta-free pages (see _doc_to_page): nothing to
# extract, so the field stage reports the miss sentinels, not the table
# values
EXTRACT_FIELDS_SQL = f"""
SELECT CASE WHEN len({_TRIM_WS}) = 0 THEN -1 ELSE doc_id END AS doc_id,
       CASE WHEN len({_TRIM_WS}) = 0 THEN '' ELSE lang END AS lang,
       CASE WHEN len({_TRIM_WS}) = 0 THEN '' ELSE source END AS source
FROM documents
"""


# The derived page is a pure function of (doc_id, text, lang, source)
# — see _doc_to_page — so the flagship extraction output is fully
# SQL-modelable: the extracted text is the doc text followed by the
# three labeled meta lines, newline-joined, for BOTH the HTML row
# (boilerplate stripped by the block model) and the PDF row (reading-
# order reassembly of the text runs; corpus docs are ≤ 100 words so
# the 26-line cap never truncates — asserted against all testdata SFs).
# n_chars = len(text) + len("DOC ID: ")+len(id) + len("LANG CODE: ")
#           + len(lang) + len("SOURCE NAME: ")+len(source) + 3 newlines.
EXTRACT_FLAGSHIP_SQL = f"""
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       CASE WHEN doc_id % 7 = 3 THEN 'pdf' ELSE 'html' END AS kind,
       CASE WHEN len({_TRIM_WS}) = 0 THEN 'empty' ELSE 'ok' END AS status,
       CAST(CASE WHEN len({_TRIM_WS}) = 0 THEN 0
            ELSE len(text)
                 + 8 + len(CAST(doc_id AS VARCHAR))
                 + 11 + len(lang)
                 + 13 + len(source)
                 + 3 END AS BIGINT) AS n_chars_extracted
FROM documents
"""


def extraction_metrics_by_bucket(sf_dir: str) -> ray.data.Dataset:
    """§4.6 metrics report: per-(size_bucket, status) doc counts and
    byte totals — the per-partition metrics the manifest also records,
    expressed as a pipeline aggregate."""
    import numpy as np
    import pandas as pd

    from pdf_extractor_ray.ops import grouped_sum

    ds = extract_documents(sf_dir)

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "size_bucket": b["size_bucket"].astype("int64"),
                "status": b["status"],
                "n_docs": np.ones(len(b), dtype=np.int64),
                "total_bytes": b["n_bytes"].astype("int64"),
            }
        )

    return grouped_sum(
        ds.map_batches(derive, batch_format="pandas"),
        ["size_bucket", "status"],
        ["n_docs", "total_bytes"],
        num_buckets=4,
    )


def llm_score_documents(sf_dir: str) -> ray.data.Dataset:
    """Extraction → pluggable scorer actor pool (stages.scorer): the
    full reference scoring chain (prompt builder → completion backend →
    robust JSON parse → response→field mapping,
    ``gpt_service.py:21-201``) over the extracted pages, with the
    deterministic offline backend. SQL-checked: the backend must
    recover the planted DOC ID from every page, with exactly 3 labeled
    fields and a clean parse."""
    import json

    import pandas as pd

    from pdf_extractor_ray.stages.scorer import score_documents

    ds = extract_documents(sf_dir).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["url"].str.rsplit("/", n=1).str[1].astype("int64"),
                "text": b["extracted_text"],
            }
        ),
        batch_format="pandas",
    )
    scored = score_documents(ds)

    def project(b: pd.DataFrame) -> pd.DataFrame:
        recovered = []
        for fj in b["fields_json"]:
            vals = {f["key"]: f["value"] for f in json.loads(fj)}
            try:
                recovered.append(int(vals.get("DOC ID", "-1")))
            except ValueError:
                recovered.append(-1)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "recovered_doc_id": pd.Series(recovered, dtype="int64"),
                "n_fields": b["n_fields"],
                "parse_ok": b["parse_ok"],
            }
        )

    return scored.map_batches(project, batch_format="pandas")


# empty-text documents extract to "" → the fake backend sees no
# labeled lines → 0 fields and no recovered id (parse still succeeds:
# the backend answers {"fields": []})
LLM_SCORE_SQL = f"""
SELECT doc_id,
       CASE WHEN len({_TRIM_WS}) = 0 THEN -1 ELSE doc_id END AS recovered_doc_id,
       CAST(CASE WHEN len({_TRIM_WS}) = 0 THEN 0 ELSE 3 END AS BIGINT) AS n_fields,
       TRUE AS parse_ok
FROM documents
"""


def extract_documents_summary(sf_dir: str) -> ray.data.Dataset:
    """Compact result for the driver check: per-url status + text length."""
    ds = extract_documents(sf_dir)

    def compact(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "url": t.column("url"),
                "kind": t.column("kind"),
                "status": t.column("status"),
                "n_chars_extracted": pc.utf8_length(t.column("extracted_text")).cast(pa.int64()),
            }
        )

    return ds.map_batches(compact, batch_format="pyarrow")


def paragraph_dedup_documents(sf_dir: str, min_docs: int = 2) -> ray.data.Dataset:
    """End-to-end boilerplate strip: flagship extraction → CCNet-style
    cross-document paragraph dedup (``pipelines.dedup.paragraph_dedup``).
    The derived corpus plants real repeated boilerplate — every doc's
    ``LANG CODE: <lang>`` / ``SOURCE NAME: <source>`` meta paragraphs
    repeat across docs sharing a lang/source, and duplicate doc texts
    repeat wholesale — so the SQL oracle checks genuine removals, not a
    no-op."""
    from pdf_extractor_ray.pipelines.dedup import paragraph_dedup

    ds = extract_documents(sf_dir)

    def narrow(t: pa.Table) -> pa.Table:
        return t.select(["url", "extracted_text"])

    return paragraph_dedup(
        ds.map_batches(narrow, batch_format="pyarrow"),
        text_col="extracted_text",
        id_col="url",
        min_docs=min_docs,
    )


# SQL replay of the derived corpus's paragraph structure (_doc_to_page):
# an HTML doc extracts to [text, meta×3]; a PDF doc (doc_id % 7 = 3)
# extracts its text as 8-word reading-order lines, then meta×3. Meta
# paragraphs sort after content (pos 1000+); only relative order
# matters for the newline re-join. min_docs is interpolated from the
# same constant the carrier defaults to.
PARAGRAPH_DEDUP_MIN_DOCS = 2

# Shared CTE chain deriving the per-document LINE structure of the
# synthetic corpus (see _doc_to_page): ``d`` (one row per document with
# emptiness/kind flags) and ``paras`` (one row per extracted line with
# a sort position). Reused by every oracle that replays line-level
# semantics (paragraph dedup, C4 line cleaning).
DERIVED_LINES_CTES = f"""
d AS (
  SELECT doc_id, lang, source, text,
         len({_TRIM_WS}) > 0 AS ne,
         doc_id % 7 = 3 AS is_pdf
  FROM documents
),
pdf_words AS (
  SELECT doc_id, regexp_split_to_array({_TRIM_WS}, '{WS_SPLIT_RE_SQL}') AS ws
  FROM d WHERE ne AND is_pdf
),
-- static stepped series (generate_series can't lateral-correlate on
-- len(ws) in DuckDB): 208 = the PDF writer's 26-line cap × 8 words,
-- so gs always covers every emitted line
pdf_lines AS (
  SELECT doc_id, CAST((gs - 1) / 8 AS BIGINT) AS pos,
         array_to_string(ws[gs : gs + 7], ' ') AS para
  FROM pdf_words JOIN generate_series(1, 208, 8) AS t(gs) ON gs <= len(ws)
),
paras AS (
  SELECT doc_id, CAST(0 AS BIGINT) AS pos, text AS para FROM d WHERE ne AND NOT is_pdf
  UNION ALL SELECT doc_id, pos, para FROM pdf_lines
  UNION ALL SELECT doc_id, 1000, 'DOC ID: ' || CAST(doc_id AS VARCHAR) FROM d WHERE ne
  UNION ALL SELECT doc_id, 1001, 'LANG CODE: ' || lang FROM d WHERE ne
  UNION ALL SELECT doc_id, 1002, 'SOURCE NAME: ' || source FROM d WHERE ne
)"""

PARAGRAPH_DEDUP_SQL = f"""
WITH {DERIVED_LINES_CTES},
df AS (SELECT para, COUNT(DISTINCT doc_id) AS nd FROM paras GROUP BY para),
kept AS (
  SELECT p.doc_id, p.pos, p.para FROM paras p JOIN df USING (para)
  WHERE df.nd < {PARAGRAPH_DEDUP_MIN_DOCS}
)
SELECT 'https://docs.example.com/' || CAST(d.doc_id AS VARCHAR) AS url,
       CAST(COUNT(k.para) AS BIGINT) AS n_paragraphs_kept,
       COALESCE(string_agg(k.para, chr(10) ORDER BY k.pos), '') AS text_kept
FROM d LEFT JOIN kept k ON d.doc_id = k.doc_id
GROUP BY d.doc_id
"""


def latest_snapshot_documents(sf_dir: str) -> ray.data.Dataset:
    """Crawl snapshot dedup: a crawl re-fetches urls across visits;
    training corpora keep only the LATEST snapshot per url (max
    ``warc_ts``). The carrier derives 1-3 deterministic snapshots per
    document (epoch-second timestamps, per-snapshot content drift in
    ``snap_chars``) and reduces with ``ops.keep_first`` on the negated
    timestamp — the same decomposable per-batch-partial min that
    bounds a viral url to one row per batch on the exchange. Output:
    (url, latest_ts_epoch, snap_chars)."""
    import numpy as np

    from pdf_extractor_ray.ops import keep_first

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )

    def explode_snapshots(b: pd.DataFrame) -> pd.DataFrame:
        urls, ts, chars = [], [], []
        for doc_id, n_chars in zip(b["doc_id"], b["n_chars"]):
            d, c = int(doc_id), int(n_chars)
            for i in range(1 + d % 3):
                urls.append(f"https://docs.example.com/{d}")
                ts.append(1_600_000_000 + d * 7 + i * 86_400)
                chars.append(c + i)
        return pd.DataFrame(
            {
                "url": urls,
                "latest_ts_epoch": np.array(ts, dtype=np.int64),
                "snap_chars": np.array(chars, dtype=np.int64),
                "__negts": -np.array(ts, dtype=np.int64),
            }
        )

    flat = ds.map_batches(explode_snapshots, batch_format="pandas")
    return keep_first(flat, ["url"], "__negts").drop_columns(["__negts"])


def c4_clean_documents(sf_dir: str) -> ray.data.Dataset:
    """End-to-end C4 page cleaning: flagship extraction → line-level
    C4 rules (``pipelines.textops.c4_line_filter``). On the derived
    corpus the min-words rule genuinely bites — every meta line
    ('DOC ID: 7' = 3 tokens) drops, PDF tail lines with < 5 words drop,
    and short documents drop their main paragraph — while the
    javascript/curly-brace/lorem-ipsum rules are verified as no-ops by
    the value hash (the synthetic vocabulary never contains them; the
    rules themselves are pinned on planted fixtures in tests)."""
    from pdf_extractor_ray.pipelines.textops import c4_line_filter

    ds = extract_documents(sf_dir)

    def narrow(t: pa.Table) -> pa.Table:
        return t.select(["url", "extracted_text"])

    return c4_line_filter(
        ds.map_batches(narrow, batch_format="pyarrow"),
        text_col="extracted_text",
        id_col="url",
    )


def _c4_clean_sql() -> str:
    from pdf_extractor_ray.pipelines.textops import C4_MIN_WORDS

    trim_para = trim_ws_sql("para")
    # page_dropped replays the engine's whole-text scan per line: the
    # phrase contains no newline, so it cannot span the chr(10) joins
    # and any-line ⇔ whole-text.
    return f"""
WITH {DERIVED_LINES_CTES},
flags AS (
  SELECT doc_id, pos, para,
         (len(regexp_split_to_array({trim_para}, '{WS_SPLIT_RE_SQL}')) >= {int(C4_MIN_WORDS)}
          AND para NOT LIKE '%{{%'
          AND lower(para) NOT LIKE '%javascript%') AS keep,
         (lower(para) LIKE '%lorem ipsum%') AS lorem
  FROM paras
)
SELECT 'https://docs.example.com/' || CAST(d.doc_id AS VARCHAR) AS url,
       CAST(COUNT(f.para) AS BIGINT) AS n_lines,
       CAST(COALESCE(SUM(CASE WHEN f.keep THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_kept,
       CAST(COALESCE(MAX(CASE WHEN f.lorem THEN 1 ELSE 0 END), 0) AS BIGINT) AS page_dropped,
       CASE WHEN COALESCE(MAX(CASE WHEN f.lorem THEN 1 ELSE 0 END), 0) = 1 THEN ''
            ELSE COALESCE(string_agg(CASE WHEN f.keep THEN f.para END, chr(10) ORDER BY f.pos), '')
       END AS text_kept
FROM d LEFT JOIN flags f USING (doc_id)
GROUP BY d.doc_id
"""


C4_CLEAN_SQL = _c4_clean_sql()


def snapshot_diff_documents(sf_dir: str) -> ray.data.Dataset:
    """Cross-crawl change detection: for every url, compare the two
    most recent snapshots' content signatures and classify the url as
    ``single`` (one snapshot), ``changed``, or ``unchanged``. The
    carrier derives 1-3 snapshots per document with content-dependent
    drift (``sig_i = d·131 + i·(d % 2)``: odd docs change every visit,
    even docs never do), so all three statuses genuinely occur.

    Scale shape: top-2-by-timestamp is decomposable, so a per-batch
    partial emits AT MOST TWO candidate rows per url per batch (plus
    the url's batch-local snapshot count on the first row) before the
    bucketed exchange — a url re-crawled millions of times loads its
    bucket with 2 rows per input batch, not every snapshot. Requires
    distinct timestamps per url (true of WARC capture times at second
    resolution plus a uniquifying tiebreak upstream; the derived
    corpus guarantees it)."""
    from pdf_extractor_ray.ops import grouped_apply

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        frames = []
        for i in range(3):
            m = d % 3 >= i
            s = d[m]
            frames.append(
                pd.DataFrame(
                    {
                        "url": [f"https://docs.example.com/{x}" for x in s],
                        "ts": 1_600_000_000 + s * 7 + i * 86_400,
                        "sig": s * 131 + i * (s % 2),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["url", "ts"], ascending=[True, False], kind="mergesort")
        g = b.groupby("url", sort=False)
        top2 = g.head(2).copy()
        counts = g.size().rename("n_part")
        # attach the batch-local count to each url's FIRST candidate row
        first = ~top2["url"].duplicated()
        top2["n_part"] = 0
        top2.loc[first, "n_part"] = counts.loc[top2.loc[first, "url"]].to_numpy()
        return top2

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "ts"], ascending=[True, False], kind="mergesort")
        g = g.assign(rk=g.groupby("url", sort=False).cumcount())
        out = pd.DataFrame({"n_snaps": g.groupby("url", sort=False)["n_part"].sum()})
        out["latest_sig"] = g[g["rk"] == 0].set_index("url")["sig"]
        # float NaN where only one snapshot exists; the comparison below
        # only matters on n_snaps ≥ 2 rows (sig < 2^52, float-exact)
        out["prev_sig"] = g[g["rk"] == 1].set_index("url")["sig"]
        status = np.where(
            out["n_snaps"] == 1,
            "single",
            np.where(out["latest_sig"] == out["prev_sig"], "unchanged", "changed"),
        )
        return pd.DataFrame(
            {
                "url": out.index,
                "n_snaps": out["n_snaps"].to_numpy("int64"),
                "status": status,
                "latest_sig": out["latest_sig"].to_numpy("int64"),
            }
        )

    flat = ds.map_batches(explode, batch_format="pandas", batch_size=4096)
    partials = flat.map_batches(partial, batch_format="pandas", batch_size=32768)
    return grouped_apply(partials, ["url"], final)


# statuses are closed-form in doc_id: n_snaps = 1 + d%3; only odd docs
# drift between snapshots; latest sig is the i = d%3 snapshot's.
SNAPSHOT_DIFF_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       CAST(1 + doc_id % 3 AS BIGINT) AS n_snaps,
       CASE WHEN doc_id % 3 = 0 THEN 'single'
            WHEN doc_id % 2 = 1 THEN 'changed'
            ELSE 'unchanged' END AS status,
       CAST(doc_id * 131 + (doc_id % 3) * (doc_id % 2) AS BIGINT) AS latest_sig
FROM documents
"""


# latest snapshot index per doc = (doc_id % 3): ts and drift are pure
# doc_id/n_chars arithmetic, so the oracle needs no window function.
LATEST_SNAPSHOT_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       CAST(1600000000 + doc_id * 7 + (doc_id % 3) * 86400 AS BIGINT) AS latest_ts_epoch,
       CAST(n_chars + (doc_id % 3) AS BIGINT) AS snap_chars
FROM documents
"""


# ---------------------------------------------------------------------------
# Heading extraction through the REAL HTML parser (oracle-checked)
# ---------------------------------------------------------------------------


def derive_heading_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic HTML page per doc with a known heading outline:
    ``<h1>`` = first whitespace token, ``<h2>`` = second (when present)
    inside the boosted ``div#content``, plus a DEMOTED sidebar ``<h3>``
    (BOILER) the extractor must drop — so the oracle can derive the
    expected outline from the text column while the engine must
    actually parse markup, apply hint demotion, and collapse
    whitespace to match."""
    htmls = []
    for text in b["text"]:
        toks = text.split()
        main = []
        if toks:
            main.append(f"<h1>{html_escape(toks[0])}</h1>")
        main.append(f"<p>{html_escape(text)}</p>")
        if len(toks) >= 2:
            main.append(f"<h2>{html_escape(toks[1])}</h2>")
        htmls.append(
            (
                "<html><head><title>BOILER title</title></head><body>"
                "<nav><a href='/x'>BOILER nav</a></nav>"
                f"<div id=\"content\">{''.join(main)}</div>"
                "<div class=\"sidebar\"><h3>BOILER promo heading</h3></div>"
                "</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_headings_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic heading-bearing pages →
    :func:`kernels.html_extract.html_extract_headings` → ``(doc_id,
    level, heading)``. Zero shuffle (per-batch parse, the flagship's
    stage shape); the demoted BOILER ``<h3>`` proves the hint model is
    live in the outline path, not just the body-text path."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_headings

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_heading_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, levels, texts = [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            for level, heading in html_extract_headings(raw):
                ids.append(int(doc_id))
                levels.append(level)
                texts.append(heading)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "level": pd.Series(levels, dtype="int64"),
                "heading": pd.Series(texts, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_headings_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id, CAST(1 AS BIGINT) AS level, arr[1] AS heading FROM t WHERE len(arr) >= 1
UNION ALL
SELECT doc_id, CAST(2 AS BIGINT) AS level, arr[2] AS heading FROM t WHERE len(arr) >= 2
"""


EXTRACT_HEADINGS_SQL = _extract_headings_sql()


# ---------------------------------------------------------------------------
# Main-content outlink harvest through the real HTML parser
# ---------------------------------------------------------------------------


def derive_link_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with a known outlink set: two
    content links (``/article/{2·doc_id}`` anchored by the first
    token, ``/article/{2·doc_id+1}`` by the second when present)
    inside the boosted main div, plus a DEMOTED sidebar link the
    harvester must drop — the oracle derives the expected frontier
    from doc_id/text arithmetic while the engine parses real markup."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        toks = text.split()
        a0 = html_escape(toks[0]) if toks else "read"
        main = [f'<a href="/article/{2 * d}">{a0}</a><p>{html_escape(text)}</p>']
        if len(toks) >= 2:
            main.append(f'<a href="/article/{2 * d + 1}">{html_escape(toks[1])}</a>')
        htmls.append(
            (
                "<html><body>"
                f"<div id=\"content\">{''.join(main)}</div>"
                f'<div class="sidebar"><a href="/rel/{d}">BOILER related</a></div>'
                "</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_links_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic link-bearing pages →
    :func:`kernels.html_extract.html_extract_links` → ``(doc_id, href,
    anchor)``. The crawl-frontier harvest every crawler loop runs on
    extracted pages; zero shuffle, and the demoted sidebar link proves
    chaff links die in the outline path."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_links

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_link_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, hrefs, anchors = [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            for href, anchor in html_extract_links(raw):
                ids.append(int(doc_id))
                hrefs.append(href)
                anchors.append(anchor)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "href": pd.Series(hrefs, dtype="object"),
                "anchor": pd.Series(anchors, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_links_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id, '/article/' || CAST(2 * doc_id AS VARCHAR) AS href,
       CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'read' END AS anchor
FROM t
UNION ALL
SELECT doc_id, '/article/' || CAST(2 * doc_id + 1 AS VARCHAR) AS href, arr[2] AS anchor
FROM t WHERE len(arr) >= 2
"""


EXTRACT_LINKS_SQL = _extract_links_sql()


# ---------------------------------------------------------------------------
# Page-metadata extraction through the real HTML parser
# ---------------------------------------------------------------------------


def derive_meta_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with planted head metadata: lang
    attribute from the lang column, title = first token + ' - Example',
    description = first three tokens, canonical = the doc's stable url
    — plus decoys (a keywords meta, a second title) the extractor must
    ignore under first-occurrence-wins."""
    htmls = []
    for doc_id, text, lang in zip(b["doc_id"], b["text"], b["lang"]):
        d = int(doc_id)
        toks = text.split()
        title = html_escape((toks[0] if toks else "untitled") + " - Example")
        desc = html_escape(" ".join(toks[:3]) if toks else "no summary")
        htmls.append(
            (
                f'<html lang="{lang}"><head>'
                f"<title>{title}</title>"
                f'<meta name="keywords" content="BOILER decoy">'
                f'<meta name="description" content="{desc}">'
                f'<link rel="stylesheet" href="/BOILER.css">'
                f'<link rel="canonical" href="https://docs.example.com/{d}">'
                f"<title>BOILER second title</title>"
                f"</head><body><p>{html_escape(text)}</p></body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_meta_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic metadata-bearing pages →
    :func:`kernels.html_extract.html_extract_meta` → ``(doc_id, title,
    description, canonical, lang_attr)``. The decoy meta/link/title
    entries prove attribute filtering and first-wins semantics against
    the SQL-derived expectation."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_meta

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    ).map_batches(derive_meta_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        metas = [html_extract_meta(raw) for raw in b["html"]]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "title": pd.Series([m["title"] for m in metas], dtype="object"),
                "description": pd.Series([m["description"] for m in metas], dtype="object"),
                "canonical": pd.Series([m["canonical"] for m in metas], dtype="object"),
                "lang_attr": pd.Series([m["lang"] for m in metas], dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_meta_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id, lang,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id,
       (CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'untitled' END) || ' - Example' AS title,
       CASE WHEN len(arr) = 0 THEN 'no summary'
            ELSE array_to_string(arr[1:LEAST(len(arr), 3)], ' ') END AS description,
       'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS canonical,
       lang AS lang_attr
FROM t
"""


EXTRACT_META_SQL = _extract_meta_sql()


# ---------------------------------------------------------------------------
# Open Graph social-card harvest through the real parser
# ---------------------------------------------------------------------------


def derive_opengraph_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with planted Open Graph card data:
    og:title = first token + ' | Social', og:description = first four
    tokens, og:image/og:type/og:url from doc_id arithmetic (og:url
    absent every 5th doc so NULLs genuinely occur) — plus decoys the
    harvester must reject: a ``name="og:title"`` meta (wrong attribute
    — OG is RDFa ``property=``), a duplicate og:title (first-wins),
    and an unknown ``og:`` property."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        toks = text.split()
        title = html_escape((toks[0] if toks else "untitled") + " | Social")
        desc = html_escape(" ".join(toks[:4]) if toks else "no preview")
        og_url = "" if d % 5 == 0 else f'<meta property="og:url" content="https://docs.example.com/{d}">'
        htmls.append(
            (
                "<html><head>"
                '<meta name="og:title" content="BOILER name-keyed decoy">'
                f'<meta property="og:title" content="{title}">'
                f'<meta property="og:description" content="{desc}">'
                '<meta property="og:title" content="BOILER second card">'
                f'<meta property="og:image" content="https://img.example.com/{d % 100}/{d}.jpg">'
                '<meta property="og:unknown" content="BOILER unknown key">'
                f'<meta property="og:type" content="{"article" if d % 3 == 0 else "website"}">'
                f"{og_url}"
                f"</head><body><p>{html_escape(text)}</p></body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_opengraph_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic OG-bearing pages →
    :func:`kernels.html_extract.html_extract_opengraph` → ``(doc_id,
    og_title, og_description, og_image, og_type, og_url)``. The decoys
    prove attribute discrimination (``property=`` vs ``name=``),
    first-occurrence-wins, and unknown-key filtering against the
    SQL-derived expectation. Zero shuffle — the flagship's per-batch
    parse shape."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_opengraph

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_opengraph_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        cards = [html_extract_opengraph(raw) for raw in b["html"]]
        out = {"doc_id": b["doc_id"].to_numpy(np.int64)}
        for col in ("og_title", "og_description", "og_image", "og_type", "og_url"):
            out[col] = pd.Series([c[col] for c in cards], dtype="object")
        return pd.DataFrame(out)

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_opengraph_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id,
       (CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'untitled' END) || ' | Social' AS og_title,
       CASE WHEN len(arr) = 0 THEN 'no preview'
            ELSE array_to_string(arr[1:LEAST(len(arr), 4)], ' ') END AS og_description,
       'https://img.example.com/' || CAST(doc_id % 100 AS VARCHAR) || '/' || CAST(doc_id AS VARCHAR) || '.jpg' AS og_image,
       CASE WHEN doc_id % 3 = 0 THEN 'article' ELSE 'website' END AS og_type,
       CASE WHEN doc_id % 5 = 0 THEN NULL
            ELSE 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) END AS og_url
FROM t
"""


EXTRACT_OPENGRAPH_SQL = _extract_opengraph_sql()


# ---------------------------------------------------------------------------
# Image/alt-text (caption-pair) harvest through the real parser
# ---------------------------------------------------------------------------


def derive_image_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with a known caption-pair set: a hero
    image ``/img/{3·doc_id}.png`` alt'd by the first two tokens inside
    the boosted content div, a second image ``/img/{3·doc_id+1}.png``
    alt'd by the third token when present — plus decoys the harvester
    must drop: a DEMOTED sidebar logo, an alt-less figure, and an
    empty-alt spacer."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        toks = text.split()
        alt0 = html_escape(" ".join(toks[:2]) if toks else "figure")
        main = [
            f'<img src="/img/{3 * d}.png" alt="{alt0}">',
            f"<p>{html_escape(text)}</p>",
            f'<img src="/img/{3 * d + 2}.png" alt="">',  # empty alt: dropped
            f'<img src="/img/{3 * d + 9}.png">',  # alt-less: dropped
        ]
        if len(toks) >= 3:
            main.append(f'<img src="/img/{3 * d + 1}.png" alt="{html_escape(toks[2])}">')
        htmls.append(
            (
                "<html><body>"
                f"<div id=\"content\">{''.join(main)}</div>"
                f'<div class="sidebar"><img src="/logo.png" alt="BOILER logo"></div>'
                "</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_images_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic image-bearing pages →
    :func:`kernels.html_extract.html_extract_images` → ``(doc_id, src,
    alt)``. Image-caption pair mining for a multimodal corpus; zero
    shuffle, and the demoted sidebar logo + alt-less/empty-alt decoys
    prove the hint model and the caption requirement are live against
    the SQL-derived expectation."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_images

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_image_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, srcs, alts = [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            for src, alt in html_extract_images(raw):
                ids.append(int(doc_id))
                srcs.append(src)
                alts.append(alt)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "src": pd.Series(srcs, dtype="object"),
                "alt": pd.Series(alts, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_images_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id, '/img/' || CAST(3 * doc_id AS VARCHAR) || '.png' AS src,
       CASE WHEN len(arr) = 0 THEN 'figure'
            ELSE array_to_string(arr[1:LEAST(len(arr), 2)], ' ') END AS alt
FROM t
UNION ALL
SELECT doc_id, '/img/' || CAST(3 * doc_id + 1 AS VARCHAR) || '.png' AS src, arr[3] AS alt
FROM t WHERE len(arr) >= 3
"""


EXTRACT_IMAGES_SQL = _extract_images_sql()


# ---------------------------------------------------------------------------
# Declared-vs-detected language audit (two real kernels composed)
# ---------------------------------------------------------------------------


def derive_langattr_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc whose ``<html lang>`` declaration is
    the labeled lang column — except every 7th doc, which declares a
    deterministically WRONG ``xx`` (mislabeled pages are a real crawl
    phenomenon and the thing this audit exists to catch)."""
    htmls = []
    for doc_id, text, lang in zip(b["doc_id"], b["text"], b["lang"]):
        declared = "xx" if int(doc_id) % 7 == 0 else lang
        htmls.append(
            (f'<html lang="{declared}"><body><p>{html_escape(text)}</p></body></html>').encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def lang_mismatch_documents(sf_dir: str) -> ray.data.Dataset:
    """Audit: parse the ``lang`` declaration out of real markup
    (:func:`kernels.html_extract.html_extract_meta`) AND detect the
    language from the body text (:func:`kernels.textstats.lang_id`),
    then flag agreement — the routing sanity check a crawl pipeline
    runs before trusting declared metadata (CCNet routes on detected,
    not declared, for exactly this reason). Two real kernels composed
    per batch, zero shuffle; the oracle replays both (the planted
    ``xx`` declarations plus the stopword-vote replica)."""
    from pdf_extractor_ray.kernels import textstats
    from pdf_extractor_ray.kernels.html_extract import html_extract_meta

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    ).map_batches(derive_langattr_pages, batch_format="pandas", batch_size=1024)

    def audit(b: pd.DataFrame) -> pd.DataFrame:
        declared = [html_extract_meta(raw)["lang"] for raw in b["html"]]
        detected = [textstats.lang_id(t) for t in b["text"]]
        out = pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "declared_lang": pd.Series(declared, dtype="object"),
                "detected_lang": pd.Series(detected, dtype="object"),
            }
        )
        out["declared_match"] = (out["declared_lang"] == out["detected_lang"]).astype(np.int8)
        return out

    return ds.map_batches(audit, batch_format="pandas", batch_size=1024)


def _lang_mismatch_sql() -> str:
    from pdf_extractor_ray.pipelines.textops import LANG_PRED_CORE_SQL

    return f"""
SELECT doc_id,
       CASE WHEN doc_id % 7 = 0 THEN 'xx' ELSE lang END AS declared_lang,
       lang_pred AS detected_lang,
       CAST((CASE WHEN doc_id % 7 = 0 THEN 'xx' ELSE lang END) = lang_pred AS TINYINT)
           AS declared_match
FROM ({LANG_PRED_CORE_SQL})
"""


LANG_MISMATCH_SQL = _lang_mismatch_sql()


# ---------------------------------------------------------------------------
# Host-level link-graph rollup (extraction → domain edge weights)
# ---------------------------------------------------------------------------


def derive_hostlink_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with absolute cross-host outlinks:
    every doc links to ``h{(7·d) mod 13}.example.com``, odd docs add a
    second edge to ``h{(3·d+1) mod 13}.example.com`` — plus a DEMOTED
    sidebar link that must NOT become an edge (chrome links would
    drown the host graph in template noise)."""
    htmls = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        main = [f'<a href="https://h{(d * 7) % 13}.example.com/p/{2 * d}">next</a>']
        if d % 2 == 1:
            main.append(f'<a href="https://h{(d * 3 + 1) % 13}.example.com/p/{2 * d + 1}">more</a>')
        htmls.append(
            (
                "<html><body>"
                f"<div id=\"content\">{''.join(main)}</div>"
                '<div class="sidebar"><a href="https://h0.example.com/promo">BOILER</a></div>'
                "</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def host_graph_documents(sf_dir: str) -> ray.data.Dataset:
    """Host-level link graph: real link harvest
    (:func:`kernels.html_extract.html_extract_links`) → host keys via
    :func:`functions.urls.site_domain` → ``(src_host, dst_host,
    n_links)`` edge weights. The domain-graph rollup that feeds
    host-level PageRank/spam scoring at crawl scale. Scale shape:
    edges are pre-aggregated per batch (pandas groupby partial) so the
    exchange carries at most |hosts|² counter rows per block, not one
    row per link; the final ``groupby`` sums partials."""
    from ray.data.aggregate import Sum

    from pdf_extractor_ray.functions.urls import site_domain
    from pdf_extractor_ray.kernels.html_extract import html_extract_links

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_hostlink_pages, batch_format="pandas", batch_size=1024)

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        srcs, dsts = [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            src = f"h{int(doc_id) % 13}.example.com"
            for href, _anchor in html_extract_links(raw):
                srcs.append(src)
                dsts.append(site_domain(href))
        e = pd.DataFrame({"src_host": srcs, "dst_host": dsts})
        part = e.groupby(["src_host", "dst_host"], as_index=False).size()
        return part.rename(columns={"size": "n_links"})

    return (
        ds.map_batches(edges, batch_format="pandas", batch_size=1024)
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n_links", alias_name="n_links"))
    )


HOST_GRAPH_SQL = """
WITH e AS (
    SELECT 'h' || CAST(doc_id % 13 AS VARCHAR) || '.example.com' AS src_host,
           'h' || CAST((doc_id * 7) % 13 AS VARCHAR) || '.example.com' AS dst_host
    FROM documents
    UNION ALL
    SELECT 'h' || CAST(doc_id % 13 AS VARCHAR) || '.example.com',
           'h' || CAST((doc_id * 3 + 1) % 13 AS VARCHAR) || '.example.com'
    FROM documents WHERE doc_id % 2 = 1
)
SELECT src_host, dst_host, COUNT(*) AS n_links
FROM e GROUP BY src_host, dst_host
"""


# ---------------------------------------------------------------------------
# Table-structure harvest (WebTables-style) through the real parser
# ---------------------------------------------------------------------------


def derive_table_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with a known data table: a KEY/VALUE
    header row plus up to two data rows built from token pairs
    (``arr[1],arr[2]`` then ``arr[3],arr[4]``) inside the boosted main
    div — plus a DEMOTED sidebar chrome table the extractor must drop
    entirely, so the oracle derives the expected cells from token
    arithmetic while the engine must parse real markup, apply the hint
    model, and keep the grid straight."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        toks = text.split()
        rows = ["<tr><th>KEY</th><th>VALUE</th></tr>"]
        for i in (0, 2):
            if len(toks) >= i + 2:
                rows.append(
                    f"<tr><td>{html_escape(toks[i])}</td>"
                    f"<td>{html_escape(toks[i + 1])}</td></tr>"
                )
        htmls.append(
            (
                "<html><body>"
                f"<div id=\"content\"><table>{''.join(rows)}</table></div>"
                '<div class="sidebar"><table><tr><td>BOILER promo</td>'
                "<td>BOILER ad</td></tr></table></div>"
                "</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_tables_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic table-bearing pages →
    :func:`kernels.html_extract.html_extract_tables` → ``(doc_id,
    table_idx, row_idx, col_idx, is_header, cell)``. The relational-web
    harvest (WebTables-style) over extracted pages; zero shuffle
    (per-batch parse, the flagship's stage shape), and the demoted
    sidebar table proves chrome tables die before they consume a
    ``table_idx``."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_tables

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_table_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, tidx, ridx, cidx, hdr, cells = [], [], [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            for t, r, c, h, cell in html_extract_tables(raw):
                ids.append(int(doc_id))
                tidx.append(t)
                ridx.append(r)
                cidx.append(c)
                hdr.append(h)
                cells.append(cell)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "table_idx": pd.Series(tidx, dtype="int64"),
                "row_idx": pd.Series(ridx, dtype="int64"),
                "col_idx": pd.Series(cidx, dtype="int64"),
                "is_header": pd.Series(hdr, dtype="int64"),
                "cell": pd.Series(cells, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_tables_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
),
cells AS (
    SELECT doc_id, 0 AS row_idx, 0 AS col_idx, 1 AS is_header, 'KEY' AS cell FROM t
    UNION ALL
    SELECT doc_id, 0, 1, 1, 'VALUE' FROM t
    UNION ALL
    SELECT doc_id, 1, 0, 0, arr[1] FROM t WHERE len(arr) >= 2
    UNION ALL
    SELECT doc_id, 1, 1, 0, arr[2] FROM t WHERE len(arr) >= 2
    UNION ALL
    SELECT doc_id, 2, 0, 0, arr[3] FROM t WHERE len(arr) >= 4
    UNION ALL
    SELECT doc_id, 2, 1, 0, arr[4] FROM t WHERE len(arr) >= 4
)
SELECT doc_id, CAST(0 AS BIGINT) AS table_idx, CAST(row_idx AS BIGINT) AS row_idx,
       CAST(col_idx AS BIGINT) AS col_idx, CAST(is_header AS BIGINT) AS is_header, cell
FROM cells
"""


EXTRACT_TABLES_SQL = _extract_tables_sql()


# ---------------------------------------------------------------------------
# Charset-sniffed extraction (non-UTF-8 crawl rows) through the real parser
# ---------------------------------------------------------------------------

_CP1252_MARKER = "émigré café"  # round-trips cp1252 but NOT ascii/utf-8-as-bytes


def derive_charset_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc in a rotating wire encoding
    (``doc_id % 4``): plain UTF-8, UTF-8 with BOM, UTF-16-LE with BOM,
    and windows-1252 declared via ``<meta charset="iso-8859-1">`` with
    a non-ASCII marker appended (bytes that are INVALID UTF-8, so a
    naive utf-8 decode would mojibake) — the oracle derives charset,
    sniff source, and extracted text from doc_id arithmetic while the
    engine must detect the encoding and decode before parsing."""
    encs = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        mod = d % 4
        if mod == 3:
            body = f"{html_escape(text)} {_CP1252_MARKER}"
            page = (
                '<html><head><meta charset="iso-8859-1"></head><body>'
                f'<div id="content"><p>{body}</p></div></body></html>'
            )
            encs.append(page.encode("cp1252"))
            continue
        page = (
            "<html><body>"
            f'<div id="content"><p>{html_escape(text)}</p></div>'
            "</body></html>"
        )
        if mod == 0:
            encs.append(page.encode("utf-8"))
        elif mod == 1:
            encs.append(b"\xef\xbb\xbf" + page.encode("utf-8"))
        else:
            encs.append(b"\xff\xfe" + page.encode("utf-16-le"))
    out = b.copy()
    out["html"] = encs
    return out


def extract_charset_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → pages in four wire encodings →
    charset-sniffed decode (``kernels.sniff.detect_charset``) → the
    real extractor → ``(doc_id, charset, charset_source,
    extracted_text)``. Proves the decode layer end to end: the
    windows-1252 rows carry invalid-UTF-8 bytes that only survive
    byte-identically through a correct sniff + decode."""
    from pdf_extractor_ray.kernels.html_extract import html_extract
    from pdf_extractor_ray.kernels.sniff import detect_charset

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_charset_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, charsets, sources, texts = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            codec, source = detect_charset(raw)
            ids.append(int(doc_id))
            charsets.append(codec)
            sources.append(source)
            texts.append(html_extract(raw)[0])
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "charset": pd.Series(charsets, dtype="object"),
                "charset_source": pd.Series(sources, dtype="object"),
                "extracted_text": pd.Series(texts, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_charset_sql() -> str:
    tw = trim_ws_sql("text")
    return f"""
SELECT doc_id,
       CASE doc_id % 4 WHEN 2 THEN 'utf-16-le' WHEN 3 THEN 'windows-1252'
            ELSE 'utf-8' END AS charset,
       CASE doc_id % 4 WHEN 0 THEN 'utf8-valid' WHEN 3 THEN 'meta'
            ELSE 'bom' END AS charset_source,
       CASE WHEN doc_id % 4 = 3 THEN
                 CASE WHEN {tw} = '' THEN '{_CP1252_MARKER}'
                      ELSE {tw} || ' {_CP1252_MARKER}' END
            ELSE {tw} END AS extracted_text
FROM documents
"""


EXTRACT_CHARSET_SQL = _extract_charset_sql()


# ---------------------------------------------------------------------------
# PDF document-information (/Info) harvest through the real PDF parser
# ---------------------------------------------------------------------------


def derive_pdfinfo_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic one-page PDF per doc with a planted /Info dict:
    Title = first ≤3 tokens (or 'untitled'), Author = source, Subject =
    lang — the oracle derives all three from the documents table while
    the engine must walk the trailer, resolve the /Info reference, and
    decode PDF string escapes."""
    pdfs = []
    for text, lang, source in zip(b["text"], b["lang"], b["source"]):
        toks = text.split()
        title = " ".join(toks[:3]) if toks else "untitled"
        words = toks[:8] if toks else ["x"]
        pdfs.append(
            make_pdf(
                [[(72.0, 720.0, 12.0, " ".join(words))]],
                info={"Title": title, "Author": source, "Subject": lang},
            )
        )
    out = b.copy()
    out["html"] = pdfs
    return out


def extract_pdfinfo_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic /Info-bearing PDFs →
    :func:`kernels.pdf_extract.pdf_extract_info` → ``(doc_id, title,
    author, subject)``. The metadata capture the reference's PDF
    library provides implicitly (``pdf_service.py`` opens each doc);
    zero shuffle, per-batch parse."""
    from pdf_extractor_ray.kernels.pdf_extract import pdf_extract_info

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    ).map_batches(derive_pdfinfo_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, titles, authors, subjects = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            info = pdf_extract_info(raw)
            ids.append(int(doc_id))
            titles.append(info.get("Title", ""))
            authors.append(info.get("Author", ""))
            subjects.append(info.get("Subject", ""))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "title": pd.Series(titles, dtype="object"),
                "author": pd.Series(authors, dtype="object"),
                "subject": pd.Series(subjects, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_pdfinfo_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id, lang, source,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id,
       CASE WHEN len(arr) = 0 THEN 'untitled'
            ELSE array_to_string(arr[1:LEAST(len(arr), 3)], ' ') END AS title,
       source AS author,
       lang AS subject
FROM t
"""


EXTRACT_PDFINFO_SQL = _extract_pdfinfo_sql()


# ---------------------------------------------------------------------------
# JSON-LD structured-data harvest (schema.org channel)
# ---------------------------------------------------------------------------


def derive_ldjson_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with a planted schema.org Article
    JSON-LD block (headline = first token, wordCount = token count)
    plus decoys: a plain ``<script>`` carrying JSON-looking text and a
    malformed ld+json block — the harvester must take exactly the one
    valid typed block."""
    import json

    htmls = []
    for text in b["text"]:
        toks = text.split()
        ld = json.dumps(
            {
                "@type": "Article",
                "headline": toks[0] if toks else "untitled",
                "wordCount": len(toks),
            }
        )
        htmls.append(
            (
                "<html><head>"
                '<script>var decoy = {"@type": "Fake"};</script>'
                f'<script type="application/ld+json">{ld}</script>'
                '<script type="application/ld+json">{broken</script>'
                f"</head><body><p>{html_escape(text)}</p></body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def extract_ldjson_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → pages with planted+decoy JSON-LD →
    :func:`kernels.html_extract.html_extract_ldjson` → ``(doc_id,
    ld_type, headline, word_count)``. Composes the HTML token scan with
    the robust JSON parser (M12's tolerance path) under an exact SQL
    expectation."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_ldjson

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_ldjson_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, types, heads, counts = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            for obj in html_extract_ldjson(raw):
                ids.append(int(doc_id))
                types.append(str(obj.get("@type", "")))
                heads.append(str(obj.get("headline", "")))
                counts.append(int(obj.get("wordCount", 0)))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "ld_type": pd.Series(types, dtype="object"),
                "headline": pd.Series(heads, dtype="object"),
                "word_count": pd.Series(counts, dtype="int64"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_ldjson_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id, 'Article' AS ld_type,
       CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'untitled' END AS headline,
       CAST(len(arr) AS BIGINT) AS word_count
FROM t
"""


EXTRACT_LDJSON_SQL = _extract_ldjson_sql()


# ---------------------------------------------------------------------------
# Sitemap parsing (crawl-discovery channel)
# ---------------------------------------------------------------------------


def derive_sitemap_bodies(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic sitemap.xml body per doc: the doc's page plus an
    archive variant (lastmod/priority from doc_id arithmetic), a
    loc-less decoy entry the parser must drop, and an image-extension
    block it must ignore."""
    bodies = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        prio = f"<priority>0.{d % 9 + 1}</priority>" if d % 2 == 0 else ""
        bodies.append(
            (
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
                f"<url><loc>https://docs.example.com/{d}</loc>"
                f"<lastmod>2026-0{d % 9 + 1}-01</lastmod>{prio}</url>\n"
                f"<url><lastmod>2000-01-01</lastmod></url>\n"
                f"<url><loc>https://docs.example.com/{d}/archive</loc>"
                "<image:image><image:loc>BOILER.png</image:loc></image:image></url>\n"
                "</urlset>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["sitemap"] = bodies
    return out


def parse_sitemaps_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic sitemap bodies →
    :func:`kernels.html_extract.parse_sitemap` → ``(doc_id, loc,
    lastmod, priority)`` (missing fields as empty strings for exact
    null-free hashing). The loc-less decoy and the image-extension
    block prove the protocol rules are live."""
    from pdf_extractor_ray.kernels.html_extract import parse_sitemap

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_sitemap_bodies, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, locs, mods, prios = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["sitemap"]):
            for e in parse_sitemap(raw):
                ids.append(int(doc_id))
                locs.append(e["loc"])
                mods.append(e.get("lastmod", ""))
                prios.append(e.get("priority", ""))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "loc": pd.Series(locs, dtype="object"),
                "lastmod": pd.Series(mods, dtype="object"),
                "priority": pd.Series(prios, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


PARSE_SITEMAPS_SQL = """
SELECT doc_id,
       'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS loc,
       '2026-0' || CAST(doc_id % 9 + 1 AS VARCHAR) || '-01' AS lastmod,
       CASE WHEN doc_id % 2 = 0 THEN '0.' || CAST(doc_id % 9 + 1 AS VARCHAR) ELSE '' END AS priority
FROM documents
UNION ALL
SELECT doc_id,
       'https://docs.example.com/' || CAST(doc_id AS VARCHAR) || '/archive' AS loc,
       '' AS lastmod, '' AS priority
FROM documents
"""


# ---------------------------------------------------------------------------
# RSS/Atom feed parsing (fresh-url discovery channel)
# ---------------------------------------------------------------------------


def derive_feed_bodies(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic feed body per doc — RSS 2.0 for even ids, Atom
    for odd ids (the parser must normalize BOTH syntaxes to one
    schema): entry title = first token, link = the doc's stable url,
    ts/id from doc_id arithmetic; plus channel-level title/link decoys
    and a link-less entry that must drop."""
    bodies = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        toks = text.split()
        title = html_escape(toks[0] if toks else "untitled")
        link = f"https://docs.example.com/{d}"
        if d % 2 == 0:
            body = (
                "<rss><channel><title>BOILER channel</title><link>/BOILER</link>"
                f"<item><title>{title}</title><link>{link}</link>"
                f"<pubDate>2026-01-{d % 28 + 1:02d}</pubDate><guid>g{d}</guid></item>"
                "<item><title>BOILER linkless</title></item>"
                "</channel></rss>"
            )
        else:
            body = (
                '<feed xmlns="http://www.w3.org/2005/Atom"><title>BOILER feed</title>'
                f'<entry><title>{title}</title><link href="{link}"/>'
                f"<updated>2026-01-{d % 28 + 1:02d}</updated><id>g{d}</id></entry>"
                "</feed>"
            )
        bodies.append(body.encode("utf-8"))
    out = b.copy()
    out["feed"] = bodies
    return out


def parse_feeds_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → RSS/Atom bodies (alternating by id) →
    :func:`kernels.html_extract.parse_feed` → ``(doc_id, title, link,
    ts, entry_id)``. One normalized output schema across both feed
    dialects, proven against a dialect-blind SQL expectation."""
    from pdf_extractor_ray.kernels.html_extract import parse_feed

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_feed_bodies, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, titles, links, tss, eids = [], [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["feed"]):
            for e in parse_feed(raw):
                ids.append(int(doc_id))
                titles.append(e.get("title", ""))
                links.append(e["link"])
                tss.append(e.get("ts", ""))
                eids.append(e.get("id", ""))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "title": pd.Series(titles, dtype="object"),
                "link": pd.Series(links, dtype="object"),
                "ts": pd.Series(tss, dtype="object"),
                "entry_id": pd.Series(eids, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _parse_feeds_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id,
       CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'untitled' END AS title,
       'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS link,
       '2026-01-' || lpad(CAST(doc_id % 28 + 1 AS VARCHAR), 2, '0') AS ts,
       'g' || CAST(doc_id AS VARCHAR) AS entry_id
FROM t
"""


PARSE_FEEDS_SQL = _parse_feeds_sql()


# ---------------------------------------------------------------------------
# WARC ingestion (Common-Crawl container format)
# ---------------------------------------------------------------------------


def derive_warc_slices(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic WARC slice per doc (one response record wrapped
    behind a warcinfo header): body = ``<p>{text}</p>``, status 404
    on every 7th id, plus the builder's HTTP header block the parser
    must strip — built through :func:`sources.warc.build_warc`, so the
    carrier exercises writer AND reader."""
    from pdf_extractor_ray.sources.warc import build_warc

    slices = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        slices.append(
            build_warc(
                [
                    {
                        "url": f"https://docs.example.com/{d}",
                        "ts": f"2026-01-{d % 28 + 1:02d}T00:00:00Z",
                        "http_status": 404 if d % 7 == 0 else 200,
                        "body": f"<p>{text}</p>".encode("utf-8"),
                    }
                ],
                # odd ids ship as .warc.gz members: the reader must
                # auto-detect BOTH layouts for the one oracle to match
                gzip_members=bool(d % 2),
            )
        )
    out = b[["doc_id"]].copy()
    out["warc"] = slices
    return out


def derive_fetchstat_slices(b: pd.DataFrame) -> pd.DataFrame:
    """WARC slice per doc with BOTH planted status and media type:
    status 404 every 7th id, 301 every 11th (else 200); Content-Type
    ``application/pdf`` every 5th id else ``text/html; charset=utf-8``
    — the parser must strip the parameter and lowercase the type.
    Odd ids ship as .warc.gz members."""
    from pdf_extractor_ray.sources.warc import build_warc

    slices = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        status = 404 if d % 7 == 0 else (301 if d % 11 == 0 else 200)
        ctype = "application/pdf" if d % 5 == 0 else "text/html; CHARSET=utf-8"
        slices.append(
            build_warc(
                [
                    {
                        "url": f"https://docs.example.com/{d}",
                        "ts": f"2026-01-{d % 28 + 1:02d}T00:00:00Z",
                        "http_status": status,
                        "content_type": ctype,
                        "body": f"<p>{text}</p>".encode("utf-8"),
                    }
                ],
                gzip_members=bool(d % 2),
            )
        )
    out = b[["doc_id"]].copy()
    out["warc"] = slices
    return out


def warc_fetch_stats(sf_dir: str) -> ray.data.Dataset:
    """Crawl-health dashboard: WARC record parse → ``(http_status,
    mime, n_responses)`` — the fetch-outcome × media-type matrix a
    crawl operator reads before anything else (is the crawl drowning
    in redirects? what fraction is PDF?). Counts are pre-aggregated
    per batch so the exchange carries a handful of counter rows per
    block; the final groupby sums partials. The oracle derives both
    dimensions from doc_id arithmetic, so status-line parsing, header
    case-insensitivity, and MIME parameter stripping all have to
    agree."""
    from ray.data.aggregate import Sum

    from pdf_extractor_ray.sources.warc import parse_warc

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_fetchstat_slices, batch_format="pandas", batch_size=512)

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        statuses, mimes = [], []
        for raw in b["warc"]:
            for rec in parse_warc(bytes(raw)):
                statuses.append(rec["http_status"])
                mimes.append(rec["mime"])
        part = pd.DataFrame(
            {"http_status": pd.Series(statuses, dtype="int64"), "mime": pd.Series(mimes, dtype="object")}
        ).groupby(["http_status", "mime"], as_index=False).size()
        return part.rename(columns={"size": "n_responses"})

    return (
        ds.map_batches(stats, batch_format="pandas", batch_size=512)
        .groupby(["http_status", "mime"])
        .aggregate(Sum("n_responses", alias_name="n_responses"))
    )


WARC_FETCH_STATS_SQL = """
WITH r AS (
    SELECT CASE WHEN doc_id % 7 = 0 THEN 404
                WHEN doc_id % 11 = 0 THEN 301 ELSE 200 END AS http_status,
           CASE WHEN doc_id % 5 = 0 THEN 'application/pdf' ELSE 'text/html' END AS mime
    FROM documents
)
SELECT CAST(http_status AS BIGINT) AS http_status, mime, COUNT(*) AS n_responses
FROM r GROUP BY http_status, mime
"""


def read_warc_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → WARC slices → :func:`sources.warc.
    read_warc_batches` → ``(url, warc_ts, http_status, n_body_bytes,
    body_prefix)``. The oracle derives every field from table
    arithmetic, so record framing, Content-Length payload cuts,
    case-insensitive headers, and HTTP header stripping all have to
    agree for the hash to match."""
    from pdf_extractor_ray.sources.warc import read_warc_batches

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_warc_slices, batch_format="pandas", batch_size=512)
    return read_warc_batches(ds)


READ_WARC_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       '2026-01-' || lpad(CAST(doc_id % 28 + 1 AS VARCHAR), 2, '0') || 'T00:00:00Z' AS warc_ts,
       CAST(CASE WHEN doc_id % 7 = 0 THEN 404 ELSE 200 END AS BIGINT) AS http_status,
       CAST(length(text) + 7 AS BIGINT) AS n_body_bytes,
       substring('<p>' || text || '</p>', 1, 64) AS body_prefix
FROM documents
"""


def warc_extract_documents(sf_dir: str) -> ray.data.Dataset:
    """END-TO-END north-star composition over the north-star container:
    WARC slices (mixed plain/.gz) → record parse + HTTP split →
    main-content HTML extraction → ``(url, extracted_text)``. The
    planted body is a single ``<p>`` of the document text, so the
    oracle expects extraction to return the text column EXACTLY (the
    byte-identity invariant, checked by value hash per url) for every
    200 response; 404 responses are status-filtered out before
    extraction — the fetch-status gate every crawl pipeline applies.

    Zero shuffle end to end: derive → parse (sources/warc) → extract
    (kernels/html_extract), all per-batch maps — the flagship's
    streaming shape with WARC in front."""
    from pdf_extractor_ray.kernels.html_extract import html_extract
    from pdf_extractor_ray.sources.warc import parse_warc

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_warc_slices, batch_format="pandas", batch_size=512)

    def parse_extract(b: pd.DataFrame) -> pd.DataFrame:
        urls, texts = [], []
        for raw in b["warc"]:
            for rec in parse_warc(bytes(raw)):
                if rec["http_status"] != 200:
                    continue
                text, _spans = html_extract(rec["body"])
                urls.append(rec["url"])
                texts.append(text)
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "extracted_text": pd.Series(texts, dtype="object"),
            }
        )

    return ds.map_batches(parse_extract, batch_format="pandas", batch_size=512)


WARC_EXTRACT_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       text AS extracted_text
FROM documents
WHERE doc_id % 7 <> 0
"""


def feed_discovery_documents(sf_dir: str) -> ray.data.Dataset:
    """Fresh-URL discovery loop: parse the feed bodies, canonicalize
    the entry links, and anti-join against the already-crawled set —
    the incremental-crawl step that turns feeds into frontier work.
    The carrier's crawled set is the even-id pages (deterministic), so
    the oracle expects exactly the odd-id feed links back:
    ``(doc_id, new_url)``.

    Scale shape: parse is zero-shuffle; the crawled set is keyed by
    canonical url through the byte-gated adaptive anti-join
    (broadcast at test scale, hash-partitioned exchange at corpus
    scale — both plans row-identity-tested in the joins suite)."""
    from pdf_extractor_ray.functions.urls import canonical_url
    from pdf_extractor_ray.joins import semi_join
    from pdf_extractor_ray.kernels.html_extract import parse_feed

    feeds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_feed_bodies, batch_format="pandas", batch_size=1024)

    def links(b: pd.DataFrame) -> pd.DataFrame:
        ids, urls = [], []
        for doc_id, raw in zip(b["doc_id"], b["feed"]):
            for e in parse_feed(raw):
                ids.append(int(doc_id))
                urls.append(canonical_url(e["link"]))
        return pd.DataFrame(
            {"doc_id": pd.Series(ids, dtype="int64"), "new_url": pd.Series(urls, dtype="object")}
        )

    candidates = feeds.map_batches(links, batch_format="pandas")

    def crawled(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(np.int64)
        even = ids[ids % 2 == 0]
        return pd.DataFrame(
            {
                "crawled_url": pd.Series(
                    [canonical_url(f"https://docs.example.com/{d}") for d in even],
                    dtype="object",
                )
            }
        )

    crawled_set = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(crawled, batch_format="pandas")
    return semi_join(candidates, crawled_set, on="new_url", right_on="crawled_url", keep=False)


FEED_DISCOVERY_SQL = """
SELECT doc_id, 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS new_url
FROM documents WHERE doc_id % 2 = 1
"""

# ---------------------------------------------------------------------------
# Publication-date harvest through the real HTML walker
# ---------------------------------------------------------------------------


def derive_dated_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page + url per doc with the planted publication
    date rotating through the four channels by ``doc_id % 4`` (meta /
    time / jsonld / url) and a LOWER-priority decoy date planted
    alongside, so the oracle checks channel priority, malformed-value
    fall-through (class 2 plants an unparseable meta, class 3 an
    invalid-calendar time) and calendar validation — not just a happy
    path. Planted date = 2015-01-01 + (doc_id*7) % 3000 days; decoy =
    +500 in the same modulus (never equal)."""
    import datetime as _dt

    base = _dt.date(2015, 1, 1)
    urls, htmls = [], []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        planted = (base + _dt.timedelta(days=(d * 7) % 3000)).isoformat()
        decoy = (base + _dt.timedelta(days=(d * 7 + 500) % 3000)).isoformat()
        cls = d % 4
        date_path = planted if cls == 3 else decoy
        urls.append(
            f"https://news.example.com/{date_path.replace('-', '/')}/story-{d}.html"
        )
        head = ['<meta name="keywords" content="BOILER decoy">']
        body = [f"<p>{html_escape(text)}</p>"]
        if cls == 0:
            head.append(
                f'<meta property="article:published_time" content="{planted}T08:30:00Z">'
            )
            body.append(f'<time datetime="{decoy}">updated</time>')
        elif cls == 1:
            body.append(f'<time datetime="{planted}T12:00:00+02:00">posted</time>')
            body.append(
                '<script type="application/ld+json">'
                f'{{"@type": "Article", "datePublished": "{decoy}"}}</script>'
            )
        elif cls == 2:
            head.append('<meta property="article:published_time" content="not-a-date">')
            body.append(
                '<script type="application/ld+json">'
                f'{{"@type": "Article", "datePublished": "{planted}"}}</script>'
            )
        else:
            body.append('<time datetime="2020-13-45">invalid</time>')
        htmls.append(
            (
                f"<html><head>{''.join(head)}</head>"
                f"<body>{''.join(body)}</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["url"] = urls
    out["html"] = htmls
    return out


def extract_dates_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → dated pages (four planted channels +
    decoys) → :func:`kernels.html_extract.html_extract_date` →
    ``(doc_id, published, date_source)`` — the publication-date sniff
    a news/article corpus keys on for temporal splits and freshness
    weighting (htmldate-style channel priority; reference analog: the
    PDF /Info CreationDate, pdf_service.py — web pages need the HTML
    channels). Zero shuffle, per-batch vectorized."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_date

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_dated_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, dates, sources = [], [], []
        for doc_id, raw, url in zip(b["doc_id"], b["html"], b["url"]):
            published, source = html_extract_date(raw, url)
            ids.append(int(doc_id))
            dates.append(published)
            sources.append(source)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "published": pd.Series(dates, dtype="object"),
                "date_source": pd.Series(sources, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


EXTRACT_DATES_SQL = """
SELECT doc_id,
       strftime(DATE '2015-01-01' + CAST((doc_id * 7) % 3000 AS INTEGER),
                '%Y-%m-%d') AS published,
       CASE doc_id % 4 WHEN 0 THEN 'meta' WHEN 1 THEN 'time'
            WHEN 2 THEN 'jsonld' ELSE 'url' END AS date_source
FROM documents
"""

# ---------------------------------------------------------------------------
# HTML → Markdown rendering through the real serializer
# ---------------------------------------------------------------------------


def derive_markdown_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic structured page per doc: an h1 (first token), a
    paragraph carrying the doc text + an inline link, and a two-item
    list with a bold second item — plus head decoys (title, script,
    style) the serializer must drop. Every expected markdown byte is
    derivable from the documents row, so the SQL oracle replays the
    full render."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        toks = text.split()
        t0 = html_escape(toks[0]) if toks else "untitled"
        body = [f"<h1>{t0}</h1>"]
        p = f"{html_escape(text)} " if toks else "see "
        body.append(f'<p>{p}<a href="/doc/{d}">more</a></p>')
        items = [f"<li>{t0}</li>"]
        if len(toks) >= 2:
            items.append(f"<li><strong>{html_escape(toks[1])}</strong></li>")
        body.append(f"<ul>{''.join(items)}</ul>")
        htmls.append(
            (
                "<html><head><title>BOILER title</title>"
                "<script>var BOILER=1;</script><style>.BOILER{}</style>"
                f"</head><body>{''.join(body)}</body></html>"
            ).encode("utf-8")
        )
    out = b.copy()
    out["html"] = htmls
    return out


def render_markdown_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → structured pages →
    :func:`kernels.html_extract.html_to_markdown` → ``(doc_id,
    markdown)`` — the structure-preserving render path (headings,
    lists, inline links/emphasis as Markdown) used when downstream
    training consumers want document structure, not flat text.
    Zero shuffle, per-batch vectorized."""
    from pdf_extractor_ray.kernels.html_extract import html_to_markdown

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_markdown_pages, batch_format="pandas", batch_size=1024)

    def render(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "markdown": pd.Series(
                    [html_to_markdown(raw) for raw in b["html"]], dtype="object"
                ),
            }
        )

    return ds.map_batches(render, batch_format="pandas", batch_size=1024)


def _render_markdown_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr,
           {tw} AS tw
    FROM documents
)
SELECT doc_id,
       '# ' || (CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'untitled' END)
       || chr(10) || chr(10)
       || (CASE WHEN tw = '' THEN 'see' ELSE tw END)
       || ' [more](/doc/' || CAST(doc_id AS VARCHAR) || ')'
       || chr(10) || chr(10)
       || '- ' || (CASE WHEN len(arr) >= 1 THEN arr[1] ELSE 'untitled' END)
       || (CASE WHEN len(arr) >= 2
                THEN chr(10) || chr(10) || '- **' || arr[2] || '**'
                ELSE '' END) AS markdown
FROM t
"""


RENDER_MARKDOWN_SQL = _render_markdown_sql()

# ---------------------------------------------------------------------------
# hreflang alternate-cluster harvest through the real HTML walker
# ---------------------------------------------------------------------------


def extract_hreflang_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → pages planted with translation-cluster
    ``<link rel=alternate hreflang>`` sets (clusters of 3 consecutive
    doc_ids, each member listing the full cluster — the reciprocal
    form search engines require) →
    :func:`kernels.html_extract.html_extract_alternates` → ``(doc_id,
    ord, hreflang, href)`` — the page-variant linking channel a
    multilingual corpus builder uses to align translations before
    per-language routing. Decoys (stylesheet link, RSS alternate
    WITHOUT hreflang) prove rel/attr filtering; the trailing
    x-default entry is kept by contract. Zero shuffle."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_alternates

    from ray.data.aggregate import Max

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    mx = int(base.select_columns(["doc_id"]).aggregate(Max("doc_id"))["max(doc_id)"])

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        htmls = []
        for doc_id, text in zip(b["doc_id"], b["text"]):
            d = int(doc_id)
            g = (d // 3) * 3
            links = ['<link rel="stylesheet" href="/BOILER.css">']
            for m in range(g, min(g + 2, mx) + 1):
                links.append(
                    f'<link rel="alternate" hreflang="l{m % 5}" '
                    f'href="https://docs.example.com/{m}">'
                )
            links.append('<link rel="alternate" type="application/rss+xml" href="/feed.xml">')
            links.append(
                f'<link rel="alternate" hreflang="x-default" href="https://docs.example.com/{g}">'
            )
            htmls.append(
                (
                    f"<html><head>{''.join(links)}</head>"
                    f"<body><p>{html_escape(text)}</p></body></html>"
                ).encode("utf-8")
            )
        out = b.copy()
        out["html"] = htmls
        return out

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, ords, langs, hrefs = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            for i, (hl, href) in enumerate(html_extract_alternates(raw)):
                ids.append(int(doc_id))
                ords.append(i)
                langs.append(hl)
                hrefs.append(href)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "ord": pd.Series(ords, dtype="int64"),
                "hreflang": pd.Series(langs, dtype="object"),
                "href": pd.Series(hrefs, dtype="object"),
            }
        )

    return base.map_batches(derive, batch_format="pandas", batch_size=1024).map_batches(
        extract, batch_format="pandas", batch_size=1024
    )


EXTRACT_HREFLANG_SQL = """
WITH b AS (SELECT max(doc_id) AS mx FROM documents),
members AS (
    SELECT d.doc_id, u.i AS ord,
           3 * (d.doc_id // 3) + u.i AS m
    FROM documents d CROSS JOIN unnest([CAST(0 AS BIGINT), 1, 2]) AS u(i), b
    WHERE 3 * (d.doc_id // 3) + u.i <= b.mx
)
SELECT doc_id, ord, 'l' || CAST(m % 5 AS VARCHAR) AS hreflang,
       'https://docs.example.com/' || CAST(m AS VARCHAR) AS href
FROM members
UNION ALL
SELECT d.doc_id,
       LEAST(b.mx - 3 * (d.doc_id // 3) + 1, 3) AS ord,
       'x-default' AS hreflang,
       'https://docs.example.com/' || CAST(3 * (d.doc_id // 3) AS VARCHAR) AS href
FROM documents d, b
"""


def hreflang_reciprocity(sf_dir: str) -> ray.data.Dataset:
    """Cross-page hreflang reciprocity audit: search engines only honor
    alternate clusters whose members all list the SAME variant set, and
    real sites break this constantly — so a multilingual corpus builder
    audits reciprocity before trusting the clusters. Carrier pages
    reuse the :func:`extract_hreflang_documents` cluster layout, except
    docs with ``doc_id % 7 == 5`` OMIT the first member's link (unless
    it is themselves) — the planted breakage. Per doc (zero shuffle):
    parse alternates with the real kernel, key the cluster by the
    x-default href, serialize the member hrefs in document order; ONE
    bucketed exchange keyed on the cluster then compares member-set
    strings: ``(cluster_key, n_docs, reciprocal)``. Per-batch rows are
    one per doc, the exchange carries short strings — cluster size
    bounds the group, not corpus size."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_alternates
    from pdf_extractor_ray.ops import grouped_apply

    from ray.data.aggregate import Max

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    mx = int(base.select_columns(["doc_id"]).aggregate(Max("doc_id"))["max(doc_id)"])

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        htmls = []
        for doc_id, text in zip(b["doc_id"], b["text"]):
            d = int(doc_id)
            g = (d // 3) * 3
            links = []
            for m in range(g, min(g + 2, mx) + 1):
                if d % 7 == 5 and m == g and d != g:
                    continue  # planted reciprocity breakage
                links.append(
                    f'<link rel="alternate" hreflang="l{m % 5}" '
                    f'href="https://docs.example.com/{m}">'
                )
            links.append(
                f'<link rel="alternate" hreflang="x-default" href="https://docs.example.com/{g}">'
            )
            htmls.append(
                (
                    f"<html><head>{''.join(links)}</head>"
                    f"<body><p>{html_escape(text)}</p></body></html>"
                ).encode("utf-8")
            )
        out = b.copy()
        out["html"] = htmls
        return out

    def member_sets(b: pd.DataFrame) -> pd.DataFrame:
        keys, sets_ = [], []
        for raw in b["html"]:
            alts = html_extract_alternates(raw)
            cluster = next(h for hl, h in alts if hl == "x-default")
            keys.append(cluster)
            sets_.append(",".join(h for hl, h in alts if hl != "x-default"))
        return pd.DataFrame({"cluster_key": keys, "__mset": sets_})

    per_doc = base.map_batches(derive, batch_format="pandas", batch_size=1024).map_batches(
        member_sets, batch_format="pandas", batch_size=1024
    )

    def audit(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("cluster_key", sort=False)["__mset"].agg(["size", "nunique"])
        return pd.DataFrame(
            {
                "cluster_key": agg.index,
                "n_docs": agg["size"].to_numpy(np.int64),
                "reciprocal": (agg["nunique"] == 1).to_numpy(),
            }
        )

    return grouped_apply(per_doc, ["cluster_key"], audit)


HREFLANG_RECIPROCITY_SQL = """
WITH b AS (SELECT max(doc_id) AS mx FROM documents),
msets AS (
    SELECT d.doc_id,
           'https://docs.example.com/' || CAST(3 * (d.doc_id // 3) AS VARCHAR)
               AS cluster_key,
           (SELECT string_agg('https://docs.example.com/' || CAST(m AS VARCHAR),
                              ',' ORDER BY m)
            FROM unnest([CAST(0 AS BIGINT), 1, 2]) AS u(i),
                 LATERAL (SELECT 3 * (d.doc_id // 3) + u.i AS m) t
            WHERE m <= b.mx
              AND NOT (d.doc_id % 7 = 5 AND m = 3 * (d.doc_id // 3)
                       AND d.doc_id <> m)) AS mset
    FROM documents d, b
)
SELECT cluster_key, CAST(COUNT(*) AS BIGINT) AS n_docs,
       COUNT(DISTINCT mset) = 1 AS reciprocal
FROM msets GROUP BY cluster_key
"""


def read_wet_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → WET blobs (16 conversion records per blob,
    alternate blobs gzip-membered — both wire forms of the Common
    Crawl extracted-text distribution) → ``sources.warc.parse_wet`` →
    ``(url, wet_ts, text, n_chars)``. Completes the source-format
    family with the distribution most text pipelines actually consume;
    parsing is a zero-shuffle batch map (WET files are independent
    units, same 100-TB layout argument as the WARC reader)."""
    from pdf_extractor_ray.sources.warc import build_wet, parse_wet

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def to_blobs(b: pd.DataFrame) -> pd.DataFrame:
        import datetime as _dt

        epoch = _dt.date(2024, 1, 1)
        recs = [
            {
                "url": f"https://docs.example.com/{int(d)}",
                "ts": (epoch + _dt.timedelta(days=int(d) % 365)).isoformat()
                + "T12:00:00Z",
                "text": t,
            }
            for d, t in zip(b["doc_id"], b["text"])
        ]
        blobs = [
            build_wet(recs[i : i + 16], gzip_members=bool((i // 16) % 2))
            for i in range(0, len(recs), 16)
        ]
        return pd.DataFrame({"wet": pd.Series(blobs, dtype="object")})

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        urls, tss, texts = [], [], []
        for raw in b["wet"]:
            for r in parse_wet(raw):
                urls.append(r["url"])
                tss.append(r["ts"])
                texts.append(r["text"])
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "wet_ts": pd.Series(tss, dtype="object"),
                "text": pd.Series(texts, dtype="object"),
                "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
            }
        )

    return base.map_batches(to_blobs, batch_format="pandas", batch_size=1024).map_batches(
        explode, batch_format="pandas", batch_size=64
    )


READ_WET_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       strftime(DATE '2024-01-01' + CAST(doc_id % 365 AS INTEGER), '%Y-%m-%d')
           || 'T12:00:00Z' AS wet_ts,
       text,
       CAST(len(text) AS BIGINT) AS n_chars
FROM documents
"""


def read_wat_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → WAT blobs (16 metadata records per blob,
    alternate blobs gzip-membered) → ``sources.warc.parse_wat`` →
    ``(url, wat_ts, title, n_links)`` — the Common Crawl metadata
    distribution, completing the WARC/WET/WAT trio. Title = first
    token (or None for empty docs), links = one per 40 tokens (so
    n_links varies); all derivable from the documents row for the SQL
    replay. Zero-shuffle batch map."""
    from pdf_extractor_ray.sources.warc import build_wat, parse_wat

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def to_blobs(b: pd.DataFrame) -> pd.DataFrame:
        import datetime as _dt

        epoch = _dt.date(2024, 1, 1)
        recs = []
        for d, t in zip(b["doc_id"], b["text"]):
            d = int(d)
            toks = t.split()
            recs.append(
                {
                    "url": f"https://docs.example.com/{d}",
                    "ts": (epoch + _dt.timedelta(days=d % 365)).isoformat()
                    + "T12:00:00Z",
                    "title": toks[0] if toks else None,
                    "links": [f"/out/{d}/{j}" for j in range(len(toks) // 40)],
                }
            )
        blobs = [
            build_wat(recs[i : i + 16], gzip_members=bool((i // 16) % 2))
            for i in range(0, len(recs), 16)
        ]
        return pd.DataFrame({"wat": pd.Series(blobs, dtype="object")})

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        urls, tss, titles, nl = [], [], [], []
        for raw in b["wat"]:
            for r in parse_wat(raw):
                urls.append(r["url"])
                tss.append(r["ts"])
                titles.append(r["title"])
                nl.append(r["n_links"])
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "wat_ts": pd.Series(tss, dtype="object"),
                "title": pd.Series(titles, dtype="object"),
                "n_links": pd.Series(nl, dtype="int64"),
            }
        )

    return base.map_batches(to_blobs, batch_format="pandas", batch_size=1024).map_batches(
        explode, batch_format="pandas", batch_size=64
    )


READ_WAT_SQL = f"""
WITH t AS (
    SELECT doc_id,
           CASE WHEN {trim_ws_sql("text")} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({trim_ws_sql("text")}, '{WS_SPLIT_RE_SQL}')
           END AS arr
    FROM documents
)
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       strftime(DATE '2024-01-01' + CAST(doc_id % 365 AS INTEGER), '%Y-%m-%d')
           || 'T12:00:00Z' AS wat_ts,
       CASE WHEN len(arr) >= 1 THEN arr[1] ELSE NULL END AS title,
       CAST(len(arr) // 40 AS BIGINT) AS n_links
FROM t
"""


# ---------------------------------------------------------------------------
# Soft-404 detection (status-200 pages whose MAIN CONTENT says "not found")
# ---------------------------------------------------------------------------

# Not-found phrase set, matched against the lowercased EXTRACTED main
# content (so boilerplate-stripped nav/footer mentions don't trigger).
# The standard crawl-curation heuristic (soft 404s poison both dedup —
# thousands of near-identical error pages — and training data).
_SOFT404_RE = re.compile(
    r"page not found|could not be found|no longer available|does not exist"
)


def derive_soft404_slices(b: pd.DataFrame) -> pd.DataFrame:
    """WARC slice per doc with planted fetch outcomes: every 7th id is
    a HARD 404 (status 404 — dropped by the status gate, NOT soft);
    every 6th (and not 7th) id is a SOFT 404 — status 200 with a
    not-found body in ``<article>``; all others are normal pages that
    ALSO carry a not-found phrase inside ``<nav>`` (link-only, so the
    extractor's boilerplate strip must remove it — a decoy proving the
    classifier reads extracted text, not raw HTML)."""
    from pdf_extractor_ray.sources.warc import build_warc

    slices = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        status = 404 if d % 7 == 0 else 200
        if d % 6 == 0 and d % 7 != 0:
            body = (
                "<html><head><title>Oops</title></head><body><article>"
                "<h1>Page not found</h1><p>The page you requested could not be "
                "found. It may have moved or is no longer available.</p>"
                "</article></body></html>"
            )
        else:
            body = (
                "<html><body>"
                "<nav class='menu'><a href='/404'>error page not found archive</a></nav>"
                f"<article><p>{html_escape(text)}</p></article></body></html>"
            )
        slices.append(
            build_warc(
                [
                    {
                        "url": f"https://docs.example.com/{d}",
                        "ts": f"2026-02-{d % 28 + 1:02d}T00:00:00Z",
                        "http_status": status,
                        "body": body.encode("utf-8"),
                    }
                ],
                gzip_members=bool(d % 3 == 0),
            )
        )
    out = b[["doc_id"]].copy()
    out["warc"] = slices
    return out


def soft404_documents(sf_dir: str) -> ray.data.Dataset:
    """Soft-404 audit: WARC parse → status-200 gate → REAL main-content
    extraction (:func:`kernels.html_extract.html_extract`) → phrase
    classify → ``(url, soft404)`` for every fetched-OK page. The nav
    decoy on every normal page means a classifier reading raw HTML (or
    an extractor that fails to strip link-only blocks) flags ~everything
    — the oracle catches both. Zero shuffle; the regex is compiled once
    at module level and the per-batch loop is over documents (each doing
    real parse work), not a vectorizable kernel."""
    from pdf_extractor_ray.kernels.html_extract import html_extract
    from pdf_extractor_ray.sources.warc import parse_warc

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_soft404_slices, batch_format="pandas", batch_size=512)

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        urls, flags = [], []
        for raw in b["warc"]:
            for rec in parse_warc(bytes(raw)):
                if rec["http_status"] != 200:
                    continue  # hard failures are not soft 404s
                text, _spans = html_extract(rec["body"])
                urls.append(rec["url"])
                flags.append(int(bool(_SOFT404_RE.search(text.lower()))))
        return pd.DataFrame(
            {"url": pd.Series(urls, dtype="object"), "soft404": pd.Series(flags, dtype="int64")}
        )

    return ds.map_batches(classify, batch_format="pandas", batch_size=512)


SOFT404_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       CAST(CASE WHEN doc_id % 6 = 0 THEN 1 ELSE 0 END AS BIGINT) AS soft404
FROM documents WHERE doc_id % 7 != 0
"""


# ---------------------------------------------------------------------------
# Pagination-series reassembly (rel=prev chain resolution)
# ---------------------------------------------------------------------------


def derive_paginated_pages(b: pd.DataFrame) -> pd.DataFrame:
    """HTML page per doc: docs form 5-page series (ids sharing
    ``doc_id // 5``); every non-first page declares ``<link
    rel="prev">`` to the previous id (plus a ``rel=next`` hint where
    one exists). Decoys on EVERY page: a body ``<a rel="prev">``
    pointing the WRONG way and a ``rel="search"`` head link — only
    head ``<link>`` elements may count."""
    pages = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        head = ['<link rel="search" href="/opensearch.xml">']
        if d % 5 != 0:
            head.append(f'<link rel="PREV" href="https://docs.example.com/{d - 1}">')
        if d % 5 != 4:
            head.append(f'<link rel=next href="https://docs.example.com/{d + 1}">')
        html = (
            f"<html><head>{''.join(head)}</head><body>"
            f'<a rel="prev" href="https://docs.example.com/{d + 3}">wrong decoy</a>'
            f"<article><p>{html_escape(text)}</p></article></body></html>"
        )
        pages.append(html.encode("utf-8"))
    out = b[["doc_id"]].copy()
    out["page"] = pages
    return out


def pagination_series_documents(sf_dir: str) -> ray.data.Dataset:
    """Reassemble paginated series: REAL ``rel=prev`` harvest
    (:func:`kernels.html_extract.html_extract_relnav`) per page →
    pointer table → :func:`graph.resolve_pointers` path doubling →
    ``(doc_id, series_head, page_index)`` — the join key a multi-page
    article needs before its parts concatenate into one training
    document (page_index orders them, series_head groups them). The
    oracle's closed form (head = id - id%5) only matches if the parser
    took the head ``<link>`` and ignored both decoys on every page.

    Scale shape: parse is a zero-shuffle batch map; resolution is
    ⌈log2 chain⌉ hash exchanges on 8-byte keys (chains here ≤ 4 →
    2 rounds; real-web series are similarly shallow)."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_relnav
    from pdf_extractor_ray.pipelines.graph import resolve_pointers

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_paginated_pages, batch_format="pandas", batch_size=1024)

    def to_ptr(b: pd.DataFrame) -> pd.DataFrame:
        nodes, nxts, hops = [], [], []
        for doc_id, page in zip(b["doc_id"], b["page"]):
            d = int(doc_id)
            prev = html_extract_relnav(bytes(page))["prev"]
            # resolve the href back to a doc id by its URL tail — the
            # same url→id convention every derived carrier uses
            tgt = int(prev.rstrip("/").rsplit("/", 1)[1]) if prev else d
            nodes.append(d)
            nxts.append(tgt)
            hops.append(int(tgt != d))
        return pd.DataFrame(
            {
                "node": pd.Series(nodes, dtype="int64"),
                "nxt": pd.Series(nxts, dtype="int64"),
                "hops": pd.Series(hops, dtype="int64"),
            }
        )

    out = resolve_pointers(ds.map_batches(to_ptr, batch_format="pandas"))

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["node"].astype("int64"),
                "series_head": b["nxt"].astype("int64"),
                "page_index": b["hops"].astype("int64"),
            }
        )

    return out.map_batches(project, batch_format="pandas")


PAGINATION_SERIES_SQL = """
SELECT doc_id,
       CAST(doc_id - doc_id % 5 AS BIGINT) AS series_head,
       CAST(doc_id % 5 AS BIGINT) AS page_index
FROM documents
"""


# ---------------------------------------------------------------------------
# Robots-meta directive audit (noindex / nofollow)
# ---------------------------------------------------------------------------


def derive_robots_pages(b: pd.DataFrame) -> pd.DataFrame:
    """HTML page per doc with a planted robots meta: ``none`` for
    %11 ids, else noindex (%4) and/or nofollow (%5) joined with a
    comma, an ``all`` decoy for %9 ids, no robots meta otherwise.
    Pages that HAVE a robots meta and an even id also carry a SECOND
    conflicting robots meta that first-wins must ignore."""
    pages = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        if d % 11 == 0:
            content = "none"
        else:
            toks = []
            if d % 4 == 0:
                toks.append("NOINDEX")  # case-insensitivity is live
            if d % 5 == 0:
                toks.append("nofollow")
            content = " , ".join(toks) if toks else ("all" if d % 9 == 0 else None)
        metas = []
        if content is not None:
            metas.append(f'<meta name="ROBOTS" content="{content}">')
            if d % 2 == 0:
                metas.append('<meta name="robots" content="noindex,nofollow">')
        html = (
            f"<html><head>{''.join(metas)}<meta name=\"generator\" content=\"decoy\"></head>"
            f"<body><p>{html_escape(text)}</p></body></html>"
        )
        pages.append(html.encode("utf-8"))
    out = b[["doc_id"]].copy()
    out["page"] = pages
    return out


def robots_meta_documents(sf_dir: str) -> ray.data.Dataset:
    """Indexing-directive audit: REAL robots-meta harvest per page →
    ``(doc_id, noindex, nofollow)`` int flags for every doc — the gate
    a polite corpus builder applies before a page may enter the
    training set (drop noindex docs; drop nofollow docs' outlinks from
    the link graph). Zero shuffle. The second-meta decoy on even ids
    means a last-wins (or any-wins) parser fails the oracle."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_robots_meta

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_robots_pages, batch_format="pandas", batch_size=1024)

    def audit(b: pd.DataFrame) -> pd.DataFrame:
        ids, noidx, nofol = [], [], []
        for doc_id, page in zip(b["doc_id"], b["page"]):
            r = html_extract_robots_meta(bytes(page))
            ids.append(int(doc_id))
            noidx.append(int(r["noindex"]))
            nofol.append(int(r["nofollow"]))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "noindex": pd.Series(noidx, dtype="int64"),
                "nofollow": pd.Series(nofol, dtype="int64"),
            }
        )

    return ds.map_batches(audit, batch_format="pandas", batch_size=1024)


ROBOTS_META_SQL = """
SELECT doc_id,
       CAST(CASE WHEN doc_id % 11 = 0 OR doc_id % 4 = 0 THEN 1 ELSE 0 END AS BIGINT) AS noindex,
       CAST(CASE WHEN doc_id % 11 = 0 OR doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) AS nofollow
FROM documents
"""


# ---------------------------------------------------------------------------
# Recrawl-priority tiers from snapshot change rates
# ---------------------------------------------------------------------------


def derive_change_snapshots(b: pd.DataFrame) -> pd.DataFrame:
    """Snapshot rows per url: ``1 + doc_id % 3`` fetches; EVEN ids
    change on every fetch (content length c+i), ODD ids never change —
    so distinct-content counting (not fetch counting) is what the
    oracle checks."""
    urls, ts, chars = [], [], []
    for doc_id, n_chars in zip(b["doc_id"], b["n_chars"]):
        d, c = int(doc_id), int(n_chars)
        for i in range(1 + d % 3):
            urls.append(f"https://docs.example.com/{d}")
            ts.append(1_600_000_000 + d * 7 + i * 86_400)
            chars.append(c + (i if d % 2 == 0 else 0))
    return pd.DataFrame(
        {
            "url": pd.Series(urls, dtype="object"),
            "snap_ts": pd.Series(ts, dtype="int64"),
            "snap_chars": pd.Series(chars, dtype="int64"),
        }
    )


def recrawl_priority_documents(sf_dir: str) -> ray.data.Dataset:
    """Crawl-freshness scheduling: per url, how often did content
    actually CHANGE across snapshots → ``(url, n_snaps, n_changes,
    tier)`` with tier hot (≥2 changes) / warm (1) / cold (0) — the
    priority signal an incremental crawler feeds its fetch queue
    (change-rate-proportional recrawl, the classic freshness policy).

    Scale shape: ONE bucketed exchange keyed by url; per-group work is
    a length + nunique over that url's snapshots (bounded by snapshot
    count per url, never corpus-sized)."""
    from pdf_extractor_ray.ops import grouped_apply

    snaps = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    ).map_batches(derive_change_snapshots, batch_format="pandas", batch_size=2048)

    def per_url(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("url", sort=False)["snap_chars"].agg(["size", "nunique"])
        n_changes = (agg["nunique"] - 1).to_numpy(np.int64)
        tier = np.where(n_changes >= 2, "hot", np.where(n_changes == 1, "warm", "cold"))
        return pd.DataFrame(
            {
                "url": agg.index.to_numpy(object),
                "n_snaps": agg["size"].to_numpy(np.int64),
                "n_changes": n_changes,
                "tier": pd.Series(tier, dtype="object"),
            }
        )

    return grouped_apply(snaps, ["url"], per_url)


RECRAWL_PRIORITY_SQL = """
WITH s AS (
  SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
         n_chars + CASE WHEN doc_id % 2 = 0 THEN gs - 1 ELSE 0 END AS snap_chars
  FROM documents JOIN generate_series(1, 3) AS t(gs) ON gs <= 1 + doc_id % 3
),
a AS (
  SELECT url, COUNT(*) AS n_snaps, COUNT(DISTINCT snap_chars) - 1 AS n_changes
  FROM s GROUP BY url
)
SELECT url, CAST(n_snaps AS BIGINT) AS n_snaps, CAST(n_changes AS BIGINT) AS n_changes,
       CASE WHEN n_changes >= 2 THEN 'hot' WHEN n_changes = 1 THEN 'warm' ELSE 'cold' END AS tier
FROM a
"""


# ---------------------------------------------------------------------------
# Paginated-series concatenation (the training-doc reassembly step)
# ---------------------------------------------------------------------------


def series_concat_documents(sf_dir: str) -> ray.data.Dataset:
    """Reassemble each paginated series into ONE logical document:
    compose :func:`pagination_series_documents` (real rel=prev harvest
    + path-doubling resolution) with the texts — ``(series_head,
    n_pages, series_text)`` where ``series_text`` joins member pages
    with a newline in ``page_index`` order. This is the step that
    turns a 5-part article back into a single training document — the
    reason the series was resolved in the first place.

    Scale shape: one adaptive join on doc_id attaches texts to the
    resolved membership, then ONE bucketed exchange keyed by
    series_head; per-group work is a sort over that series' pages
    (bounded by series length, never corpus-sized)."""
    from pdf_extractor_ray.joins import adaptive_inner_join
    from pdf_extractor_ray.ops import grouped_apply

    series = pagination_series_documents(sf_dir)
    texts = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    joined = adaptive_inner_join(series, texts, on="doc_id")

    def concat(g: pd.DataFrame) -> pd.DataFrame:
        heads, counts, bodies = [], [], []
        for head, sub in g.groupby("series_head", sort=False):
            sub = sub.sort_values("page_index")
            heads.append(int(head))
            counts.append(len(sub))
            bodies.append("\n".join(sub["text"]))
        return pd.DataFrame(
            {
                "series_head": pd.Series(heads, dtype="int64"),
                "n_pages": pd.Series(counts, dtype="int64"),
                "series_text": pd.Series(bodies, dtype="object"),
            }
        )

    return grouped_apply(joined, ["series_head"], concat)


SERIES_CONCAT_SQL = """
SELECT CAST(doc_id - doc_id % 5 AS BIGINT) AS series_head,
       COUNT(*) AS n_pages,
       string_agg(text, chr(10) ORDER BY doc_id) AS series_text
FROM documents GROUP BY doc_id - doc_id % 5
"""


# ---------------------------------------------------------------------------
# Meta-refresh redirect harvest (the non-HTTP redirect channel)
# ---------------------------------------------------------------------------


def derive_refresh_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Page per doc: every 5th-mod-2 id (``d % 5 == 2``) carries a
    zero-second meta refresh to a deterministic target; ``d % 5 == 4``
    carries a bare self-reload (``content="30"`` — no URL, must NOT
    emit a redirect row); ``d % 7 == 1`` carries a MALFORMED refresh
    (``content="soon"``) that must parse to nothing. Every page also
    carries an ``http-equiv=content-type`` decoy meta."""
    pages = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        metas = ['<meta http-equiv="Content-Type" content="text/html; charset=utf-8">']
        if d % 5 == 2:
            metas.append(
                f'<meta HTTP-EQUIV="refresh" CONTENT="0; URL=https://docs.example.com/{(d * 3) % 500}">'
            )
        elif d % 5 == 4:
            metas.append('<meta http-equiv="refresh" content="30">')
        elif d % 7 == 1:
            metas.append('<meta http-equiv="refresh" content="soon; url=/broken">')
        html = (
            f"<html><head>{''.join(metas)}</head>"
            f"<body><p>{html_escape(text)}</p></body></html>"
        )
        pages.append(html.encode("utf-8"))
    out = b[["doc_id"]].copy()
    out["page"] = pages
    return out


def meta_refresh_documents(sf_dir: str) -> ray.data.Dataset:
    """Meta-refresh redirect harvest: REAL parse per page →
    ``(doc_id, refresh_secs, refresh_url)`` for pages carrying a
    usable URL-bearing refresh — the rows a crawler feeds into the
    same redirect-resolution pass as HTTP 3xx (and a zero-second
    refresh is the classic doorway-page cloaking signal a spam
    classifier keys on). Zero shuffle; bare self-reloads and
    malformed content values are proven dropped by the oracle."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_meta_refresh

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_refresh_pages, batch_format="pandas", batch_size=1024)

    def harvest(b: pd.DataFrame) -> pd.DataFrame:
        ids, secs, urls = [], [], []
        for doc_id, page in zip(b["doc_id"], b["page"]):
            s, u = html_extract_meta_refresh(bytes(page))
            if s is None or u is None:
                continue
            ids.append(int(doc_id))
            secs.append(s)
            urls.append(u)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "refresh_secs": pd.Series(secs, dtype="int64"),
                "refresh_url": pd.Series(urls, dtype="object"),
            }
        )

    return ds.map_batches(harvest, batch_format="pandas", batch_size=1024)


META_REFRESH_SQL = """
SELECT doc_id, CAST(0 AS BIGINT) AS refresh_secs,
       'https://docs.example.com/' || CAST((doc_id * 3) % 500 AS VARCHAR) AS refresh_url
FROM documents WHERE doc_id % 5 = 2
"""


# ---------------------------------------------------------------------------
# Outlink host diversity (link-farm / index-page signal)
# ---------------------------------------------------------------------------


def outlink_diversity_documents(sf_dir: str) -> ray.data.Dataset:
    """Per-doc outlink diversity over the host-link pages: ``(doc_id,
    n_links, n_hosts, n_external)`` from the REAL link harvest +
    :func:`functions.urls.site_domain` — a doc whose links all point
    at one foreign host is a feeder page; a doc with many distinct
    external hosts is an index/directory; link-spam scoring keys on
    exactly this triple. Zero shuffle (per-doc aggregation happens
    inside the batch); the demoted sidebar link must not count."""
    from pdf_extractor_ray.functions.urls import site_domain
    from pdf_extractor_ray.kernels.html_extract import html_extract_links

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_hostlink_pages, batch_format="pandas", batch_size=1024)

    def diversity(b: pd.DataFrame) -> pd.DataFrame:
        ids, n_links, n_hosts, n_ext = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            d = int(doc_id)
            own = f"h{d % 13}.example.com"
            hosts = [site_domain(href) for href, _ in html_extract_links(raw)]
            ids.append(d)
            n_links.append(len(hosts))
            n_hosts.append(len(set(hosts)))
            n_ext.append(sum(1 for h in hosts if h != own))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_links": pd.Series(n_links, dtype="int64"),
                "n_hosts": pd.Series(n_hosts, dtype="int64"),
                "n_external": pd.Series(n_ext, dtype="int64"),
            }
        )

    return ds.map_batches(diversity, batch_format="pandas", batch_size=1024)


OUTLINK_DIVERSITY_SQL = """
SELECT doc_id,
       CAST(1 + doc_id % 2 AS BIGINT) AS n_links,
       CAST(CASE WHEN doc_id % 2 = 0 THEN 1
                 WHEN doc_id % 13 = 10 THEN 1 ELSE 2 END AS BIGINT) AS n_hosts,
       CAST((CASE WHEN doc_id % 13 = 0 THEN 0 ELSE 1 END)
          + (CASE WHEN doc_id % 2 = 1 AND doc_id % 13 != 6 THEN 1 ELSE 0 END)
          AS BIGINT) AS n_external
FROM documents
"""


# ---------------------------------------------------------------------------
# Canonical-declaration dedup (the rel=canonical dedup channel)
# ---------------------------------------------------------------------------


def derive_canonical_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Page per doc where groups of four ids (sharing ``d - d % 4``)
    DECLARE the group head as canonical — the print/AMP/tracking-param
    variant situation rel=canonical exists for; ``d % 9 == 0`` pages
    omit the canonical link entirely (self-representative). A styles
    ``<link>`` decoy precedes the canonical on every page."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        links = ['<link rel="stylesheet" href="/BOILER.css">']
        if d % 9 != 0:
            links.append(
                f'<link rel="canonical" href="https://docs.example.com/{d - d % 4}">'
            )
        htmls.append(
            (
                f"<html><head>{''.join(links)}<title>p{d}</title></head>"
                f"<body><p>{html_escape(text)}</p></body></html>"
            ).encode("utf-8")
        )
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    return out


def canonical_dedup_documents(sf_dir: str) -> ray.data.Dataset:
    """rel=canonical dedup: REAL head harvest
    (:func:`kernels.html_extract.html_extract_meta`) → canonical key
    (declared canonical, else the page's own URL) → first-writer-wins
    — the dedup channel that collapses print/AMP/utm variants BEFORE
    any content hashing runs (it needs only the head, not the body,
    so it is the cheapest dedup pass a crawl pipeline has). Output:
    surviving ``(doc_id, canonical_key)``.

    Scale shape: harvest is a zero-shuffle batch map; the dedup is one
    ``keep_first`` exchange keyed by the canonical string (per-batch
    partial idxmin bounds a viral canonical to one row per batch)."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_meta
    from pdf_extractor_ray.ops import keep_first

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_canonical_pages, batch_format="pandas", batch_size=1024)

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        ids, keys = [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            d = int(doc_id)
            canon = html_extract_meta(bytes(raw))["canonical"]
            ids.append(d)
            keys.append(canon if canon else f"https://docs.example.com/{d}")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "canonical_key": pd.Series(keys, dtype="object"),
            }
        )

    return keep_first(
        ds.map_batches(keyed, batch_format="pandas", batch_size=1024),
        ["canonical_key"],
        "doc_id",
    )


CANONICAL_DEDUP_SQL = """
WITH k AS (
  SELECT doc_id,
         CASE WHEN doc_id % 9 = 0
              THEN 'https://docs.example.com/' || CAST(doc_id AS VARCHAR)
              ELSE 'https://docs.example.com/' || CAST(doc_id - doc_id % 4 AS VARCHAR)
         END AS canonical_key
  FROM documents
)
SELECT doc_id, canonical_key FROM k
QUALIFY row_number() OVER (PARTITION BY canonical_key ORDER BY doc_id) = 1
"""


# ---------------------------------------------------------------------------
# Declared-vs-sniffed MIME audit (mislabeled fetch detection)
# ---------------------------------------------------------------------------

# sniff() kind → the canonical media type a fetch dashboard groups on
_SNIFF_TO_MIME = {
    "pdf": "application/pdf",
    "html": "text/html",
    "text": "text/plain",
    "binary": "application/octet-stream",
    "empty": "",
}


def derive_mislabel_warcs(b: pd.DataFrame) -> pd.DataFrame:
    """WARC slice per doc with planted Content-Type lies: ids with
    ``d % 5 == 1`` serve a real PDF body under ``text/html``; ids
    with ``d % 5 == 3`` serve HTML under ``application/pdf``; ids
    with ``d % 11 == 0`` (and neither above) serve NUL-bearing binary
    under ``text/plain``. Everything else is truthful HTML. Header
    values carry ``; charset=`` parameters and mixed case so the
    header normalization path is exercised too."""
    from pdf_extractor_ray.sources.warc import build_warc

    slices = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        if d % 5 == 1:
            body = make_pdf([[(72.0, 700.0, 12.0, f"doc {d}")]])
            ctype = "Text/HTML; charset=utf-8"
        elif d % 5 == 3:
            body = f"<html><body><p>{html_escape(text)}</p></body></html>".encode()
            ctype = "application/PDF"
        elif d % 11 == 0:
            body = b"\x00\x01\x02BIN" + bytes([d % 251])
            ctype = "text/plain; charset=us-ascii"
        else:
            body = f"<html><body><p>{html_escape(text)}</p></body></html>".encode()
            ctype = "text/html; charset=utf-8"
        slices.append(
            build_warc(
                [
                    {
                        "url": f"https://docs.example.com/{d}",
                        "ts": f"2026-03-{d % 28 + 1:02d}T00:00:00Z",
                        "http_status": 200,
                        "body": body,
                        "content_type": ctype,
                    }
                ],
                gzip_members=bool(d % 4 == 0),
            )
        )
    out = b[["doc_id"]].copy()
    out["warc"] = slices
    return out


def mime_mismatch_documents(sf_dir: str) -> ray.data.Dataset:
    """Declared-vs-sniffed MIME audit: WARC parse → Content-Type
    header (normalized by the reader: params stripped, lowercased) vs
    magic-byte sniff of the BODY (:func:`kernels.sniff.sniff`) →
    ``(url, declared, sniffed, mismatch)``. Mislabeled fetches are a
    top crawl-quality signal — a PDF served as text/html crashes an
    HTML-only extractor, and binary served as text poisons text
    dedup; this is the gate that routes each row to the RIGHT parser
    regardless of what the server claimed (the flagship's sniff
    dispatch, audited). Zero shuffle."""
    from pdf_extractor_ray.kernels.sniff import sniff
    from pdf_extractor_ray.sources.warc import parse_warc

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_mislabel_warcs, batch_format="pandas", batch_size=1024)

    def audit(b: pd.DataFrame) -> pd.DataFrame:
        urls, decl, sn, mm = [], [], [], []
        for raw in b["warc"]:
            for r in parse_warc(raw):
                kind = _SNIFF_TO_MIME[sniff(r["body"])]
                urls.append(r["url"])
                decl.append(r["mime"])
                sn.append(kind)
                mm.append(int(kind != r["mime"]))
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "declared": pd.Series(decl, dtype="object"),
                "sniffed": pd.Series(sn, dtype="object"),
                "mismatch": pd.Series(mm, dtype="int64"),
            }
        )

    return ds.map_batches(audit, batch_format="pandas", batch_size=256)


MIME_MISMATCH_SQL = """
WITH k AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 1 THEN 'text/html'
              WHEN doc_id % 5 = 3 THEN 'application/pdf'
              WHEN doc_id % 11 = 0 THEN 'text/plain'
              ELSE 'text/html' END AS declared,
         CASE WHEN doc_id % 5 = 1 THEN 'application/pdf'
              WHEN doc_id % 5 = 3 THEN 'text/html'
              WHEN doc_id % 11 = 0 THEN 'application/octet-stream'
              ELSE 'text/html' END AS sniffed
  FROM documents
)
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       declared, sniffed,
       CAST(CASE WHEN declared <> sniffed THEN 1 ELSE 0 END AS BIGINT) AS mismatch
FROM k
"""


# ---------------------------------------------------------------------------
# Duplicate-title clusters (the cheapest near-dup / template signal)
# ---------------------------------------------------------------------------


def derive_title_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Page per doc hosted on ``h{d%13}.example.org``: ids with
    ``d % 3 != 2`` carry ``<title>Topic {d%97}</title>`` (plus a
    SECOND decoy title and an ``<h1>`` with a different topic — a
    harvester that takes last-title-wins or falls back to h1 breaks
    the oracle); ids with ``d % 3 == 2`` have a title-less head and
    must not join any cluster."""
    htmls, urls = [], []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        title = (
            f"<title>Topic {d % 97}</title><title>DECOY {d}</title>"
            if d % 3 != 2
            else ""
        )
        htmls.append(
            (
                f"<html><head>{title}</head><body><h1>Heading {d}</h1>"
                f"<p>{html_escape(text)}</p></body></html>"
            ).encode("utf-8")
        )
        urls.append(f"https://h{d % 13}.example.org/{d}")
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    out["url"] = urls
    return out


def title_dup_documents(sf_dir: str) -> ray.data.Dataset:
    """Duplicate-title clustering: REAL head harvest
    (:func:`kernels.html_extract.html_extract_meta`, first-title-wins)
    + host from the url (:func:`functions.urls.site_domain`) →
    ``(title, n_docs, n_hosts)`` for titles shared by ≥ 2 documents.
    Shared titles across MANY hosts are the classic syndication /
    scraper-network signal; within one host they are template pages —
    either way the cheapest duplicate-cluster seed a crawl has (title
    only, no body hashing).

    Scale shape: two bucketed exchanges, both on bounded keys —
    (title, host) partial counts first (a viral title contributes one
    row per batch), then a title-keyed fold whose group size is the
    DISTINCT-host count for that title, never its document count."""
    from pdf_extractor_ray.functions.urls import site_domain
    from pdf_extractor_ray.kernels.html_extract import html_extract_meta
    from pdf_extractor_ray.ops import grouped_agg, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_title_pages, batch_format="pandas", batch_size=1024)

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        titles, hosts = [], []
        for raw, url in zip(b["html"], b["url"]):
            title = html_extract_meta(bytes(raw))["title"]
            if not title:
                continue
            titles.append(title)
            hosts.append(site_domain(url))
        return pd.DataFrame(
            {
                "title": pd.Series(titles, dtype="object"),
                "host": pd.Series(hosts, dtype="object"),
                "n": pd.Series(np.ones(len(titles), np.int64)),
            }
        )

    per_pair = grouped_sum(
        ds.map_batches(keyed, batch_format="pandas", batch_size=1024),
        ["title", "host"],
        ["n"],
    )
    per_title = grouped_agg(
        per_pair,
        ["title"],
        {"n_docs": ("n", "sum"), "n_hosts": ("host", "count")},
    )

    def keep_dups(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["n_docs"] >= 2]

    return per_title.map_batches(keep_dups, batch_format="pandas")


TITLE_DUP_SQL = """
WITH t AS (
  SELECT 'Topic ' || CAST(doc_id % 97 AS VARCHAR) AS title,
         'h' || CAST(doc_id % 13 AS VARCHAR) || '.example.org' AS host
  FROM documents WHERE doc_id % 3 <> 2
)
SELECT title, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT host) AS BIGINT) AS n_hosts
FROM t GROUP BY title HAVING COUNT(*) >= 2
"""


# ---------------------------------------------------------------------------
# Host-level churn rollup (recrawl budgeting input)
# ---------------------------------------------------------------------------


def host_churn_documents(sf_dir: str) -> ray.data.Dataset:
    """Host-level churn: roll the per-url :func:`snapshot_diff_documents`
    verdicts up to hosts — ``(host, n_urls, n_changed, churn_milli)``
    with ``churn_milli = 1000·n_changed // n_urls`` (exact integer).
    Per-host churn is what a recrawl scheduler budgets by (hot hosts
    get crawl budget, static hosts get long revisit intervals) — the
    host-granularity twin of the per-url recrawl tiers. Host derives
    from the url's doc id (13-host carrier arithmetic).

    Scale shape: composes the snapshot-diff pass (per-batch top-2
    partials, one url exchange) with ONE host-keyed grouped_sum —
    per-batch partials bound any mega-host to one row per batch."""
    from pdf_extractor_ray.ops import grouped_sum

    diff = snapshot_diff_documents(sf_dir)

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["url"].str.rsplit("/", n=1).str[1].astype(np.int64)
        return pd.DataFrame(
            {
                "host": ("h" + (ids % 13).astype(str) + ".example.org").astype(object),
                "n_urls": np.ones(len(b), np.int64),
                "n_changed": (b["status"] == "changed").to_numpy().astype(np.int64),
            }
        )

    summed = grouped_sum(
        diff.map_batches(keyed, batch_format="pandas"), ["host"], ["n_urls", "n_changed"]
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["churn_milli"] = (1000 * b["n_changed"].to_numpy(np.int64)) // b[
            "n_urls"
        ].to_numpy(np.int64)
        return b

    return summed.map_batches(finish, batch_format="pandas")


HOST_CHURN_SQL = """
WITH v AS (
  SELECT 'h' || CAST(doc_id % 13 AS VARCHAR) || '.example.org' AS host,
         CASE WHEN doc_id % 3 <> 0 AND doc_id % 2 = 1 THEN 1 ELSE 0 END AS changed
  FROM documents
)
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_urls,
       CAST(SUM(changed) AS BIGINT) AS n_changed,
       CAST((1000 * SUM(changed)) // COUNT(*) AS BIGINT) AS churn_milli
FROM v GROUP BY host
"""


# ---------------------------------------------------------------------------
# DOM shape statistics (the deeply-nested-DOM skew signal)
# ---------------------------------------------------------------------------


def derive_nested_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Page per doc with arithmetic-pinned structure: ``2 + d % 7``
    nested divs, ``1 + d % 4`` paragraphs (the first carrying a void
    ``<br>``), ``d % 3`` anchors — plus the decoys a DOM walker must
    survive: a ``<script>`` whose body contains markup-looking text
    (must not tokenize), and a stray ``</span>`` close tag (must not
    crash or underflow the stack)."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        k = 2 + d % 7
        p_cnt = 1 + d % 4
        a_cnt = d % 3
        seg = html_escape(text[:40]) or "x"
        ps = f"<p>{seg}<br></p>" + f"<p>{seg}</p>" * (p_cnt - 1)
        anchors = "".join(f'<a href="/l/{d}/{j}">l{j}</a>' for j in range(a_cnt))
        htmls.append(
            (
                "<html><body>"
                + "<div>" * k
                + ps
                + anchors
                + "</div>" * k
                + '<script>var h = "<div><div><div>";</script>'
                + "</span>"
                + "</body></html>"
            ).encode("utf-8")
        )
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    return out


def dom_stats_documents(sf_dir: str) -> ray.data.Dataset:
    """DOM shape audit: REAL tokenizer walk
    (:func:`kernels.html_extract.html_dom_stats`) →
    ``(doc_id, n_nodes, max_depth, n_p, n_a)``. Max nesting depth is
    the "deeply nested DOMs" skew signal the north-star names — the
    router that sends pathological pages to their own size bucket /
    per-batch timeout quarantine before they stall a worker; node and
    link counts are the markup-density features boilerplate
    classifiers consume. Zero shuffle."""
    from pdf_extractor_ray.kernels.html_extract import html_dom_stats

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_nested_pages, batch_format="pandas", batch_size=1024)

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        rows = [html_dom_stats(bytes(h)) for h in b["html"]]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "n_nodes": pd.Series([r["n_nodes"] for r in rows], dtype="int64"),
                "max_depth": pd.Series([r["max_depth"] for r in rows], dtype="int64"),
                "n_p": pd.Series([r["n_p"] for r in rows], dtype="int64"),
                "n_a": pd.Series([r["n_a"] for r in rows], dtype="int64"),
            }
        )

    return ds.map_batches(stats, batch_format="pandas", batch_size=1024)


# html+body+script = 3 non-content nodes, +1 br, + divs + p's + a's;
# depth = html,body + divs + p level
DOM_STATS_SQL = """
SELECT doc_id,
       CAST(7 + doc_id % 7 + doc_id % 4 + doc_id % 3 AS BIGINT) AS n_nodes,
       CAST(5 + doc_id % 7 AS BIGINT) AS max_depth,
       CAST(1 + doc_id % 4 AS BIGINT) AS n_p,
       CAST(doc_id % 3 AS BIGINT) AS n_a
FROM documents
"""


# ---------------------------------------------------------------------------
# CSV source (the delimited-text ingestion family)
# ---------------------------------------------------------------------------


def read_csv_documents(sf_dir: str) -> ray.data.Dataset:
    """CSV ingestion: the documents table serialized to sharded CSV
    (pyarrow csv writer — RFC-4180 quoting) and read back through
    ``ray.data.read_csv`` with EXPLICIT column types →
    ``(doc_id, lang, text)``. Type inference is the classic CSV
    data-loss trap (a text column of digit strings silently becomes
    int64; an all-empty shard becomes null); pinning
    ``ConvertOptions.column_types`` is the contract this carrier
    proves — the oracle hash-compares the round-tripped values against
    the parquet originals, so any quoting, escaping, or inference
    drift fails.

    Scale shape: the write is a bounded fixture-synthesis step (per-
    shard, streaming at real scale via the partitioned sink); the read
    is Ray Data's native parallel CSV source — one task per shard,
    schema applied at parse time, no driver materialization."""
    import pyarrow as pa
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    shard_dir = os.path.join(
        "/tmp", f"pdfx_csv_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    os.makedirs(shard_dir, exist_ok=True)
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    n_shards = 4
    step = -(-t.num_rows // n_shards)
    for i in range(n_shards):
        pacsv.write_csv(t.slice(i * step, step), os.path.join(shard_dir, f"part-{i}.csv"))

    return ray.data.read_csv(
        shard_dir,
        convert_options=pacsv.ConvertOptions(
            column_types={
                "doc_id": pa.int64(),
                "lang": pa.string(),
                "text": pa.string(),
            }
        ),
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
    )


READ_CSV_SQL = """
SELECT doc_id, lang, text FROM documents
"""


# ---------------------------------------------------------------------------
# WARC revisit resolution (the archive's write-side dedup channel)
# ---------------------------------------------------------------------------


def derive_revisit_warcs(b: pd.DataFrame) -> pd.DataFrame:
    """WARC slice per doc: ids with ``d % 4 == 1`` are REVISIT records
    pointing at the previous id's capture (the identical-payload-digest
    profile — no body re-stored); everything else is a normal response.
    Every slice also carries a warcinfo record the readers must skip;
    every third slice is gzip-membered."""
    from pdf_extractor_ray.sources.warc import build_warc

    slices = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        if d % 4 == 1:
            rec = {
                "url": f"https://docs.example.com/{d}",
                "ts": f"2026-04-{d % 28 + 1:02d}T00:00:00Z",
                "revisit_of": f"https://docs.example.com/{d - 1}",
            }
        else:
            rec = {
                "url": f"https://docs.example.com/{d}",
                "ts": f"2026-04-{d % 28 + 1:02d}T00:00:00Z",
                "body": f"<html><body><p>{html_escape(text)}</p></body></html>".encode(),
            }
        slices.append(build_warc([rec], gzip_members=bool(d % 3 == 0)))
    out = b[["doc_id"]].copy()
    out["warc"] = slices
    return out


def warc_revisit_documents(sf_dir: str) -> ray.data.Dataset:
    """Revisit resolution: parse BOTH channels of each WARC slice —
    ``response`` records (:func:`sources.warc.parse_warc`) and
    ``revisit`` records (:func:`sources.warc.parse_warc_revisits`) —
    and emit one row per capture: ``(url, resolved_url, is_revisit)``
    where a revisit resolves to the capture it refers to. This is how
    a reader reconstructs the full page set from an archive that
    stored duplicate fetches as pointers (the reason a year of crawls
    doesn't store a static site 12 times). Zero shuffle; the warcinfo
    decoy and the revisit records are proven invisible to the
    response-only reader by the oracle's exact row split."""
    from pdf_extractor_ray.sources.warc import parse_warc, parse_warc_revisits

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_revisit_warcs, batch_format="pandas", batch_size=1024)

    def resolve(b: pd.DataFrame) -> pd.DataFrame:
        urls, res, isr = [], [], []
        for raw in b["warc"]:
            raw = bytes(raw)
            for r in parse_warc(raw):
                urls.append(r["url"])
                res.append(r["url"])
                isr.append(0)
            for r in parse_warc_revisits(raw):
                urls.append(r["url"])
                res.append(r["refers_to"])
                isr.append(1)
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "resolved_url": pd.Series(res, dtype="object"),
                "is_revisit": pd.Series(isr, dtype="int64"),
            }
        )

    return ds.map_batches(resolve, batch_format="pandas", batch_size=256)


WARC_REVISIT_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       'https://docs.example.com/' ||
           CAST(CASE WHEN doc_id % 4 = 1 THEN doc_id - 1 ELSE doc_id END AS VARCHAR)
           AS resolved_url,
       CAST(CASE WHEN doc_id % 4 = 1 THEN 1 ELSE 0 END AS BIGINT) AS is_revisit
FROM documents
"""


# ---------------------------------------------------------------------------
# Heading-anchored passage extraction (RAG/passage-indexing layout)
# ---------------------------------------------------------------------------


def derive_section_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Page per doc with ``k = 2 + d % 3`` heading-anchored sections
    inside the boosted ``div#content``: section ``j`` is
    ``<h2>S{j}</h2><p>{chunk j}</p>`` where chunk j is the j-th
    contiguous ``ceil(n/k)``-token slice of the text (later chunks may
    be empty — heading with no body, the real-page case). A demoted
    sidebar heading and nav BOILER ride along as decoys."""
    htmls = []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        k = 2 + d % 3
        toks = text.split()
        m = -(-len(toks) // k) if toks else 0
        secs = []
        for j in range(k):
            chunk = " ".join(toks[j * m : (j + 1) * m])
            secs.append(f"<h2>S{j}</h2><p>{html_escape(chunk)}</p>")
        htmls.append(
            (
                "<html><body><nav><a href='/x'>BOILER nav</a></nav>"
                f"<div id=\"content\">{''.join(secs)}</div>"
                "<div class=\"sidebar\"><h3>BOILER promo</h3></div>"
                "</body></html>"
            ).encode("utf-8")
        )
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    return out


def extract_passages_documents(sf_dir: str) -> ray.data.Dataset:
    """Passage segmentation: REAL outline harvest
    (:func:`kernels.html_extract.html_extract_headings`) + REAL
    main-content extraction (:func:`kernels.html_extract.html_extract`)
    composed — walk the extracted block lines, cut a new passage at
    each harvested heading → ``(doc_id, passage_idx, heading,
    n_chars)``. This is the layout step a RAG / passage-retrieval
    index runs after extraction (heading-anchored passages beat
    fixed-token windows on section-structured pages); the demoted
    sidebar heading must NOT open a passage, which pins the hint model
    inside the passage cutter. Zero shuffle."""
    from pdf_extractor_ray.kernels.html_extract import html_extract, html_extract_headings

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_section_pages, batch_format="pandas", batch_size=1024)

    def passages(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, heads, sizes = [], [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            raw = bytes(raw)
            outline = [h for _, h in html_extract_headings(raw)]
            text, _ = html_extract(raw)
            lines = text.split("\n") if text else []
            expected = iter(outline)
            nxt = next(expected, None)
            cur_head: str | None = None
            body: list[str] = []
            out_rows: list[tuple[str, str]] = []
            for line in lines:
                if nxt is not None and line == nxt:
                    if cur_head is not None:
                        out_rows.append((cur_head, " ".join(body)))
                    cur_head = line
                    body = []
                    nxt = next(expected, None)
                elif cur_head is not None:
                    body.append(line)
            if cur_head is not None:
                out_rows.append((cur_head, " ".join(body)))
            for j, (h, t) in enumerate(out_rows):
                ids.append(int(doc_id))
                idxs.append(j)
                heads.append(h)
                sizes.append(len(t))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "passage_idx": pd.Series(idxs, dtype="int64"),
                "heading": pd.Series(heads, dtype="object"),
                "n_chars": pd.Series(sizes, dtype="int64"),
            }
        )

    return ds.map_batches(passages, batch_format="pandas", batch_size=1024)


def _extract_passages_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr,
         2 + doc_id % 3 AS k
  FROM documents
),
s AS (
  SELECT doc_id, arr, k, gs AS pidx,
         CASE WHEN len(arr) = 0 THEN 0 ELSE (len(arr) + k - 1) // k END AS m
  FROM t JOIN generate_series(0, 4) g(gs) ON gs < k
)
SELECT doc_id, CAST(pidx AS BIGINT) AS passage_idx,
       'S' || CAST(pidx AS VARCHAR) AS heading,
       CAST(len(array_to_string(arr[pidx * m + 1 : (pidx + 1) * m], ' ')) AS BIGINT)
           AS n_chars
FROM s
"""


EXTRACT_PASSAGES_SQL = _extract_passages_sql()


# ---------------------------------------------------------------------------
# Snapshot line-level delta (what changed between the last two crawls)
# ---------------------------------------------------------------------------


def derive_two_snapshots(b: pd.DataFrame) -> pd.DataFrame:
    """Two snapshot rows per url with arithmetic-pinned line edits:
    old = [a{d}, b{d}, c{d%3}]; new replaces the middle line on odd
    ids (1 added + 1 removed) and appends an extra line on
    ``d % 5 == 0`` (1 added). Text payloads are REAL multi-line
    strings; only the counts replay from arithmetic."""
    urls, tss, texts = [], [], []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        old = [f"a{d}", f"b{d}", f"c{d % 3}"]
        new = [f"a{d}", (f"B{d}" if d % 2 else f"b{d}"), f"c{d % 3}"]
        if d % 5 == 0:
            new.append(f"x{d}")
        for i, lines in enumerate((old, new)):
            urls.append(f"https://docs.example.com/{d}")
            tss.append(1_600_000_000 + d * 7 + i * 86_400)
            texts.append("\n".join(lines))
    return pd.DataFrame(
        {
            "url": pd.Series(urls, dtype="object"),
            "ts": pd.Series(tss, dtype="int64"),
            "text": pd.Series(texts, dtype="object"),
        }
    )


def snapshot_delta_documents(sf_dir: str) -> ray.data.Dataset:
    """Line-level snapshot delta: for each url's two most recent
    captures, diff the LINE SETS → ``(url, n_added, n_removed)`` —
    the change-summary a recrawl monitor stores per visit (the content
    twin of :func:`snapshot_diff_documents`'s signature verdicts:
    not just "changed" but HOW MUCH, which feeds the churn tiers).

    Scale shape: one url-keyed bucketed exchange
    (:func:`ops.grouped_apply`), per-group cost bounded by the
    snapshot count per url (two here; top-2-by-ts selection inside
    the group keeps it bounded under more); the set diff is
    per-group Python over that bounded pair."""
    from pdf_extractor_ray.ops import grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_two_snapshots, batch_format="pandas", batch_size=1024)

    def delta(g: pd.DataFrame) -> pd.DataFrame:
        urls, added, removed = [], [], []
        for url, sub in g.groupby("url", sort=False):
            sub = sub.sort_values("ts")
            older = set(sub.iloc[-2]["text"].split("\n")) if len(sub) >= 2 else set()
            newer = set(sub.iloc[-1]["text"].split("\n"))
            urls.append(url)
            added.append(len(newer - older))
            removed.append(len(older - newer))
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "n_added": pd.Series(added, dtype="int64"),
                "n_removed": pd.Series(removed, dtype="int64"),
            }
        )

    return grouped_apply(ds, ["url"], delta)


SNAPSHOT_DELTA_SQL = """
SELECT 'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       CAST(doc_id % 2 + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_added,
       CAST(doc_id % 2 AS BIGINT) AS n_removed
FROM documents
"""


# ---------------------------------------------------------------------------
# CDX index generation from WARC (the random-access side of the archive)
# ---------------------------------------------------------------------------


def warc_cdx_documents(sf_dir: str) -> ray.data.Dataset:
    """CDX-style index generation: for each WARC slice (16 records per
    blob, the :func:`read_warc_documents` shape), emit one index row
    per record via :func:`sources.warc.parse_warc_index` —
    ``(url, warc_ts, record_idx, offset, length)``. The index IS the
    archive's random-access contract: ``blob[offset : offset+length]``
    must re-parse as exactly that record (pinned by the slice-identity
    test); offsets are strictly increasing within a blob. Rows-only
    query (offsets depend on serialized header byte lengths — not
    reasonably SQL-replayable; the identity property is the stronger
    pin). Zero shuffle."""
    from pdf_extractor_ray.sources.warc import build_warc, parse_warc_index

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def to_blobs(b: pd.DataFrame) -> pd.DataFrame:
        recs = [
            {
                "url": f"https://docs.example.com/{int(d)}",
                "ts": f"2026-05-{int(d) % 28 + 1:02d}T00:00:00Z",
                "body": f"<html><body><p>{html_escape(t)}</p></body></html>".encode(),
            }
            for d, t in zip(b["doc_id"], b["text"])
        ]
        blobs = [build_warc(recs[i : i + 16]) for i in range(0, len(recs), 16)]
        return pd.DataFrame({"warc": pd.Series(blobs, dtype="object")})

    def index(b: pd.DataFrame) -> pd.DataFrame:
        urls, tss, idxs, offs, lens = [], [], [], [], []
        for raw in b["warc"]:
            for i, r in enumerate(parse_warc_index(bytes(raw))):
                urls.append(r["url"])
                tss.append(r["ts"])
                idxs.append(i)
                offs.append(r["offset"])
                lens.append(r["length"])
        return pd.DataFrame(
            {
                "url": pd.Series(urls, dtype="object"),
                "warc_ts": pd.Series(tss, dtype="object"),
                "record_idx": pd.Series(idxs, dtype="int64"),
                "offset": pd.Series(offs, dtype="int64"),
                "length": pd.Series(lens, dtype="int64"),
            }
        )

    return base.map_batches(to_blobs, batch_format="pandas", batch_size=1024).map_batches(
        index, batch_format="pandas", batch_size=64
    )


# ---------------------------------------------------------------------------
# Sitemap coverage audit (declared-but-never-crawled URLs)
# ---------------------------------------------------------------------------


def sitemap_coverage_documents(sf_dir: str) -> ray.data.Dataset:
    """Sitemap → crawl coverage: parse the sitemap bodies (REAL
    :func:`kernels.html_extract.parse_sitemap` over the
    :func:`derive_sitemap_bodies` fixtures), anti-join the declared
    locs against the crawled url set → ``(doc_id, missing_loc)`` —
    the URLs a site DECLARES that the crawl never fetched (here: every
    ``/archive`` variant; the page itself is proven covered). This
    closes the discovery loop the sitemap parser opened: parse →
    compare → enqueue, the sitemap twin of feed-based discovery.

    Scale shape: parse is a zero-shuffle batch map; the membership
    test is ONE adaptive anti-join of the declared-loc stream against
    the crawled-url column (byte-gated broadcast or hash exchange)."""
    from pdf_extractor_ray.joins import semi_join
    from pdf_extractor_ray.kernels.html_extract import parse_sitemap

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    declared = base.map_batches(derive_sitemap_bodies, batch_format="pandas").map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": pd.Series(
                    [int(d) for d, sm in zip(b["doc_id"], b["sitemap"]) for _ in parse_sitemap(bytes(sm))],
                    dtype="int64",
                ),
                "loc": pd.Series(
                    [e["loc"] for sm in b["sitemap"] for e in parse_sitemap(bytes(sm))],
                    dtype="object",
                ),
            }
        ),
        batch_format="pandas",
        batch_size=1024,
    )

    def crawled(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "url": pd.Series(
                    [f"https://docs.example.com/{int(d)}" for d in b["doc_id"]],
                    dtype="object",
                )
            }
        )

    crawled_urls = base.map_batches(crawled, batch_format="pandas")
    missing = semi_join(declared, crawled_urls, "loc", right_on="url", keep=False)

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "missing_loc": b["loc"].astype(object),
            }
        )

    return missing.map_batches(rename, batch_format="pandas")


SITEMAP_COVERAGE_SQL = """
SELECT doc_id,
       'https://docs.example.com/' || CAST(doc_id AS VARCHAR) || '/archive' AS missing_loc
FROM documents
"""


# ---------------------------------------------------------------------------
# DOM template-path mining (structural boilerplate discovery)
# ---------------------------------------------------------------------------


def derive_template_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Page per doc on host ``h{d%13}``: a SHARED nav skeleton (the
    template every page of the host carries) plus a content chain
    whose depth varies with the doc (``1 + d % 3`` nested divs ending
    in a ``<p>``) — so path df separates template paths (on every
    page) from content-depth paths (on a third of them)."""
    htmls, hosts = [], []
    for doc_id, text in zip(b["doc_id"], b["text"]):
        d = int(doc_id)
        k = 1 + d % 3
        htmls.append(
            (
                "<html><body><nav><ul><li>BOILER</li></ul></nav>"
                + "<div>" * k
                + f"<p>{html_escape(text[:30])}</p>"
                + "</div>" * k
                + "</body></html>"
            ).encode("utf-8")
        )
        hosts.append(f"h{d % 13}.example.org")
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    out["host"] = hosts
    return out


def dom_template_paths(sf_dir: str) -> ray.data.Dataset:
    """Structural template mining: per-page DOM tag paths
    (:func:`kernels.html_extract.html_tag_paths`, page-deduped) →
    per-(host, path) page counts — ``(host, path, n_pages)``. Paths
    present on (nearly) every page of a host are its template
    skeleton; the rest are content structure — the structural twin of
    text-side boilerplate-prefix mining, and the feature a wrapper-
    induction / template-stripping pass trains on.

    Scale shape: parse + per-page dedup is zero-shuffle; ONE bucketed
    (host, path) count exchange with per-batch partials."""
    from pdf_extractor_ray.kernels.html_extract import html_tag_paths
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(derive_template_pages, batch_format="pandas", batch_size=1024)

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        hosts, paths = [], []
        for host, raw in zip(b["host"], b["html"]):
            for p in set(html_tag_paths(bytes(raw))):  # page-level dedup
                hosts.append(host)
                paths.append(p)
        return pd.DataFrame(
            {
                "host": pd.Series(hosts, dtype="object"),
                "path": pd.Series(paths, dtype="object"),
                "n_pages": np.ones(len(hosts), np.int64),
            }
        )

    return grouped_sum(
        ds.map_batches(explode, batch_format="pandas", batch_size=1024),
        ["host", "path"],
        ["n_pages"],
    )


DOM_TEMPLATE_PATHS_SQL = """
WITH h AS (
  SELECT 'h' || CAST(doc_id % 13 AS VARCHAR) || '.example.org' AS host,
         doc_id % 3 AS k3
  FROM documents
),
p AS (
  SELECT host, 'html' AS path FROM h
  UNION ALL SELECT host, 'html>body' FROM h
  UNION ALL SELECT host, 'html>body>nav' FROM h
  UNION ALL SELECT host, 'html>body>nav>ul' FROM h
  UNION ALL SELECT host, 'html>body>nav>ul>li' FROM h
  UNION ALL SELECT host, 'html>body>div' FROM h
  UNION ALL SELECT host, 'html>body>div>div' FROM h WHERE k3 >= 1
  UNION ALL SELECT host, 'html>body>div>div>div' FROM h WHERE k3 = 2
  UNION ALL SELECT host, 'html>body>div>p' FROM h WHERE k3 = 0
  UNION ALL SELECT host, 'html>body>div>div>p' FROM h WHERE k3 = 1
  UNION ALL SELECT host, 'html>body>div>div>div>p' FROM h WHERE k3 = 2
)
SELECT host, path, CAST(COUNT(*) AS BIGINT) AS n_pages
FROM p GROUP BY host, path
"""


# ---------------------------------------------------------------------------
# Document age / staleness (crawl date − extracted publication date)
# ---------------------------------------------------------------------------

DOC_AGE_CRAWL_DATE = "2026-08-19"  # the corpus' nominal crawl date


def doc_age_documents(sf_dir: str) -> ray.data.Dataset:
    """Document AGE at crawl time: compose the real publication-date
    extraction (:func:`extract_dates_documents`'s channel-priority
    harvest) with a fixed crawl date → ``(doc_id, published,
    age_days)``. Age is the freshness feature recency-weighted
    sampling and recrawl prioritization both consume; exact integer
    day difference. Zero shuffle beyond the extraction pass."""
    import datetime as _dt

    crawl = _dt.date.fromisoformat(DOC_AGE_CRAWL_DATE)
    dated = extract_dates_documents(sf_dir)

    def age(b: pd.DataFrame) -> pd.DataFrame:
        days = [
            (crawl - _dt.date.fromisoformat(p)).days if p else -1
            for p in b["published"]
        ]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "published": b["published"].astype(object),
                "age_days": pd.Series(days, dtype="int64"),
            }
        )

    return dated.map_batches(age, batch_format="pandas")


DOC_AGE_SQL = f"""
WITH p AS (
  SELECT doc_id,
         DATE '2015-01-01' + CAST((doc_id * 7) % 3000 AS INTEGER) AS pub
  FROM documents
)
SELECT doc_id, strftime(pub, '%Y-%m-%d') AS published,
       CAST(datediff('day', pub, DATE '{DOC_AGE_CRAWL_DATE}') AS BIGINT) AS age_days
FROM p
"""


# ---------------------------------------------------------------------------
# JSONL source (the line-delimited ingestion family)
# ---------------------------------------------------------------------------


def read_jsonl_documents(sf_dir: str) -> ray.data.Dataset:
    """JSONL ingestion: the documents table serialized to sharded
    line-delimited JSON and read back through ``ray.data.read_json`` →
    ``(doc_id, lang, text)``. The companion of the CSV source carrier:
    JSONL is the interchange format most text corpora actually ship
    in (Pile/C4 dumps, OpenAI fine-tune files); the hash compare pins
    escaping and round-trip fidelity. One task per shard at read
    time."""
    import json

    import pyarrow.parquet as _pqt

    shard_dir = os.path.join(
        "/tmp", f"pdfx_jsonl_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    os.makedirs(shard_dir, exist_ok=True)
    t = _pqt.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
    ).to_pandas()
    n_shards = 4
    step = -(-len(t) // n_shards)
    for i in range(n_shards):
        with open(os.path.join(shard_dir, f"part-{i}.jsonl"), "w") as f:
            for _, row in t.iloc[i * step : (i + 1) * step].iterrows():
                f.write(
                    json.dumps(
                        {
                            "doc_id": int(row["doc_id"]),
                            "lang": row["lang"],
                            "text": row["text"],
                        }
                    )
                    + "\n"
                )

    return ray.data.read_json(shard_dir)


READ_JSONL_SQL = """
SELECT doc_id, lang, text FROM documents
"""


# ---------------------------------------------------------------------------
# Hive-partitioned write + pruned single-partition read
# ---------------------------------------------------------------------------


def hive_pruned_read_documents(sf_dir: str) -> ray.data.Dataset:
    """Partition-pruned read: the corpus written hive-partitioned by
    ``lang`` (the resumable layout the brief mandates), then ONE
    partition read back by explicit file list — ``(doc_id, n_chars)``
    of the corpus' first lang only. The pruned read IS the 100-TB
    claim: a per-language pass touches that language's files and
    nothing else (the IVF-probe / inverted-index bucket pattern,
    document-side). The write is idempotent per sf_dir."""
    import glob as _glob

    import pyarrow.parquet as _pqt

    part_dir = os.path.join(
        "/tmp", f"pdfx_hive_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    if not os.path.isdir(os.path.join(part_dir, "data")):
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang", "n_chars"],
        )
        ds.write_parquet(os.path.join(part_dir, "data"), partition_cols=["lang"])

    langs = sorted(
        os.path.basename(p).split("=", 1)[1]
        for p in _glob.glob(os.path.join(part_dir, "data", "lang=*"))
    )
    target = langs[0]  # deterministic: lexicographically first lang
    files = sorted(
        _glob.glob(os.path.join(part_dir, "data", f"lang={target}", "*.parquet"))
    )
    return ray.data.read_parquet(files, columns=["doc_id", "n_chars"])


HIVE_PRUNED_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE lang = (SELECT MIN(lang) FROM documents)
"""


# ---------------------------------------------------------------------------
# Microdata (schema.org) harvest through the real walker
# ---------------------------------------------------------------------------


def derive_microdata_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with planted schema.org microdata:
    an Article item whose headline is the first two tokens (text-content
    channel, with a ``<b>`` split proving descendant-text capture),
    datePublished via the ``meta content`` channel, wordCount via plain
    text content, a NESTED Person item carrying the source column, and
    the url prop via the ``a href`` channel — plus decoys the walker
    must provably ignore: an itemprop OUTSIDE any scope, a second
    in-scope headline (first-wins), and a decoy prop inside the nested
    Person that must not leak into the Article."""
    htmls = []
    for doc_id, text, source in zip(b["doc_id"], b["text"], b["source"]):
        d = int(doc_id)
        toks = text.split()
        head = " ".join(toks[:2]) if toks else "untitled"
        parts = head.split()
        h1 = (
            f"<b>{html_escape(parts[0])}</b> {html_escape(' '.join(parts[1:]))}"
            if len(parts) > 1
            else html_escape(head)
        )
        htmls.append(
            (
                f"<html><body>"
                f'<span itemprop="headline">BOILER outside scope</span>'
                f'<div itemscope itemtype="https://schema.org/Article">'
                f'<h1 itemprop="headline">{h1}</h1>'
                f'<h2 itemprop="headline">BOILER second</h2>'
                f'<meta itemprop="datePublished" content="2024-01-{1 + d % 28:02d}">'
                f'<span itemprop="wordCount">{len(toks)}</span>'
                f'<div itemprop="author" itemscope itemtype="https://schema.org/Person">'
                f'<span itemprop="name">{html_escape(source)}</span>'
                f'<span itemprop="headline">BOILER nested decoy</span>'
                f"</div>"
                f'<a itemprop="url" href="/article/{d}">read</a>'
                f"</div></body></html>"
            ).encode("utf-8")
        )
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    return out


def extract_microdata_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic microdata-bearing pages →
    :func:`kernels.html_extract.html_extract_microdata` → ``(doc_id,
    itemtype, headline, author_name, date_published, url_prop,
    word_count)``. Exercises the boolean ``itemscope`` attribute, all
    four value channels (text, meta-content, nested item, URL attr),
    first-occurrence-wins, and outside-scope/nested-decoy isolation —
    each against the SQL-derived expectation. Zero shuffle: derive +
    extract are a single fused vectorized stage, the 100-TB streaming
    shape shared by every extraction carrier."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_microdata

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "source"]
    ).map_batches(derive_microdata_pages, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        rows = {
            "itemtype": [],
            "headline": [],
            "author_name": [],
            "date_published": [],
            "url_prop": [],
            "word_count": [],
        }
        for raw in b["html"]:
            items = html_extract_microdata(raw)
            art = items[0] if items else {"itemtype": None, "props": {}}
            p = art["props"]
            author = p.get("author") or {"props": {}}
            rows["itemtype"].append(art["itemtype"])
            rows["headline"].append(p.get("headline"))
            rows["author_name"].append(author["props"].get("name"))
            rows["date_published"].append(p.get("datePublished"))
            rows["url_prop"].append(p.get("url"))
            rows["word_count"].append(int(p.get("wordCount", "0")))
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "itemtype": pd.Series(rows["itemtype"], dtype="object"),
                "headline": pd.Series(rows["headline"], dtype="object"),
                "author_name": pd.Series(rows["author_name"], dtype="object"),
                "date_published": pd.Series(rows["date_published"], dtype="object"),
                "url_prop": pd.Series(rows["url_prop"], dtype="object"),
                "word_count": np.asarray(rows["word_count"], dtype=np.int64),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


def _extract_microdata_sql() -> str:
    tw = trim_ws_sql("text")
    return rf"""
WITH t AS (
    SELECT doc_id, source,
           CASE WHEN {tw} = '' THEN CAST([] AS VARCHAR[])
                ELSE regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}') END AS arr
    FROM documents
)
SELECT doc_id,
       'https://schema.org/Article' AS itemtype,
       CASE WHEN len(arr) = 0 THEN 'untitled'
            ELSE array_to_string(arr[1:LEAST(len(arr), 2)], ' ') END AS headline,
       source AS author_name,
       '2024-01-' || lpad(CAST(1 + doc_id % 28 AS VARCHAR), 2, '0') AS date_published,
       '/article/' || CAST(doc_id AS VARCHAR) AS url_prop,
       CAST(len(arr) AS BIGINT) AS word_count
FROM t
"""


EXTRACT_MICRODATA_SQL = _extract_microdata_sql()


# ---------------------------------------------------------------------------
# Embedded-resource (third-party embed) audit through the real walker
# ---------------------------------------------------------------------------


def derive_resource_pages(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic page per doc with planted embedded resources: one
    relative (same-site) script always, ``1 + doc_id % 2`` external CDN
    scripts, an external iframe when ``doc_id % 3 = 0``, an internal
    object when ``doc_id % 5 = 0`` — plus an INLINE script whose body
    contains a fake ``</iframe><iframe src=…>`` string the walker must
    not count (raw-text skip), and a ``link rel=stylesheet`` that is
    head metadata, not an embed."""
    htmls = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        tags = ['<script src="/static/app.js"></script>']
        for i in range(1, 2 + d % 2):
            tags.append(
                f'<script src="https://cdn{(d + i) % 5}.example-cdn.com/lib{i}.js"></script>'
            )
        if d % 3 == 0:
            tags.append(f'<iframe src="https://embed{d % 4}.example.org/w/{d}"></iframe>')
        if d % 5 == 0:
            tags.append(f'<object data="/media/{d}.svg"></object>')
        tags.append(
            '<script>var decoy = "</iframe><iframe src=\\"https://evil.example/x\\">";</script>'
        )
        htmls.append(
            (
                '<html><head><link rel="stylesheet" href="https://fonts.example-cdn.com/f.css">'
                f"</head><body><p>content</p>{''.join(tags)}</body></html>"
            ).encode("utf-8")
        )
    out = b[["doc_id"]].copy()
    out["html"] = htmls
    return out


def embedded_resources_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → deterministic embed-bearing pages →
    :func:`kernels.html_extract.html_extract_resources` → per-doc embed
    census ``(doc_id, n_resources, n_scripts, n_iframes, n_external,
    first_external_host)`` where external = absolute http(s) src. The
    inline-script decoy proves raw-text skipping; the stylesheet link
    proves tag scoping. Zero shuffle — a pure streaming audit stage at
    100 TB, same shape as ``mime_mismatch_documents``."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_resources

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_resource_pages, batch_format="pandas", batch_size=2048)

    def audit(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        n_res = np.zeros(n, np.int64)
        n_scr = np.zeros(n, np.int64)
        n_ifr = np.zeros(n, np.int64)
        n_ext = np.zeros(n, np.int64)
        first_host: list[str | None] = []
        for i, raw in enumerate(b["html"]):
            res = html_extract_resources(raw)
            n_res[i] = len(res)
            host = None
            for tag, src in res:
                n_scr[i] += tag == "script"
                n_ifr[i] += tag == "iframe"
                if src.startswith("http://") or src.startswith("https://"):
                    n_ext[i] += 1
                    if host is None:
                        host = src.split("//", 1)[1].split("/", 1)[0]
            first_host.append(host)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "n_resources": n_res,
                "n_scripts": n_scr,
                "n_iframes": n_ifr,
                "n_external": n_ext,
                "first_external_host": pd.Series(first_host, dtype="object"),
            }
        )

    return ds.map_batches(audit, batch_format="pandas", batch_size=1024)


EMBEDDED_RESOURCES_SQL = """
SELECT doc_id,
       CAST(1 + (1 + doc_id % 2)
              + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
              + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_resources,
       CAST(2 + doc_id % 2 AS BIGINT) AS n_scripts,
       CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_iframes,
       CAST((1 + doc_id % 2)
              + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_external,
       'cdn' || CAST((doc_id + 1) % 5 AS VARCHAR) || '.example-cdn.com' AS first_external_host
FROM documents
"""


def read_orc_documents(sf_dir: str) -> ray.data.Dataset:
    """ORC ingestion: the documents table serialized to sharded ORC
    (pyarrow.orc writer) and read back FILE-PARALLEL →
    ``(doc_id, lang, text)``. Ray 2.49 ships no ``read_orc``, so this
    composes one from primitives it does have: ``read_binary_files``
    distributes whole files as rows, and the per-batch parse opens each
    file with ``pyarrow.orc.ORCFile`` and reads ONLY the requested
    columns — ORC is columnar with per-stripe statistics, so the column
    prune is real pushdown, not a post-filter. Completes the
    interchange trio (CSV pins type inference, JSONL pins escaping, ORC
    pins the build-a-source-from-binary-files pattern any unsupported
    columnar format needs).

    Scale shape: one read task per file shard; the parse is zero-copy
    Arrow until the final projection; no driver materialization."""
    import pyarrow as pa
    import pyarrow.orc as paorc
    import pyarrow.parquet as _pqt

    shard_dir = os.path.join(
        "/tmp", f"pdfx_orc_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    os.makedirs(shard_dir, exist_ok=True)
    t = _pqt.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    n_shards = 4
    step = -(-t.num_rows // n_shards)
    for i in range(n_shards):
        paorc.write_table(t.slice(i * step, step), os.path.join(shard_dir, f"part-{i}.orc"))

    files = ray.data.read_binary_files(shard_dir)

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        tables = [
            paorc.ORCFile(pa.BufferReader(payload)).read(
                columns=["doc_id", "lang", "text"]
            )
            for payload in b["bytes"]
        ]
        return pa.concat_tables(tables).to_pandas()

    return files.map_batches(parse, batch_format="pandas", batch_size=1)


READ_ORC_SQL = """
SELECT doc_id, lang, text FROM documents
"""


def read_feather_documents(sf_dir: str) -> ray.data.Dataset:
    """Arrow IPC (Feather v2) ingestion: the documents table serialized
    to sharded ``.feather`` files and read back file-parallel →
    ``(doc_id, lang, text)``, the same build-a-source pattern as
    :func:`read_orc_documents` (``read_binary_files`` + per-file
    columnar parse with column selection). IPC matters because it is
    the zero-copy interchange format between Arrow runtimes — reading
    it into Ray Data blocks is a memcpy-level parse, the cheapest
    possible source."""
    import pyarrow as pa
    import pyarrow.feather as pafeather
    import pyarrow.parquet as _pqt

    shard_dir = os.path.join(
        "/tmp", f"pdfx_feather_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    os.makedirs(shard_dir, exist_ok=True)
    t = _pqt.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    n_shards = 4
    step = -(-t.num_rows // n_shards)
    for i in range(n_shards):
        pafeather.write_feather(
            t.slice(i * step, step), os.path.join(shard_dir, f"part-{i}.feather")
        )

    files = ray.data.read_binary_files(shard_dir)

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        tables = [
            pafeather.read_table(
                pa.BufferReader(payload), columns=["doc_id", "lang", "text"]
            )
            for payload in b["bytes"]
        ]
        return pa.concat_tables(tables).to_pandas()

    return files.map_batches(parse, batch_format="pandas", batch_size=1)


READ_FEATHER_SQL = """
SELECT doc_id, lang, text FROM documents
"""
