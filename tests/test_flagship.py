"""Golden-fixture conformance: the Ray pipeline's extracted text must be
byte-identical per url to the sequential oracle (north rule), including
under input shuffling and different batch sizes (metamorphic checks)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline, extraction_summary


def _by_url(table: pa.Table) -> dict:
    d = {}
    urls = table.column("url").to_pylist()
    texts = table.column("extracted_text").to_pylist()
    status = table.column("status").to_pylist()
    spans = table.column("char_spans").to_pylist()
    for u, t, s, cs in zip(urls, texts, status, spans):
        # duplicate urls exist in the corpus by design; identical content
        d.setdefault(u, (t, s, cs))
    return d


@pytest.fixture(scope="module")
def pipeline_output(pages_corpus):
    ds = build_extraction_pipeline(pages_corpus, batch_size=32)
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_byte_identical_to_oracle(pipeline_output, goldens):
    got = _by_url(pipeline_output)
    exp = _by_url(goldens)
    assert set(got) == set(exp)
    mismatches = [u for u in exp if got[u][0] != exp[u][0]]
    assert mismatches == [], f"text differs for {len(mismatches)} urls, e.g. {mismatches[:3]}"
    status_mism = [u for u in exp if got[u][1] != exp[u][1]]
    assert status_mism == []
    span_mism = [u for u in exp if got[u][2] != exp[u][2]]
    assert span_mism == []


def test_invariant_under_shuffle_and_batch_size(pages_corpus, goldens):
    ds = build_extraction_pipeline(pages_corpus, batch_size=7)
    ds = ds.random_shuffle(seed=123)
    out = ds.to_pandas()
    exp = _by_url(goldens)
    got = dict(zip(out["url"], out["extracted_text"]))
    for u, t in got.items():
        assert t == exp[u][0], f"mismatch for {u}"


def test_quarantine_rows_present(pipeline_output):
    status = pipeline_output.column("status").to_pylist()
    assert any(s.startswith("quarantined") for s in status), "edge rows should quarantine"
    assert any(s == "ok" for s in status)
    # quarantined rows are not silently dropped: every input row surfaces
    assert len(status) == 300


def test_extraction_summary_aggregate(pages_corpus):
    ds = build_extraction_pipeline(pages_corpus)
    summary = extraction_summary(ds).to_pandas()
    assert summary["n_docs"].sum() == 300
    assert set(summary.columns) == {"kind", "status", "n_docs", "total_bytes"}


def test_mega_doc_skew(tmp_path):
    """A ~5MB doc (bucket 3, ~2000x median) must neither stall nor
    poison the run — it lands in the top size bucket and extracts."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.sources.pages import generate_pages_table, make_html_page

    tab = generate_pages_table(500, seed=5)
    raw, _ = make_html_page(random.Random(1), 9000)  # ~5MB
    mega = pa.table(
        {
            "url": pa.array(["https://mega.example.com/0"], pa.string()),
            "warc_ts": pa.array([None], tab.schema.field("warc_ts").type),
            "html": pa.array([raw], pa.binary()),
            "text": pa.array([""], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.concat_tables([tab, mega]), path)
    out = build_extraction_pipeline([path]).to_pandas()
    assert len(out) == 501
    mrow = out[out["url"] == "https://mega.example.com/0"].iloc[0]
    assert mrow["status"] == "ok"
    assert mrow["size_bucket"] >= 2  # big or mega bucket
    assert len(mrow["extracted_text"]) > 1_000_000


def test_flagship_plan_is_shuffle_free(tmp_path):
    """The extraction path must never contain an all-to-all exchange —
    the zero-shuffle property is the core 100 TB claim; this pins it
    against future regressions (e.g. an accidental groupby/sort), and
    pins the one-scan shape (no branch-and-union of the input)."""
    from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline
    from pdf_extractor_ray.sources.pages import write_pages_corpus

    paths = write_pages_corpus(str(tmp_path / "p"), n_rows=300, n_files=2, seed=11)
    ds = build_extraction_pipeline(paths, batch_size=64)
    ds.take(5)  # execute enough to materialize the plan
    stats = ds.stats()
    for marker in ("AllToAll", "Sort", "Aggregate", "Join", "Union", "shuffle"):
        assert marker not in stats, f"flagship plan gained a {marker} stage:\n{stats[:500]}"


def test_read_block_count_from_footers(tmp_path):
    """Read blocks: one per batch of rows, more when the pruned columns
    of a few mega rows exceed BLOCK_BYTES per block, never past the
    max(4 × CPUs, 16) cap."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.flagship import BLOCK_BYTES, num_read_blocks, read_footers
    from pdf_extractor_ray.sources.pages import write_pages_corpus

    paths = write_pages_corpus(str(tmp_path / "p"), n_rows=1000, n_files=2, seed=11)
    footers = read_footers(paths)
    assert sorted(footers) == sorted(paths)
    rows = sum(r for r, _ in footers.values())
    n_bytes = sum(b for _, b in footers.values())
    assert rows == 1000 and 0 < n_bytes < BLOCK_BYTES
    assert num_read_blocks(rows, n_bytes, 256, n_cpus=1) == 4  # ceil(1000 / 256)
    assert num_read_blocks(rows, n_bytes, 7, n_cpus=1) == 16  # ceil(1000 / 7) = 143, capped
    assert num_read_blocks(rows, n_bytes, 7, n_cpus=8) == 32
    assert num_read_blocks(0, 0, 256, n_cpus=1) == 1

    mega = 24 << 20
    path = str(tmp_path / "mega.parquet")
    pq.write_table(
        pa.table(
            {
                "url": [f"https://mega.example.com/{i}" for i in range(5)],
                "html": pa.array([bytes([65 + i]) * mega for i in range(5)], pa.binary()),
                "text": [""] * 5,
            }
        ),
        path,
    )
    (mega_rows, mega_bytes), = read_footers([path]).values()
    assert mega_rows == 5 and mega_bytes >= 5 * mega
    assert num_read_blocks(mega_rows, mega_bytes, 256, n_cpus=1) == 2  # 120 MiB / 64 MiB; rows alone give 1
