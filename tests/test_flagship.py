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
    pins the one-scan shape (no branch-and-union of the input). The
    read fuses with its stage into ONE operator (no SplitBlocks), in
    the extraction pipeline and in the partitioned runner alike, so
    page bytes never pass through the object store."""
    import re

    from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline, read_footers
    from pdf_extractor_ray.sources.pages import write_pages_corpus
    from pdf_extractor_ray.state.manifest import write_parts_dataset

    def operators(stats: str) -> list[str]:
        return re.findall(r"^Operator \d+ (.+?): ", stats, re.M)

    paths = write_pages_corpus(str(tmp_path / "p"), n_rows=300, n_files=2, seed=11)
    ds = build_extraction_pipeline(paths, batch_size=64).materialize()
    stats = ds.stats()
    for marker in ("AllToAll", "Sort", "Aggregate", "Join", "Union", "shuffle", "SplitBlocks"):
        assert marker not in stats, f"flagship plan gained a {marker} stage:\n{stats[:500]}"
    (op,) = operators(stats)
    assert op.startswith("Read") and op.endswith("->MapBatches(extract_all_batch)"), op
    assert ds.count() == 300

    pid_of = {f: f"{i:05d}" for i, f in enumerate(sorted(paths))}
    runner = write_parts_dataset(read_footers(paths), str(tmp_path / "out"), pid_of, 64).materialize()
    stats = runner.stats()
    assert "SplitBlocks" not in stats, stats[:500]
    (op,) = operators(stats)
    assert op.startswith("Read") and op.endswith("->MapBatches(write_partition_parts)"), op
    assert sum(runner.to_pandas()["n_rows"]) == 300


def test_plan_reads_one_unit_per_file(tmp_path):
    """Footers give rows and pruned bytes per row group; with at least
    as many files as CPUs every file with rows is one whole unit,
    whatever its row groups."""
    from pdf_extractor_ray.pipelines.flagship import BLOCK_BYTES, plan_reads, read_footers
    from pdf_extractor_ray.sources.pages import generate_pages_table

    paths = []
    for i, (rows, rg) in enumerate([(1000, 256), (300, 1000)]):
        paths.append(str(tmp_path / f"p{i}.parquet"))
        pq.write_table(generate_pages_table(rows, seed=i), paths[-1], row_group_size=rg)
    footers = read_footers(str(tmp_path))  # a directory expands to its files
    assert sorted(footers) == sorted(paths)
    assert [r for r, _ in footers[paths[0]]] == [256, 256, 256, 232]
    assert [r for r, _ in footers[paths[1]]] == [300]
    assert all(0 < b < BLOCK_BYTES for groups in footers.values() for _, b in groups)
    units = plan_reads(footers, n_cpus=1, batch_size=64)
    assert [(u.path, u.start, u.stop, u.step, u.row_groups, u.first_row) for u in units] == [
        (paths[0], 0, 1000, 64, (0, 1, 2, 3), 0),
        (paths[1], 0, 300, 64, (0,), 0),
    ]
    assert sum(u.n_bytes for u in units) == sum(b for groups in footers.values() for _, b in groups)
    assert plan_reads(footers, n_cpus=2, batch_size=64) == units  # as many files as CPUs: no split


def test_plan_reads_splits_files_for_cpus():
    """Fewer files than CPUs: files are cut at batch boundaries into
    ranges of about total rows / CPUs, never below one batch, until
    there are at least as many units as CPUs (or one per batch). The
    units cover every row of every file exactly once and read only the
    row groups that hold their rows."""
    import itertools
    import math

    from pdf_extractor_ray.pipelines.flagship import plan_reads

    footers = {"a": [(1000, 10_000)], "b": [(7, 70), (0, 0), (300, 3000)], "c": [(5, 50)]}
    n_batches = sum(math.ceil(sum(r for r, _ in groups) / 64) for groups in footers.values())
    assert n_batches == 16 + 5 + 1
    for n_cpus in (1, 2, 3, 4, 8, 32, 5000):
        units = plan_reads(footers, n_cpus, batch_size=64)
        assert min(n_cpus, n_batches) <= len(units) <= n_batches, n_cpus
        for path, groups in footers.items():
            own = [u for u in units if u.path == path]
            ends = list(itertools.accumulate(r for r, _ in groups))
            assert [u.start for u in own] == [0] + [u.stop for u in own[:-1]], (n_cpus, own)
            assert own[-1].stop == ends[-1]
            for u in own:
                assert u.step == 64 and u.start % 64 == 0
                assert u.stop - u.start >= 64 or u is own[-1], (n_cpus, u)  # never below one batch
                assert u.row_groups == tuple(
                    g for g, ((r, _), e) in enumerate(zip(groups, ends)) if r and u.start < e and e - r < u.stop
                )
                assert u.first_row == ends[u.row_groups[0]] - groups[u.row_groups[0]][0]
    assert len(plan_reads(footers, 5000, batch_size=64)) == n_batches
    assert len(plan_reads(footers, 3, batch_size=64)) == 3  # one unit per file


def test_read_units_batch_across_row_groups(tmp_path):
    """Files written in 3-row row groups read as batches of batch_size
    rows that cross row groups but never files, ceil(rows / batch_size)
    per file however the run is split for CPUs, every row once and in
    file order."""
    from pdf_extractor_ray.pipelines.flagship import plan_reads, read_footers, read_unit
    from pdf_extractor_ray.sources.pages import generate_pages_table

    table = generate_pages_table(20, seed=4)
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"p{i}.parquet"))
        pq.write_table(table.slice(10 * i, 10), paths[-1], row_group_size=3)
    footers = read_footers(paths)
    for n_cpus in (1, 3, 8):
        units = plan_reads(footers, n_cpus, batch_size=4)
        for path in paths:
            batches = [b for u in units if u.path == path for b in read_unit(u)]
            assert [b.num_rows for b in batches] == [4, 4, 2], n_cpus
            assert all(b.column("path").to_pylist() == [path] * b.num_rows for b in batches)
            got = pa.concat_tables(batches).column("url").to_pylist()
            assert got == pq.read_table(path).column("url").to_pylist(), n_cpus


def test_plan_reads_skips_empty_files_and_row_groups(tmp_path):
    from pdf_extractor_ray.pipelines.flagship import plan_reads, read_footers
    from pdf_extractor_ray.sources.pages import generate_pages_table

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(generate_pages_table(0, seed=1), empty)
    (groups,) = read_footers([empty]).values()
    assert sum(r for r, _ in groups) == 0
    assert plan_reads({empty: groups}, n_cpus=1, batch_size=64) == []
    assert plan_reads({empty: groups}, n_cpus=8, batch_size=64) == []
    for n_cpus in (1, 8):
        units = plan_reads({"a": [(0, 0), (4, 40), (0, 0)], "b": [], "c": [(0, 0)]}, n_cpus, batch_size=64)
        assert [(u.path, u.start, u.stop, u.row_groups, u.first_row) for u in units] == [("a", 0, 4, (1,), 0)]
    assert plan_reads({}, n_cpus=4, batch_size=64) == []


def test_mega_rows_read_in_batches_under_block_bytes(tmp_path):
    """5 rows of 24 MiB (120 MiB in one row group): batches of the read
    hold at most BLOCK_BYTES of pages, where batch_size alone would give
    one 120 MiB batch. Small rows keep batch_size."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.pipelines.flagship import BLOCK_BYTES, plan_reads, read_footers, read_unit
    from pdf_extractor_ray.sources.pages import generate_pages_table

    path = str(tmp_path / "mega.parquet")
    mega = 24 << 20
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
    ((rows, n_bytes),) = read_footers([path])[path]
    assert rows == 5 and n_bytes >= 5 * mega
    (unit,) = plan_reads(read_footers([path]), n_cpus=1, batch_size=256)
    batches = list(read_unit(unit))
    assert [b.num_rows for b in batches] == [2, 2, 1]
    assert all(pc.sum(pc.binary_length(b.column("html"))).as_py() <= BLOCK_BYTES for b in batches)
    assert all(b.column("path").to_pylist() == [path] * b.num_rows for b in batches)
    assert pa.concat_tables(batches).column("url").to_pylist() == pq.read_table(path).column("url").to_pylist()
    # split for 5 CPUs: ranges of one batch each, not one per row
    units = plan_reads(read_footers([path]), n_cpus=5, batch_size=256)
    assert [(u.start, u.stop) for u in units] == [(0, 2), (2, 4), (4, 5)]
    assert [b.column("url").to_pylist() for u in units for b in read_unit(u)] == [
        b.column("url").to_pylist() for b in batches
    ]

    small = str(tmp_path / "small.parquet")
    pq.write_table(generate_pages_table(600, seed=2), small)
    (unit,) = plan_reads(read_footers([small]), n_cpus=1, batch_size=256)
    assert [b.num_rows for b in read_unit(unit)] == [256, 256, 88]
