"""Resume/fault tests: a killed run restarts from the last committed
partition with no duplicated and no missing rows (SURVEY.md §5.2)."""

import os

import pyarrow.dataset as pads
import pytest

from pdf_extractor_ray.state.manifest import (
    Manifest,
    fileset_hash,
    partition_inputs,
    run_partitioned_extraction,
)


def _read_all(out_dir: str):
    import glob

    files = []
    for d in os.listdir(out_dir):
        if d.startswith("part=") and not d.endswith(".tmp"):
            files.extend(glob.glob(os.path.join(out_dir, d, "*.parquet")))
    return pads.dataset(sorted(files)).to_table()


def test_partition_inputs_deterministic(pages_corpus):
    a = partition_inputs(pages_corpus, 2)
    b = partition_inputs(list(reversed(pages_corpus)), 2)
    assert a == b
    assert sum(len(v) for v in a.values()) == len(pages_corpus)


def test_crash_and_resume_exactly_once(pages_corpus, goldens, tmp_path):
    out = str(tmp_path / "out")
    # run 1: crash after committing 2 of 4 partitions
    with pytest.raises(RuntimeError, match="injected failure"):
        run_partitioned_extraction(pages_corpus, out, fail_after_partitions=2)
    m = Manifest(out)
    assert len(m.committed()) == 2

    # run 2: resumes — skips the 2 committed, runs the remaining 2
    summary = run_partitioned_extraction(pages_corpus, out)
    assert sorted(summary["skipped"]) == sorted(m.committed().keys() - set(summary["ran"]))
    assert len(summary["ran"]) == 2
    assert len(summary["skipped"]) == 2

    # output: every input row exactly once, text still golden
    table = _read_all(out)
    assert table.num_rows == goldens.num_rows
    got = dict(zip(table.column("url").to_pylist(), table.column("extracted_text").to_pylist()))
    exp = dict(zip(goldens.column("url").to_pylist(), goldens.column("extracted_text").to_pylist()))
    assert got == exp

    # run 3: full resume — nothing left to do
    summary = run_partitioned_extraction(pages_corpus, out)
    assert summary["ran"] == []
    assert len(summary["skipped"]) == 4


def test_manifest_entries_carry_lineage_and_metrics(pages_corpus, tmp_path):
    out = str(tmp_path / "out2")
    run_partitioned_extraction(pages_corpus[:2], out, files_per_partition=2)
    entries = Manifest(out).committed()
    assert len(entries) == 1
    e = next(iter(entries.values()))
    assert e["content_hash"] == fileset_hash(pages_corpus[:2])
    for key in ("input_files", "n_rows", "n_ok", "n_quarantined", "docs_per_sec", "wall_s"):
        assert key in e
    assert e["n_rows"] > 0


def test_input_change_invalidates_partition(pages_corpus, tmp_path):
    out = str(tmp_path / "out3")
    run_partitioned_extraction(pages_corpus[:1], out)
    # tamper with the input file's mtime → content_hash changes → re-run
    os.utime(pages_corpus[0], (1, 1))
    summary = run_partitioned_extraction(pages_corpus[:1], out)
    assert summary["ran"] == ["00000"]


def test_worker_metrics_exported_to_manifest(pages_corpus, tmp_path):
    """Each partition's manifest entry carries per-worker (actor/task
    process) docs/bytes/failures/docs-per-sec breakdowns."""
    out = str(tmp_path / "metrics_out")
    run_partitioned_extraction(pages_corpus[:2], out, files_per_partition=1)
    entries = Manifest(out).committed()
    assert len(entries) == 2
    all_metrics = [m for e in entries.values() for m in e.get("worker_metrics", [])]
    assert all_metrics, "no worker metrics exported"
    total_docs = sum(m["docs"] for m in all_metrics)
    assert total_docs == sum(e["n_rows"] for e in entries.values())
    for e in entries.values():  # exact per partition, not only in total
        assert sum(m["docs"] for m in e["worker_metrics"]) == e["n_rows"]
        assert sum(m["failures"] for m in e["worker_metrics"]) == e["n_quarantined"]
    for m in all_metrics:
        assert {"worker_id", "stage", "docs", "bytes", "failures", "seconds", "docs_per_sec"} <= set(m)


def test_quarantine_sink_written(pages_corpus, tmp_path):
    """Quarantined rows land in a dedicated quarantine/ directory AND
    stay in the main output (counted, never dropped)."""
    import glob

    import pyarrow.dataset as pads2

    out = str(tmp_path / "qout")
    run_partitioned_extraction(pages_corpus, out, files_per_partition=2)
    qfiles = glob.glob(os.path.join(out, "quarantine", "*.parquet"))
    assert qfiles, "expected quarantine sink files"
    q = pads2.dataset(qfiles).to_table()
    assert q.num_rows > 0
    assert all(s.startswith("quarantined") for s in q.column("status").to_pylist())
    entries = Manifest(out).committed()
    assert sum(e["n_quarantined"] for e in entries.values()) == q.num_rows
    main = _read_all(out)
    assert main.num_rows == 300  # quarantined rows still present in main output


def test_empty_input_partition_commits(pages_corpus, tmp_path):
    """A zero-row input file is a partition of its own: it commits with
    one empty part file and n_rows 0, and the partitions after it run."""
    import shutil

    import pyarrow.parquet as pq

    from pdf_extractor_ray.sources.pages import generate_pages_table
    from pdf_extractor_ray.stages import EXTRACTION_SCHEMA

    empty = str(tmp_path / "a_empty.parquet")  # sorts first: partition 00000
    pq.write_table(generate_pages_table(0, seed=1), empty)
    pages = str(tmp_path / "b_pages.parquet")
    shutil.copy(pages_corpus[0], pages)
    out = str(tmp_path / "out_empty")
    summary = run_partitioned_extraction([empty, pages], out)
    assert sorted(summary["ran"]) == ["00000", "00001"]
    entries = Manifest(out).committed()
    assert entries["00000"]["n_rows"] == 0
    assert entries["00000"]["worker_metrics"] == []
    empty_part = pads.dataset(os.path.join(out, "part=00000")).to_table()
    assert empty_part.num_rows == 0 and empty_part.schema.equals(EXTRACTION_SCHEMA)
    assert entries["00001"]["n_rows"] == pq.read_metadata(pages).num_rows
    assert _read_all(out).num_rows == entries["00001"]["n_rows"]
    assert run_partitioned_extraction([empty, pages], out)["ran"] == []


def test_batches_straddle_partitions(tmp_path):
    """5-row partitions with batch_size=7: a batch would hold rows of two
    files if it could, yet every row lands once, in its own partition,
    with the oracle's text."""
    import collections

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.oracle import oracle_extract_table
    from pdf_extractor_ray.sources.pages import write_pages_corpus

    paths = write_pages_corpus(str(tmp_path / "small"), n_rows=30, n_files=6, seed=3)
    out = str(tmp_path / "out_straddle")
    run_partitioned_extraction(paths, out, batch_size=7)
    entries = Manifest(out).committed()
    assert len(entries) == 6
    for pid, (path,) in partition_inputs(paths).items():
        own = set(pq.read_table(path).column("url").to_pylist())
        for name in os.listdir(os.path.join(out, f"part={pid}")):
            part_file = pq.read_table(os.path.join(out, f"part={pid}", name))
            assert set(part_file.column("url").to_pylist()) <= own, f"part={pid}/{name} holds another partition's rows"
        part = pads.dataset(os.path.join(out, f"part={pid}")).to_table()
        assert entries[pid]["n_rows"] == pq.read_metadata(path).num_rows == part.num_rows == 5
        assert sorted(part.column("url").to_pylist()) == sorted(pq.read_table(path).column("url").to_pylist())
        assert sum(m["docs"] for m in entries[pid]["worker_metrics"]) == 5
    pages = pa.concat_tables([pq.read_table(p) for p in paths])
    table = _read_all(out)
    assert collections.Counter(table.column("url").to_pylist()) == collections.Counter(pages.column("url").to_pylist())
    exp = oracle_extract_table(pages)
    assert dict(zip(table.column("url").to_pylist(), table.column("extracted_text").to_pylist())) == dict(
        zip(exp.column("url").to_pylist(), exp.column("extracted_text").to_pylist())
    )


def test_small_row_groups_in_two_file_partitions(tmp_path):
    """Two files per partition, row groups of 3 rows and batch_size=7:
    batches cross row groups but never a file or a partition, each
    10-row file gives ceil(10 / 7) part files whatever its row groups,
    and every row lands once, in its own partition, with the oracle's
    text and the manifest's sums."""
    import collections

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.oracle import oracle_extract_table
    from pdf_extractor_ray.sources.pages import generate_pages_table

    table = generate_pages_table(40, seed=9)
    paths = []
    for i in range(4):
        paths.append(str(tmp_path / f"pages_{i}.parquet"))
        pq.write_table(table.slice(10 * i, 10), paths[-1], row_group_size=3)
    out = str(tmp_path / "out_rg")
    run_partitioned_extraction(paths, out, files_per_partition=2, batch_size=7)
    entries = Manifest(out).committed()
    parts = partition_inputs(paths, 2)
    assert sorted(entries) == sorted(parts) == ["00000", "00001"]
    exp = oracle_extract_table(table)
    exp_text = dict(zip(exp.column("url").to_pylist(), exp.column("extracted_text").to_pylist()))
    for pid, group in parts.items():
        own = pa.concat_tables([pq.read_table(p) for p in group]).column("url").to_pylist()
        part = pads.dataset(os.path.join(out, f"part={pid}")).to_table()
        assert collections.Counter(part.column("url").to_pylist()) == collections.Counter(own)
        assert dict(zip(part.column("url").to_pylist(), part.column("extracted_text").to_pylist())) == {
            u: exp_text[u] for u in own
        }
        status = part.column("status").to_pylist()
        e = entries[pid]
        assert e["n_rows"] == part.num_rows == 20
        assert e["n_ok"] == status.count("ok")
        assert e["n_quarantined"] == sum(s.startswith("quarantined") for s in status)
        assert e["n_bytes"] == sum(part.column("n_bytes").to_pylist())
        assert sum(m["docs"] for m in e["worker_metrics"]) == 20
        assert sum(m["failures"] for m in e["worker_metrics"]) == e["n_quarantined"]
        files = {p: set(pq.read_table(p).column("url").to_pylist()) for p in group}
        sizes = []
        for name in os.listdir(os.path.join(out, f"part={pid}")):
            part_file = pq.read_table(os.path.join(out, f"part={pid}", name))
            urls = set(part_file.column("url").to_pylist())
            assert any(urls <= u for u in files.values()), f"part={pid}/{name} holds rows of two files"
            sizes.append(part_file.num_rows)
        assert sorted(sizes) == [3, 3, 7, 7]
    assert _read_all(out).num_rows == 40


def test_stray_part_files_dropped_at_commit(pages_corpus, tmp_path, monkeypatch):
    """A retried task attempt leaves part files that no count row names;
    the commit deletes them, so every row appears exactly once in the
    output and in the quarantine sink."""
    import collections
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.state import manifest as manifest_mod

    finish = manifest_mod._finish_partition

    def plant_then_finish(out_dir, pid, counts):
        tmp = os.path.join(out_dir, f"part={pid}.tmp")
        named = sorted(c["file"] for c in counts)
        shutil.copy(os.path.join(tmp, named[0]), os.path.join(tmp, "stray-attempt.parquet"))
        qtmp = os.path.join(tmp, "_quarantine")
        os.makedirs(qtmp, exist_ok=True)
        quarantined = sorted(c["file"] for c in counts if c["n_quarantined"])
        if quarantined:
            shutil.copy(os.path.join(qtmp, quarantined[0]), os.path.join(qtmp, "stray-attempt.parquet"))
        finish(out_dir, pid, counts)

    monkeypatch.setattr(manifest_mod, "_finish_partition", plant_then_finish)
    out = str(tmp_path / "out_stray")
    run_partitioned_extraction(pages_corpus, out, batch_size=7)
    pages = pa.concat_tables([pq.read_table(p) for p in pages_corpus])
    table = _read_all(out)
    assert collections.Counter(table.column("url").to_pylist()) == collections.Counter(pages.column("url").to_pylist())
    for name in os.listdir(out):
        if name.startswith("part="):
            assert "stray-attempt.parquet" not in os.listdir(os.path.join(out, name))
    quarantined = sorted(
        u for u, s in zip(table.column("url").to_pylist(), table.column("status").to_pylist()) if s.startswith("quarantined")
    )
    sink = pads.dataset(os.path.join(out, "quarantine")).to_table()
    assert quarantined and sorted(sink.column("url").to_pylist()) == quarantined
    entries = Manifest(out).committed()
    assert sum(e["n_rows"] for e in entries.values()) == table.num_rows
