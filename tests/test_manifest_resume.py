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
