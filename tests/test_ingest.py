"""Incremental snapshot ingest: index lifecycle contracts.

Oracle parity for ``ingest_snapshot_documents`` runs in
tests/test_oracle_parity.py; these tests pin the parts SQL can't see —
idempotence, cross-snapshot increments, and the manifest-only read
contract that makes a crash between fragment write and manifest commit
harmless."""

import glob
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from pdf_extractor_ray.pipelines import ingest


def _docs(rows: list[tuple[int, str]]) -> ray.data.Dataset:
    return ray.data.from_pandas(
        pd.DataFrame({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    )


def _manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return json.load(f)


def test_ingest_lifecycle(tmp_path):
    index_dir = str(tmp_path / "idx")
    ingest.build_content_index(_docs([(1, "alpha"), (2, "beta")]), index_dir, num_buckets=8)
    base_files = set(_manifest(index_dir)["files"])
    assert base_files, "build must commit fragments"

    # snapshot: one prior dup, one intra-snapshot dup pair, one new
    snap = _docs([(10, "alpha"), (11, "gamma"), (12, "gamma"), (13, "delta")])
    got = ingest.ingest_snapshot(snap, index_dir).to_pandas()
    assert sorted(got["doc_id"]) == [11, 13]  # min-id wins the gamma pair
    after_first = set(_manifest(index_dir)["files"])
    assert after_first > base_files

    # idempotence: same snapshot again → nothing accepted, manifest unchanged
    again = ingest.ingest_snapshot(snap, index_dir).to_pandas()
    assert len(again) == 0  # (Ray 2.49 drops schema on all-empty results)
    assert set(_manifest(index_dir)["files"]) == after_first

    # second snapshot: overlaps prior ('beta'), overlaps snapshot 1
    # ('gamma'), plus fresh content → only the fresh row is accepted
    snap2 = _docs([(20, "beta"), (21, "gamma"), (22, "epsilon")])
    got2 = ingest.ingest_snapshot(snap2, index_dir).to_pandas()
    assert sorted(got2["doc_id"]) == [22]


def test_orphan_generation_is_invisible(tmp_path):
    """A crash between fragment write and manifest commit leaves an
    orphan gen dir; readers list only manifest files, so content that
    exists ONLY in the orphan is still accepted by the next ingest."""
    index_dir = str(tmp_path / "idx")
    ingest.build_content_index(_docs([(1, "alpha")]), index_dir, num_buckets=4)

    # simulate the crash: a fully-written fragment, never committed
    from pdf_extractor_ray.kernels.hashing import content_hash

    h = content_hash("orphaned-content")
    bucket = int(h[:16], 16) % 4
    orphan = os.path.join(index_dir, "data", "gen-orphan", f"bucket={bucket}")
    os.makedirs(orphan)
    pq.write_table(pa.table({"h": pa.array([h], pa.string())}), os.path.join(orphan, "part-0.parquet"))
    assert not any("gen-orphan" in f for f in _manifest(index_dir)["files"])

    got = ingest.ingest_snapshot(_docs([(5, "orphaned-content")]), index_dir).to_pandas()
    assert sorted(got["doc_id"]) == [5]


def test_fragment_write_is_atomic_per_bucket(tmp_path):
    """Each committed generation holds exactly one fragment per
    non-empty bucket with a final (non-tmp) name — the deterministic
    filename + os.replace contract that makes task retries converge."""
    index_dir = str(tmp_path / "idx")
    ingest.build_content_index(_docs([(1, "alpha")]), index_dir, num_buckets=4)
    ingest.ingest_snapshot(_docs([(2, "beta"), (3, "gamma")]), index_dir)
    frags = glob.glob(os.path.join(index_dir, "data", "gen-*", "bucket=*", "*"))
    assert frags and all(f.endswith(".parquet") for f in frags)
    committed = set(_manifest(index_dir)["files"])
    # exclude exactly the build generation (path COMPONENT, not a
    # substring — an ingest uuid starting '0' must not match)
    gen_frags = {
        os.path.relpath(f, index_dir)
        for f in frags
        if (os.sep + "gen-0" + os.sep) not in f
    }
    assert gen_frags and gen_frags <= committed


def test_build_publish_race_loser_yields(tmp_path):
    """A builder that loses the publish race (index already complete)
    discards its copy silently — on Linux the rename raises
    OSError(ENOTEMPTY), not FileExistsError."""
    index_dir = str(tmp_path / "idx")
    ingest.build_content_index(_docs([(1, "alpha")]), index_dir, num_buckets=4)
    before = _manifest(index_dir)
    ingest.build_content_index(_docs([(1, "alpha")]), index_dir, num_buckets=4)  # must not raise
    assert _manifest(index_dir) == before
    assert not [d for d in os.listdir(os.path.dirname(index_dir)) if ".building-" in d]


def _write_documents(sf_dir, ids: list[int]) -> None:
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(["en"] * len(ids)),
                "text": pa.array(["x" * i for i in ids]),
            }
        ),
        os.path.join(sf_dir, "documents.parquet"),
    )


def test_schema_evolution_generations_keyed_on_source(tmp_path, monkeypatch):
    """Two sources whose directories share a name get their own
    generations, a generation is written once, by rename, and a new
    version of a source replaces its old generations."""
    import tempfile

    gen_root = tmp_path / "tmp"
    gen_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(gen_root))
    a, b = tmp_path / "a" / "sf", tmp_path / "b" / "sf"
    _write_documents(a, [0, 1, 2, 3])
    _write_documents(b, [10, 11, 12])
    assert sorted(ingest.schema_evolution_documents(str(a)).to_pandas()["doc_id"]) == [0, 1, 2, 3]
    (gen_a,) = os.listdir(gen_root)  # no temp dir left
    assert sorted(ingest.schema_evolution_documents(str(b)).to_pandas()["doc_id"]) == [10, 11, 12]
    (gen_b,) = set(os.listdir(gen_root)) - {gen_a}
    assert "." not in gen_a and "." not in gen_b
    written = {p: os.stat(p).st_mtime_ns for p in glob.glob(str(gen_root / "*" / "*.parquet"))}
    ingest.schema_evolution_documents(str(a))  # same source: nothing rewritten
    assert {p: os.stat(p).st_mtime_ns for p in written} == written
    os.makedirs(gen_root / (gen_a + ".crashed"))  # temp dirs a crash left behind
    os.makedirs(gen_root / (gen_b + ".crashed"))
    _write_documents(a, [5, 6])  # a changed source gets a new generation
    assert sorted(ingest.schema_evolution_documents(str(a)).to_pandas()["doc_id"]) == [5, 6]
    assert {gen_b, gen_b + ".crashed"} <= set(os.listdir(gen_root))  # b's are kept
    (new_a,) = set(os.listdir(gen_root)) - {gen_b, gen_b + ".crashed"}
    assert new_a != gen_a and "." not in new_a  # a's old generation and debris are gone
