"""Incremental crawl-snapshot ingest against a persisted content index.

The production shape of exact dedup at crawl scale is not "dedup one
table" but "dedup each NEW snapshot against every document ever kept":
the corpus's content hashes live in a persisted, hash-bucketed index,
and each ingest (a) drops snapshot rows whose content is already
indexed, (b) appends the survivors' hashes as a new index generation.
(Reference analog: the sync sink's first-writer-wins append,
``sync_to_onedrive.py:267-374``, re-shaped for a corpus that no longer
fits any single writer's view.)

Scale contract (the part that matters at 10^12 documents):

- The index is parquet, hive-partitioned on ``bucket = hash(h) % B``
  with ``B`` fixed at build time and recorded in the manifest. It is
  NEVER shipped through an exchange: the snapshot's (hash, id) rows —
  16-byte keys, no bodies — are exchanged once, co-partitioned by the
  SAME bucket function, and each bucket task streams only ITS bucket's
  index fragments off storage (columns=["h"]). Ingest I/O is therefore
  O(index/B) per task and snapshot-sized on the wire, not corpus-sized.
- Appends follow the IVF index protocol (``similarity.py:263-345``):
  fragments land in a uuid-unique generation directory, each written
  atomically (tmp + os.replace, so task retries converge), and become
  visible only via the atomic manifest bump. A crash between fragment
  write and manifest commit leaves an orphan directory that no reader
  ever lists.
- The accepted set is materialized before the manifest commit — the
  commit must observe completed fragment writes. That set is bounded
  by the NEW snapshot's unique content, never by the corpus.
"""

from __future__ import annotations

import os
import tempfile
import uuid

import numpy as np
import pandas as pd
import ray.data

from pdf_extractor_ray import joins
from pdf_extractor_ray.kernels import hashing
from pdf_extractor_ray.ops import keep_first
from pdf_extractor_ray.state import index_manifest

DEFAULT_NUM_BUCKETS = 64


def _bucket_of(hashes: pd.Series, num_buckets: int) -> np.ndarray:
    """Stable bucket id from the hex content hash: first 8 bytes as a
    big-endian integer, mod B. Must never change for a given index —
    it is the on-disk partitioning function."""
    return np.array(
        [int(h[:16], 16) % num_buckets for h in hashes], dtype=np.int64
    )


def _read_manifest(index_dir: str) -> dict:
    # strict: no glob fallback — a content index without a manifest was
    # never published, and globbing would resurrect orphan generations
    return index_manifest.read_manifest(index_dir)


def _bucket_files(index_dir: str, manifest: dict) -> dict[int, list[str]]:
    """manifest['files'] (relpaths ``.../bucket=N/....parquet``) grouped
    by bucket id, as absolute paths."""
    out: dict[int, list[str]] = {}
    for rel in manifest["files"]:
        part = [s for s in rel.split(os.sep) if s.startswith("bucket=")]
        b = int(part[0].split("=", 1)[1])
        out.setdefault(b, []).append(os.path.join(index_dir, rel))
    return out


_rel_fragments = index_manifest.rel_fragments
_commit_manifest = index_manifest.commit_manifest


def _hash_stage(text_col: str, num_buckets: int):
    """map_batches stage: text → (h, __ib), body dropped. Everything
    downstream of this point moves 32-byte hex keys, not documents."""

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["h"] = b[text_col].map(hashing.content_hash)
        b["__ib"] = _bucket_of(b["h"], num_buckets)
        return b.drop(columns=[text_col])

    return fn


def build_content_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> None:
    """Create the index from an existing corpus: distinct content
    hashes, hive-partitioned on bucket. Builds into a unique temp dir
    and publishes with ONE atomic rename (crash mid-build can never
    leave a directory that looks complete); first rename wins if two
    builders race."""
    import shutil

    hashed = ds.map_batches(_hash_stage(text_col, num_buckets), batch_format="pandas")

    # distinct on the hash, re-deriving the bucket for the survivors
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b[["h", "__ib"]].drop_duplicates("h")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        # rename here, not via Dataset.rename_columns — Ray 2.49 fuses
        # that into the pandas-format stage and applies the Arrow path
        return g.drop_duplicates("h").rename(columns={"__ib": "bucket"})

    uniq = (
        hashed.map_batches(partial, batch_format="pandas")
        .groupby("__ib")
        .map_groups(final, batch_format="pandas")
    )

    parent = os.path.dirname(os.path.abspath(index_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=os.path.basename(index_dir) + ".building-", dir=parent)
    try:
        uniq.write_parquet(os.path.join(tmp_dir, "data", "gen-0"), partition_cols=["bucket"])
        _commit_manifest(
            tmp_dir,
            {
                "version": 1,
                "num_buckets": int(num_buckets),
                "files": _rel_fragments(tmp_dir, "data"),
            },
        )
        os.rename(tmp_dir, index_dir)
    except OSError:
        # on Linux, renaming onto an existing non-empty dir raises
        # ENOTEMPTY (not FileExistsError): if a complete index is
        # already published, another builder won the race — identical
        # content by construction, discard ours (the IVF builder's
        # handler, similarity.py)
        if os.path.exists(index_manifest.manifest_path(index_dir)):
            shutil.rmtree(tmp_dir, ignore_errors=True)
        else:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise


def ingest_snapshot(
    snap: ray.data.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Ingest one snapshot: returns the ACCEPTED rows (content unseen by
    the index, intra-snapshot first-writer-wins on ``id_col``) with the
    snapshot's non-text columns, and appends their hashes to the index.

    Idempotent: re-ingesting the same snapshot accepts nothing and
    leaves the manifest unchanged (an all-empty generation is not
    committed)."""
    manifest = _read_manifest(index_dir)
    num_buckets = int(manifest["num_buckets"])
    files_ref = ray.put(_bucket_files(index_dir, manifest))

    hashed = snap.map_batches(_hash_stage(text_col, num_buckets), batch_format="pandas")
    # intra-snapshot dedup: one exchange on the 16-byte key, hot-key
    # bounded by keep_first's per-batch partial
    survivors = keep_first(hashed, ["h"], id_col, num_buckets=num_buckets)

    gen = os.path.join("data", f"gen-{uuid.uuid4().hex[:12]}")
    gen_abs = os.path.join(index_dir, gen)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        """One index bucket: anti-join the group's hashes against the
        bucket's committed fragments (streamed here, never exchanged),
        write the accepted hashes as this generation's fragment."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        bucket = int(g["__ib"].iloc[0])
        seen_parts = [
            pq.read_table(p, columns=["h"]).column("h").to_numpy(zero_copy_only=False)
            for p in joins._cached_get(files_ref).get(bucket, [])
        ]
        if seen_parts:
            seen = np.concatenate(seen_parts)
            g = g[~np.isin(g["h"].to_numpy(), seen)]
        if len(g):
            os.makedirs(os.path.join(gen_abs, f"bucket={bucket}"), exist_ok=True)
            final_path = os.path.join(gen_abs, f"bucket={bucket}", "part-0.parquet")
            tmp_path = final_path + f".tmp-{uuid.uuid4().hex[:8]}"
            pq.write_table(
                pa.table({"h": pa.array(g["h"], pa.string())}), tmp_path
            )
            os.replace(tmp_path, final_path)  # retrying tasks converge
        return g.drop(columns=["h"])

    accepted = (
        survivors.groupby("__ib")
        .map_groups(resolve, batch_format="pandas")
        .drop_columns(["__ib"])
        .materialize()  # commit must observe completed fragment writes
    )
    new_files = _rel_fragments(index_dir, gen)
    if new_files:
        manifest = dict(manifest)
        manifest["files"] = sorted(manifest["files"] + new_files)
        _commit_manifest(index_dir, manifest)
    # Known Ray 2.49 limitation: a zero-row result (re-ingest of a
    # fully-seen snapshot) loses its schema — Ray drops all-empty
    # blocks, and even from_arrow over a typed empty table reports no
    # columns. Callers that union the accepted set with other data
    # must guard on count()==0 first.
    return accepted


# ----------------------------------------------------------- query
# Deterministic split of the documents table into "prior corpus"
# (doc_id % 3 != 0) and "new snapshot" (doc_id % 3 == 0): the planted
# duplicate texts straddle the split, so the snapshot contains all
# three ingest cases (content already in prior, intra-snapshot dups,
# genuinely new). doc_id is non-negative by testdata construction
# (numpy % and SQL % agree only then — see corpus.PACK_SQL note).


def ingest_snapshot_documents(sf_dir: str) -> ray.data.Dataset:
    """Build a fresh index from the prior split, ingest the snapshot
    split, return the accepted rows. The index is built per call in a
    throwaway dir (a cached one would already contain the snapshot and
    accept nothing on the second call); production owns a long-lived
    ``index_dir`` across snapshots."""
    import shutil

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    path = os.path.join(sf_dir, "documents.parquet")

    def split(keep_mod0: bool):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            m = (b["doc_id"] % 3 == 0) if keep_mod0 else (b["doc_id"] % 3 != 0)
            return b[m]

        return fn

    index_dir = os.path.join(
        tempfile.mkdtemp(prefix="ingest_q_"), "content_index"
    )
    try:
        prior = ray.data.read_parquet(path, columns=["doc_id", "text"]).map_batches(
            split(False), batch_format="pandas"
        )
        build_content_index(prior, index_dir)
        snap = ray.data.read_parquet(path, columns=cols).map_batches(
            split(True), batch_format="pandas"
        )
        return ingest_snapshot(snap, index_dir)
    finally:
        shutil.rmtree(os.path.dirname(index_dir), ignore_errors=True)


INGEST_SNAPSHOT_SQL = """
WITH prior AS (
    SELECT text FROM documents WHERE doc_id % 3 <> 0
),
snap AS (
    SELECT doc_id, lang, source, n_chars, text FROM documents WHERE doc_id % 3 = 0
)
SELECT doc_id, lang, source, n_chars FROM snap
WHERE NOT EXISTS (SELECT 1 FROM prior WHERE prior.text = snap.text)
QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1
"""


# ---------------------------------------------------------------------------
# Schema-evolution-tolerant ingestion (mixed-generation parquet shards)
# ---------------------------------------------------------------------------


def schema_evolution_documents(sf_dir: str) -> "ray.data.Dataset":
    """Mixed-schema shard ingestion: the corpus re-serialized as two
    parquet generations — a NEW shard (even ids: doc_id, lang, text)
    and an OLD shard missing the ``lang`` column (odd ids) — read back
    per shard, normalized to the unified schema (missing column filled
    with ``''``), unioned → ``(doc_id, lang, n_chars)``. Every
    long-lived crawl hits this (a year of shards spans schema
    versions); reading them in ONE read_parquet call fails or silently
    casts, so per-generation read + normalize + union IS the pattern.
    Zero shuffle."""
    import hashlib
    import os
    import shutil

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data

    src = os.path.realpath(os.path.join(sf_dir, "documents.parquet"))
    # The two generations are written once per version of the source:
    # the directory is named for its full path and for its size and
    # mtime, filled under a temporary name and renamed into place, so a
    # reader never sees a half-written generation and a changed source
    # never reuses a stale one. Writing a new version removes the older
    # versions of the same source, with any temporary directory a crash
    # left behind for them.
    st = os.stat(src)

    def key(text: str) -> str:
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()

    root = tempfile.gettempdir()
    source_prefix = f"pdfx_schema_gen_{key(src)}_"
    name = source_prefix + key(f"{st.st_size}\0{st.st_mtime_ns}")
    gen_dir = os.path.join(root, name)
    new_path = os.path.join(gen_dir, "gen2.parquet")
    old_path = os.path.join(gen_dir, "gen1.parquet")
    if not os.path.isdir(gen_dir):
        t = pq.read_table(src, columns=["doc_id", "lang", "text"])
        ids = t.column("doc_id").to_numpy()
        tmp = tempfile.mkdtemp(prefix=name + ".", dir=root)
        pq.write_table(t.filter(ids % 2 == 0), os.path.join(tmp, "gen2.parquet"))
        pq.write_table(
            t.filter(ids % 2 == 1).select(["doc_id", "text"]),  # lang not yet invented
            os.path.join(tmp, "gen1.parquet"),
        )
        try:
            os.rename(tmp, gen_dir)
        except OSError:  # another caller renamed its copy into place first
            shutil.rmtree(tmp, ignore_errors=True)
        for entry in os.listdir(root):
            if entry.startswith(source_prefix) and not entry.startswith(name):
                shutil.rmtree(os.path.join(root, entry), ignore_errors=True)

    def normalize(has_lang: bool):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": b["doc_id"].to_numpy(np.int64),
                    "lang": (
                        b["lang"].astype(object)
                        if has_lang
                        else pd.Series([""] * len(b), dtype="object")
                    ),
                    "n_chars": pd.Series(
                        [len(x) for x in b["text"]], dtype="int64"
                    ),
                }
            )

        return fn

    new_ds = ray.data.read_parquet(new_path).map_batches(
        normalize(True), batch_format="pandas"
    )
    old_ds = ray.data.read_parquet(old_path).map_batches(
        normalize(False), batch_format="pandas"
    )
    return new_ds.union(old_ds)


SCHEMA_EVOLUTION_SQL = """
SELECT doc_id,
       CASE WHEN doc_id % 2 = 0 THEN lang ELSE '' END AS lang,
       CAST(len(text) AS BIGINT) AS n_chars
FROM documents
"""
