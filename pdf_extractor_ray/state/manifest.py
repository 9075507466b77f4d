"""Checkpoint manifest + resumable partitioned runs (SURVEY.md §4.5).

Generalizes the reference's skip-if-output-exists resume
(``pdf_extractor/cli.py:46-51``: skip a document when both outputs exist
and are non-empty) from per-file to per-partition with exactly-once
commit semantics:

- a *partition* is a group of input parquet files (resume granularity);
- on start the driver loads the manifest and anti-joins the input
  partition list (the J5 resume anti-join of SURVEY.md §2.5) — only
  uncommitted partitions run;
- all pending partitions run in ONE streaming Ray Data execution:
  ``read_parquet(include_paths=True)`` sized from the Parquet footers
  (``pipelines.flagship.read_pages``) → one ``map_batches`` stage that
  extracts each batch, splits it by partition, writes
  ``<out>/part=<pid>.tmp/<uuid>.parquet`` (quarantined rows also to
  ``part=<pid>.tmp/_quarantine/<uuid>.parquet``) and returns one small
  count row per partition;
- the driver consumes the count rows on its own thread
  (``prefetch_batches=0``, so no block is held back) and sums them per
  partition. When a partition's sum reaches its footer row count it
  deletes the part files no count row names (left by retried task
  attempts), concatenates ``_quarantine`` into
  ``<out>/quarantine/part-<pid>.parquet``, renames ``part=<pid>.tmp``
  to ``part=<pid>`` and appends one JSON line to
  ``<out>/MANIFEST/manifest.jsonl``: partition id, input files, content
  hash of the input fileset, row/status counts, per-worker metrics
  from the partition's own count rows, commit timestamp (the lineage
  record of the north rule). A crash before the append leaves at most
  a tmp dir that the next run clobbers.

At 100 TB: partitions map to input shards (e.g. one WARC-derived
parquet directory each); the manifest stays tiny (one line per
partition) and the anti-join is a driver-side set difference.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_extractor_ray.kernels.hashing import content_hash
from pdf_extractor_ray.stages.extract import extract_all_batch
from pdf_extractor_ray.stages.schema import EXTRACTION_SCHEMA


class Manifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.dir = os.path.join(out_dir, "MANIFEST")
        self.path = os.path.join(self.dir, "manifest.jsonl")
        os.makedirs(self.dir, exist_ok=True)

    def committed(self) -> dict[str, dict]:
        """partition_id → manifest entry (last writer wins)."""
        out: dict[str, dict] = {}
        if not os.path.exists(self.path):
            return out
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from a crash mid-append
                out[entry["partition_id"]] = entry
        return out

    def commit(self, entry: dict) -> None:
        """Single-writer append; the rename below the caller already did
        makes the data durable before the manifest line exists."""
        with open(self.path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())


def partition_inputs(paths: list[str], files_per_partition: int = 1) -> dict[str, list[str]]:
    """Deterministic partition id → input file group (sorted paths)."""
    paths = sorted(paths)
    parts: dict[str, list[str]] = {}
    for i in range(0, len(paths), files_per_partition):
        group = paths[i : i + files_per_partition]
        pid = f"{i // files_per_partition:05d}"
        parts[pid] = group
    return parts


def fileset_hash(paths: list[str]) -> str:
    """Content hash of the input fileset identity (path + size + mtime —
    hashing 100 TB of bytes per partition would defeat the point; size
    and mtime catch file replacement)."""
    sig = []
    for p in sorted(paths):
        st = os.stat(p)
        sig.append(f"{p}|{st.st_size}|{int(st.st_mtime)}")
    return content_hash("\n".join(sig))


# one row per (batch, partition) returned by ``write_partition_parts``
COUNT_SCHEMA = pa.schema(
    [
        ("pid", pa.string()),
        ("file", pa.string()),
        ("n_rows", pa.int64()),
        ("n_ok", pa.int64()),
        ("n_quarantined", pa.int64()),
        ("n_bytes", pa.int64()),
        ("worker_id", pa.int64()),
        ("seconds", pa.float64()),
    ]
)


def write_partition_parts(batch: pa.Table, out_dir: str, pid_of: dict[str, str]) -> pa.Table:
    """Map stage of the partitioned run: extract one ``(url, html,
    path)`` batch, write each partition's rows (and its quarantined
    rows) to a new file under ``part=<pid>.tmp``, and return one count
    row per partition. A batch can hold rows of two files, so it is
    split by ``pid_of[path]`` first."""
    paths = batch.column("path")
    groups: dict[str, list[str]] = {}
    for path in pc.unique(paths).to_pylist():
        groups.setdefault(pid_of[path], []).append(path)
    counts = []
    for pid, pid_paths in groups.items():
        rows = batch if len(groups) == 1 else batch.filter(pc.is_in(paths, pa.array(pid_paths)))
        t0 = time.monotonic()
        out = extract_all_batch(rows)
        seconds = time.monotonic() - t0
        status = out.column("status")
        quarantined = pc.starts_with(status, "quarantined")
        n_quarantined = pc.sum(quarantined.cast("int64")).as_py() or 0
        tmp = os.path.join(out_dir, f"part={pid}.tmp")
        name = f"{uuid.uuid4().hex}.parquet"
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(out, os.path.join(tmp, name))
        if n_quarantined:
            os.makedirs(os.path.join(tmp, "_quarantine"), exist_ok=True)
            pq.write_table(out.filter(quarantined), os.path.join(tmp, "_quarantine", name))
        counts.append(
            {
                "pid": pid,
                "file": name,
                "n_rows": out.num_rows,
                "n_ok": pc.sum(pc.equal(status, "ok").cast("int64")).as_py() or 0,
                "n_quarantined": n_quarantined,
                "n_bytes": pc.sum(out.column("n_bytes")).as_py() or 0,
                "worker_id": os.getpid(),
                "seconds": seconds,
            }
        )
    return pa.Table.from_pylist(counts, schema=COUNT_SCHEMA)


def worker_metrics(counts: list[dict]) -> list[dict]:
    """One partition's count rows → one entry per (worker, stage)."""
    agg: dict[int, dict] = {}
    for c in counts:
        a = agg.setdefault(
            c["worker_id"],
            {"worker_id": c["worker_id"], "stage": "extract", "docs": 0, "bytes": 0, "failures": 0, "seconds": 0.0},
        )
        a["docs"] += c["n_rows"]
        a["bytes"] += c["n_bytes"]
        a["failures"] += c["n_quarantined"]
        a["seconds"] += c["seconds"]
    for a in agg.values():
        a["docs_per_sec"] = round(a["docs"] / a["seconds"], 1) if a["seconds"] > 0 else None
        a["seconds"] = round(a["seconds"], 3)
    return sorted(agg.values(), key=lambda a: (a["stage"], a["worker_id"]))


def _finish_partition(out_dir: str, pid: str, counts: list[dict]) -> None:
    """Turn ``part=<pid>.tmp`` into the committed ``part=<pid>``: drop
    files no count row names (a retried task attempt writes new ones),
    give an empty partition one empty file, move the quarantined rows
    to ``quarantine/part-<pid>.parquet``, then rename."""
    final = os.path.join(out_dir, f"part={pid}")
    tmp = final + ".tmp"
    qtmp = os.path.join(tmp, "_quarantine")
    os.makedirs(qtmp, exist_ok=True)
    named = {c["file"] for c in counts}
    quarantined = sorted(c["file"] for c in counts if c["n_quarantined"])
    for d, keep in ((tmp, named), (qtmp, set(quarantined))):
        for name in os.listdir(d):
            if name not in keep and os.path.isfile(os.path.join(d, name)):
                os.remove(os.path.join(d, name))
    if not named:
        pq.write_table(EXTRACTION_SCHEMA.empty_table(), os.path.join(tmp, "empty.parquet"))
    qfile = os.path.join(out_dir, "quarantine", f"part-{pid}.parquet")
    if quarantined:
        os.makedirs(os.path.dirname(qfile), exist_ok=True)
        pq.write_table(pa.concat_tables(pq.read_table(os.path.join(qtmp, f)) for f in quarantined), qfile)
    elif os.path.exists(qfile):
        os.remove(qfile)  # left by an earlier run of a changed input
    shutil.rmtree(qtmp)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)


def run_partitioned_extraction(
    input_paths: list[str],
    out_dir: str,
    *,
    files_per_partition: int = 1,
    batch_size: int = 256,
    fail_after_partitions: int | None = None,
) -> dict:
    """Resumable flagship run: skip committed partitions, process the
    rest in one streaming execution, commit each atomically as soon as
    all its rows are written. Returns run summary.

    ``fail_after_partitions`` is a fault-injection hook for the
    kill/restart test: run and commit the first N pending partitions,
    then raise (a crash between partitions).
    """
    import ray

    from pdf_extractor_ray.pipelines.flagship import read_footers, read_pages
    from pdf_extractor_ray.state.metrics import start_collector

    manifest = Manifest(out_dir)
    done = manifest.committed()
    parts = partition_inputs(input_paths, files_per_partition)
    collector = start_collector()  # operator events into the manifest
    pending, hashes, skipped = [], {}, []
    for pid, group in parts.items():
        hashes[pid] = fileset_hash(group)
        if pid in done and done[pid].get("content_hash") == hashes[pid]:
            skipped.append(pid)
        else:
            pending.append(pid)
    to_run = pending if fail_after_partitions is None else pending[:fail_after_partitions]

    footers, pid_of, expected = {}, {}, {}
    for pid in to_run:
        shutil.rmtree(os.path.join(out_dir, f"part={pid}.tmp"), ignore_errors=True)
        expected[pid] = 0
        for f, (rows, n_bytes) in read_footers([os.path.abspath(p) for p in parts[pid]]).items():
            expected[pid] += rows
            if rows:
                footers[f] = (rows, n_bytes)
                pid_of[f] = pid

    ran: list[str] = []
    last = time.monotonic()

    def commit(pid: str, counts: list[dict]) -> None:
        nonlocal last
        _finish_partition(out_dir, pid, counts)
        try:
            events = ray.get(collector.drain_events.remote(), timeout=10)
        except Exception:  # metrics plane never fails the data plane
            events = []
        now = time.monotonic()
        wall, last = now - last, now
        n_rows = sum(c["n_rows"] for c in counts)
        manifest.commit(
            {
                "partition_id": pid,
                "worker_metrics": worker_metrics(counts),
                "events": events,
                "input_files": parts[pid],
                "content_hash": hashes[pid],
                "output_path": os.path.join(out_dir, f"part={pid}"),
                "n_rows": n_rows,
                "n_ok": sum(c["n_ok"] for c in counts),
                "n_quarantined": sum(c["n_quarantined"] for c in counts),
                "n_bytes": sum(c["n_bytes"] for c in counts),
                "wall_s": round(wall, 3),
                "docs_per_sec": round(n_rows / wall, 2) if wall > 0 else None,
                "committed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            }
        )
        ran.append(pid)

    for pid in to_run:
        if expected[pid] == 0:
            commit(pid, [])
    counts: dict[str, list[dict]] = {pid: [] for pid in to_run}
    got = dict.fromkeys(to_run, 0)
    if footers:
        ds = read_pages(footers, batch_size=batch_size, include_paths=True).map_batches(
            write_partition_parts,
            batch_format="pyarrow",
            batch_size=batch_size,
            fn_kwargs={"out_dir": out_dir, "pid_of": pid_of},
        )
        # prefetch_batches=0: a prefetching iterator holds each block
        # until the next arrives, which delays every commit by one block
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None, prefetch_batches=0):
            for c in batch.to_pylist():
                pid = c["pid"]
                counts[pid].append(c)
                got[pid] += c["n_rows"]
                if got[pid] == expected[pid]:
                    commit(pid, counts[pid])
                elif got[pid] > expected[pid]:
                    raise RuntimeError(f"partition {pid}: {got[pid]} rows written, {expected[pid]} in its input")
    short = {pid: f"{got[pid]}/{expected[pid]}" for pid in to_run if pid not in ran}
    if short:
        raise RuntimeError(f"partitions ended short of their input rows: {short}")
    if len(to_run) < len(pending):
        raise RuntimeError(f"injected failure after {fail_after_partitions} partitions")
    return {"ran": ran, "skipped": skipped, "total_partitions": len(parts)}
