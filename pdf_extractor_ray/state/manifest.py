"""Checkpoint manifest + resumable partitioned runs (SURVEY.md §4.5).

Generalizes the reference's skip-if-output-exists resume
(``pdf_extractor/cli.py:46-51``: skip a document when both outputs exist
and are non-empty) from per-file to per-partition with exactly-once
commit semantics:

- a *partition* is a group of input parquet files (resume granularity);
- output is written to ``<out>/part=<pid>.tmp`` then atomically renamed
  to ``<out>/part=<pid>`` — a crash mid-write leaves only a tmp dir that
  the next run clobbers;
- after the rename, one JSON line is appended to
  ``<out>/MANIFEST/manifest.jsonl``: partition id, input files, content
  hash of the input fileset, row/status counts, docs-per-sec, wall
  seconds, commit timestamp (the lineage record of the north rule);
- on restart the driver loads the manifest and anti-joins the input
  partition list (the J5 resume anti-join of SURVEY.md §2.5) — only
  uncommitted partitions run.

At 100 TB: partitions map to input shards (e.g. one WARC-derived
parquet directory each); the manifest stays tiny (one line per
partition) and the anti-join is a driver-side set difference.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from pdf_extractor_ray.kernels.hashing import content_hash


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


def run_partitioned_extraction(
    input_paths: list[str],
    out_dir: str,
    *,
    files_per_partition: int = 1,
    batch_size: int = 256,
    fail_after_partitions: int | None = None,
) -> dict:
    """Resumable flagship run: skip committed partitions, process the
    rest, commit each atomically. Returns run summary.

    ``fail_after_partitions`` is a fault-injection hook for the
    kill/restart test (simulates a crash between partitions).
    """
    import pyarrow.compute as pc

    from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline

    from pdf_extractor_ray.state.metrics import start_collector

    manifest = Manifest(out_dir)
    done = manifest.committed()
    parts = partition_inputs(input_paths, files_per_partition)
    collector = start_collector()  # per-worker metrics sink (north rule)
    ran, skipped = [], []
    for pid, group in parts.items():
        if pid in done and done[pid].get("content_hash") == fileset_hash(group):
            skipped.append(pid)
            continue
        if fail_after_partitions is not None and len(ran) >= fail_after_partitions:
            raise RuntimeError(f"injected failure after {fail_after_partitions} partitions")
        t0 = time.monotonic()
        final = os.path.join(out_dir, f"part={pid}")
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        ds = build_extraction_pipeline(group, batch_size=batch_size, metrics_collector=collector)
        ds.write_parquet(tmp)
        # per-partition metrics from the written output (cheap re-scan of
        # status/n_bytes columns only)
        import pyarrow.dataset as pads

        written = pads.dataset(tmp).to_table(columns=["status", "n_bytes"])
        n_rows = written.num_rows
        status = written.column("status")
        n_ok = pc.sum(pc.equal(status, "ok").cast("int64")).as_py() or 0
        n_quar = pc.sum(pc.starts_with(status, "quarantined").cast("int64")).as_py() or 0
        # quarantine sink (SURVEY.md §7.1): quarantined rows ALSO land in
        # a dedicated directory for triage/replay — they stay in the main
        # output too (never silently dropped from the row count).
        if n_quar:
            import pyarrow.parquet as papq

            qtab = pads.dataset(tmp).to_table(
                filter=pads.field("status").isin(
                    [s for s in set(status.to_pylist()) if s.startswith("quarantined")]
                )
            )
            qdir = os.path.join(out_dir, "quarantine")
            os.makedirs(qdir, exist_ok=True)
            papq.write_table(qtab, os.path.join(qdir, f"part-{pid}.parquet"))
        wall = time.monotonic() - t0
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        import ray as _ray

        try:
            # fire-and-forget reports racing this drain may slip into
            # the next partition's bucket (bounded-ms skew; see
            # metrics.start_collector docstring)
            worker_metrics = _ray.get(collector.drain.remote(), timeout=10)
        except Exception:  # metrics plane never fails the data plane
            worker_metrics = []
        try:
            events = _ray.get(collector.drain_events.remote(), timeout=10)
        except Exception:
            events = []
        manifest.commit(
            {
                "partition_id": pid,
                "worker_metrics": worker_metrics,
                "events": events,
                "input_files": group,
                "content_hash": fileset_hash(group),
                "output_path": final,
                "n_rows": n_rows,
                "n_ok": int(n_ok),
                "n_quarantined": int(n_quar),
                "n_bytes": int(pc.sum(written.column("n_bytes")).as_py() or 0),
                "wall_s": round(wall, 3),
                "docs_per_sec": round(n_rows / wall, 2) if wall > 0 else None,
                "committed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            }
        )
        ran.append(pid)
    return {"ran": ran, "skipped": skipped, "total_partitions": len(parts)}
