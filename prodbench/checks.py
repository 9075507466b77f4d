"""Ray-free checks of a committed partitioned output against planted truth.

A committed output directory (``state.manifest.run_partitioned_extraction``)
holds ``part=<pid>/`` parquet parts, ``quarantine/part-<pid>.parquet``
and ``MANIFEST/manifest.jsonl``. Every check returns error strings; an
empty list means the check passed. Rows of the planted ``sniff_fault``
class that come out wrong are counted as failed operations, not errors.
"""

from __future__ import annotations

import collections
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from gen import SNIFF_FAULT

COLUMNS = ["url", "kind", "status", "extracted_text"]
_MAX_REPORTED = 5


def read_parts(out_dir: str) -> dict[str, pa.Table]:
    """Partition id → its committed rows."""
    parts = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("part="):
            parts[name[len("part="):]] = pq.read_table(os.path.join(out_dir, name), columns=COLUMNS)
    return parts


def read_quarantine(out_dir: str) -> pa.Table | None:
    qdir = os.path.join(out_dir, "quarantine")
    if not os.path.isdir(qdir):
        return None
    files = [os.path.join(qdir, f) for f in sorted(os.listdir(qdir))]
    return pa.concat_tables(pq.read_table(f, columns=["url", "status"]) for f in files)


def read_manifest(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "MANIFEST", "manifest.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_output(out_dir: str, truth: dict, partitions: list[str]) -> tuple[int, list[str], pa.Table]:
    """Check one committed round. Returns ``(failed, errors, rows)``:
    ``failed`` counts planted sniff-fault rows that came out wrong,
    ``rows`` are all committed rows sorted by url."""
    errors: list[str] = []
    leftovers = [n for n in os.listdir(out_dir) if n.endswith(".tmp")]
    if leftovers:
        errors.append(f"uncommitted temp dirs left: {leftovers}")
    parts = read_parts(out_dir)
    if sorted(parts) != sorted(partitions):
        errors.append(f"committed parts {sorted(parts)} != expected {sorted(partitions)}")
    rows = pa.concat_tables(parts.values()) if parts else pa.table({c: pa.array([], pa.string()) for c in COLUMNS})
    rows = rows.sort_by("url")

    # every input row exactly once, nothing else
    counts = collections.Counter(rows.column("url").to_pylist())
    dup = [u for u, n in counts.items() if n > 1]
    missing = [u for u in truth if u not in counts]
    extra = [u for u in counts if u not in truth]
    for what, urls in (("duplicated", dup), ("missing", missing), ("unexpected", extra)):
        if urls:
            errors.append(f"{len(urls)} {what} rows, e.g. {urls[:_MAX_REPORTED]}")

    # every row against its planted kind, status and text
    failed, wrong = 0, []
    for url, kind, status, text in zip(*(rows.column(c).to_pylist() for c in COLUMNS)):
        t = truth.get(url)
        if t is None or (kind, status, text) == (t.kind, t.status, t.text):
            continue
        if t.cls == SNIFF_FAULT:
            failed += 1
        else:
            wrong.append(f"{url} [{t.cls}]: got ({kind}, {status}, {len(text)} chars)")
    if wrong:
        errors.append(f"{len(wrong)} rows differ from truth, e.g. {wrong[:_MAX_REPORTED]}")

    # quarantine sink holds exactly the quarantined rows
    quarantined = sorted(u for u, s in zip(rows.column("url").to_pylist(), rows.column("status").to_pylist())
                         if s.startswith("quarantined"))
    sink = read_quarantine(out_dir)
    sink_urls = sorted(sink.column("url").to_pylist()) if sink is not None else []
    if sink_urls != quarantined:
        errors.append(f"quarantine sink has {len(sink_urls)} rows, output has {len(quarantined)} quarantined")

    # one manifest line per committed partition; counts sum to the output
    entries = read_manifest(out_dir)
    ids = [e["partition_id"] for e in entries]
    if sorted(ids) != sorted(parts):
        errors.append(f"manifest partitions {sorted(ids)} != committed parts {sorted(parts)}")
    for e in entries:
        part = parts.get(e["partition_id"])
        if part is not None and e["n_rows"] != part.num_rows:
            errors.append(f"manifest n_rows {e['n_rows']} != {part.num_rows} rows in part={e['partition_id']}")
    if sum(e["n_rows"] for e in entries) != rows.num_rows:
        errors.append("manifest n_rows do not sum to the output rows")
    if sum(e["n_quarantined"] for e in entries) != len(sink_urls):
        errors.append("manifest n_quarantined do not sum to the quarantine sink rows")
    return failed, errors, rows


def check_no_rerun(summary: dict) -> list[str]:
    """A re-invocation over a committed output must run no partition."""
    if summary.get("ran"):
        return [f"re-invocation over a committed output ran partitions {summary['ran']}"]
    return []


def check_same_rows(expected: pa.Table, got: pa.Table, what: str) -> list[str]:
    if expected.select(COLUMNS).equals(got.select(COLUMNS)):
        return []
    return [f"{what}: rows differ from an uninterrupted round"]
