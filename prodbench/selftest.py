"""Ray-free self-test of the output checks.

Builds a committed output from planted truth alone (the layout that
``run_partitioned_extraction`` commits), shows the checks pass on it,
then shows each of these breaks a check: an altered text, a dropped
row, a duplicated row, a short quarantine sink and a rerun partition.
A sniff-fault row given today's wrong answer must count as failed and
raise no error.

Run alone: ``python3 prodbench/selftest.py`` (from the repository root).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pyarrow as pa
import pyarrow.parquet as pq

if __name__ == "__main__":  # run as a script: the package sits one level up
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import gen  # noqa: E402


def _write_committed(out_dir: str, wl, mutate=None) -> list[str]:
    """Write ``wl``'s truth as a committed output, one partition per
    input file; ``mutate(rows_by_part)`` may edit the rows first."""
    by_part: dict[str, list[dict]] = {}
    for f, path in enumerate(sorted(wl.paths)):
        urls = pq.read_table(path, columns=["url"]).column("url").to_pylist()
        by_part[f"{f:05d}"] = [
            {"url": u, "kind": wl.truth[u].kind, "status": wl.truth[u].status, "extracted_text": wl.truth[u].text}
            for u in urls
        ]
    if mutate is not None:
        mutate(by_part)
    os.makedirs(os.path.join(out_dir, "MANIFEST"))
    os.makedirs(os.path.join(out_dir, "quarantine"))
    with open(os.path.join(out_dir, "MANIFEST", "manifest.jsonl"), "w") as man:
        for pid, rows in by_part.items():
            table = pa.Table.from_pylist(rows, schema=pa.schema([(c, pa.string()) for c in checks.COLUMNS]))
            os.makedirs(os.path.join(out_dir, f"part={pid}"))
            pq.write_table(table, os.path.join(out_dir, f"part={pid}", "0.parquet"))
            quar = [r for r in rows if r["status"].startswith("quarantined")]
            if quar:
                pq.write_table(table.filter(pa.array([r["status"].startswith("quarantined") for r in rows])),
                               os.path.join(out_dir, "quarantine", f"part-{pid}.parquet"))
            man.write(json.dumps({"partition_id": pid, "n_rows": len(rows), "n_quarantined": len(quar)}) + "\n")
    return list(by_part)


def _first(by_part, pred):
    for rows in by_part.values():
        for i, r in enumerate(rows):
            if pred(r):
                return rows, i
    raise LookupError("no row matches")


def _alter_text(by_part):
    rows, i = _first(by_part, lambda r: r["status"] == "ok")
    rows[i]["extracted_text"] += " altered"


def _drop_row(by_part):
    rows, i = _first(by_part, lambda r: True)
    del rows[i]


def _duplicate_row(by_part):
    rows, i = _first(by_part, lambda r: True)
    rows.append(dict(rows[i]))


def _short_sink(out_dir):
    qdir = os.path.join(out_dir, "quarantine")
    f = os.path.join(qdir, sorted(os.listdir(qdir))[0])
    t = pq.read_table(f)
    pq.write_table(t.slice(0, t.num_rows - 1), f)


def _rerun_partition(out_dir):
    path = os.path.join(out_dir, "MANIFEST", "manifest.jsonl")
    with open(path) as f:
        first = f.readline()
    with open(path, "a") as f:
        f.write(first)


def run(wl, scratch: str) -> list[str]:
    """Self-test over workload ``wl``; returns errors (empty = passed)."""
    sniff_urls = {u for u, t in wl.truth.items() if t.cls == gen.SNIFF_FAULT}
    errors = []

    def sniff_fault_as_today(by_part):
        for rows in by_part.values():
            for r in rows:
                if r["url"] in sniff_urls:
                    r.update(kind="html", status="ok", extracted_text="\x00\x01 binary blob")

    def case(name, mutate=None, damage=None):
        out = os.path.join(scratch, name)
        shutil.rmtree(out, ignore_errors=True)
        parts = _write_committed(out, wl, mutate)
        if damage is not None:
            damage(out)
        failed, errs, _ = checks.check_output(out, wl.truth, parts)
        shutil.rmtree(out)
        return failed, errs

    failed, errs = case("good")
    if failed or errs:
        errors.append(f"self-test: truth-built output fails the checks: {errs}")
    failed, errs = case("sniff_fault", sniff_fault_as_today)
    if errs or failed != len(sniff_urls):
        errors.append(f"self-test: sniff-fault rows not counted as failed ({failed}, {errs})")
    for name, mutate, damage in (
        ("altered_text", _alter_text, None),
        ("dropped_row", _drop_row, None),
        ("duplicated_row", _duplicate_row, None),
        ("short_quarantine_sink", None, _short_sink),
        ("rerun_partition", None, _rerun_partition),
    ):
        if not case(name, mutate, damage)[1]:
            errors.append(f"self-test: {name} passed the checks")
    if not checks.check_no_rerun({"ran": ["00000"]}):
        errors.append("self-test: a re-invocation that ran a partition passed the checks")
    return errors


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch = os.path.join(root, ".prodbench_work", f"selftest-{os.getpid()}")
    try:
        wl = gen.make_workload("small_partitions", 0, os.path.join(scratch, "in"))
        errors = run(wl, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for e in errors:
        print(e)
    print("self-test passed" if not errors else "self-test FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
