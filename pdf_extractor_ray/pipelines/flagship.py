"""Flagship extraction pipeline (SURVEY.md §7.1).

    read_datasource(PagesDatasource)             # url, html, path; one task per file
      → map_batches(extract_all_batch, pyarrow,  # fused sniff + dispatch + extract,
                    batch_size=None)             #   in the read task itself
      → [consume: write_parquet / aggregate / iter_batches]

One execution shape: a single fused task stage over one scan of the
input. It won every measurement against the two shapes it replaced
(an HTML-task ∥ PDF-actor-pool branch+union, and per-size-bucket
branches); see ``BENCH/BASELINE.md``.

The read is planned from the Parquet footers alone (``read_footers`` →
``plan_reads``): one read task per file, with exact row and byte
metadata, so planning starts no sampling task. Only when a run has
fewer files than CPUs are files cut into row ranges, at batch
boundaries and never below one batch, until there are as many tasks as
CPUs. A task yields batches of at most ``batch_size`` rows, fewer when
the pruned columns of that many rows would exceed ``BLOCK_BYTES`` (a
batch of mega rows must not fill the worker heap). Batches cross row
groups but never files, so tasks and batches do not depend on how the
writer cut row groups. Each batch carries a ``path`` column naming its
one input file.

``read_pages`` passes ``override_num_blocks`` equal to the task count
and the stage after it uses ``batch_size=None``. With both, Ray 2.49
fuses the read into that stage, so page bytes are decoded, extracted
and (in the partitioned runner, ``state.manifest``) written inside one
task and never pass through the object store. A larger block count
would add ``SplitBlocks`` to the read, and a numeric ``batch_size`` a
minimum bundle size; either one breaks the fusion.

At 100 TB: this pipeline is embarrassingly parallel (no shuffle at
all); throughput scales with workers × per-doc parse speed, and the
object store only ever holds a window of output blocks (streaming
backpressure — verified by the 2 GB-object-store run in
BENCH/BASELINE.md).
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Iterator

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from pdf_extractor_ray.stages.extract import extract_all_batch

READ_COLUMNS = ["url", "html"]  # prune: warc_ts/text/lang unused by extraction
BLOCK_BYTES = 64 << 20


def read_footers(paths: str | list[str]) -> dict[str, list[tuple[int, int]]]:
    """Parquet file → ``(rows, uncompressed bytes of READ_COLUMNS)`` per
    row group, from the footers alone. Directories expand to the files
    they hold."""
    out = {}
    for f in pads.dataset(paths, format="parquet").files:
        md = pq.read_metadata(f)
        groups = []
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            n_bytes = sum(
                rg.column(c).total_uncompressed_size
                for c in range(rg.num_columns)
                if rg.column(c).path_in_schema in READ_COLUMNS
            )
            groups.append((rg.num_rows, n_bytes))
        out[f] = groups
    return out


def batch_rows(rows: int, n_bytes: int, batch_size: int) -> int:
    """Rows per batch of a row group of ``rows`` rows and ``n_bytes``
    pruned bytes: ``batch_size``, fewer when that many rows would
    exceed ``BLOCK_BYTES``."""
    return min(batch_size, max(1, BLOCK_BYTES * rows // max(1, n_bytes)))


@dataclass(frozen=True)
class ReadUnit:
    """Rows ``[start, stop)`` of ``path``, read in batches of ``step``
    rows from ``row_groups``, whose first row is row ``first_row`` of
    the file. ``n_bytes`` estimates the pruned bytes of the range."""

    path: str
    start: int
    stop: int
    step: int
    row_groups: tuple[int, ...]
    first_row: int
    n_bytes: int


def plan_reads(footers: dict[str, list[tuple[int, int]]], n_cpus: int, batch_size: int) -> list[ReadUnit]:
    """One unit per file with rows. With fewer such files than
    ``n_cpus``, each file is cut at batch boundaries into ranges of
    about ``total rows / n_cpus`` rows but never less than one batch,
    which gives at least ``n_cpus`` units when there are that many
    batches. A file reads in batches of ``step`` rows, the smallest
    ``batch_rows`` of its row groups, and every unit starts on a batch
    boundary, so a file gives ``ceil(rows / step)`` batches however its
    writer cut row groups and however it is split."""
    files = {f: groups for f, groups in footers.items() if sum(rows for rows, _ in groups)}
    per_cpu = sum(rows for groups in files.values() for rows, _ in groups) // n_cpus
    units = []
    for f, groups in files.items():
        ends = list(itertools.accumulate(rows for rows, _ in groups))
        step = min(batch_rows(rows, n_bytes, batch_size) for rows, n_bytes in groups if rows)
        span = ends[-1] if len(files) >= n_cpus else step * max(1, per_cpu // step)
        for start in range(0, ends[-1], span):
            stop = min(start + span, ends[-1])
            # (row group, its first row, rows of it in the range)
            overlap = [
                (g, end - rows, min(stop, end) - max(start, end - rows))
                for g, ((rows, _), end) in enumerate(zip(groups, ends))
                if rows and start < end and end - rows < stop
            ]
            n_bytes = sum(groups[g][1] * n // groups[g][0] for g, _, n in overlap)
            units.append(ReadUnit(f, start, stop, step, tuple(g for g, _, _ in overlap), overlap[0][1], n_bytes))
    return units


def read_unit(unit: ReadUnit) -> Iterator[pa.Table]:
    """The rows of ``unit`` with a ``path`` column, in batches of
    ``unit.step`` rows (the last one may be shorter); batches cross row
    groups. The reader decodes a batch at a time, so a range of a large
    row group never holds the whole row group decoded."""
    skip, left = unit.start - unit.first_row, unit.stop - unit.start
    held: list[pa.RecordBatch] = []
    n_held = 0
    with pq.ParquetFile(unit.path) as f:
        for batch in f.iter_batches(batch_size=unit.step, row_groups=list(unit.row_groups), columns=READ_COLUMNS):
            n_skip = min(skip, batch.num_rows)
            batch = batch.slice(n_skip, left)
            skip, left = skip - n_skip, left - batch.num_rows
            held.append(batch)
            n_held += batch.num_rows
            while n_held >= unit.step:
                table = pa.Table.from_batches(held)
                yield _with_path(table.slice(0, unit.step), unit.path)
                held, n_held = table.slice(unit.step).to_batches(), n_held - unit.step
            if not left:
                break
    if n_held:
        yield _with_path(pa.Table.from_batches(held), unit.path)


def _with_path(table: pa.Table, path: str) -> pa.Table:
    return table.append_column("path", pa.array([path] * table.num_rows, pa.string()))


class PagesDatasource(Datasource):
    """Read tasks for planned ``ReadUnit``s, one task each."""

    def __init__(self, units: list[ReadUnit]):
        self._units = units

    def estimate_inmemory_data_size(self) -> int:
        return sum(u.n_bytes for u in self._units)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        # the plan is fixed by the footers; ``read_pages`` asks for
        # exactly this many blocks
        return [
            ReadTask(
                functools.partial(read_unit, u),
                BlockMetadata(num_rows=u.stop - u.start, size_bytes=u.n_bytes, input_files=[u.path], exec_stats=None),
            )
            for u in self._units
        ]


def read_pages(footers: dict[str, list[tuple[int, int]]], *, batch_size: int) -> ray.data.Dataset:
    """``(url, html, path)`` of the files in ``footers`` (from
    ``read_footers``), one read task per unit of ``plan_reads``. A
    ``map_batches(..., batch_size=None)`` on it fuses into the read."""
    n_cpus = int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else os.cpu_count() or 1
    units = plan_reads(footers, n_cpus, batch_size)
    return ray.data.read_datasource(PagesDatasource(units), override_num_blocks=max(1, len(units)))


def build_extraction_pipeline(paths: str | list[str], *, batch_size: int = 256) -> ray.data.Dataset:
    """Lazy extraction Dataset over pages parquet. Caller consumes it
    (write_parquet / iter_batches); nothing is materialized here.

    ONE task stage: the footer-planned read fused with sniff +
    dispatch + extract per batch (batches of at most ``batch_size``
    rows). Parser state is module-level (compiled regexes) and Ray
    reuses worker processes across tasks, so state IS pinned per
    worker — the north-rule intent — without the actor-pool dispatch
    path, which in Ray 2.49 measured ~45% slower for per-document CPU
    work. Mega-documents get smaller batches (``BLOCK_BYTES``), not
    per-size-bucket branches.
    """
    return read_pages(read_footers(paths), batch_size=batch_size).map_batches(
        extract_all_batch, batch_format="pyarrow", batch_size=None
    )


def extraction_summary(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-(kind, status) counts + byte totals — the run report.

    Deliberately Ray's native ``groupby().aggregate()``: measured
    (r3, 100k docs / 32 CPUs, best-of-3 × 2) 3.2 s end-to-end vs
    4.0-5.0 s for a projected map_batches-partial + bucketed-combine
    variant — the native sort aggregate overlaps fully with the
    extraction stage, while a fused partial holds the big extraction
    blocks longer. (Group count here is ~8, far below the ~5 ms/group
    regime that makes ``ops.grouped_sum`` the right tool for
    medium/high-cardinality keys. Also note: a NUMERIC batch_size on
    any stage that fuses with extraction rebatches the whole fused
    chain — 128 tasks collapsed to 4 and tripled wall time — see
    ``ops.grouped_agg``'s batch_size=None note.)"""
    from ray.data.aggregate import Count, Sum

    return ds.groupby(["kind", "status"]).aggregate(
        Count(alias_name="n_docs"),
        Sum("n_bytes", alias_name="total_bytes"),
    )
