"""Flagship extraction pipeline (SURVEY.md §7.1).

    read_parquet(pages)                          # url, html pruned at the read
      → map_batches(extract_all_batch, pyarrow)  # fused sniff + dispatch + extract
      → [consume: write_parquet / aggregate / iter_batches]

One execution shape: a single fused task stage over one scan of the
input. It won every measurement against the two shapes it replaced
(an HTML-task ∥ PDF-actor-pool branch+union, and per-size-bucket
branches); see ``BENCH/BASELINE.md``.

The read is sized from the Parquet footers (``read_pages``): one block
per ``batch_size`` rows, more when the pruned columns exceed
``BLOCK_BYTES`` per block (a batch of mega rows must not fill the
object store), never more than four per CPU (or 16). The partitioned
runner (``state.manifest``) reads through the same helper, so the read
settings live here only.

At 100 TB: this pipeline is embarrassingly parallel (no shuffle at
all); throughput scales with workers × per-doc parse speed, and the
object store only ever holds a window of blocks (streaming
backpressure — verified by the 2 GB-object-store run in
BENCH/BASELINE.md).
"""

from __future__ import annotations

import math

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from pdf_extractor_ray.stages.extract import extract_all_batch

READ_COLUMNS = ["url", "html"]  # prune: warc_ts/text/lang unused by extraction
BLOCK_BYTES = 64 << 20


def read_footers(paths: str | list[str]) -> dict[str, tuple[int, int]]:
    """Parquet file → ``(rows, uncompressed bytes of READ_COLUMNS)``,
    from the footers alone. Directories expand to the files they hold."""
    out = {}
    for f in pads.dataset(paths, format="parquet").files:
        md = pq.read_metadata(f)
        n_bytes = 0
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for c in range(rg.num_columns):
                col = rg.column(c)
                if col.path_in_schema in READ_COLUMNS:
                    n_bytes += col.total_uncompressed_size
        out[f] = (md.num_rows, n_bytes)
    return out


def num_read_blocks(n_rows: int, n_bytes: int, batch_size: int, n_cpus: int | None = None) -> int:
    """Read blocks for ``n_rows`` rows of ``n_bytes``: one per batch,
    more when a block would exceed ``BLOCK_BYTES``, at most
    ``max(4 × CPUs, 16)``."""
    if n_cpus is None:
        n_cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    wanted = max(math.ceil(n_rows / batch_size), math.ceil(n_bytes / BLOCK_BYTES), 1)
    return min(wanted, max(n_cpus * 4, 16))


def read_pages(
    footers: dict[str, tuple[int, int]], *, batch_size: int, include_paths: bool = False
) -> ray.data.Dataset:
    """``(url, html)`` of the files in ``footers`` (from
    ``read_footers``), in blocks sized by ``num_read_blocks``."""
    return ray.data.read_parquet(
        list(footers),
        columns=READ_COLUMNS,
        include_paths=include_paths,
        override_num_blocks=num_read_blocks(
            sum(r for r, _ in footers.values()), sum(b for _, b in footers.values()), batch_size
        ),
    )


def build_extraction_pipeline(paths: str | list[str], *, batch_size: int = 256) -> ray.data.Dataset:
    """Lazy extraction Dataset over pages parquet. Caller consumes it
    (write_parquet / iter_batches); nothing is materialized here.

    ONE fused task stage (sniff + dispatch + extract per batch), ~30k
    docs/s at 100k docs / 32 CPUs. Parser state is module-level
    (compiled regexes) and Ray reuses worker processes across tasks, so
    state IS pinned per worker — the north-rule intent — without the
    actor-pool dispatch path, which in Ray 2.49 measured ~45% slower
    for per-document CPU work. Mega-documents are absorbed by Ray's
    dynamic block splitting, not by per-size-bucket branches.
    """
    return read_pages(read_footers(paths), batch_size=batch_size).map_batches(
        extract_all_batch, batch_format="pyarrow", batch_size=batch_size
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
