"""Flagship extraction pipeline (SURVEY.md §7.1).

    read_parquet(pages)                          # url, html pruned at the read
      → map_batches(extract_all_batch, pyarrow)  # fused sniff + dispatch + extract
      → [consume: write_parquet / aggregate / iter_batches]

One execution shape: a single fused task stage over one scan of the
input. It won every measurement against the two shapes it replaced
(an HTML-task ∥ PDF-actor-pool branch+union, and per-size-bucket
branches); see ``BENCH/BASELINE.md``.

At 100 TB: this pipeline is embarrassingly parallel (no shuffle at
all); throughput scales with workers × per-doc parse speed, and the
object store only ever holds a window of blocks (streaming
backpressure — verified by the 2 GB-object-store run in
BENCH/BASELINE.md).
"""

from __future__ import annotations

import ray
import ray.data

from pdf_extractor_ray.stages.extract import extract_all_batch


def build_extraction_pipeline(
    paths: str | list[str],
    *,
    batch_size: int = 256,
    metrics_collector=None,
) -> ray.data.Dataset:
    """Lazy extraction Dataset over pages parquet. Caller consumes it
    (write_parquet / iter_batches); nothing is materialized here.

    ONE fused task stage (sniff + dispatch + extract per batch), ~30k
    docs/s at 100k docs / 32 CPUs. Parser state is module-level
    (compiled regexes) and Ray reuses worker processes across tasks, so
    state IS pinned per worker — the north-rule intent — without the
    actor-pool dispatch path, which in Ray 2.49 measured ~45% slower
    for per-document CPU work. Mega-documents are absorbed by Ray's
    dynamic block splitting, not by per-size-bucket branches.

    ``metrics_collector`` is a ``state.metrics`` collector handle; each
    batch reports per-worker docs/bytes/failures/seconds to it.
    """
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    ds = ray.data.read_parquet(
        paths,
        columns=["url", "html"],  # prune: warc_ts/text/lang unused by extraction
        override_num_blocks=max(ncpu * 4, 16),
    )
    return ds.map_batches(
        extract_all_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_kwargs={"metrics_collector": metrics_collector},
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
