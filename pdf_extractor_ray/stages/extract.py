"""Ray Data stage for the flagship extraction pipeline.

``extract_all_batch`` is the one extraction stage: stateless tasks that
sniff, dispatch and extract every row of a ``(url, html)`` batch. Parser
state (compiled regexes) is module-level and Ray reuses worker
processes across tasks, so it is built once per worker, never per
batch or per document — the fix for the reference's per-document
schema refetch (``core/extractor.py:222-223``, see SURVEY.md §4.4.1).

Batches are ``pyarrow`` and come straight from the footer-planned
read fused into the same task (``pipelines.flagship.read_pages``), so
page bytes never pass through the object store; extra input columns
(the read's ``path``) are ignored. Per-document parsing is inherently
per-row Python (same as any layout parser), but all column assembly is
Arrow (``stages.schema.records_to_arrow``).
"""

from __future__ import annotations

import pyarrow as pa

from pdf_extractor_ray.kernels.record import extract_record
from pdf_extractor_ray.stages.schema import records_to_arrow


def extract_all_batch(batch: pa.Table) -> pa.Table:
    """Fused extraction over one batch: sniff + dispatch + extract per
    row. See ``pipelines.flagship.build_extraction_pipeline``."""
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    return records_to_arrow([extract_record(u, h) for u, h in zip(urls, htmls)])
