"""CLI — the engine's answer to the reference's three entry points
(``pdf-extractor``, ``sync-extracted-fields``, ``pdf-extractor-finetune``;
``pyproject.toml:27-29``):

    python -m pdf_extractor_ray extract   --input 'pages/*.parquet' --output out/
    python -m pdf_extractor_ray merge     --sink sink.parquet --new new.parquet --key file_name --output merged/
    python -m pdf_extractor_ray validate  --pairs pairs.parquet
    python -m pdf_extractor_ray gen-corpus --rows 10000 --output pages/

``extract`` is resumable: re-running after a crash skips committed
partitions via the manifest. The CLI owns its Ray session (guarded);
library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def _ray_session(cpus: int | None):
    import ray

    from pdf_extractor_ray.quiet import quiet_data_logs

    quiet_data_logs()
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_extract(args) -> int:
    ray = _ray_session(args.cpus)
    from pdf_extractor_ray.state.manifest import run_partitioned_extraction

    batch_size = args.batch_size
    if args.config:  # JSON config file overrides flags (S7 surface)
        from pdf_extractor_ray.config import PipelineConfig

        batch_size = PipelineConfig.from_json(args.config).batch_size

    paths = sorted(glob.glob(args.input)) if any(c in args.input for c in "*?[") else [args.input]
    if not paths:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2
    summary = run_partitioned_extraction(
        paths,
        args.output,
        files_per_partition=args.files_per_partition,
        batch_size=batch_size,
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


def cmd_merge(args) -> int:
    ray = _ray_session(args.cpus)
    import ray.data as rd

    from pdf_extractor_ray.pipelines.sync_merge import merge_into_sink

    merged = merge_into_sink(
        rd.read_parquet(args.sink),
        rd.read_parquet(args.new),
        key_col=args.key,
        tie_break_col=args.tie_break or args.key,
    )
    merged.write_parquet(args.output)
    # count the written files — merged.count() would re-execute the
    # whole (lazy, uncached) merge pipeline a second time
    import pyarrow.dataset as pads

    n_rows = pads.dataset(args.output, format="parquet").count_rows()
    print(json.dumps({"rows": n_rows, "output": args.output}))
    ray.shutdown()
    return 0


def cmd_validate(args) -> int:
    """pairs parquet columns: url, field_key, expected, actual."""
    ray = _ray_session(args.cpus)
    import ray.data as rd

    from pdf_extractor_ray.pipelines.training import validation_metrics

    m = validation_metrics(rd.read_parquet(args.pairs))
    out = {
        k: (round(v, 4) if isinstance(v, float) else v)
        for k, v in m.items()
        if k not in ("per_field", "error_examples")
    }
    out["per_field"] = m["per_field"].to_dict(orient="records")
    out["error_examples"] = m["error_examples"].to_dict(orient="records")
    # reference acceptance thresholds (validate.py:84-104)
    out["pass"] = bool(
        m["accuracy"] >= 0.90 and m["precision"] >= 0.85 and m["recall"] >= 0.85 and m["f1"] >= 0.85
    )
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_train(args) -> int:
    """Fine-tune train command (reference ``cli_finetune.py`` /
    ``train.py:92-356``): documents parquet → validated chat examples →
    JSONL → submit → monitor, against the offline backend registry."""
    ray = _ray_session(args.cpus)
    import ray.data as rd

    from pdf_extractor_ray.finetune import LocalSimulatedBackend, run_training
    from pdf_extractor_ray.pipelines.training import build_training_examples

    docs = rd.read_parquet(args.input, columns=["doc_id", "text"])
    backend = LocalSimulatedBackend(args.registry)
    try:
        res = run_training(
            backend,
            build_training_examples(docs),
            args.output,
            base_model=args.base_model,
            suffix=args.suffix,
        )
    except ValueError as e:  # below the example floor
        print(json.dumps({"error": str(e)}))
        ray.shutdown()
        return 1
    print(json.dumps({"job": res["job"], "counts": res["counts"]}))
    ray.shutdown()
    return 0 if res["job"]["status"] == "succeeded" else 1


def cmd_job_status(args) -> int:
    from pdf_extractor_ray.finetune import LocalSimulatedBackend, job_status

    backend = LocalSimulatedBackend(args.registry)
    try:
        print(json.dumps(job_status(backend, args.job_id)))
        return 0
    except ValueError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2


def cmd_list_jobs(args) -> int:
    from pdf_extractor_ray.finetune import LocalSimulatedBackend

    backend = LocalSimulatedBackend(args.registry)
    print(json.dumps(backend.list_jobs(limit=args.limit)))
    return 0


def cmd_list_models(args) -> int:
    """Base + fine-tuned model ids (reference ``cli_finetune.py``
    list-models subcommand → ``models.py`` timestamp scan; here the
    registry supersedes the timestamp scan)."""
    from pdf_extractor_ray.finetune import LocalSimulatedBackend

    backend = LocalSimulatedBackend(args.registry)
    if args.latest:
        from pdf_extractor_ray.finetune import latest_fine_tuned_model

        print(json.dumps({"latest": latest_fine_tuned_model(backend, max_age_s=args.max_age)}))
        return 0
    print(json.dumps(backend.list_models()))
    return 0


def cmd_gen_corpus(args) -> int:
    from pdf_extractor_ray.sources.pages import write_pages_corpus

    paths = write_pages_corpus(args.output, n_rows=args.rows, n_files=args.files, seed=args.seed)
    print(json.dumps({"files": len(paths), "rows": args.rows, "output": args.output}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="pdf_extractor_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract", help="resumable extraction over pages parquet")
    p.add_argument("--input", required=True, help="parquet file or glob")
    p.add_argument("--output", required=True)
    p.add_argument("--files-per-partition", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--cpus", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file (overrides --batch-size)")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="build + validate training data and run a fine-tune job")
    p.add_argument("--input", required=True, help="documents parquet (doc_id, text)")
    p.add_argument("--output", required=True, help="training-file output dir")
    p.add_argument("--registry", required=True, help="job registry dir")
    p.add_argument("--base-model", default="base-extractor-small")
    p.add_argument("--suffix", default="extractor")
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("job-status", help="fine-tune job status")
    p.add_argument("--registry", required=True)
    p.add_argument("--job-id", required=True)
    p.set_defaults(fn=cmd_job_status)

    p = sub.add_parser("list-jobs", help="list fine-tune jobs")
    p.add_argument("--registry", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_list_jobs)

    p = sub.add_parser("list-models", help="list base + fine-tuned model ids")
    p.add_argument("--registry", required=True)
    p.add_argument("--latest", action="store_true", help="newest fine-tuned model only (A6 freshness check)")
    p.add_argument("--max-age", type=float, default=None, help="with --latest: older than this (s) returns null = retrain")
    p.set_defaults(fn=cmd_list_models)

    p = sub.add_parser("merge", help="dedup-merge new rows into a sink table")
    p.add_argument("--sink", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--tie-break", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("validate", help="score extraction pairs (url, field_key, expected, actual)")
    p.add_argument("--pairs", required=True)
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gen-corpus", help="write a deterministic synthetic pages corpus")
    p.add_argument("--rows", type=int, default=10_000)
    p.add_argument("--files", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_gen_corpus)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
