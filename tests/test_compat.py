"""Marker-DSL compat, robust JSON parsing, kernel registry, training
sinks/aggregates."""

import json

import pandas as pd
import ray.data

from pdf_extractor_ray.functions.jsonparse import parse_robust_json, response_to_fields
from pdf_extractor_ray.functions.markers import (
    marker_stats,
    parse_first_coordinates,
    parse_markers,
    strip_markers,
    to_marker_text,
)


def test_marker_roundtrip():
    text = "hello world"
    spans = [
        {"start": 0, "end": 5, "page": 0, "bbox": [10.0, 20.0, 30.0, 40.0]},
        {"start": 6, "end": 11, "page": 1, "bbox": None},
    ]
    mt = to_marker_text(text, spans)
    assert mt == "[hello]<@0:10.0,20.0,30.0,40.0> world"
    parsed = parse_markers(mt)
    assert parsed == [{"text": "hello", "page": 0, "bbox": [10.0, 20.0, 30.0, 40.0]}]
    assert parse_first_coordinates(mt) == (0, [10.0, 20.0, 30.0, 40.0])
    assert strip_markers("[v]<@2:1.0,2.0,3.0,4.0>") == "v"
    st = marker_stats(mt)
    assert st["n_markers"] == 1 and st["n_pages"] == 1 and st["has_coordinates"]


def test_robust_json_parse():
    assert parse_robust_json('{"a": 1}')[0] == {"a": 1}
    obj, err = parse_robust_json('noise before {"fields": [{"key": "k", "value": "v"}]} after')
    assert obj["fields"][0]["key"] == "k"
    assert parse_robust_json("")[0] is None
    assert parse_robust_json("[1,2]")[0] is None
    assert parse_robust_json("not json at all")[0] is None

    fields, errs = response_to_fields({"fields": [{"key": "a", "value": 1}, "bad", {"novalue": 1}]})
    assert fields == [{"key": "a", "value": "1"}]
    assert len(errs) == 2


def test_kernel_registry_extension():
    from pdf_extractor_ray.kernels.record import extract_record
    from pdf_extractor_ray.kernels.registry import get_kernel, register_kernel, registered_kinds

    assert set(registered_kinds()) >= {"pdf", "html"}
    # plug a custom kernel for plain-text kind and confirm dispatch
    def upper_kernel(raw: bytes):
        t = raw.decode("utf-8").upper()
        return t, [{"start": 0, "end": len(t), "page": 0, "bbox": None}]

    register_kernel("text", upper_kernel)
    try:
        rec = extract_record("u", b"hello kernel")
        assert rec["extracted_text"] == "HELLO KERNEL"
    finally:
        import pdf_extractor_ray.kernels.registry as reg

        del reg._REGISTRY["text"]


def test_training_jsonl_sink_and_quality(tmp_path):
    from pdf_extractor_ray.pipelines.training import (
        build_training_examples,
        training_quality_stats,
        write_training_jsonl,
    )

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1, 2], "text": ["[a]<@0:1.0,2.0,3.0,4.0> plain", "no markers"]})
    )
    ex = build_training_examples(docs)
    out = str(tmp_path / "jsonl")
    write_training_jsonl(ex, out)
    import glob

    lines = []
    for p in glob.glob(out + "/*.json"):
        with open(p) as f:
            lines += [json.loads(l) for l in f if l.strip()]
    assert len(lines) == 2
    assert lines[0]["messages"][0]["role"] == "user"

    stats = training_quality_stats(ex)
    assert stats["total_examples"] == 2
    assert stats["with_coordinates"] == 1
    assert stats["without_coordinates"] == 1


def test_read_json_source_roundtrip(tmp_path):
    """S5 source: JSONL written by the engine reads back through
    ray.data.read_json into a pipeline."""
    from pdf_extractor_ray.pipelines.training import build_training_examples, write_training_jsonl

    docs = ray.data.from_pandas(pd.DataFrame({"doc_id": [1, 2, 3], "text": ["alpha beta", "gamma delta", "epsilon"]}))
    out = str(tmp_path / "jsonl")
    write_training_jsonl(build_training_examples(docs), out)
    back = ray.data.read_json(out)
    rows = back.take_all()
    assert len(rows) == 3
    assert all(r["messages"][0]["role"] == "user" for r in rows)


def test_config_from_json_and_factory(tmp_path):
    """S7: JSON config -> validated PipelineConfig -> extraction
    pipeline factory; reference error contract (ValueError on missing
    file / bad JSON / unknown keys / bad values)."""
    import json

    import pytest as _pytest

    from pdf_extractor_ray.config import PipelineConfig
    from pdf_extractor_ray.sources.pages import write_pages_corpus

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "batch_size": 64,
        "fields": [{"key": "DOC ID", "alt_names": ["document id"]}],
    }))
    cfg = PipelineConfig.from_json(str(cfg_path))
    assert cfg.batch_size == 64
    assert [s.key for s in cfg.field_specs()] == ["DOC ID"]

    with _pytest.raises(ValueError, match="not found"):
        PipelineConfig.from_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with _pytest.raises(ValueError, match="failed to parse"):
        PipelineConfig.from_json(str(bad))
    with _pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"nope": 1})
    with _pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"concurrency": 2})  # no execution-shape knobs
    with _pytest.raises(ValueError, match="batch_size"):
        PipelineConfig.from_dict({"batch_size": -5})
    with _pytest.raises(ValueError, match="scorer_backend"):
        PipelineConfig.from_dict({"scorer_backend": "openai"})

    paths = write_pages_corpus(str(tmp_path / "pages"), n_rows=120, n_files=2, seed=3)
    out = cfg.build_extraction_with_fields(paths).to_pandas()
    assert len(out) == 120
    assert "fields" in out.columns  # field stage attached per config


def test_finetune_job_lifecycle(tmp_path):
    """Offline fine-tune lifecycle: submit -> poll to succeeded ->
    status/list/models; under-floor and malformed submissions fail
    with recorded reasons."""
    import json

    import pandas as pd
    import ray.data

    from pdf_extractor_ray.finetune import (
        LocalSimulatedBackend,
        create_fine_tuning_job,
        job_status,
        monitor_job,
        run_training,
    )
    from pdf_extractor_ray.pipelines.training import build_training_examples

    backend = LocalSimulatedBackend(str(tmp_path / "registry"))

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(15), "text": [f"doc body {i}" for i in range(15)]})
    )
    res = run_training(backend, build_training_examples(docs), str(tmp_path / "out"))
    job = res["job"]
    assert job["status"] == "succeeded"
    assert job["fine_tuned_model"].startswith("ft:base-extractor-small:extractor:")
    assert res["counts"]["n_valid"] == 15
    # status + listing surface the same record
    assert job_status(backend, job["id"])["status"] == "succeeded"
    assert any(j["id"] == job["id"] for j in backend.list_jobs())
    assert job["fine_tuned_model"] in backend.list_models()

    # under the example floor -> failed job with the reason
    small = tmp_path / "small.jsonl"
    small.write_text("\n".join(json.dumps({"messages": [{"role": "user", "content": "x"}]}) for _ in range(3)))
    jid = create_fine_tuning_job(backend, str(small), "base-extractor-small", "tiny")
    st = monitor_job(backend, jid)
    assert st["status"] == "failed" and ">= 10 valid" in st["error"]

    # malformed JSONL -> failed with a line-specific reason
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"messages": [1]}\n{nope\n')
    jid2 = create_fine_tuning_job(backend, str(bad), "base-extractor-small", "bad")
    assert "invalid JSON" in job_status(backend, jid2)["error"]


def test_run_training_reused_out_dir_no_duplicates(tmp_path):
    """Re-running into the same out_dir must not consolidate stale
    shards from the previous run."""
    import pandas as pd
    import ray.data

    from pdf_extractor_ray.finetune import LocalSimulatedBackend, run_training
    from pdf_extractor_ray.pipelines.training import build_training_examples

    backend = LocalSimulatedBackend(str(tmp_path / "reg"))
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(12), "text": [f"body {i}" for i in range(12)]})
    )
    out = str(tmp_path / "out")
    r1 = run_training(backend, build_training_examples(docs), out)
    r2 = run_training(backend, build_training_examples(docs), out)
    assert r1["job"]["n_examples"] == 12
    assert r2["job"]["n_examples"] == 12  # not 24
