"""JSON-config → pipeline factory (S7).

The reference loads a validated JSON config before running
(``pdf_extractor/config/extraction_config.py:15-28``: pydantic model,
missing-file / bad-JSON → ``ValueError``). The Ray analog carries the
pipeline knobs a deployment would pin per environment — batch size,
the field-extraction schema, and the scorer backend name — and builds
the extraction pipeline from them, so a config file fully describes a
run the way the reference's ``ExtractionConfig`` + sheet schema did.

No pydantic here (stdlib only): validation is explicit, and every
failure raises ``ValueError`` with the offending key, matching the
reference's error contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import ray.data


@dataclass
class PipelineConfig:
    """Validated run configuration."""

    batch_size: int = 256
    fields: list[dict] = field(default_factory=list)  # FieldSpec kwargs
    scorer_backend: str = "fake"  # only offline backend shipped here
    min_training_examples: int = 10

    _ALLOWED = {
        "batch_size", "fields", "scorer_backend", "min_training_examples",
    }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config root must be an object, got {type(data).__name__}")
        unknown = set(data) - cls._ALLOWED
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        if not isinstance(cfg.batch_size, int) or cfg.batch_size <= 0:
            raise ValueError(f"batch_size must be a positive int, got {cfg.batch_size!r}")
        for i, f in enumerate(cfg.fields):
            if not isinstance(f, dict) or "key" not in f:
                raise ValueError(f"fields[{i}] must be an object with a 'key'")
        if cfg.scorer_backend != "fake":
            raise ValueError(
                f"unknown scorer_backend {cfg.scorer_backend!r}; this build ships 'fake' "
                "(wire a real CompletionBackend factory via stages.scorer)"
            )
        return cfg

    @classmethod
    def from_json(cls, json_path: str) -> "PipelineConfig":
        """Load + validate a config file. Failure semantics match the
        reference: any problem → ``ValueError`` naming the cause."""
        p = Path(json_path)
        if not p.is_file():
            raise ValueError(f"configuration file not found: {json_path}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ValueError(f"failed to parse configuration: {e}") from e
        return cls.from_dict(data)

    # ---------------------------------------------------- factories
    def field_specs(self):
        from pdf_extractor_ray.stages.fields import FieldSpec

        return [FieldSpec(**f) for f in self.fields]

    def build_extraction(self, paths: str | list[str]) -> ray.data.Dataset:
        """Extraction pipeline per this config (lazy Dataset)."""
        from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline

        return build_extraction_pipeline(paths, batch_size=self.batch_size)

    def build_extraction_with_fields(self, paths: str | list[str]) -> ray.data.Dataset:
        """Extraction + schema-driven field stage when fields are
        configured (the reference's sheet-schema path)."""
        ds = self.build_extraction(paths)
        specs = self.field_specs()
        if not specs:
            return ds
        from pdf_extractor_ray.stages.fields import with_fields

        return with_fields(ds, specs)
