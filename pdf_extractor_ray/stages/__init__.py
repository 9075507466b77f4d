from pdf_extractor_ray.stages.extract import extract_all_batch
from pdf_extractor_ray.stages.schema import EXTRACTION_SCHEMA, records_to_arrow

__all__ = ["extract_all_batch", "EXTRACTION_SCHEMA", "records_to_arrow"]
