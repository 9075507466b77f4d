"""Local replica of the driver's correctness gate: run each queries()
entry and its oracle_sql() side by side at a given sf and compare
row-count + column names + order-insensitive value hash.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive: sort columns by name, stringify values
    WITHOUT any float forgiveness (the driver's compare does a plain
    str-based canonicalization, so a DuckDB float64 `400.0` must hash
    differently from an engine int64 `400` here too — dtype parity is
    the builder's job, via CAST(... AS BIGINT) in the oracle SQL).
    Sort rows, hash."""
    import hashlib

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_datetime64_any_dtype(col):
            df[c] = col.astype("datetime64[us]").astype(str)
        else:
            df[c] = col.astype(str)
    rows = sorted("\x1f".join(r) for r in df.itertuples(index=False, name=None))
    return hashlib.blake2b("\n".join(rows).encode(), digest_size=16).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # the checkout this script belongs to, not whichever one is installed
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows, cols={sorted(ray_df.columns)})")
            continue
        try:
            ora_df = con.sql(sqls[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle sql raised {e}")
            failures += 1
            continue
        problems = []
        if len(ray_df) != len(ora_df):
            problems.append(f"rows {len(ray_df)} != {len(ora_df)}")
        if sorted(ray_df.columns) != sorted(ora_df.columns):
            problems.append(f"cols {sorted(ray_df.columns)} != {sorted(ora_df.columns)}")
        if not problems and value_hash(ray_df) != value_hash(ora_df):
            problems.append("value hash mismatch")
            merged = ray_df.sort_values(sorted(ray_df.columns)).reset_index(drop=True).compare(
                ora_df[ray_df.columns].sort_values(sorted(ray_df.columns)).reset_index(drop=True)
            ) if len(ray_df) == len(ora_df) else None
            if merged is not None and not merged.empty:
                print(merged.head(5))
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            failures += 1
        else:
            print(f"PASS {name} ({len(ray_df)} rows)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
