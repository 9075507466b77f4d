"""Reference reading at a larger size (not part of the gated runs).

    python3 prodbench/reference.py --workload crawl_mix --scale 10 --reps 2

Generates the workload with every row count and partition count
multiplied by ``--scale``, then times, under the same host control as
``run.py`` and after one warm-up pass, ``reps`` interleaved pairs of the
partitioned production path (``run_partitioned_extraction``, checked
against planted truth) and ``build_extraction_pipeline(...).count()``.
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import time

import run  # sets up sys.path for the package

import checks
import gen
import host


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="crawl_mix", choices=sorted(gen.SPECS))
    ap.add_argument("--scale", type=int, default=10)
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    n_cpus = host.nproc()
    cpus = host.restrict_affinity(n_cpus)
    os.environ["PYTHONPATH"] = run.ROOT
    work = os.path.join(run.ROOT, ".prodbench_work", f"reference-{os.getpid()}")
    temp_dir = run._ray_temp_dir()
    burn = [host.burn_s()]
    try:
        wl = gen.make_workload(args.workload, args.seed, os.path.join(work, "in"), scale=args.scale)
        run.ray_start(n_cpus, temp_dir)
        from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline
        from pdf_extractor_ray.state.manifest import run_partitioned_extraction

        build_extraction_pipeline(wl.paths).count()  # warm-up
        part, count, errors = [], [], []
        for i in range(args.reps):
            out = os.path.join(work, f"out{i}")
            t0 = time.monotonic()
            run_partitioned_extraction(wl.paths, out)
            part.append(wl.n_rows / (time.monotonic() - t0))
            errors += checks.check_output(out, wl.truth, [f"{p:05d}" for p in range(len(wl.paths))])[1]
            shutil.rmtree(out)
            t0 = time.monotonic()
            n = build_extraction_pipeline(wl.paths).count()
            count.append(n / (time.monotonic() - t0))
    finally:
        run.ray_stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)
    burn.append(host.burn_s())
    print(json.dumps({
        "workload": args.workload, "rows": wl.n_rows, "partitions": len(wl.paths),
        "nproc": n_cpus, "affinity": cpus, "burn_s": burn, "correct": not errors,
        "partitioned_docs_per_s": part, "count_docs_per_s": count,
        "partitioned_median": statistics.median(part), "count_median": statistics.median(count),
    }))


if __name__ == "__main__":
    main()
