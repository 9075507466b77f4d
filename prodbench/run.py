"""Benchmark of the production extraction path.

    python3 prodbench/run.py --workload crawl_mix --seed 1 --seconds 40 --trace 0

Run from the repository root. One process, closed loop, one job at a
time; Ray gets ``num_cpus = nproc`` and every process is pinned to
``nproc`` CPUs. Pages are generated from ``--seed`` with planted truth
(``gen.py``) and go through ``state.manifest.run_partitioned_extraction``
(``pipelines.flagship`` → ``stages.extract`` → ``kernels.*`` →
``write_parquet`` → manifest commit).

Set-up (``ray.init`` + one warm-up round) is reported as ``setup_s``.
Then whole rounds run, each into a fresh output
directory, until ``--seconds`` have passed; every end-to-end metric is
the median over rounds. Every round is checked against the planted
truth. Once per run: a re-invocation over a committed output must run
no partition, and a crash injected after one partition followed by a
resume must give the rows of an uninterrupted round.

With ``--trace 1`` the run instead times each layer from outside,
through its public functions (see README.md), and prints the per-layer
metrics. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import checks  # noqa: E402
import gen  # noqa: E402
import host  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402

OBJECT_STORE_BYTES = 256 * 1024 * 1024
BATCH_SIZE = 256  # run_partitioned_extraction's default batch size
SOCKET_PATH_MAX = 107
# longest socket path Ray makes under its temp dir (7-digit pid, ".1"
# suffix when the name is taken):
_RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store.1")


def _ray_temp_dir() -> str:
    """Ray's session directory on a short path, so its AF_UNIX socket
    paths stay within 107 bytes: inside the checkout when its path is
    short enough (up to 34 bytes), else a fresh directory under /tmp."""
    path = os.path.join(ROOT, ".pbray")
    if len(path.encode()) + _RAY_SOCKET_SUFFIX <= SOCKET_PATH_MAX:
        return path
    path = tempfile.mkdtemp(prefix="pbray-", dir="/tmp")
    print(f"note: checkout path too long for Ray's socket paths; Ray session under {path}", file=sys.stderr)
    return path


_T0 = time.monotonic()


def log(msg: str) -> None:
    print(f"[{time.monotonic() - _T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


def ray_start(n_cpus: int, temp_dir: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=n_cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def ray_stop() -> None:
    import ray

    ray.shutdown()
    killed = host.stop_descendants()
    if killed:
        print(f"note: killed leftover processes {killed}", file=sys.stderr)


class Bench:
    def __init__(self, wl: gen.Workload, work: str):
        self.wl = wl
        self.work = work
        self.partitions = [f"{i:05d}" for i in range(len(wl.paths))]
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._n = 0
        self.last_out: str | None = None
        self.last_rows = None

    def out_dir(self, tag: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"out-{self._n:04d}-{tag}")

    def check(self, out: str, what: str, count: bool = True):
        failed, errors, rows = checks.check_output(out, self.wl.truth, self.partitions)
        self.errors += [f"{what}: {e}" for e in errors]
        if count:
            self.attempted += self.wl.n_rows
            self.failed += failed
        return rows

    def round(self, tag: str, count: bool = True) -> dict:
        """One whole round into a fresh directory, timed and checked.
        The latest round's output is kept for ``resume_checks``."""
        from pdf_extractor_ray.state.manifest import run_partitioned_extraction

        out = self.out_dir(tag)
        pids = host.descendants()
        cpu0 = host.tree_cpu_s(pids)
        t0 = time.monotonic()
        with host.RoundMonitor(os.path.join(out, "MANIFEST", "manifest.jsonl"), t0) as mon:
            run_partitioned_extraction(self.wl.paths, out)
            wall = time.monotonic() - t0
        cpu = host.tree_cpu_s(host.descendants()) - cpu0
        out_bytes = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs
        )
        self.last_rows = self.check(out, tag, count)
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out
        return {
            "wall_s": wall,
            "docs_per_s": self.wl.n_rows / wall,
            "first_commit_s": mon.first_seen_s if mon.first_seen_s is not None else wall,
            "cpu_s_per_kdoc": cpu / self.wl.n_rows * 1000,
            "peak_rss_mb": mon.peak_rss_mb,
            "output_bytes_per_doc": out_bytes / self.wl.n_rows,
        }

    def resume_checks(self) -> None:
        """Re-invocation runs nothing; crash after one partition +
        resume gives the rows of an uninterrupted round."""
        from pdf_extractor_ray.state.manifest import run_partitioned_extraction

        reference_rows = self.last_rows
        self.errors += checks.check_no_rerun(run_partitioned_extraction(self.wl.paths, self.last_out))
        out = self.out_dir("crash")
        try:
            run_partitioned_extraction(self.wl.paths, out, fail_after_partitions=1)
            self.errors.append("crash: fail_after_partitions=1 did not raise")
        except RuntimeError:
            pass
        summary = run_partitioned_extraction(self.wl.paths, out)
        if summary["skipped"] != self.partitions[:1]:
            self.errors.append(f"resume: skipped {summary['skipped']}, expected the first partition")
        rows = self.check(out, "resume", count=False)
        self.errors += checks.check_same_rows(reference_rows, rows, "resume")
        shutil.rmtree(out)


def setup(bench: Bench, n_cpus: int, temp_dir: str) -> float:
    """Seconds of ``ray.init`` + one warm-up round (its checks excluded)."""
    t0 = time.monotonic()
    ray_start(n_cpus, temp_dir)
    init_s = time.monotonic() - t0
    return init_s + bench.round("warmup", count=False)["wall_s"]


def timed_rounds(bench: Bench, seconds: float) -> dict:
    rounds = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        rounds.append(bench.round("timed"))
        r = rounds[-1]
        log(f"round {len(rounds)}: {r['docs_per_s']:.1f} docs/s, first commit {r['first_commit_s']:.3f} s, "
            f"{r['cpu_s_per_kdoc']:.3f} cpu s/kdoc")
    keys = ["docs_per_s", "first_commit_s", "cpu_s_per_kdoc", "peak_rss_mb", "output_bytes_per_doc"]
    return {"rounds": len(rounds), **{k: statistics.median(r[k] for r in rounds) for k in keys}}


# ------------------------------------------------------------------ traced run
_STATS_TOTAL = re.compile(r"\* (Remote wall time|UDF time):.*?([\d.]+)(us|ms|s) total")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def extract_op_stats(stats: str) -> dict:
    """UDF and remote wall seconds of the extract operator in ``ds.stats()``."""
    block = stats.split("MapBatches(extract_all_batch)", 1)[1].split("\n\n", 1)[0]
    found = {m[1]: float(m[2]) * _UNIT_S[m[3]] for m in _STATS_TOTAL.finditer(block)}
    return {"flagship.extract_udf_s": found["UDF time"], "flagship.extract_wall_s": found["Remote wall time"]}


def trace_kernels(rec: tracing.Recorder, wl: gen.Workload) -> dict:
    """Plain extract_record loop, no Ray: the single-threaded baseline."""
    from pdf_extractor_ray.kernels.record import extract_record
    from pdf_extractor_ray.kernels.sniff import sniff

    group = {gen.HTML: "html", gen.PDF: "pdf", gen.TAIL: "tail"}
    for url, raw in wl.raws:
        with rec.span("kernels.sniff"):
            sniff(raw)
        with rec.span(f"kernels.{group.get(wl.truth[url].cls, 'edge')}"):
            extract_record(url, raw)
    out = {"kernels.docs_per_s": wl.n_rows / sum(rec.total(f"kernels.{g}") for g in ("html", "pdf", "tail", "edge"))}
    for g in ("html", "pdf", "edge", "tail", "sniff"):
        spans = rec.by_name(f"kernels.{g}")
        out[f"kernels.{g}_us_per_doc"] = rec.total(f"kernels.{g}") / len(spans) * 1e6
    return out


def trace_stages(rec: tracing.Recorder, wl: gen.Workload) -> dict:
    """``extract_all_batch`` over the workload's batches, in process,
    with its kernel calls and ``records_to_arrow`` as child spans."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.stages import extract as stage

    batches = [
        pa.Table.from_batches([b])
        for p in wl.paths
        for b in pq.read_table(p).to_batches(max_chunksize=BATCH_SIZE)
    ]
    with rec.patched([
        (stage, "extract_record", "stages.extract_record"),
        (stage, "records_to_arrow", "stages.records_to_arrow"),
    ]):
        for b in batches:
            with rec.span("stages.extract_all_batch"):
                stage.extract_all_batch(b)
    us = 1e6 / wl.n_rows
    return {
        "stages.extract_all_batch_us_per_doc": rec.total("stages.extract_all_batch") * us,
        "stages.records_to_arrow_us_per_doc": rec.total("stages.records_to_arrow") * us,
        "stages.batch_overhead_us_per_doc": rec.self_time("stages.extract_all_batch") * us,
    }


def trace_flagship(rec: tracing.Recorder, wl: gen.Workload, n_cpus: int) -> dict:
    """Ray floor (identity map_batches over the same read), the
    extraction pipeline's count(), and the extract operator's UDF vs
    wall time from ``ds.stats()``."""
    import ray.data

    from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline

    with rec.span("flagship.floor"):
        ray.data.read_parquet(
            wl.paths, columns=["url", "html"], override_num_blocks=max(n_cpus * 4, 16)
        ).map_batches(lambda t: t, batch_format="pyarrow", batch_size=BATCH_SIZE).count()
    with rec.span("flagship.count"):
        n = build_extraction_pipeline(wl.paths).count()
    if n != wl.n_rows:
        raise RuntimeError(f"flagship count() gave {n} rows, expected {wl.n_rows}")
    with rec.span("flagship.materialize"):
        ds = build_extraction_pipeline(wl.paths).materialize()
    return {
        "flagship.floor_docs_per_s": wl.n_rows / rec.total("flagship.floor"),
        "flagship.count_docs_per_s": wl.n_rows / rec.total("flagship.count"),
        **extract_op_stats(ds.stats()),
    }


def trace_manifest(rec: tracing.Recorder, bench: Bench, deadline: float) -> dict:
    """Traced and untraced rounds, alternated until ``deadline``;
    per-layer figures are medians over the traced rounds."""
    import ray
    import ray.data

    from pdf_extractor_ray.pipelines import flagship
    from pdf_extractor_ray.state import manifest, metrics

    def from_manifest() -> bool:
        return sys._getframe(2).f_globals.get("__name__") == manifest.__name__

    targets = [
        (manifest, "run_partitioned_extraction", "manifest.run"),
        (flagship, "build_extraction_pipeline", "manifest.build"),
        (ray.data.Dataset, "write_parquet", "manifest.write"),
        (manifest, "fileset_hash", "manifest.fileset_hash"),
        (manifest.Manifest, "commit", "manifest.commit"),
        (metrics, "start_collector", "metrics.start_collector"),
        (ray, "get", "metrics.drain", from_manifest),
    ]
    per_round: list[dict] = []
    untraced: list[float] = []
    while not per_round or time.monotonic() < deadline:
        first = len(rec.spans)
        with rec.patched(targets):
            traced_s = bench.round("traced")["wall_s"]
        spans = rec.spans[first:]
        untraced.append(bench.round("untraced")["wall_s"])

        def total(name: str) -> float:
            return sum(s.end - s.start for s in spans if s.name == name)

        writes = [s for s in spans if s.name == "manifest.write"]
        commits = [s for s in spans if s.name == "manifest.commit"]
        post_write = sum(c.start - w.end for w, c in zip(writes, commits))
        run_s = total("manifest.run")
        per_round.append({
            "manifest.partitions": float(len(commits)),
            "manifest.build_s": total("manifest.build"),
            "manifest.write_s": total("manifest.write"),
            "manifest.post_write_s": post_write,
            "manifest.commit_s": total("manifest.commit"),
            "manifest.fileset_hash_s": total("manifest.fileset_hash"),
            "manifest.partition_overhead_s": (run_s - total("manifest.write")) / max(1, len(commits)),
            "metrics.start_collector_s": total("metrics.start_collector"),
            "metrics.drain_s": total("metrics.drain"),
            "trace.round_s": traced_s,
        })
    out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    out["trace.overhead_s"] = out.pop("trace.round_s") - statistics.median(untraced)
    return out


def trace_dedup(rec: tracing.Recorder, seed: int, work: str) -> tuple[dict, list[str]]:
    """``pipelines.dedup.dedup_minhash`` over planted near-duplicate
    clusters, with the LSH pair stage and the anti-join timed as
    materialized children; signatures timed in process."""
    from pdf_extractor_ray import joins
    from pdf_extractor_ray.kernels import hashing
    from pdf_extractor_ray.pipelines import dedup

    sf_dir, kept_truth, n_docs = gen.make_near_dup_docs(seed, os.path.join(work, "near_dup"))
    import pyarrow.parquet as pq

    texts = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["text"]).column("text").to_pylist()
    with rec.span("dedup.signatures"):
        for t in texts:
            hashing.minhash_signature(hashing.shingle_hashes(t, k=5), num_perm=64)

    captured = {}

    def materialized(name, fn):
        def call(*args, **kwargs):
            with rec.span(name):
                ds = fn(*args, **kwargs).materialize()
            captured[name] = ds
            return ds

        return call

    saved = dedup.minhash_lsh_pairs, joins.semi_join
    dedup.minhash_lsh_pairs = materialized("dedup.lsh_pairs", saved[0])
    joins.semi_join = materialized("dedup.anti_join", saved[1])
    try:
        with rec.span("dedup.dedup_minhash"):
            kept = dedup.dedup_minhash(sf_dir).to_pandas()
    finally:
        dedup.minhash_lsh_pairs, joins.semi_join = saved
    pairs = captured["dedup.lsh_pairs"].to_pandas()
    errors = []
    if set(kept["doc_id"]) != kept_truth or len(kept) != len(kept_truth):
        errors.append(f"dedup: kept {len(kept)} docs, planted truth keeps {len(kept_truth)}")
    return {
        "dedup.signature_us_per_doc": rec.total("dedup.signatures") / n_docs * 1e6,
        "dedup.lsh_pairs_s": rec.total("dedup.lsh_pairs"),
        "dedup.anti_join_s": rec.total("dedup.anti_join"),
        "dedup.candidate_pairs": len(pairs),
        "dedup.losers": pairs["doc_b"].nunique(),
    }, errors


# ------------------------------------------------------------------------ main
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    n_cpus = host.nproc()
    cpus = host.restrict_affinity(n_cpus)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    host_rec = {"nproc": n_cpus, "affinity": cpus, "burn_before_s": host.burn_s()}
    steal0 = host.steal_s()

    work = os.path.join(ROOT, ".prodbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    temp_dir = _ray_temp_dir()
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = gen.make_workload(args.workload, args.seed, os.path.join(work, "in"))
        bench = Bench(wl, work)
        bench.errors += selftest.run(wl, os.path.join(work, "selftest"))
        log(f"generated {wl.n_rows} rows in {len(wl.paths)} files; self-test done")
        setup_s = setup(bench, n_cpus, temp_dir)
        log(f"set-up done in {setup_s:.2f} s")
        if args.trace:
            rec = tracing.Recorder()
            deadline = time.monotonic() + args.seconds
            metrics = {
                **trace_kernels(rec, wl),
                **trace_stages(rec, wl),
                **trace_flagship(rec, wl, n_cpus),
                **trace_manifest(rec, bench, deadline),
            }
            dedup_metrics, dedup_errors = trace_dedup(rec, args.seed, work)
            metrics.update(dedup_metrics)
            bench.errors += dedup_errors
            os.makedirs(os.path.join(ROOT, ".prodbench_out"), exist_ok=True)
            rec.dump(os.path.join(ROOT, ".prodbench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            measured = timed_rounds(bench, args.seconds)
            host_rec["rounds"] = measured.pop("rounds")
            metrics = {"setup_s": setup_s, **measured}
        log("measured")
        bench.resume_checks()
        log("resume checks done")
    finally:
        ray_stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)

    log("stopped")
    host_rec.update(burn_after_s=host.burn_s(), steal_s=host.steal_s() - steal0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for e in bench.errors:
        print(f"error: {e}", file=sys.stderr)
    print("host: " + json.dumps(host_rec))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
