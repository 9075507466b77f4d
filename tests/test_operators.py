"""Operator tests: joins, dedup family, sync-merge, similarity,
training pipelines — tiny in-memory tables + the sf0.001 testdata."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from tests.conftest import SF_DIR


# ------------------------------------------------------------- joins
def test_bucket_join_matches_pandas_merge():
    from pdf_extractor_ray.joins import bucket_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "a": ["x", "y", "z", "w", "v"]})
    right = pd.DataFrame({"k": [2, 2, 3, 4], "b": [10, 20, 30, 40]})
    got = (
        bucket_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on="k", num_buckets=4)
        .to_pandas()
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k").sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp)


def test_broadcast_semi_and_anti():
    from pdf_extractor_ray.joins import broadcast_semi

    ds = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4], "v": list("abcd")}))
    semi = broadcast_semi(ds, {2, 4}, "k").to_pandas()
    anti = broadcast_semi(ds, {2, 4}, "k", keep=False).to_pandas()
    assert sorted(semi["k"]) == [2, 4]
    assert sorted(anti["k"]) == [1, 3]


# ------------------------------------------------------------- dedup
def test_dedup_exact_keeps_min_doc_id(tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa

    df = pd.DataFrame(
        {
            "doc_id": [5, 1, 2, 3],
            "text": ["same text", "same text", "other", "same text"],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [9, 9, 5, 9],
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df), str(d / "documents.parquet"))
    from pdf_extractor_ray.pipelines.dedup import dedup_exact

    out = dedup_exact(str(d)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]


def test_minhash_lsh_finds_planted_near_dups(tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa

    base = (
        "the quick brown fox jumps over the lazy dog while the rain in spain stays "
        "mainly in the plain and every good boy deserves fudge for dinner tonight"
    )
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [base, base + " extra suffix words", "completely unrelated machinery manual content about torque wrenches and bolts"],
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(docs), str(d / "documents.parquet"))
    from pdf_extractor_ray.pipelines.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(str(d), jaccard_threshold=0.3).to_pandas()
    assert {(a, b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])} == {(1, 2)}


def test_simhash_planted_near_dups(tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa

    base = " ".join(f"word{i}" for i in range(120))
    docs = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": [base, base + " tail", " ".join(f"other{i}" for i in range(120))]}
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(docs), str(d / "documents.parquet"))
    from pdf_extractor_ray.pipelines.dedup import simhash_near_dups

    pairs = simhash_near_dups(str(d), max_hamming=6).to_pandas()
    assert (1, 2) in set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (1, 3) not in set(zip(pairs["doc_a"], pairs["doc_b"]))


# --------------------------------------------------------- sync merge
def test_merge_into_sink_two_level_dedup():
    from pdf_extractor_ray.pipelines.sync_merge import merge_into_sink

    sink = pd.DataFrame({"file_name": ["Report-A.pdf"], "total": ["100"]})
    new = pd.DataFrame(
        {
            "file_name": ["report a", "Report-B.pdf", "REPORT B!!", "fresh.pdf"],
            "total": ["999", "200", "201", "300"],
        }
    )
    out = merge_into_sink(
        ray.data.from_pandas(sink), ray.data.from_pandas(new), key_col="file_name", tie_break_col="file_name"
    ).to_pandas()
    # "report a" normalizes to existing sink row → sink wins (100 kept)
    assert set(out.loc[out["total"] == "100", "file_name"]) == {"Report-A.pdf"}
    assert "999" not in set(out["total"])
    # Report-B.pdf and REPORT B!! collide on the normalized key → one deterministic winner
    b_rows = out[out["file_name"].str.lower().str.contains("report")]
    assert len(out) == 3  # A(sink), one B, fresh
    # idempotent: merging the same new rows again changes nothing
    out2 = merge_into_sink(
        ray.data.from_pandas(out), ray.data.from_pandas(new), key_col="file_name", tie_break_col="file_name"
    ).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values(["file_name", "total"]).reset_index(drop=True),
        out2.sort_values(["file_name", "total"]).reset_index(drop=True),
    )


# --------------------------------------------------------- similarity
def test_knn_ivf_recall_vs_brute_force():
    from pdf_extractor_ray.pipelines.similarity import knn_brute_force, knn_ivf

    exact = knn_brute_force(SF_DIR, k=10)
    approx = knn_ivf(SF_DIR, k=10, num_lists=8, n_probe=4)
    recall = len(set(exact["vec_id"]) & set(approx["vec_id"])) / len(exact)
    assert recall >= 0.5, f"IVF recall too low: {recall}"


# ----------------------------------------------------------- training
def test_training_examples_and_validation():
    from pdf_extractor_ray.pipelines.training import (
        build_training_examples,
        validate_examples,
        validation_metrics,
    )

    docs = ray.data.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["hello  world", ""]}))
    ex = validate_examples(build_training_examples(docs)).to_pandas()
    assert list(ex["valid"]) == [True, False]
    assert "hello world" in ex.loc[0, "messages"][0]["content"]  # ws collapsed

    pairs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "url": ["u1", "u1", "u2", "u2"],
                "field_key": ["total", "date", "total", "name"],
                "expected": ["100", "2024-01-01", "55", ""],
                "actual": ["100", "wrong", "", "extra"],
            }
        )
    )
    m = validation_metrics(pairs)
    # tp=1 (total@u1), fp=2 (date wrong, name extra), fn=1 (total@u2 missing)
    assert m["precision"] == pytest.approx(1 / 3)
    assert m["recall"] == pytest.approx(1 / 2)
    assert 0 < m["f1"] < 1
    assert set(m["per_field"]["field_key"]) == {"total", "date", "name"}


# ------------------------------------------------------------ webdocs
def test_extract_documents_recovers_text():
    """HTML-derived rows must extract exactly the documents' text."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.webdocs import extract_documents

    out = extract_documents(SF_DIR).to_pandas()
    docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    texts = dict(zip(docs["doc_id"], docs["text"]))
    n_checked = 0
    for _, row in out.iterrows():
        doc_id = int(row["url"].rsplit("/", 1)[1])
        # pages carry a trailing planted-fields details block (DOC ID /
        # LANG CODE / SOURCE NAME) after the document text
        body = row["extracted_text"].split("\nDOC ID:")[0]
        if row["kind"] == "html":
            assert body == texts[doc_id], f"doc {doc_id}"
            n_checked += 1
        else:
            assert row["status"] == "ok"
            assert body.split() == texts[doc_id].split()
    assert n_checked > 0


def test_embed_and_corpus_pipeline():
    """Deterministic embedding stage + composed curation pipeline."""
    from pdf_extractor_ray.pipelines.corpus import corpus_pipeline, embed_documents

    emb = embed_documents(SF_DIR, concurrency=2).to_pandas()
    assert len(emb) > 0
    v = np.asarray(emb.iloc[0]["embedding"], dtype=np.float64)
    assert v.shape == (64,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-5  # L2-normalized
    # deterministic across runs
    emb2 = embed_documents(SF_DIR, concurrency=2).to_pandas()
    m1 = {d: tuple(np.round(e, 5)) for d, e in zip(emb["doc_id"], emb["embedding"])}
    m2 = {d: tuple(np.round(e, 5)) for d, e in zip(emb2["doc_id"], emb2["embedding"])}
    assert m1 == m2

    stats = corpus_pipeline(SF_DIR).to_pandas()
    assert stats["n_docs"].sum() > 0
    assert set(stats.columns) == {"lang", "n_docs", "quality_permille_sum"}


def test_empty_input_pipeline(tmp_path):
    """Zero-row inputs flow through the flagship pipeline and the wide
    operators without crashing or inventing rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.flagship import build_extraction_pipeline
    from pdf_extractor_ray.sources.pages import generate_pages_table
    from pdf_extractor_ray.ops import grouped_sum, keep_first

    empty = generate_pages_table(0, seed=1)
    path = str(tmp_path / "empty.parquet")
    pq.write_table(empty, path)
    assert build_extraction_pipeline([path]).count() == 0

    eds = ray.data.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")}))
    assert grouped_sum(eds, ["k"], ["v"]).count() == 0
    assert keep_first(eds, ["k"], "v").count() == 0


def test_csv_source_sink_roundtrip(tmp_path):
    """CSV source/sink coverage: write_csv → read_csv → aggregate."""
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.from_pandas(pd.DataFrame({"k": ["a", "b", "a"], "v": [1, 2, 3]}))
    out = str(tmp_path / "csv")
    ds.write_csv(out)
    back = ray.data.read_csv(out)
    agg = grouped_sum(back, ["k"], ["v"], num_buckets=2).to_pandas().sort_values("k")
    assert list(agg["v"]) == [4, 2]


def test_semi_join_distributed_semi_and_anti():
    """Distributed semi/anti join (native left_semi/left_anti) keeps
    left schema and matches the set-based definition, incl. right_on
    with a differently-named key column and duplicate right keys."""
    from pdf_extractor_ray.joins import semi_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 5], "v": list("abcde")})
    right = pd.DataFrame({"rk": [2, 2, 4, 9]})
    lds = ray.data.from_pandas(left)
    rds = ray.data.from_pandas(right)
    # broadcast_limit=0 forces the hash-partitioned exchange plan
    semi = semi_join(lds, rds, on="k", right_on="rk", num_partitions=4, broadcast_limit=0).to_pandas()
    anti = semi_join(lds, rds, on="k", right_on="rk", keep=False, num_partitions=4, broadcast_limit=0).to_pandas()
    assert sorted(semi.columns) == ["k", "v"]
    assert sorted(semi["k"]) == [2, 4]
    assert sorted(anti["k"]) == [1, 3, 5]
    # the adaptive (auto-broadcast) plan returns identical rows
    semi_b = semi_join(lds, rds, on="k", right_on="rk").to_pandas()
    assert sorted(semi_b["k"]) == [2, 4]


def test_bloom_no_false_negatives_and_semi_join_bloom_exact():
    """Bloom membership never misses a present key; the bloom-prefiltered
    semi/anti join returns exactly the same rows as the plain one."""
    from pdf_extractor_ray.joins import bloom_contains, build_bloom, semi_join

    rng = np.random.default_rng(7)
    keys = rng.choice(100_000, size=500, replace=False)
    keys_ds = ray.data.from_pandas(pd.DataFrame({"rk": keys}))
    nbits = 1 << 16
    bloom = build_bloom(keys_ds, "rk", num_bits=nbits)
    mask = bloom_contains(pd.Series(keys), bloom, num_bits=nbits)
    assert mask.all()  # no false negatives, ever

    left = pd.DataFrame({"k": np.arange(2000), "v": np.arange(2000) * 2})
    lds = ray.data.from_pandas(left)
    for keep in (True, False):
        plain = semi_join(lds, keys_ds, on="k", right_on="rk", keep=keep).to_pandas()
        bloomed = semi_join(  # broadcast_limit=0: exercise the bloom+exchange plan
            lds, keys_ds, on="k", right_on="rk", keep=keep, bloom_bits=nbits, broadcast_limit=0
        ).to_pandas()
        assert sorted(plain["k"]) == sorted(bloomed["k"])


def test_adaptive_inner_join_both_plans_match():
    """adaptive_inner_join: broadcast plan (default) and exchange plan
    (broadcast_limit=0) produce identical inner-join rows AND the exact
    same schema (the exchange path must drop the right key column like
    the broadcast path does), including duplicate right keys and a
    differently-named key column."""
    from pdf_extractor_ray.joins import adaptive_inner_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 7], "a": list("vwxyz")})
    right = pd.DataFrame({"rk": [2, 2, 3, 4], "b": [10, 20, 30, 40]})
    lds, rds = ray.data.from_pandas(left), ray.data.from_pandas(right)
    exp = (
        left.merge(right, left_on="k", right_on="rk").drop(columns="rk")
        .sort_values(["k", "a", "b"]).reset_index(drop=True)
    )
    for lim in (1_000_000, 0):
        got = (
            adaptive_inner_join(lds, rds, on="k", right_on="rk", broadcast_limit=lim)
            .to_pandas()
        )
        assert sorted(got.columns) == sorted(exp.columns), lim  # exact schema, both plans
        got = got.sort_values(["k", "a", "b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[exp.columns], exp)


def test_broadcast_byte_gate_flips_wide_side_to_exchange(monkeypatch):
    """A build side UNDER the row limit but OVER the byte limit must
    take the exchange plan (never collected on the driver): a wide
    string column flips the gate; results are plan-invariant."""
    from unittest import mock

    from pdf_extractor_ray import joins

    left = pd.DataFrame({"k": [1, 2, 3, 4], "a": list("wxyz")})
    right = pd.DataFrame({"rk": [2, 3], "payload": ["X" * 4096, "Y" * 4096]})
    lds, rds = ray.data.from_pandas(left), ray.data.from_pandas(right)

    # sanity: the wide side really exceeds the patched byte budget
    monkeypatch.setattr(joins, "BROADCAST_BYTE_LIMIT", 1024)
    assert not joins._fits_broadcast(rds.materialize(), 1_000_000)

    with mock.patch.object(
        joins, "join_datasets", wraps=joins.join_datasets
    ) as spy:
        got = joins.adaptive_inner_join(lds, rds, on="k", right_on="rk").to_pandas()
    assert spy.called  # exchange plan ran, not the driver collect
    exp = (
        left.merge(right, left_on="k", right_on="rk").drop(columns="rk")
        .sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True)[exp.columns], exp
    )

    # semi_join: same gate; and the key projection means a NARROW key
    # column still broadcasts even when payload columns are huge
    with mock.patch.object(joins, "broadcast_semi", wraps=joins.broadcast_semi) as spy:
        got = joins.semi_join(lds, rds, on="k", right_on="rk").to_pandas()
    assert spy.called  # keys-only side fits 1 KiB: broadcast plan kept
    assert sorted(got["k"]) == [2, 3]


def test_label_propagation_components():
    """Distributed min-label propagation equals union-find on a graph
    with a chain (needs multiple rounds), a triangle, and an isolated
    edge; isolated nodes are absent from the output by contract."""
    from pdf_extractor_ray.pipelines.dedup import label_propagation

    edges = pd.DataFrame(
        {
            "doc_a": [10, 11, 12, 13,   20, 21, 20,   30],
            "doc_b": [11, 12, 13, 14,   21, 22, 22,   31],
        }
    )
    labels = (
        label_propagation(ray.data.from_pandas(edges), src="doc_a", dst="doc_b")
        .to_pandas()
        .set_index("node")["label"]
        .to_dict()
    )
    assert labels == {10: 10, 11: 10, 12: 10, 13: 10, 14: 10,
                      20: 20, 21: 20, 22: 20, 30: 30, 31: 30}


def test_embedding_grid_pairs_match_local_bruteforce(tmp_path):
    """The blocked pair grid finds exactly the pairs a local all-pairs
    cosine scan finds — every pair once, same similarity."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_extractor_ray.pipelines.dedup import embedding_near_dups

    rng = np.random.default_rng(11)
    n, dim = 120, 8
    mat = rng.normal(size=(n, dim))
    # plant some near-dup pairs
    for a, b in [(3, 77), (10, 52), (40, 41)]:
        mat[b] = mat[a] + rng.normal(scale=0.01, size=dim)
    ids = np.arange(100, 100 + n, dtype=np.int64)
    pq.write_table(
        pa.table({"vec_id": ids, "embedding": [list(map(float, r)) for r in mat]}),
        str(tmp_path / "embeddings.parquet"),
    )
    got = (
        embedding_near_dups(str(tmp_path), cosine_threshold=0.8, num_blocks=3)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = matn @ matn.T
    exp = []
    for i in range(n):
        for j in range(i + 1, n):
            if sims[i, j] >= 0.8:
                exp.append((int(ids[i]), int(ids[j]), sims[i, j]))
    assert len(got) == len(exp) >= 3
    for (ea, eb, es), (_, row) in zip(sorted(exp), got.iterrows()):
        assert (ea, eb) == (row["vec_a"], row["vec_b"])
        assert abs(es - row["cosine_sim"]) < 1e-12


def test_scorer_stage_backend_chain_and_error_isolation():
    """ScorerStage: factory-built backend once per actor, prompt →
    completion → robust parse → field mapping; a raising backend
    quarantines its rows instead of failing the stage."""
    from pdf_extractor_ray.stages.scorer import (
        CompletionBackend,
        score_documents,
    )

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2],
                "text": ["some body\nDOC ID: 1\nLANG CODE: en", "plain text no labels"],
            }
        )
    )
    out = score_documents(docs, concurrency=1, batch_size=8).to_pandas().sort_values("doc_id")
    assert out["parse_ok"].all()
    assert list(out["n_fields"]) == [2, 0]

    class Exploding(CompletionBackend):
        def complete(self, messages):
            raise RuntimeError("backend down")

    bad = score_documents(docs, lambda: Exploding(), concurrency=1).to_pandas()
    assert not bad["parse_ok"].any()
    assert bad["error"].str.startswith("backend:").all()
    assert len(bad) == 2  # rows quarantined, never dropped


def test_prepare_training_run_enforces_minimum():
    """The reference's >=10-valid-examples pre-flight guard."""
    import pytest as _pytest

    from pdf_extractor_ray.pipelines.training import (
        build_training_examples,
        prepare_training_run,
    )

    few = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(5), "text": ["hello world"] * 5})
    )
    with _pytest.raises(ValueError, match=">= 10 valid"):
        prepare_training_run(build_training_examples(few))

    enough = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(12), "text": ["hello world"] * 11 + [""]})
    )
    valid, counts = prepare_training_run(build_training_examples(enough))
    assert counts == {"n_valid": 11, "n_invalid": 1, "n_total": 12}
    assert valid.count() == 11


def test_ivf_persisted_index_partition_pruned(tmp_path):
    """build_ivf_index writes a hive-partitioned layout (one directory
    per list_id) + centroid sidecar; the indexed query reads only the
    probed partitions and matches the transient knn_ivf results."""
    import os

    from pdf_extractor_ray.pipelines.similarity import (
        _load_query_vec,
        build_ivf_index,
        knn_ivf,
        knn_ivf_indexed,
    )

    idx = str(tmp_path / "ivf")
    build_ivf_index(SF_DIR, idx, num_lists=8)
    parts = [d for d in os.listdir(os.path.join(idx, "data")) if d.startswith("list_id=")]
    assert len(parts) >= 2  # really partitioned on disk
    assert os.path.exists(os.path.join(idx, "centroids.npy"))

    qid, qvec = _load_query_vec(SF_DIR)
    got = knn_ivf_indexed(idx, qvec, exclude_vec_id=qid, k=10, n_probe=4)
    transient = knn_ivf(SF_DIR, k=10, num_lists=8, n_probe=4)
    assert list(got["vec_id"]) == list(transient["vec_id"])
    assert list(got["rank"]) == list(transient["rank"])


def test_hll_sketch_accuracy_and_merge():
    """HLL registers merge associatively and estimate within ~5% at
    p=12 across three orders of magnitude."""
    from functools import reduce

    from pdf_extractor_ray.kernels import sketches

    rng = np.random.default_rng(9)
    for true_n in (50, 2_000, 80_000):
        h = rng.integers(0, 2**64, size=true_n, dtype=np.uint64)
        regs = [sketches.hll_registers(part) for part in np.array_split(h, 7)]
        merged = reduce(sketches.hll_merge, regs)
        # merge order must not matter
        merged_rev = reduce(sketches.hll_merge, regs[::-1])
        assert (merged == merged_rev).all()
        est = sketches.hll_estimate(merged)
        assert abs(est - true_n) / true_n < 0.05, (true_n, est)


def test_approx_distinct_counts_close_to_exact():
    import duckdb

    from pdf_extractor_ray.pipelines.textops import approx_distinct_counts

    got = approx_distinct_counts(SF_DIR).set_index("metric")["approx_distinct"]
    con = duckdb.connect()
    exact_users = con.sql(
        f"SELECT COUNT(DISTINCT user_id) FROM read_parquet('{SF_DIR}/events.parquet')"
    ).fetchone()[0]
    exact_tokens = con.sql(
        f"""SELECT COUNT(DISTINCT w) FROM (
            SELECT unnest(string_split(text,' ')) AS w
            FROM read_parquet('{SF_DIR}/documents.parquet')) WHERE w != ''"""
    ).fetchone()[0]
    assert abs(got["events.user_id"] - exact_users) / exact_users < 0.05
    assert abs(got["documents.token"] - exact_tokens) / exact_tokens < 0.05


def test_sliding_window_each_event_in_two_windows():
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.windows import events_sliding_window

    n_events = pq.read_metadata(f"{SF_DIR}/events.parquet").num_rows
    out = events_sliding_window(SF_DIR).to_pandas()
    assert out["n_events"].sum() == 2 * n_events  # size/hop = 2 windows each
    assert (out["w_start"] % 1800 == 0).all()


def test_bloom_false_positive_rate_uses_k_hashes():
    """With proper double hashing (pd.util.hash_array ignores hash_key
    for numeric dtypes, so k must come from derived h2), the FP rate at
    n=5000 keys / 2^16 bits is ~0.5% (k=4), far under the ~7% a
    collapsed k=1 filter would show."""
    from pdf_extractor_ray.joins import bloom_contains, build_bloom

    rng = np.random.default_rng(21)
    keys = rng.choice(10_000_000, size=5000, replace=False)
    nbits = 1 << 16
    bloom = build_bloom(ray.data.from_pandas(pd.DataFrame({"rk": keys})), "rk", num_bits=nbits)
    probe = rng.choice(np.setdiff1d(np.arange(20_000_000, 20_050_000), keys), size=20_000, replace=False)
    fp = bloom_contains(pd.Series(probe), bloom, num_bits=nbits).mean()
    assert fp < 0.02, f"FP rate {fp:.4f} suggests hash functions collapsed"


def test_keep_first_viral_key_bounded_and_correct():
    """Hot-key hardening: a viral key (100k identical-key rows) must
    reach the exchange as at most one row per batch (the per-batch
    partial idxmin), and the final answer is still the exact min-tie
    row per key."""
    from pdf_extractor_ray.ops import _keep_first_partials, keep_first

    n_hot = 100_000
    hot = pd.DataFrame(
        {
            "k": ["viral"] * n_hot,
            "ts": np.arange(n_hot, dtype=np.int64)[::-1],  # min ts is the LAST row
            "v": np.arange(n_hot, dtype=np.int64),
        }
    )
    cold = pd.DataFrame(
        {
            "k": [f"k{i}" for i in range(50)],
            "ts": np.arange(50, dtype=np.int64) + 7,
            "v": np.arange(50, dtype=np.int64) + 1_000_000,
        }
    )
    df = pd.concat([hot, cold], ignore_index=True)
    ds = ray.data.from_pandas(df)
    batch_size = 4096
    n_batches = -(-len(df) // batch_size)

    partials = _keep_first_partials(ds, ["k"], "ts", 16, batch_size).to_pandas()
    viral_rows = int((partials["k"] == "viral").sum())
    assert viral_rows <= 2 * n_batches  # bounded by batches, not rows

    out = keep_first(ds, ["k"], "ts", batch_size=batch_size).to_pandas()
    assert len(out) == 51
    viral = out[out["k"] == "viral"].iloc[0]
    assert viral["ts"] == 0 and viral["v"] == n_hot - 1  # exact min-tie row


def test_grouped_sum_two_level_salted_matches_one_level():
    """two_level=True (salted intermediate combine) must produce
    byte-identical sums to the single-level plan on a skewed keyset."""
    from pdf_extractor_ray.ops import grouped_sum

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "k": np.where(rng.random(50_000) < 0.6, "hot", rng.integers(0, 200, 50_000).astype(str)),
            "x": rng.integers(0, 1000, 50_000).astype(np.int64),
            "y": rng.integers(0, 1000, 50_000).astype(np.int64),
        }
    )
    ds = ray.data.from_pandas(df)
    exp = df.groupby("k", as_index=False)[["x", "y"]].sum().sort_values("k").reset_index(drop=True)
    for two_level in (False, True):
        got = (
            grouped_sum(ds, ["k"], ["x", "y"], batch_size=2048, two_level=two_level)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["k", "x", "y"]], exp, check_dtype=False)


def test_label_propagation_pointer_jumping_long_chain():
    """A 200-node chain (diameter 199) must converge in <= 12 rounds:
    min-label alone needs ~199 rounds and would raise, so this passes
    only if the pointer-jumping (label-of-label) step compounds hops."""
    from pdf_extractor_ray.pipelines.dedup import label_propagation

    n = 200
    edges = pd.DataFrame({"doc_a": np.arange(n - 1) + 1000, "doc_b": np.arange(1, n) + 1000})
    labels = (
        label_propagation(ray.data.from_pandas(edges), src="doc_a", dst="doc_b", max_rounds=12)
        .to_pandas()
    )
    assert len(labels) == n
    assert (labels["label"] == 1000).all()


def test_empty_text_docs_match_oracles(tmp_path):
    """Trim-empty documents derive meta-free pages and extract to ''/
    0 fields, matching the oracles' empty branch exactly — covers the
    HTML branch, the PDF branch (doc_id % 7 == 3), and whitespace-only
    text (ADVICE r2: previously latent because testdata has no empty
    docs)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines import webdocs
    from tools.check_oracle import value_hash

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 10],  # 3 and 10%7=3? no: 10%7=3 -> pdf
            "text": ["", "   \t ", "", "real content words here", "more real body text"],
            "lang": ["en", "de", "fr", "en", "en"],
            "source": ["s1", "s2", "s3", "s4", "s5"],
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(docs), str(d / "documents.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')")

    for ray_fn, sql in (
        (webdocs.extract_documents_summary, webdocs.EXTRACT_FLAGSHIP_SQL),
        (webdocs.extract_fields_documents, webdocs.EXTRACT_FIELDS_SQL),
        (webdocs.llm_score_documents, webdocs.LLM_SCORE_SQL),
    ):
        got = ray_fn(str(d)).to_pandas()
        exp = con.sql(sql).df()
        assert len(got) == len(exp)
        assert sorted(got.columns) == sorted(exp.columns)
        assert value_hash(got) == value_hash(exp), ray_fn.__name__

    # the PDF empty row (doc_id 3) and both HTML empty rows really are
    # status='empty', not meta-lines-only extractions
    summary = webdocs.extract_documents_summary(str(d)).to_pandas().set_index("url")
    for did in (1, 2, 3):
        row = summary.loc[f"https://docs.example.com/{did}"]
        assert row["status"] == "empty" and row["n_chars_extracted"] == 0, did


def test_inverted_index_partition_pruned_lookup(tmp_path):
    """Build → lookup: postings match a local recomputation; the
    lookup's read opens ONLY the token's bucket partition (pinned by
    intercepting read_parquet); concurrent/atomic publish leaves no
    .building- remnants visible."""
    import os
    from unittest import mock

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.kernels import hashing
    from pdf_extractor_ray.pipelines import invindex

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["alpha beta alpha", "beta gamma", "alpha delta delta delta"],
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(docs), str(d / "documents.parquet"))
    idx = str(tmp_path / "idx")
    invindex.build_inverted_index(str(d), idx, num_buckets=8)
    assert not [p for p in os.listdir(tmp_path) if ".building-" in p]

    real_read = ray.data.read_parquet
    seen_paths = []

    def spy_read(paths, **kw):
        seen_paths.append(paths)
        return real_read(paths, **kw)

    with mock.patch.object(ray.data, "read_parquet", side_effect=spy_read):
        out = invindex.lookup_postings(idx, "alpha")
    assert list(zip(out["doc_id"], out["tf"])) == [(1, 2), (3, 1)]  # tf desc, id asc
    bucket = hashing.stable_hash64("alpha") % 8
    for paths in seen_paths:
        for p in paths if isinstance(paths, list) else [paths]:
            assert f"bucket={bucket}" in p  # ONLY alpha's bucket was opened

    assert invindex.lookup_postings(idx, "nosuchtoken").empty


def test_asof_join_directions_match_pandas():
    """asof_join == a global pandas merge_asof for both directions,
    with users spread across many buckets and unsorted input."""
    from pdf_extractor_ray.joins import asof_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {
            "u": rng.integers(0, 40, 600),
            "t": rng.integers(0, 10_000, 600).astype("int64"),
            "x": np.arange(600),
        }
    )
    right = (
        pd.DataFrame(
            {
                "u": rng.integers(0, 40, 200),
                "t": rng.integers(0, 10_000, 200).astype("int64"),
                "v": np.arange(200) * 10,
            }
        )
        .drop_duplicates(["u", "t"])  # well-defined matches
        .reset_index(drop=True)
    )
    for direction in ("backward", "forward"):
        got = (
            asof_join(
                ray.data.from_pandas(left), ray.data.from_pandas(right),
                by="u", on="t", direction=direction, num_buckets=8,
            )
            .to_pandas()
            .sort_values("x")
            .reset_index(drop=True)
        )
        exp = pd.merge_asof(
            left.sort_values("t", kind="mergesort"),
            right.sort_values("t", kind="mergesort"),
            on="t", by="u", direction=direction,
        ).sort_values("x").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["u", "t", "x", "v"]], exp[["u", "t", "x", "v"]])


def test_range_join_overlapping_intervals():
    """Overlapping intervals yield one row per containing interval;
    values outside every interval drop (inner semantics)."""
    from pdf_extractor_ray.joins import range_join

    ds = ray.data.from_pandas(pd.DataFrame({"v": [1, 5, 15, 25], "id": [0, 1, 2, 3]}))
    ranges = pd.DataFrame(
        {"lo": [0, 4, 20], "hi": [10, 16, 30], "band": ["a", "b", "c"]}
    )
    got = range_join(ds, ranges, on="v", start="lo", end="hi").to_pandas()
    pairs = sorted(zip(got["id"], got["band"]))
    assert pairs == [(0, "a"), (1, "a"), (1, "b"), (2, "b"), (3, "c")]


def test_p95_decomposed_equals_colocated():
    """grouped_quantile_counts (distinct-value counts, no raw-row
    co-location) == the co-located grouped_apply quantile, row for
    row."""
    from pdf_extractor_ray.pipelines.analytics import events_value_p95, events_value_p95_hist

    a = events_value_p95(SF_DIR).to_pandas().sort_values("event_type").reset_index(drop=True)
    b = events_value_p95_hist(SF_DIR).to_pandas().sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_bucket_join_accepts_ray_join_type_names():
    """The portable fallback must accept Ray's join_type vocabulary
    (full_outer/left_outer), not just pandas' (regression: r3 review)."""
    from pdf_extractor_ray.joins import bucket_join

    left = pd.DataFrame({"k": [1, 2], "a": ["x", "y"]})
    right = pd.DataFrame({"k": [2, 3], "b": [20, 30]})
    got = (
        bucket_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on="k", how="full_outer", num_buckets=2)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = left.merge(right, on="k", how="outer").sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp)


def test_range_join_refuses_column_collision():
    from pdf_extractor_ray.joins import range_join

    ds = ray.data.from_pandas(pd.DataFrame({"v": [1], "band": ["probe"]}))
    ranges = pd.DataFrame({"lo": [0], "hi": [10], "band": ["r"]})
    with pytest.raises(Exception, match="collide"):
        range_join(ds, ranges, on="v", start="lo", end="hi").to_pandas()


def test_events_hourly_pre_epoch_floor_bucketing(tmp_path):
    """Pre-1970 timestamps must FLOOR into the previous hour (truncate-
    toward-zero would put 23:59:59.5 of 1969-12-31 into hour 0) — Ray
    result vs the date_trunc oracle on a planted pre-epoch event
    (regression: r3 review finding 4)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.analytics import EVENTS_HOURLY_SQL, events_hourly
    from tools.check_oracle import value_hash

    events = pd.DataFrame(
        {
            "event_id": [1, 2, 3],
            "ts": pd.to_datetime(
                ["1969-12-31 23:59:59", "1970-01-01 00:30:00", "1970-01-01 01:05:00"]
            ).astype("datetime64[us]"),
            "user_id": [1, 1, 2],
            "event_type": ["view", "view", "click"],
            "value": [1.25, 2.5, 3.75],
            "props": ["{}", "{}", "{}"],
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(events), str(d / "events.parquet"))
    got = events_hourly(str(d)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    exp = con.sql(EVENTS_HOURLY_SQL).df()
    assert len(got) == 3  # three distinct hours incl. 1969-12-31 23:00
    assert value_hash(got) == value_hash(exp)


def test_redact_pii_planted_fixtures(tmp_path):
    """Redaction counts + redacted lengths on planted emails/phones
    match the DuckDB oracle exactly (the testdata corpus has no PII,
    so this fixture carries the real semantics check)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.textops import REDACT_PII_SQL, redact_pii
    from tools.check_oracle import value_hash

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "contact alice.smith+x@example.co.uk or bob@site.io now",
                "call +1-415-555-0123 or (415) 555 9999 today",
                "mixed: a@b.com then 212.555.4321 done",
                "clean text with no pii at all here",
            ],
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(docs), str(d / "documents.parquet"))
    got = redact_pii(str(d)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')")
    exp = con.sql(REDACT_PII_SQL).df().sort_values("doc_id").reset_index(drop=True)
    assert value_hash(got) == value_hash(exp)
    assert list(got["n_emails"]) == [2, 0, 1, 0]
    assert list(got["n_phones"]) == [0, 2, 1, 0]
