"""Round-5 wave-16 operator tests.

Inverted-index segment merge, heading-anchored passage extraction,
RFC-9309 Allow longest-match robots compliance, int8 embedding
quantization. Ray session comes from the shared session fixture in
conftest.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


class TestRobotsRulesParse:
    def test_allow_and_disallow_collected_in_order(self):
        from pdf_extractor_ray.functions.urls import parse_robots_rules as f

        body = (
            "User-agent: *\nDisallow: /a\nAllow: /a/b\nDisallow:\n"
            "User-agent: OtherBot\nDisallow: /z\n"
        )
        assert f(body) == [(False, "/a"), (True, "/a/b")]

    def test_named_group_replaces_star_group(self):
        """RFC 9309 §2.2.1: a group naming the agent replaces the ``*``
        group; it is not merged with it."""
        from pdf_extractor_ray.functions.urls import (
            parse_robots_crawl_delay,
            parse_robots_rules,
            robots_path_allowed,
        )

        body = (
            "User-agent: *\nAllow: /a/b\nCrawl-delay: 5\n\n"
            "User-agent: FOO\nDisallow: /a\nCrawl-delay: 10\n"
        )
        assert parse_robots_rules(body, agent="foo") == [(False, "/a")]
        assert not robots_path_allowed(parse_robots_rules(body, agent="foo"), "/a/b/c")
        assert parse_robots_crawl_delay(body, agent="foo") == 10
        # no group names the agent: the * group applies, as for "*" itself
        for agent in ("bar", "*"):
            assert parse_robots_rules(body, agent=agent) == [(True, "/a/b")]
            assert parse_robots_crawl_delay(body, agent=agent) == 5
        # every group naming the agent counts, in file order, even when
        # one of them also names *
        body2 = (
            "User-agent: *\nDisallow: /star\n"
            "User-agent: foo\nUser-agent: *\nDisallow: /both\n"
            "User-agent: foo\nAllow: /own\n"
        )
        assert parse_robots_rules(body2, agent="foo") == [(False, "/both"), (True, "/own")]
        assert parse_robots_rules(body2) == [(False, "/star"), (False, "/both")]
        # a group that names the agent but holds no delay still replaces *
        assert parse_robots_crawl_delay("User-agent: *\nCrawl-delay: 5\nUser-agent: foo\nDisallow: /x\n", "foo") is None

    def test_longest_match_precedence(self):
        from pdf_extractor_ray.functions.urls import robots_path_allowed as f

        rules = [(False, "/a"), (True, "/a/b")]
        assert not f(rules, "/a/x")
        assert f(rules, "/a/b/c")
        assert f(rules, "/other")  # no match → allowed
        # equal-length tie → allow wins, in either rule order
        assert f([(False, "/a"), (True, "/a")], "/a/x")
        assert f([(True, "/a"), (False, "/a")], "/a/x")
        # root disallow with a carve-out
        assert f([(False, "/"), (True, "/p0")], "/p0/p1")
        assert not f([(False, "/"), (True, "/p0")], "/q")


class TestRobotsAllowFilter:
    def test_blocked_sets(self):
        from pdf_extractor_ray.pipelines.urlops import robots_allow_filter_documents

        got = robots_allow_filter_documents(SF_DIR).to_pandas()
        ids = pq.read_table(SF_DIR + "/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_numpy()
        kept = set(got["doc_id"])
        for d in ids:
            d = int(d)
            segs, h = 1 + d % 4, d % 5
            blocked = (h == 0 and segs == 1) or (h == 1 and segs == 3)
            assert (d not in kept) == blocked, d


class TestSegmentMerge:
    def test_merged_equals_single_index(self):
        from pdf_extractor_ray.pipelines.invindex import (
            inverted_index_postings,
            merged_index_postings,
        )

        merged = (
            merged_index_postings(SF_DIR)
            .sort_values(["token", "doc_id"])
            .reset_index(drop=True)
        )
        single = (
            inverted_index_postings(SF_DIR)
            .sort_values(["token", "doc_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(merged, single)

    def test_tf_sum_on_overlapping_segments(self, tmp_path):
        # a doc indexed in BOTH segments merges by tf SUM
        import pyarrow as pa

        from pdf_extractor_ray.pipelines.invindex import (
            build_inverted_index,
            lookup_postings,
            merge_index_segments,
        )

        for i in (0, 1):
            src = tmp_path / f"src{i}"
            src.mkdir()
            pq.write_table(
                pa.table({"doc_id": pa.array([7], pa.int64()), "text": ["data data"]}),
                str(src / "documents.parquet"),
            )
            build_inverted_index(str(src), str(tmp_path / f"seg{i}"))
        merge_index_segments(
            [str(tmp_path / "seg0"), str(tmp_path / "seg1")], str(tmp_path / "merged")
        )
        out = lookup_postings(str(tmp_path / "merged"), "data")
        assert out["tf"].tolist() == [4] and out["doc_id"].tolist() == [7]


class TestExtractPassages:
    def test_matches_chunk_arithmetic(self):
        from pdf_extractor_ray.pipelines.webdocs import extract_passages_documents

        got = extract_passages_documents(SF_DIR).to_pandas()
        docs = pq.read_table(
            SF_DIR + "/documents.parquet", columns=["doc_id", "text"]
        ).to_pandas()
        by_doc = dict(zip(docs["doc_id"], docs["text"]))
        for doc_id, sub in got.groupby("doc_id"):
            d = int(doc_id)
            k = 2 + d % 3
            toks = by_doc[d].split()
            m = -(-len(toks) // k) if toks else 0
            assert len(sub) == k  # every heading opens a passage
            sub = sub.sort_values("passage_idx")
            assert sub["heading"].tolist() == [f"S{j}" for j in range(k)]
            for j, n_chars in zip(sub["passage_idx"], sub["n_chars"]):
                want = len(" ".join(toks[j * m : (j + 1) * m]))
                assert n_chars == want

    def test_sidebar_heading_never_opens_a_passage(self):
        from pdf_extractor_ray.pipelines.webdocs import extract_passages_documents

        got = extract_passages_documents(SF_DIR).to_pandas()
        assert not got["heading"].str.contains("BOILER").any()


class TestQuantizeEmbeddings:
    def test_bit_exact_vs_replica(self):
        from pdf_extractor_ray.pipelines.similarity import (
            quantize_embeddings,
            quantize_reference,
        )

        got = (
            quantize_embeddings(SF_DIR)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        emb = pq.read_table(SF_DIR + "/embeddings.parquet").to_pandas()
        emb = emb.sort_values("vec_id").reset_index(drop=True)
        q = quantize_reference(np.stack(emb["embedding"].to_numpy()))
        assert (got["code_sum"].to_numpy() == q.sum(axis=1)).all()
        assert (got["code_min"].to_numpy() == q.min(axis=1)).all()
        assert (got["code_max"].to_numpy() == q.max(axis=1)).all()
        assert q.min() >= 0 and q.max() <= 255

    def test_constant_dim_quantizes_to_zero(self):
        from pdf_extractor_ray.pipelines.similarity import quantize_reference

        m = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 6.0]], np.float32)
        q = quantize_reference(m)
        assert (q[:, 0] == 0).all()
        assert q[:, 1].tolist() == [0, 255, 128]
