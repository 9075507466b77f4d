"""Round-5 wave-27 operator tests.

RFC 3986 reference resolution, percent-encoding normalization, RFC
9309 wildcard matching, rel=nofollow audit. Ray session comes from the
shared session fixture in conftest.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


class TestResolveUrl:
    def test_rfc3986_cases(self):
        from pdf_extractor_ray.functions.urls import resolve_url as r

        base = "https://a.com/x/y?q=1#f"
        assert r(base, "z") == "https://a.com/x/z"
        assert r(base, "../up") == "https://a.com/up"
        assert r(base, "/abs") == "https://a.com/abs"
        assert r(base, "//b.com/p") == "https://b.com/p"
        # fragment-only ref keeps the base QUERY (§5.3: T.query = B.query)
        assert r(base, "#new") == "https://a.com/x/y?q=1"
        assert r(base, "?r=2") == "https://a.com/x/y?r=2"
        assert r(base, "http://c.com/z") == "http://c.com/z"
        # non-hierarchical schemes are absolute too (§3.1 scheme ":")
        assert r("http://h/a/b", "mailto:x@y.com") == "mailto:x@y.com"
        assert r(base, "javascript:void(0)") == "javascript:void(0)"
        assert r(base, "") == "https://a.com/x/y?q=1"
        # dot-segment overflow clamps at root (§5.2.4)
        assert r("https://a.com/a", "../../d") == "https://a.com/d"
        assert r("https://a.com/a/b/", "./c") == "https://a.com/a/b/c"

    def test_pipeline_matches_arithmetic(self):
        from pdf_extractor_ray.pipelines.urlops import resolved_links_documents

        got = resolved_links_documents(SF_DIR).to_pandas()
        n = pq.read_metadata(SF_DIR + "/documents.parquet").num_rows
        assert len(got) == n  # one link per page; script decoy never leaks
        frag = got[got["doc_id"] % 6 == 4]
        assert frag["abs_url"].str.endswith("/page").all()  # fragment dropped


class TestPercentNorm:
    def test_unreserved_decodes_reserved_uppercases(self):
        from pdf_extractor_ray.functions.urls import normalize_percent_encoding as f

        assert f("%7e%7E") == "~~"
        assert f("a%2fb%2Fc") == "a%2Fb%2Fc"
        assert f("%41%61%30%2d%5f%2e") == "Aa0-_."
        assert f("bad%zz%2") == "bad%zz%2"  # malformed passes through
        # idempotent
        s = "https://x/%7Ea%2fb%g1"
        assert f(f(s)) == f(s)


class TestRobotsWildcard:
    def test_star_spans_segments_and_dollar_anchors(self):
        from pdf_extractor_ray.functions.urls import robots_path_allowed_wild as w

        rules = [(False, "/*2"), (True, "/p0/p1/p2?*"), (False, "/p0$")]
        assert not w(rules, "/p0/p1/p2")  # 3-seg blocked
        assert not w(rules, "/p0/p1/p2/p3")  # * spans segments → blocked
        assert w(rules, "/p0/p1/p2?q=1")  # longer Allow wins
        assert not w(rules, "/p0/p1/p2/p3?q=1")  # Allow needs '?' after p2
        assert not w(rules, "/p0")  # $ anchor
        assert w(rules, "/p0?q=1")  # query breaks the anchor
        assert w(rules, "/p0/p1")

    def test_pipeline_counts(self):
        from pdf_extractor_ray.pipelines.urlops import robots_wildcard_filter_documents

        got = robots_wildcard_filter_documents(SF_DIR).to_pandas()
        ids = pq.read_table(SF_DIR + "/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_numpy()
        segs = 1 + ids % 4
        has_q = ids % 7 == 0
        kept = ~(
            (segs == 4)
            | ((segs == 3) & ~has_q)
            | ((segs == 1) & ~has_q)
        )
        assert len(got) == int(kept.sum())


class TestNofollowStats:
    def test_token_based_rel_matching(self):
        from pdf_extractor_ray.pipelines.urlops import nofollow_stats_documents

        got = nofollow_stats_documents(SF_DIR).to_pandas().set_index("doc_id")
        d = got.index.to_numpy(np.int64)
        assert (
            got["n_links"].to_numpy()
            == 1 + d % 3 + d % 2 + (d % 5 == 0).astype(np.int64)
        ).all()
        assert (
            got["n_nofollow"].to_numpy() == d % 2 + (d % 5 == 0).astype(np.int64)
        ).all()

    def test_rel_kernel_token_semantics(self):
        from pdf_extractor_ray.kernels.html_extract import html_extract_links_rel as f

        # 'nofollowing' is NOT the nofollow token; multi-token rel is
        html = (
            b'<a href="/a" rel="nofollowing">x</a>'
            b'<a href="/b" rel="external nofollow">y</a>'
        )
        links = f(b"<html><body>" + html + b"</body></html>")
        rels = dict(links)
        assert "nofollow" not in rels["/a"].split()
        assert "nofollow" in rels["/b"].split()
