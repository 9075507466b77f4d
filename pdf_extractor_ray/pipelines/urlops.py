"""URL-keyed corpus operators: canonicalization and per-domain stats.

A crawl-scale curation pipeline keys every page by canonical URL
(near-identical decorated URLs — case, default ports, fragments,
tracking params, trailing slashes — must collapse to one key) and
aggregates corpus health per site domain. Scale shape: the
canonicalizer is a zero-shuffle ``map_batches``; the stats are
per-batch-partial aggregations plus batch-deduped distinct counts,
joined on the (small) domain dimension by the adaptive planner.

The driver carrier derives deliberately MESSY urls deterministically
from the documents table (every decoration variant planted), so the
DuckDB oracle can compute the expected canonical collapse directly
from the table columns — the engine only matches if the canonicalizer
actually normalizes every variant.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.functions.urls import canonical_url, registrable_domain, site_domain
from pdf_extractor_ray.joins import adaptive_inner_join
from pdf_extractor_ray.ops import distinct, grouped_agg


def canonicalize_urls(
    ds: ray.data.Dataset,
    *,
    url_col: str = "url",
    canonical_col: str = "canonical_url",
    domain_col: str = "site_domain",
) -> ray.data.Dataset:
    """Add canonical-url and site-domain columns (zero shuffle)."""

    def add(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        canon = [canonical_url(u) for u in b[url_col]]
        b[canonical_col] = canon
        b[domain_col] = [site_domain(u) for u in canon]
        return b

    return ds.map_batches(add, batch_format="pandas")


def domain_stats(
    ds: ray.data.Dataset,
    *,
    url_col: str = "url",
    lang_col: str = "lang",
    chars_col: str = "n_chars",
) -> ray.data.Dataset:
    """Per-site-domain corpus stats over canonicalized URLs:
    ``(site_domain, n_docs, n_urls, n_langs, chars_total)`` where
    ``n_urls`` counts DISTINCT canonical urls — the column that proves
    the canonical collapse happened.

    Exchanges carry partials only: counts/sums batch-combine before
    the bucket exchange, distinct counts batch-dedupe first, and the
    final three domain-sized tables join via the broadcast plan."""
    canon = canonicalize_urls(ds, url_col=url_col)

    base = grouped_agg(
        canon,
        ["site_domain"],
        {"n_docs": (url_col, "count"), "chars_total": (chars_col, "sum")},
    )
    n_urls = grouped_agg(
        distinct(canon, ["site_domain", "canonical_url"]),
        ["site_domain"],
        {"n_urls": ("canonical_url", "count")},
    )
    n_langs = grouped_agg(
        distinct(canon, ["site_domain", lang_col]),
        ["site_domain"],
        {"n_langs": (lang_col, "count")},
    )
    out = adaptive_inner_join(base, n_urls, "site_domain")
    out = adaptive_inner_join(out, n_langs, "site_domain")
    return out.select_columns(["site_domain", "n_docs", "n_urls", "n_langs", "chars_total"])


# --------------------------------------------------------------------------
# Driver carrier: messy-url derivation + per-domain stats over documents
# --------------------------------------------------------------------------


def derive_messy_urls(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic decorated url per doc: pairs (2k, 2k+1) share one
    article id and must collapse to ONE canonical url despite
    differing case, default-port, trailing-slash, fragment and
    tracking-param decorations. Keyed only on doc_id — same url at any
    scale factor or partitioning."""
    urls = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        art = d // 2
        scheme = "HTTPS" if d % 3 == 0 else "https"
        host = f"WWW.s{art % 7}.Example.COM" if d % 2 else f"www.s{art % 7}.example.com"
        port = ":443" if d % 6 == 1 else ""
        path = f"/article/{art}" + ("/" if d % 2 else "")
        if d % 4 == 0:
            query = "?utm_source=feed&id=7&utm_campaign=x"
        elif d % 4 == 1:
            query = "?id=7"
        else:
            query = ""
        frag = "#sec" if d % 5 == 0 else ""
        urls.append(f"{scheme}://{host}{port}{path}{query}{frag}")
    out = b.copy()
    out["url"] = urls
    return out


def domain_stats_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → messy urls → canonicalize → domain stats.
    The oracle computes every expected value straight from doc_id
    arithmetic (domain = s{(doc_id//2)%7}.example.com, distinct
    canonical urls = distinct doc_id//2), so a single un-normalized
    decoration breaks the hash match."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "n_chars"]
    ).map_batches(derive_messy_urls, batch_format="pandas")
    stats = domain_stats(ds)

    def exact_types(b: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_docs", "n_urls", "n_langs", "chars_total"):
            b[c] = b[c].astype(np.int64)
        return b

    return stats.map_batches(exact_types, batch_format="pandas")


DOMAIN_STATS_SQL = """
SELECT 's' || CAST((doc_id // 2) % 7 AS VARCHAR) || '.example.com' AS site_domain,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT doc_id // 2) AS BIGINT) AS n_urls,
       CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(SUM(n_chars) AS BIGINT) AS chars_total
FROM documents
GROUP BY 1
"""


# --------------------------------------------------------------------------
# Registrable-domain ("eTLD+1") aggregation — PSL-backed ownership keys
# --------------------------------------------------------------------------


def registrable_domain_stats(
    ds: ray.data.Dataset,
    *,
    url_col: str = "url",
    chars_col: str = "n_chars",
) -> ray.data.Dataset:
    """Per-OWNERSHIP corpus stats: group by registrable domain (public
    suffix + 1 label, via the vendored PSL snapshot) rather than raw
    host, so ``a.example.com`` and ``b.example.com`` pool into one
    quota/blocklist key while ``a.github.io`` and ``b.github.io`` stay
    separate (github.io is a PSL private-section suffix — every user
    site is independently owned). Output:
    ``(registrable_domain, n_docs, n_hosts, chars_total)`` where
    ``n_hosts`` counts DISTINCT site hosts under each owner — the
    column that proves subdomains actually collapsed.

    Scale shape: the domain split is a zero-shuffle ``map_batches``
    (PSL lookup is an O(labels) frozenset probe); counts/sums
    batch-combine before the bucket exchange; the distinct host count
    batch-dedupes first; the two owner-sized tables join broadcast."""

    def add(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["site_domain"] = [site_domain(u) for u in b[url_col]]
        b["registrable_domain"] = [registrable_domain(u) for u in b[url_col]]
        return b

    keyed = ds.map_batches(add, batch_format="pandas")
    base = grouped_agg(
        keyed,
        ["registrable_domain"],
        {"n_docs": (url_col, "count"), "chars_total": (chars_col, "sum")},
    )
    n_hosts = grouped_agg(
        distinct(keyed, ["registrable_domain", "site_domain"]),
        ["registrable_domain"],
        {"n_hosts": ("site_domain", "count")},
    )
    out = adaptive_inner_join(base, n_hosts, "registrable_domain")
    return out.select_columns(["registrable_domain", "n_docs", "n_hosts", "chars_total"])


def derive_psl_hosts(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic multi-suffix url per doc, covering every PSL
    lookup path: multi-label ICANN suffixes (co.uk, com.au), a PRIVATE
    hosting suffix (github.io), and the implicit single-label TLD
    fallback (example.com) — with extra subdomain labels planted so the
    collapse is observable. Keyed only on doc_id."""
    urls = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        art = d // 2
        fam = d % 4
        if fam == 0:
            host = f"a{d % 5}.ex{art % 3}.co.uk"
        elif fam == 1:
            host = f"x.u{art % 11}.github.io"
        elif fam == 2:
            host = f"www.s{art % 7}.example.com"
        else:
            host = f"deep.a.ex{art % 3}.com.au"
        urls.append(f"https://{host}/p/{d}")
    out = b.copy()
    out["url"] = urls
    return out


def registrable_domain_stats_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → multi-suffix urls → PSL registrable-domain
    stats. The oracle computes the expected owner key straight from
    doc_id arithmetic, so a wrong longest-match (e.g. treating co.uk
    as a registrable domain, or collapsing github.io user sites)
    breaks the hash."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    ).map_batches(derive_psl_hosts, batch_format="pandas")
    stats = registrable_domain_stats(ds)

    def exact_types(b: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_docs", "n_hosts", "chars_total"):
            b[c] = b[c].astype(np.int64)
        return b

    return stats.map_batches(exact_types, batch_format="pandas")


REGISTRABLE_DOMAIN_STATS_SQL = """
WITH c AS (
  SELECT doc_id, n_chars,
    CASE doc_id % 4
      WHEN 0 THEN 'ex' || CAST((doc_id // 2) % 3 AS VARCHAR) || '.co.uk'
      WHEN 1 THEN 'u' || CAST((doc_id // 2) % 11 AS VARCHAR) || '.github.io'
      WHEN 2 THEN 'example.com'
      ELSE 'ex' || CAST((doc_id // 2) % 3 AS VARCHAR) || '.com.au'
    END AS registrable_domain,
    CASE doc_id % 4
      WHEN 0 THEN 'a' || CAST(doc_id % 5 AS VARCHAR) || '.ex' || CAST((doc_id // 2) % 3 AS VARCHAR) || '.co.uk'
      WHEN 1 THEN 'x.u' || CAST((doc_id // 2) % 11 AS VARCHAR) || '.github.io'
      WHEN 2 THEN 's' || CAST((doc_id // 2) % 7 AS VARCHAR) || '.example.com'
      ELSE 'deep.a.ex' || CAST((doc_id // 2) % 3 AS VARCHAR) || '.com.au'
    END AS site_domain
  FROM documents
)
SELECT registrable_domain,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT site_domain) AS BIGINT) AS n_hosts,
       CAST(SUM(n_chars) AS BIGINT) AS chars_total
FROM c
GROUP BY 1
"""


# --------------------------------------------------------------------------
# Domain curation: blocklist filter + per-domain quota sampling
# --------------------------------------------------------------------------

# Planted deterministic blocklist for the driver carrier; production
# callers pass their own sequence.
BLOCKED_DOMAINS = ("s2.example.com",)
DOMAIN_QUOTA = 40


def domain_quota_sample(
    ds: ray.data.Dataset,
    *,
    quota: int,
    blocked_domains=(),
    domain_col: str = "site_domain",
    id_col: str = "doc_id",
    seed: int = 0,
) -> ray.data.Dataset:
    """Crawl curation: drop blocklisted domains, then keep at most
    ``quota`` docs per domain — chosen by seeded hash rank (not scan
    order), so the kept set is independent of partitioning and stable
    under corpus growth. The anti-spam / domain-mixing cap every web
    corpus applies before training.

    Scale shape: the blocklist is a broadcast filter (zero shuffle);
    the quota is a decomposable min-k — a per-batch partial keeps at
    most ``quota`` rows per domain per batch BEFORE the exchange, so a
    spam domain with millions of pages lands quota×batches rows on its
    bucket, never the raw page count."""
    from pdf_extractor_ray.joins import broadcast_semi
    from pdf_extractor_ray.ops import grouped_apply

    if blocked_domains:
        ds = broadcast_semi(ds, list(blocked_domains), domain_col, keep=False)

    from pdf_extractor_ray.pipelines.corpus import SAMPLE_HASH_MULT

    def add_rank_key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__h"] = (
            (b[id_col].to_numpy(np.uint64) ^ np.uint64(seed)) * np.uint64(SAMPLE_HASH_MULT)
        ) & np.uint64(0xFFFFFFFF)
        return b.groupby(domain_col, group_keys=False, sort=False).apply(
            lambda g: g.nsmallest(quota, ["__h", id_col])
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(domain_col, group_keys=False, sort=False).apply(
            lambda x: x.nsmallest(quota, ["__h", id_col])
        )
        return g.drop(columns="__h")

    return grouped_apply(
        ds.map_batches(add_rank_key, batch_format="pandas"), [domain_col], final
    )


def domain_quota_documents(sf_dir: str, quota: int = DOMAIN_QUOTA) -> ray.data.Dataset:
    """Carrier: messy urls → canonicalize → blocklist + per-domain
    quota; returns the kept (site_domain, doc_id) set. The oracle
    replays the hash rank with HUGEINT arithmetic and a window rank."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_messy_urls, batch_format="pandas")
    canon = canonicalize_urls(ds)
    out = domain_quota_sample(
        canon.select_columns(["site_domain", "doc_id"]),
        quota=quota,
        blocked_domains=BLOCKED_DOMAINS,
        seed=corpus_seed(),
    )
    return out.select_columns(["site_domain", "doc_id"])


def corpus_seed() -> int:
    from pdf_extractor_ray.pipelines.corpus import SAMPLE_SEED

    return SAMPLE_SEED


def _domain_quota_sql() -> str:
    from pdf_extractor_ray.pipelines.corpus import SAMPLE_HASH_MULT, SAMPLE_SEED

    blocked = ", ".join(f"'{d}'" for d in BLOCKED_DOMAINS)
    return f"""
WITH c AS (
  SELECT doc_id,
         's' || CAST((doc_id // 2) % 7 AS VARCHAR) || '.example.com' AS site_domain,
         (CAST(xor(doc_id, {SAMPLE_SEED}) AS HUGEINT) * {SAMPLE_HASH_MULT}) % 4294967296 AS h
  FROM documents
),
ranked AS (
  SELECT site_domain, doc_id,
         ROW_NUMBER() OVER (PARTITION BY site_domain ORDER BY h, doc_id) AS rk
  FROM c WHERE site_domain NOT IN ({blocked})
)
SELECT site_domain, doc_id FROM ranked WHERE rk <= {DOMAIN_QUOTA}
"""


DOMAIN_QUOTA_SQL = _domain_quota_sql()


# --------------------------------------------------------------------------
# URL structure stats (path depth / query incidence per site)
# --------------------------------------------------------------------------


def derive_path_urls(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic decorated url per doc with a VARIED path shape:
    depth = 1 + doc_id % 4 segments, host h{doc_id % 5}.example.org
    (www. + uppercase noise on odd ids), default port on
    doc_id % 6 == 1, trailing slash on odd ids, utm decoration on
    doc_id % 3 == 0 (must strip to nothing), a CONTENT param ?q=1 on
    doc_id % 7 == 0 (must survive), fragment on doc_id % 11 == 0.
    Everything the path/query parser must see through is planted."""
    urls = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        host = f"WWW.h{d % 5}.Example.ORG" if d % 2 else f"h{d % 5}.example.org"
        port = ":443" if d % 6 == 1 else ""
        path = "".join(f"/p{j}" for j in range(1 + d % 4)) + ("/" if d % 2 else "")
        parts = []
        if d % 7 == 0:
            parts.append("q=1")
        if d % 3 == 0:
            parts.append("utm_source=feed")
        query = "?" + "&".join(parts) if parts else ""
        frag = "#top" if d % 11 == 0 else ""
        urls.append(f"https://{host}{port}{path}{query}{frag}")
    out = b.copy()
    out["url"] = urls
    return out


def url_path_stats(
    ds: ray.data.Dataset,
    *,
    url_col: str = "url",
) -> ray.data.Dataset:
    """Per-site URL structure profile over CANONICAL urls:
    ``(site_domain, n_docs, sum_depth, max_depth, n_query)`` with
    depth = path segment count and n_query = docs whose canonical url
    kept a (content) query string — the crawl-shape signal that feeds
    frontier policies (deep archives vs flat landing pages) and
    URL-pattern spam heuristics.

    Zero-shuffle parse: depth and query incidence come from vectorized
    pandas str kernels over the canonical string (no per-row urlsplit
    beyond canonicalization itself); one bucketed ``grouped_agg``
    exchange carrying four integers per site."""
    canon = canonicalize_urls(ds, url_col=url_col)

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        cu = b["canonical_url"].astype(str)
        after = cu.str.split("://", n=1).str[-1]
        # strip the authority: everything before the first '/' or '?'
        pathq = after.str.replace(r"^[^/?]*", "", regex=True)
        path = pathq.str.split("?", n=1).str[0]
        return pd.DataFrame(
            {
                "site_domain": b["site_domain"],
                "depth": path.str.count("/").to_numpy(np.int64),
                "has_query": pathq.str.contains("?", regex=False).to_numpy().astype(np.int64),
            }
        )

    parsed = canon.map_batches(parse, batch_format="pandas")
    return grouped_agg(
        parsed,
        ["site_domain"],
        {
            "n_docs": ("depth", "count"),
            "sum_depth": ("depth", "sum"),
            "max_depth": ("depth", "max"),
            "n_query": ("has_query", "sum"),
        },
    )


def url_path_stats_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → varied-path messy urls → canonicalize →
    per-site structure stats. The oracle derives every expected value
    from doc_id arithmetic, so the engine only matches if the
    canonicalizer normalized every decoration AND the string parser
    extracted depth/query from the canonical form correctly."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")
    stats = url_path_stats(ds)

    def exact_types(b: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_docs", "sum_depth", "max_depth", "n_query"):
            b[c] = b[c].astype(np.int64)
        return b

    return stats.map_batches(exact_types, batch_format="pandas")


URL_PATH_STATS_SQL = """
SELECT 'h' || CAST(doc_id % 5 AS VARCHAR) || '.example.org' AS site_domain,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(1 + doc_id % 4) AS BIGINT) AS sum_depth,
       CAST(MAX(1 + doc_id % 4) AS BIGINT) AS max_depth,
       CAST(SUM(CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_query
FROM documents
GROUP BY 1
"""


# --------------------------------------------------------------------------
# robots-style URL rule filter (domain + path-prefix disallow rules)
# --------------------------------------------------------------------------

# (domain, path_prefix) disallow rules; path_prefix "" blocks the whole
# domain — the robots.txt Disallow shape a crawl-compliance pass applies
URL_RULES = (
    ("h4.example.org", ""),
    ("h1.example.org", "/p0/p1/p2"),
)


def url_rules_filter(
    ds: ray.data.Dataset,
    rules: tuple[tuple[str, str], ...] = URL_RULES,
    *,
    url_col: str = "url",
) -> ray.data.Dataset:
    """Drop rows whose canonical URL matches a (domain, path-prefix)
    DISALLOW rule — the robots.txt/compliance filter every crawl
    pipeline applies before extraction (takedown lists share the same
    shape). A row is dropped when its site domain equals a rule's
    domain AND its canonical path starts with the rule's prefix (empty
    prefix = whole domain). Output keeps (doc_id, site_domain,
    canonical_url) for the surviving rows.

    Zero shuffle: the rule list is a tiny in-task constant (rule sets
    ship via ``ray.put`` broadcast once they outgrow a closure — the
    blocklist precedent in ``domain_quota``); matching is vectorized
    pandas str ops grouped BY RULE DOMAIN (|rules| vector passes, not
    |rows × rules|)."""
    canon = canonicalize_urls(ds, url_col=url_col)
    by_domain: dict[str, list[str]] = {}
    for dom, pref in rules:
        by_domain.setdefault(dom, []).append(pref)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        cu = b["canonical_url"].astype(str)
        after = cu.str.split("://", n=1).str[-1]
        path = after.str.replace(r"^[^/?]*", "", regex=True).str.split("?", n=1).str[0]
        drop = np.zeros(len(b), dtype=bool)
        for dom, prefs in by_domain.items():
            m = (b["site_domain"] == dom).to_numpy()
            if not m.any():
                continue
            hit = np.zeros(len(b), dtype=bool)
            for pref in prefs:
                hit |= path.str.startswith(pref).to_numpy() if pref else np.ones(len(b), bool)
            drop |= m & hit
        out = b[~drop]
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].to_numpy(np.int64),
                "site_domain": out["site_domain"],
                "canonical_url": out["canonical_url"],
            }
        )

    return canon.map_batches(keep, batch_format="pandas")


def url_rules_filter_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: varied-path messy urls → canonicalize → disallow rules
    (all of h4, paths ≥3 segments deep on h1). The oracle replays the
    rule outcomes from doc_id arithmetic, so the engine only matches if
    canonicalization + domain/path extraction + prefix matching all
    agree."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")
    return url_rules_filter(ds)


# canonical path is /p0[/p1[/p2[/p3]]] with depth = 1 + doc_id % 4, so
# the '/p0/p1/p2' prefix rule fires exactly when depth >= 3
URL_RULES_FILTER_SQL = """
WITH kept AS (
  SELECT doc_id,
         doc_id % 5 AS dk,
         1 + doc_id % 4 AS depth,
         doc_id % 2 AS odd,
         doc_id % 7 = 0 AS has_q
  FROM documents
  WHERE NOT (doc_id % 5 = 4)
    AND NOT (doc_id % 5 = 1 AND 1 + doc_id % 4 >= 3)
)
SELECT doc_id,
       'h' || CAST(dk AS VARCHAR) || '.example.org' AS site_domain,
       'https://' || CASE WHEN odd = 1 THEN 'www.' ELSE '' END
           || 'h' || CAST(dk AS VARCHAR) || '.example.org'
           || CASE depth WHEN 1 THEN '/p0' WHEN 2 THEN '/p0/p1'
                         WHEN 3 THEN '/p0/p1/p2' ELSE '/p0/p1/p2/p3' END
           || CASE WHEN has_q THEN '?q=1' ELSE '' END AS canonical_url
FROM kept
"""


# --------------------------------------------------------------------------
# robots.txt → rules → filter (the full crawl-compliance loop)
# --------------------------------------------------------------------------


def derive_robots_bodies() -> dict[str, str]:
    """Deterministic per-domain robots.txt bodies reproducing the
    :data:`URL_RULES` outcomes through the PARSER: h4 disallows
    everything, h1 disallows the 3-deep prefix — wrapped in the noise
    a real robots file carries (comments, Allow lines, foreign-agent
    groups, crawl-delay, empty Disallow)."""
    return {
        "h4.example.org": (
            "# closed to bulk crawling\n"
            "User-agent: SomeOtherBot\nDisallow: /other\n\n"
            "User-agent: *\nCrawl-delay: 2\nDisallow: /\n"
        ),
        "h1.example.org": (
            "User-agent: GoodBot\nUser-agent: *\n"
            "Allow: /p0/p1/p2/ok  # ignored: prefix-only enforcement\n"
            "Disallow: /p0/p1/p2\nDisallow:\n"
        ),
        "h0.example.org": "User-agent: *\nDisallow:\n",  # allow all
        "h2.example.org": "# empty file\n",
        "h3.example.org": "User-agent: NotUs\nDisallow: /\n",
    }


def robots_filter_documents(sf_dir: str) -> ray.data.Dataset:
    """END-TO-END crawl compliance: parse each domain's robots.txt
    body into Disallow prefixes (:func:`functions.urls.
    parse_robots_disallows`), assemble the (domain, prefix) rule set,
    and apply :func:`url_rules_filter` over the varied-path url
    corpus. The planted bodies reproduce exactly :data:`URL_RULES`
    (whole-domain '/' normalizes to the empty prefix), so the oracle
    is the same arithmetic replay as ``url_rules_filter_documents`` —
    the engine only matches if parser, canonicalizer, domain/path
    extraction, AND prefix matching all agree."""
    from pdf_extractor_ray.functions.urls import parse_robots_disallows

    rules: list[tuple[str, str]] = []
    for domain, body in derive_robots_bodies().items():
        for prefix in parse_robots_disallows(body):
            # 'Disallow: /' means the whole domain — the filter's
            # empty-prefix convention
            rules.append((domain, "" if prefix == "/" else prefix))
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")
    return url_rules_filter(ds, tuple(sorted(rules)))


# identical expected output to URL_RULES_FILTER_SQL — the robots bodies
# are constructed to parse to the same rule set
ROBOTS_FILTER_SQL = URL_RULES_FILTER_SQL


# --------------------------------------------------------------------------
# SURT keys (web-archive index ordering)
# --------------------------------------------------------------------------


def surt_keys_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: varied-path messy urls → canonical → SURT keys —
    ``(doc_id, surt)``. The archive-index key transform (reversed host
    labels + path) the CDX family sorts by; the oracle replays it from
    doc_id arithmetic, so host extraction, www/port/utm stripping,
    label reversal and the ``)`` join must all agree. Zero shuffle; at
    scale the corpus SORTED by this key is what makes per-domain scans
    range scans — the prefix_sum ranker or write-partitioned-by-prefix
    sink consume it directly."""
    from pdf_extractor_ray.functions.urls import surt_key

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")

    def add(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "surt": pd.Series([surt_key(u) for u in b["url"]], dtype="object"),
            }
        )

    return ds.map_batches(add, batch_format="pandas")


# canonical path = /p0[/p1[/p2[/p3]]], trailing slash stripped, utm
# dropped, q=1 kept on doc_id % 7 = 0, www/port/case normalized away
SURT_KEYS_SQL = """
SELECT doc_id,
       'org,example,h' || CAST(doc_id % 5 AS VARCHAR) || ')'
       || CASE (1 + doc_id % 4) WHEN 1 THEN '/p0' WHEN 2 THEN '/p0/p1'
               WHEN 3 THEN '/p0/p1/p2' ELSE '/p0/p1/p2/p3' END
       || CASE WHEN doc_id % 7 = 0 THEN '?q=1' ELSE '' END AS surt
FROM documents
"""


# --------------------------------------------------------------------------
# CDXJ index parsing (the web-archive URL index)
# --------------------------------------------------------------------------


def derive_cdxj_shards(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic CDXJ shard per doc: one valid line (surt from the
    url family's arithmetic, timestamp and status from doc_id) plus a
    truncated decoy line and a broken-JSON decoy the parser must
    skip."""
    import json

    shards = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        surt = f"com,example,docs)/{d}"
        ts = f"202601{d % 28 + 1:02d}000000"
        blob = json.dumps(
            {"url": f"https://docs.example.com/{d}", "status": str(404 if d % 7 == 0 else 200)}
        )
        shards.append(
            f"{surt} {ts} {blob}\n"
            f"{surt} {ts}\n"            # missing json: skipped
            f"{surt} 2026 {blob}\n"     # bad timestamp: skipped
            f"{surt} {ts} {{broken\n"   # bad json: skipped
        )
    out = b.copy()
    out["cdxj"] = shards
    return out


def parse_cdxj_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → CDXJ shards (valid line + three malformed
    decoys each) → :func:`sources.warc.parse_cdxj` → ``(doc_id, surt,
    ts, url, status)``. Zero shuffle; the decoys pin the skip-not-crash
    contract under the exact SQL expectation."""
    from pdf_extractor_ray.sources.warc import parse_cdxj

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_cdxj_shards, batch_format="pandas", batch_size=1024)

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        ids, surts, tss, urls, stats = [], [], [], [], []
        for doc_id, shard in zip(b["doc_id"], b["cdxj"]):
            for rec in parse_cdxj(shard):
                ids.append(int(doc_id))
                surts.append(rec["surt"])
                tss.append(rec["ts"])
                urls.append(rec.get("url", ""))
                stats.append(rec.get("status", ""))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "surt": pd.Series(surts, dtype="object"),
                "ts": pd.Series(tss, dtype="object"),
                "url": pd.Series(urls, dtype="object"),
                "status": pd.Series(stats, dtype="object"),
            }
        )

    return ds.map_batches(extract, batch_format="pandas", batch_size=1024)


PARSE_CDXJ_SQL = """
SELECT doc_id,
       'com,example,docs)/' || CAST(doc_id AS VARCHAR) AS surt,
       '202601' || lpad(CAST(doc_id % 28 + 1 AS VARCHAR), 2, '0') || '000000' AS ts,
       'https://docs.example.com/' || CAST(doc_id AS VARCHAR) AS url,
       CAST(CASE WHEN doc_id % 7 = 0 THEN 404 ELSE 200 END AS VARCHAR) AS status
FROM documents
"""


# --------------------------------------------------------------------------
# Politeness scheduling: per-host crawl waves
# --------------------------------------------------------------------------

SCHEDULE_PER_WAVE = 2  # fetches allowed per host per wave


def politeness_schedule(
    ds: ray.data.Dataset,
    *,
    host_col: str = "host",
    id_col: str = "doc_id",
    per_wave: int = SCHEDULE_PER_WAVE,
    seed: int = 0,
) -> ray.data.Dataset:
    """Assign every URL a crawl WAVE honoring per-host politeness: at
    most ``per_wave`` fetches of one host per wave, ordered by seeded
    hash rank (not scan order) so the schedule is deterministic,
    partition-invariant, and stable under frontier growth — the fetch
    planner every polite crawler runs over its frontier.

    Scale shape: ONE exchange keyed by host (wave = global rank within
    host ÷ per_wave, so per-host rank is inherent to the semantics);
    within a bucket the rank is a vectorized argsort per host. A viral
    host's rows land on one bucket — at 10^12 urls cap frontier slices
    per run (the schedule is hash-stable across runs, so slicing is
    safe) rather than scheduling an unbounded host in one group."""
    from pdf_extractor_ray.ops import grouped_apply
    from pdf_extractor_ray.pipelines.corpus import SAMPLE_HASH_MULT

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__h"] = (
            (b[id_col].to_numpy(np.uint64) ^ np.uint64(seed)) * np.uint64(SAMPLE_HASH_MULT)
        ) & np.uint64(0xFFFFFFFF)
        return b

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__h", id_col], kind="mergesort")
        ranks = g.groupby(host_col, sort=False).cumcount().to_numpy(np.int64)
        g = g.drop(columns="__h")
        g["wave"] = ranks // per_wave
        return g

    return grouped_apply(ds.map_batches(add_key, batch_format="pandas"), [host_col], assign)


def derive_schedule_hosts(b: pd.DataFrame) -> pd.DataFrame:
    out = b.copy()
    out["host"] = [f"h{int(d) % 5}.example.com" for d in b["doc_id"]]
    return out


def crawl_schedule_documents(sf_dir: str) -> ray.data.Dataset:
    """Carrier: documents → 5 synthetic hosts → politeness waves at
    ``SCHEDULE_PER_WAVE`` fetches/host/wave; the oracle replays the
    hash rank with HUGEINT arithmetic and a window rank."""
    import os

    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_schedule_hosts, batch_format="pandas")
    out = politeness_schedule(ds, seed=corpus_seed())
    return out.select_columns(["host", "doc_id", "wave"])


def _crawl_schedule_sql() -> str:
    from pdf_extractor_ray.pipelines.corpus import SAMPLE_HASH_MULT, SAMPLE_SEED

    return f"""
WITH c AS (
  SELECT doc_id,
         'h' || CAST(doc_id % 5 AS VARCHAR) || '.example.com' AS host,
         (CAST(xor(doc_id, {SAMPLE_SEED}) AS HUGEINT) * {SAMPLE_HASH_MULT}) % 4294967296 AS h
  FROM documents
)
SELECT host, doc_id,
       CAST((ROW_NUMBER() OVER (PARTITION BY host ORDER BY h, doc_id) - 1)
            // {SCHEDULE_PER_WAVE} AS BIGINT) AS wave
FROM c
"""


CRAWL_SCHEDULE_SQL = _crawl_schedule_sql()


# --------------------------------------------------------------------------
# Sitemap discovery from robots.txt (the crawl-discovery channel)
# --------------------------------------------------------------------------


def derive_discovery_robots(hid: int) -> str:
    """Deterministic robots.txt body for host ``hid``: hosts with
    ``hid % 3 == 0`` declare TWO sitemaps (one of them inside a
    foreign-agent group — must still be harvested: the field is
    group-independent), ``hid % 3 == 1`` declare one with a mixed-case
    field name, ``hid % 3 == 2`` declare none. Every body carries the
    decoys a harvester must ignore: a sitemap URL in a comment, an
    empty Sitemap field, a duplicate declaration, and ordinary
    Disallow noise."""
    base = f"https://h{hid}.example.org"
    lines = [
        "# sitemap: https://decoy.example.org/in-comment.xml",
        "User-agent: *",
        "Disallow: /private",
        "Sitemap:",  # empty value: ignored
    ]
    if hid % 3 == 0:
        lines += [
            f"Sitemap: {base}/sitemap.xml",
            "",
            "User-agent: SomeOtherBot",
            "Disallow: /",
            f"Sitemap: {base}/sitemap-news.xml",  # group-independent
            f"Sitemap: {base}/sitemap.xml",  # duplicate: deduped
        ]
    elif hid % 3 == 1:
        lines += [f"SiteMap: {base}/sitemap.xml"]
    return "\n".join(lines) + "\n"


def sitemap_discovery_documents(sf_dir: str) -> ray.data.Dataset:
    """Sitemap discovery: corpus → per-host robots.txt body → REAL
    parse (:func:`functions.urls.parse_robots_sitemaps`) →
    ``(host, sitemap_url, sm_rank)`` — the URL-discovery channel a
    crawler walks before it fetches a single page (sitemaps.org
    protocol; the same bodies also carry Disallow noise so the two
    robots channels are proven independent).

    Scale shape: the host list comes from ONE bounded ``distinct``
    exchange over the derived host ids (13 hosts here; millions at
    crawl scale — still corpus-fraction-sized, never corpus-sized),
    then body synthesis + parse run as a zero-shuffle batch map over
    the HOST dataset, so per-host parse work is distributed rather
    than driver-looped."""
    from pdf_extractor_ray.functions.urls import parse_robots_sitemaps

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def to_hid(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hid": (b["doc_id"].to_numpy(np.int64) % 13)})

    hosts = distinct(ds.map_batches(to_hid, batch_format="pandas"), ["hid"])

    def harvest(b: pd.DataFrame) -> pd.DataFrame:
        hs, urls, ranks = [], [], []
        for hid in b["hid"]:
            hid = int(hid)
            for rank, sm in enumerate(parse_robots_sitemaps(derive_discovery_robots(hid)), 1):
                hs.append(f"h{hid}.example.org")
                urls.append(sm)
                ranks.append(rank)
        return pd.DataFrame(
            {
                "host": pd.Series(hs, dtype="object"),
                "sitemap_url": pd.Series(urls, dtype="object"),
                "sm_rank": pd.Series(ranks, dtype="int64"),
            }
        )

    return hosts.map_batches(harvest, batch_format="pandas")


# ranks replay first-occurrence order: hid%3==0 → sitemap.xml then
# sitemap-news.xml (the duplicate re-declaration never re-ranks),
# hid%3==1 → sitemap.xml only, hid%3==2 → no rows
SITEMAP_DISCOVERY_SQL = """
WITH h AS (SELECT DISTINCT doc_id % 13 AS hid FROM documents),
s AS (
  SELECT hid, 1 AS sm_rank,
         'https://h' || CAST(hid AS VARCHAR) || '.example.org/sitemap.xml' AS sitemap_url
  FROM h WHERE hid % 3 IN (0, 1)
  UNION ALL
  SELECT hid, 2,
         'https://h' || CAST(hid AS VARCHAR) || '.example.org/sitemap-news.xml'
  FROM h WHERE hid % 3 = 0
)
SELECT 'h' || CAST(hid AS VARCHAR) || '.example.org' AS host,
       sitemap_url, CAST(sm_rank AS BIGINT) AS sm_rank
FROM s
"""


# --------------------------------------------------------------------------
# Query-parameter incidence (tracking-param discovery input)
# --------------------------------------------------------------------------


def derive_param_urls(b: pd.DataFrame) -> pd.DataFrame:
    """RAW (pre-canonicalization) urls with arithmetic-pinned query
    params: every doc carries ``page={d%50}``; even ids add
    ``utm_source=feed``; ``d % 3 == 0`` adds ``ref=sidebar``;
    ``d % 7 == 0`` adds a per-doc ``sessionid`` (high-cardinality —
    the param a cleaner must learn to strip). A bare flag param
    (``flag`` with no ``=``) rides every 11th id."""
    urls = []
    for doc_id in b["doc_id"]:
        d = int(doc_id)
        parts = [f"page={d % 50}"]
        if d % 2 == 0:
            parts.append("utm_source=feed")
        if d % 3 == 0:
            parts.append("ref=sidebar")
        if d % 7 == 0:
            parts.append(f"sessionid={d}")
        if d % 11 == 0:
            parts.append("flag")
        urls.append(f"https://h{d % 5}.example.com/a?" + "&".join(parts))
    out = b[["doc_id"]].copy()
    out["url"] = urls
    return out


def url_param_stats(sf_dir: str) -> ray.data.Dataset:
    """Query-parameter incidence per host: parse param NAMES off the
    raw query strings → ``(host, param, n)``. The discovery pass that
    tells a crawl which params are tracking decoration (near-100%
    incidence, value cardinality ≈ url count — utm_*/sessionid) vs
    content-selecting (page=) — the data a canonicalizer's strip list
    should come from rather than a shipped constant (the round-4
    ADVICE point, made measurable). Bare flags count as params;
    everything after the first '=' is value and is ignored here.

    Scale shape: vectorized pandas str split/explode per batch →
    ONE (host, param) bucketed count exchange with per-batch
    partials."""
    from pdf_extractor_ray.functions.urls import site_domain
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_param_urls, batch_format="pandas")

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        hosts = b["url"].map(site_domain)
        qs = b["url"].str.partition("?")[2]
        pairs = qs.str.split("&")
        f = pd.DataFrame({"host": hosts, "param": pairs}).explode("param")
        f = f[f["param"].astype(bool)]
        f["param"] = f["param"].str.partition("=")[0]
        f["n"] = np.int64(1)
        return f.reset_index(drop=True)

    return grouped_sum(
        ds.map_batches(explode, batch_format="pandas"), ["host", "param"], ["n"]
    )


URL_PARAM_STATS_SQL = """
WITH u AS (
  SELECT 'h' || CAST(doc_id % 5 AS VARCHAR) || '.example.com' AS host, doc_id AS d
  FROM documents
),
p AS (
  SELECT host, 'page' AS param FROM u
  UNION ALL SELECT host, 'utm_source' FROM u WHERE d % 2 = 0
  UNION ALL SELECT host, 'ref' FROM u WHERE d % 3 = 0
  UNION ALL SELECT host, 'sessionid' FROM u WHERE d % 7 = 0
  UNION ALL SELECT host, 'flag' FROM u WHERE d % 11 = 0
)
SELECT host, param, CAST(COUNT(*) AS BIGINT) AS n FROM p GROUP BY host, param
"""


# --------------------------------------------------------------------------
# Crawl-delay-aware fetch ETA (politeness schedule × robots delay)
# --------------------------------------------------------------------------


def derive_delay_robots(hid: int) -> str:
    """Deterministic robots.txt for schedule host ``hid`` (mod 4):
    0 → ``Crawl-delay: 5`` in the ``*`` group; 1 → a delay that lives
    ONLY in a foreign-agent group (must NOT apply); 2 → no delay
    directive; 3 → a malformed delay (``soon`` — ignored). All carry
    Disallow noise."""
    lines = ["User-agent: *", "Disallow: /private"]
    if hid % 4 == 0:
        lines.append("Crawl-delay: 5")
    elif hid % 4 == 3:
        lines.append("Crawl-delay: soon")
    lines += ["", "User-agent: SomeOtherBot", "Crawl-delay: 9", "Disallow: /"]
    return "\n".join(lines) + "\n"


def crawl_eta_documents(sf_dir: str) -> ray.data.Dataset:
    """Politeness ETA: compose the wave schedule
    (:func:`politeness_schedule`) with each host's robots
    ``Crawl-delay`` (:func:`functions.urls.parse_robots_crawl_delay`,
    default 1 s when absent/malformed/foreign-scoped) —
    ``(host, doc_id, wave, eta_sec)`` with ``eta_sec = wave · delay``:
    the earliest second a polite fetcher may issue each request. The
    two robots channels (exclusion, pacing) and the scheduler now
    compose end to end.

    Scale shape: the schedule's one host-keyed exchange, then a
    zero-shuffle map applying the per-host delay; the delay map is
    host-count-bounded and built from the PARSER (5 hosts here), shipped
    once via the closure."""
    from pdf_extractor_ray.functions.urls import parse_robots_crawl_delay

    delays = {
        f"h{hid}.example.com": parse_robots_crawl_delay(derive_delay_robots(hid)) or 1
        for hid in range(5)
    }
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_schedule_hosts, batch_format="pandas")
    out = politeness_schedule(ds, seed=corpus_seed())

    def eta(b: pd.DataFrame) -> pd.DataFrame:
        w = b["wave"].to_numpy(np.int64)
        d = b["host"].map(delays).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "host": b["host"].astype(object),
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "wave": w,
                "eta_sec": w * d,
            }
        )

    return out.map_batches(eta, batch_format="pandas")


def _crawl_eta_sql() -> str:
    from pdf_extractor_ray.pipelines.corpus import SAMPLE_HASH_MULT, SAMPLE_SEED

    return f"""
WITH c AS (
  SELECT doc_id,
         'h' || CAST(doc_id % 5 AS VARCHAR) || '.example.com' AS host,
         doc_id % 5 AS hid,
         (CAST(xor(doc_id, {SAMPLE_SEED}) AS HUGEINT) * {SAMPLE_HASH_MULT}) % 4294967296 AS h
  FROM documents
),
w AS (
  SELECT host, doc_id, hid,
         CAST((ROW_NUMBER() OVER (PARTITION BY host ORDER BY h, doc_id) - 1)
              // {SCHEDULE_PER_WAVE} AS BIGINT) AS wave
  FROM c
)
SELECT host, doc_id, wave,
       CAST(wave * (CASE WHEN hid % 4 = 0 THEN 5 ELSE 1 END) AS BIGINT) AS eta_sec
FROM w
"""


CRAWL_ETA_SQL = _crawl_eta_sql()


# --------------------------------------------------------------------------
# RFC 9309 longest-match robots compliance (Allow exceptions honored)
# --------------------------------------------------------------------------


def derive_allow_robots() -> dict[str, str]:
    """Per-host robots bodies exercising longest-match precedence over
    the varied-path url corpus (paths are ``/p0[/p1[/p2[/p3]]]``):

    - h0: ``Disallow /p0`` + ``Allow /p0/p1`` — only 1-segment paths
      stay blocked (the Allow re-opens everything deeper);
    - h1: ``Disallow /p0/p1/p2`` + ``Allow /p0/p1/p2/p3`` — exactly
      3-segment paths blocked, 4-segment re-allowed (deepest wins);
    - h2: ``Disallow /p0`` + ``Allow /p0`` — EQUAL length tie →
      allow wins (RFC 9309 §2.2.2), nothing blocked;
    - h3: ``Disallow /`` + ``Allow /p0`` — root block overridden for
      every real path (all start /p0);
    - h4: empty Disallow (allow-all) + foreign-group noise."""
    return {
        "h0.example.org": "User-agent: *\nDisallow: /p0\nAllow: /p0/p1\n",
        "h1.example.org": (
            "User-agent: *\nDisallow: /p0/p1/p2\nAllow: /p0/p1/p2/p3\n"
        ),
        "h2.example.org": "User-agent: *\nDisallow: /p0\nAllow: /p0\n",
        "h3.example.org": "User-agent: *\nDisallow: /\nAllow: /p0\n",
        "h4.example.org": (
            "User-agent: *\nDisallow:\n\nUser-agent: OtherBot\nDisallow: /\n"
        ),
    }


def robots_allow_filter_documents(sf_dir: str) -> ray.data.Dataset:
    """Longest-match robots compliance over the varied-path corpus:
    parse each host's FULL rule set (:func:`functions.urls.
    parse_robots_rules`), canonicalize the messy urls, and keep pages
    :func:`functions.urls.robots_path_allowed` admits — ``(doc_id,
    url)`` survivors. Against the conservative Disallow-only filter
    (:func:`robots_filter_documents`) this is the precision upgrade:
    Allow exceptions re-open exactly the subtrees the publisher
    re-opened (h0/h1), equal-length ties resolve to allow (h2), and a
    root Disallow with an Allow carve-out keeps the site crawlable
    (h3). Matching is on the canonical PATH (query stripped —
    documented subset). Zero shuffle; the rule table is host-bounded
    and ships once in the closure."""
    from pdf_extractor_ray.functions.urls import (
        canonical_url,
        parse_robots_rules,
        robots_path_allowed,
        site_domain,
    )

    rules = {h: parse_robots_rules(b) for h, b in derive_allow_robots().items()}
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        ids, urls = [], []
        for doc_id, url in zip(b["doc_id"], b["url"]):
            canon = canonical_url(url)
            host = site_domain(canon)  # www./port/case-normalized host
            after = canon.split("://", 1)[-1]
            slash = after.find("/")
            path_q = after[slash:] if slash >= 0 else "/"
            path = path_q.split("?", 1)[0]
            if robots_path_allowed(rules.get(host, []), path):
                ids.append(int(doc_id))
                urls.append(f"https://{host}{path_q}")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "url": pd.Series(urls, dtype="object"),
            }
        )

    return ds.map_batches(keep, batch_format="pandas")


# canonical url replay matches SURT/url_path_stats family arithmetic;
# blocked: h0 (d%5=0) at 1 segment, h1 (d%5=1) at exactly 3 segments
ROBOTS_ALLOW_FILTER_SQL = """
WITH u AS (
  SELECT doc_id, 1 + doc_id % 4 AS segs, doc_id % 5 AS h
  FROM documents
)
SELECT doc_id,
       'https://h' || CAST(h AS VARCHAR) || '.example.org'
       || CASE segs WHEN 1 THEN '/p0' WHEN 2 THEN '/p0/p1'
               WHEN 3 THEN '/p0/p1/p2' ELSE '/p0/p1/p2/p3' END
       || CASE WHEN doc_id % 7 = 0 THEN '?q=1' ELSE '' END AS url
FROM u
WHERE NOT (h = 0 AND segs = 1) AND NOT (h = 1 AND segs = 3)
"""


# --------------------------------------------------------------------------
# Crawl-budget allocation (largest-remainder apportionment)
# --------------------------------------------------------------------------

CRAWL_BUDGET_TOTAL = 100_000  # fetches to apportion across hosts


def crawl_budget_documents(sf_dir: str) -> ray.data.Dataset:
    """Apportion a fixed crawl budget across hosts proportionally to
    their token mass with the LARGEST-REMAINDER (Hamilton) method —
    ``(host, n_tokens, quota)`` where quotas are exact integers that
    SUM EXACTLY to :data:`CRAWL_BUDGET_TOTAL`: ``floor(B·w/W)`` each,
    then the ``B - Σfloor`` leftover goes to the largest remainders
    (``(B·w) mod W`` desc, host asc tie-break). Naive rounding
    over/under-spends the budget; Hamilton is the standard exact fix
    (same method as US House apportionment).

    Scale shape: per-host token mass is one bucketed grouped_sum
    (host-bounded result); the apportionment runs on that HOST-BOUNDED
    table driver-side (millions of hosts = still a bounded fold, never
    corpus-sized) with pure-integer arithmetic the SQL replays
    verbatim."""
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": pd.Series(
                    [f"h{int(d) % 13}.example.org" for d in b["doc_id"]],
                    dtype="object",
                ),
                "n_tokens": pd.Series(
                    [len(t.split()) for t in b["text"]], dtype="int64"
                ),
            }
        )

    per_host = (
        grouped_sum(ds.map_batches(keyed, batch_format="pandas"), ["host"], ["n_tokens"])
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    w = per_host["n_tokens"].to_numpy(np.int64)
    total = int(w.sum())
    b_ = CRAWL_BUDGET_TOTAL
    floors = (b_ * w) // total
    rem = (b_ * w) % total
    leftover = b_ - int(floors.sum())
    # rank: remainder desc, host asc — deterministic and SQL-replayable
    order = np.lexsort((per_host["host"].to_numpy(), -rem))
    bonus = np.zeros(len(w), np.int64)
    bonus[order[:leftover]] = 1
    per_host["quota"] = floors + bonus
    return ray.data.from_pandas(per_host)


def _crawl_budget_sql() -> str:
    from pdf_extractor_ray.functions.exact import WS_SPLIT_RE_SQL, trim_ws_sql

    tw = trim_ws_sql("text")
    return f"""
WITH h AS (
  SELECT 'h' || CAST(doc_id % 13 AS VARCHAR) || '.example.org' AS host,
         SUM(CASE WHEN {tw} = '' THEN 0
                  ELSE len(regexp_split_to_array({tw}, '{WS_SPLIT_RE_SQL}')) END) AS w
  FROM documents GROUP BY 1
),
t AS (SELECT SUM(w) AS total FROM h),
f AS (
  SELECT host, w, ({CRAWL_BUDGET_TOTAL} * w) // ANY_VALUE(t.total) AS fl,
         ({CRAWL_BUDGET_TOTAL} * w) % ANY_VALUE(t.total) AS rem
  FROM h, t GROUP BY host, w
),
l AS (SELECT {CRAWL_BUDGET_TOTAL} - SUM(fl) AS leftover FROM f)
SELECT host, CAST(w AS BIGINT) AS n_tokens,
       CAST(fl + CASE WHEN row_number() OVER (ORDER BY rem DESC, host ASC)
                           <= ANY_VALUE(l.leftover)
                      THEN 1 ELSE 0 END AS BIGINT) AS quota
FROM f, l GROUP BY host, w, fl, rem
"""


CRAWL_BUDGET_SQL = _crawl_budget_sql()


# --------------------------------------------------------------------------
# Multi-grain URL rollup (host / registrable domain / TLD in one pass)
# --------------------------------------------------------------------------


def url_grain_rollup(sf_dir: str) -> ray.data.Dataset:
    """Corpus counts at THREE url grains in ONE pass —
    ``(grain, key, n_docs)`` with grain ∈ {host, domain, tld}: each
    page emits one row per grain (host = full site host, domain =
    PSL registrable domain, tld = the public-suffix tail) and a single
    bucketed count exchange folds all three — the multi-grain emission
    pattern that replaces three separate scans with one (the GROUPING
    SETS shape, streamed). Hosts derive from the PSL carrier so the
    three grains genuinely differ (co.uk / github.io rows)."""
    from pdf_extractor_ray.functions.urls import registrable_domain, site_domain
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_psl_hosts, batch_format="pandas")

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        grains, keys = [], []
        for url in b["url"]:
            host = site_domain(url)
            dom = registrable_domain(url)
            tld = dom.split(".", 1)[1] if "." in dom else dom
            grains += ["host", "domain", "tld"]
            keys += [host, dom, tld]
        return pd.DataFrame(
            {
                "grain": pd.Series(grains, dtype="object"),
                "key": pd.Series(keys, dtype="object"),
                "n_docs": np.ones(len(grains), np.int64),
            }
        )

    return grouped_sum(
        ds.map_batches(explode, batch_format="pandas"), ["grain", "key"], ["n_docs"]
    )


URL_GRAIN_ROLLUP_SQL = """
WITH u AS (
  SELECT doc_id, doc_id % 4 AS fam, doc_id // 2 AS art FROM documents
),
rows_ AS (
  SELECT 'host' AS grain,
         CASE fam WHEN 0 THEN 'a' || CAST(doc_id % 5 AS VARCHAR) || '.ex' || CAST(art % 3 AS VARCHAR) || '.co.uk'
                  WHEN 1 THEN 'x.u' || CAST(art % 11 AS VARCHAR) || '.github.io'
                  WHEN 2 THEN 's' || CAST(art % 7 AS VARCHAR) || '.example.com'
                  ELSE 'deep.a.ex' || CAST(art % 3 AS VARCHAR) || '.com.au' END AS key
  FROM u
  UNION ALL
  SELECT 'domain',
         CASE fam WHEN 0 THEN 'ex' || CAST(art % 3 AS VARCHAR) || '.co.uk'
                  WHEN 1 THEN 'u' || CAST(art % 11 AS VARCHAR) || '.github.io'
                  WHEN 2 THEN 'example.com'
                  ELSE 'ex' || CAST(art % 3 AS VARCHAR) || '.com.au' END
  FROM u
  UNION ALL
  SELECT 'tld',
         CASE fam WHEN 0 THEN 'co.uk' WHEN 1 THEN 'github.io'
                  WHEN 2 THEN 'com' ELSE 'com.au' END
  FROM u
)
SELECT grain, key, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM rows_ GROUP BY grain, key
"""


def host_allowed_fraction(sf_dir: str) -> ray.data.Dataset:
    """Per-host robots compliance summary: how much of each host's url
    inventory the longest-match rule set admits —
    ``(host, n_urls, n_allowed, allowed_milli)``. The number a crawl
    planner reads before allocating budget to a host (a host that
    disallows 95% of its paths isn't worth its politeness slots);
    composes the :func:`robots_allow_filter_documents` matcher with
    one host-keyed count fold (per-batch partials)."""
    from pdf_extractor_ray.functions.urls import (
        canonical_url,
        parse_robots_rules,
        robots_path_allowed,
        site_domain,
    )
    from pdf_extractor_ray.ops import grouped_sum

    rules = {h: parse_robots_rules(b) for h, b in derive_allow_robots().items()}
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")

    def mark(b: pd.DataFrame) -> pd.DataFrame:
        hosts, allowed = [], []
        for url in b["url"]:
            canon = canonical_url(url)
            host = site_domain(canon)
            after = canon.split("://", 1)[-1]
            slash = after.find("/")
            path = (after[slash:] if slash >= 0 else "/").split("?", 1)[0]
            hosts.append(host)
            allowed.append(int(robots_path_allowed(rules.get(host, []), path)))
        return pd.DataFrame(
            {
                "host": pd.Series(hosts, dtype="object"),
                "n_urls": np.ones(len(hosts), np.int64),
                "n_allowed": pd.Series(allowed, dtype="int64"),
            }
        )

    summed = grouped_sum(
        ds.map_batches(mark, batch_format="pandas"), ["host"], ["n_urls", "n_allowed"]
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["allowed_milli"] = (1000 * b["n_allowed"].to_numpy(np.int64)) // b[
            "n_urls"
        ].to_numpy(np.int64)
        return b

    return summed.map_batches(finish, batch_format="pandas")


HOST_ALLOWED_FRACTION_SQL = """
WITH u AS (
  SELECT 'h' || CAST(doc_id % 5 AS VARCHAR) || '.example.org' AS host,
         doc_id % 5 AS h, 1 + doc_id % 4 AS segs
  FROM documents
),
m AS (
  SELECT host,
         CASE WHEN (h = 0 AND segs = 1) OR (h = 1 AND segs = 3) THEN 0 ELSE 1 END AS ok
  FROM u
)
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_urls,
       CAST(SUM(ok) AS BIGINT) AS n_allowed,
       CAST((1000 * SUM(ok)) // COUNT(*) AS BIGINT) AS allowed_milli
FROM m GROUP BY host
"""


# --------------------------------------------------------------------------
# RFC 3986 reference resolution (href → crawlable absolute URL)
# --------------------------------------------------------------------------


def derive_relative_pages(b: pa.Table) -> pa.Table:
    """Page per doc at ``https://h{d%7}.example.org/dir{d%4}/page`` with
    one link whose FORM rotates by ``d % 6`` through the resolution
    cases: relative sibling, ``..`` parent climb, absolute path,
    protocol-relative, fragment-only (same-document), and
    query-replacement. Every page also carries a decoy link inside
    a <script> string.

    pyarrow in and out, one read block per call (``batch_size=None``):
    the read blocks carry documents.parquet's pandas schema metadata,
    and Ray cannot hash such schemas when it concatenates blocks into a
    batch."""
    ids = b.column("doc_id")
    htmls, bases = [], []
    for d in ids.to_pylist():
        base = f"https://h{d % 7}.example.org/dir{d % 4}/page"
        href = [
            f"sib{d % 9}",
            f"../up{d % 9}",
            f"/abs{d % 9}",
            f"//h{(d + 1) % 7}.example.org/x",
            "#frag",
            f"?v={d % 9}",
        ][d % 6]
        htmls.append(
            (
                "<html><body>"
                f'<a href="{href}">link</a>'
                '<script>var s = "<a href=/decoy>";</script>'
                "</body></html>"
            ).encode("utf-8")
        )
        bases.append(base)
    return pa.table({"doc_id": ids, "html": pa.array(htmls, pa.binary()), "base": pa.array(bases, pa.string())})


def resolved_links_documents(sf_dir: str) -> ray.data.Dataset:
    """Reference resolution end to end: REAL link harvest
    (:func:`kernels.html_extract.html_extract_links`) + RFC 3986 §5
    resolution (:func:`functions.urls.resolve_url`) against the page
    URL → ``(doc_id, abs_url)``. The step between extraction and the
    frontier: raw hrefs are relative/protocol-relative/fragment forms
    a crawler cannot enqueue; the resolver (merge + dot-segment
    removal, version-pinned — NOT stdlib urljoin) makes them
    absolute. Zero shuffle."""
    from pdf_extractor_ray.functions.urls import resolve_url
    from pdf_extractor_ray.kernels.html_extract import html_extract_links

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_relative_pages, batch_format="pyarrow", batch_size=None)

    def resolve(b: pd.DataFrame) -> pd.DataFrame:
        ids, urls = [], []
        for doc_id, raw, base in zip(b["doc_id"], b["html"], b["base"]):
            for href, _ in html_extract_links(bytes(raw)):
                ids.append(int(doc_id))
                urls.append(resolve_url(base, href))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "abs_url": pd.Series(urls, dtype="object"),
            }
        )

    return ds.map_batches(resolve, batch_format="pandas", batch_size=1024)


RESOLVED_LINKS_SQL = """
SELECT doc_id,
       CASE doc_id % 6
         WHEN 0 THEN 'https://h' || CAST(doc_id % 7 AS VARCHAR) || '.example.org/dir'
                     || CAST(doc_id % 4 AS VARCHAR) || '/sib' || CAST(doc_id % 9 AS VARCHAR)
         WHEN 1 THEN 'https://h' || CAST(doc_id % 7 AS VARCHAR) || '.example.org/up'
                     || CAST(doc_id % 9 AS VARCHAR)
         WHEN 2 THEN 'https://h' || CAST(doc_id % 7 AS VARCHAR) || '.example.org/abs'
                     || CAST(doc_id % 9 AS VARCHAR)
         WHEN 3 THEN 'https://h' || CAST((doc_id + 1) % 7 AS VARCHAR) || '.example.org/x'
         WHEN 4 THEN 'https://h' || CAST(doc_id % 7 AS VARCHAR) || '.example.org/dir'
                     || CAST(doc_id % 4 AS VARCHAR) || '/page'
         ELSE 'https://h' || CAST(doc_id % 7 AS VARCHAR) || '.example.org/dir'
              || CAST(doc_id % 4 AS VARCHAR) || '/page?v=' || CAST(doc_id % 9 AS VARCHAR)
       END AS abs_url
FROM documents
"""


# --------------------------------------------------------------------------
# Percent-encoding normalization (RFC 3986 §6.2.2)
# --------------------------------------------------------------------------


def percent_norm_documents(sf_dir: str) -> ray.data.Dataset:
    """Percent-encoding normalization carrier: urls with planted
    escape variants — ``%7E`` (unreserved → decodes to ``~``),
    lowercase ``%2f`` (reserved → uppercases to ``%2F``), a malformed
    ``%g5`` (passes through) — normalized by
    :func:`functions.urls.normalize_percent_encoding` →
    ``(doc_id, norm_url)``. The equivalence step a dedup key needs
    BEFORE hashing (encoded and bare unreserved forms are the same
    resource, RFC 3986 §2.3). Zero shuffle."""
    from pdf_extractor_ray.functions.urls import normalize_percent_encoding

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        ids, urls = [], []
        for doc_id in b["doc_id"]:
            d = int(doc_id)
            raw = (
                f"https://docs.example.com/%7Euser{d % 5}/a%2fb"
                + ("/%g5" if d % 3 == 0 else "")
                + f"?x=%4{d % 10:x}"
            )
            ids.append(d)
            urls.append(normalize_percent_encoding(raw))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "norm_url": pd.Series(urls, dtype="object"),
            }
        )

    return ds.map_batches(norm, batch_format="pandas", batch_size=4096)


# %4X decodes iff X makes an unreserved char: %41-%5A → A-Z for hex
# digits 1-a here: %41..%49, %4a decode to letters; %40 stays (@ is
# reserved) and uppercases
PERCENT_NORM_SQL = """
SELECT doc_id,
       'https://docs.example.com/~user' || CAST(doc_id % 5 AS VARCHAR) || '/a%2Fb'
       || CASE WHEN doc_id % 3 = 0 THEN '/%g5' ELSE '' END
       || '?x=' || CASE WHEN doc_id % 10 = 0 THEN '%40'
                        ELSE chr(64 + CAST(doc_id % 10 AS INTEGER)) END AS norm_url
FROM documents
"""


# --------------------------------------------------------------------------
# RFC 9309 wildcard matching (* and $)
# --------------------------------------------------------------------------


def robots_wildcard_filter_documents(sf_dir: str) -> ray.data.Dataset:
    """Full-protocol robots matching over the varied-path corpus:
    wildcard rules — ``Disallow: /*2`` (any path ending in a segment
    ...2 — matches 3-segment paths /p0/p1/p2), with
    ``Allow: /p0/p1/p2?*`` re-opening exactly the query-bearing ones,
    and ``Disallow: /p0$`` (anchor: ONLY the exact 1-segment path) —
    evaluated by :func:`functions.urls.robots_path_allowed_wild`
    (longest-pattern precedence, §2.2.2). Output surviving
    ``(doc_id, url)``. Matching is on path+query here (the $ and ?*
    rules are query-sensitive by design). Zero shuffle."""
    from pdf_extractor_ray.functions.urls import (
        canonical_url,
        robots_path_allowed_wild,
        site_domain,
    )

    rules = [(False, "/*2"), (True, "/p0/p1/p2?*"), (False, "/p0$")]
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(derive_path_urls, batch_format="pandas")

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        ids, urls = [], []
        for doc_id, url in zip(b["doc_id"], b["url"]):
            canon = canonical_url(url)
            host = site_domain(canon)
            after = canon.split("://", 1)[-1]
            slash = after.find("/")
            path_q = after[slash:] if slash >= 0 else "/"
            if robots_path_allowed_wild(rules, path_q):
                ids.append(int(doc_id))
                urls.append(f"https://{host}{path_q}")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "url": pd.Series(urls, dtype="object"),
            }
        )

    return ds.map_batches(keep, batch_format="pandas")


# paths: segs = 1 + d%4, '?q=1' iff d%7==0. '/*2' matches ANY
# path+query containing a '2' (so BOTH 3- and 4-segment paths — '*'
# spans segment boundaries, the defining wildcard property); the
# longer Allow '/p0/p1/p2?*' re-opens exactly query-bearing 3-segment
# paths (a 4-segment path has '/' where the Allow needs '?'); '/p0$'
# blocks the exact 1-segment path only when no query follows.
ROBOTS_WILDCARD_SQL = """
WITH u AS (
  SELECT doc_id, 1 + doc_id % 4 AS segs, doc_id % 7 = 0 AS has_q,
         doc_id % 5 AS h
  FROM documents
)
SELECT doc_id,
       'https://h' || CAST(h AS VARCHAR) || '.example.org'
       || CASE segs WHEN 1 THEN '/p0' WHEN 2 THEN '/p0/p1'
               WHEN 3 THEN '/p0/p1/p2' ELSE '/p0/p1/p2/p3' END
       || CASE WHEN has_q THEN '?q=1' ELSE '' END AS url
FROM u
WHERE NOT (segs = 4)
  AND NOT (segs = 3 AND NOT has_q)
  AND NOT (segs = 1 AND NOT has_q)
"""


# --------------------------------------------------------------------------
# rel=nofollow link-equity audit
# --------------------------------------------------------------------------


def nofollow_stats_documents(sf_dir: str) -> ray.data.Dataset:
    """Link-equity audit: per page, followed vs rel=nofollow/sponsored/
    ugc link counts through the REAL rel-aware harvest
    (:func:`kernels.html_extract.html_extract_links_rel`) —
    ``(doc_id, n_links, n_nofollow)``. The PageRank/anchor pipelines
    upstream should drop nofollow edges (the web's explicit
    don't-endorse signal); this is the audit that measures how much of
    the graph that removes. Zero shuffle; token-based rel matching
    (``rel="external nofollow"`` counts)."""
    from pdf_extractor_ray.kernels.html_extract import html_extract_links_rel

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def build(b: pd.DataFrame) -> pd.DataFrame:
        htmls = []
        for doc_id in b["doc_id"]:
            d = int(doc_id)
            links = [f'<a href="/f/{j}">f</a>' for j in range(1 + d % 3)]
            links += [
                f'<a href="/n/{j}" rel="external NoFollow">n</a>' for j in range(d % 2)
            ]
            if d % 5 == 0:
                links.append('<a href="/s" rel="sponsored">s</a>')
            htmls.append(f"<html><body>{''.join(links)}</body></html>".encode())
        out = b[["doc_id"]].copy()
        out["html"] = htmls
        return out

    def audit(b: pd.DataFrame) -> pd.DataFrame:
        ids, n_l, n_nf = [], [], []
        for doc_id, raw in zip(b["doc_id"], b["html"]):
            links = html_extract_links_rel(bytes(raw))
            nf = sum(
                1
                for _, rel in links
                if {"nofollow", "sponsored", "ugc"} & set(rel.split())
            )
            ids.append(int(doc_id))
            n_l.append(len(links))
            n_nf.append(nf)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_links": pd.Series(n_l, dtype="int64"),
                "n_nofollow": pd.Series(n_nf, dtype="int64"),
            }
        )

    return ds.map_batches(build, batch_format="pandas", batch_size=1024).map_batches(
        audit, batch_format="pandas", batch_size=1024
    )


NOFOLLOW_STATS_SQL = """
SELECT doc_id,
       CAST(1 + doc_id % 3 + doc_id % 2
            + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_links,
       CAST(doc_id % 2 + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS BIGINT)
           AS n_nofollow
FROM documents
"""
