"""URL canonicalization, site-domain and registrable-domain extraction.

The reference has no URL layer (its inputs are SharePoint drive paths
— `sync_to_onedrive.py`'s M21 URL parsers are a justified drop); this
module is part of the web-scale extension surface: crawl curation
keys every doc by a canonical URL (dedup, domain mixing, blocklists)
and aggregates per registrable domain (anti-spam quotas).

Pure stdlib functions, vectorizable inside ``map_batches``; the
pipeline layer is ``pipelines.urlops``.
"""

from __future__ import annotations

import re
from urllib.parse import parse_qsl, urlencode, urlsplit

# Query parameters that never change page content (analytics /
# click-tracking decorations) — dropped by canonicalization. Only
# UNAMBIGUOUS analytics params belong here: e.g. ``ref`` is excluded
# because real sites use it content-selectingly (``?ref=branch`` on a
# code host selects a different page); callers with a known corpus can
# extend the set via ``canonical_url``'s keyword arguments.
TRACKING_PARAM_PREFIXES = ("utm_",)
TRACKING_PARAMS = frozenset({"gclid", "fbclid", "msclkid", "mc_cid", "mc_eid"})

_DEFAULT_PORTS = {"http": 80, "https": 443}

# ---------------------------------------------------------------------------
# Public-suffix snapshot
# ---------------------------------------------------------------------------
# A vendored SUBSET of the Mozilla Public Suffix List
# (https://publicsuffix.org/ — public data, MPL-2.0), hand-snapshotted:
# the multi-label ICANN country-code second-level suffixes with the
# widest crawl presence plus the most common PRIVATE-section hosting
# suffixes (github.io etc., under which every subdomain is an
# independently-owned site). Single-label TLDs need no listing — the
# algorithm falls back to "last label is the suffix". When packaging
# for production, regenerate this set from the full upstream list; the
# algorithm below is the standard PSL longest-match rule and needs no
# change. Wildcard ``*.`` and exception ``!`` rules ARE supported
# (PSL_WILDCARD / PSL_EXCEPTIONS below), so regenerating from the full
# upstream list is purely a data swap.
PSL_SNAPSHOT = frozenset({
    # ICANN section — United Kingdom
    "co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk", "me.uk", "ltd.uk",
    "plc.uk", "sch.uk", "nhs.uk",
    # Australia / New Zealand
    "com.au", "net.au", "org.au", "edu.au", "gov.au", "id.au", "asn.au",
    "co.nz", "net.nz", "org.nz", "govt.nz", "ac.nz", "geek.nz", "gen.nz",
    "school.nz",
    # Japan / Korea
    "co.jp", "ne.jp", "or.jp", "ac.jp", "ad.jp", "ed.jp", "go.jp", "gr.jp",
    "lg.jp",
    "co.kr", "ne.kr", "or.kr", "re.kr", "go.kr", "ac.kr", "pe.kr",
    # China / Taiwan / Hong Kong / Singapore / Malaysia
    "com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn", "ac.cn",
    "com.tw", "net.tw", "org.tw", "edu.tw", "gov.tw", "idv.tw",
    "com.hk", "net.hk", "org.hk", "edu.hk", "gov.hk", "idv.hk",
    "com.sg", "net.sg", "org.sg", "edu.sg", "gov.sg", "per.sg",
    "com.my", "net.my", "org.my", "edu.my", "gov.my",
    # India / Indonesia / Thailand / Vietnam / Philippines / Pakistan
    "co.in", "net.in", "org.in", "firm.in", "gen.in", "ind.in", "ac.in",
    "edu.in", "gov.in", "res.in", "nic.in",
    "co.id", "or.id", "ac.id", "go.id", "web.id", "my.id",
    "co.th", "or.th", "ac.th", "go.th", "in.th", "net.th",
    "com.vn", "net.vn", "org.vn", "gov.vn", "edu.vn",
    "com.ph", "net.ph", "org.ph", "gov.ph", "edu.ph",
    "com.pk", "net.pk", "org.pk", "gov.pk", "edu.pk",
    "com.bd", "net.bd", "org.bd", "gov.bd", "edu.bd",
    # Americas
    "com.br", "net.br", "org.br", "gov.br", "edu.br",
    "com.mx", "net.mx", "org.mx", "gob.mx", "edu.mx",
    "com.ar", "net.ar", "org.ar", "gob.ar", "edu.ar",
    "com.co", "net.co", "org.co", "gov.co", "edu.co", "nom.co",
    # Africa / Middle East
    "co.za", "net.za", "org.za", "gov.za", "ac.za", "web.za",
    "com.ng", "net.ng", "org.ng", "gov.ng", "edu.ng",
    "co.ke", "or.ke", "ne.ke", "go.ke", "ac.ke",
    "com.eg", "net.eg", "org.eg", "gov.eg", "edu.eg",
    "com.sa", "net.sa", "org.sa", "gov.sa", "edu.sa",
    "com.tr", "net.tr", "org.tr", "gov.tr", "edu.tr", "web.tr",
    # Europe (multi-label cc suffixes)
    "com.ua", "net.ua", "org.ua", "gov.ua", "edu.ua", "in.ua",
    "com.pl", "net.pl", "org.pl", "edu.pl", "gov.pl", "waw.pl",
    # PRIVATE section — hosted-site suffixes (each subdomain is an
    # independently-owned site; crucial for quota/blocklist fairness)
    "github.io", "gitlab.io", "blogspot.com", "wordpress.com",
    "herokuapp.com", "appspot.com", "azurewebsites.net", "cloudfront.net",
    "netlify.app", "vercel.app", "web.app", "firebaseapp.com",
    "pages.dev", "workers.dev", "readthedocs.io", "neocities.org",
    "s3.amazonaws.com",
})

# Wildcard rules (``*.B`` in the upstream list): EVERY direct child of
# B is itself a public suffix, so the registrable domain is two labels
# below B. The set stores the base B.
PSL_WILDCARD = frozenset({
    # ICANN: ccTLDs whose second level is delegated per-registrant
    "ck", "jm", "kh", "mm", "np", "pg",
    # ICANN: Japanese geographic city domains (*.kawasaki.jp etc.)
    "kawasaki.jp", "kitakyushu.jp", "kobe.jp", "nagoya.jp",
    "sapporo.jp", "sendai.jp", "yokohama.jp",
    # PRIVATE: per-customer cloud hostnames
    "compute.amazonaws.com",
})

# Exception rules (``!E`` in the upstream list): E looks like a child
# of a wildcard base but is a REGISTRABLE domain, not a suffix.
PSL_EXCEPTIONS = frozenset({
    "www.ck",
    "city.kawasaki.jp", "city.kitakyushu.jp", "city.kobe.jp",
    "city.nagoya.jp", "city.sapporo.jp", "city.sendai.jp",
    "city.yokohama.jp",
})


def canonical_url(
    url: str,
    *,
    tracking_params: frozenset[str] | set[str] = TRACKING_PARAMS,
    tracking_prefixes: tuple[str, ...] = TRACKING_PARAM_PREFIXES,
) -> str:
    """Canonical form: lowercase scheme+host, default port stripped,
    fragment dropped, tracking params removed, remaining query params
    sorted by (key, value), trailing path slash stripped.

    Deterministic and idempotent: canonical_url(canonical_url(u)) ==
    canonical_url(u) — required for it to serve as a dedup key."""
    raw = url.strip()
    try:
        parts = urlsplit(raw)
        host = (parts.hostname or "").lower().rstrip(".")
    except ValueError:  # malformed bracketed IPv6 literal
        return raw
    scheme = parts.scheme.lower()
    if not host:
        # scheme-less host-less input ('example.com/x', mailto:, data:)
        # — pass through unchanged rather than emit a malformed
        # '://...' that would NOT re-parse (idempotency violation)
        return raw
    try:
        port = parts.port
    except ValueError:  # malformed port text → keep host only
        port = None
    netloc = host
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        netloc = f"{host}:{port}"
    path = parts.path.rstrip("/")
    pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if k not in tracking_params and not k.startswith(tracking_prefixes)
    ]
    pairs.sort()
    query = urlencode(pairs)
    # protocol-relative input keeps its '//' prefix (re-parses to the
    # same netloc, so canonicalization stays idempotent)
    prefix = f"{scheme}://" if scheme else "//"
    return f"{prefix}{netloc}{path}" + (f"?{query}" if query else "")


def _extract_host(url: str) -> str:
    """Lowercased host from a URL, protocol-relative URL, bare host, or
    host/path fragment — scheme-less inputs get a '//' prefix so
    urlsplit isolates the netloc instead of treating '/x' as host
    text (ADVICE r4: 'example.com/x' must key as 'example.com')."""
    s = url.strip()
    if not s.startswith("//") and "://" not in s:
        s = "//" + s
    try:
        return (urlsplit(s).hostname or "").lower().rstrip(".")
    except ValueError:  # malformed bracketed IPv6 literal
        return ""


def site_domain(url: str) -> str:
    """Host-level site key for per-host aggregation: lowercased host,
    port and a leading ``www.`` stripped. For ownership-level keys
    (quota, blocklists) use :func:`registrable_domain`."""
    host = _extract_host(url)
    return host[4:] if host.startswith("www.") else host


def registrable_domain(url: str) -> str:
    """Registrable ("eTLD+1") domain of a URL or host: the public
    suffix plus one label, per the standard PSL longest-match rule over
    :data:`PSL_SNAPSHOT` (single-label TLDs are implicit). The
    ownership-granularity key for per-domain quotas and blocklists:

    - ``a.example.com`` and ``b.example.com``  → ``example.com``
    - ``foo.example.co.uk``                    → ``example.co.uk``
    - ``a.b.github.io``                        → ``b.github.io``
      (github.io is a PSL private-section suffix: every user site is
      an independently-owned domain)

    Wildcard and exception rules follow the upstream algorithm:

    - ``bar.foo.ck``       → ``bar.foo.ck``  (``*.ck``: foo.ck is a suffix)
    - ``sub.www.ck``       → ``www.ck``      (``!www.ck`` exception)
    - ``x.city.kobe.jp``   → ``city.kobe.jp``

    A host that IS a public suffix (e.g. ``github.io``, ``foo.ck``) is
    returned unchanged; an IP literal or empty host is returned as-is."""
    host = _extract_host(url)
    if not host or host.replace(".", "").isdigit():  # IPv4 literal
        return host
    labels = host.split(".")
    ps = _public_suffix_labels(labels)
    if ps >= len(labels):
        return host
    return ".".join(labels[-(ps + 1) :])


def _public_suffix_labels(labels: list[str]) -> int:
    """Label count of the host's public suffix per the publicsuffix.org
    algorithm: an exception rule wins outright (its suffix is the rule
    minus its leading label); otherwise the longest match among plain
    rules, wildcard rules (base + one label) and the implicit
    single-label rule."""
    n = len(labels)
    best = 1  # implicit "*" rule: the bare TLD
    for i in range(n):  # i ascending = longest candidate first
        cand = ".".join(labels[i:])
        if cand in PSL_EXCEPTIONS:
            return n - i - 1
        if cand in PSL_SNAPSHOT:
            best = max(best, n - i)
        if i > 0 and cand in PSL_WILDCARD:
            best = max(best, n - i + 1)
    return best


def _robots_groups(txt: str) -> list[tuple[set[str], list[tuple[str, str]]]]:
    """robots.txt as ``(agents, [(field, value), ...])`` groups: a group
    is a run of ``User-agent:`` lines (agents lowercased) and the rule
    lines after it. ``#`` comments are stripped, field names lowercased,
    lines without a ``:`` and lines before the first group ignored."""
    groups: list[tuple[set[str], list[tuple[str, str]]]] = []
    in_agent_run = False
    for raw_line in txt.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            if not in_agent_run:  # a new group starts
                groups.append((set(), []))
            in_agent_run = True
            groups[-1][0].add(value.lower())
        else:
            in_agent_run = False
            if groups:
                groups[-1][1].append((field, value))
    return groups


def _robots_group_lines(txt: str, agent: str) -> list[tuple[str, str]]:
    """Rule lines of the groups that apply to ``agent`` per RFC 9309
    §2.2.1: every group naming ``agent`` (case-insensitive), combined
    in file order; only when none does, every ``*`` group."""
    agent = agent.lower()
    groups = _robots_groups(txt)
    chosen = [lines for agents, lines in groups if agent in agents] or [
        lines for agents, lines in groups if "*" in agents
    ]
    return [line for lines in chosen for line in lines]


def parse_robots_disallows(txt: str, agent: str = "*") -> list[str]:
    """Parse a robots.txt body into the Disallow path-prefixes that
    apply to ``agent`` — the minimal, deterministic subset of the
    Robots Exclusion Protocol (RFC 9309) a bulk crawler enforces:

    - groups are runs of ``User-agent:`` lines followed by rules; a
      group applies when any of its agents is ``*`` or equals
      ``agent`` (case-insensitive);
    - ``Disallow:`` with a non-empty value contributes its prefix;
      an empty Disallow means "allow all" and contributes nothing;
    - ``Allow:``/``Crawl-delay:``/``Sitemap:`` and ``#`` comments are
      ignored (prefix-only enforcement — the conservative reading);
    - duplicate prefixes dedupe, order preserved.
    """
    agent = agent.lower()
    out: list[str] = []
    seen: set[str] = set()
    for agents, lines in _robots_groups(txt):
        if "*" not in agents and agent not in agents:
            continue
        for field, value in lines:
            if field == "disallow" and value and value not in seen:
                seen.add(value)
                out.append(value)
    return out


def parse_robots_rules(txt: str, agent: str = "*") -> list[tuple[bool, str]]:
    """Parse robots.txt into ordered ``(is_allow, prefix)`` rules for
    ``agent`` — the FULL RFC 9309 rule set (Allow and Disallow), for
    consumers that implement longest-match precedence
    (:func:`robots_path_allowed`) instead of
    :func:`parse_robots_disallows`' conservative prefix-only reading.
    Only the groups that name ``agent`` count, or the ``*`` groups when
    none does (:func:`_robots_group_lines`): a ``*`` group's Allow must
    not reopen a path that the agent's own group disallows. Empty
    values are kept out (an empty Disallow means allow-all and
    contributes no rule); duplicates preserved (harmless under
    longest-match)."""
    return [
        (field == "allow", value)
        for field, value in _robots_group_lines(txt, agent)
        if field in ("allow", "disallow") and value
    ]


def robots_path_allowed(rules: list[tuple[bool, str]], path: str) -> bool:
    """RFC 9309 §2.2.2 precedence: the MOST SPECIFIC (longest) matching
    rule decides; equal-length allow and disallow ties resolve to
    ALLOW; no matching rule means allowed. Prefix matching only (no
    ``*``/``$`` wildcards — the subset a bulk crawler enforces;
    documented limitation)."""
    best_len = -1
    best_allow = True
    for is_allow, prefix in rules:
        if path.startswith(prefix) and len(prefix) >= best_len:
            if len(prefix) > best_len:
                best_len = len(prefix)
                best_allow = is_allow
            elif is_allow:  # tie: allow wins
                best_allow = True
    return best_allow


def parse_robots_crawl_delay(txt: str, agent: str = "*") -> int | None:
    """Extract the ``Crawl-delay`` (whole seconds) that applies to
    ``agent`` from a robots.txt body — the de-facto politeness field
    (not in RFC 9309 but honored by most bulk crawlers). Group selection
    follows :func:`parse_robots_rules`: the groups naming ``agent``, or
    the ``*`` groups when none does; the FIRST value among them wins;
    non-integer values (``Crawl-delay: soon``) are ignored —
    conservative parsing, a malformed directive must not stall a
    crawler. Returns None when no applicable delay exists."""
    for field, value in _robots_group_lines(txt, agent):
        if field == "crawl-delay":
            try:
                return int(value)
            except ValueError:
                continue
    return None


def parse_robots_sitemaps(txt: str) -> list[str]:
    """Harvest ``Sitemap:`` declarations from a robots.txt body — the
    crawl-discovery channel robots.txt carries alongside its exclusion
    rules. Per RFC 9309 §2.3 / sitemaps.org, the Sitemap field is
    GROUP-INDEPENDENT: it applies regardless of any surrounding
    ``User-agent`` group, so this scan ignores group structure
    entirely (unlike :func:`parse_robots_disallows`).

    - field name matched case-insensitively (``Sitemap:`` /
      ``SITEMAP:`` / ``SiteMap:``);
    - ``#`` comments stripped first, so a sitemap URL inside a comment
      is NOT harvested;
    - empty values ignored; duplicates dedupe, first occurrence order
      preserved (the order a discovery queue would enqueue them).
    """
    out: list[str] = []
    seen: set[str] = set()
    for raw_line in txt.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        if field.strip().lower() == "sitemap":
            value = value.strip()
            if value and value not in seen:
                seen.add(value)
                out.append(value)
    return out


def surt_key(url: str) -> str:
    """SURT (Sort-friendly URI Reordering Transform) key — the form
    web-archive indexes (Common Crawl CDX, OpenWayback) sort and
    prefix-scan by: scheme dropped, host lowercased with labels
    REVERSED and comma-joined, ``)`` then path+query from the
    CANONICAL url (so decorations collapse before keying):

        https://www.Sub.Example.COM/a/b?q=1 → com,example,sub)/a/b?q=1

    A leading ``www.`` is dropped (the archive convention); an empty
    host or a non-http(s) scheme returns '' (mailto:/data: inputs
    would otherwise mis-key via the scheme-less host fallback). Prefix
    property: every page under a registrable domain shares the key
    prefix up to its reversed labels — the reason per-domain scans are
    RANGE scans in a SURT-sorted index."""
    canon = canonical_url(url)
    scheme = canon.split("://", 1)[0].lower() if "://" in canon else ""
    if scheme not in ("http", "https"):
        return ""
    host = site_domain(canon)
    if not host:
        return ""
    after = canon.split("://", 1)[-1]
    slash = len(after)
    for i, ch in enumerate(after):
        if ch in "/?":
            slash = i
            break
    pathq = after[slash:]
    if pathq.startswith("?"):
        pathq = "/" + pathq
    return ",".join(reversed(host.split("."))) + ")" + pathq


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 dot-segment removal (the ../ resolution step)."""
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out and out[-1] != "":
                out.pop()
                if not out:
                    out = [""]
        else:
            out.append(seg)
    # preserve a trailing slash produced by '.'/'..' final segments
    if path.endswith(("/.", "/..")) and (not out or out[-1] != ""):
        out.append("")
    res = "/".join(out)
    if path.startswith("/") and not res.startswith("/"):
        res = "/" + res
    return res


# RFC 3986 §3.1: scheme = ALPHA *( ALPHA / DIGIT / "+" / "-" / "." ) ":"
_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")


def resolve_url(base: str, href: str) -> str:
    """RFC 3986 §5 reference resolution — the step that turns a page's
    raw ``href`` attributes into crawlable absolute URLs (base = the
    page URL, or its ``<base href>`` when declared):

    - absolute refs (any ``scheme:`` prefix, RFC 3986 §3.1) pass
      through, non-hierarchical ones (``mailto:``, ``javascript:``)
      included;
    - ``//host/...`` inherits the base scheme (protocol-relative);
    - ``/path`` replaces the base path; relative paths merge onto the
      base directory; ``.``/``..`` segments resolve (§5.2.4);
    - ``?query`` keeps the base path; ``#frag``-only refs return the
      base without its fragment (same-document reference);
    - empty href returns the base unchanged.

    Pure string logic (no net, no stdlib urljoin — its pre-3986 quirks
    around ``..`` overflow differ across versions; this is pinned)."""
    if not href:
        return base.split("#", 1)[0]
    if _SCHEME_RE.match(href):
        return href
    scheme = base.split("://", 1)[0] if "://" in base else "https"
    rest = base.split("://", 1)[-1]
    slash = rest.find("/")
    host = rest[:slash] if slash >= 0 else rest
    base_path = rest[slash:] if slash >= 0 else "/"
    base_path = base_path.split("#", 1)[0]
    if href.startswith("//"):
        return f"{scheme}:{href}"
    if href.startswith("#"):
        return f"{scheme}://{host}{base_path}"
    if href.startswith("?"):
        return f"{scheme}://{host}{base_path.split('?', 1)[0]}{href}"
    if href.startswith("/"):
        return f"{scheme}://{host}{_remove_dot_segments(href)}"
    # relative: merge onto the base directory (§5.3 merge)
    base_dir = base_path.split("?", 1)[0]
    base_dir = base_dir[: base_dir.rfind("/") + 1] if "/" in base_dir else "/"
    return f"{scheme}://{host}{_remove_dot_segments(base_dir + href)}"


# RFC 3986 §2.3 unreserved characters: percent-encodings of these MUST
# decode for equivalence; all other escapes normalize to UPPERCASE hex
_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)


def normalize_percent_encoding(url: str) -> str:
    """RFC 3986 §6.2.2 percent-encoding normalization: decode escapes
    of UNRESERVED characters (``%7E`` → ``~`` — encoded and bare forms
    are the same resource), uppercase the hex of every other escape
    (``%2f`` → ``%2F``), and pass malformed escapes (short or non-hex)
    through untouched. The canonicalization step that makes
    percent-variant URLs collapse to one dedup key."""
    out: list[str] = []
    i = 0
    n = len(url)
    while i < n:
        c = url[i]
        if c == "%" and i + 2 < n + 1 and i + 3 <= n:
            hx = url[i + 1 : i + 3]
            if len(hx) == 2 and all(ch in "0123456789abcdefABCDEF" for ch in hx):
                val = chr(int(hx, 16))
                if val in _UNRESERVED:
                    out.append(val)
                else:
                    out.append("%" + hx.upper())
                i += 3
                continue
        out.append(c)
        i += 1
    return "".join(out)


def robots_path_allowed_wild(rules: list[tuple[bool, str]], path: str) -> bool:
    """RFC 9309 §2.2.2/§2.2.3 matching WITH the two special characters:
    ``*`` matches any character sequence, ``$`` anchors the pattern
    end. Precedence = longest PATTERN (octet count, the RFC's
    specificity measure); equal-length ties → allow. No matching rule
    → allowed. The full-protocol upgrade of the prefix-only
    :func:`robots_path_allowed` (kept: the conservative fast path)."""
    import re as _re

    best_len = -1
    best_allow = True
    for is_allow, pattern in rules:
        anchored = pattern.endswith("$")
        body = pattern[:-1] if anchored else pattern
        rx = "".join(".*" if ch == "*" else _re.escape(ch) for ch in body)
        rx = rx + "$" if anchored else rx
        if _re.match(rx, path):
            plen = len(pattern)
            if plen > best_len:
                best_len = plen
                best_allow = is_allow
            elif plen == best_len and is_allow:
                best_allow = True
    return best_allow
