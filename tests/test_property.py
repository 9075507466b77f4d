"""Property-based tests (hypothesis): kernels never crash on arbitrary
bytes, writer→parser round trips hold for arbitrary content, and the
HTML tokenizer gives what the token-by-token walk it replaced gave."""

import importlib
import random
import re
from html import unescape

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from pdf_extractor_ray.kernels.html_extract import html_extract, html_extract_headings
from pdf_extractor_ray.kernels.normalize import LIGATURES, format_value, normalize_key, normalize_ligatures
from pdf_extractor_ray.kernels.record import extract_record
from pdf_extractor_ray.kernels.pdf_extract import pdf_extract
from pdf_extractor_ray.sources.pages import make_html_page, make_pdf

_SETTINGS = dict(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)


@given(raw=st.binary(max_size=4096))
@settings(**_SETTINGS)
def test_extract_record_total_on_arbitrary_bytes(raw):
    """extract_record is total: any byte string → a well-formed record."""
    rec = extract_record("u", raw)
    assert rec["status"].split(":")[0] in {"ok", "empty", "quarantined"}
    assert isinstance(rec["extracted_text"], str)
    for s in rec["char_spans"]:
        assert 0 <= s["start"] <= s["end"] <= len(rec["extracted_text"])


@given(html=st.text(max_size=2048))
@settings(**_SETTINGS)
def test_html_extract_never_raises(html):
    text, spans = html_extract(html.encode("utf-8"))
    for s in spans:
        assert text[s["start"] : s["end"]].strip() == text[s["start"] : s["end"]]


_pdf_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FFF),
    min_size=1,
    max_size=40,
).filter(lambda t: t.strip())


@given(
    runs=st.lists(
        st.tuples(
            st.floats(10, 500),  # x
            st.floats(10, 700),  # y
            _pdf_text,
        ),
        min_size=1,
        max_size=8,
    ),
    compress=st.booleans(),
)
@settings(**_SETTINGS)
def test_pdf_writer_parser_roundtrip_words_preserved(runs, compress):
    """Every non-empty word written into a PDF reappears in the
    extracted text (modulo ligature/whitespace normalization and
    reading-order concatenation)."""
    from pdf_extractor_ray.kernels.normalize import normalize_ligatures

    pdf = make_pdf([[(x, y, 12.0, t) for x, y, t in runs]], compress=compress)
    text, spans = pdf_extract(pdf)
    for _, _, t in runs:
        expected = normalize_ligatures(t).strip()
        if expected:
            assert expected in text
    # offsets index the text
    for s in spans:
        assert 0 <= s["start"] < s["end"] <= len(text)


@given(v=st.text(max_size=60))
@settings(**_SETTINGS)
def test_normalizers_total_and_idempotent(v):
    f = format_value(v)
    assert format_value(f) == f or "$" not in f  # idempotent modulo symbols
    k = normalize_key(v)
    assert normalize_key(k) == k


def test_join_planner_plans_agree_property():
    """Property: for random tables, semi/anti/inner results are
    identical across the broadcast plan, the exchange plan, and a
    pandas ground truth."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pdf_extractor_ray.joins import adaptive_inner_join, semi_join

    rng = np.random.default_rng(1234)
    for trial in range(3):
        n_l, n_r = int(rng.integers(1, 400)), int(rng.integers(1, 120))
        left = pd.DataFrame(
            {"k": rng.integers(0, 50, size=n_l), "v": rng.integers(0, 1000, size=n_l)}
        )
        right = pd.DataFrame(
            {"rk": rng.integers(0, 50, size=n_r), "w": rng.integers(0, 1000, size=n_r)}
        )
        lds, rds = ray.data.from_pandas(left), ray.data.from_pandas(right)
        rkeys = set(right["rk"])

        for keep in (True, False):
            exp = sorted(left.loc[left["k"].isin(rkeys) == keep, "v"])
            for lim in (1_000_000, 0):
                got = semi_join(
                    lds, rds.select_columns(["rk"]), on="k", right_on="rk",
                    keep=keep, broadcast_limit=lim,
                ).to_pandas()
                assert sorted(got["v"]) == exp, (trial, keep, lim)

        exp_inner = (
            left.merge(right, left_on="k", right_on="rk")
            .sort_values(["k", "v", "w"])[["k", "v", "w"]]
            .reset_index(drop=True)
        )
        for lim in (1_000_000, 0):
            got = adaptive_inner_join(lds, rds, on="k", right_on="rk", broadcast_limit=lim).to_pandas()
            got = got.sort_values(["k", "v", "w"])[["k", "v", "w"]].reset_index(drop=True)
            pd.testing.assert_frame_equal(got, exp_inner)


# ---------------------------------------------------------------------------
# The HTML tokenizer against the token-by-token walk it replaced. The
# reference below is that walk's _TOKEN_RE and _Extractor, copied
# verbatim; html_extract/html_extract_headings run it by swapping it in
# for the package's _Extractor.
# ---------------------------------------------------------------------------
hx = importlib.import_module("pdf_extractor_ray.kernels.html_extract")
_Block = hx._Block
_sniff_hint = hx._sniff_hint
_RAWTEXT_CLOSE = hx._RAWTEXT_CLOSE
SKIP_TAGS, BLOCK_TAGS, VOID_TAGS = hx.SKIP_TAGS, hx.BLOCK_TAGS, hx.VOID_TAGS
HINTABLE_TAGS, POS_HINT_TAGS, CELL_SEPARATOR = hx.HINTABLE_TAGS, hx.POS_HINT_TAGS, hx.CELL_SEPARATOR

_TOKEN_RE = re.compile(
    r"""
    <!--.*?(?:-->|$)                       # comment
  | <!\[CDATA\[.*?(?:\]\]>|$)              # cdata
  | <![^>]*>                               # doctype
  | <\?[^>]*>                              # processing instruction
  | </?([a-zA-Z][a-zA-Z0-9:-]*)            # tag name (group 1)
      ((?:[^>"']|"[^"]*"|'[^']*')*)        # attrs, quote-aware (group 2)
      >?
    """,
    re.S | re.X,
)


class _Extractor:
    __slots__ = (
        "_skip_depth",
        "_link_depth",
        "_block_stack",
        "_done",
        "_order",
        "_hints",
        "_hint_counts",
        "_neg_depth",
        "_pos_depth",
    )

    def __init__(self) -> None:
        self._skip_depth = 0
        self._link_depth = 0
        self._block_stack: list[_Block] = []
        self._done: list[_Block] = []
        self._order = 0
        # active id/class hints: (tag, same-tag nesting depth at open,
        # flag). Depth counting starts when a hint for that tag name
        # activates, so an inner UNHINTED <div> closing does not end an
        # outer <div class="sidebar">'s demotion.
        self._hints: list[tuple[str, int, int]] = []
        self._hint_counts: dict[str, int] = {}
        self._neg_depth = 0
        self._pos_depth = 0

    def feed(self, html: str) -> None:
        pos = 0
        n = len(html)
        search = _TOKEN_RE.search
        while pos < n:
            m = search(html, pos)
            if m is None:
                self._data(html[pos:])
                break
            if m.start() > pos:
                self._data(html[pos : m.start()])
            pos = m.end()
            name = m.group(1)
            if name is None:
                continue  # comment / doctype / PI / cdata
            tag = name.lower()
            if html[m.start() + 1] == "/":  # cheaper than m.group(0)[1]
                self._endtag(tag)
                continue
            # attr-blob handling is gated to structure tags that can
            # carry an id/class hint; those materialize their blob
            # (slice + case-normalize) — the numerous <a href=...> tags
            # never pay it, which is where the ~10% kernel cost of an
            # unconditional m.group(2) per start tag lived. The
            # prefilter is case-INsensitive to match _ATTR_VAL_RE
            # (uppercase ID=/CLASS= must not bypass the sniff).
            attrs = ""
            if tag in HINTABLE_TAGS:
                a2, b2 = m.span(2)
                if b2 > a2:
                    blob = html[a2:b2]
                    low = blob if blob.islower() else blob.lower()
                    if "id" in low or "class" in low:
                        attrs = blob
            if html[pos - 2 : pos] == "/>":
                # self-closed non-void tag (<iframe/>, <a/>): open+close,
                # else a skip/link depth increments forever and all
                # following content is silently discarded
                self._starttag(tag, attrs)
                self._endtag(tag)
            else:
                self._starttag(tag, attrs)
                if tag in _RAWTEXT_CLOSE:
                    cm = _RAWTEXT_CLOSE[tag].search(html, pos)
                    pos = cm.start() if cm else n  # raw content skipped

    # -- tag events ----------------------------------------------------
    def _starttag(self, tag: str, attrs: str = "") -> None:
        if tag in VOID_TAGS:
            # <br>/<hr> separate words: without this, "one<br>two"
            # would fuse to "onetwo" (collapse_ws normalizes the space)
            if tag in ("br", "hr") and not self._skip_depth and self._block_stack:
                self._block_stack[-1].parts.append(" ")
            return
        if tag in SKIP_TAGS:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        # implied end tags (the HTML omitted-end-tag rules the block
        # model must honor): <p> closes before any block-level element
        # (cascading — a p nested in an unclosed li must not shield the
        # li from its own implied close), and a new li/dt/dd/tr closes
        # ONE open sibling level (only one: a nested list's inner <li>
        # must not close the outer list's). Without this, an unclosed
        # HINTED <p class="comment"> would keep its demotion active for
        # the rest of the document — the hint stack, unlike the block
        # stack's innermost-match pop, has no other recovery from
        # unbalanced markup.
        while self._block_stack:
            inner = self._block_stack[-1].tag
            if inner == "p" and tag in BLOCK_TAGS:
                self._endtag("p")
                continue  # re-examine the newly exposed innermost
            if (tag == inner and tag in ("li", "tr")) or (
                tag in ("dt", "dd") and inner in ("dt", "dd")
            ):
                self._endtag(inner)
            break
        # id/class hint sniff (feed() already prefiltered: attrs is
        # non-empty only when an id/class substring is present)
        flag = _sniff_hint(attrs) if attrs else 0
        if flag == 0 and tag in POS_HINT_TAGS:
            flag = 1
        if flag:
            depth = self._hint_counts.get(tag, 0)
            self._hints.append((tag, depth, flag))
            self._hint_counts[tag] = depth + 1
            if flag < 0:
                self._neg_depth += 1
            else:
                self._pos_depth += 1
        elif tag in self._hint_counts:
            self._hint_counts[tag] += 1
        if tag == "a":
            self._link_depth += 1
        if tag in BLOCK_TAGS:
            self._order += 1
            hint = -1 if self._neg_depth else (1 if self._pos_depth else 0)
            self._block_stack.append(_Block(tag, self._order, hint))
        elif tag in ("td", "th") and self._block_stack:
            blk = self._block_stack[-1]
            # row-wise cell joining: a new cell inside a <tr> block that
            # already holds text gets a visible separator, so the row
            # serializes as one "a | b | c" line
            if blk.tag == "tr" and blk.parts:
                blk.parts.append(CELL_SEPARATOR)

    def _endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        if tag in SKIP_TAGS:
            if self._skip_depth:
                self._skip_depth -= 1
            return
        if self._skip_depth:
            return
        if tag in self._hint_counts:
            c = self._hint_counts[tag] - 1
            if self._hints and self._hints[-1][0] == tag and self._hints[-1][1] == c:
                _, _, flag = self._hints.pop()
                if flag < 0:
                    self._neg_depth -= 1
                else:
                    self._pos_depth -= 1
            if c <= 0 and not any(h[0] == tag for h in self._hints):
                del self._hint_counts[tag]
            else:
                self._hint_counts[tag] = max(c, 0)
        if tag == "a" and self._link_depth:
            self._link_depth -= 1
        if tag in BLOCK_TAGS:
            # pop the innermost matching block (tolerate unbalanced HTML)
            stack = self._block_stack
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].tag == tag:
                    self._done.extend(stack[i:])
                    del stack[i:]
                    break

    def _data(self, data: str) -> None:
        if self._skip_depth or not data or data.isspace():
            return
        if "&" in data:
            data = unescape(data)
        if not self._block_stack:
            # text outside any block element: give it an implicit block
            self._order += 1
            hint = -1 if self._neg_depth else (1 if self._pos_depth else 0)
            self._block_stack.append(_Block("body", self._order, hint))
        blk = self._block_stack[-1]
        blk.parts.append(data)
        n = len(data.strip())
        blk.total_chars += n
        if self._link_depth:
            blk.link_chars += n

    # -- result --------------------------------------------------------
    def blocks(self) -> list[_Block]:
        out = self._done + self._block_stack  # flush unclosed blocks
        out.sort(key=lambda b: b.order)
        return out


# Adversarial fragments: skip tags in mixed case, self-closed, with
# attributes, or with a skip name as a prefix; a skip tag inside a
# quoted attribute, a comment or cdata; unterminated quotes, comments,
# cdata, doctype and PI; bare "<"; script/style with and without a
# close tag; entities, ligatures and id/class hints.
_HTML_FRAGMENTS = [
    "<nav>", "</nav>", "<NaV>", "</NAV >", "<nav/>", "<nav x=/>", "<navx>", "</navx>",
    "<nav:a>", "</nav:a>", "</ nav>", "<nav", "</nav", '<nav title="a>b">', "</nav x>",
    "<navx>leak</navx>", "<header-x>leak</header-x>", "<Header>", "</header>", "<head>",
    "</HEAD>", "<aside class='sidebar'>", "</aside>", "<footer/ >", "</footer>",
    "<form><button>b</button></form>", "<select><option>o</option></select>", "<svg>",
    "</svg>", "<iframe/>", "<noscript>", "</noscript>", "<template>", "</template>",
    '<a title="</nav>">', "<a title='<nav>'>", '<a href="x', "<a href='y", '"', "'",
    "<a>", "</a>", "<a href=/u>link text</a>",
    "<!-- <nav> -->", "<!-- x", "-->", "<![CDATA[ </nav> ]]>", "<![CDATA[ x", "]]>",
    "<!DOCTYPE html>", "<!x", "<?pi ?>", "<?pi", "<", "<3", "< ", "</", "</3", ">", "/>",
    "<script>var a='</nav>';</script>", "<script>x", "</script>", "<SCRIPT>", "</Script >",
    "<style>b{}</style>", "<style>", "</style>", "<title>t</title>",
    "&amp;", "&lt;nav&gt;", "ﬁ", "ﬀ", "ﬃ", "ſ", "K",
    '<div class="sidebar">', '<div id="content">', "<DIV CLASS=nav>", "</div>",
    "<p>", "</p>", "<p>para words</P>", "<p class=comment>", "<li>", "</li>", "<tr>",
    "<td>", "</td>", "<Td>1</tD>", "</tr>", "<table>", "<h1>", "</h1>", "<h2 id=main>",
    "</h2>", "<br>", "<br/>", "<article>", "</article>", "<main>", "<dt>", "<dd>",
    "<span class='nav'>", "</span>", "<b>x</b>",
    "hello world ", "text", " ", "\n", "more words here ", "x" * 9,
]
_html_docs = st.lists(
    st.one_of(st.sampled_from(_HTML_FRAGMENTS), st.text(alphabet="<>/!?-='\" navNAVp", max_size=4)),
    max_size=40,
).map("".join)
# Few fragments, so that a skip tag, its near misses (self-closed, a
# longer name, a skip name as prefix) and live text meet often.
_SKIP_FRAGMENTS = [
    "<nav>", "</nav>", "<NAV/>", "<nav x=/>", "<navx>", "</navx>", "<head>", "</head>",
    "<header>", "</HEADER>", "<p>", "</p>", "hello world ", "<", '"', "<!--", "-->",
    "<script>", "</script>", "<![CDATA[", "]]>", "<!x>", "<?x>",
]
_skip_docs = st.lists(st.sampled_from(_SKIP_FRAGMENTS), max_size=16).map("".join)
_TOKENIZER_SETTINGS = dict(_SETTINGS, max_examples=1500)


def _reference(fn, raw: bytes):
    """``fn`` (html_extract or html_extract_headings) run on the walk above."""
    package_extractor = hx._Extractor
    hx._Extractor = _Extractor
    try:
        return fn(raw)
    finally:
        hx._Extractor = package_extractor


def _token_stream(pattern, text: str) -> list:
    out, pos = [], 0
    while (m := pattern.search(text, pos)) is not None:
        out.append((m.span(), m.groups()))
        pos = m.end()
    return out


@given(doc=_html_docs)
@settings(**_TOKENIZER_SETTINGS)
def test_html_tokenizer_matches_token_walk(doc):
    """html_extract and html_extract_headings give what the token walk
    gave, on adversarial markup."""
    raw = doc.encode("utf-8")
    assert html_extract(raw) == _reference(html_extract, raw)
    assert html_extract_headings(raw) == _reference(html_extract_headings, raw)


@given(doc=_skip_docs)
@settings(**_TOKENIZER_SETTINGS)
def test_html_tokenizer_matches_token_walk_around_skip_tags(doc):
    raw = doc.encode("utf-8")
    assert html_extract(raw) == _reference(html_extract, raw)
    assert html_extract_headings(raw) == _reference(html_extract_headings, raw)


@given(seed=st.integers(0, 2**32 - 1), n_paras=st.integers(1, 30))
@settings(**_SETTINGS)
def test_html_tokenizer_matches_token_walk_on_generated_pages(seed, n_paras):
    raw, _ = make_html_page(random.Random(seed), n_paras)
    assert html_extract(raw) == _reference(html_extract, raw)
    assert html_extract_headings(raw) == _reference(html_extract_headings, raw)


def _next_skip_tag(text: str, pos: int) -> int:
    """Where the token walk, from ``pos``, meets its next SKIP_TAGS tag
    (the end of ``text`` when there is none)."""
    while (m := _TOKEN_RE.search(text, pos)) is not None:
        if m.group(1) is not None and m.group(1).lower() in SKIP_TAGS:
            return m.start()
        pos = m.end()
    return len(text)


@given(doc=st.one_of(_html_docs, _skip_docs))
@settings(**_TOKENIZER_SETTINGS)
def test_skip_run_stops_at_next_skip_tag(doc):
    """From the start and from every token end, the skip match ends
    where the token walk meets the next skip tag: not earlier (at
    "<navx>" or "<nav:a>") and not later (past a "<nav>" after a bare
    "<"). A stop one tag early changes no extracted text, since no tag
    whose name starts with a skip name has an effect in the block model,
    so the extraction tests above cannot see it."""
    starts = [0] + [m.end() for m in _TOKEN_RE.finditer(doc)]
    for pos in starts:
        assert hx._SKIP_RUN_RE.match(doc, pos).end() == _next_skip_tag(doc, pos), pos


@given(doc=_html_docs)
@settings(**_TOKENIZER_SETTINGS)
def test_token_regex_stream_unchanged(doc):
    """The unrolled attrs group lexes every token as the old one did:
    same spans, same groups, for every walker that shares _TOKEN_RE."""
    assert _token_stream(hx._TOKEN_RE, doc) == _token_stream(_TOKEN_RE, doc)


_LIG_SUB_RE = re.compile("|".join(LIGATURES))


@given(text=st.text(alphabet=st.sampled_from(list("ab fi\né﫿﬇\U0001f600") + list(LIGATURES))))
@settings(**_TOKENIZER_SETTINGS)
def test_normalize_ligatures_matches_alternation(text):
    assert normalize_ligatures(text) == _LIG_SUB_RE.sub(lambda m: LIGATURES[m.group(0)], text)
