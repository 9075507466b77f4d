"""HTML main-content extraction: boilerplate stripping via text-density
and link-density scoring over a lightweight block model.

Design per the north rule: "trafilatura/readability-style DOM heuristics
(boilerplate strip via text-density + link-density scoring over a node
tree)". No lxml in this environment; the markup is split by a compiled
regex tokenizer (quoted-attribute aware, raw-text script/style
handling, comment/doctype skipping) — profiling showed the stdlib
``html.parser`` spending ~27 µs per tag in bookkeeping, 83% of total
extraction time; the tokenizer drives the same block model ~5× faster.
Most tags of a crawled page sit in SKIP_TAGS subtrees (head, nav,
header, aside, footer), where nothing but another skip tag has an
effect, so the block model's walk (``_Extractor.feed``) crosses a skip
subtree in one regex match that lexes its tokens exactly as the
per-token walk did and stops only at the next skip tag. Its output is
byte-identical to the per-token walk's (``tests/test_property.py`` keeps
that walk as the reference).
A single pass attributes every text chunk to its *innermost* enclosing
block element, then keeps blocks whose link density is low enough and
whose text is long enough — weighted by id/class content hints
(``id="content"`` boosts, ``class="sidebar"`` demotes, inherited by
descendants) and with data-table rows serialized cell-joined (see
``html_extract``).

Deterministic: output depends only on the input bytes. Used unchanged by
the sequential oracle and by the Ray stage, so extracted text is
byte-identical per url by construction.

Output: ``(extracted_text, char_spans)`` where ``char_spans`` is a list
of dicts ``{start, end, page, bbox}`` (page = block ordinal, bbox =
None for HTML — positions are a PDF concept; offsets index into
``extracted_text``).
"""

from __future__ import annotations

import re
from html import unescape
from operator import attrgetter

from pdf_extractor_ray.kernels.normalize import collapse_ws, normalize_ligatures

# Subtrees that never contribute main content.
SKIP_TAGS = frozenset(
    {
        "script",
        "style",
        "noscript",
        "template",
        "svg",
        "head",
        "iframe",
        "form",
        "button",
        "select",
        "option",
        "nav",
        "header",
        "footer",
        "aside",
    }
)

# Elements that delimit a text block (innermost wins). Table CELLS are
# deliberately NOT block delimiters: their text accrues to the
# enclosing <tr> block so a data-table row serializes as one
# "a | b | c" line (row-wise cell joining) instead of one line per
# cell.
BLOCK_TAGS = frozenset(
    {
        "p",
        "div",
        "section",
        "article",
        "main",
        "li",
        "h1",
        "h2",
        "h3",
        "h4",
        "h5",
        "h6",
        "tr",
        "table",
        "caption",
        "blockquote",
        "pre",
        "figcaption",
        "dd",
        "dt",
        "body",
    }
)

VOID_TAGS = frozenset({"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "track", "wbr"})

MAX_LINK_DENSITY = 0.33
MIN_BLOCK_CHARS = 8
# a positively-hinted block (inside id/class ~ content|main|article…)
# tolerates more linked text before being called boilerplate
POS_MAX_LINK_DENSITY = 0.66
CELL_SEPARATOR = " | "

# id/class content hints (trafilatura/readability-style): attribute
# WORDS — split on any non-letter, so "site-footer", "main_content"
# and "navBar" all resolve — weighted for/against main content. A
# negative word anywhere on the element (or an ancestor) wins over a
# positive one: nav-in-a-div is the common false content.
NEG_HINT_WORDS = frozenset(
    """sidebar comment comments footer nav navbar navigation menu
    banner ad ads advert advertisement promo sponsor sponsored related
    share social breadcrumb breadcrumbs widget cookie popup modal
    subscribe newsletter pagination pager disclaimer copyright hidden
    skyscraper masthead""".split()
)
POS_HINT_WORDS = frozenset(
    """content main article body post entry text story blog description
    abstract""".split()
)
# tags that are content-positive by their NAME alone
POS_HINT_TAGS = frozenset({"article", "main"})

# tags whose id/class is worth sniffing: container/structure elements.
# Deliberately EXCLUDES <a> — the most numerous attr-bearing tag in
# link-dense boilerplate — whose contribution is already captured by
# link density; gating here keeps the hint sniff off the tokenizer's
# hot path for ~90% of attr-bearing tags.
HINTABLE_TAGS = frozenset(
    {"div", "section", "span", "ul", "ol", "li", "p", "table", "figure",
     "article", "main", "td", "th", "tr", "dl", "details", "summary"}
)

_ATTR_VAL_RE = re.compile(
    r"""\b(?:id|class)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.I
)
_WORD_SPLIT_RE = re.compile(r"[^a-z]+")


def _sniff_hint(attrs: str) -> int:
    """-1 (demote) / +1 (boost) / 0 from an element's id/class words."""
    neg = pos = False
    for m in _ATTR_VAL_RE.finditer(attrs):
        val = (m.group(1) or m.group(2) or m.group(3) or "").lower()
        for w in _WORD_SPLIT_RE.split(val):
            if w in NEG_HINT_WORDS:
                neg = True
            elif w in POS_HINT_WORDS:
                pos = True
    return -1 if neg else (1 if pos else 0)


class _Block:
    __slots__ = ("tag", "order", "parts", "link_chars", "total_chars", "hint")

    def __init__(self, tag: str, order: int, hint: int = 0):
        self.tag = tag
        self.order = order
        self.parts: list[str] = []
        self.link_chars = 0
        self.total_chars = 0
        self.hint = hint  # -1 demoted / +1 boosted / 0 neutral


# The lexer's rules, shared by _TOKEN_RE and _SKIP_RUN_RE. After a "<":
# a comment, cdata, doctype or PI (a comment or cdata with no terminator
# runs to the end of the document) ...
_DECL = r"""!(?:--.*?(?:-->|$) | \[CDATA\[.*?(?:\]\]>|$) | [^>]*+>) | \?[^>]*+>"""
# ... or a tag, whose attrs are quote-aware: a ">" inside a quoted value
# does not end the tag. The runs are possessive (nothing after them can
# fail, so they match the same strings and only skip the backtracking).
_ATTRS = r"""[^>"']*+(?:(?:"[^"]*+"|'[^']*+')[^>"']*+)*+"""
# One pass over the markup: tags, comments, doctype/PI, and text runs
# between them. Group 2 (the raw attr blob) feeds the id/class hint
# sniff; capturing it costs nothing extra — the span was already being
# matched.
_TOKEN_RE = re.compile(
    r"""
    <(?:
        %(decl)s                           # comment / cdata / doctype / PI
      | /?([a-zA-Z][a-zA-Z0-9:-]*)         # tag name (group 1)
        (%(attrs)s)                        # attrs (group 2)
        >?
    )
    """
    % {"decl": _DECL, "attrs": _ATTRS},
    re.S | re.X,
)
# a SKIP_TAGS name in any case, ending where _TOKEN_RE's tag name ends
# ("<navx>" and "<nav:a>" are other tags)
_SKIP_NAME = r"(?i:%s)(?![a-zA-Z0-9:-])" % "|".join(sorted(SKIP_TAGS))
# Inside a skip subtree nothing but another skip tag has an effect, so
# _Extractor.feed crosses everything up to the next SKIP_TAGS tag in this
# one match. Each loop step is a text run and one "<" token, lexed as
# _TOKEN_RE lexes it: a comment, cdata, doctype or PI, a tag other than
# a skip tag, or a bare "<" where _TOKEN_RE starts no tag. So a "<nav>"
# inside a comment or a quoted attribute value is crossed, not stopped
# at. The loop is possessive too.
_SKIP_RUN_RE = re.compile(
    r"""
    (?:
        [^<]*+ <
        (?:
            %(decl)s
          | /?(?!%(skip)s)[a-zA-Z]%(attrs)s>?
          | (?!/?[a-zA-Z])
        )
    )*+
    [^<]*+
    """
    % {"decl": _DECL, "skip": _SKIP_NAME, "attrs": _ATTRS},
    re.S | re.X | re.A,
)
# script/style content is raw text up to the matching close tag
_RAWTEXT_CLOSE = {
    "script": re.compile(r"</script", re.I),
    "style": re.compile(r"</style", re.I),
}


_ORDER = attrgetter("order")


def _decode_page(raw: bytes) -> str:
    """Charset-sniffed decode shared by every HTML walker (BOM > meta
    charset > strict utf-8 > windows-1252; kernels/sniff.py). For valid
    UTF-8 input — the overwhelming majority of a modern crawl — this is
    byte-for-byte the old ``decode("utf-8")`` path, so golden pins are
    unchanged; non-UTF-8 pages now decode instead of mojibake."""
    from pdf_extractor_ray.kernels.sniff import decode_html_bytes

    return decode_html_bytes(raw)[0]


class _Extractor:
    __slots__ = (
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
        # SKIP_TAGS tags are counted here, in ``skip``, and the handlers
        # only ever run outside skip subtrees: while one is open,
        # _SKIP_RUN_RE crosses everything up to the next skip tag.
        pos = 0
        n = len(html)
        skip = 0
        search = _TOKEN_RE.search
        skip_run = _SKIP_RUN_RE.match
        starttag = self._starttag
        endtag = self._endtag
        data = self._data
        while pos < n:
            if skip:
                pos = skip_run(html, pos).end()
                if pos == n:
                    break
            m = search(html, pos)
            if m is None:
                data(html[pos:])
                break
            start = m.start()
            if start > pos:
                data(html[pos:start])
            pos = m.end()
            name = m.group(1)
            if name is None:
                continue  # comment / doctype / PI / cdata
            tag = name.lower()
            if html[start + 1] == "/":  # cheaper than m.group(0)[1]
                if tag not in SKIP_TAGS:
                    endtag(tag)
                elif skip:
                    skip -= 1
                continue
            # a self-closed tag (<iframe/>, <a/>) is an open and a close,
            # else a skip/link depth increments forever and all following
            # content is silently discarded
            closed = html[pos - 2 : pos] == "/>"
            if tag in SKIP_TAGS:
                if not closed:
                    skip += 1
                    if tag in _RAWTEXT_CLOSE:
                        cm = _RAWTEXT_CLOSE[tag].search(html, pos)
                        pos = cm.start() if cm else n  # raw content skipped
                continue
            # attr-blob handling is gated to structure tags that can
            # carry an id/class hint; those materialize their blob
            # (slice + case-normalize) — the numerous <a href=...> tags
            # never pay it, which is where the ~10% kernel cost of an
            # unconditional attrs group per start tag lived. The
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
            starttag(tag, attrs)
            if closed:
                endtag(tag)

    # -- tag events (never inside a skip subtree) ----------------------
    def _starttag(self, tag: str, attrs: str) -> None:
        if tag in VOID_TAGS:
            # <br>/<hr> separate words: without this, "one<br>two"
            # would fuse to "onetwo" (collapse_ws normalizes the space)
            if tag in ("br", "hr") and self._block_stack:
                self._block_stack[-1].parts.append(" ")
            return
        stack = self._block_stack
        block = tag in BLOCK_TAGS
        # implied end tags (the HTML omitted-end-tag rules the block
        # model must honor): <p> closes before any block-level element
        # (cascading — a p nested in an unclosed li must not shield the
        # li from its own implied close), and a new li/dt/dd/tr closes
        # ONE open sibling level (only one: a nested list's inner <li>
        # must not close the outer list's). Without this, an unclosed
        # HINTED <p class="comment"> would keep its demotion active for
        # the rest of the document — the hint stack, unlike the block
        # stack's innermost-match pop, has no other recovery from
        # unbalanced markup. Every tag these rules name is a block tag.
        while block and stack:
            inner = stack[-1].tag
            if inner == "p":
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
        if block:
            self._order += 1
            hint = -1 if self._neg_depth else (1 if self._pos_depth else 0)
            stack.append(_Block(tag, self._order, hint))
        elif tag == "a":
            self._link_depth += 1
        elif tag in ("td", "th") and stack:
            blk = stack[-1]
            # row-wise cell joining: a new cell inside a <tr> block that
            # already holds text gets a visible separator, so the row
            # serializes as one "a | b | c" line
            if blk.tag == "tr" and blk.parts:
                blk.parts.append(CELL_SEPARATOR)

    def _endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
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
        if tag in BLOCK_TAGS:
            # pop the innermost matching block (tolerate unbalanced HTML)
            stack = self._block_stack
            if stack and stack[-1].tag == tag:
                self._done.append(stack.pop())
                return
            for i in range(len(stack) - 2, -1, -1):
                if stack[i].tag == tag:
                    self._done.extend(stack[i:])
                    del stack[i:]
                    break
        elif tag == "a" and self._link_depth:
            self._link_depth -= 1

    def _data(self, data: str) -> None:
        if data.isspace():
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
        out.sort(key=_ORDER)
        return out


def html_extract(raw: bytes) -> tuple[str, list[dict]]:
    """Strip boilerplate; return ``(text, char_spans)``.

    A block survives when its text is >= MIN_BLOCK_CHARS after collapse
    and its link density (linked chars / total chars) <= MAX_LINK_DENSITY
    — adjusted by id/class content hints:

    - demoted blocks (inside ``class~sidebar|comment|footer|…``) are
      dropped outright, however text-dense: a text-heavy promo box is
      the boilerplate that link density alone cannot catch;
    - boosted blocks (inside ``id~content|main|…`` or ``<article>`` /
      ``<main>``) survive down to 1 char and up to POS_MAX_LINK_DENSITY
      linked text: short headings and link-quoting paragraphs inside
      the marked main content are content;
    - table ROWS (``<tr>`` blocks, cells joined with " | ") survive
      down to 1 char — numeric data cells are content — but keep the
      normal link-density cut so layout/nav tables still die.

    Surviving blocks are joined with ``\\n`` in document order.
    """
    html = _decode_page(raw)
    parser = _Extractor()
    try:
        parser.feed(html)
    except Exception:
        # tolerate pathological markup: best effort with what was
        # parsed so far (callers decide quarantine by empty output).
        pass

    pieces: list[str] = []
    spans: list[dict] = []
    offset = 0
    block_ordinal = 0
    for blk in parser.blocks():
        if blk.total_chars == 0 or blk.hint < 0:
            continue
        density = blk.link_chars / blk.total_chars
        if blk.tag == "tr":
            min_chars, max_density = 1, MAX_LINK_DENSITY
        elif blk.hint > 0:
            min_chars, max_density = 1, POS_MAX_LINK_DENSITY
        else:
            min_chars, max_density = MIN_BLOCK_CHARS, MAX_LINK_DENSITY
        if density > max_density:
            continue
        text = collapse_ws(normalize_ligatures("".join(blk.parts)))
        if len(text) < min_chars:
            continue
        if pieces:
            offset += 1  # the "\n" joiner
        start = offset
        offset += len(text)
        pieces.append(text)
        spans.append(
            {
                "start": start,
                "end": offset,
                "page": block_ordinal,
                "bbox": None,
            }
        )
        block_ordinal += 1
    return "\n".join(pieces), spans


_HEADING_TAGS = {"h1": 1, "h2": 2, "h3": 3, "h4": 4, "h5": 5, "h6": 6}


def html_extract_headings(raw: bytes) -> list[tuple[int, str]]:
    """Extract heading outline from HTML: ``[(level, text), ...]`` in
    document order — the title/section capture every main-content
    extractor ships alongside body text (headings seed titles,
    anchors, and section-aware chunking). Same parse and the same
    id/class hint model as :func:`html_extract`: a heading inside a
    demoted container (``class~sidebar|promo|footer|…``) is boilerplate
    chrome and is dropped; whitespace-collapsed, ligature-normalized,
    empty headings dropped."""
    html = _decode_page(raw)
    parser = _Extractor()
    try:
        parser.feed(html)
    except Exception:
        pass  # best effort, same contract as html_extract
    out: list[tuple[int, str]] = []
    for blk in parser.blocks():
        level = _HEADING_TAGS.get(blk.tag)
        if level is None or blk.hint < 0:
            continue
        text = collapse_ws(normalize_ligatures("".join(blk.parts)))
        if text:
            out.append((level, text))
    return out


_HREF_RE = re.compile(r"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.I)


def html_extract_links(raw: bytes) -> list[tuple[str, str]]:
    """Extract MAIN-CONTENT outlinks: ``[(href, anchor_text), ...]`` in
    document order, dropping links inside demoted containers
    (``class~sidebar|promo|footer|…``) — the crawl-frontier harvest
    step (nav/related/footer links are crawler chaff; content links
    are the discovery signal). Anchor text is whitespace-collapsed;
    links with an empty href are dropped; a nested ``<a>`` implicitly
    closes the previous one (the HTML5 rule). Standalone single pass
    over the same token stream as :func:`html_extract` — it shares the
    hint model but not the block machinery, so the body-text golden
    path is untouched."""
    html = _decode_page(raw)
    links: list[tuple[str, str]] = []
    open_hints: list[tuple[str, int]] = []  # (tag, hint) for hinted containers
    neg_depth = 0
    href: str | None = None
    anchor_parts: list[str] = []

    def close_link() -> None:
        nonlocal href
        if href is not None and href != "":
            text = collapse_ws(unescape("".join(anchor_parts)))
            links.append((href, text))
        href = None
        anchor_parts.clear()

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            if href is not None:
                anchor_parts.append(html[pos:])
            break
        if m.start() > pos and href is not None:
            anchor_parts.append(html[pos : m.start()])
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if tag == "a":
                close_link()
            elif tag in HINTABLE_TAGS:
                for i in range(len(open_hints) - 1, -1, -1):
                    if open_hints[i][0] == tag:
                        if open_hints[i][1] < 0:
                            neg_depth -= 1
                        del open_hints[i]
                        break
            continue
        if tag in _RAWTEXT_CLOSE:  # skip script/style payloads
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag == "a":
            if href is not None:
                close_link()
            if neg_depth == 0:
                hm = _HREF_RE.search(m.group(2) or "")
                href = (hm.group(1) or hm.group(2) or hm.group(3) or "") if hm else ""
            continue
        if tag in HINTABLE_TAGS:
            hint = 0
            a2, b2 = m.span(2)
            if b2 > a2:
                blob = html[a2:b2]
                low = blob if blob.islower() else blob.lower()
                if "id" in low or "class" in low:
                    hint = _sniff_hint(blob)
            open_hints.append((tag, hint))
            if hint < 0:
                neg_depth += 1
    close_link()  # flush an unclosed trailing link
    return links


def html_extract_images(raw: bytes) -> list[tuple[str, str]]:
    """Extract MAIN-CONTENT image/caption pairs: ``[(src, alt), ...]``
    in document order — the image-caption mining step of a multimodal
    training-data pipeline (alt text inside the content region is the
    cheap, human-written caption signal; chrome images in nav/sidebar/
    footer are logos and spacers). Shares the id/class hint model with
    :func:`html_extract_links`: images inside demoted containers are
    dropped, as are images with a missing/empty ``src`` or a
    missing/empty ``alt`` (a caption-less image is useless as a pair).
    Alt text is entity-unescaped and whitespace-collapsed. Standalone
    pass over the shared token stream; never touches the body-text
    golden path."""
    html = _decode_page(raw)
    pairs: list[tuple[str, str]] = []
    open_hints: list[tuple[str, int]] = []
    neg_depth = 0

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if tag in HINTABLE_TAGS:
                for i in range(len(open_hints) - 1, -1, -1):
                    if open_hints[i][0] == tag:
                        if open_hints[i][1] < 0:
                            neg_depth -= 1
                        del open_hints[i]
                        break
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag == "img":
            if neg_depth == 0:
                blob = html[m.start(2) : m.end(2)]
                src = _attr_val(blob, "src")
                alt = _attr_val(blob, "alt")
                if src and alt is not None:
                    alt_text = collapse_ws(unescape(alt))
                    if alt_text:
                        pairs.append((src, alt_text))
            continue
        if tag in HINTABLE_TAGS:
            hint = 0
            a2, b2 = m.span(2)
            if b2 > a2:
                blob = html[a2:b2]
                low = blob if blob.islower() else blob.lower()
                if "id" in low or "class" in low:
                    hint = _sniff_hint(blob)
            open_hints.append((tag, hint))
            if hint < 0:
                neg_depth += 1
    return pairs


def _attr_val(blob: str, name: str) -> str | None:
    m = re.search(
        rf"""{name}\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", blob, re.I
    )
    if not m:
        return None
    return m.group(1) or m.group(2) or m.group(3) or ""


def html_extract_meta(raw: bytes) -> dict:
    """Extract page metadata: ``{"title", "description", "canonical",
    "lang"}`` (each ``str | None``) — the head fields a crawl pipeline
    keys on before body extraction (canonical feeds URL dedup, lang
    feeds routing priors, title/description feed snippets and quality
    probes). First occurrence wins, matching browser behavior; title
    and description are entity-unescaped and whitespace-collapsed.
    Standalone pass over the shared token stream; never touches the
    body-text golden path."""
    html = _decode_page(raw)
    title: str | None = None
    description: str | None = None
    canonical: str | None = None
    lang: str | None = None
    in_title = False
    title_parts: list[str] = []

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            if in_title:
                title_parts.append(html[pos:])
            break
        if m.start() > pos and in_title:
            title_parts.append(html[pos : m.start()])
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if tag == "title" and in_title:
                in_title = False
                if title is None:
                    t = collapse_ws(unescape("".join(title_parts)))
                    title = t if t else None
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        blob = html[m.start(2) : m.end(2)]
        if tag == "title":
            in_title = title is None  # first <title> wins
            title_parts = []
        elif tag == "meta" and description is None:
            nm = _attr_val(blob, "name")
            if nm is not None and nm.lower() == "description":
                content = _attr_val(blob, "content")
                if content is not None:
                    d = collapse_ws(unescape(content))
                    description = d if d else None
        elif tag == "link" and canonical is None:
            rel = _attr_val(blob, "rel")
            if rel is not None and rel.lower() == "canonical":
                href = _attr_val(blob, "href")
                canonical = href if href else None
        elif tag == "html" and lang is None:
            lv = _attr_val(blob, "lang")
            lang = lv if lv else None
    if in_title and title is None:
        t = collapse_ws(unescape("".join(title_parts)))
        title = t if t else None
    return {"title": title, "description": description, "canonical": canonical, "lang": lang}


# Open Graph keys harvested by html_extract_opengraph. OG is RDFa: the
# key lives in the ``property`` attribute (a ``name="og:title"`` meta is
# NOT Open Graph and must be ignored — real pages contain exactly this
# confusion), and the protocol's own examples use first-occurrence-wins
# for singular properties.
_OG_KEYS = frozenset({"og:title", "og:description", "og:image", "og:type", "og:url"})


def html_extract_opengraph(raw: bytes) -> dict:
    """Harvest Open Graph social-card metadata: ``{"og_title",
    "og_description", "og_image", "og_type", "og_url"}`` (each
    ``str | None``) from ``<meta property="og:*" content=…>`` tags —
    the share-card channel (distinct from the ``name=``-keyed metas of
    :func:`html_extract_meta`) that crawl pipelines mine for curated
    titles/hero images and that snippet/quality probes prefer over the
    ``<title>`` tag when present. First occurrence wins per key; title
    and description are entity-unescaped and whitespace-collapsed;
    image/url/type values are kept verbatim (they are URLs/enums, not
    prose). Standalone pass over the shared token stream — never
    touches the body-text golden path. Reference analog: the head-
    metadata harvest pdf-extractor performs per document before field
    extraction (services/pdf_service.py:16 opens metadata first)."""
    html = _decode_page(raw)
    vals: dict[str, str] = {}

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag != "meta":
            continue
        blob = html[m.start(2) : m.end(2)]
        prop = _attr_val(blob, "property")
        if prop is None:
            continue
        key = prop.lower()
        if key not in _OG_KEYS or key in vals:
            continue
        content = _attr_val(blob, "content")
        if content is None:
            continue
        if key in ("og:title", "og:description"):
            content = collapse_ws(unescape(content))
        if content:
            vals[key] = content
    return {
        "og_title": vals.get("og:title"),
        "og_description": vals.get("og:description"),
        "og_image": vals.get("og:image"),
        "og_type": vals.get("og:type"),
        "og_url": vals.get("og:url"),
    }


_LDJSON_TYPE_RE = re.compile(r"""type\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.I)


def html_extract_ldjson(raw: bytes) -> list[dict]:
    """Extract JSON-LD structured-data blocks (``<script
    type="application/ld+json">``): a list of parsed dicts in document
    order — the schema.org channel modern pipelines read for article
    type/headline/date before falling back to DOM heuristics. Payloads
    parse through :func:`functions.jsonparse.parse_robust_json` (same
    tolerance as the scorer path: trailing junk, fenced blobs);
    unparseable blocks are skipped, non-ld script payloads are never
    touched. Standalone pass; body-text golden path untouched."""
    from pdf_extractor_ray.functions.jsonparse import parse_robust_json

    html = _decode_page(raw)
    out: list[dict] = []
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    close = _RAWTEXT_CLOSE["script"]
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None or html[m.start() + 1] == "/":
            continue
        tag = name.lower()
        if tag not in _RAWTEXT_CLOSE:
            continue
        mm = close.search(html, pos) if tag == "script" else _RAWTEXT_CLOSE["style"].search(html, pos)
        payload_end = mm.start() if mm else n
        if tag == "script":
            tm = _LDJSON_TYPE_RE.search(html[m.start(2) : m.end(2)])
            stype = (tm.group(1) or tm.group(2) or tm.group(3) or "") if tm else ""
            if stype.strip().lower() == "application/ld+json":
                obj, _err = parse_robust_json(html[pos:payload_end])
                if obj is not None:
                    out.append(obj)
        pos = payload_end
    return out


_SITEMAP_FIELDS = frozenset({"loc", "lastmod", "changefreq", "priority"})


def parse_sitemap(raw: bytes) -> list[dict]:
    """Parse a sitemap.xml body: one dict per ``<url>`` entry with the
    standard fields (``loc``, ``lastmod``, ``changefreq``,
    ``priority``; missing → absent) — the crawl-discovery companion to
    robots.txt (sitemaps.org protocol). Entries without a ``loc`` are
    dropped (the protocol requires it); field text is
    whitespace-trimmed and entity-unescaped; unknown tags are ignored,
    so index files and extension namespaces pass through harmlessly.
    Reuses the shared tag tokenizer — XML is a subset of what it
    already lexes."""
    xml = raw.decode("utf-8", errors="replace")
    out: list[dict] = []
    cur: dict | None = None
    field: str | None = None
    parts: list[str] = []
    pos = 0
    n = len(xml)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(xml, pos)
        if m is None:
            if field is not None:
                parts.append(xml[pos:])
            break
        if m.start() > pos and field is not None:
            parts.append(xml[pos : m.start()])
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        closing = xml[m.start() + 1] == "/"
        if tag == "url":
            if closing:
                if cur is not None and "loc" in cur:
                    out.append(cur)
                cur = None
            else:
                cur = {}
            field = None
        elif tag in _SITEMAP_FIELDS and cur is not None:
            if closing:
                if field == tag:
                    text = unescape("".join(parts)).strip()
                    if text:
                        cur[tag] = text
                field = None
            else:
                field = tag
                parts = []
    return out


_FEED_TEXT_FIELDS = frozenset({"title", "link", "pubdate", "updated", "guid", "id"})


def parse_feed(raw: bytes) -> list[dict]:
    """Parse an RSS 2.0 or Atom feed into per-entry dicts with
    normalized keys ``title`` / ``link`` / ``ts`` / ``id`` (missing →
    absent) — the third crawl-discovery channel next to robots and
    sitemaps (feeds surface NEW urls faster than sitemaps). Entries
    are RSS ``<item>`` or Atom ``<entry>``; the Atom ``<link href=…>``
    attribute form and the RSS text form both map to ``link``;
    ``pubDate``/``updated`` map to ``ts``; ``guid``/``id`` map to
    ``id``. Entries without a link are dropped. Channel-level fields
    (the feed's own title/link) are ignored — only entry scope
    counts."""
    xml = raw.decode("utf-8", errors="replace")
    out: list[dict] = []
    cur: dict | None = None
    field: str | None = None
    parts: list[str] = []
    pos = 0
    n = len(xml)
    search = _TOKEN_RE.search
    _KEY = {"pubdate": "ts", "updated": "ts", "guid": "id", "id": "id",
            "title": "title", "link": "link"}
    while pos < n:
        m = search(xml, pos)
        if m is None:
            if field is not None:
                parts.append(xml[pos:])
            break
        if m.start() > pos and field is not None:
            parts.append(xml[pos : m.start()])
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        closing = xml[m.start() + 1] == "/"
        if tag in ("item", "entry"):
            if closing:
                if cur is not None and cur.get("link"):
                    out.append(cur)
                cur = None
            else:
                cur = {}
            field = None
        elif tag in _FEED_TEXT_FIELDS and cur is not None:
            key = _KEY[tag]
            if closing:
                if field == tag:
                    text = unescape("".join(parts)).strip()
                    if text and key not in cur:  # first occurrence wins
                        cur[key] = text
                field = None
            elif tag == "link":
                href = _attr_val(xml[m.start(2) : m.end(2)], "href")
                if href:  # Atom attribute form (self-closing)
                    if "link" not in cur:
                        cur["link"] = href
                    field = None
                else:  # RSS text form
                    field = tag
                    parts = []
            else:
                field = tag
                parts = []
    return out


# ---------------------------------------------------------------------------
# Table-structure extraction (WebTables-style harvest)
# ---------------------------------------------------------------------------

_SPAN_ATTR_RE = {
    "colspan": re.compile(r"""colspan\s*=\s*(?:"(\d+)"|'(\d+)'|(\d+))""", re.I),
    "rowspan": re.compile(r"""rowspan\s*=\s*(?:"(\d+)"|'(\d+)'|(\d+))""", re.I),
}


def _span_of(blob: str, name: str) -> int:
    m = _SPAN_ATTR_RE[name].search(blob)
    if not m:
        return 1
    return max(1, int(m.group(1) or m.group(2) or m.group(3)))


class _TableCtx:
    __slots__ = ("emit", "idx", "row", "col", "row_open", "cell", "parts", "spans")

    def __init__(self, emit: bool, idx: int) -> None:
        self.emit = emit
        self.idx = idx
        self.row = -1  # current row index; -1 = before first <tr>
        self.col = 0  # next free grid column in the current row
        self.row_open = False
        self.cell: tuple[int, int, int, int] | None = None  # (row, col, is_header, colspan)
        self.parts: list[str] = []
        # rowspan carryover: grid col -> rows it stays occupied BELOW
        # the anchor row (decremented at each new <tr>)
        self.spans: dict[int, int] = {}


def html_extract_tables(raw: bytes) -> list[tuple[int, int, int, int, str]]:
    """Extract DATA-TABLE structure from HTML: ``[(table_idx, row_idx,
    col_idx, is_header, cell_text), ...]`` in document order — the
    relational-web harvest (WebTables / WDC-style) that turns embedded
    ``<table>`` markup into queryable rows, the table analog of the
    body-text flagship (reference capability: structured field capture,
    ``/root/reference/pdf_extractor/extraction.py`` — here re-expressed
    for web tables).

    Grid semantics: ``col_idx`` is the CSS table-layout grid column —
    ``colspan`` advances the cursor by its span, ``rowspan`` keeps its
    columns occupied in subsequent rows (the anchor cell is emitted
    once at its anchor position; covered positions are skipped, not
    duplicated). ``is_header`` is 1 for ``<th>`` cells. Implicit
    closes follow HTML5 optional-end-tag rules: a new ``<td>/<th>``
    closes the open cell, a new ``<tr>`` closes the open row.

    Chrome tables — any ``<table>`` inside a demoted container
    (``class~sidebar|promo|footer|…``, the same id/class hint model as
    :func:`html_extract`) or itself carrying a demoting id/class — are
    layout/navigation furniture and are dropped entirely; they do not
    consume a ``table_idx``. A nested ``<table>`` inside a cell gets
    its own ``table_idx`` (document order) and its text does NOT leak
    into the outer cell. Cell text is unescaped, ligature-normalized
    and whitespace-collapsed; empty cells are emitted (grid positions
    matter), rows with no cells are not."""
    html = _decode_page(raw)
    out: list[tuple[int, int, int, int, str]] = []
    stack: list[_TableCtx] = []
    open_hints: list[tuple[str, int]] = []  # (tag, hint) for hinted containers
    neg_depth = 0
    next_idx = 0

    def flush_cell(ctx: _TableCtx) -> None:
        if ctx.cell is None:
            return
        row, col, is_header, cspan = ctx.cell
        if ctx.emit:
            text = collapse_ws(normalize_ligatures(unescape("".join(ctx.parts))))
            out.append((ctx.idx, row, col, is_header, text))
        ctx.cell = None
        ctx.parts = []
        ctx.col = col + cspan

    def open_row(ctx: _TableCtx) -> None:
        flush_cell(ctx)
        ctx.row += 1
        ctx.row_open = True
        ctx.col = 0
        # age rowspan carryover: each new row consumes one covered row
        ctx.spans = {c: r - 1 for c, r in ctx.spans.items() if r > 1}

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            if stack and stack[-1].cell is not None:
                stack[-1].parts.append(html[pos:])
            break
        if m.start() > pos and stack and stack[-1].cell is not None:
            stack[-1].parts.append(html[pos : m.start()])
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if tag == "table":
                if stack:
                    ctx = stack.pop()
                    flush_cell(ctx)
            elif tag in ("td", "th") and stack:
                flush_cell(stack[-1])
            elif tag == "tr" and stack:
                flush_cell(stack[-1])
                stack[-1].row_open = False
            elif tag in HINTABLE_TAGS:
                for i in range(len(open_hints) - 1, -1, -1):
                    if open_hints[i][0] == tag:
                        if open_hints[i][1] < 0:
                            neg_depth -= 1
                        del open_hints[i]
                        break
            continue
        if tag in _RAWTEXT_CLOSE:  # skip script/style payloads
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag == "table":
            blob = html[m.start(2) : m.end(2)]
            own_hint = _sniff_hint(blob) if ("id" in blob.lower() or "class" in blob.lower()) else 0
            emit = neg_depth == 0 and own_hint >= 0
            ctx = _TableCtx(emit, next_idx if emit else -1)
            if emit:
                next_idx += 1
            stack.append(ctx)
            continue
        if not stack:
            if tag in HINTABLE_TAGS:
                hint = 0
                a2, b2 = m.span(2)
                if b2 > a2:
                    blob = html[a2:b2]
                    low = blob if blob.islower() else blob.lower()
                    if "id" in low or "class" in low:
                        hint = _sniff_hint(blob)
                open_hints.append((tag, hint))
                if hint < 0:
                    neg_depth += 1
            continue
        ctx = stack[-1]
        if tag == "tr":
            open_row(ctx)
        elif tag in ("td", "th"):
            if not ctx.row_open:  # tolerate a cell before any <tr>
                open_row(ctx)
            else:
                flush_cell(ctx)
            # skip grid columns still covered by rowspans from above
            col = ctx.col
            while ctx.spans.get(col, 0) > 0:
                col += 1
            blob = html[m.start(2) : m.end(2)]
            cspan = _span_of(blob, "colspan") if "colspan" in blob.lower() else 1
            rspan = _span_of(blob, "rowspan") if "rowspan" in blob.lower() else 1
            if rspan > 1:
                for c in range(col, col + cspan):
                    ctx.spans[c] = rspan
            ctx.cell = (ctx.row, col, 1 if tag == "th" else 0, cspan)
            ctx.parts = []
    while stack:  # tolerate unclosed tables at EOF
        flush_cell(stack.pop())
    return out


# ---------------------------------------------------------------------------
# Publication-date extraction (htmldate/trafilatura-style channel priority)
# ---------------------------------------------------------------------------

_ISO_DATE_RE = re.compile(r"\s*((?:19|20)\d{2})-(\d{2})-(\d{2})")
_URL_DATE_RE = re.compile(r"/((?:19|20)\d{2})/(\d{2})/(\d{2})(?:/|$)")


def _parse_iso_date(value: str) -> str | None:
    """Leading ``YYYY-MM-DD`` prefix of an ISO-8601-ish value (datetime
    suffixes tolerated), calendar-validated: returns the normalized
    date string or None. Pure; no locale, no two-digit years."""
    import datetime as _dt

    m = _ISO_DATE_RE.match(value)
    if not m:
        return None
    y, mo, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
    try:
        _dt.date(y, mo, d)
    except ValueError:
        return None
    return f"{y:04d}-{mo:02d}-{d:02d}"


def html_extract_date(raw: bytes, url: str | None = None) -> tuple[str | None, str | None]:
    """Publication-date harvest: ``(date 'YYYY-MM-DD' | None, source |
    None)`` with source ∈ {'meta', 'time', 'jsonld', 'url'} — the
    channel-priority rule the htmldate/trafilatura family popularized
    (reference analog: none — its PDFs carry /Info dates; web pages
    need this sniff). Priority is trust-ordered, not document-ordered:
    a ``<meta property|name="article:published_time">`` beats the
    first ``<time datetime>``, which beats a JSON-LD ``datePublished``,
    which beats a ``/YYYY/MM/DD/`` url path segment. Within a channel
    the FIRST well-formed, calendar-valid occurrence wins; malformed
    values fall through to the next channel rather than erroring.
    Single pass over the shared token stream (comments/CDATA skipped by
    the tokenizer); script bodies are only JSON-parsed when typed
    ``application/ld+json``. Deterministic pure function."""
    from pdf_extractor_ray.functions.jsonparse import parse_robust_json

    html = _decode_page(raw)
    meta_date: str | None = None
    time_date: str | None = None
    ld_date: str | None = None

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n and meta_date is None:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None or html[m.start() + 1] == "/":
            continue
        tag = name.lower()
        blob = html[m.start(2) : m.end(2)]
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            payload_end = mm.start() if mm else n
            if tag == "script" and ld_date is None:
                tm = _LDJSON_TYPE_RE.search(blob)
                stype = (tm.group(1) or tm.group(2) or tm.group(3) or "") if tm else ""
                if stype.strip().lower() == "application/ld+json":
                    obj, _err = parse_robust_json(html[pos:payload_end])
                    if isinstance(obj, dict):
                        v = obj.get("datePublished")
                        if isinstance(v, str):
                            ld_date = _parse_iso_date(v)
            pos = payload_end
            continue
        if tag == "meta":
            key = _attr_val(blob, "property") or _attr_val(blob, "name")
            if key is not None and key.lower() == "article:published_time":
                content = _attr_val(blob, "content")
                if content is not None:
                    meta_date = _parse_iso_date(content)
        elif tag == "time" and time_date is None:
            dt = _attr_val(blob, "datetime")
            if dt is not None:
                time_date = _parse_iso_date(dt)
    if meta_date is not None:
        return meta_date, "meta"
    if time_date is not None:
        return time_date, "time"
    if ld_date is not None:
        return ld_date, "jsonld"
    if url:
        um = _URL_DATE_RE.search(url)
        if um:
            d = _parse_iso_date("-".join(um.groups()))
            if d is not None:
                return d, "url"
    return None, None


# ---------------------------------------------------------------------------
# HTML → Markdown serialization (markdownify-style, full-fidelity walk)
# ---------------------------------------------------------------------------

_MD_HEADING = {"h1": 1, "h2": 2, "h3": 3, "h4": 4, "h5": 5, "h6": 6}
_MD_BLOCK_BREAK = frozenset({"p", "div", "section", "article", "table", "tr"})
_MD_SKIP = frozenset({"script", "style"})


def html_to_markdown(raw: bytes) -> str:
    """Serialize a page to Markdown — the render step training-data
    pipelines use when downstream consumers want STRUCTURE kept (docs,
    code posts, reference manuals) rather than the flat main-content
    text the flagship extractor emits. Covers the portable core:
    ATX headings (h1-h6), paragraphs, nested ul/ol with 2-space
    indents and live ol counters, inline links ``[anchor](href)``,
    ``**strong**``/``*emphasis*``, inline ``code`` and fenced ``pre``
    blocks; script/style bodies and comments/CDATA are dropped.
    Blocks join with one blank line; inline whitespace collapses.
    Single pass over the shared token stream; unclosed tags tolerated
    (EOF flushes). Deterministic pure function — the markdown analog
    of ``html_extract``, NOT a replacement: it keeps boilerplate by
    design (converters are lossless; filters come later in the
    pipeline)."""
    html = _decode_page(raw)
    blocks: list[str] = []
    cur: list[str] = []
    heading = 0
    list_stack: list[list] = []  # [marker, counter]
    in_pre = False
    pre_parts: list[str] = []
    li_open = False

    def flush(prefix: str = "") -> None:
        nonlocal cur
        text = collapse_ws(unescape("".join(cur)))
        cur = []
        if text or prefix.strip():
            blocks.append(prefix + text if prefix else text)

    def flush_li() -> None:
        nonlocal li_open
        if not li_open:
            return
        indent = "  " * (len(list_stack) - 1) if list_stack else ""
        marker = "-"
        if list_stack:
            if list_stack[-1][0] == "ol":
                list_stack[-1][1] += 1
                marker = f"{list_stack[-1][1]}."
            else:
                marker = "-"
        flush(f"{indent}{marker} ")
        li_open = False

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            if in_pre:
                pre_parts.append(html[pos:])
            else:
                cur.append(html[pos:])
            break
        if m.start() > pos:
            if in_pre:
                pre_parts.append(html[pos : m.start()])
            else:
                cur.append(html[pos : m.start()])
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        closing = html[m.start() + 1] == "/"
        if tag in _MD_SKIP and not closing:
            # stop at the close tag's '<' — the tokenizer consumes it
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag == "title":
            if not closing:  # head metadata: not document content
                mm = re.search(r"</title", html[pos:], re.I)
                pos = pos + mm.start() if mm else n
            continue
        if tag == "pre":
            if not closing:
                flush()
                in_pre = True
                pre_parts = []
            elif in_pre:
                in_pre = False
                body = unescape("".join(pre_parts)).strip("\n")
                blocks.append(f"```\n{body}\n```")
            continue
        if in_pre:
            if tag == "code":  # <pre><code> wrapper: transparent
                continue
            pre_parts.append(html[m.start() : m.end()])
            continue
        if tag in _MD_HEADING:
            if not closing:
                flush()
                heading = _MD_HEADING[tag]
            else:
                flush("#" * heading + " " if heading else "")
                heading = 0
        elif tag in ("ul", "ol"):
            if not closing:
                flush_li() if li_open else flush()
                list_stack.append([tag, 0])
            else:
                flush_li()
                if list_stack:
                    list_stack.pop()
        elif tag == "li":
            if not closing:
                flush_li() if li_open else flush()
                li_open = True
            else:
                flush_li()
        elif tag == "a":
            if not closing:
                href = _attr_val(html[m.start(2) : m.end(2)], "href") or ""
                cur.append("\x00[")  # sentinel guards the literal bracket
                cur.append("\x01" + href + "\x01")
            else:
                cur.append("\x00]")
        elif tag in ("strong", "b"):
            cur.append("**")
        elif tag in ("em", "i"):
            cur.append("*")
        elif tag == "code":
            cur.append("`")
        elif tag == "br":
            cur.append(" ")
        elif tag in _MD_BLOCK_BREAK:
            if li_open and closing:
                pass  # block close inside li: the li flush owns it
            else:
                flush_li() if li_open and not closing else flush()
    flush_li()
    flush()
    out = "\n\n".join(blocks)
    # resolve link sentinels: \x00[ text... \x00] with \x01href\x01 →
    # [text](href); done post-hoc so nested inline markup composes
    link_re = re.compile("\x00\\[\x01([^\x01]*)\x01\\s*(.*?)\\s*\x00\\]", re.S)
    prev = None
    while prev != out:
        prev = out
        out = link_re.sub(lambda mm: f"[{mm.group(2)}]({mm.group(1)})", out)
    return out.replace("\x00", "").replace("\x01", "")


# ---------------------------------------------------------------------------
# hreflang alternate harvest (multilingual page-variant linking)
# ---------------------------------------------------------------------------


def html_extract_alternates(raw: bytes) -> list[tuple[str, str]]:
    """Extract ``<link rel="alternate" hreflang="X" href="Y">`` pairs
    in document order: ``[(hreflang, href), ...]`` — the channel
    multilingual corpus builders use to group a page with its
    translations before per-language routing (each variant lists the
    full cluster, so grouping is a plain key join, no graph pass).
    rel matching is token-based (``rel="alternate amphtml"`` counts),
    case-insensitive; entries missing hreflang or href are skipped
    (x-default is kept — the caller decides). Standalone pass over the
    shared token stream; body golden path untouched."""
    html = _decode_page(raw)
    out: list[tuple[str, str]] = []
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None or html[m.start() + 1] == "/":
            continue
        tag = name.lower()
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag != "link":
            continue
        blob = html[m.start(2) : m.end(2)]
        rel = _attr_val(blob, "rel")
        if rel is None or "alternate" not in rel.lower().split():
            continue
        hreflang = _attr_val(blob, "hreflang")
        href = _attr_val(blob, "href")
        if hreflang and href:
            out.append((hreflang, href))
    return out


def html_extract_relnav(raw: bytes) -> dict:
    """Harvest pagination hints: ``{"next", "prev"}`` hrefs (each
    ``str | None``) from head ``<link rel=…>`` elements — the channel
    Google/crawlers used for multi-page-article reassembly, and what a
    series-reconstruction pass keys on before joining paginated pages
    back into one logical document. HTML ``rel`` is a space-separated
    TOKEN LIST (``rel="prev nofollow"`` still counts), matched
    case-insensitively; first occurrence wins per direction; anchor
    (``<a rel=…>``) and any non-``link`` tags are ignored — body
    anchors say "a page like this exists", head links declare THIS
    page's place in the series. Standalone pass over the shared token
    stream; never touches the body-text golden path. Reference analog:
    none (single-document scope)."""
    html = _decode_page(raw)
    nxt: str | None = None
    prev: str | None = None

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag != "link":
            continue
        blob = html[m.start(2) : m.end(2)]
        rel = _attr_val(blob, "rel")
        if rel is None:
            continue
        tokens = set(rel.lower().split())
        href = _attr_val(blob, "href")
        if not href:
            continue
        if "next" in tokens and nxt is None:
            nxt = href
        if "prev" in tokens and prev is None:
            prev = href
        if nxt is not None and prev is not None:
            break
    return {"next": nxt, "prev": prev}


def html_extract_robots_meta(raw: bytes) -> dict:
    """Harvest indexing directives: ``{"noindex", "nofollow"}`` (bools)
    from ``<meta name="robots" content=…>`` — the per-page opt-out
    every polite index/crawl pipeline must honor before a page enters
    the corpus (REP meta tag, documented by Google/Bing; ``none`` is
    the spec'd shorthand for ``noindex, nofollow``). Name match is
    case-insensitive; the content value is a comma-separated token
    list, tokens trimmed and lowercased; FIRST robots meta wins
    (matching the first-wins convention of the other head harvests);
    unknown tokens (``all``, ``noarchive``…) are ignored rather than
    failed. Reference analog: none."""
    html = _decode_page(raw)

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag != "meta":
            continue
        blob = html[m.start(2) : m.end(2)]
        nm = _attr_val(blob, "name")
        if nm is None or nm.lower() != "robots":
            continue
        content = _attr_val(blob, "content")
        tokens = {t.strip().lower() for t in (content or "").split(",")}
        noindex = "noindex" in tokens or "none" in tokens
        nofollow = "nofollow" in tokens or "none" in tokens
        return {"noindex": noindex, "nofollow": nofollow}
    return {"noindex": False, "nofollow": False}


_REFRESH_CONTENT_RE = re.compile(
    r"""^\s*(\d+)\s*(?:;\s*url\s*=\s*(?:'([^']*)'|"([^"]*)"|(\S+))\s*)?$""", re.I
)


def html_extract_meta_refresh(raw: bytes) -> tuple[int | None, str | None]:
    """Harvest the meta-refresh redirect channel: ``(secs, url)`` from
    ``<meta http-equiv="refresh" content="N; url=…">`` — the OTHER
    redirect mechanism (besides HTTP 3xx) a crawler must follow, and a
    classic cloaking/doorway-page signal when ``secs == 0`` on a page
    with content. ``http-equiv`` match is case-insensitive; the url
    clause is optional (a bare ``content="30"`` is a self-reload:
    ``(30, None)``), its value may be quoted either way, and ``URL=``
    is case-insensitive per the WHATWG parsing rules. First refresh
    meta wins; a malformed content value yields ``(None, None)`` (the
    page has no usable refresh). Reference analog: none."""
    html = _decode_page(raw)

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag != "meta":
            continue
        blob = html[m.start(2) : m.end(2)]
        he = _attr_val(blob, "http-equiv")
        if he is None or he.strip().lower() != "refresh":
            continue
        content = _attr_val(blob, "content")
        cm = _REFRESH_CONTENT_RE.match(content or "")
        if cm is None:
            return (None, None)
        url = cm.group(2) or cm.group(3) or cm.group(4)
        return (int(cm.group(1)), url if url else None)
    return (None, None)


def html_dom_stats(raw: bytes) -> dict:
    """Structural DOM statistics via the shared tokenizer —
    ``{"n_nodes", "max_depth", "n_p", "n_a"}``:

    - ``n_nodes``: every element start tag (void and self-closed
      included);
    - ``max_depth``: maximum height of the open-element stack (void
      and self-closed elements never push — they cannot contain
      children);
    - ``n_p`` / ``n_a``: paragraph / anchor element counts;
    - ``<script>``/``<style>`` raw content is skipped exactly like the
      extractor's walker — markup-looking text inside never counts;
    - stray close tags pop to the nearest matching open (or are
      ignored when nothing matches) — the tolerant recovery a crawl
      parser needs.

    Depth is the "deeply nested DOM" skew signal the north-star calls
    out: pathological pages (deep div pyramids, runaway template
    nesting) are routed to size buckets / quarantine by this number
    before they stall a worker."""
    html = _decode_page(raw)
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    stack: list[str] = []
    n_nodes = 0
    max_depth = 0
    n_p = 0
    n_a = 0
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue  # comment / doctype / PI / cdata
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if tag in stack:
                while stack and stack.pop() != tag:
                    pass
            continue
        n_nodes += 1
        if tag == "p":
            n_p += 1
        elif tag == "a":
            n_a += 1
        if tag in VOID_TAGS or html[pos - 2 : pos] == "/>":
            continue
        stack.append(tag)
        if len(stack) > max_depth:
            max_depth = len(stack)
        if tag in _RAWTEXT_CLOSE:
            cm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = cm.start() if cm else n
    return {"n_nodes": n_nodes, "max_depth": max_depth, "n_p": n_p, "n_a": n_a}


def html_tag_paths(raw: bytes) -> list[str]:
    """Root-to-element TAG PATHS (one per element open, ``a>b>c``
    form, non-void elements only — voids cannot contain content) via
    the shared tokenizer with the same rawtext/stray-close recovery as
    :func:`html_dom_stats`. The DOM-path frequency table over a host
    is the classic template-mining signal (paths on every page =
    boilerplate skeleton; page-unique paths = content structure) —
    the structural complement of the text-side boilerplate-prefix
    mining."""
    html = _decode_page(raw)
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    stack: list[str] = []
    out: list[str] = []
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if tag in stack:
                while stack and stack.pop() != tag:
                    pass
            continue
        if tag in VOID_TAGS or html[pos - 2 : pos] == "/>":
            continue
        stack.append(tag)
        out.append(">".join(stack))
        if tag in _RAWTEXT_CLOSE:
            cm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = cm.start() if cm else n
    return out


_REL_RE = re.compile(r"""rel\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.I)


def html_extract_links_rel(raw: bytes) -> list[tuple[str, str]]:
    """ALL anchor links with their ``rel`` attribute —
    ``[(href, rel_lowercased), ...]`` in document order (rel ``''``
    when absent). Unlike :func:`html_extract_links` this does NOT
    apply hint demotion: the rel audit is about what the page ASSERTS
    (nofollow/sponsored/ugc govern PageRank flow wherever the link
    sits), not about content extraction. Script/style payloads are
    skipped via the shared rawtext rule."""
    html = _decode_page(raw)
    out: list[tuple[str, str]] = []
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        if tag == "a":
            blob = m.group(2) or ""
            hm = _HREF_RE.search(blob)
            href = (hm.group(1) or hm.group(2) or hm.group(3) or "") if hm else ""
            if not href:
                continue
            rm = _REL_RE.search(blob)
            rel = (rm.group(1) or rm.group(2) or rm.group(3) or "") if rm else ""
            out.append((href, rel.lower()))
    return out


# ---------------------------------------------------------------------------
# Microdata (schema.org itemscope/itemprop) harvest
# ---------------------------------------------------------------------------

# itemprop value channel per the HTML microdata algorithm: URL-carrying
# elements read their URL attribute, meta reads content, time prefers
# datetime, data prefers value; everything else is the element's text.
_MICRODATA_URL_ATTR = {
    "a": "href",
    "link": "href",
    "area": "href",
    "img": "src",
    "audio": "src",
    "video": "src",
    "embed": "src",
    "iframe": "src",
    "source": "src",
    "track": "src",
    "object": "data",
}


def _has_bare_attr(blob: str, name: str) -> bool:
    """True if the attribute appears in the tag blob, valued OR bare —
    ``itemscope`` is a boolean attribute and is usually written bare
    (``<div itemscope itemtype=…>``), which ``_attr_val`` (requires
    ``=``) cannot see."""
    return re.search(rf"(?:^|\s){name}(?=[\s=/>]|$)", blob, re.I) is not None


def _md_set(item: dict, prop: str, value) -> None:
    """Record a property value under each whitespace-separated name in
    ``prop`` (the spec allows ``itemprop="a b"``), first occurrence
    wins per name — the same singular-property rule as the OG/meta
    walkers, so decoy repeats are provably ignored."""
    for name in prop.split():
        item["props"].setdefault(name, value)


def html_extract_microdata(raw: bytes) -> list[dict]:
    """Harvest schema.org microdata: one ``{"itemtype": str | None,
    "props": {name: value}}`` dict per TOP-LEVEL ``itemscope``, in
    document order — the third structured-data channel next to JSON-LD
    (:func:`html_extract_ldjson`) and Open Graph, and the one older CMS
    templates actually emit. Value semantics follow the microdata
    extraction algorithm: ``meta`` → ``content``; URL elements
    (a/link/img/iframe/…) → their URL attribute; ``time`` →
    ``datetime`` when present; ``data`` → ``value`` when present;
    anything else → the element's text content (descendants included),
    entity-unescaped and whitespace-collapsed. A nested ``itemscope``
    carrying ``itemprop`` becomes a nested item dict under its parent's
    props; an ``itemprop`` OUTSIDE any open scope is ignored (it
    belongs to no item). First occurrence wins per property name.
    Lenient tag-soup close handling (a close tag pops to its nearest
    matching open; unmatched closes are ignored; EOF closes everything)
    — single pass over the shared token stream, never touches the
    body-text golden path. Reference analog: none (pdf-extractor's
    PDFs carry /Info dicts; web pages need the microdata walk)."""
    html = _decode_page(raw)
    top: list[dict] = []
    # element stack: {"tag", "item": dict|None, "caps": [capture]}
    frames: list[dict] = []
    scope_stack: list[dict] = []  # open items, innermost last
    captures: list[dict] = []  # active text captures {"prop","item","parts"}

    def _finish_frame(fr: dict) -> None:
        for cap in fr["caps"]:
            captures.remove(cap)
            _md_set(cap["item"], cap["prop"], collapse_ws(unescape("".join(cap["parts"]))))
        if fr["item"] is not None and scope_stack and scope_stack[-1] is fr["item"]:
            scope_stack.pop()

    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        text_end = m.start() if m else n
        if text_end > pos and captures:
            chunk = html[pos:text_end]
            for cap in captures:
                cap["parts"].append(chunk)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None:
            continue
        tag = name.lower()
        if html[m.start() + 1] == "/":
            if any(fr["tag"] == tag for fr in frames):
                while frames:
                    fr = frames.pop()
                    _finish_frame(fr)
                    if fr["tag"] == tag:
                        break
            continue
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            pos = mm.start() if mm else n
            continue
        blob = m.group(2) or ""
        is_void = tag in VOID_TAGS or blob.rstrip().endswith("/")
        prop = _attr_val(blob, "itemprop")
        new_item: dict | None = None
        pending_cap: dict | None = None
        if _has_bare_attr(blob, "itemscope"):
            itemtype = _attr_val(blob, "itemtype")
            new_item = {"itemtype": itemtype if itemtype else None, "props": {}}
            if prop and scope_stack:
                _md_set(scope_stack[-1], prop, new_item)
            else:
                top.append(new_item)
        elif prop and scope_stack:
            item = scope_stack[-1]
            if tag == "meta":
                c = _attr_val(blob, "content")
                _md_set(item, prop, c if c is not None else "")
            elif tag in _MICRODATA_URL_ATTR:
                v = _attr_val(blob, _MICRODATA_URL_ATTR[tag])
                _md_set(item, prop, v if v is not None else "")
            elif tag == "time" and _attr_val(blob, "datetime") is not None:
                _md_set(item, prop, _attr_val(blob, "datetime"))
            elif tag == "data" and _attr_val(blob, "value") is not None:
                _md_set(item, prop, _attr_val(blob, "value"))
            elif not is_void:
                pending_cap = {"prop": prop, "item": item, "parts": []}
        if not is_void:
            fr = {"tag": tag, "item": new_item, "caps": []}
            if pending_cap is not None:
                fr["caps"].append(pending_cap)
                captures.append(pending_cap)
            if new_item is not None:
                scope_stack.append(new_item)
            frames.append(fr)
    while frames:  # EOF closes everything still open
        _finish_frame(frames.pop())
    return top


def html_extract_resources(raw: bytes) -> list[tuple[str, str]]:
    """Embedded-resource inventory: ``[(tag, src_url), …]`` in document
    order over ``script[src]`` / ``iframe[src]`` / ``embed[src]`` /
    ``object[data]`` — the third-party-embed audit channel (tracker/
    CDN/widget census; a curation pipeline flags pages whose embed
    hosts are off-site). Inline scripts (no ``src``) are NOT resources
    and are skipped; script bodies are skipped as raw text exactly like
    every other walker, so a ``</iframe>`` inside JS never fabricates
    an entry. Standalone pass; body-text golden path untouched."""
    html = _decode_page(raw)
    out: list[tuple[str, str]] = []
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            break
        pos = m.end()
        name = m.group(1)
        if name is None or html[m.start() + 1] == "/":
            continue
        tag = name.lower()
        blob = m.group(2) or ""
        if tag in _RAWTEXT_CLOSE:
            mm = _RAWTEXT_CLOSE[tag].search(html, pos)
            if tag == "script":
                src = _attr_val(blob, "src")
                if src:
                    out.append((tag, src))
            pos = mm.start() if mm else n
            continue
        if tag in ("iframe", "embed"):
            src = _attr_val(blob, "src")
            if src:
                out.append((tag, src))
        elif tag == "object":
            src = _attr_val(blob, "data")
            if src:
                out.append((tag, src))
    return out
