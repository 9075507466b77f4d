"""Content-kind sniffing + size bucketing.

Analog of the reference's implicit per-file dispatch (everything there is
a PDF opened by path, ``pdf_extractor/services/pdf_service.py:16``); here
each row's raw ``html:binary`` payload is classified by magic bytes so a
single pipeline handles mixed Common-Crawl-style content.
"""

from __future__ import annotations

# Size-bucket upper bounds in bytes; the last bucket is open-ended.
# Buckets label each output row (``size_bucket``) so metrics and reports
# can split latency and counts by size (SURVEY.md §4.3).
SIZE_BUCKET_BOUNDS = (16 * 1024, 256 * 1024, 4 * 1024 * 1024)

KIND_PDF = "pdf"
KIND_HTML = "html"
KIND_TEXT = "text"
KIND_EMPTY = "empty"
KIND_BINARY = "binary"

_HTML_MARKERS = (b"<html", b"<!doctype", b"<head", b"<body", b"<div", b"<p>", b"<HTML", b"<!DOCTYPE")
_HTML_MARKERS_STR = tuple({m.decode().lower() for m in _HTML_MARKERS})


def sniff(raw: bytes | None) -> str:
    """Classify a raw payload: pdf | html | text | empty | binary."""
    if raw is None or len(raw) == 0:
        return KIND_EMPTY
    if raw[:5] == b"%PDF-":
        return KIND_PDF
    head = raw[:512]
    if raw[:2] in (b"\xff\xfe", b"\xfe\xff") or raw[:3] == b"\xef\xbb\xbf":
        # BOM'd payload: probe the DECODED head for html markers so a
        # utf-16 page is extracted, not quarantined. A BOM followed by
        # non-markup bytes (no marker in the decoded probe) falls
        # through to the binary heuristics unchanged — the quarantine
        # contract for BOM'd garbage is preserved.
        codec = "utf-8-sig" if raw[:3] == b"\xef\xbb\xbf" else (
            "utf-16-le" if raw[:2] == b"\xff\xfe" else "utf-16-be"
        )
        probe = head.decode(codec, errors="replace").lower()
        if any(m in probe for m in _HTML_MARKERS_STR):
            return KIND_HTML
    # NUL before the raw markers: no text page carries one (UTF-16 pages
    # do, and were decided by the BOM probe above), so a binary blob
    # that happens to hold '<p>' near its start is not mistaken for HTML.
    if b"\x00" in head:
        return KIND_BINARY
    low = head.lower()
    if any(m.lower() in low for m in _HTML_MARKERS):
        return KIND_HTML
    # printable-utf8 heuristic, AFTER the markers: legacy-charset HTML
    # (windows-1252, Shift_JIS, ...) is invalid UTF-8 yet decodes via
    # decode_html_bytes. A multi-byte char straddling the 512-byte probe
    # boundary is NOT binary (error within the last 3 bytes).
    try:
        head.decode("utf-8")
    except UnicodeDecodeError as e:
        if e.start < len(head) - 3:
            return KIND_BINARY
    return KIND_TEXT


def size_bucket(n_bytes: int) -> int:
    """0 = tiny(<16K), 1 = small(<256K), 2 = big(<4M), 3 = mega."""
    for i, bound in enumerate(SIZE_BUCKET_BOUNDS):
        if n_bytes < bound:
            return i
    return len(SIZE_BUCKET_BOUNDS)


# ---------------------------------------------------------------------------
# Charset detection + decoding (WHATWG-style sniff)
# ---------------------------------------------------------------------------

# High-crawl-presence encoding labels → Python codec, per the WHATWG
# encoding spec's alias table (the web-compat rules: latin-1/ascii mean
# windows-1252; bare utf-16 means LE). Unknown labels fall through the
# sniff chain rather than erroring.
_CHARSET_ALIASES = {
    "utf-8": "utf-8",
    "utf8": "utf-8",
    "unicode-1-1-utf-8": "utf-8",
    "iso-8859-1": "windows-1252",
    "iso8859-1": "windows-1252",
    "latin-1": "windows-1252",
    "latin1": "windows-1252",
    "us-ascii": "windows-1252",
    "ascii": "windows-1252",
    "windows-1252": "windows-1252",
    "cp1252": "windows-1252",
    "x-cp1252": "windows-1252",
    "iso-8859-15": "iso-8859-15",
    "iso-8859-2": "iso-8859-2",
    "windows-1250": "windows-1250",
    "windows-1251": "windows-1251",
    "cp1251": "windows-1251",
    "koi8-r": "koi8_r",
    "shift_jis": "shift_jis",
    "shift-jis": "shift_jis",
    "sjis": "shift_jis",
    "euc-jp": "euc_jp",
    "gbk": "gbk",
    "gb2312": "gbk",  # WHATWG: gb2312 label decodes as GBK
    "big5": "big5",
    "euc-kr": "euc_kr",
    "utf-16": "utf-16-le",  # BOM-less utf-16 label: web default is LE
    "utf-16le": "utf-16-le",
    "utf-16be": "utf-16-be",
}

import re as _re

# charset= inside any <meta ...> tag in the first 1024 bytes: covers the
# HTML5 form (<meta charset=...>) and the legacy http-equiv form
# (<meta http-equiv="content-type" content="text/html; charset=...">).
_META_CHARSET_RE = _re.compile(
    r"""<meta[^>]{0,512}?charset\s*=\s*["']?\s*([A-Za-z0-9._:-]+)""", _re.I | _re.S
)


def detect_charset(raw: bytes) -> tuple[str, str]:
    """Sniff a page's character encoding: ``(codec, source)`` where
    source ∈ {'bom', 'meta', 'utf8-valid', 'fallback'}. WHATWG-style
    precedence: a byte-order mark wins over everything (including a
    lying <meta>), then a declared ``<meta charset>`` in the first
    1 KiB (a utf-16 meta label is treated as utf-8 — content visibly
    ASCII-compatible contradicts it, the spec's rule), then
    whole-payload strict UTF-8 validation, then the web's residual
    default windows-1252."""
    if raw[:3] == b"\xef\xbb\xbf":
        return "utf-8", "bom"
    if raw[:2] == b"\xff\xfe":
        return "utf-16-le", "bom"
    if raw[:2] == b"\xfe\xff":
        return "utf-16-be", "bom"
    head = raw[:1024].decode("latin-1", errors="replace")
    m = _META_CHARSET_RE.search(head)
    if m:
        codec = _CHARSET_ALIASES.get(m.group(1).lower())
        if codec in ("utf-16-le", "utf-16-be"):
            codec = "utf-8"  # WHATWG: meta-declared utf-16 is a lie
        if codec is not None:
            return codec, "meta"
    try:
        raw.decode("utf-8")
        return "utf-8", "utf8-valid"
    except UnicodeDecodeError:
        return "windows-1252", "fallback"


def decode_html_bytes(raw: bytes) -> tuple[str, str, str]:
    """Decode page bytes with :func:`detect_charset` semantics:
    ``(text, codec, source)``. Single-pass on the hot path — the
    dominant utf8-valid case decodes exactly once (strict decode IS
    the validation), so the flagship pays no double-decode tax. The
    BOM is stripped; undecodable bytes are replaced (windows-1252's
    five undefined bytes fall back to latin-1's C1 controls, the
    WHATWG mapping). Deterministic: output depends only on the input
    bytes — the extracted-text byte-identity contract survives the
    decode layer."""
    first = raw[:1]
    if first in (b"\xef", b"\xff", b"\xfe"):  # cheap BOM pre-check
        if raw[:3] == b"\xef\xbb\xbf":
            return raw[3:].decode("utf-8", errors="replace"), "utf-8", "bom"
        if raw[:2] == b"\xff\xfe":
            return raw[2:].decode("utf-16-le", errors="replace"), "utf-16-le", "bom"
        if raw[:2] == b"\xfe\xff":
            return raw[2:].decode("utf-16-be", errors="replace"), "utf-16-be", "bom"
    if b"harset" in raw[:1024].lower():  # cheap meta pre-check, any case
        head = raw[:1024].decode("latin-1", errors="replace")
        m = _META_CHARSET_RE.search(head)
        if m:
            codec = _CHARSET_ALIASES.get(m.group(1).lower())
            if codec in ("utf-16-le", "utf-16-be"):
                codec = "utf-8"  # WHATWG: meta-declared utf-16 is a lie
            if codec == "windows-1252":
                return _decode_cp1252(raw), codec, "meta"
            if codec is not None:
                return raw.decode(codec, errors="replace"), codec, "meta"
    try:
        return raw.decode("utf-8"), "utf-8", "utf8-valid"
    except UnicodeDecodeError:
        return _decode_cp1252(raw), "windows-1252", "fallback"


def _decode_cp1252(raw: bytes) -> str:
    try:
        return raw.decode("cp1252")
    except UnicodeDecodeError:
        return raw.decode("latin-1")
