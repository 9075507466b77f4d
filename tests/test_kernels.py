"""Unit tests for the pure kernels (no Ray)."""

import random

import numpy as np
import pytest

from pdf_extractor_ray.kernels.html_extract import html_extract
from pdf_extractor_ray.kernels.normalize import (
    collapse_ws,
    format_value,
    normalize_compare,
    normalize_key,
    normalize_ligatures,
)
from pdf_extractor_ray.kernels.pdf_extract import (
    assemble_reading_order,
    find_value_position,
    pdf_extract,
)
from pdf_extractor_ray.kernels.record import extract_record
from pdf_extractor_ray.kernels.sniff import sniff, size_bucket
from pdf_extractor_ray.kernels import hashing, textstats
from pdf_extractor_ray.sources.pages import make_html_page, make_pdf


# ---------------------------------------------------------------- sniff
def test_sniff_kinds():
    assert sniff(b"%PDF-1.4 x") == "pdf"
    assert sniff(b"<!DOCTYPE html><html></html>") == "html"
    assert sniff(b"") == "empty"
    assert sniff(None) == "empty"
    assert sniff(b"\xff\xfe\x00garbage") == "binary"
    assert sniff(b"plain old text") == "text"
    # NULs before an HTML marker: a binary blob, not a page
    assert sniff(b"\x00\x01\x02\x03<p>binary blob</p>" + bytes(range(256)) * 2) == "binary"
    # legacy-charset HTML is invalid UTF-8 but still a page
    assert sniff("<html><title>Café</title><p>Crème</p>".encode("cp1252")) == "html"


def test_size_bucket():
    assert size_bucket(0) == 0
    assert size_bucket(16 * 1024) == 1
    assert size_bucket(300 * 1024) == 2
    assert size_bucket(10 * 1024 * 1024) == 3


# ----------------------------------------------------------- normalizers
def test_format_value():
    assert format_value("$1,234.50") == "1234.50"
    assert format_value("(123)") == "-123"
    assert format_value("( 45.0 )") == "-45.0"
    assert format_value("  plain  ") == "plain"
    assert format_value(None) == ""


def test_normalize_key():
    assert normalize_key("My-File_Name (v2).PDF") == "my file name v2"
    assert normalize_key("  A   B  ") == "a b"


def test_normalize_compare():
    assert normalize_compare(" Foo  Bar ") == "foobar"


def test_collapse_ws_and_ligatures():
    assert collapse_ws(" a\n b\t c ") == "a b c"
    assert normalize_ligatures("eﬃcient ﬁre ﬂow") == "efficient fire flow"


# ----------------------------------------------------------------- html
def test_html_extract_strips_boilerplate():
    rng = random.Random(11)
    raw, main = make_html_page(rng, 4)
    text, spans = html_extract(raw)
    assert text == main
    assert "BOILER" not in text
    # char spans index the text exactly
    for s in spans:
        assert text[s["start"] : s["end"]] == text[s["start"] : s["end"]].strip()
    assert spans[0]["start"] == 0


def test_html_extract_malformed_is_best_effort():
    text, spans = html_extract(b"<div><p>hello world this is content</p><nav>BOILER</nav>")
    assert "hello world this is content" in text
    assert "BOILER" not in text


# ------------------------------------------------------------------ pdf
def test_pdf_reading_order_invariant_to_emission_order():
    runs = [
        (72.0, 700.0, 12.0, "first line"),
        (200.0, 700.0, 12.0, "still first"),
        (72.0, 676.0, 12.0, "second line"),
    ]
    shuffled = [runs[2], runs[1], runs[0]]
    t1, _ = pdf_extract(make_pdf([runs]))
    t2, _ = pdf_extract(make_pdf([shuffled]))
    assert t1 == t2 == "first line still first\nsecond line"


def test_pdf_multipage_and_flate():
    pages = [[(72.0, 700.0, 12.0, "page one")], [(72.0, 700.0, 12.0, "page two")]]
    for compress in (False, True):
        text, spans = pdf_extract(make_pdf(pages, compress=compress))
        assert text == "page one\npage two"
        assert [s["page"] for s in spans] == [0, 1]
        for s in spans:
            assert text[s["start"] : s["end"]] in ("page one", "page two")


def test_pdf_ligature_normalization():
    text, _ = pdf_extract(make_pdf([[(72.0, 700.0, 12.0, "eﬃcient ﬁnding")]]))
    assert text == "efficient finding"


def test_pdf_escapes_and_tj_array():
    text, _ = pdf_extract(make_pdf([[(72.0, 700.0, 12.0, r"a(b)c\d")]]))
    assert text == r"a(b)c\d"


def test_pdf_malformed_raises():
    with pytest.raises(ValueError):
        pdf_extract(b"%PDF-1.4\nnot really a pdf")
    with pytest.raises(ValueError):
        pdf_extract(b"nope")


def test_find_value_position_interpolates():
    spans = [{"page": 0, "x0": 0.0, "y0": 0.0, "x1": 100.0, "y1": 12.0, "text": "abcdefghij", "font_size": 12.0}]
    page, bbox = find_value_position(spans, "cde")
    assert page == 0
    assert bbox[0] == pytest.approx(20.0)
    assert bbox[2] == pytest.approx(50.0)
    assert find_value_position(spans, "zzz") is None


def test_assemble_reading_order_pure():
    spans = [
        {"page": 0, "x0": 10.0, "y0": 0, "x1": 20.0, "y1": 100.0, "text": "b", "font_size": 12.0},
        {"page": 0, "x0": 5.0, "y0": 0, "x1": 9.0, "y1": 100.0, "text": "a", "font_size": 12.0},
    ]
    t1, cs = assemble_reading_order(spans)
    t2, _ = assemble_reading_order(list(reversed(spans)))
    assert t1 == t2 == "a b"
    assert [(c["start"], c["end"]) for c in cs] == [(0, 1), (2, 3)]


# ----------------------------------------------------------- extract_record
def test_extract_record_quarantines():
    r = extract_record("u", b"%PDF-1.4\ngarbage")
    assert r["status"] == "quarantined:parse-error"
    r = extract_record("u", b"")
    assert r["status"] == "empty"
    r = extract_record("u", b"\xff\xfe\x00bin")
    assert r["status"].startswith("quarantined:unsupported")


# --------------------------------------------------------------- hashing
def test_stable_hash_deterministic():
    assert hashing.stable_hash64("abc") == hashing.stable_hash64(b"abc")
    assert hashing.content_hash("x") == hashing.content_hash("x")


def test_minhash_similarity_monotone():
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = a + " with a tiny suffix change"
    c = "completely different words describing unrelated machinery parts"
    sa = hashing.minhash_signature(hashing.shingle_hashes(a))
    sb = hashing.minhash_signature(hashing.shingle_hashes(b))
    sc = hashing.minhash_signature(hashing.shingle_hashes(c))
    sim_ab = (sa == sb).mean()
    sim_ac = (sa == sc).mean()
    assert sim_ab > sim_ac


def test_simhash_near_duplicates_close():
    a = " ".join(["alpha beta gamma delta epsilon zeta eta theta"] * 10)
    b = a + " iota"
    c = " ".join(["one two three four five six seven eight"] * 10)
    da = hashing.simhash64(a)
    db = hashing.simhash64(b)
    dc = hashing.simhash64(c)
    assert hashing.hamming64(da, db) < hashing.hamming64(da, dc)


def test_jaccard():
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([2, 3, 4], dtype=np.uint64)
    assert hashing.jaccard(a, b) == pytest.approx(0.5)


# -------------------------------------------------------------- textstats
def test_token_counts():
    assert textstats.token_count_ws("a b  c") == 3
    assert textstats.token_count_ws("") == 0
    assert textstats.token_count_bpeish("hello world") >= 2


def test_lang_id():
    assert textstats.lang_id("the cat sat on the mat and it was happy for a while") == "en"
    assert textstats.lang_id("der hund und die katze ist nicht im haus für immer") == "de"
    assert textstats.lang_id("xyzzy plugh") == "und"


def test_quality_score_ordering():
    good = "The quick brown fox jumps over the lazy dog and runs into the forest with great speed today." * 3
    bad = "@@@@ #### !!!! %%%%"
    assert textstats.quality_score(good) > textstats.quality_score(bad)


def test_self_closing_tags_do_not_poison_state():
    """<iframe/> / <a/> must not permanently enable skip/link mode."""
    text, _ = html_extract(b'<iframe src="ad"/><p>main article paragraph text here</p>')
    assert "main article paragraph text here" in text
    text, _ = html_extract(b'<a href="x"/><p>plain body content paragraph words</p>')
    assert "plain body content paragraph words" in text


def test_sniff_utf8_boundary_not_binary():
    payload = ("€" * 300).encode("utf-8")  # 3-byte chars; byte 512 splits one
    assert sniff(payload) == "text"
    assert sniff(b"\xff\xfe" + b"x" * 600) == "binary"


def test_pdf_fast_path_equals_generic_tokenizer():
    """The canonical-run fast path must produce exactly the generic
    tokenizer's spans (byte-identity can't catch a shared-kernel bug)."""
    import importlib

    px = importlib.import_module("pdf_extractor_ray.kernels.pdf_extract")

    runs = [
        (72.0, 700.0, 12.0, "alpha beta ﬁrst"),
        (210.5, 700.0, 9.0, r"esc\(aped\)"),
        (72.0, 676.0, 12.0, "second line"),
    ]
    raw = make_pdf([runs], compress=False)
    objects = px._parse_objects(raw)
    stream = next(s for _, s in objects.values() if s is not None)
    fast = px._parse_content_stream_fast(stream, 0, 792.0)
    assert fast is not None and len(fast) == 3
    # force the generic path by asking fast to bail
    orig = px._parse_content_stream_fast
    px._parse_content_stream_fast = lambda *a: None
    try:
        generic = px._parse_content_stream(stream, 0, 792.0)
    finally:
        px._parse_content_stream_fast = orig
    assert fast == generic
    # non-canonical stream → fast path declines, generic handles it
    weird = b"BT /F1 12 Tf 10 20 Td (hi) Tj ET"
    assert px._parse_content_stream_fast(weird, 0, 792.0) is None
    assert px._parse_content_stream(weird, 0, 792.0)[0]["text"] == "hi"


def test_pdf_page_order_follows_kids_not_object_numbers():
    """Page order comes from the catalog's /Kids walk; a PDF whose page
    objects appear in reverse numeric order must still read in /Kids
    order."""
    # hand-build: catalog(1) → pages(2) with Kids [5, 3] — page obj 5
    # is FIRST in reading order despite the higher object number
    def obj(num, body):
        return f"{num} 0 obj".encode() + body + b"endobj\n"

    pdf = b"%PDF-1.4\n"
    pdf += obj(1, b"<< /Type /Catalog /Pages 2 0 R >>\n")
    pdf += obj(2, b"<< /Type /Pages /Kids [5 0 R 3 0 R] /Count 2 >>\n")
    pdf += obj(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n")
    stream_b = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (second page) Tj ET\n"
    pdf += obj(4, b"<< /Length %d >>\nstream\n" % len(stream_b) + stream_b + b"\nendstream\n")
    pdf += obj(5, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 6 0 R >>\n")
    stream_a = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (first page) Tj ET\n"
    pdf += obj(6, b"<< /Length %d >>\nstream\n" % len(stream_a) + stream_a + b"\nendstream\n")
    pdf += b"%%EOF\n"
    text, spans = pdf_extract(pdf)
    assert text == "first page\nsecond page"
    assert [s["page"] for s in spans] == [0, 1]


def test_deeply_nested_dom_no_recursion_blowup():
    """10k-deep nested divs (the north rule's 'deeply nested DOM' skew
    case): the iterative tokenizer must extract without stack overflow."""
    depth = 10_000
    raw = ("<div>" * depth) + "<p>deep main content paragraph body</p>" + ("</div>" * depth)
    text, spans = html_extract(raw.encode())
    assert "deep main content paragraph body" in text


def test_pdf_escape_8_9_and_indirect_length():
    """\\8 / \\9 are unknown escapes (drop backslash), not octal; an
    indirect /Length reference falls back to the endstream scan."""
    from pdf_extractor_ray.kernels.pdf_extract import _decode_pdf_string

    assert _decode_pdf_string(rb"a\8b\9c") == "a8b9c"
    assert _decode_pdf_string(rb"\101") == "A"  # real octal still works

    def obj(num, body):
        return f"{num} 0 obj".encode() + body + b"endobj\n"

    stream = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (indirect) Tj ET\n"
    pdf = b"%PDF-1.4\n"
    pdf += obj(1, b"<< /Type /Catalog /Pages 2 0 R >>\n")
    pdf += obj(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n")
    pdf += obj(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n")
    pdf += obj(4, b"<< /Length 6 0 R >>\nstream\n" + stream + b"endstream\n")
    pdf += obj(6, b"%d\n" % len(stream))
    text, _ = pdf_extract(pdf)
    assert text == "indirect"


def test_annotate_follows_kids_page_order():
    """Highlights must land on the /Kids-order page, not object order."""
    from pdf_extractor_ray.kernels.annotate import annotate_pdf

    def obj(num, body):
        return f"{num} 0 obj".encode() + body + b"endobj\n"

    s1 = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (first) Tj ET\n"
    s2 = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (second) Tj ET\n"
    pdf = b"%PDF-1.4\n"
    pdf += obj(1, b"<< /Type /Catalog /Pages 2 0 R >>\n")
    pdf += obj(2, b"<< /Type /Pages /Kids [5 0 R 3 0 R] /Count 2 >>\n")
    pdf += obj(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n")
    pdf += obj(4, b"<< /Length %d >>\nstream\n" % len(s2) + s2 + b"\nendstream\n")
    pdf += obj(5, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 6 0 R >>\n")
    pdf += obj(6, b"<< /Length %d >>\nstream\n" % len(s1) + s1 + b"\nendstream\n")
    pdf += b"%%EOF\n"
    # field on reading-order page 1 ("second", contents obj 4)
    ann = annotate_pdf(pdf, [{"key": "K", "value": "v", "page": 1, "bbox": [70.0, 80.0, 120.0, 92.0]}])
    objects = __import__("importlib").import_module("pdf_extractor_ray.kernels.pdf_extract")._parse_objects(ann)
    with_overlay = [n for n, (_h, st) in objects.items() if st is not None and b"re f Q" in st]
    assert with_overlay == [4]  # the "second" page's content stream


def test_pdf_indirect_length_multidigit_objnum():
    """'/Length 60 0 R' must NOT backtrack-match a literal length of 6
    (which would truncate the stream); it falls back to the endstream
    scan like any indirect reference."""
    from pdf_extractor_ray.kernels.pdf_extract import _LENGTH_RE

    assert _LENGTH_RE.search(b"<< /Length 60 0 R >>") is None
    assert _LENGTH_RE.search(b"<< /Length 123 0 R >>") is None
    m = _LENGTH_RE.search(b"<< /Length 60 >>")
    assert m and m.group(1) == b"60"

    def obj(num, body):
        return f"{num} 0 obj".encode() + body + b"endobj\n"

    stream = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (multidigit ref) Tj ET\n"
    pdf = b"%PDF-1.4\n"
    pdf += obj(1, b"<< /Type /Catalog /Pages 2 0 R >>\n")
    pdf += obj(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n")
    pdf += obj(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n")
    pdf += obj(4, b"<< /Length 60 0 R >>\nstream\n" + stream + b"endstream\n")
    pdf += obj(60, b"%d\n" % len(stream))
    text, _ = pdf_extract(pdf)
    assert text == "multidigit ref"


def test_annotate_indirect_length_and_catalog_root():
    """Annotating a page whose head carries an indirect /Length must
    rewrite it to the literal new length; the trailer must reference
    the real catalog object (here obj 7, not obj 1)."""
    from pdf_extractor_ray.kernels.annotate import annotate_pdf
    from pdf_extractor_ray.kernels.pdf_extract import _parse_objects

    def obj(num, body):
        return f"{num} 0 obj".encode() + body + b"endobj\n"

    s = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (hello) Tj ET\n"
    pdf = b"%PDF-1.4\n"
    pdf += obj(7, b"<< /Type /Catalog /Pages 2 0 R >>\n")
    pdf += obj(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n")
    pdf += obj(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n")
    pdf += obj(4, b"<< /Length 60 0 R >>\nstream\n" + s + b"endstream\n")
    pdf += obj(60, b"%d\n" % len(s))
    pdf += b"%%EOF\n"
    ann = annotate_pdf(pdf, [{"key": "K", "value": "v", "page": 0, "bbox": [70.0, 80.0, 120.0, 92.0]}])
    assert b"/Root 7 0 R" in ann
    head, stream = _parse_objects(ann)[4]
    assert b"0 R" not in head.replace(b"2 0 R", b"")  # no stale indirect /Length
    import re as _re

    m = _re.search(rb"/Length\s+(\d+)(?!\d)", head)
    assert m and int(m.group(1)) == len(stream)
    # annotated copy still extracts the original text
    text, _ = pdf_extract(ann)
    assert "hello" in text


def test_html_escaping_round_trip():
    """Doc text containing markup metacharacters survives the derived
    page → extraction round trip (escaped in, unescaped out)."""
    from pdf_extractor_ray.pipelines.webdocs import _doc_to_page

    tricky = "profit & loss <grew> by 5% a&b"
    page = _doc_to_page(1, tricky, "en", "web")  # doc_id 1: HTML row
    assert b"<grew>" not in page  # escaped in the markup
    text, _spans = html_extract(page)
    assert tricky in text


def _mini_pdf(objs: list[tuple[int, bytes]]) -> bytes:
    pdf = b"%PDF-1.5\n"
    for num, body in objs:
        pdf += f"{num} 0 obj".encode() + body + b"endobj\n"
    return pdf + b"%%EOF\n"


def test_pdf_hex_strings_tj_and_tJ():
    """Hex strings <...> decode like literal strings in Tj and TJ,
    including whitespace inside and odd-length padding."""
    hello = "hexworld".encode().hex().upper().encode()
    s = (
        b"BT /F1 12 Tf 1 0 0 1 72 700 Tm <" + hello[:6] + b" " + hello[6:] + b"> Tj ET\n"
        b"BT /F1 12 Tf 1 0 0 1 72 650 Tm [<6172726179> (lit)] TJ ET\n"
    )
    pdf = _mini_pdf(
        [
            (1, b"<< /Type /Catalog /Pages 2 0 R >>\n"),
            (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n"),
            (3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n"),
            (4, b"<< /Length %d >>\nstream\n" % len(s) + s + b"\nendstream\n"),
        ]
    )
    text, _ = pdf_extract(pdf)
    assert text == "hexworld\narray lit"


def test_pdf_stream_without_length():
    """A stream dict with NO /Length at all falls back to the
    endstream scan."""
    s = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (no length key) Tj ET\n"
    pdf = _mini_pdf(
        [
            (1, b"<< /Type /Catalog /Pages 2 0 R >>\n"),
            (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n"),
            (3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n"),
            (4, b"<< >>\nstream\n" + s + b"endstream\n"),
        ]
    )
    text, _ = pdf_extract(pdf)
    assert text == "no length key"


def test_pdf_incremental_update_last_definition_wins():
    """An appended (incremental-update) redefinition of a content
    object supersedes the original, per PDF update semantics."""
    s_old = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (old version) Tj ET\n"
    s_new = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (new version) Tj ET\n"
    pdf = _mini_pdf(
        [
            (1, b"<< /Type /Catalog /Pages 2 0 R >>\n"),
            (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n"),
            (3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n"),
            (4, b"<< /Length %d >>\nstream\n" % len(s_old) + s_old + b"\nendstream\n"),
            # appended update section
            (4, b"<< /Length %d >>\nstream\n" % len(s_new) + s_new + b"\nendstream\n"),
        ]
    )
    text, _ = pdf_extract(pdf)
    assert text == "new version"


def test_pdf_object_stream_members():
    """PDF 1.5 /ObjStm: catalog/pages/page dicts packed in a compressed
    object stream are found and the page tree walks normally."""
    import zlib as _zlib

    m1 = b"<< /Type /Catalog /Pages 2 0 R >>"
    m2 = b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"
    m3 = b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>"
    bodies = m1 + m2 + m3
    offsets = [0, len(m1), len(m1) + len(m2)]
    header = f"1 {offsets[0]} 2 {offsets[1]} 3 {offsets[2]} ".encode()
    payload = header + bodies
    comp = _zlib.compress(payload)
    s = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (from objstm) Tj ET\n"
    pdf = _mini_pdf(
        [
            (5, b"<< /Type /ObjStm /N 3 /First %d /Length %d /Filter /FlateDecode >>\nstream\n"
                % (len(header), len(comp)) + comp + b"\nendstream\n"),
            (4, b"<< /Length %d >>\nstream\n" % len(s) + s + b"\nendstream\n"),
        ]
    )
    text, _ = pdf_extract(pdf)
    assert text == "from objstm"


def test_html_br_separates_words():
    """<br>/<hr> must act as whitespace between text runs, not vanish."""
    raw = b'<html><body><p>line one<br>line two<br/>line three<hr>after rule</p></body></html>'
    text, _ = html_extract(raw)
    assert text == "line one line two line three after rule"


def test_annotate_length_insert_skips_nested_dict():
    """A head with a nested sub-dictionary and no /Length gets the new
    /Length at the TOP level, not inside the sub-dict."""
    from pdf_extractor_ray.kernels.annotate import annotate_pdf
    from pdf_extractor_ray.kernels.pdf_extract import _parse_objects

    def obj(num, body):
        return f"{num} 0 obj".encode() + body + b"endobj\n"

    s = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (nested head) Tj ET\n"
    pdf = b"%PDF-1.4\n"
    pdf += obj(1, b"<< /Type /Catalog /Pages 2 0 R >>\n")
    pdf += obj(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>\n")
    pdf += obj(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>\n")
    pdf += obj(4, b"<< /DecodeParms << /Columns 4 >> >>\nstream\n" + s + b"endstream\n")
    pdf += b"%%EOF\n"
    ann = annotate_pdf(pdf, [{"key": "K", "value": "v", "page": 0, "bbox": [70.0, 80.0, 120.0, 92.0]}])
    head, stream = _parse_objects(ann)[4]
    inner = head[head.find(b"<<", 2) : head.find(b">>") + 2]  # the sub-dict
    assert b"/Length" not in inner
    import re as _re

    m = _re.search(rb"/Length\s+(\d+)(?!\d)", head)
    assert m and int(m.group(1)) == len(stream)


def test_cli_finetune_surface_and_job_id_race(tmp_path, capsys):
    """The CLI's fine-tune subcommands (job-status / list-jobs /
    list-models) round-trip against a registry, completing the
    reference's six-subcommand surface; and concurrent-style duplicate
    submissions of the SAME file must yield distinct job records
    (O_EXCL claim, never an overwrite)."""
    import json

    from pdf_extractor_ray.cli import main
    from pdf_extractor_ray.finetune import LocalSimulatedBackend, monitor_job

    reg = str(tmp_path / "registry")
    backend = LocalSimulatedBackend(reg)
    train = tmp_path / "train.jsonl"
    train.write_text(
        "\n".join(
            json.dumps({"messages": [{"role": "user", "content": f"x{i}"}]})
            for i in range(12)
        )
    )
    jid = backend.create_job(str(train), "base-extractor-small", "s1")
    # duplicate submission: same file -> same hash and same initial seq
    # candidate if raced; the exclusive create must bump, not overwrite
    jid2 = backend.create_job(str(train), "base-extractor-small", "s2")
    assert jid != jid2
    assert len(backend.list_jobs()) == 2
    # the raced case directly: claiming an already-claimed id must fail
    # (EEXIST) instead of clobbering the existing record
    assert backend._create_exclusive({"id": jid}) is False
    assert json.loads((tmp_path / "registry" / f"{jid}.json").read_text())["suffix"] == "s1"
    monitor_job(backend, jid)

    rc = main(["job-status", "--registry", reg, "--job-id", jid])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "succeeded"

    rc = main(["list-jobs", "--registry", reg])
    assert rc == 0
    assert {j["id"] for j in json.loads(capsys.readouterr().out)} == {jid, jid2}

    rc = main(["list-models", "--registry", reg])
    assert rc == 0
    models = json.loads(capsys.readouterr().out)
    assert "base-extractor-small" in models
    assert any(m.startswith("ft:base-extractor-small:s1:") for m in models)


def test_html_content_hints_class_id_weighting():
    """id/class hints discriminate content-in-div from nav-in-div where
    link density cannot: a text-heavy sidebar dies, identical text in
    id="content" lives; neg inherits through unhinted children; neg
    beats pos on one element; a short block survives only when boosted."""
    from pdf_extractor_ray.kernels.html_extract import html_extract

    para = "This promo paragraph is long enough to pass every density test easily."
    html = (
        "<body>"
        f'<div id="content"><p>{para}</p><p>tiny</p></div>'
        f'<div class="promo sidebar"><p>{para}</p></div>'
        f'<div class="main sidebar"><p>{para}</p></div>'  # neg wins over pos
        f'<div class="sidebar"><div><p>{para}</p></div></div>'  # inherited through unhinted div
        "<p>tiny</p>"  # short, unboosted -> dropped
        f"<p>{para}</p>"
    ).encode()
    text, spans = html_extract(html)
    lines = text.split("\n")
    assert lines == [para, "tiny", para]
    assert len(spans) == 3


def test_html_hint_scope_ends_with_its_element():
    """An inner unhinted <div> closing must NOT end the outer
    sidebar's demotion; a sibling after the hinted div closes is
    clean again."""
    from pdf_extractor_ray.kernels.html_extract import html_extract

    s = "Sentence long enough to clear the minimum block length bar."
    html = (
        f'<div class="sidebar"><div><p>{s} A</p></div><p>{s} B</p></div>'
        f"<p>{s} C</p>"
    ).encode()
    text, _ = html_extract(html)
    assert text == f"{s} C"


def test_html_table_rows_cell_joined():
    """Data-table rows serialize as one ' | '-joined line per row
    (incl. short numeric cells); a link-only nav table still dies by
    link density."""
    from pdf_extractor_ray.kernels.html_extract import html_extract

    html = (
        "<table>"
        "<tr><th>city</th><th>pop</th></tr>"
        "<tr><td>Berlin</td><td>3.7</td></tr>"
        "<tr><td>Paris</td><td>2.1</td></tr>"
        "</table>"
        '<table><tr><td><a href="/a">nav a</a></td><td><a href="/b">nav b</a></td></tr></table>'
    ).encode()
    text, spans = html_extract(html)
    assert text.split("\n") == ["city | pop", "Berlin | 3.7", "Paris | 2.1"]
    assert all(s["end"] - s["start"] > 0 for s in spans)


def test_html_pos_hint_relaxes_link_density():
    """A link-quoting paragraph inside <article> survives up to the
    boosted density ceiling; the same paragraph outside dies."""
    from pdf_extractor_ray.kernels.html_extract import html_extract

    # ~50% of chars linked: above 0.33, below 0.66
    p = 'read <a href="/x">the linked half</a> plus tail'
    html = (f"<article><p>{p}</p></article>" f"<div><p>{p}</p></div>").encode()
    text, _ = html_extract(html)
    assert text == "read the linked half plus tail"


def test_latest_fine_tuned_model_freshness(tmp_path, capsys):
    """A6 model-timestamp scan: newest succeeded model wins; a
    max-age bound turns a stale model into None (= retrain); CLI
    --latest surfaces it."""
    import json

    from pdf_extractor_ray.cli import main
    from pdf_extractor_ray.finetune import (
        LocalSimulatedBackend,
        latest_fine_tuned_model,
        monitor_job,
    )

    reg = str(tmp_path / "registry")
    backend = LocalSimulatedBackend(reg)
    assert latest_fine_tuned_model(backend) is None  # empty registry

    train = tmp_path / "t.jsonl"
    train.write_text(
        "\n".join(json.dumps({"messages": [{"role": "user", "content": f"x{i}"}]}) for i in range(12))
    )
    j1 = backend.create_job(str(train), "base-extractor-small", "first")
    monitor_job(backend, j1)
    j2 = backend.create_job(str(train), "base-extractor-small", "second")
    monitor_job(backend, j2)
    latest = latest_fine_tuned_model(backend)
    assert latest and ":second:" in latest  # newest finished wins
    assert latest_fine_tuned_model(backend, max_age_s=1e9) == latest
    assert latest_fine_tuned_model(backend, max_age_s=0.0) is None  # stale -> retrain

    rc = main(["list-models", "--registry", reg, "--latest"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["latest"] == latest


def test_html_implied_end_tags_bound_hint_scope():
    """HTML-legal omitted end tags (p/li/dt/dd/tr) must not leak a
    demotion hint over the rest of the document, and uppercase
    CLASS=/ID= attributes must still be sniffed (regression: r3 code
    review findings 1 and 5)."""
    from pdf_extractor_ray.kernels.html_extract import html_extract

    t, _ = html_extract(
        b'<p class="comment">note<p>REAL PARAGRAPH NUMBER ONE</p><p>REAL PARAGRAPH TWO</p>'
    )
    assert t == "REAL PARAGRAPH NUMBER ONE\nREAL PARAGRAPH TWO"

    t, _ = html_extract(
        b'<li class="menu">boiler<li>plain item text here<p>real body paragraph</p>'
    )
    assert "boiler" not in t and "plain item text here" in t

    up, _ = html_extract(
        b'<div CLASS="footer"><p>long enough para SHOULD DIE</p></div><p>long enough para KEEP</p>'
    )
    assert up == "long enough para KEEP"


def test_html_implied_close_cascades_through_nested_p():
    """An unclosed <p> nested in a hinted li/tr must not shield the
    li/tr from its own implied close (second-review regression)."""
    from pdf_extractor_ray.kernels.html_extract import html_extract

    t, _ = html_extract(
        b'<li class="menu"><p>boiler<li>plain item text here is long</li>'
        b"<p>real body paragraph after list</p>"
    )
    assert t == "plain item text here is long\nreal body paragraph after list"

    t2, _ = html_extract(
        b'<tr class="ad"><td>junk cells here</td><tr><td>real row cell content</td></tr>'
    )
    assert t2 == "real row cell content"

    # nested LISTS: an inner list's <li> closes only ONE level — the
    # outer item (and its hint scope) stays open
    t3, _ = html_extract(
        b'<li class="menu">outer boiler item<ul>x</ul>'
        b"<p>should still be demoted inside the menu item</p></li>"
        b"<p>clean paragraph after the menu closes</p>"
    )
    assert t3 == "clean paragraph after the menu closes"
