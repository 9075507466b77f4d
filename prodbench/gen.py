"""Seeded workload generator with planted truth.

Every row is built from the public page makers in ``sources.pages``
(``make_html_page``, ``make_pdf``) or from fixed edge payloads. For each
row the generator records the kind, status and extracted text the
extractor must produce, computed from what was planted and never by
running the extractor. The program only ever sees the parquet files.

Shape (how many rows of each kind, paragraph and sentence counts, page
and line counts, where each row sits) depends on the row index only.
The seed chooses the words. Two seeds therefore give the same amount of
work of each kind.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_extractor_ray.sources.pages import LIG_SENTENCE, make_html_page, make_pdf

# Planted row classes. ``sniff_fault`` is a binary payload with an HTML
# marker in its first 512 bytes: ``kernels/sniff.py`` tests the markers
# before the NUL / invalid-UTF-8 checks, so these rows come out
# ``kind=html, status=ok`` with NUL bytes in the text. Truth says they
# must be quarantined; every one is counted as a failed operation. Its
# bytes do not depend on the seed.
HTML, PDF, TAIL, EMPTY, TRUNCATED, NON_UTF8, SNIFF_FAULT = (
    "html", "pdf", "tail", "empty", "truncated", "non_utf8", "sniff_fault",
)

SNIFF_FAULT_PAYLOAD = b"\x00\x01\x02\x03<p>binary blob</p>" + bytes(range(256)) * 2

_WORDS = (
    "data engine stream batch arrow block actor shuffle spill partition "
    "table schema column vector kernel ray cluster worker driver object "
    "store memory page document text span layout line order hash key "
    "merge union filter project aggregate window join sort limit sample"
).split()

_LIGATURES = {"ﬀ": "ff", "ﬁ": "fi", "ﬂ": "fl", "ﬃ": "ffi", "ﬄ": "ffl"}


@dataclass(frozen=True)
class Spec:
    """Rows of each class, the input files they are split into, and the
    page range of PDFs and paragraph range of tail (mega HTML) rows."""

    counts: dict
    n_files: int
    pdf_pages: tuple
    tail_paras: tuple


# Why these workloads: see README.md. Counts are per round.
SPECS = {
    # sources.pages mix: 80% HTML, 15% PDF, 5% edge rows, two partitions
    # of 1,000 rows. The HTML tokenizer does most of the kernel work.
    "crawl_mix": Spec(
        counts={HTML: 1600, PDF: 300, TAIL: 24, EMPTY: 24, TRUNCATED: 24, NON_UTF8: 24, SNIFF_FAULT: 4},
        n_files=2, pdf_pages=(1, 3), tail_paras=(150, 250),
    ),
    # multi-page PDFs and a heavy tail of mega HTML pages (size buckets
    # 1 and 2): the PDF layout kernel and within-batch skew dominate.
    "pdf_tail": Spec(
        counts={HTML: 40, PDF: 560, TAIL: 8, EMPTY: 6, TRUNCATED: 6, NON_UTF8: 6, SNIFF_FAULT: 4},
        n_files=2, pdf_pages=(2, 6), tail_paras=(300, 1500),
    ),
    # the crawl mix in eight one-file partitions of 100 rows: the cost
    # is per partition (dataset build, write, re-scan, quarantine copy,
    # fsync'd commit, collector drain).
    "small_partitions": Spec(
        counts={HTML: 640, PDF: 120, TAIL: 12, EMPTY: 8, TRUNCATED: 8, NON_UTF8: 8, SNIFF_FAULT: 4},
        n_files=8, pdf_pages=(1, 3), tail_paras=(150, 250),
    ),
}


class _ShapeRandom(random.Random):
    """Random source handed to the page makers: every draw except
    ``choice`` (counts, lengths, table presence, numbers) comes from the
    row index; ``choice`` (the words) comes from the seed."""

    def __init__(self, index: int, words: random.Random):
        super().__init__(index)
        self._words = words

    def choice(self, seq):
        return self._words.choice(seq)


@dataclass
class Truth:
    url: str
    cls: str
    kind: str
    status: str
    text: str


@dataclass
class Workload:
    name: str
    seed: int
    paths: list
    truth: dict = field(default_factory=dict)  # url -> Truth
    raws: list = field(default_factory=list)  # (url, payload) in file order

    @property
    def n_rows(self) -> int:
        return len(self.truth)


def _sentence(rng: random.Random, n: int) -> str:
    s = " ".join(rng.choice(_WORDS) for _ in range(n))
    return s[0].upper() + s[1:] + "."


def _pdf_row(shape: random.Random, n_pages: int, compress: bool) -> tuple[bytes, str]:
    """Multi-page PDF with runs emitted out of order; truth is reading
    order: page, then line top to bottom, then x left to right; runs on
    one line joined by a space, lines and pages by a newline."""
    pages, lines_out = [], []
    for _ in range(n_pages):
        runs, y = [], 720.0
        for _line in range(shape.randint(3, 8)):
            x, line = 72.0, []
            for _seg in range(shape.randint(1, 3)):
                text = _sentence(shape, shape.randint(2, 5))
                runs.append((x, y, 12.0, text))
                line.append(text)
                x += 6.0 * len(text) + 12.0
            lines_out.append(" ".join(line))
            y -= 24.0
        if shape.random() < 0.5:
            runs.append((72.0, y, 12.0, LIG_SENTENCE))
            lines_out.append("".join(_LIGATURES.get(c, c) for c in LIG_SENTENCE))
        shape.shuffle(runs)
        pages.append(runs)
    return make_pdf(pages, compress=compress), "\n".join(lines_out)


def _row(cls: str, i: int, seed: int, spec: Spec) -> tuple[bytes, str, str, str]:
    """(payload, kind, status, text) for row ``i`` of class ``cls``."""
    shape = _ShapeRandom(i, random.Random((seed << 32) ^ i))
    if cls == HTML:
        raw, text = make_html_page(shape, shape.randint(2, 6))
        return raw, "html", "ok", text
    if cls == TAIL:
        raw, text = make_html_page(shape, shape.randint(*spec.tail_paras))
        return raw, "html", "ok", text
    if cls == PDF:
        raw, text = _pdf_row(shape, shape.randint(*spec.pdf_pages), compress=i % 2 == 0)
        return raw, "pdf", "ok", text
    if cls == EMPTY:
        return b"", "empty", "empty", ""
    if cls == TRUNCATED:
        raw, _ = _pdf_row(shape, 1, compress=False)
        return raw[: len(raw) // 2], "pdf", "quarantined:parse-error", ""
    if cls == NON_UTF8:
        # 0xFF never occurs in UTF-8; no BOM, no '<', so no HTML marker
        body = bytes(shape._words.randrange(0x80, 0x100) for _ in range(128))
        return b"\xff\xff" + body, "binary", "quarantined:unsupported-binary", ""
    if cls == SNIFF_FAULT:
        return SNIFF_FAULT_PAYLOAD, "binary", "quarantined:unsupported-binary", ""
    raise ValueError(f"unknown row class {cls!r}")


def make_workload(name: str, seed: int, out_dir: str, scale: int = 1) -> Workload:
    """Write workload ``name`` for ``seed`` as parquet files under
    ``out_dir`` and return it with its planted truth. ``scale``
    multiplies every row count and the number of files (partitions)."""
    if name not in SPECS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(SPECS)}")
    spec = SPECS[name]
    classes = [c for c, n in spec.counts.items() for _ in range(n * scale)]
    random.Random(name).shuffle(classes)  # placement is seed-independent
    wl = Workload(name, seed, [])
    for i, cls in enumerate(classes):
        url = f"https://site{i % 97}.example.com/{name}/{i}"
        raw, kind, status, text = _row(cls, i, seed, spec)
        wl.truth[url] = Truth(url, cls, kind, status, text)
        wl.raws.append((url, raw))
    os.makedirs(out_dir, exist_ok=True)
    n_files = spec.n_files * scale
    per = -(-len(classes) // n_files)
    for f in range(n_files):
        chunk = wl.raws[f * per : (f + 1) * per]
        path = os.path.join(out_dir, f"pages_{f:05d}.parquet")
        pq.write_table(
            pa.table(
                {
                    "url": pa.array([u for u, _ in chunk], pa.string()),
                    "html": pa.array([r for _, r in chunk], pa.binary()),
                }
            ),
            path,
        )
        wl.paths.append(path)
    return wl


# ---------------------------------------------------------------- near-dup
N_CLUSTERS, CLUSTER_SIZE, N_SINGLETONS, DOC_WORDS, SHINGLE_K = 40, 4, 80, 60, 5


def _shingles(text: str) -> set:
    w = text.split()
    return {tuple(w[j : j + SHINGLE_K]) for j in range(len(w) - SHINGLE_K + 1)}


def jaccard(a: str, b: str) -> float:
    sa, sb = _shingles(a), _shingles(b)
    return len(sa & sb) / len(sa | sb)


def make_near_dup_docs(seed: int, out_dir: str) -> tuple[str, set, int]:
    """Documents table with planted near-duplicate clusters. Each
    cluster is a base text (its smallest ``doc_id``) and variants that
    change one word at an end or append one, so each variant's exact
    5-word-shingle Jaccard to its base is above 0.9. Returns
    ``(sf_dir, kept doc_ids, n_docs)``; the clusters are confirmed here
    by exact shingle Jaccard: above 0.5 within, below 0.5 across."""
    rng = random.Random(seed)

    def word() -> str:
        return f"{rng.choice(_WORDS)}{rng.randrange(10_000)}"

    texts, groups = [], []
    for _ in range(N_CLUSTERS):
        base = [word() for _ in range(DOC_WORDS)]
        members = [base, base[:-1] + [word()], [word()] + base[1:], base + [word()]]
        groups.append(list(range(len(texts), len(texts) + CLUSTER_SIZE)))
        texts.extend(" ".join(m) for m in members[:CLUSTER_SIZE])
    for _ in range(N_SINGLETONS):
        groups.append([len(texts)])
        texts.append(" ".join(word() for _ in range(DOC_WORDS)))
    reps = [g[0] for g in groups]
    for g in groups:
        if any(jaccard(texts[g[0]], texts[d]) < 0.5 for d in g[1:]):
            raise RuntimeError("planted near-duplicate below the 0.5 Jaccard threshold")
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            if jaccard(texts[reps[a]], texts[reps[b]]) >= 0.5:
                raise RuntimeError("planted clusters overlap")
    os.makedirs(out_dir, exist_ok=True)
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["bench"] * n, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(out_dir, "documents.parquet"),
    )
    return out_dir, set(reps), n
