"""Scalar normalizers.

Semantics match the reference's string conventions (capabilities, not
code): value normalization ``$``/``,`` strip + ``(n)``→``-n``
(``pdf_extractor/sync_to_onedrive.py:40-55``), filename/key fold for
dedup (``sync_to_onedrive.py:201-216``), compare-normalize
(``validation/model_validator.py:80-85``), whitespace collapse
(``fine_tuning/data_processor.py:48``), and typographic ligature
expansion (``normalize_ligatures``, ``ﬁ`` → ``fi``).

``collapse_ws`` and ``normalize_ligatures`` also run on every kept text
block of the HTML and PDF kernels; ``normalize_ligatures`` returns ASCII
text unscanned, since no ligature is ASCII.

All functions are pure and deterministic; they are used both as per-row
kernels in the oracle and vectorized (pandas ``.map`` / pyarrow) in Ray
stages, and must match the DuckDB oracle SQL in ``__ray_entry__.py``
character-for-character where a SQL equivalent exists.
"""

from __future__ import annotations

import re

_PARENS_NEG = re.compile(r"^\((.*)\)$")
_WS = re.compile(r"\s+")
# punctuation folded to spaces for the normalized dedup key (M7 analog)
_KEY_PUNCT = re.compile(r"[^a-z0-9]+")

# Typographic ligatures → ASCII expansions (layout parsers emit these;
# the reference's extracted text keeps whatever PyMuPDF decodes — our
# engine normalizes them deterministically before offset assembly).
LIGATURES = {
    "ﬀ": "ff",
    "ﬁ": "fi",
    "ﬂ": "fl",
    "ﬃ": "ffi",
    "ﬄ": "ffl",
    "ﬅ": "st",
    "ﬆ": "st",
}
# every key is one code point in U+FB00..U+FB06, so one character class
# finds them all
_LIG_RE = re.compile("[%s]" % "".join(LIGATURES))


def format_value(value: str) -> str:
    """``$1,234.50`` → ``1234.50``; ``(123)`` → ``-123``; else trimmed."""
    if value is None:
        return ""
    v = str(value).strip()
    v = v.replace("$", "").replace(",", "")
    m = _PARENS_NEG.match(v)
    if m:
        v = "-" + m.group(1).strip()
    return v.strip()


def normalize_key(name: str) -> str:
    """Dedup key fold: lowercase, punctuation→space, collapse ws,
    drop a trailing ``pdf`` token (filename-extension analog)."""
    if name is None:
        return ""
    k = _KEY_PUNCT.sub(" ", name.lower())
    k = _WS.sub(" ", k).strip()
    if k.endswith(" pdf"):
        k = k[: -len(" pdf")]
    return k


def normalize_compare(value: str) -> str:
    """Equality-compare fold: lower, strip, remove all spaces."""
    if value is None:
        return ""
    return str(value).lower().strip().replace(" ", "")


def collapse_ws(text: str) -> str:
    """``' '.join(text.split())`` — the whitespace-collapsed text variant."""
    if text is None:
        return ""
    return " ".join(text.split())


def normalize_ligatures(text: str) -> str:
    """Expand every ``LIGATURES`` code point. ASCII text (checked in
    O(1)) holds none and is returned as is. ``str.translate`` is not
    used: on non-ASCII text it costs about ten times the regex."""
    if text.isascii():
        return text
    return _LIG_RE.sub(lambda m: LIGATURES[m.group(0)], text)
