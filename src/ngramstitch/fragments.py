"""Turn records into cleaned word-sequence fragments.

A fragment is the pre + ngram + post snippet of one record, whitespace
normalized. Early-article fragments can carry a feed quirk where the end of
the article is glued in front of the real content, delimited by a standalone
"/"; ``strip_wraparound_artifact`` removes that prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import NgramRecord

# the wrap-around quirk only shows up near the start of an article
WRAPAROUND_POS_LIMIT = 20
WRAPAROUND_SEPARATOR = "/"


@dataclass
class Fragment:
    """A word sequence centered on one unigram, with its position decile."""

    words: list[str]
    pos: int


def build_fragment(record: NgramRecord) -> Fragment | None:
    """Join pre + ngram + post into a fragment, collapsing all whitespace.

    Returns None when nothing remains (blank snippet all around).
    """
    ngram, _, _, _, pos, pre, post, _ = record
    words = f"{pre} {ngram} {post}".split()
    if not words:
        return None
    return Fragment(words, pos)


def strip_wraparound_artifact(fragment: Fragment) -> Fragment | None:
    """Drop erroneously prepended end-of-article content from early fragments.

    When the fragment sits near the article start (pos below 20) and contains
    a standalone "/" token with at least one word before it, everything up to
    and including the first such separator is assumed to be tail content that
    leaked into the "pre" snippet and is discarded. A "/" glued inside a token
    (e.g. "km/h") never matches, nor does one in the leading position.

    Returns the fragment itself when the rule does not apply, a new trimmed
    fragment when it does, and None when nothing remains after the cut.
    """
    words = fragment.words
    if fragment.pos >= WRAPAROUND_POS_LIMIT or WRAPAROUND_SEPARATOR not in words[1:]:
        return fragment
    remainder = words[words.index(WRAPAROUND_SEPARATOR, 1) + 1 :]
    if not remainder:
        return None
    return Fragment(remainder, fragment.pos)
