"""Text similarity metrics for validating reconstructions against references.

Three measures: Levenshtein similarity (1 - edits / combined length),
sequence-matcher similarity (2M / TC over recursively matched contiguous
blocks), and Jaccard token overlap, which gates which article pairs are
treated as the same version of a text.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Sequence

_NON_ALNUM = re.compile(r"[\W_]+", re.UNICODE)
DEFAULT_THRESHOLDS = (0.6, 0.7, 0.8)  # Jaccard cutoffs of the report's filter columns


@dataclass(frozen=True)
class NormalizedText:
    text: str
    tokens: list[str]


@dataclass(frozen=True)
class SequenceMatchStats:
    """Matching character total M and combined length TC behind the ratio."""

    matching_chars: int
    total_chars: int


@dataclass(frozen=True)
class PairScores:
    url: str
    levenshtein: float
    sequence_matcher: float
    jaccard: float


@dataclass(frozen=True)
class FilterColumn:
    """Aggregate means over the pairs the column's Jaccard filter keeps
    (all pairs for "No Filter"). Means are None when no pair qualifies."""

    label: str
    pair_count: int
    levenshtein_mean: float | None
    sequence_matcher_mean: float | None


@dataclass(frozen=True)
class SimilarityReport:
    pairs: list[PairScores]
    columns: list[FilterColumn]


def preprocess(raw: str) -> NormalizedText:
    """Normalize text for comparison: NFKC fold, lowercase, every
    non-alphanumeric character becomes a space, whitespace collapsed."""
    text = unicodedata.normalize("NFKC", raw).lower()
    text = _NON_ALNUM.sub(" ", text).strip()
    return NormalizedText(text, text.split())


def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions turning ``a`` into ``b``.

    Myers' bit-parallel edit distance (Myers, JACM 1999) in Hyyrö's form for
    the global distance: one column of the DP matrix is held as vertical
    +1/-1 delta bit vectors over the shorter string, in Python ints of any
    width, and each character of the longer string advances it with a
    constant number of integer operations. A common prefix/suffix is trimmed
    first since it can never contribute edits.
    """
    if a == b:
        return 0
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a  # bit vectors span the shorter string

    peq: dict[str, int] = {}
    for i, char in enumerate(a):
        peq[char] = peq.get(char, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    vp, vn = mask, 0  # column 0 is 0, 1, ..., len(a): every delta is +1
    dist = len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        # row 0 is 0, 1, ..., len(b): a +1 horizontal delta enters at the top
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return dist


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - distance / (len(a) + len(b)); 1.0 when both strings are empty."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / total


def _longest_block(a: str, alo: int, ahi: int, b: str, blo: int, bhi: int):
    """Longest common block ``(i, j, size)`` of ``a[alo:ahi]`` and
    ``b[blo:bhi]``: earliest in ``a`` on ties, then earliest in ``b``.

    Builds a suffix automaton over the ``b`` range (Blumer et al. 1985), each
    state keeping the first end position of its strings, then walks the
    ``a`` range through it tracking the longest suffix that occurs in ``b``.
    Linear in the two range lengths.
    """
    length, link, first, trans = [0], [-1], [-1], [{}]
    last = 0
    for pos in range(blo, bhi):
        char = b[pos]
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        first.append(pos)
        trans.append({})
        p = last
        while p != -1 and char not in trans[p]:
            trans[p][char] = cur
            p = link[p]
        if p != -1:
            q = trans[p][char]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                first.append(first[q])
                trans.append(trans[q].copy())
                while p != -1 and trans[p].get(char) == q:
                    trans[p][char] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur

    best_i, best_j, best = alo, blo, 0
    state = size = 0
    for pos in range(alo, ahi):
        char = a[pos]
        while state and char not in trans[state]:
            state = link[state]
            size = length[state]
        state = trans[state].get(char, 0)
        if not state:
            size = 0
            continue
        size += 1
        # strict > keeps the earliest end, hence the earliest start, in a;
        # the state's first end position gives the earliest start in b
        if size > best:
            best_i, best_j, best = pos - size + 1, first[state] - size + 1, size
    return best_i, best_j, best


def sequence_matcher_similarity(a: str, b: str) -> tuple[float, SequenceMatchStats]:
    """Similarity ratio 2M/TC from recursive longest-contiguous-block matching.

    Ratcliff-Obershelp matching (Ratcliff & Metzener 1988): take the longest
    common block (earliest in ``a`` on ties, then earliest in ``b``) and
    recurse on the text before and after it, run as an explicit stack of
    ranges. Each block search is a suffix-automaton scan, linear in the range
    lengths. No junk or popularity heuristics are applied, so the result is a
    pure function of the two strings and equals the standard library's
    ``SequenceMatcher`` with ``autojunk=False``. Both empty counts as
    identical (ratio 1).
    """
    if a == b:
        # the whole string is the single matching block
        return 1.0, SequenceMatchStats(matching_chars=len(a), total_chars=2 * len(a))
    matching = 0
    stack = [(0, len(a), 0, len(b))]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        i, j, size = _longest_block(a, alo, ahi, b, blo, bhi)
        if size:
            matching += size
            if alo < i and blo < j:
                stack.append((alo, i, blo, j))
            if i + size < ahi and j + size < bhi:
                stack.append((i + size, ahi, j + size, bhi))
    total = len(a) + len(b)  # not 0: two empty strings are equal
    return 2.0 * matching / total, SequenceMatchStats(matching_chars=matching, total_chars=total)


def jaccard_similarity(tokens_a: Iterable[str], tokens_b: Iterable[str]) -> float:
    """Intersection over union of the two token sets; 1.0 when both are empty."""
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)


def _threshold_label(threshold: float) -> str:
    percent = threshold * 100
    if abs(percent - round(percent)) < 1e-9:
        return f">{round(percent)}%"
    return f">{percent:g}%"


def _column(label: str, rows: Sequence[PairScores]) -> FilterColumn:
    if not rows:
        return FilterColumn(label, 0, None, None)
    return FilterColumn(
        label=label,
        pair_count=len(rows),
        levenshtein_mean=sum(r.levenshtein for r in rows) / len(rows),
        sequence_matcher_mean=sum(r.sequence_matcher for r in rows) / len(rows),
    )


def validate_corpus(
    pairs: Sequence[tuple[str, str, str]],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> SimilarityReport:
    """Score (reconstructed, reference, url) pairs and aggregate the results.

    Both texts are preprocessed, then all three metrics run on the normalized
    forms. Aggregate means are reported unfiltered and restricted to pairs
    whose Jaccard token overlap strictly exceeds each threshold, mirroring the
    idea that high-overlap pairs almost surely are the same article version.
    """
    rows: list[PairScores] = []
    for reconstructed, reference, url in pairs:
        norm_a = preprocess(reconstructed)
        norm_b = preprocess(reference)
        lev = levenshtein_similarity(norm_a.text, norm_b.text)
        seq, _ = sequence_matcher_similarity(norm_a.text, norm_b.text)
        jac = jaccard_similarity(norm_a.tokens, norm_b.tokens)
        rows.append(PairScores(url=url, levenshtein=lev, sequence_matcher=seq, jaccard=jac))

    columns = [_column("No Filter", rows)]
    for threshold in thresholds:
        kept = [r for r in rows if r.jaccard > threshold]
        columns.append(_column(_threshold_label(threshold), kept))
    return SimilarityReport(pairs=rows, columns=columns)


def format_report_table(report: SimilarityReport) -> str:
    """Render the report as an aligned text table: metrics as rows, one column
    per Jaccard filter, plus a pair-count row."""
    headers = ["Metric"] + [c.label for c in report.columns]
    metric_rows = [
        ("Levenshtein Similarity", [c.levenshtein_mean for c in report.columns]),
        ("SequenceMatcher Similarity", [c.sequence_matcher_mean for c in report.columns]),
    ]
    body = [
        [name] + ["-" if v is None else f"{v:.6f}" for v in values]
        for name, values in metric_rows
    ]
    body.append(["Pairs"] + [str(c.pair_count) for c in report.columns])

    widths = [max(len(row[i]) for row in [headers] + body) for i in range(len(headers))]
    lines = []
    for row in [headers] + body:
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        lines.append("  ".join([first] + rest).rstrip())
    return "\n".join(lines)


def report_to_json_dict(report: SimilarityReport) -> dict:
    """Machine-readable report: one summary row per (metric, filter) plus the
    per-pair scores."""
    summary = []
    for metric, attr in (
        ("levenshtein_similarity", "levenshtein_mean"),
        ("sequence_matcher_similarity", "sequence_matcher_mean"),
    ):
        for col in report.columns:
            summary.append(
                {
                    "metric": metric,
                    "filter": col.label,
                    "mean": getattr(col, attr),
                    "pair_count": col.pair_count,
                }
            )
    pairs = [
        {
            "url": r.url,
            "levenshtein_similarity": r.levenshtein,
            "sequence_matcher_similarity": r.sequence_matcher,
            "jaccard": r.jaccard,
        }
        for r in report.pairs
    ]
    return {"summary": summary, "pairs": pairs}
