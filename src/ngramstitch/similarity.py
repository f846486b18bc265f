"""Text similarity metrics for validating reconstructions against references.

Three measures: Levenshtein similarity (1 - edits / combined length),
sequence-matcher similarity (2M / TC over recursively matched contiguous
blocks), and Jaccard token overlap, which gates which article pairs are
treated as the same version of a text. Each contiguous block is found with C
substring searches: quick on word text, slow on low-entropy strings. The edit
distance runs only on what is left once the common prefix and suffix, found
by bisection with C slice compares, are trimmed. A pair whose two raw texts
are equal scores 1.0 on all three without being normalized or compared.
"""

from __future__ import annotations

import re
import unicodedata
from functools import reduce
from operator import add
from typing import Iterable, NamedTuple, Sequence

_TOKEN = re.compile(r"[^\W_]+")  # a run of letters and digits
DEFAULT_THRESHOLDS = (0.6, 0.7, 0.8)  # Jaccard cutoffs of the report's filter columns


class NormalizedText(NamedTuple):
    text: str
    tokens: list[str]


class SequenceMatchStats(NamedTuple):
    """Matching character total M and combined length TC behind the ratio."""

    matching_chars: int
    total_chars: int


class PairScores(NamedTuple):
    """One pair's scores, each field named by its key in the JSON report."""

    url: str
    levenshtein_similarity: float
    sequence_matcher_similarity: float
    jaccard: float


class FilterColumn(NamedTuple):
    """Aggregate means over the pairs the column's Jaccard filter keeps
    (all pairs for "No Filter"). Means are None when no pair qualifies."""

    label: str
    pair_count: int
    levenshtein_mean: float | None
    sequence_matcher_mean: float | None


class SimilarityReport(NamedTuple):
    pairs: list[PairScores]
    columns: list[FilterColumn]


# each aggregated metric: its JSON report key, its table label, its FilterColumn mean
METRICS = (
    ("levenshtein_similarity", "Levenshtein Similarity", "levenshtein_mean"),
    ("sequence_matcher_similarity", "SequenceMatcher Similarity", "sequence_matcher_mean"),
)


def preprocess(raw: str) -> NormalizedText:
    """Normalize text for comparison: NFKC fold, lowercase, then the runs of
    letters and digits are the tokens and the text is them joined by single
    spaces. The tokens are also the text's whitespace split, since no letter
    or digit is whitespace."""
    tokens = _TOKEN.findall(unicodedata.normalize("NFKC", raw).lower())
    return NormalizedText(" ".join(tokens), tokens)


def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions turning ``a`` into ``b``.

    The common prefix and suffix are trimmed first, since they can never
    contribute edits. Each is found by bisecting on its length with C slice
    compares: knowing ``a[:lo] == b[:lo]``, test ``a[lo:mid] == b[lo:mid]``.
    The suffix is bounded by what the prefix leaves of the shorter string,
    so the two cannot overlap.

    The middles then run through Myers' bit-parallel edit distance (Myers,
    JACM 1999) in Hyyrö's form for the global distance: one column of the DP
    matrix is held as vertical +1/-1 delta bit vectors over the shorter
    string, in Python ints of any width, and each character of the longer
    string advances it with a constant number of integer operations. The
    distance is read off the last column once: row 0's value there,
    ``len(b)``, plus that column's vertical deltas.
    """
    na, nb = len(a), len(b)
    lo, hi = 0, min(na, nb)
    while lo < hi:  # a[:lo] == b[:lo], and no common prefix is longer than hi
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    end, hi = 0, min(na, nb) - lo
    while end < hi:  # a[na - end :] == b[nb - end :], likewise
        mid = (end + hi + 1) // 2
        if a[na - mid : na - end] == b[nb - mid : nb - end]:
            end = mid
        else:
            hi = mid - 1
    a, b = a[lo : na - end], b[lo : nb - end]
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
    vp, vn = mask, 0  # column 0 is 0, 1, ..., len(a): every delta is +1
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        # row 0 is 0, 1, ..., len(b): a +1 horizontal delta enters at the top
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return len(b) + vp.bit_count() - vn.bit_count()


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - distance / (len(a) + len(b)); 1.0 when both strings are empty."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / total


def _longest_block(a: str, alo: int, ahi: int, b: str, blo: int, bhi: int):
    """Longest common block ``(i, j, size)`` of ``a[alo:ahi]`` and
    ``b[blo:bhi]``: earliest in ``a`` on ties, then earliest in ``b``.

    Scans start positions ``i`` of the ``a`` range upward, probing the ``b``
    range with C substring searches (``in``, ``find``) while holding the
    longest block found so far, ``best``. Any longer block starting in
    ``[i, i + best // 2]`` contains ``a[i + best // 2 : i + best + 1]``, so
    when that is absent from ``b`` all those starts are skipped at once.
    Otherwise, when ``a[i : i + best + 1]`` occurs in ``b``, the block at
    ``i`` is grown by galloping then bisecting on its length. ``best`` only
    grows on a strictly longer block and a skipped start can begin no block
    longer than ``best``, so the first ``i`` to reach the maximum is the
    earliest; ``find`` then gives its earliest ``j``.

    Cost: on word text the skip leaves few probes, mostly short ones. At
    worst there is about one probe per start in the ``a`` range, each a
    search of the whole ``b`` range, so about ``range_a * range_b`` steps in
    C; under about 2,500 characters CPython's search has no linear-time
    fallback, and one probe can cost needle length times range length. Text
    with long repeated stretches, such as runs of one letter or one line
    repeated, comes near that bound: there the search is many times slower
    than a linear-time scan would be.
    """
    bsub = b[blo:bhi]
    best_i, best = alo, 0
    i = alo
    while i + best < ahi:  # a longer block must end by ahi
        half = best // 2
        if a[i + half : i + best + 1] not in bsub:
            i += half + 1
            continue
        if a[i : i + best + 1] in bsub:
            # a[i : i + good] occurs in b, a[i : i + bad] does not (or runs past ahi)
            good, step = best + 1, 1
            bad = good + step
            while bad <= ahi - i and a[i : i + bad] in bsub:
                good, step = bad, 2 * step
                bad = good + step
            bad = min(bad, ahi - i + 1)
            while bad - good > 1:
                mid = (good + bad) // 2
                if a[i : i + mid] in bsub:
                    good = mid
                else:
                    bad = mid
            best_i, best = i, good
        i += 1
    if not best:
        return alo, blo, 0
    return best_i, blo + bsub.find(a[best_i : best_i + best]), best


def sequence_matcher_similarity(a: str, b: str) -> tuple[float, SequenceMatchStats]:
    """Similarity ratio 2M/TC from recursive longest-contiguous-block matching.

    Ratcliff-Obershelp matching (Ratcliff & Metzener 1988): take the longest
    common block (earliest in ``a`` on ties, then earliest in ``b``) and
    recurse on the text before and after it, run as an explicit stack of
    ranges. Each block search probes one range with C substring searches for
    slices of the other (``_longest_block``, which gives the cost). No junk
    or popularity heuristics are applied, so the result is a pure function
    of the two strings and equals the standard library's ``SequenceMatcher``
    with ``autojunk=False``. Both empty counts as identical (ratio 1).
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
    # plain left-to-right float sums: sum() compensates its rounding since
    # Python 3.12, which would change a mean's last bits, and the report's
    # bytes, with the interpreter version
    return FilterColumn(
        label=label,
        pair_count=len(rows),
        levenshtein_mean=reduce(add, (r.levenshtein_similarity for r in rows)) / len(rows),
        sequence_matcher_mean=reduce(add, (r.sequence_matcher_similarity for r in rows)) / len(rows),
    )


def validate_corpus(
    pairs: Sequence[tuple[str, str, str]],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> SimilarityReport:
    """Score (reconstructed, reference, url) pairs and aggregate the results.

    A pair whose two texts are equal scores 1.0 on all three metrics, as
    scoring its normalized forms would give, without being preprocessed.
    Otherwise both texts are preprocessed, then all three metrics run on the
    normalized forms. Aggregate means are reported unfiltered and restricted
    to pairs whose Jaccard token overlap strictly exceeds each threshold,
    mirroring the idea that high-overlap pairs almost surely are the same
    article version.
    """
    rows: list[PairScores] = []
    for reconstructed, reference, url in pairs:
        if reconstructed == reference:
            rows.append(PairScores(url, 1.0, 1.0, 1.0))
            continue
        norm_a = preprocess(reconstructed)
        norm_b = preprocess(reference)
        lev = levenshtein_similarity(norm_a.text, norm_b.text)
        seq, _ = sequence_matcher_similarity(norm_a.text, norm_b.text)
        jac = jaccard_similarity(norm_a.tokens, norm_b.tokens)
        rows.append(PairScores(url, lev, seq, jac))

    columns = [_column("No Filter", rows)]
    for threshold in thresholds:
        kept = [r for r in rows if r.jaccard > threshold]
        columns.append(_column(_threshold_label(threshold), kept))
    return SimilarityReport(pairs=rows, columns=columns)


def format_report_table(report: SimilarityReport) -> str:
    """Render the report as an aligned text table: metrics as rows, one column
    per Jaccard filter, plus a pair-count row."""
    headers = ["Metric"] + [c.label for c in report.columns]
    body = [
        [label] + ["-" if (v := getattr(c, mean)) is None else f"{v:.6f}" for c in report.columns]
        for _, label, mean in METRICS
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
    summary = [
        {"metric": key, "filter": col.label, "mean": getattr(col, mean), "pair_count": col.pair_count}
        for key, _, mean in METRICS
        for col in report.columns
    ]
    return {"summary": summary, "pairs": [r._asdict() for r in report.pairs]}
