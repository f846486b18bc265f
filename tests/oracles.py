"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: full-matrix DP, brute-force scans,
straight-line greedy loops. Slow but obviously correct, and sharing no code
with the implementations under test.
"""

from __future__ import annotations

import gzip
import json
import re
import unicodedata
from datetime import datetime, timezone


def levenshtein_dp(a: str, b: str) -> int:
    """Full-matrix quadratic DP edit distance."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        char_a = a[i - 1]
        row, above = table[i], table[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                above[j] + 1,
                row[j - 1] + 1,
                above[j - 1] + (char_a != b[j - 1]),
            )
    return table[n][m]


def preprocess_reference(raw: str) -> tuple[str, list[str]]:
    """NFKC fold, lowercase, each run of non-word characters or underscores
    replaced by one space, ends stripped; the text and its whitespace split."""
    text = unicodedata.normalize("NFKC", raw).lower()
    text = re.sub(r"[\W_]+", " ", text).strip()
    return text, text.split()


def ratcliff_obershelp_matches(a: str, b: str) -> int:
    """Total matched characters from recursive longest-common-block matching.

    The block search scans every (i, j) start pair, keeping the first longest
    run found, which makes ties resolve to the earliest start in ``a`` and
    then in ``b``.
    """

    def longest_block(alo: int, ahi: int, blo: int, bhi: int):
        best_i, best_j, best_n = alo, blo, 0
        for i in range(alo, ahi):
            if ahi - i <= best_n:
                break
            for j in range(blo, bhi):
                n = 0
                while i + n < ahi and j + n < bhi and a[i + n] == b[j + n]:
                    n += 1
                if n > best_n:
                    best_i, best_j, best_n = i, j, n
        return best_i, best_j, best_n

    def recurse(alo: int, ahi: int, blo: int, bhi: int) -> int:
        i, j, n = longest_block(alo, ahi, blo, bhi)
        if n == 0:
            return 0
        return n + recurse(alo, i, blo, j) + recurse(i + n, ahi, j + n, bhi)

    return recurse(0, len(a), 0, len(b))


def overlap_scan(left: list[str], right: list[str]) -> int:
    """Largest k with the last k words of ``left`` equal to the first k of
    ``right``, checking every k by brute force."""
    best = 0
    for k in range(1, min(len(left), len(right)) + 1):
        if left[len(left) - k :] == right[:k]:
            best = k
    return best


def find_adjacent_dup(words: list[str], min_run: int):
    """Leftmost (i, k) with words[i:i+k] == words[i+k:i+2k] and k maximal at
    that i, scanning every pair; None when no such run exists."""
    n = len(words)
    for i in range(n):
        best_k = 0
        for k in range(min_run, (n - i) // 2 + 1):
            if words[i : i + k] == words[i + k : i + 2 * k]:
                best_k = max(best_k, k)
        if best_k:
            return i, best_k
    return None


def dedup_reference(words: list[str], min_run: int) -> list[str]:
    out = list(words)
    while True:
        hit = find_adjacent_dup(out, min_run)
        if hit is None:
            return out
        i, k = hit
        del out[i + k : i + 2 * k]


def grow_reference(fragments, min_overlap: int, pos_window: int):
    """Straight-line greedy growth of one draft from the seed, mirroring the
    published contract.

    Ties go to the fragment earlier in the list. Returns (words,
    unplaced, merges): unplaced lists the list positions of the fragments
    never merged, seed excluded, in list order, and merges lists (list
    position, mode, k) in placement order.
    """
    seed = min(
        range(len(fragments)), key=lambda i: (fragments[i].pos, -len(fragments[i].words), i)
    )
    words = list(fragments[seed].words)
    head_pos = tail_pos = fragments[seed].pos
    remaining = [i for i in range(len(fragments)) if i != seed]
    merges = []

    while remaining:
        best = None  # (key, position, mode, k)
        for i in remaining:
            frag = fragments[i]
            append_k = prepend_k = 0
            if abs(frag.pos - tail_pos) <= pos_window:
                append_k = overlap_scan(words, frag.words)
            if abs(frag.pos - head_pos) <= pos_window:
                prepend_k = overlap_scan(frag.words, words)
            k = max(append_k, prepend_k)
            if k < min_overlap:
                continue
            mode = "append" if append_k >= prepend_k else "prepend"
            key = (-k, frag.pos, i)
            if best is None or key < best[0]:
                best = (key, i, mode, k)
        if best is None:
            break
        _, i, mode, k = best
        frag = fragments[i]
        assert (
            abs(frag.pos - (tail_pos if mode == "append" else head_pos)) <= pos_window
        ), "pos gate violated"
        if mode == "append":
            words = words + frag.words[k:]
            tail_pos = max(tail_pos, frag.pos)
        else:
            words = frag.words[: len(frag.words) - k] + words
            head_pos = min(head_pos, frag.pos)
        remaining.remove(i)
        merges.append((i, mode, k))
    return words, remaining, merges


def assemble_reference(fragments, min_overlap: int, pos_window: int):
    """``grow_reference``, then every fragment it never merged appended in
    (pos, list position) order. Returns (words, fragments_used,
    fragments_unanchored, merges), merges as ``grow_reference`` gives them.
    """
    words, unplaced, merges = grow_reference(fragments, min_overlap, pos_window)
    for i in sorted(unplaced, key=lambda i: (fragments[i].pos, i)):
        words = words + fragments[i].words
    return words, 1 + len(merges) + len(unplaced), len(unplaced), merges


def parse_reference(data: bytes, langs=None, url_include=(), url_exclude=()):
    """Line-by-line restatement of the record parsing rules.

    ``data`` is the whole stream (gunzipped here when it starts with the gzip
    magic). Each field is read under its own JSON key, except that
    ``lang_type`` is "type". Returns
    (records, counts): each record is a dict of its field values, and counts
    holds the same buckets as ``ParseDiagnostics``. Every check runs in the
    documented order and builds the full record before classifying it.
    """
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)

    def as_int(value):
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value) if value.is_integer() else None
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                return None
        return None

    def iso_form(text):
        # by the shape of the text, "9" for each ASCII digit: CPython 3.10's
        # documented fromisoformat grammar, with an hour below 24
        shape = "".join("9" if c in "0123456789" else c for c in text)
        if shape[:10] != "9999-99-99":
            return False
        if len(shape) == 10:
            return True
        rest = shape[11:]  # after the date and its one-character separator
        signs = [i for i, c in enumerate(rest) if c in "+-"]
        cut = signs[0] if signs else len(rest)
        return (
            rest[:cut] in ("99", "99:99", "99:99:99", "99:99:99.999", "99:99:99.999999")
            and rest[cut:].replace("-", "+") in ("", "+99:99", "+99:99:99", "+99:99:99.999999")
            and int(text[11:13]) < 24
        )

    def as_date(value):
        # that grammar or YYYYMMDDHHMMSS; any other text is None on every Python
        if not isinstance(value, str):
            return None
        text = value.strip()
        if text.endswith("Z"):
            text = text[:-1] + "+00:00"
        try:
            if len(text) == 14 and all(c in "0123456789" for c in text):
                parsed = datetime.strptime(text, "%Y%m%d%H%M%S")
            elif iso_form(text):
                parsed = datetime.fromisoformat(text)
            else:
                return None
        except ValueError:
            return None
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed

    counts = dict.fromkeys(
        [
            "lines_read",
            "records_ok",
            "lines_malformed",
            "records_type2_skipped",
            "records_filtered",
            "pos_clamped",
        ],
        0,
    )
    records = []
    for line in data.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        counts["lines_read"] += 1
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            counts["lines_malformed"] += 1
            continue
        if not isinstance(obj, dict):
            counts["lines_malformed"] += 1
            continue
        ngram = obj.get("ngram")
        url = obj.get("url")
        lang_type = as_int(obj.get("type"))
        pos = as_int(obj.get("pos"))
        pre = obj.get("pre", "")
        post = obj.get("post", "")
        lang = obj.get("lang", "")
        valid = (
            isinstance(ngram, str)
            and ngram.strip() != ""
            and isinstance(url, str)
            and url.strip() != ""
            and lang_type in (1, 2)
            and pos is not None
            and isinstance(pre, str)
            and isinstance(post, str)
            and isinstance(lang, str)
        )
        if not valid:
            counts["lines_malformed"] += 1
            continue
        if pos < 0:
            pos = 0
            counts["pos_clamped"] += 1
        elif pos > 100:
            pos = 100
            counts["pos_clamped"] += 1
        record = {
            "ngram": ngram,
            "url": url,
            "lang": lang,
            "lang_type": lang_type,
            "pos": pos,
            "pre": pre,
            "post": post,
            "date": as_date(obj.get("date")),
        }
        if lang_type == 2:
            counts["records_type2_skipped"] += 1
        elif langs is not None and lang not in langs:
            counts["records_filtered"] += 1
        elif url_include and not any(pat in url for pat in url_include):
            counts["records_filtered"] += 1
        elif any(pat in url for pat in url_exclude):
            counts["records_filtered"] += 1
        else:
            counts["records_ok"] += 1
            records.append(record)
    return records, counts
