"""Seeded input generator for the benchmark workloads.

Each workload is a set of webngrams-shaped record files plus a reference
corpus ({url, text} per line) for the articles that survive the workload's
filters. Everything is a pure function of (workload, seed): the same seed
gives the same bytes.

Records are written here rather than through ``ngramstitch.shredder`` on
purpose: the benchmark compares two versions of the program on identical
inputs, so the inputs must not change when the program does. The record
shape mirrors the shredder's (window words of context on each side, decile
pos, all-occurrences or distinct-first selection, seeded drop).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from pathlib import Path

WINDOW = 7
MIN_DUP_RUN = 5  # AssemblyConfig.min_dup_run default
MIN_OVERLAP = 3  # AssemblyConfig.min_overlap default
MAX_CHAIN_STEP = 2 * WINDOW + 1 - MIN_OVERLAP
LEVELING_DRAWS = 8
MODE_ALL = "all_occurrences"
MODE_DISTINCT = "distinct_first"

KEPT_HOST = "https://www.herald.test/"
OTHER_HOSTS = ("https://www.courier.test/", "https://www.gazette.test/")
OTHER_LANGS = ("de", "fr", "es", "it")
TYPE2_LANGS = ("zh", "ja")
FIRST_TICK = datetime(2025, 3, 14, 10, 15, tzinfo=timezone.utc)

_SYLLABLES = (
    "ba co da el fi ga ho in ja ka lo ma ne or pa qui ra se ti ul "
    "ve wa xe yo zu bri cla dro fen gri mon tas per lun vik sor"
).split()
_FUNCTION_WORDS = (
    "the of and to a in that for on with as was at by from has its but new said"
).split()


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs and the flags its round trip uses.

    ``lengths`` spans the article sizes; the sizes themselves are fixed
    (evenly spaced) and only the words, drops and noise depend on the seed,
    so work per run stays level across seeds.
    """

    articles: int
    lengths: tuple[int, int]
    mode: str = MODE_ALL
    drop_rate: float = 0.0
    unreached_share: float | None = None
    files: int = 1
    gzip: bool = False
    workers: int = 1
    langs: list[str] | None = None
    url_include: list[str] = field(default_factory=list)
    # feed-only noise: articles that the filters drop, per kept article
    distractors_per_kept: int = 0
    malformed_per_file: int = 0
    out_of_range_pos: int = 0


# Each workload stresses a different layer; the reasons are recorded with the
# workload names in BENCHMARK.json and the layer map in baseline.json.
WORKLOADS: dict[str, Workload] = {
    "feed-filtered": Workload(
        articles=110, lengths=(120, 240), files=4, gzip=True, workers=1,
        langs=["en"], url_include=["herald.test/"],
        distractors_per_kept=9, malformed_per_file=6, out_of_range_pos=40,
    ),
    "news-dense": Workload(articles=150, lengths=(100, 600), workers=2),
    "news-gappy": Workload(
        articles=48, lengths=(200, 400), mode=MODE_DISTINCT, drop_rate=0.3,
        unreached_share=0.25, workers=2,
    ),
}


def make_vocab(rng: random.Random, size: int = 2000) -> list[str]:
    """Function words first (the most frequent ranks), then seeded
    three-syllable words."""
    vocab = list(_FUNCTION_WORDS)
    seen = set(vocab)
    while len(vocab) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def zipf_cum_weights(size: int, exponent: float = 1.05) -> list[float]:
    return list(accumulate(1.0 / rank**exponent for rank in range(1, size + 1)))


def make_article(rng: random.Random, n_words: int, vocab, cum_weights) -> list[str]:
    """Zipf-sampled words in which no MIN_DUP_RUN-gram occurs twice.

    A repeated adjacent run of k >= MIN_DUP_RUN words would repeat its first
    MIN_DUP_RUN-gram, so rejecting repeated grams as the text grows rules out
    every adjacent duplicate run in linear time.
    """
    words: list[str] = []
    grams: set[tuple[str, ...]] = set()
    tail = MIN_DUP_RUN - 1
    while len(words) < n_words:
        for _ in range(1000):
            word = rng.choices(vocab, cum_weights=cum_weights)[0]
            gram = (*words[-tail:], word) if len(words) >= tail else None
            if gram is None or gram not in grams:
                break
        else:
            raise RuntimeError("cannot extend article without repeating a gram")
        if gram is not None:
            grams.add(gram)
        words.append(word)
    return words


def selected_centers(rng: random.Random, words: list[str], spec: "Workload") -> list[int]:
    """Indices of the words that get a record, after the seeded drop.

    With ``spec.unreached_share`` set, the feed also misses one stretch of
    the article: every record centred in the MAX_CHAIN_STEP words before the
    last ``unreached_share`` of the kept records is dropped, so the overlap
    chain breaks there. Of a few seeded draws, the one whose share of
    fragments past the first break comes closest to the target is kept.
    That share sets how much text never anchors, which is what dedup and
    the similarity metrics pay for; leveling it keeps the work per run
    steady across seeds.
    """
    if spec.mode == MODE_ALL:
        indices = list(range(len(words)))
    else:
        seen: set[str] = set()
        indices = [i for i, w in enumerate(words) if not (w in seen or seen.add(w))]
    if spec.drop_rate == 0:
        return indices
    target = spec.unreached_share
    best: tuple[float, list[int]] | None = None
    for _ in range(LEVELING_DRAWS if target is not None else 1):
        kept = [i for i in indices if rng.random() >= spec.drop_rate]
        if target is None or not kept:
            return kept
        cut = kept[min(len(kept) - 1, int(len(kept) * (1 - target)))]
        kept = [i for i in kept if not cut - MAX_CHAIN_STEP <= i < cut]
        miss = abs(unreached_share(kept) - target)
        if best is None or miss < best[0]:
            best = (miss, kept)
    return best[1]


def unreached_share(centers: list[int]) -> float:
    """Share of fragments past the first break in the overlap chain.

    Fragments centred more than MAX_CHAIN_STEP words apart share fewer than
    min_overlap words, so the chain grown from the first fragment ends at the
    first such gap.
    """
    if not centers:
        return 0.0
    reach = 1
    while reach < len(centers) and centers[reach] - centers[reach - 1] <= MAX_CHAIN_STEP:
        reach += 1
    return 1 - reach / len(centers)


def shred_words(words: list[str], centers: list[int]):
    """Yield (index, pos, pre, post) per selected word, as the feed does."""
    total = len(words)
    for i in centers:
        pre_words = words[max(0, i - WINDOW) : i]
        if i < WINDOW:
            # the feed's wrap-around quirk: the article's end leaks into the
            # context of its first words, before a standalone "/"
            pre_words = words[total - (WINDOW - i) :] + ["/"] + pre_words
        yield i, (10 * i // total) * 10, " ".join(pre_words), " ".join(words[i + 1 : i + 1 + WINDOW])


def _record_line(date: str, ngram: str, lang: str, lang_type, pos, pre: str, post: str, url: str) -> str:
    return json.dumps(
        {"date": date, "ngram": ngram, "lang": lang, "type": lang_type,
         "pos": pos, "pre": pre, "post": post, "url": url},
        ensure_ascii=False,
    )


_MALFORMED = (
    '{"date": "2025-03-14T10:15:00Z", "ngram": "cut", "lang": "en", "ty',
    '["not", "an", "object"]',
    '{"ngram": "nourl", "lang": "en", "type": 1, "pos": 5, "pre": "", "post": ""}',
    '{"ngram": "x", "lang": "en", "type": 3, "pos": 5, "url": "https://www.herald.test/bad"}',
    '{"ngram": "x", "lang": "en", "type": 1, "pos": "middle", "url": "https://www.herald.test/bad"}',
)
_BAD_UTF8 = b'{"ngram": "\xff\xfe", "lang": "en", "type": 1, "pos": 1, "url": "u"}'


@dataclass
class Generated:
    inputs: list[Path]
    reference: Path
    expected_groups: list[str]
    complete: bool  # every word of every article has its record
    diagnostics: dict[str, int]


def generate(name: str, seed: int, out_dir: Path) -> Generated:
    """Write workload ``name``'s inputs for ``seed`` into ``out_dir``."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    vocab = make_vocab(rng)
    cum = zipf_cum_weights(len(vocab))
    out_dir.mkdir(parents=True, exist_ok=True)

    lo, hi = spec.lengths
    n = spec.articles
    lengths = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]

    file_lines: list[list[bytes]] = [[] for _ in range(spec.files)]
    references: list[tuple[str, str]] = []
    diags = dict.fromkeys(
        ("lines_read", "records_ok", "lines_malformed", "records_type2_skipped",
         "records_filtered", "pos_clamped"), 0,
    )

    def emit(slot: int, url: str, lang: str, lang_type: int, words: list[str],
             centers, bucket: str, clamp: int = 0) -> int:
        date = (FIRST_TICK + timedelta(minutes=15 * slot)).strftime("%Y-%m-%dT%H:%M:%SZ")
        count = 0
        for i, pos, pre, post in shred_words(words, centers):
            if count < clamp:
                pos = (-3, 101, 150)[count % 3]
                diags["pos_clamped"] += 1
            file_lines[slot].append(
                _record_line(date, words[i], lang, lang_type, pos, pre, post, url).encode()
            )
            count += 1
        diags["lines_read"] += count
        diags[bucket] += count
        return count

    clamps_left = spec.out_of_range_pos
    for a in range(n):
        words = make_article(rng, lengths[a], vocab, cum)
        url = f"{KEPT_HOST}{seed}/a{a:04d}"
        slot = a % spec.files
        kept = emit(slot, url, "en", 1, words, selected_centers(rng, words, spec), "records_ok")
        references.append((url, " ".join(words)))
        if kept == 0:
            raise RuntimeError(f"{url}: every record dropped")
        for d in range(spec.distractors_per_kept):
            # filler text: the filters drop it, so no duplicate guard needed
            filler = rng.choices(vocab, cum_weights=cum, k=lengths[a])
            every = range(len(filler))
            kind = d % 3
            if kind == 0:
                host = OTHER_HOSTS[d % len(OTHER_HOSTS)]
                emit(slot, f"{host}{seed}/d{a:04d}-{d}", "en", 1, filler, every,
                     "records_filtered")
            elif kind == 1:
                lang = OTHER_LANGS[d % len(OTHER_LANGS)]
                clamp = min(clamps_left, 5)
                clamps_left -= clamp
                emit(slot, f"{KEPT_HOST}{seed}/{lang}/d{a:04d}-{d}", lang, 1, filler,
                     every, "records_filtered", clamp)
            else:
                lang = TYPE2_LANGS[d % len(TYPE2_LANGS)]
                emit(slot, f"{KEPT_HOST}{seed}/{lang}/d{a:04d}-{d}", lang, 2, filler,
                     every, "records_type2_skipped")

    for lines in file_lines:
        for m in range(spec.malformed_per_file):
            bad = _BAD_UTF8 if m % 6 == 5 else _MALFORMED[m % len(_MALFORMED)].encode()
            lines.insert(rng.randrange(len(lines) + 1), bad)
            diags["lines_read"] += 1
            diags["lines_malformed"] += 1

    inputs = []
    for slot, lines in enumerate(file_lines):
        stamp = (FIRST_TICK + timedelta(minutes=15 * slot)).strftime("%Y%m%d%H%M%S")
        payload = b"\n".join(lines) + b"\n"
        if spec.gzip:
            path = out_dir / f"{stamp}.webngrams.json.gz"
            with open(path, "wb") as raw, gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=6
            ) as gz:
                gz.write(payload)
        else:
            path = out_dir / f"{stamp}.webngrams.ndjson"
            path.write_bytes(payload)
        inputs.append(path)

    reference = out_dir / "reference.ndjson"
    with open(reference, "w", encoding="utf-8") as fh:
        for url, text in references:
            fh.write(json.dumps({"url": url, "text": text}, ensure_ascii=False) + "\n")

    return Generated(
        inputs=inputs,
        reference=reference,
        expected_groups=[url for url, _ in references],
        complete=spec.drop_rate == 0 and spec.mode == MODE_ALL,
        diagnostics=diags,
    )


def digest_files(paths) -> str:
    """sha256 over the files' bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()
