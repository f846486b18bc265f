"""Shred a known text into synthetic ngram records for round-trip testing.

The shredder is the ground-truth generator: given an article whose text we
control, it emits records shaped exactly like the real feed, so the full
parse -> fragment -> assemble -> dedup chain can be checked word-for-word
against the source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime

from .records import NgramRecord

MODE_ALL_OCCURRENCES = "all_occurrences"
MODE_DISTINCT_FIRST = "distinct_first"


def decile_pos(index: int, total: int) -> int:
    """Position value for word ``index`` of ``total``: the decile floor, 0-90."""
    return (10 * index // total) * 10


@dataclass(frozen=True)
class ShredConfig:
    """window: context words kept on each side of the unigram.
    mode: one record per word occurrence, or one per distinct token (keeping
        the first occurrence's context).
    drop_rate: fraction of records withheld at random (seeded), to simulate
        incomplete feed coverage.
    """

    window: int = 7
    mode: str = MODE_ALL_OCCURRENCES
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if self.mode not in (MODE_ALL_OCCURRENCES, MODE_DISTINCT_FIRST):
            raise ValueError(f"unknown shred mode: {self.mode!r}")


def shred(
    text: str,
    config: ShredConfig | None = None,
    url: str = "https://synthetic.test/article",
    lang: str = "en",
    date: datetime | None = None,
) -> list[NgramRecord]:
    """Split ``text`` into words and emit one record per selected word.

    Record i carries the word as its ngram, up to ``window`` words before and
    after as pre/post context, and the word's position decile. In
    all-occurrences mode every index is selected; in distinct-first mode only
    the first occurrence of each token is. With a non-zero drop rate each
    selected record is then independently withheld using the seeded RNG, so
    the same config always produces the same list.
    """
    cfg = config or ShredConfig()
    words = text.split()
    if not words:
        raise ValueError("cannot shred empty text")
    total = len(words)

    if cfg.mode == MODE_ALL_OCCURRENCES:
        indices = range(total)
    else:
        seen: set[str] = set()
        indices = [i for i, w in enumerate(words) if not (w in seen or seen.add(w))]

    rng = random.Random(cfg.seed)
    records = []
    for i in indices:
        if cfg.drop_rate > 0 and rng.random() < cfg.drop_rate:
            continue
        records.append(
            NgramRecord(
                ngram=words[i],
                url=url,
                lang=lang,
                lang_type=1,
                pos=decile_pos(i, total),
                pre=" ".join(words[max(0, i - cfg.window) : i]),
                post=" ".join(words[i + 1 : min(total, i + cfg.window + 1)]),
                date=date,
            )
        )
    return records
