"""Greedy overlap-based reconstruction of one article from its fragments.

The draft starts from the earliest-positioned fragment and grows by merging,
each round, the unplaced fragment with the largest word overlap against either
end of the draft, as long as the fragment's position decile is close enough to
that end. Any overlap of at least ``min_overlap`` (m) words starts with the
fragment's first m words or ends with its last m, so one index of those m-word
keys finds every candidate and a slice compare confirms it. Fragments that
never reach the overlap threshold are appended at the end in position order so
no content is silently lost. A final sweep collapses adjacent duplicated runs
left at bad junctions: it interns each m-word start once, keeps one index of
each key's last start for the whole call, and after each cut tests again only
the starts whose compares failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .fragments import Fragment


@dataclass
class AssemblyConfig:
    """Thresholds steering the merge loop.

    min_overlap: smallest word overlap accepted as evidence of adjacency.
    pos_window: maximum position-decile distance between a fragment and the
        draft end it merges onto.
    min_dup_run: shortest adjacent duplicated run the dedup pass collapses.
    """

    min_overlap: int = 3
    pos_window: int = 10
    min_dup_run: int = 5

    def __post_init__(self):
        if self.min_overlap < 1:
            raise ValueError("min_overlap must be >= 1")
        if not 0 <= self.pos_window <= 100:
            raise ValueError("pos_window must be in [0, 100]")
        if self.min_dup_run < 2:
            raise ValueError("min_dup_run must be >= 2")


class ArticleDraft(NamedTuple):
    """One article's assembled words plus how many fragments it placed, and
    how many of those were flushed onto the end unanchored."""

    words: list[str]
    fragments_used: int
    fragments_unanchored: int


def select_seed(fragments: list[Fragment]) -> Fragment:
    """Pick the starting fragment: minimum pos, then most words, then the
    earliest in list order."""
    if not fragments:
        raise ValueError("nothing to assemble: empty fragment list")
    return min(fragments, key=lambda f: (f.pos, -len(f.words)))


def _index(keys) -> dict[tuple, list[int]]:
    """Map each key to the ordinals at which it occurs, in increasing order."""
    index: dict[tuple, list[int]] = {}
    for ordinal, key in enumerate(keys):
        index.setdefault(key, []).append(ordinal)
    return index


def assemble(fragments: list[Fragment], config: AssemblyConfig | None = None) -> ArticleDraft:
    """Reconstruct an article draft from one URL group's fragments.

    Greedy loop: every round scores all unplaced fragments against both draft
    ends and merges the one with the globally largest overlap at or above
    ``min_overlap`` (ties broken by lower pos, then list order); the
    overlapping words are written once. When no fragment qualifies, the rest
    are flushed onto the end in (pos, list order) and counted as
    unanchored. Each fragment is placed exactly once, so the result is a pure
    function of the fragment list and config.
    """
    cfg = config or AssemblyConfig()
    seed = select_seed(fragments)
    dw = list(seed.words)  # the draft: its words, and the pos of its head and tail
    head_pos = tail_pos = seed.pos
    items = [f for f in fragments if f is not seed]

    m = cfg.min_overlap
    heads = _index(tuple(f.words[:m]) for f in items)
    tails = _index(tuple(f.words[-m:]) for f in items)
    max_k = max((len(f.words) for f in items), default=0)
    active = set(range(len(items)))

    while active:
        n = len(dw)
        for k in range(min(max_k, n), m - 1, -1):
            candidates: list[tuple[int, int, str]] = []
            # append: the fragment's first k words are the draft's last k
            for idx in heads.get(tuple(dw[n - k : n - k + m]), ()):
                frag = items[idx]
                if idx in active and abs(frag.pos - tail_pos) <= cfg.pos_window and (
                    frag.words[:k] == dw[n - k :]
                ):
                    candidates.append((frag.pos, idx, "append"))
            # prepend: the fragment's last k words are the draft's first k
            for idx in tails.get(tuple(dw[k - m : k]), ()):
                frag = items[idx]
                if idx in active and abs(frag.pos - head_pos) <= cfg.pos_window and (
                    frag.words[-k:] == dw[:k]
                ):
                    candidates.append((frag.pos, idx, "prepend"))
            if candidates:
                break
        else:
            break  # no fragment reaches min_overlap at either end

        # "append" < "prepend", so a fragment fitting both ends at this k appends
        _, idx, mode = min(candidates)
        frag = items[idx]
        active.discard(idx)
        if mode == "append":
            dw.extend(frag.words[k:])
            tail_pos = max(tail_pos, frag.pos)
        else:
            dw[:0] = frag.words[: len(frag.words) - k]
            head_pos = min(head_pos, frag.pos)

    # flush whatever never anchored, in position order, so nothing is dropped
    for i in sorted(active, key=lambda i: (items[i].pos, i)):
        dw.extend(items[i].words)
    return ArticleDraft(dw, len(fragments), len(active))


def deduplicate(words: list[str], config: AssemblyConfig | None = None) -> list[str]:
    """Collapse adjacent duplicated runs of at least ``min_dup_run`` words.

    Repeatedly finds the leftmost position i where some run of k words is
    immediately followed by an identical run, takes the largest such k, and
    keeps one copy, until no such run remains. Only adjacent duplicates are
    touched, so legitimate long-range repetition (quotes, refrains) survives.

    With m = ``min_dup_run``, a second copy of the run starts at j = i + k
    with the same first m words, so the candidate lengths at i are k = j - i
    for the later starts j of that m-word key, tried largest first. Each key
    is interned once per call, as a small int in ``ids``, kept in step with
    ``out``: the two copies are equal, so deleting the second leaves
    ``out[:i] + out[j:]`` and the key list ``ids[:i] + ids[j:]``. One loop
    does every pass, resting on two facts:

    - Whether a start has a run depends only on the words from it on, and a
      deletion creates no key value: for every start before the cut the
      later copies of its key can only vanish or move closer. A start whose
      key has no copy at least m words on is therefore dead for good, and a
      start past the cut keeps its outcome. So each pass tests again, in
      order, only the starts whose compares all failed, then scans on from
      where the last pass stopped. A failed start must be tested again: a
      cut can complete a run there, as in ``a b c d c d a b c d`` with
      m = 2, where removing the second ``c d`` leaves ``a b c d a b c d``.
    - One index per call, ``back``, holds each key's last start counted from
      the end of ``ids``, which a cut before that start leaves as it is.
      Every start from the cut on has its key's last start past the cut, so
      a cut at (i, j) moves only keys of the failed starts: by k if their
      last start lies before i, and to their last start in ``ids[:i]`` if
      it lay in the removed ``ids[i:j]``. Only the m - 1 keys straddling j
      can end there, since every other key there recurs k places on.
    """
    cfg = config or AssemblyConfig()
    m = cfg.min_dup_run
    out = list(words)
    interned: dict[tuple, int] = {}
    ids = [interned.setdefault(key, len(interned)) for key in zip(*(out[s:] for s in range(m)))]
    back = dict(zip(ids, range(len(ids), 0, -1)))
    failed: list[int] = []  # live starts before `start` whose compares all failed
    start = 0
    while True:
        n, size = len(out), len(ids)
        retest, failed = failed, []
        for i in chain(retest, range(start, n - 2 * m + 1)):
            key = ids[i]
            last = size - back[key]
            if last < i + m:
                continue  # dead: no later copy of the key at least m words on
            # later copies, up to where a second copy still fits in `out`
            hi = min(last, i + (n - i) // 2) + 1
            copies = []
            j = i + m - 1
            try:
                while True:
                    j = ids.index(key, j + 1, hi)
                    copies.append(j)
            except ValueError:
                pass
            for j in reversed(copies):  # largest run first
                # the copies' last keys first: a cheap test that rejects most failing compares
                if ids[j - m] == ids[2 * j - i - m] and out[i:j] == out[j : 2 * j - i]:
                    break
            else:
                failed.append(i)
                continue
            break
        else:
            return out
        k = j - i
        for key, e in {ids[e]: e for e in failed}.items():
            last = size - back[key]
            if last < i:
                back[key] -= k
            elif last < j:  # its last start is about to go; the next is in ids[e:i]
                back[key] = size - k - max(s for s in range(e, i) if ids[s] == key)
        failed += [e - k for e in retest if e >= j]  # untested, past the cut
        start = max(start - k, i)
        del out[j : 2 * j - i]
        del ids[i:j]
