"""Greedy overlap-based reconstruction of one article from its fragments.

Assembly has two parts, the grow step and the flush. The grow step starts the
draft from the earliest-positioned fragment and merges, each round, the
unplaced fragment with the largest word overlap against either end of the
draft, as long as the fragment's position decile is close enough to that end.
No fragment has a lower pos than the seed, so the head's pos is the seed's.
Any overlap of at least ``min_overlap`` (m) words starts with the fragment's
first m words or ends with its last m, so one index of those m-word keys
finds every candidate and a slice compare confirms it. Each end keeps its
best candidate between rounds and is searched again only when a fragment was
merged onto it, when the fragment it held was merged onto the other end, or
when the draft was shorter than the longest fragment at its last search and
has grown since; a fragment fitting both ends equally well is appended. The
flush then appends the fragments the grow step never merged, in position
order, so no content is silently lost. A final sweep collapses adjacent
duplicated runs left at bad junctions: it interns each m-word start once,
keeps one index of each key's last start for the whole call, and after each
cut tests again only the starts whose compares failed.
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


def _grow(fragments: list[Fragment], config: AssemblyConfig) -> tuple[list[str], list[Fragment]]:
    """Grow one draft from the seed by greedy merges, and return its words
    and the fragments never merged, in list order, without the seed.

    Every round merges the unplaced fragment with the largest overlap at or
    above ``min_overlap`` against either draft end, ties broken by lower pos,
    then list order, and a fragment fitting both ends equally well is
    appended; the overlapping words are written once. The loop stops when no
    fragment qualifies. The seed has the lowest pos of all fragments, so the
    head's pos stays the seed's, and the head's pos gate is only an upper
    bound.

    Each end keeps its best candidate, as (-k, pos, index) or None, between
    rounds. Between an end's searches its words and pos stay as they were and
    its candidates can only be placed elsewhere, so its best stays best while
    unplaced, and the end is searched again only when:

    - a fragment was merged onto it;
    - the fragment it holds was just merged onto the other end;
    - the draft was shorter than the longest fragment at its last search and
      has grown since: an overlap longer than the old draft is new, so only
      those lengths are searched, and the held candidate stands if none fits.
    """
    seed = select_seed(fragments)
    dw = list(seed.words)  # the draft's words
    seed_pos = tail_pos = seed.pos  # the head's pos, and the tail's
    items = [f for f in fragments if f is not seed]

    m, window = config.min_overlap, config.pos_window
    heads: dict[tuple, list[int]] = {}
    tails: dict[tuple, list[int]] = {}
    words_of: list[list[str]] = []
    pos: list[int] = []
    max_k = 0
    for idx, frag in enumerate(items):
        words = frag.words
        heads.setdefault(tuple(words[:m]), []).append(idx)
        tails.setdefault(tuple(words[-m:]), []).append(idx)
        words_of.append(words)
        pos.append(frag.pos)
        if len(words) > max_k:
            max_k = len(words)
    active = set(range(len(items)))

    tail = head = None  # each end's best candidate (-k, pos, index), or None
    tail_n = head_n = -1  # the draft's length at each end's last search; -1 once stale
    while active:
        n = len(dw)
        top = min(max_k, n)
        if tail_n < top:  # append: the fragment's first k words are the draft's last k
            for k in range(top, max(m, tail_n + 1) - 1, -1):
                found = None
                for idx in heads.get(tuple(dw[n - k : n - k + m]), ()):
                    p = pos[idx]
                    if (idx in active and -window <= p - tail_pos <= window
                            and words_of[idx][:k] == dw[n - k :]
                            and (found is None or p < found[1])):
                        found = (-k, p, idx)  # the index lists ascend, so ties keep the first
                if found is not None:
                    tail = found
                    break
            tail_n = n
        if head_n < top:  # prepend: the fragment's last k words are the draft's first k
            for k in range(top, max(m, head_n + 1) - 1, -1):
                found = None
                for idx in tails.get(tuple(dw[k - m : k]), ()):
                    p = pos[idx]
                    if (idx in active and p - seed_pos <= window
                            and words_of[idx][-k:] == dw[:k]
                            and (found is None or p < found[1])):
                        found = (-k, p, idx)
                if found is not None:
                    head = found
                    break
            head_n = n

        if tail is not None and (head is None or tail <= head):  # a full tie appends
            neg_k, p, idx = tail
            dw += words_of[idx][-neg_k:]
            if p > tail_pos:
                tail_pos = p
            tail, tail_n = None, -1
            if head is not None and head[2] == idx:
                head, head_n = None, -1
        elif head is not None:
            neg_k, p, idx = head
            dw[:0] = words_of[idx][:neg_k]
            head, head_n = None, -1
            if tail is not None and tail[2] == idx:
                tail, tail_n = None, -1
        else:
            break  # no fragment reaches min_overlap at either end
        active.discard(idx)
    return dw, [items[i] for i in sorted(active)]


def assemble(fragments: list[Fragment], config: AssemblyConfig | None = None) -> ArticleDraft:
    """Reconstruct an article draft from one URL group's fragments.

    Two parts: :func:`_grow` merges fragments onto the seed while any
    reaches ``min_overlap`` at either end, then the flush appends the
    fragments it never merged in (pos, list order), counted as unanchored,
    so no content is silently lost. Each fragment is placed exactly once, so
    the result is a pure function of the fragment list and config.
    """
    words, unplaced = _grow(fragments, config or AssemblyConfig())
    for frag in sorted(unplaced, key=lambda f: f.pos):  # stable: equal pos keeps list order
        words += frag.words
    return ArticleDraft(words, len(fragments), len(unplaced))


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
