"""Greedy overlap-based reconstruction of one article from its fragments.

The draft starts from the earliest-positioned fragment and grows by merging,
each round, the unplaced fragment with the largest word overlap against either
end of the draft, as long as the fragment's position decile is close enough to
that end. Any overlap of at least ``min_overlap`` (m) words starts with the
fragment's first m words or ends with its last m, so one index of those m-word
keys finds every candidate and a slice compare confirms it. Fragments that
never reach the overlap threshold are appended at the end in position order so
no content is silently lost. A final sweep collapses adjacent duplicated runs
left at bad junctions: it interns each m-word start once, finds candidates as
later starts with the same key, and never revisits a start whose key has no
later copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class ArticleDraft:
    """The evolving reconstruction plus bookkeeping about how it was built."""

    words: list[str] = field(default_factory=list)
    head_pos: int = 0
    tail_pos: int = 0
    fragments_used: int = 0
    fragments_unanchored: int = 0


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
    draft = ArticleDraft(
        words=list(seed.words),
        head_pos=seed.pos,
        tail_pos=seed.pos,
        fragments_used=len(fragments),
    )
    items = [f for f in fragments if f is not seed]
    if not items:
        return draft

    m = cfg.min_overlap
    heads = _index(tuple(f.words[:m]) for f in items)
    tails = _index(tuple(f.words[-m:]) for f in items)
    max_k = max(len(f.words) for f in items)
    active = set(range(len(items)))

    while active:
        dw = draft.words
        n = len(dw)
        for k in range(min(max_k, n), m - 1, -1):
            candidates: list[tuple[int, int, str]] = []
            # append: the fragment's first k words are the draft's last k
            for idx in heads.get(tuple(dw[n - k : n - k + m]), ()):
                frag = items[idx]
                if idx in active and abs(frag.pos - draft.tail_pos) <= cfg.pos_window and (
                    frag.words[:k] == dw[n - k :]
                ):
                    candidates.append((frag.pos, idx, "append"))
            # prepend: the fragment's last k words are the draft's first k
            for idx in tails.get(tuple(dw[k - m : k]), ()):
                frag = items[idx]
                if idx in active and abs(frag.pos - draft.head_pos) <= cfg.pos_window and (
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
            draft.tail_pos = max(draft.tail_pos, frag.pos)
        else:
            dw[:0] = frag.words[: len(frag.words) - k]
            draft.head_pos = min(draft.head_pos, frag.pos)

    # flush whatever never anchored, in position order, so nothing is dropped
    for i in sorted(active, key=lambda i: (items[i].pos, i)):
        draft.words.extend(items[i].words)
        draft.tail_pos = max(draft.tail_pos, items[i].pos)
        draft.fragments_unanchored += 1
    return draft


def deduplicate(words: list[str], config: AssemblyConfig | None = None) -> list[str]:
    """Collapse adjacent duplicated runs of at least ``min_dup_run`` words.

    Repeatedly finds the leftmost position i where some run of k words is
    immediately followed by an identical run, takes the largest such k, and
    keeps one copy, until no such run remains. Only adjacent duplicates are
    touched, so legitimate long-range repetition (quotes, refrains) survives.

    With m = ``min_dup_run``, a second copy of the run starts at j = i + k
    with the same first m words, so the candidate lengths at i are k = j - i
    for the later starts j of that m-word key, tried largest first. One loop
    does every pass, resting on two facts:

    - Each key is interned once per call, as a small int in ``ids``, kept in
      step with ``out``. The two copies are equal, so deleting the second
      leaves ``out[:i] + out[i+k:]`` and the key list ``ids[:i] + ids[i+k:]``,
      and no key is built again. (Deleting ``ids[i+k:i+2k]`` instead would
      be wrong at the m - 1 keys that straddle the cut.)
    - A deletion creates no key value, and for every start before the cut
      the later copies of its key can only vanish or move closer. A start
      whose key has no copy at least m words on is therefore dead for good,
      and the next pass resumes at the first start of this pass that had
      such a copy: the hit itself, or an earlier start whose compares all
      failed. Not at the cut: it can complete a run at an earlier start, as
      in ``a b c d c d a b c d`` with m = 2, where removing the second
      ``c d`` leaves ``a b c d a b c d``.
    """
    cfg = config or AssemblyConfig()
    m = cfg.min_dup_run
    out = list(words)
    interned: dict[tuple, int] = {}
    ids = [interned.setdefault(key, len(interned)) for key in zip(*(out[s:] for s in range(m)))]
    resume = 0
    while True:
        n = len(out)
        # each key's last start; exact for every start from `resume` on
        last = dict(zip(ids[resume:], range(resume, len(ids))))
        live = None
        for i in range(resume, n - 2 * m + 1):
            key = ids[i]
            if last[key] < i + m:
                continue  # dead: no later copy of the key at least m words on
            if live is None:
                live = i
            # later copies, largest run first; the second copy must fit in `out`
            for j in range(min(last[key], i + (n - i) // 2), i + m - 1, -1):
                if ids[j] == key and out[i:j] == out[j : 2 * j - i]:
                    break
            else:
                continue
            del out[j : 2 * j - i]
            del ids[i:j]
            resume = live
            break
        else:
            return out
