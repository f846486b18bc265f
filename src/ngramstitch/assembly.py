"""Greedy overlap-based reconstruction of one article from its fragments.

The draft starts from the earliest-positioned fragment and grows by merging,
each round, the unplaced fragment with the largest word overlap against either
end of the draft, as long as the fragment's position decile is close enough to
that end. Any overlap of at least ``min_overlap`` (m) words starts with the
fragment's first m words or ends with its last m, so one index of those m-word
keys finds every candidate and a slice compare confirms it. Fragments that
never reach the overlap threshold are appended at the end in position order so
no content is silently lost. A final pass collapses adjacent duplicated runs
introduced at bad junctions, finding candidates through an index of m-word
starts in the same way.
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
    """Pick the starting fragment: minimum pos, then most words, then lowest
    source index. Deterministic for any input order."""
    if not fragments:
        raise ValueError("nothing to assemble: empty fragment list")
    return min(fragments, key=lambda f: (f.pos, -len(f.words), f.source_index))


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
    ``min_overlap`` (ties broken by lower pos, then lower source index); the
    overlapping words are written once. When no fragment qualifies, the rest
    are flushed onto the end in (pos, source_index) order and counted as
    unanchored. Each fragment is placed exactly once, so the result is a pure
    function of the fragment list and config.
    """
    cfg = config or AssemblyConfig()
    seed = select_seed(fragments)
    draft = ArticleDraft(
        words=list(seed.words),
        head_pos=seed.pos,
        tail_pos=seed.pos,
        fragments_used=1,
        fragments_unanchored=0,
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
            candidates: list[tuple[int, int, int, str]] = []
            # append: the fragment's first k words are the draft's last k
            for idx in heads.get(tuple(dw[n - k : n - k + m]), ()):
                frag = items[idx]
                if idx in active and abs(frag.pos - draft.tail_pos) <= cfg.pos_window and (
                    frag.words[:k] == dw[n - k :]
                ):
                    candidates.append((frag.pos, frag.source_index, idx, "append"))
            # prepend: the fragment's last k words are the draft's first k
            for idx in tails.get(tuple(dw[k - m : k]), ()):
                frag = items[idx]
                if idx in active and abs(frag.pos - draft.head_pos) <= cfg.pos_window and (
                    frag.words[-k:] == dw[:k]
                ):
                    candidates.append((frag.pos, frag.source_index, idx, "prepend"))
            if candidates:
                break
        else:
            break  # no fragment reaches min_overlap at either end

        # "append" < "prepend", so a fragment fitting both ends at this k appends
        _, _, idx, mode = min(candidates)
        frag = items[idx]
        active.discard(idx)
        if mode == "append":
            dw.extend(frag.words[k:])
            draft.tail_pos = max(draft.tail_pos, frag.pos)
        else:
            dw[:0] = frag.words[: len(frag.words) - k]
            draft.head_pos = min(draft.head_pos, frag.pos)
        draft.fragments_used += 1

    # flush whatever never anchored, in position order, so nothing is dropped
    for frag in sorted((items[i] for i in active), key=lambda f: (f.pos, f.source_index)):
        draft.words.extend(frag.words)
        draft.tail_pos = max(draft.tail_pos, frag.pos)
        draft.fragments_used += 1
        draft.fragments_unanchored += 1
    return draft


def _leftmost_dup(out: list[str], min_run: int) -> tuple[int, int] | None:
    """Leftmost (i, k) with out[i:i+k] == out[i+k:i+2k], k >= min_run and k
    maximal at that i; None when ``out`` holds no such run."""
    n = len(out)
    starts = _index(tuple(out[p : p + min_run]) for p in range(n - min_run + 1))
    for i in range(n - 2 * min_run + 1):
        for j in reversed(starts[tuple(out[i : i + min_run])]):
            k = j - i
            if k < min_run:
                break
            if out[i:j] == out[j : j + k]:
                return i, k
    return None


def deduplicate(words: list[str], config: AssemblyConfig | None = None) -> list[str]:
    """Collapse adjacent duplicated runs of at least ``min_dup_run`` words.

    Repeatedly finds the leftmost position i where some run of k words is
    immediately followed by an identical run, takes the largest such k, keeps
    one copy, and rescans until no such run remains. A second copy of the run
    starts at j = i + k with the same first ``min_dup_run`` words, so the only
    candidate lengths at i are k = j - i for the later starts j of that word
    tuple, taken from one index per pass and tried largest first. Only
    adjacent duplicates are touched, so legitimate long-range repetition
    (quotes, refrains) survives.
    """
    cfg = config or AssemblyConfig()
    out = list(words)
    while (dup := _leftmost_dup(out, cfg.min_dup_run)) is not None:
        i, k = dup
        del out[i + k : i + 2 * k]
    return out
