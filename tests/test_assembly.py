import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngramstitch.assembly import AssemblyConfig, _grow, assemble, deduplicate, select_seed
from ngramstitch.fragments import Fragment, build_fragment
from ngramstitch.shredder import ShredConfig, shred
from conftest import has_adjacent_dup, make_article
from oracles import assemble_reference, dedup_reference, grow_reference


def frag(words, pos):
    return Fragment(words=list(words), pos=pos)


def same_objects(got, expected):
    """Whether two fragment lists hold the same objects in the same order."""
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


def shred_to_fragments(text, window, mode="all_occurrences", drop_rate=0.0, seed=0):
    records = shred(text, ShredConfig(window=window, mode=mode, drop_rate=drop_rate, seed=seed))
    return [build_fragment(r) for r in records]


@st.composite
def fragment_soups(draw):
    """(fragments, config) pairs of two kinds. Soups: groups over 1-4-word
    alphabets, where many fragments share their edge words, many are shorter
    than min_overlap, some repeat another fragment exactly (same words and
    pos), and positions step by 5 so pos gaps land on both sides of a
    10-point window, under drawn thresholds. Shreds: a shuffled shredded
    article over a 2-8-word alphabet, whose repeats give twin windows and
    equal-pos ties, under the default config."""
    if draw(st.booleans()):
        letters = st.sampled_from("abcdefgh"[: draw(st.integers(2, 8))])
        size = draw(st.integers(1, 30))
        text = " ".join(draw(st.lists(letters, min_size=size, max_size=size)))
        records = shred(text, ShredConfig(
            window=draw(st.sampled_from([1, 2, 3, 4, 7])),
            mode=draw(st.sampled_from(["all_occurrences", "distinct_first"])),
            drop_rate=draw(st.sampled_from([0.0, 0.3])),
            seed=draw(st.integers(0, 9)),
        ))
        assume(records)  # a short text can lose every record to the drop
        return draw(st.permutations([build_fragment(r) for r in records])), AssemblyConfig()
    letters = st.sampled_from(draw(st.sampled_from(["a", "ab", "abc", "abcd"])))
    fragments = []
    for _ in range(draw(st.integers(1, 8))):
        if fragments and draw(st.integers(0, 4)) == 0:
            twin = draw(st.sampled_from(fragments))
            fragments.append(frag(twin.words, twin.pos))
        else:
            words = draw(st.lists(letters, min_size=1, max_size=7))
            fragments.append(frag(words, 5 * draw(st.integers(0, 20))))
    config = AssemblyConfig(
        min_overlap=draw(st.sampled_from([1, 2, 3])),
        pos_window=draw(st.sampled_from([0, 10, 100])),
    )
    return fragments, config


@st.composite
def planted_dups(draw):
    """Word lists carrying adjacent duplicated runs, some of which hold a
    shorter duplicated run of their own, and some ending in overlapping
    windows of their own words, the shape of ``assemble``'s flush, which
    takes many cuts to collapse."""
    letters = st.sampled_from(draw(st.sampled_from(["ab", "abc", "abcd"])))
    words = draw(st.lists(letters, max_size=20))
    for _ in range(draw(st.integers(0, 2))):
        run = draw(st.lists(letters, min_size=1, max_size=7))
        if draw(st.booleans()):
            inner = draw(st.lists(letters, min_size=1, max_size=4))
            cut = draw(st.integers(0, len(run)))
            run[cut:cut] = inner + inner
        at = draw(st.integers(0, len(words)))
        words[at:at] = run + run
    if words and draw(st.booleans()):
        width = draw(st.integers(2, 9))
        first = draw(st.integers(0, len(words) - 1))
        for at in range(first, min(len(words), first + draw(st.integers(1, 6)))):
            words += words[at : at + width]
    return words


class TestSelectSeed:
    def test_minimum_pos_wins(self):
        fragments = [frag("a b c".split(), 30), frag("d e".split(), 0), frag("f".split(), 50)]
        assert select_seed(fragments) is fragments[1]

    def test_tie_broken_by_length(self):
        short = frag([f"w{i}" for i in range(8)], 0)
        long = frag([f"v{i}" for i in range(12)], 0)
        assert select_seed([short, long]) is long

    def test_tie_broken_by_list_order(self):
        a = frag(["x", "y"], 0)
        b = frag(["p", "q"], 0)
        assert select_seed([a, b]) is a
        assert select_seed([b, a]) is b

    def test_single_fragment(self):
        only = frag(["solo"], 70)
        assert select_seed([only]) is only

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            select_seed([])


class TestMergeContract:
    """Merges onto a seed, and the rules that choose them, checked through ``assemble``."""

    def test_append_two_word_overlap(self):
        seed = frag(["the", "quick", "brown", "fox"], 10)
        draft = assemble([seed, frag(["brown", "fox", "jumps", "over"], 20)],
                         AssemblyConfig(min_overlap=2))
        assert draft.words == ["the", "quick", "brown", "fox", "jumps", "over"]
        assert draft.fragments_unanchored == 0

    def test_pos_gate_blocks_overlap(self):
        fragments = [frag(["c", "d", "e"], 0), frag(["e", "f", "g"], 50)]
        blocked = assemble(fragments, AssemblyConfig(min_overlap=1, pos_window=10))
        assert blocked.words == ["c", "d", "e", "e", "f", "g"]
        assert blocked.fragments_unanchored == 1
        merged = assemble(fragments, AssemblyConfig(min_overlap=1, pos_window=50))
        assert merged.words == ["c", "d", "e", "f", "g"]
        assert merged.fragments_unanchored == 0
        # the tail's pos moves up to 20 with "c d", leaving "d e" at 5 out of reach
        fragments = [frag(["a", "b"], 0), frag(["b", "c"], 10), frag(["c", "d"], 20),
                     frag(["d", "e"], 5)]
        behind = assemble(fragments, AssemblyConfig(min_overlap=1, pos_window=10))
        assert (behind.words, behind.fragments_unanchored) == (["a", "b", "c", "d", "d", "e"], 1)

    def test_no_shared_boundary(self):
        draft = assemble([frag(["x", "y"], 0), frag(["p", "q"], 0)],
                         AssemblyConfig(min_overlap=1))
        assert draft.words == ["x", "y", "p", "q"]
        assert draft.fragments_unanchored == 1

    def test_prepend_detected(self):
        seed = frag(["c", "d", "e"], 10)
        draft = assemble([seed, frag(["a", "b", "c"], 10)], AssemblyConfig(min_overlap=1))
        assert draft.words == ["a", "b", "c", "d", "e"]
        assert draft.fragments_unanchored == 0

    def test_append_wins_ties(self):
        # the second fragment overlaps both ends of a palindromic seed with k = 3;
        # only an append moves the tail's pos to 10, within reach of "a x" at 20
        fragments = [frag(["a", "b", "a"], 0), frag(["a", "b", "a"], 10), frag(["a", "x"], 20)]
        draft = assemble(fragments, AssemblyConfig(min_overlap=1, pos_window=10))
        assert draft.words == ["a", "b", "a", "x"]
        assert draft.fragments_unanchored == 0

    def test_equal_candidates_go_to_the_earlier_in_the_list(self):
        # "a c" and "b c" overlap the head equally at the same pos, and the
        # same for "c a" and "c b" at the tail
        config = AssemblyConfig(min_overlap=1, pos_window=10)
        head = assemble([frag(["c", "d"], 0), frag(["a", "c"], 10), frag(["b", "c"], 10)], config)
        assert head.words == ["a", "c", "d", "b", "c"]
        tail = assemble([frag(["d", "c"], 0), frag(["c", "a"], 10), frag(["c", "b"], 10)], config)
        assert tail.words == ["d", "c", "a", "c", "b"]

    # assemble keeps each end's best candidate between rounds; each of the next
    # three tests needs one of the rules by which an end is searched again, at
    # the head and at the tail

    def test_end_searched_again_after_a_merge_onto_it(self):
        config = AssemblyConfig(min_overlap=1, pos_window=100)
        # "c c d" is prepended; only a new search of the head finds that "c"
        # now overlaps it, instead of flushing "c" onto the tail
        head = assemble([frag(["c"], 75), frag(["d", "c", "d"], 5), frag(["c", "c", "d"], 65)],
                        config)
        assert (head.words, head.fragments_unanchored) == (["c", "c", "d", "c", "d"], 0)
        # the same at the tail: "d c c" is appended, and then "c" overlaps it
        tail = assemble([frag(["c"], 75), frag(["d", "c", "d"], 5), frag(["d", "c", "c"], 65)],
                        config)
        assert (tail.words, tail.fragments_unanchored) == (["d", "c", "d", "c", "c"], 0)

    def test_end_searched_again_when_its_fragment_is_taken_at_the_other(self):
        # "b a" fits both ends with k = 1 and is appended; the head held it, so
        # the head is searched again and finds nothing: "b b" is 15 from the head
        fragments = [frag(["b", "b"], 85), frag(["a", "a", "a", "b"], 70), frag(["b", "a"], 80)]
        head = assemble(fragments, AssemblyConfig(min_overlap=1, pos_window=10))
        assert (head.words, head.fragments_unanchored) == (["a", "a", "a", "b", "a", "b", "b"], 1)
        # "b a b" fits the tail with k = 1 and the head with k = 2, so it is
        # prepended; the tail held it and must not append it a second time
        # in the round before "z" is flushed
        tail = assemble([frag(["a", "b"], 0), frag(["b", "a", "b"], 10), frag(["z"], 50)],
                        AssemblyConfig(min_overlap=1, pos_window=100))
        assert (tail.words, tail.fragments_unanchored) == (["b", "a", "b", "z"], 1)

    def test_short_draft_grown_at_the_other_end_is_searched_again(self):
        config = AssemblyConfig(min_overlap=1, pos_window=100)
        # the head of the one-word seed "b" has no candidate; once "b a b c b c"
        # is appended, "a b a" overlaps the head with k = 2, longer than the
        # draft was, and beats the k = 1 append of "c a"
        head = assemble([
            frag(["b"], 15), frag(["a", "b", "a"], 40), frag(["b", "a", "b", "c", "b", "c"], 25),
            frag(["a", "a"], 70), frag(["c", "a"], 100),
        ], config)
        assert (head.words, head.fragments_unanchored) == (
            ["a", "a", "b", "a", "b", "c", "b", "c", "a"], 0)
        # the same at the tail: once "c b" is prepended to the seed "b", the
        # first two words of "c b d" overlap the tail
        tail = assemble([frag(["b"], 0), frag(["c", "b"], 5), frag(["c", "b", "d"], 5)], config)
        assert (tail.words, tail.fragments_unanchored) == (["c", "b", "d"], 0)


class TestAssemble:
    def test_single_fragment(self):
        only = frag(["one", "two", "three"], 0)
        draft = assemble([only])
        assert draft.words == ["one", "two", "three"]
        assert draft.fragments_used == 1
        assert draft.fragments_unanchored == 0

    def test_two_fragment_merge(self):
        fragments = [
            frag(["the", "quick", "brown", "fox"], 0),
            frag(["brown", "fox", "jumps", "over"], 10),
        ]
        draft = assemble(fragments, AssemblyConfig(min_overlap=2))
        assert draft.words == ["the", "quick", "brown", "fox", "jumps", "over"]
        assert draft.fragments_unanchored == 0

    def test_shred_round_trip_small(self):
        text = "a b c d e f g h i j"
        fragments = shred_to_fragments(text, window=2)
        draft = assemble(fragments)
        assert draft.words == text.split()
        assert draft.fragments_unanchored == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            assemble([])

    @settings(max_examples=300, deadline=None)
    @given(fragment_soups())
    def test_property_equals_reference(self, case):
        fragments, config = case
        words, unplaced = _grow(fragments, config)
        ref_words, ref_unplaced, _ = grow_reference(
            fragments, config.min_overlap, config.pos_window
        )
        assert words == ref_words
        # by identity: a twin fragment is equal to the one it copies
        assert same_objects(unplaced, [fragments[i] for i in ref_unplaced])
        ref_draft = assemble_reference(fragments, config.min_overlap, config.pos_window)
        assert tuple(assemble(fragments, config)) == ref_draft[:3]

    def test_grow_leaves_the_unmerged_in_list_order_and_the_flush_sorts_them(self):
        # "q" and "p" share pos 30 and follow "x" at 60; the seed sits mid-list
        x, q, seed, p = frag(["x"], 60), frag(["q"], 30), frag(["a", "b", "c"], 0), frag(["p"], 30)
        fragments = [x, q, seed, frag(["b", "c", "d"], 10), p]
        config = AssemblyConfig(min_overlap=2)
        words, unplaced = _grow(fragments, config)
        assert words == ["a", "b", "c", "d"]
        assert same_objects(unplaced, [x, q, p])
        draft = assemble(fragments, config)
        assert draft == (["a", "b", "c", "d", "q", "p", "x"], 5, 3)

    def test_unanchored_fragments_flushed_in_pos_order(self):
        fragments = [
            frag(["a", "b", "c"], 0),
            frag(["x", "y", "z"], 90),  # no overlap, far away
            frag(["p", "q"], 40),
        ]
        draft = assemble(fragments, AssemblyConfig())
        assert draft.words == ["a", "b", "c", "p", "q", "x", "y", "z"]
        assert draft.fragments_used == 3
        assert draft.fragments_unanchored == 2


class TestDeduplicate:
    def test_short_runs_untouched(self):
        words = ["a", "b", "a", "b", "c"]
        assert deduplicate(words, AssemblyConfig(min_dup_run=5)) == words

    def test_empty(self):
        assert deduplicate([], AssemblyConfig()) == []

    def test_long_range_repeats_survive(self):
        words = ["a", "b", "c", "d", "e", "x", "a", "b", "c", "d", "e"]
        assert deduplicate(words, AssemblyConfig(min_dup_run=5)) == words

    def test_cut_completes_an_earlier_run(self):
        # removing the second "c d" at (2, 2) leaves "a b c d a b c d", a run
        # at 0 whose start failed its compare before the cut: the next pass
        # must begin there, not at the hit or the cut
        words = "a b c d c d a b c d".split()
        assert deduplicate(words, AssemblyConfig(min_dup_run=2)) == "a b c d".split()

    def test_keys_straddling_the_cut(self):
        # removing the second "b b c" at (0, 3) leaves "b b c a b c a"; its
        # keys at 1 and 2 ("b c a", "c a b") span the cut, so they come from
        # after the removed copy, and the first of them starts the run (1, 3)
        words = "b b c b b c a b c a".split()
        assert deduplicate(words, AssemblyConfig(min_dup_run=3)) == "b b c a".split()
        assert dedup_reference(words, 3) == "b b c a".split()

    def test_key_last_starting_before_the_cut(self):
        # removing the second "a b" at (5, 2) leaves "a a b b a a b b"; the
        # key "a a" of the failed start 0 last starts at 4, before the cut,
        # so it now sits 2 words nearer the end, where 0 finds its copy
        words = "a a b b a a b a b b".split()
        assert deduplicate(words, AssemblyConfig(min_dup_run=2)) == "a a b b".split()

    def test_key_last_starting_in_the_removed_copy(self):
        # the key "a a b" of the failed start 0 last starts at 12, straddling
        # the end of the first "a b b a" at (9, 4); removing that copy leaves
        # its last start at 6, 2 words before 12 - 4, and after the next cut,
        # "b a b" at (8, 3), 0 finds the run "a a b a b a" with its copy at 6
        words = "a a b a b a a a b a b b a a b b a b a".split()
        assert deduplicate(words, AssemblyConfig(min_dup_run=3)) == "a a b a b a".split()

    def test_start_past_a_cut_is_tested_again(self):
        # 4 fails before the cut of "b b" at (5, 2), which leaves the run
        # "a b b" at 4; the next pass hits at 0 first, and its cut of
        # "a b b a" at (0, 4) moves 4, still untested, to 0, where it hits
        words = "a b b a a b b b b a b b".split()
        assert deduplicate(words, AssemblyConfig(min_dup_run=2)) == "a b b".split()

    def test_long_flushed_drafts_stay_fast(self, vocab, vocab_weights):
        # a 3,200-word article missing the records of one 320-word stretch:
        # no window after the gap anchors, so the draft ends in 1,440
        # flushed windows, about 23,000 words that dedup collapses one run
        # per pass. Under `python -X dev` on a 2-vCPU host this takes
        # 0.15-0.28 s, and 4.6-5.5 s with a last-start index rebuilt per pass
        groups = []
        for seed in (1, 2, 3):
            text = make_article(random.Random(seed), 3200, vocab, vocab_weights)
            records = shred(text, ShredConfig(window=7))
            del records[1440:1760]
            groups.append([build_fragment(r) for r in records])
        config = AssemblyConfig()
        started = time.perf_counter()
        results = [deduplicate(assemble(g, config).words, config) for g in groups]
        elapsed = time.perf_counter() - started
        assert not any(has_adjacent_dup(words, config.min_dup_run) for words in results)
        assert elapsed < 1.4, f"three long drafts took {elapsed:.2f}s"

    @settings(max_examples=300, deadline=None)
    @given(planted_dups(), st.integers(2, 6))
    def test_property_equals_reference_and_idempotent(self, words, min_run):
        config = AssemblyConfig(min_dup_run=min_run)
        result = deduplicate(words, config)
        assert result == dedup_reference(words, min_run)
        assert deduplicate(result, config) == result


class TestConfig:
    def test_defaults(self):
        config = AssemblyConfig()
        assert (config.min_overlap, config.pos_window, config.min_dup_run) == (3, 10, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"min_overlap": 0}, {"pos_window": -1}, {"pos_window": 101}, {"min_dup_run": 1}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AssemblyConfig(**kwargs)
