import difflib
import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramstitch.assembly import AssemblyConfig
from ngramstitch.pipeline import reconstruct_group
from ngramstitch.shredder import MODE_DISTINCT_FIRST, ShredConfig, shred
from ngramstitch.similarity import (
    _longest_block,
    format_report_table,
    jaccard_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    preprocess,
    report_to_json_dict,
    sequence_matcher_similarity,
    validate_corpus,
)
from conftest import make_article
from oracles import levenshtein_dp, preprocess_reference


def difflib_matches(a: str, b: str) -> int:
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    return sum(size for _, _, size in matcher.get_matching_blocks())


# small alphabets force long repeats and many equal-length ties; the last two
# mix in non-ASCII letters and characters beyond the BMP
_ALPHABETS = ["a", "ab", "abc ", "ab\u00e9\U0001f600 ", "x\u4e2d\U0001f600\U00010348"]
_text_pairs = st.sampled_from(_ALPHABETS).flatmap(
    lambda alphabet: st.tuples(
        st.text(alphabet=alphabet, max_size=40), st.text(alphabet=alphabet, max_size=40)
    )
)
# a pair wrapped in a shared prefix and suffix of its own alphabet, often
# empty, so that the common ends are long and can overlap when trimmed
_wrapped_pairs = st.sampled_from(_ALPHABETS).flatmap(
    lambda alphabet: st.tuples(*(st.text(alphabet=alphabet, max_size=n) for n in (20, 40, 40, 20)))
).map(lambda parts: (parts[0] + parts[1] + parts[3], parts[0] + parts[2] + parts[3]))


@st.composite
def _block_queries(draw):
    """A text pair and any sub-range of each, empty ones included."""
    a, b = draw(_text_pairs)
    alo = draw(st.integers(0, len(a)))
    blo = draw(st.integers(0, len(b)))
    return a, alo, draw(st.integers(alo, len(a))), b, blo, draw(st.integers(blo, len(b)))


class TestPreprocess:
    def test_basic(self):
        norm = preprocess("Hello, World!")
        assert norm.text == "hello world"
        assert norm.tokens == ["hello", "world"]

    def test_empty(self):
        norm = preprocess("")
        assert norm.text == "" and norm.tokens == []

    def test_apostrophe_splits(self):
        norm = preprocess("don't  STOP")
        assert norm.text == "don t stop"
        assert norm.tokens == ["don", "t", "stop"]

    def test_compatibility_normalization(self):
        # ligature and fullwidth forms fold to plain ASCII
        assert preprocess("efﬁcient").text == "efficient"
        assert preprocess("Ｈｅｌｌｏ").text == "hello"

    def test_underscore_is_not_a_word_char(self):
        assert preprocess("a_b").tokens == ["a", "b"]

    # any text, and text made of separators str.split() does and does not split on
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.text("a_-. \t\n\x1c\x1f\x85\xa0\u1680\u2028\u3000\ufeff")))
    def test_property_equals_reference_and_text_is_the_tokens_joined(self, raw):
        norm = preprocess(raw)
        assert norm == preprocess_reference(raw)
        assert norm.text == " ".join(norm.tokens)


class TestLevenshtein:
    def test_identity(self):
        for s in ["", "a", "same text here"]:
            assert levenshtein_distance(s, s) == 0

    def test_empty_vs_nonempty(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_similarity_formula(self):
        assert math.isclose(levenshtein_similarity("kitten", "sitting"), 1 - 3 / 13)
        assert levenshtein_similarity("", "abc") == 0.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("same", "same") == 1.0

    def test_unicode_beyond_bmp(self):
        assert levenshtein_distance("a\U0001f600b", "ab") == 1

    def test_longer_than_a_machine_word(self):
        # bit vectors wider than 64 bits, the shorter string on either side
        a = "ab" * 50 + "c" * 30
        b = "ba" * 45 + "c" * 41
        assert levenshtein_distance(a, b) == levenshtein_dp(a, b)
        assert levenshtein_distance(b, a) == levenshtein_dp(a, b)

    def test_common_ends_that_overlap(self):
        # a suffix search not bounded by the prefix would count shared
        # characters twice
        assert levenshtein_distance("abcabc", "abc") == 3
        assert levenshtein_distance("aaa", "aaaa") == 1
        assert levenshtein_distance("ab", "aab") == 1

    @settings(max_examples=300, deadline=None)
    @given(_wrapped_pairs)
    def test_property_equals_dp_oracle(self, pair):
        a, b = pair
        assert levenshtein_distance(a, b) == levenshtein_dp(a, b)


class TestSequenceMatcher:
    def test_identical(self):
        ratio, stats = sequence_matcher_similarity("abcdef", "abcdef")
        assert ratio == 1.0 and stats.matching_chars == 6

    def test_disjoint(self):
        ratio, stats = sequence_matcher_similarity("aaa", "bbb")
        assert ratio == 0.0 and stats.matching_chars == 0

    def test_both_empty(self):
        ratio, stats = sequence_matcher_similarity("", "")
        assert ratio == 1.0 and stats.matching_chars == 0 and stats.total_chars == 0

    @settings(max_examples=300, deadline=None)
    @given(_text_pairs)
    def test_property_equals_difflib(self, pair):
        a, b = pair
        ratio, stats = sequence_matcher_similarity(a, b)
        assert stats.matching_chars == difflib_matches(a, b)
        assert stats.total_chars == len(a) + len(b)
        if a or b:
            assert ratio == 2.0 * stats.matching_chars / (len(a) + len(b))

    @settings(max_examples=500, deadline=None)
    @given(_block_queries())
    def test_longest_block_equals_difflib(self, query):
        # the whole (i, j, size): earliest in a on ties, then earliest in b
        a, alo, ahi, b, blo, bhi = query
        matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
        expected = matcher.find_longest_match(alo, ahi, blo, bhi)
        assert _longest_block(a, alo, ahi, b, blo, bhi) == tuple(expected)

    def test_long_ranges_equal_difflib(self):
        # ranges of thousands of characters, so the block search skips and
        # gallops far past the short property strings; words of evenly
        # spread letters keep difflib's per-letter scan to about a second
        rng = random.Random(1988)
        vocab = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 9))) for _ in range(1000)]
        words = rng.choices(vocab, k=680)
        swapped = list(words)
        for _ in range(15):
            p = rng.randrange(len(swapped) - 1)
            swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
        moved = words[:85] + words[340:510] + words[85:340] + words[510:]
        text = " ".join(words)
        pairs = [
            (text, " ".join(swapped)),
            (text, " ".join(moved)),
            (text, " ".join(rng.choices(vocab, k=680))),
            ("a" * 400 + "b" + "a" * 400, "a" * 801),  # difflib is quadratic here
        ]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                assert sequence_matcher_similarity(x, y)[1].matching_chars == difflib_matches(x, y)

    def test_shredded_articles_equal_difflib(self, vocab, vocab_weights):
        # article-length reconstructions at 30% record loss plus one missed
        # stretch: long blocks between gaps and fragments that never anchor
        rng = random.Random(4021)
        for seed in range(3):
            text = make_article(rng, rng.randrange(150, 250), vocab, vocab_weights)
            config = ShredConfig(window=7, mode=MODE_DISTINCT_FIRST, drop_rate=0.3, seed=seed)
            records = shred(text, config, url="https://n.test/a")
            cut = len(records) // 2
            del records[cut : cut + 10]
            article = reconstruct_group("https://n.test/a", records, AssemblyConfig())
            recon, ref = preprocess(article.text).text, preprocess(text).text
            assert recon != ref
            for a, b in ((recon, ref), (ref, recon)):
                assert sequence_matcher_similarity(a, b)[1].matching_chars == difflib_matches(a, b)


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity(["a", "b"], ["b", "a", "a"]) == 1.0

    def test_half_overlap(self):
        assert jaccard_similarity(["a", "b", "c"], ["b", "c", "d"]) == 0.5

    def test_disjoint(self):
        assert jaccard_similarity(["a"], ["b"]) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    def test_one_empty(self):
        assert jaccard_similarity([], ["a"]) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.text("abc ", max_size=25), st.text("abc ", max_size=25))
    def test_property_symmetric(self, a, b):
        ta, tb = a.split(), b.split()
        assert jaccard_similarity(ta, tb) == jaccard_similarity(tb, ta)


def test_sequence_matcher_order_dependence_is_the_documented_one():
    # The recursive longest-block procedure is NOT symmetric (ties resolve
    # toward the first argument): "tide"/"diet" matches 1 char, "diet"/"tide"
    # matches 2. Criterion 2 and test_property_equals_difflib check agreement
    # with the reference recursion in whichever order a pair comes.
    assert sequence_matcher_similarity("tide", "diet")[1].matching_chars == 1
    assert sequence_matcher_similarity("diet", "tide")[1].matching_chars == 2


class TestValidateCorpus:
    def test_identical_pairs_score_one_everywhere(self):
        pairs = [(f"Shared text {i}!", f"shared text {i}", f"u{i}") for i in range(4)]
        report = validate_corpus(pairs)
        assert len(report.columns) == 4
        for col in report.columns:
            assert col.pair_count == 4
            assert col.levenshtein_mean == 1.0
            assert col.sequence_matcher_mean == 1.0

    def test_raw_equal_pairs_score_one_without_preprocessing(self, monkeypatch):
        def no_preprocess(raw):
            raise AssertionError("a raw-equal pair was preprocessed")

        monkeypatch.setattr("ngramstitch.similarity.preprocess", no_preprocess)
        texts = ["", "   ", "!!! ---", "\ufb01"]
        report = validate_corpus([(t, t, f"u{i}") for i, t in enumerate(texts)])
        assert report.pairs == [(f"u{i}", 1.0, 1.0, 1.0) for i in range(len(texts))]

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_raw_equal_pair_scores_as_its_normalized_forms(self, text):
        norm = preprocess(text)
        expected = (
            "u",
            levenshtein_similarity(norm.text, norm.text),
            sequence_matcher_similarity(norm.text, norm.text)[0],
            jaccard_similarity(norm.tokens, norm.tokens),
        )
        assert validate_corpus([(text, text, "u")]).pairs == [expected]

    def test_threshold_bucketing(self):
        shared = [f"s{i}" for i in range(13)]
        only_a = [f"a{i}" for i in range(4)]
        only_b = [f"b{i}" for i in range(3)]
        recon = " ".join(shared + only_a)
        ref = " ".join(shared + only_b)
        report = validate_corpus([(recon, ref, "u")])
        row = report.pairs[0]
        assert row.jaccard == pytest.approx(0.65)
        counts = {c.label: c.pair_count for c in report.columns}
        assert counts == {"No Filter": 1, ">60%": 1, ">70%": 0, ">80%": 0}

    def test_threshold_is_strict(self):
        # jaccard exactly 0.6 must not pass the >60% filter
        shared = ["s1", "s2", "s3"]
        recon = " ".join(shared + ["a1"])
        ref = " ".join(shared + ["b1"])
        report = validate_corpus([(recon, ref, "u")])
        assert report.pairs[0].jaccard == pytest.approx(0.6)
        counts = {c.label: c.pair_count for c in report.columns}
        assert counts[">60%"] == 0 and counts["No Filter"] == 1

    def test_means_add_left_to_right_on_every_python(self):
        # sum() compensates its rounding since Python 3.12, which would make
        # the report's means, and its bytes, depend on the interpreter
        report = validate_corpus([("abc", "abd", f"u{i}") for i in range(10)])
        row, column = report.pairs[0], report.columns[0]
        for score, mean in ((row.levenshtein_similarity, column.levenshtein_mean),
                            (row.sequence_matcher_similarity, column.sequence_matcher_mean)):
            total = 0.0
            for _ in range(10):
                total += score
            assert total != math.fsum([score] * 10)  # the two ways of adding differ here
            assert mean == total / 10

    def test_empty_pair_list(self):
        report = validate_corpus([])
        assert report.pairs == []
        for col in report.columns:
            assert col.pair_count == 0
            assert col.levenshtein_mean is None
            assert col.sequence_matcher_mean is None

    def test_table_shape(self):
        report = validate_corpus([("x y", "x y", "u")])
        table = format_report_table(report)
        lines = table.splitlines()
        assert len(lines) == 4  # header + 2 metric rows + pair counts
        assert lines[0].split()[0] == "Metric"
        assert "Levenshtein" in lines[1] and "SequenceMatcher" in lines[2]
        assert lines[3].startswith("Pairs")

    def test_json_summary_shape(self):
        report = validate_corpus([("x", "x", "u")])
        payload = report_to_json_dict(report)
        assert len(payload["summary"]) == 8  # 2 metrics x 4 filters
        metrics = {row["metric"] for row in payload["summary"]}
        assert metrics == {"levenshtein_similarity", "sequence_matcher_similarity"}
        assert len(payload["pairs"]) == 1
