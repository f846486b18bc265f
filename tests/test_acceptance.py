"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s``) and enforcing its runtime bound.
"""

import json
import random
import string
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramstitch.assembly import AssemblyConfig, deduplicate
from ngramstitch.fragments import Fragment, build_fragment, strip_wraparound_artifact
from ngramstitch.pipeline import (
    RunConfig,
    reconstruct_command,
    reconstruct_group,
    validate_command,
)
from ngramstitch.records import record_to_json_dict
from ngramstitch.shredder import ShredConfig, shred
from ngramstitch.similarity import (
    SequenceMatchStats,
    levenshtein_distance,
    levenshtein_similarity,
    preprocess,
    sequence_matcher_similarity,
)
from conftest import has_adjacent_dup, make_article, make_vocab, zipf_weights
from oracles import (
    assemble_reference,
    dedup_reference,
    find_adjacent_dup,
    levenshtein_dp,
    ratcliff_obershelp_matches,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({label}): PASS", flush=True)


def random_string(rng, max_len, alphabet):
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len + 1)))


@pytest.fixture(scope="module")
def corpus_texts():
    """100 synthetic articles, 100-1000 words, free of adjacent duplicate
    runs of 5+ words (guaranteed by the generator, whose guard
    ``test_article_guard_equals_reference`` pins)."""
    rng = random.Random(883271)
    vocab = make_vocab()
    weights = zipf_weights(len(vocab))
    return [make_article(rng, rng.randrange(100, 1001), vocab, weights) for _ in range(100)]


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["ab", "abc", "abcd"]).flatmap(
        lambda letters: st.lists(st.sampled_from(letters), max_size=40)
    ),
    st.integers(1, 6),
)
def test_article_guard_equals_reference(words, min_run):
    """The generator's pruned guard answers what the naive oracle answers."""
    assert has_adjacent_dup(words, min_run) == (find_adjacent_dup(words, min_run) is not None)


@pytest.fixture(scope="module")
def corpus_records_file(corpus_texts, tmp_path_factory):
    """The criterion-3 corpus shredded to one NDJSON record file, plus the
    matching reference corpus."""
    base = tmp_path_factory.mktemp("acceptance")
    records_path = base / "records.ndjson"
    reference_path = base / "reference.ndjson"
    with open(records_path, "w", encoding="utf-8") as rec_fh, open(
        reference_path, "w", encoding="utf-8"
    ) as ref_fh:
        for i, text in enumerate(corpus_texts):
            url = f"https://n.test/{i:03d}"
            for record in shred(text, ShredConfig(window=7), url=url):
                rec_fh.write(json.dumps(record_to_json_dict(record)) + "\n")
            ref_fh.write(json.dumps({"url": url, "text": text}) + "\n")
    return records_path, reference_path


def reconstruct_text(text, url, shred_config):
    records = shred(text, shred_config, url=url)
    article = reconstruct_group(url, records, AssemblyConfig())
    return article


def test_criterion_1_levenshtein_correctness():
    with criterion(1, "Levenshtein metric correctness"):
        started = time.perf_counter()
        assert levenshtein_distance("kitten", "sitting") == 3
        rng = random.Random(52001)
        for _ in range(1000):
            alphabet = rng.choice(["ab", "abcd", string.ascii_lowercase])
            a = random_string(rng, 64, alphabet)
            b = random_string(rng, 64, alphabet)
            c = random_string(rng, 64, alphabet)
            d_ab = levenshtein_distance(a, b)
            assert d_ab == levenshtein_dp(a, b)
            assert d_ab == levenshtein_distance(b, a)
            assert levenshtein_distance(a, a) == 0
            assert d_ab <= max(len(a), len(b))
            assert levenshtein_distance(a, c) <= d_ab + levenshtein_distance(b, c)
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_sequence_matcher_correctness():
    with criterion(2, "sequence-matcher metric correctness"):
        started = time.perf_counter()
        ratio, stats = sequence_matcher_similarity("abcd", "bcde")
        assert ratio == 0.75
        assert stats == SequenceMatchStats(matching_chars=3, total_chars=8)
        rng = random.Random(52002)
        for _ in range(1000):
            alphabet = rng.choice(["ab", "abcd", string.ascii_lowercase])
            a = random_string(rng, 50, alphabet)
            b = random_string(rng, 50, alphabet)
            _, stats = sequence_matcher_similarity(a, b)
            assert stats.matching_chars == ratcliff_obershelp_matches(a, b)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_round_trip_fidelity(corpus_texts):
    with criterion(3, "round-trip fidelity"):
        started = time.perf_counter()
        similarities = []
        for i, text in enumerate(corpus_texts):
            article = reconstruct_text(text, f"https://n.test/{i:03d}", ShredConfig(window=7))
            sim = levenshtein_similarity(
                preprocess(article.text).text, preprocess(text).text
            )
            similarities.append(sim)
        exact = sum(1 for s in similarities if s == 1.0)
        assert exact >= 99, f"only {exact}/100 reconstructed exactly"
        assert min(similarities) >= 0.99
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_distinct_unigram_fidelity():
    with criterion(4, "distinct-unigram reconstruction quality"):
        rng = random.Random(52004)
        vocab = make_vocab()
        weights = zipf_weights(len(vocab))
        lev_scores, seq_scores = [], []
        for i in range(50):
            text = make_article(rng, rng.randrange(100, 501), vocab, weights)
            article = reconstruct_text(
                text, f"https://n.test/d{i:03d}", ShredConfig(window=7, mode="distinct_first")
            )
            norm_out = preprocess(article.text).text
            norm_src = preprocess(text).text
            lev_scores.append(levenshtein_similarity(norm_out, norm_src))
            seq_scores.append(sequence_matcher_similarity(norm_out, norm_src)[0])
        assert sum(lev_scores) / len(lev_scores) >= 0.90
        assert sum(seq_scores) / len(seq_scores) >= 0.90


def test_criterion_5_degradation_bound(corpus_texts):
    with criterion(5, "degradation bound at 20% record loss"):
        similarities = []
        checked_against_reference = 0
        for i, text in enumerate(corpus_texts):
            url = f"https://n.test/{i:03d}"
            records = shred(text, ShredConfig(window=7, drop_rate=0.2, seed=i), url=url)
            article = reconstruct_group(url, records, AssemblyConfig())
            assert article is not None
            assert article.fragments_total == len(records)
            assert article.fragments_used == len(records)
            assert 0 <= article.fragments_unanchored <= article.fragments_used
            similarities.append(
                levenshtein_similarity(preprocess(article.text).text, preprocess(text).text)
            )
            # independently recompute the unanchored count on the smaller groups
            if len(records) <= 250:
                fragments = [build_fragment(r) for r in records]
                config = AssemblyConfig()
                _, _, ref_unanchored, _ = assemble_reference(
                    fragments, config.min_overlap, config.pos_window
                )
                assert article.fragments_unanchored == ref_unanchored
                checked_against_reference += 1
        assert checked_against_reference > 0
        mean = sum(similarities) / len(similarities)
        assert mean >= 0.80, f"mean similarity {mean:.4f} under degradation"


def test_criterion_6_wraparound_rule():
    with criterion(6, "wrap-around artifact rule"):
        low = Fragment(
            words=["the", "end", "of", "story", "/", "Breaking", "news", "today"],
            pos=10,
        )
        stripped = strip_wraparound_artifact(low)
        assert stripped.words == ["Breaking", "news", "today"] and stripped.pos == 10

        high = Fragment(words=["prices", "rose", "/", "sharply"], pos=40)
        assert strip_wraparound_artifact(high) is high

        empty_tail = Fragment(words=["entire", "tail", "content", "/"], pos=0)
        assert strip_wraparound_artifact(empty_tail) is None

        # idempotent once no separator remains
        again = strip_wraparound_artifact(stripped)
        assert again is stripped


def test_criterion_7_parallel_determinism(corpus_records_file, tmp_path):
    with criterion(7, "parallel determinism"):
        records_path, _ = corpus_records_file
        serial_out = tmp_path / "serial.ndjson"
        parallel_out = tmp_path / "parallel.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=serial_out, workers=1))
        reconstruct_command(RunConfig(inputs=[records_path], output=parallel_out, workers=8))
        assert serial_out.read_bytes() == parallel_out.read_bytes()
        assert len(serial_out.read_bytes()) > 0


def test_criterion_8_dedup_properties():
    with criterion(8, "dedup collapse and idempotence"):
        config = AssemblyConfig(min_dup_run=5)
        words = ["a", "b", "c", "d", "e", "a", "b", "c", "d", "e", "f"]
        assert deduplicate(words, config) == ["a", "b", "c", "d", "e", "f"]

        rng = random.Random(52008)
        fuzz_config = AssemblyConfig(min_dup_run=3)
        for _ in range(500):
            n = rng.randrange(0, 40)
            sample = [rng.choice(["a", "b", "c", "d"]) for _ in range(n)]
            if rng.random() < 0.6 and n >= 2:
                i = rng.randrange(0, n)
                run = [rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randrange(3, 8))]
                sample[i:i] = run + run
            once = deduplicate(sample, fuzz_config)
            assert once == dedup_reference(sample, 3)
            assert deduplicate(once, fuzz_config) == once
            assert find_adjacent_dup(once, 3) is None


def test_criterion_9_validation_report_shape(corpus_records_file, tmp_path):
    with criterion(9, "validation report shape"):
        records_path, reference_path = corpus_records_file
        corpus_path = tmp_path / "corpus.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=corpus_path, workers=2))
        report_json = tmp_path / "report.json"
        report_table = tmp_path / "report.txt"
        report, stats = validate_command(
            corpus_path, reference_path, report_json=report_json, report_table=report_table
        )
        assert stats.matched == 100
        assert len(report.columns) == 4
        for column in report.columns:
            assert column.pair_count == 100
            assert column.levenshtein_mean == 1.0
            assert column.sequence_matcher_mean == 1.0
        payload = json.loads(report_json.read_text())
        assert len(payload["summary"]) == 8  # 2 metrics x 4 filter columns
        assert all(row["mean"] == 1.0 for row in payload["summary"])
        assert all(row["pair_count"] == 100 for row in payload["summary"])

        table_lines = report_table.read_text().splitlines()
        assert len(table_lines) == 4  # header, 2 metric rows, pair counts
        header = table_lines[0].split()
        assert header == ["Metric", "No", "Filter", ">60%", ">70%", ">80%"]
        for line in table_lines[1:3]:
            assert line.count("1.000000") == 4
