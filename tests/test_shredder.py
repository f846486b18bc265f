import io
import json

import pytest

from ngramstitch.assembly import AssemblyConfig, assemble, deduplicate
from ngramstitch.fragments import build_fragment
from ngramstitch.records import parse_records, record_to_json_dict
from ngramstitch.shredder import ShredConfig, decile_pos, shred
from conftest import make_article


def test_three_word_example():
    records = shred("a b c", ShredConfig(window=1))
    assert [(r.pre, r.ngram, r.post, r.pos) for r in records] == [
        ("", "a", "b", 0),
        ("a", "b", "c", 30),
        ("b", "c", "", 60),
    ]


def test_single_word():
    records = shred("hello")
    assert len(records) == 1
    rec = records[0]
    assert (rec.pre, rec.ngram, rec.post, rec.pos) == ("", "hello", "", 0)


def test_distinct_first_mode():
    records = shred("x y x", ShredConfig(mode="distinct_first", window=2))
    assert [(r.ngram, r.pre) for r in records] == [("x", ""), ("y", "x")]


def test_all_occurrences_count(rng, vocab, vocab_weights):
    text = make_article(rng, 80, vocab, vocab_weights)
    records = shred(text, ShredConfig(window=5))
    assert len(records) == 80


def test_distinct_first_count(rng, vocab, vocab_weights):
    text = make_article(rng, 80, vocab, vocab_weights)
    records = shred(text, ShredConfig(window=5, mode="distinct_first"))
    assert len(records) == len(set(text.split()))


def test_records_satisfy_invariants(rng, vocab, vocab_weights):
    text = make_article(rng, 60, vocab, vocab_weights)
    for rec in shred(text, ShredConfig(window=7), url="https://n.test/x", lang="it"):
        assert rec.ngram.strip()
        assert rec.url == "https://n.test/x"
        assert rec.lang == "it"
        assert rec.lang_type == 1
        assert 0 <= rec.pos <= 100


def test_pos_formula_matches_decile_floor():
    n = 23
    records = shred(" ".join(f"w{i}" for i in range(n)), ShredConfig(window=1))
    assert [r.pos for r in records] == [decile_pos(i, n) for i in range(n)]
    assert all(p % 10 == 0 for p in (r.pos for r in records))


def test_seeded_determinism(rng, vocab, vocab_weights):
    text = make_article(rng, 100, vocab, vocab_weights)
    config = ShredConfig(window=4, drop_rate=0.3, seed=99)
    assert shred(text, config) == shred(text, config)
    other = shred(text, ShredConfig(window=4, drop_rate=0.3, seed=100))
    assert other != shred(text, config)


def test_drop_rate_withholds_records(rng, vocab, vocab_weights):
    text = make_article(rng, 200, vocab, vocab_weights)
    full = shred(text, ShredConfig(window=3))
    dropped = shred(text, ShredConfig(window=3, drop_rate=0.5, seed=1))
    assert len(dropped) < len(full)
    assert set(dropped) <= set(full)


def test_empty_text_raises():
    with pytest.raises(ValueError):
        shred("   ")


@pytest.mark.parametrize(
    "kwargs",
    [{"window": 0}, {"drop_rate": 1.0}, {"drop_rate": -0.1}, {"mode": "bogus"}],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ShredConfig(**kwargs)


def test_ndjson_round_trip(rng, vocab, vocab_weights):
    text = make_article(rng, 40, vocab, vocab_weights)
    records = shred(text, ShredConfig(window=3), url="https://n.test/rt")
    payload = "\n".join(json.dumps(record_to_json_dict(r)) for r in records)
    reparsed, diags = parse_records(io.BufferedReader(io.BytesIO(payload.encode())))
    assert diags.records_ok == len(records)
    assert reparsed == records


def test_master_round_trip(rng, vocab, vocab_weights):
    config = AssemblyConfig()
    for trial in range(15):
        text = make_article(rng, rng.randrange(30, 200), vocab, vocab_weights)
        records = shred(text, ShredConfig(window=rng.choice([3, 5, 7])))
        fragments = [build_fragment(r) for r in records]
        draft = assemble(fragments, config)
        words = deduplicate(draft.words, config)
        assert words == text.split(), f"trial {trial}"
