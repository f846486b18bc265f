from ngramstitch.fragments import Fragment, build_fragment, strip_wraparound_artifact
from ngramstitch.records import NgramRecord


def record(pre="", ngram="x", post="", pos=50):
    return NgramRecord(ngram=ngram, url="https://x.com/a", pos=pos, pre=pre, post=post)


def test_build_joins_pre_ngram_post():
    frag = build_fragment(
        record(pre="reports show the", ngram="economy", post="grew rapidly this quarter"),
    )
    assert frag.words == ["reports", "show", "the", "economy", "grew", "rapidly", "this", "quarter"]
    assert frag.pos == 50


def test_build_empty_context():
    frag = build_fragment(record(ngram="Hello"))
    assert frag.words == ["Hello"]


def test_build_collapses_whitespace():
    frag = build_fragment(record(pre="  a  b ", ngram=" c ", post=""))
    assert frag.words == ["a", "b", "c"]


def test_build_handles_tabs_and_newlines():
    frag = build_fragment(record(pre="a\t b\n", ngram="c", post="\r d"))
    assert frag.words == ["a", "b", "c", "d"]
    assert all(w and not w.isspace() for w in frag.words)


def test_build_contains_ngram_token(rng):
    for _ in range(100):
        pre = " ".join(f"p{i}" for i in range(rng.randrange(4)))
        post = " ".join(f"q{i}" for i in range(rng.randrange(4)))
        frag = build_fragment(record(pre=pre, ngram="core", post=post))
        assert "core" in frag.words


def strip(words, pos):
    return strip_wraparound_artifact(Fragment(words=list(words), pos=pos))


def test_low_pos_prefix_dropped():
    result = strip(["the", "end", "of", "story", "/", "Breaking", "news", "today"], pos=10)
    assert result.words == ["Breaking", "news", "today"]
    assert result.pos == 10


def test_high_pos_untouched():
    frag = Fragment(words=["prices", "rose", "/", "sharply"], pos=40)
    assert strip_wraparound_artifact(frag) is frag


def test_empty_remainder_drops_fragment():
    assert strip(["entire", "tail", "content", "/"], pos=0) is None


def test_slash_inside_token_ignored():
    frag = Fragment(words=["wind", "hit", "120", "km/h", "today"], pos=0)
    assert strip_wraparound_artifact(frag) is frag


def test_leading_slash_not_a_separator():
    frag = Fragment(words=["/", "alpha", "beta"], pos=0)
    assert strip_wraparound_artifact(frag) is frag


def test_splits_at_first_separator_only():
    result = strip(["junk", "/", "real", "text", "/", "more"], pos=5)
    assert result.words == ["real", "text", "/", "more"]


def test_idempotent_or_strictly_shortens(rng):
    for _ in range(300):
        n = rng.randrange(1, 12)
        words = [rng.choice(["a", "b", "c", "/", "d"]) for _ in range(n)]
        frag = Fragment(words=list(words), pos=rng.randrange(0, 20))
        once = strip_wraparound_artifact(frag)
        if once is None:
            continue
        twice = strip_wraparound_artifact(once)
        if twice is None:
            assert len(once.words) < len(words) or once is frag
            continue
        if "/" in once.words[1:]:
            assert len(twice.words) < len(once.words)
        else:
            assert twice.words == once.words


def test_pos_at_least_20_is_identity(rng):
    for _ in range(100):
        words = [rng.choice(["a", "/", "b"]) for _ in range(rng.randrange(1, 8))]
        frag = Fragment(words=words, pos=rng.randrange(20, 101))
        assert strip_wraparound_artifact(frag) is frag
