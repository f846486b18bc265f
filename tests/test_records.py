import dataclasses
import errno
import gzip
import io
import json
import os
import random
from datetime import datetime, timezone

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngramstitch.records import (
    NgramRecord,
    ParseDiagnostics,
    ParseError,
    group_by_url,
    parse_records,
    record_to_json_dict,
)

from oracles import parse_reference

GOOD_LINE = (
    '{"date":"2023-12-20T10:15:00Z","ngram":"economy","lang":"en","type":1,'
    '"pos":30,"pre":"reports show the","post":"grew rapidly this quarter",'
    '"url":"https://x.com/a"}'
)


def parse_bytes(data: bytes, **kwargs):
    return parse_records(io.BytesIO(data), **kwargs)


def make_line(**overrides) -> str:
    obj = {
        "date": "2023-12-20T10:15:00Z",
        "ngram": "word",
        "lang": "en",
        "type": 1,
        "pos": 50,
        "pre": "before",
        "post": "after",
        "url": "https://x.com/a",
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_empty_input():
    records, diags = parse_bytes(b"")
    assert records == []
    assert diags == ParseDiagnostics()


def test_single_line_field_for_field():
    records, diags = parse_bytes(GOOD_LINE.encode())
    assert len(records) == 1
    rec = records[0]
    assert rec.ngram == "economy"
    assert rec.lang == "en"
    assert rec.lang_type == 1
    assert rec.pos == 30
    assert rec.pre == "reports show the"
    assert rec.post == "grew rapidly this quarter"
    assert rec.url == "https://x.com/a"
    assert rec.date == datetime(2023, 12, 20, 10, 15, tzinfo=timezone.utc)
    assert diags.records_ok == 1 and diags.lines_read == 1


def test_mixed_lines_counted():
    data = "\n".join([GOOD_LINE, make_line(type=2), "{not json"]).encode()
    records, diags = parse_bytes(data)
    assert len(records) == 1
    assert diags.lines_read == 3
    assert diags.records_ok == 1
    assert diags.records_type2_skipped == 1
    assert diags.lines_malformed == 1
    assert diags.records_filtered == 0


def test_language_filter():
    data = "\n".join([make_line(lang="en"), make_line(lang="it"), make_line(lang="fr")]).encode()
    records, diags = parse_bytes(data, langs={"en", "fr"})
    assert [r.lang for r in records] == ["en", "fr"]
    assert diags.records_filtered == 1


def test_url_include_exclude():
    data = "\n".join(
        [
            make_line(url="https://news.example.com/a"),
            make_line(url="https://other.example.com/b"),
            make_line(url="https://news.example.com/sports/c"),
        ]
    ).encode()
    records, diags = parse_bytes(data, url_include=["news.example.com"], url_exclude=["/sports/"])
    assert [r.url for r in records] == ["https://news.example.com/a"]
    assert diags.records_filtered == 2


def test_gzip_detected_by_magic():
    payload = gzip.compress(GOOD_LINE.encode())
    records, diags = parse_bytes(payload)
    assert len(records) == 1
    assert diags.records_ok == 1


def test_corrupt_gzip_is_fatal():
    payload = b"\x1f\x8b" + b"garbage garbage garbage"
    with pytest.raises(ParseError):
        parse_bytes(payload)


def test_truncated_gzip_is_fatal():
    lines = [make_line(ngram=f"w{i}", pos=i % 101) for i in range(5000)]
    payload = gzip.compress("\n".join(lines).encode())
    with pytest.raises(ParseError):
        parse_bytes(payload[: len(payload) // 2])


def test_gzip_cut_to_one_byte_is_fatal():
    with pytest.raises(ParseError):
        parse_bytes(b"\x1f")


def test_gzip_lines_across_buffer_boundaries():
    """Lines cross the 64 KiB gunzip buffer and some are longer than it."""
    rng = random.Random(11)
    letters = "abcdefghijklmnopqrstuvwxyz"
    lines = []
    for i in range(400):
        size = 70_000 if i % 50 == 7 else rng.randrange(10, 600)
        pre = "".join(rng.choices(letters, k=size))
        lines.append(make_line(ngram=f"w{i}", pos=i % 101, pre=pre).encode())
    plain = b"\n".join(lines)
    payload = gzip.compress(plain)
    assert len(plain) > 256 * 1024 and len(payload) > 128 * 1024
    records, diags = parse_bytes(payload)
    assert (records, diags) == parse_bytes(plain)
    assert diags.records_ok == len(lines) == diags.lines_read
    assert max(len(r.pre) for r in records) > 64 * 1024
    with pytest.raises(ParseError):
        parse_bytes(payload[: 64 * 1024 + 1000])


def test_multi_member_gzip_yields_every_member():
    first = "\n".join(make_line(ngram=f"a{i}") for i in range(3)) + "\n"
    second = "\n".join(make_line(ngram=f"b{i}") for i in range(2))
    records, diags = parse_bytes(gzip.compress(first.encode()) + gzip.compress(second.encode()))
    assert [r.ngram for r in records] == ["a0", "a1", "a2", "b0", "b1"]
    assert diags.lines_read == diags.records_ok == 5


class FailsAfterFirstChunk(io.RawIOBase):
    """A raw stream whose first read returns ``first`` (None: fails at once)
    and whose every later read fails with EIO, as a failing disk would."""

    def __init__(self, first: bytes | None):
        self.first = first

    def readable(self):
        return True

    def readinto(self, buffer):
        if self.first is None:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        size = len(self.first)
        buffer[:size] = self.first
        self.first = None
        return size


def test_read_error_is_a_parse_error_only_for_gzip():
    data = random.Random(5).randbytes(20_000)
    first = data[:4000]  # fits the reader's buffer, and holds the gzip header
    with pytest.raises(OSError) as raised:
        parse_records(FailsAfterFirstChunk(first))
    assert raised.type is OSError and raised.value.errno == errno.EIO
    with pytest.raises(ParseError, match="unreadable gzip stream"):
        parse_records(FailsAfterFirstChunk(gzip.compress(data)[:4000]))
    # the first read happens while the magic is sniffed, before parsing starts
    with pytest.raises(OSError) as raised:
        parse_records(FailsAfterFirstChunk(None))
    assert raised.type is OSError and raised.value.errno == errno.EIO


def test_failing_stream_without_peek_is_left_open():
    # the reader wrapped around it is detached, not closed, however the call ends
    for first in (None, b"{}\n"):
        stream = FailsAfterFirstChunk(first)
        with pytest.raises(OSError):
            parse_records(stream)
        assert not stream.closed


@pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "raw"])
def test_caller_stream_is_left_open(buffered, gzipped):
    data = gzip.compress(GOOD_LINE.encode()) if gzipped else GOOD_LINE.encode()
    # a stream without peek is wrapped in a reader for the call
    stream = io.BufferedReader(io.BytesIO(data)) if buffered else io.BytesIO(data)
    records, diags = parse_records(stream)
    assert len(records) == diags.records_ok == 1
    assert not stream.closed


@pytest.mark.parametrize(
    "bad_line",
    [b"[" * 200_000, b"1" * 5000],
    ids=["nested-too-deep", "int-too-many-digits"],
)
def test_overlong_json_line_is_malformed(bad_line):
    records, diags = parse_bytes(bad_line + b"\n" + GOOD_LINE.encode())
    assert len(records) == 1
    assert diags.records_ok == 1
    assert diags.lines_malformed == 1


def test_pos_clamped_not_rejected():
    data = "\n".join([make_line(pos=-5), make_line(pos=130), make_line(pos=100)]).encode()
    records, diags = parse_bytes(data)
    assert [r.pos for r in records] == [0, 100, 100]
    assert diags.pos_clamped == 2
    assert diags.records_ok == 3


@pytest.mark.parametrize(
    "line",
    [
        make_line(ngram=""),
        make_line(ngram="   "),
        make_line(url=""),
        make_line(type=3),
        make_line(type="x"),
        make_line(pos="not-a-number"),
        make_line(pre=17),
        '{"ngram": "a"}',
        "[1, 2, 3]",
        '"just a string"',
        GOOD_LINE + " x",
    ],
)
def test_malformed_lines_skipped(line):
    records, diags = parse_bytes(line.encode())
    assert records == []
    assert diags.lines_malformed == 1


def test_missing_pos_or_type_is_malformed():
    obj = json.loads(make_line())
    del obj["pos"]
    records, diags = parse_bytes(json.dumps(obj).encode())
    assert records == [] and diags.lines_malformed == 1


def test_bad_date_kept_with_null_date():
    records, diags = parse_bytes(make_line(date="not a date").encode())
    assert len(records) == 1
    assert records[0].date is None
    assert diags.records_ok == 1


def test_blank_lines_ignored():
    data = ("\n\n" + GOOD_LINE + "\n   \n").encode()
    records, diags = parse_bytes(data)
    assert len(records) == 1
    assert diags.lines_read == 1


def test_round_trip_serialization():
    lines = [GOOD_LINE, make_line(date=None), make_line(ngram="café", pre="")]
    records, _ = parse_bytes("\n".join(lines).encode())
    assert len(records) == 3
    for rec in records:
        encoded = json.dumps(record_to_json_dict(rec)).encode()
        reparsed, diags = parse_bytes(encoded)
        assert diags.records_ok == 1
        assert reparsed[0] == rec


def test_equal_urls_and_langs_share_one_object():
    lines = [
        make_line(ngram="a", url="https://x.com/a", lang="en"),
        make_line(ngram="b", url="https://x.com/b", lang="fr"),
        make_line(ngram="c", url="https://x.com/a", lang="en"),
        make_line(ngram="d", url="https://x.com/b", lang="en"),
    ]
    a1, b1, a2, b2 = parse_bytes("\n".join(lines).encode())[0]
    assert a1.url is a2.url and b1.url is b2.url and a1.url != b1.url
    assert a1.lang is a2.lang is b2.lang and b1.lang == "fr"


def test_record_is_an_immutable_named_tuple():
    rec = NgramRecord(ngram="w", url="u")
    with pytest.raises(AttributeError):
        rec.url = "v"
    assert rec == ("w", "u", "", 1, 0, "", "", None)
    assert rec._replace(pos=40) == NgramRecord("w", "u", pos=40)


def test_group_by_url_partition_and_order():
    rng = random.Random(3)
    urls = [f"https://x.com/{i}" for i in range(4)]
    records = [
        NgramRecord(ngram=f"w{i}", url=rng.choice(urls), pos=0) for i in range(60)
    ]
    groups = group_by_url(records)
    assert sum(len(g) for g in groups.values()) == len(records)
    for url, group in groups.items():
        assert all(r.url == url for r in group)
        indexes = [records.index(r) for r in group]
        assert indexes == sorted(indexes)


def test_group_by_url_preserves_input_order():
    r1 = NgramRecord(ngram="a", url="u")
    r2 = NgramRecord(ngram="b", url="u")
    r3 = NgramRecord(ngram="c", url="u")
    groups = group_by_url([r1, r2, r3])
    assert groups == {"u": [r1, r2, r3]}


def test_group_by_url_empty():
    assert group_by_url([]) == {}


def test_diagnostics_addition():
    a = ParseDiagnostics(lines_read=2, records_ok=1, lines_malformed=1)
    b = ParseDiagnostics(lines_read=3, records_ok=3)
    total = a + b
    assert total.lines_read == 5 and total.records_ok == 4 and total.lines_malformed == 1


# --- differential property tests against tests/oracles.py::parse_reference ---

# The JSON key of each record field on the wire, for building lines.
WIRE_KEYS = {
    "date": "date",
    "ngram": "ngram",
    "lang": "lang",
    "lang_type": "type",
    "pos": "pos",
    "pre": "pre",
    "post": "post",
    "url": "url",
}
# Values each check accepts; an out-of-range pos is accepted and clamped.
VALID_VALUES = {
    "ngram": st.sampled_from(["word", "café"]),
    "url": st.sampled_from(
        [
            "https://news.example.com/a",
            "https://news.example.com/sports/b",
            "https://other.example.com/c",
            # matches "news.example" only where "." is read as any character
            "https://newsXexample.com/d",
        ]
    ),
    "lang_type": st.sampled_from([1, 2, "1", " 2 ", 1.0]),
    "pos": st.one_of(
        st.integers(0, 100),
        st.sampled_from([-5, -300, 101, 250, 130.0, 1e300, "40", " -3 "]),
    ),
    "lang": st.sampled_from(["en", "fr", "it", ""]),
    "pre": st.sampled_from(["reports show the", ""]),
    "post": st.sampled_from(["grew rapidly", ""]),
    "date": st.sampled_from(
        [
            "2023-12-20T10:15:00Z",
            "2023-12-20T10:15:00+02:00",
            "20231220101500",
            " 2023-12-20 ",
            "not a date",
            None,
            ["2023-12-20"],
            5,
        ]
    ),
}
# Values some check rejects.
BAD_VALUES = {
    "ngram": st.sampled_from(["", "  ", 3, None]),
    "url": st.sampled_from(["", " ", 5, None]),
    "lang_type": st.sampled_from([3, 1.5, True, None, "x"]),
    "pos": st.sampled_from([12.5, "x", True, False, None]),
    "lang": st.sampled_from([7, None]),
    "pre": st.sampled_from([17, None, ["a"]]),
    "post": st.sampled_from([2.5, None]),
}
OTHER_LINES = [
    b"",
    b"   ",
    b"{not json",
    b"[1, 2, 3]",
    b'"just a string"',
    b"42",
    b"null",
    b"\xff\xfe{}",
    b'{"ngram": "caf\xe9"}',
    # a line holds exactly one JSON value: text after it is malformed
    GOOD_LINE.encode() + b" x",
    GOOD_LINE.encode() + b" {}",
    b"{} {}",
    GOOD_LINE.encode() + b" " + GOOD_LINE.encode(),
    # ASCII whitespace around the value is stripped: a CRLF line end, \x0b, \x0c
    GOOD_LINE.encode() + b"\r",
    b"\x0b" + GOOD_LINE.encode() + b"\x0c",
    # a UTF-8 byte order mark is no JSON whitespace
    b"\xef\xbb\xbf" + GOOD_LINE.encode(),
    # no JSON value starts the line
    b"]",
]


@st.composite
def record_line(draw) -> bytes:
    """A valid line with up to two fields removed or given a rejected value."""
    obj = {WIRE_KEYS[name]: draw(values) for name, values in VALID_VALUES.items()}
    for name in draw(st.sets(st.sampled_from(sorted(VALID_VALUES)), max_size=2)):
        if name == "date" or draw(st.booleans()):
            obj.pop(WIRE_KEYS[name], None)
        else:
            obj[WIRE_KEYS[name]] = draw(BAD_VALUES[name])
    return json.dumps(obj, ensure_ascii=draw(st.booleans())).encode()


@st.composite
def parse_inputs(draw):
    lines = draw(st.lists(st.one_of(record_line(), st.sampled_from(OTHER_LINES)), max_size=25))
    # patterns are plain substrings: regex metacharacters match only
    # themselves, and the empty pattern matches every URL
    literal = [["news.example"], ["(", "+"], [""]]
    kwargs = {
        "langs": draw(st.sampled_from([None, set(), {"en"}, {"en", "fr"}])),
        "url_include": draw(st.sampled_from([[], ["news.example.com"], ["/a", "/c"], *literal])),
        "url_exclude": draw(st.sampled_from([[], ["/sports/"], *literal])),
    }
    return b"\n".join(lines), kwargs


def assert_matches_reference(data: bytes, **kwargs):
    records, diags = parse_bytes(data, **kwargs)
    ref_records, ref_counts = parse_reference(data, **kwargs)
    assert [r._asdict() for r in records] == ref_records
    assert dataclasses.asdict(diags) == ref_counts


class TestParseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(parse_inputs(), st.booleans())
    def test_property_equals_reference(self, inputs, gzipped):
        data, kwargs = inputs
        if gzipped:
            data = gzip.compress(data)
        assert_matches_reference(data, **kwargs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.binary(max_size=40), max_size=8))
    def test_property_arbitrary_line_bytes_never_raise(self, lines):
        data = b"\n".join(lines)
        # a stream opening with the gzip magic, or a prefix of it, is read as
        # gzip, so a corrupt or cut header is fatal by design
        assume(not (data[:2] and b"\x1f\x8b".startswith(data[:2])))
        assert_matches_reference(data)
