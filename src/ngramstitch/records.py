"""Parse GDELT Web News NGrams records from NDJSON streams and group them by URL.

Most lines of a real feed are discarded (other languages, other hosts,
type-2 scripts), so the parser checks every line, classifies it, and builds
a record only for a line it keeps. Nothing but the loop body runs in Python
per line: the buffered reader yields the lines, the C JSON scanner is called
directly, each URL filter list is compiled once per call into one search
(its patterns are still plain substrings), and ``lines_read`` is summed from
the buckets at the end. Dates are parsed once per distinct value, and the
records of one call share one string object per distinct url and lang.

The parser takes a buffered binary stream with ``peek``, as ``open(path,
"rb")`` gives, and any error reading it, plain or gzip, raises
:class:`ParseError`: the caller counts that file as unreadable.

The feed has one fixed schema; its JSON keys are spelled out only in
:func:`parse_records` and its inverse :func:`record_to_json_dict`.
"""

from __future__ import annotations

import gzip
import io
import json
import re
import zlib
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple

GZIP_MAGIC = b"\x1f\x8b"


class ParseError(Exception):
    """The input stream itself is unreadable (bad gzip container, failed read)."""


class NgramRecord(NamedTuple):
    """One dataset entry: a unigram with its context snippets and metadata.

    ``pos`` is the decile-style position of the unigram within its article
    (0-100); ``pre``/``post`` hold up to ~7 words of surrounding context.
    A named tuple: immutable, cheap to build and to pickle, and equal to a
    plain tuple of the same values in field order.
    """

    ngram: str
    url: str
    lang: str = ""
    lang_type: int = 1
    pos: int = 0
    pre: str = ""
    post: str = ""
    date: datetime | None = None


@dataclass
class ParseDiagnostics:
    """Per-stream accounting: every line read lands in exactly one bucket
    (ok, malformed, type-2 skipped, or filtered). ``pos_clamped`` counts
    well-formed lines whose pos was pulled back into [0, 100], whichever of
    the other three buckets they land in; clamping does not change the bucket.
    """

    lines_read: int = 0
    records_ok: int = 0
    lines_malformed: int = 0
    records_type2_skipped: int = 0
    records_filtered: int = 0
    pos_clamped: int = 0

    def __add__(self, other: "ParseDiagnostics") -> "ParseDiagnostics":
        return ParseDiagnostics(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


# The timestamps every supported Python reads alike: CPython 3.10's documented
# fromisoformat grammar, YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]]
# with * any one character, and YYYYMMDDHHMMSS. Later versions read more ISO
# 8601 forms; those, and an hour of 24, are refused here.
_DATE_FORMS = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:.(?:[01][0-9]|2[0-3])(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?"
    r"|(?P<compact>[0-9]{14})",
    re.DOTALL,
)


def _parse_date(value: str) -> datetime | None:
    """The timestamp ``value`` in one of ``_DATE_FORMS``, after stripping and
    reading a trailing Z as +00:00, and in UTC when it names no offset; None
    for any other text or an impossible date."""
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    form = _DATE_FORMS.fullmatch(text)
    if form is None:
        return None
    try:
        if form["compact"]:
            parsed = datetime.strptime(text, "%Y%m%d%H%M%S")
        else:
            parsed = datetime.fromisoformat(text)
    except ValueError:
        return None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def _coerce_int(value) -> int | None:
    if type(value) is int:  # not bool: a JSON true or false is no number
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            return None
    return None


def _any_substring(patterns: Iterable[str] | None) -> Callable[[str], re.Match | None] | None:
    """One compiled search that matches where any of the plain substrings
    ``patterns`` occurs, or None when there is no pattern."""
    patterns = list(patterns or ())
    return re.compile("|".join(map(re.escape, patterns))).search if patterns else None


# The C scanner itself: JSONDecoder.raw_decode is a Python method around it.
_scan_json = json.JSONDecoder().scan_once


def parse_records(
    stream: BinaryIO,
    langs: Iterable[str] | None = None,
    url_include: Iterable[str] | None = None,
    url_exclude: Iterable[str] | None = None,
) -> tuple[list[NgramRecord], ParseDiagnostics]:
    """Parse newline-delimited JSON (optionally gzipped) into records.

    ``stream`` is a buffered binary stream with ``peek``: ``open(path,
    "rb")``, or ``io.BufferedReader(io.BytesIO(data))`` for bytes in memory.
    A stream that starts with the gzip magic, or a prefix of it, is
    gunzipped. The loop iterates a buffered reader, which splits the lines in
    C: the stream itself, or for gzip a 64 KiB reader over the decompressed
    bytes. The gzip readers are closed when parsing ends; the caller's stream
    never is.

    Each line goes through three steps. First every validity check runs on
    it: ngram and url are non-blank strings, type is 1 or 2, pos is an int,
    and pre, post and lang are strings; a failing line is malformed. Then a
    pos outside [0, 100] is clamped and counted. Last the line is classified
    as type-2 skipped, filtered, or kept, and only a kept line is built into
    a record, in line order. Dates are parsed once per distinct date string
    and shared by the records that carry it; so is one string object per
    distinct url and lang. ``lines_read`` is the sum of the four buckets.

    A line holds exactly one JSON value, an object; any other text after it
    (a second value included) makes the line malformed. Malformed lines (bad
    UTF-8, bad JSON, text after the value, JSON nested too deep, an integer
    literal too long to convert, missing or invalid required fields) are
    skipped and counted, never fatal. An unreadable stream raises ParseError,
    plain or gzip alike: a bad or cut gzip container, or any failed read,
    the sniffing one included.
    Blank lines are ignored entirely.

    ``langs`` is an allow-list of exact language codes; ``url_include`` and
    ``url_exclude`` are plain substring patterns (any include must match, no
    exclude may match). Each list is compiled once per call into one search
    over its escaped patterns.
    """
    lang_set = set(langs) if langs is not None else None
    include = _any_substring(url_include)
    exclude = _any_substring(url_exclude)

    records: list[NgramRecord] = []
    dates: dict[str, datetime | None] = {}
    urls: dict[str, str] = {}
    lang_names: dict[str, str] = {}
    malformed = type2_skipped = filtered = pos_clamped = 0

    lines = stream
    try:
        head = stream.peek(2)[:2]
        if head and GZIP_MAGIC.startswith(head):
            # GzipFile's own line iterator is Python code; a BufferedReader
            # over it splits the decompressed bytes into lines in C. Each
            # refill calls GzipFile.readinto, which is Python code too, so the
            # buffer is 64 KiB rather than the default 8 KiB: an eighth of the
            # calls. On a 2-vCPU Xeon with CPython 3.11, gunzipping and
            # splitting the feed-filtered bench files took a quarter less CPU
            # at 64 KiB than at 8 KiB, the same at 128 KiB, more at 256 KiB.
            lines = io.BufferedReader(gzip.GzipFile(fileobj=stream), 1 << 16)
        for raw in lines:
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                text = stripped.decode("utf-8")
                obj, end = _scan_json(text, 0)
            except (ValueError, RecursionError, StopIteration):
                # ValueError covers bad UTF-8, bad JSON and an integer literal
                # past the interpreter's digit limit; RecursionError is JSON
                # nested deeper than the decoder's recursion limit; the scanner
                # raises StopIteration when no value starts the line.
                malformed += 1
                continue
            # The stripped line has no JSON whitespace at either end, so the
            # value must end exactly at the end of the line: any text after it
            # makes the line malformed, as it would for json.loads.
            if end != len(text) or type(obj) is not dict:
                malformed += 1
                continue

            ngram = obj.get("ngram")
            url = obj.get("url")
            lang_type = obj.get("type")
            if type(lang_type) is not int:
                lang_type = _coerce_int(lang_type)
            pos = obj.get("pos")
            if type(pos) is not int:
                pos = _coerce_int(pos)
            pre = obj.get("pre", "")
            post = obj.get("post", "")
            lang = obj.get("lang", "")
            # JSON decoding yields exact str values, never a subclass
            if not (
                type(ngram) is str
                and ngram.strip()
                and type(url) is str
                and url.strip()
                and lang_type in (1, 2)
                and pos is not None
                and type(pre) is str
                and type(post) is str
                and type(lang) is str
            ):
                malformed += 1
                continue
            if pos < 0 or pos > 100:
                pos = min(max(pos, 0), 100)
                pos_clamped += 1

            if lang_type == 2:
                type2_skipped += 1
                continue
            if lang_set is not None and lang not in lang_set:
                filtered += 1
                continue
            if include is not None and include(url) is None:
                filtered += 1
                continue
            if exclude is not None and exclude(url) is not None:
                filtered += 1
                continue

            date_text = obj.get("date")
            if type(date_text) is not str:
                date = None
            elif date_text in dates:
                date = dates[date_text]
            else:
                date = dates[date_text] = _parse_date(date_text)
            url = urls.setdefault(url, url)
            lang = lang_names.setdefault(lang, lang)
            # the named tuple's generated __new__ is a Python function
            records.append(tuple.__new__(NgramRecord, (ngram, url, lang, lang_type, pos, pre, post, date)))
    except (OSError, EOFError, zlib.error) as exc:
        raise ParseError(f"unreadable stream: {exc}") from exc
    finally:
        if lines is not stream:
            lines.close()  # the gzip readers

    diags = ParseDiagnostics(
        lines_read=len(records) + malformed + type2_skipped + filtered,
        records_ok=len(records),
        lines_malformed=malformed,
        records_type2_skipped=type2_skipped,
        records_filtered=filtered,
        pos_clamped=pos_clamped,
    )
    return records, diags


def parse_file(path: str | Path, **kwargs) -> tuple[list[NgramRecord], ParseDiagnostics]:
    """Open ``path`` (plain or .gz) and run :func:`parse_records` over it."""
    with open(path, "rb") as fh:
        return parse_records(fh, **kwargs)


def group_by_url(records: Iterable[NgramRecord]) -> dict[str, list[NgramRecord]]:
    """Partition records by source URL, preserving input order within groups."""
    groups: dict[str, list[NgramRecord]] = {}
    for record in records:
        groups.setdefault(record.url, []).append(record)
    return groups


def record_to_json_dict(record: NgramRecord) -> dict:
    """Serialize a record back to the wire shape; inverse of parsing."""
    return {
        "date": record.date.isoformat() if record.date is not None else None,
        "ngram": record.ngram,
        "lang": record.lang,
        "type": record.lang_type,
        "pos": record.pos,
        "pre": record.pre,
        "post": record.post,
        "url": record.url,
    }
