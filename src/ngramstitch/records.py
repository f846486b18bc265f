"""Parse GDELT Web News NGrams records from NDJSON streams and group them by URL.

Most lines of a real feed are discarded (other languages, other hosts,
type-2 scripts), so the parser checks every line, classifies it, and builds
a record only for a line it keeps. Dates are parsed once per distinct value,
and the records of one call share one string object per distinct url and
lang.

The feed has one fixed schema; its JSON keys are spelled out only in
:func:`parse_records` and its inverse :func:`record_to_json_dict`.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import zlib
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple

logger = logging.getLogger(__name__)

GZIP_MAGIC = b"\x1f\x8b"


class ParseError(Exception):
    """The input stream itself is unreadable (bad gzip container, broken file)."""


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


def _parse_date(value: str) -> datetime | None:
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        try:
            parsed = datetime.strptime(value.strip(), "%Y%m%d%H%M%S")
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


def _binary_lines(stream: BinaryIO) -> Iterable[bytes]:
    """Yield raw lines, gunzipping a stream that starts with the gzip magic or a prefix of it."""
    if not hasattr(stream, "peek"):
        stream = io.BufferedReader(stream)
    head = stream.peek(2)[:2]
    if head and GZIP_MAGIC.startswith(head):
        try:
            # GzipFile's own line iterator is Python code; a BufferedReader
            # over it splits the decompressed bytes into lines in C.
            with gzip.GzipFile(fileobj=stream) as gz, io.BufferedReader(gz) as lines:
                yield from lines
        except (OSError, EOFError, zlib.error) as exc:
            raise ParseError(f"unreadable gzip stream: {exc}") from exc
    else:
        yield from stream


_decode_json = json.JSONDecoder().decode


def parse_records(
    stream: BinaryIO,
    langs: Iterable[str] | None = None,
    url_include: Iterable[str] | None = None,
    url_exclude: Iterable[str] | None = None,
) -> tuple[list[NgramRecord], ParseDiagnostics]:
    """Parse newline-delimited JSON (optionally gzipped) into records.

    Each line goes through three steps. First every validity check runs on
    it: ngram and url are non-blank strings, type is 1 or 2, pos is an int,
    and pre, post and lang are strings; a failing line is malformed. Then a
    pos outside [0, 100] is clamped and counted. Last the line is classified
    as type-2 skipped, filtered, or kept, and only a kept line is built into
    a record, in line order. Dates are parsed once per distinct date string
    and shared by the records that carry it; so is one string object per
    distinct url and lang.

    Malformed lines (bad UTF-8, bad JSON, JSON nested too deep, an integer
    literal too long to convert, missing or invalid required fields) are
    skipped and counted, never fatal; only an unreadable stream raises
    ParseError. Blank lines are ignored entirely.

    ``langs`` is an allow-list of exact language codes; ``url_include`` and
    ``url_exclude`` are substring patterns (any include must match, no
    exclude may match).
    """
    lang_set = set(langs) if langs is not None else None
    includes = list(url_include) if url_include else []
    excludes = list(url_exclude) if url_exclude else []

    records: list[NgramRecord] = []
    dates: dict[str, datetime | None] = {}
    urls: dict[str, str] = {}
    lang_names: dict[str, str] = {}
    lines_read = malformed = type2_skipped = filtered = pos_clamped = 0

    for raw in _binary_lines(stream):
        stripped = raw.strip()
        if not stripped:
            continue
        lines_read += 1
        try:
            obj = _decode_json(stripped.decode("utf-8"))
        except (ValueError, RecursionError):
            # ValueError covers bad UTF-8, bad JSON and an integer literal
            # past the interpreter's digit limit; RecursionError is JSON
            # nested deeper than the decoder's recursion limit.
            malformed += 1
            continue
        if not isinstance(obj, dict):
            malformed += 1
            continue

        ngram = obj.get("ngram")
        url = obj.get("url")
        if not isinstance(ngram, str) or not ngram.strip():
            malformed += 1
            continue
        if not isinstance(url, str) or not url.strip():
            malformed += 1
            continue
        lang_type = _coerce_int(obj.get("type"))
        if lang_type not in (1, 2):
            malformed += 1
            continue
        pos = _coerce_int(obj.get("pos"))
        if pos is None:
            malformed += 1
            continue
        pre = obj.get("pre", "")
        post = obj.get("post", "")
        lang = obj.get("lang", "")
        if not isinstance(pre, str) or not isinstance(post, str) or not isinstance(lang, str):
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
        if includes and not any(pat in url for pat in includes):
            filtered += 1
            continue
        if excludes and any(pat in url for pat in excludes):
            filtered += 1
            continue

        date_text = obj.get("date")
        if not isinstance(date_text, str):
            date = None
        elif date_text in dates:
            date = dates[date_text]
        else:
            date = dates[date_text] = _parse_date(date_text)
        url = urls.setdefault(url, url)
        lang = lang_names.setdefault(lang, lang)
        records.append(NgramRecord(ngram, url, lang, lang_type, pos, pre, post, date))

    diags = ParseDiagnostics(
        lines_read=lines_read,
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
