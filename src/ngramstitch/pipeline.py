"""End-to-end orchestration: fetch record files, reconstruct per URL (in
forked worker processes where asked), write article corpora, and score them
against references."""

from __future__ import annotations

import gc
import json
import logging
import os
import tempfile
import time
from bisect import bisect_left
from collections import deque
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from pathlib import Path
from string import Formatter
from typing import IO, Iterable, Iterator, NamedTuple, NoReturn, Sequence
from urllib.parse import urlsplit

from .assembly import AssemblyConfig, assemble, deduplicate
from .fragments import build_fragment, slash_neighbours, strip_wraparound_artifact
from .records import (
    NgramRecord,
    ParseDiagnostics,
    ParseError,
    group_by_url,
    parse_file,
)
from .similarity import (
    DEFAULT_THRESHOLDS,
    SimilarityReport,
    format_report_table,
    report_to_json_dict,
    validate_corpus,
)

logger = logging.getLogger(__name__)

FETCH_INTERVAL = timedelta(minutes=15)
FETCH_ATTEMPTS = 3
FETCH_BACKOFF_S = 1.0  # the first retry's wait; each later one doubles it
FETCH_TIMEOUT_S = 60.0  # per request
DEFAULT_FETCH_TEMPLATE = (
    "http://data.gdeltproject.org/gdeltv3/webngrams/{timestamp}.webngrams.json.gz"
)
INPUT_SUFFIXES = (".json", ".ndjson", ".jsonl", ".gz")


class EmptyInputError(RuntimeError):
    """No records survived parsing and filtering."""


@contextmanager
def open_replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write ``<path>.part`` ("w": UTF-8 text, "wb": bytes), creating missing
    parent directories, and rename it onto ``path`` when the block completes.
    A block that raises deletes the part file and leaves ``path`` as it was."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".part")
    try:
        with open(partial, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


class ReconstructedArticle(NamedTuple):
    """One reconstructed article plus assembly quality counters."""

    url: str
    lang: str
    date_first_seen: datetime | None
    text: str
    fragments_total: int
    fragments_used: int
    fragments_unanchored: int
    wraparound_applied: int

    def to_json_dict(self) -> dict:
        """The corpus line: every field in declaration order, the date as ISO."""
        date = self.date_first_seen
        return {**self._asdict(), "date_first_seen": date.isoformat() if date else None}


@dataclass
class RunConfig:
    """Everything a reconstruction run needs; built from CLI flags and an
    optional config file (flags win)."""

    inputs: list[str | Path]
    output: str | Path
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    langs: list[str] | None = None
    url_include: list[str] = field(default_factory=list)
    url_exclude: list[str] = field(default_factory=list)
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.inputs:
            raise ValueError("at least one input path is required")


@dataclass
class RunSummary:
    groups: int = 0
    articles: int = 0
    group_errors: list[tuple[str, str]] = field(default_factory=list)
    file_errors: list[tuple[str, str]] = field(default_factory=list)
    diagnostics: ParseDiagnostics = field(default_factory=ParseDiagnostics)
    wall_time_s: float = 0.0

    @property
    def groups_skipped(self) -> int:
        """Every URL group yields one result: an article, or a skip."""
        return self.groups - self.articles


def reconstruct_group(
    url: str, records: Sequence[NgramRecord], config: AssemblyConfig
) -> ReconstructedArticle | None:
    """Run the fragment -> assemble -> dedup chain for one URL group.

    Returns None when no fragment survives cleaning.
    """
    text_slashes = slash_neighbours(records)
    fragments = []
    wraparound_applied = 0
    for index, record in enumerate(records):
        frag = build_fragment(record)
        if frag is None:
            continue
        stripped = strip_wraparound_artifact(frag, text_slashes)
        if stripped is not frag:
            wraparound_applied += 1
            logger.debug("wrap-around prefix removed: url=%s record=%d", url, index)
        if stripped is None:
            continue
        fragments.append(stripped)
    if not fragments:
        return None

    draft = assemble(fragments, config)
    words = deduplicate(draft.words, config)
    dates = [date for r in records if (date := r.date) is not None]
    return ReconstructedArticle(
        url=url,
        lang=records[0].lang,
        date_first_seen=min(dates) if dates else None,
        text=" ".join(words),
        fragments_total=len(records),
        fragments_used=draft.fragments_used,
        fragments_unanchored=draft.fragments_unanchored,
        wraparound_applied=wraparound_applied,
    )


def _reconstruct_isolated(url: str, records: Sequence[NgramRecord], config: AssemblyConfig):
    """The group's (article, error) pair. Never raises, so one bad group
    cannot kill a batch."""
    try:
        return reconstruct_group(url, records, config), None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return None, f"{type(exc).__name__}: {exc}"


def _run_share(
    urls: list[str], groups: dict[str, list[NgramRecord]], assembly: AssemblyConfig, path: str, sigmask: set
) -> NoReturn:
    """A forked pool child's whole life: reconstruct the groups of ``urls``,
    pickle their (article, error) pairs, in that order, to ``path``, and
    leave through ``os._exit``, never returning into the caller's code. The
    exit status is 0 only once the file is complete. The child starts with
    SIGINT and SIGTERM blocked and restores ``sigmask`` only inside its
    ``try``, so a handler that raises cannot carry it into the caller's code."""
    import pickle
    import signal

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
        results = [_reconstruct_isolated(url, groups[url], assembly) for url in urls]
        with open(path, "wb") as fh:
            pickle.dump(results, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _shares(urls: list[str], groups: dict[str, list[NgramRecord]], count: int) -> list[tuple[int, int]]:
    """``urls`` cut into ``count`` consecutive non-empty runs, as (lo, hi)
    index ranges, holding about the same number of records each."""
    ends = list(accumulate(len(groups[url]) for url in urls))
    cuts = [0]
    for k in range(1, count):
        cut = bisect_left(ends, ends[-1] * k / count) + 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(urls) - count + k))
    cuts.append(len(urls))
    return list(zip(cuts, cuts[1:]))


def _reconstruct_in_pool(
    urls: list[str], groups: dict[str, list[NgramRecord]], assembly: AssemblyConfig, workers: int
) -> list:
    """Reconstruct the groups of ``urls`` in ``workers`` forked child
    processes and return their (article, error) pairs in the order of
    ``urls``. Needs ``os.fork``.

    The URLs are cut into ``workers`` consecutive shares of about equal
    record counts, and each share runs in a child of its own, which reads
    its groups from the memory it inherits (no record is pickled) and
    pickles its results to its own file in a temporary directory. The parent
    reads that file only once the child has exited with status 0. A child
    that dies has its share split in half, and each half runs in a fresh
    child, down to a single URL, which is reported as a ``worker died`` group
    error. So a dying group costs only itself and O(log share) extra
    children, and no group is ever run in the parent. If the parent is
    interrupted, or a fork fails, it kills and reaps its running children
    before the exception propagates. SIGINT and SIGTERM are blocked from
    each fork until its child is recorded: a handler that raised in between,
    or in the fork's own hooks, which swallow exceptions, would leave that
    child running or the signal lost."""
    import pickle
    import signal

    results: list = [None] * len(urls)
    pending = deque(_shares(urls, groups, workers))
    running: deque = deque()
    with tempfile.TemporaryDirectory(prefix="ngramstitch-") as tmp:
        try:
            while pending or running:
                while pending and len(running) < workers:
                    lo, hi = pending.popleft()
                    path = os.path.join(tmp, f"{lo}-{hi}.pickle")
                    sigmask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _run_share(urls[lo:hi], groups, assembly, path, sigmask)
                        running.append((lo, hi, path, pid))
                    finally:
                        signal.pthread_sigmask(signal.SIG_SETMASK, sigmask)
                lo, hi, path, pid = running[0]
                exitcode = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                running.popleft()
                if exitcode == 0:
                    with open(path, "rb") as fh:
                        results[lo:hi] = pickle.load(fh)
                elif hi - lo == 1:
                    results[lo] = (None, f"worker died: exit code {exitcode}")
                else:
                    mid = (lo + hi) // 2
                    pending += ((lo, mid), (mid, hi))
        finally:
            for *_, pid in running:
                # a handler that raised right after a wait left its reaped child here
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
    return results


@contextmanager
def _collector_off() -> Iterator[None]:
    """Skip cyclic garbage collection in the block, then restore the
    caller's setting; :func:`reconstruct_command` runs in one such block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def expand_inputs(inputs: Iterable[str | Path]) -> list[Path]:
    """Resolve input paths; directories expand to the regular files among
    their entries with a record suffix, sorted for reproducible ordering."""
    paths: list[Path] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            paths.extend(sorted(
                p for p in path.iterdir() if p.suffix.lower() in INPUT_SUFFIXES and p.is_file()
            ))
        else:
            paths.append(path)
    return paths


def reconstruct_command(config: RunConfig) -> RunSummary:
    """Parse all inputs, reconstruct every URL group, write the corpus.

    Output is NDJSON, one article per line, sorted by URL so the file bytes
    are identical for any worker count. It is written through
    :func:`open_replacing`, so a failed write leaves any previous corpus
    intact. A group that raises, or that kills the worker process running
    it (see :func:`_reconstruct_in_pool`), is counted in ``groups_skipped``
    and listed in ``group_errors``; every other group is written as a serial
    run writes it. An unreadable file (ParseError, say a truncated gzip) is
    listed in ``file_errors`` and contributes no records, not even those
    read before the break. Raises ParseError when every input file is
    unreadable, EmptyInputError when nothing survives filtering, and OSError
    for a missing input, an unwritable output path or a worker process that
    could not be started.

    With ``config.workers`` above 1 the groups run in forked worker
    processes; where ``os`` has no ``fork`` they run in this process, as
    with one worker, and the bytes are the same. A fork copies only the
    calling thread, so a caller that runs other threads should keep one
    worker.

    The command installs no signal handler; the caller's policy holds. The
    cleanup above runs on an exception, so a caller that wants SIGTERM to
    leave no worker, temporary directory or ``.part`` file behind turns it
    into one, as the ``reconstruct`` CLI command does with ``SystemExit(143)``.
    Forked workers inherit that handler.

    The records, word lists and drafts hold no reference cycles, so cyclic
    garbage collection is off for the whole command, and the caller's
    setting is restored when it returns or raises.
    """
    started = time.perf_counter()
    records: list[NgramRecord] = []
    diagnostics = ParseDiagnostics()
    file_errors: list[tuple[str, str]] = []
    paths = expand_inputs(config.inputs)
    with _collector_off():
        for path in paths:
            try:
                file_records, file_diags = parse_file(
                    path,
                    langs=config.langs,
                    url_include=config.url_include,
                    url_exclude=config.url_exclude,
                )
            except ParseError as exc:
                logger.info("skipping file %s: %s", path, exc)
                file_errors.append((str(path), str(exc)))
                continue
            records.extend(file_records)
            diagnostics = diagnostics + file_diags

        if file_errors and len(file_errors) == len(paths):
            raise ParseError("; ".join(f"{path}: {error}" for path, error in file_errors))
        if not records:
            lines = ["no records left after parsing and filtering"]
            lines += [f"file error: {path}: {error}" for path, error in file_errors]
            raise EmptyInputError("\n".join(lines))

        groups = group_by_url(records)
        urls = sorted(groups)  # orders the shares, their results and the corpus lines
        workers = min(config.workers, len(urls)) if hasattr(os, "fork") else 1
        if workers > 1:
            results = _reconstruct_in_pool(urls, groups, config.assembly, workers)
        else:
            results = [_reconstruct_isolated(url, groups[url], config.assembly) for url in urls]

        summary = RunSummary(groups=len(urls), diagnostics=diagnostics, file_errors=file_errors)
        articles: list[ReconstructedArticle] = []
        for url, (article, error) in zip(urls, results, strict=True):
            if error is not None:
                logger.info("skipping group %s: %s", url, error)
                summary.group_errors.append((url, error))
            elif article is None:
                logger.info("skipping group %s: no usable fragments", url)
            else:
                articles.append(article)

        with open_replacing(config.output) as fh:
            for article in articles:
                fh.write(json.dumps(article.to_json_dict(), ensure_ascii=False))
                fh.write("\n")

    summary.articles = len(articles)
    summary.wall_time_s = time.perf_counter() - started
    return summary


def read_corpus(path: str | Path) -> dict[str, str]:
    """Load an NDJSON corpus ({url, text} per line) into a url -> text map.
    The first occurrence of a URL wins; later duplicates are ignored. A line
    that is not UTF-8 {url, text} JSON raises ValueError naming file and line."""
    texts: dict[str, str] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                url, text = obj["url"], obj["text"]
                if not (isinstance(url, str) and isinstance(text, str)):
                    raise TypeError("url and text must be strings")
            except (ValueError, RecursionError, TypeError, KeyError) as exc:
                # ValueError covers bad UTF-8, bad JSON and an integer literal
                # past the interpreter's digit limit; RecursionError is JSON
                # nested deeper than the decoder's recursion limit.
                raise ValueError(f"{path}:{lineno}: not a valid corpus line ({exc})") from exc
            if url not in texts:
                texts[url] = text
    return texts


class JoinStats(NamedTuple):
    matched: int
    unmatched_reconstructed: int
    unmatched_reference: int


def validate_command(
    reconstructed_path: str | Path,
    reference_path: str | Path,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    report_json: str | Path | None = None,
    report_table: str | Path | None = None,
) -> tuple[SimilarityReport, JoinStats]:
    """Join two corpora on exact URL equality and score the matched pairs.

    Unmatched URLs on either side are counted, not scored. The report is
    written as JSON and/or an aligned table when paths are given, and a
    failed write leaves neither new file; zero matches is not an error.
    """
    reconstructed = read_corpus(reconstructed_path)
    reference = read_corpus(reference_path)

    matched_urls = sorted(set(reconstructed) & set(reference))
    stats = JoinStats(
        matched=len(matched_urls),
        unmatched_reconstructed=len(reconstructed) - len(matched_urls),
        unmatched_reference=len(reference) - len(matched_urls),
    )
    if not matched_urls:
        logger.info("no URLs in common between %s and %s", reconstructed_path, reference_path)
    pairs = [(reconstructed[url], reference[url], url) for url in matched_urls]
    report = validate_corpus(pairs, thresholds)

    with ExitStack() as stack:
        if report_json is not None:
            payload = report_to_json_dict(report)
            payload["pairs_matched"] = stats.matched
            payload["unmatched_reconstructed"] = stats.unmatched_reconstructed
            payload["unmatched_reference"] = stats.unmatched_reference
            fh = stack.enter_context(open_replacing(report_json))
            json.dump(payload, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
        if report_table is not None:
            fh = stack.enter_context(open_replacing(report_table))
            fh.write(format_report_table(report))
            fh.write("\n")
    return report, stats


def _align_down(moment: datetime) -> datetime:
    minute = (moment.minute // 15) * 15
    return moment.replace(minute=minute, second=0, microsecond=0)


def fetch_window(
    start: datetime,
    end: datetime,
    template: str = DEFAULT_FETCH_TEMPLATE,
    dest: str | Path = ".",
    timeout: float = FETCH_TIMEOUT_S,
) -> list[Path]:
    """Download one record file per 15-minute tick in [start, end].

    Bounds are converted to UTC (a naive bound is taken as UTC), rounded
    outward to 15-minute boundaries, and both endpoints are included. The
    template must be an http(s) URL whose only placeholder is ``{timestamp}``,
    in the file name (after the last ``/``) so that each tick gets a file of
    its own, expanded to the UTC tick as YYYYMMDDHHMMSS, and ``timeout``
    (seconds per request) must be positive; any other template or timeout
    raises ValueError before ``dest`` is created or anything is requested.
    Only HTTP 200 is saved; 404 and any other status below 500 are skipped
    with a warning. Transient failures (5xx, connection errors, timeouts,
    truncated bodies) are retried after ``FETCH_BACKOFF_S`` seconds, doubling
    each time, up to ``FETCH_ATTEMPTS`` tries, then skipped. Each file is
    written through :func:`open_replacing`, so a killed run leaves no
    truncated file under the final name, and a tick whose file already exists
    under that name is not requested again (a ``.part`` file never counts).
    Only an unwritable destination is fatal. Returns the paths this call wrote.
    """
    start, end = (
        moment.astimezone(timezone.utc) if moment.tzinfo else moment.replace(tzinfo=timezone.utc)
        for moment in (start, end)
    )
    if start > end:
        raise ValueError("fetch window start must not be after end")
    placeholders = {name for _, name, _, _ in Formatter().parse(template) if name is not None}
    if placeholders != {"timestamp"}:
        raise ValueError(
            f"template {template!r} must contain {{timestamp}}"
            " and no placeholder other than {timestamp}"
        )
    probes = ("20000101000000", "20000101001500")  # two ticks 15 minutes apart
    if len({template.format(timestamp=tick).rsplit("/", 1)[-1] for tick in probes}) == 1:
        # every tick would be saved to, or skipped as, the same file
        raise ValueError(f"template {template!r} must put {{timestamp}} in the file name, after the last '/'")
    if urlsplit(template).scheme not in ("http", "https"):
        raise ValueError(f"unknown url type in template {template!r}: it must be an http(s) URL")
    if not timeout > 0:  # also rejects NaN
        raise ValueError(f"timeout must be a positive number of seconds, not {timeout!r}")
    dest_dir = Path(dest)
    dest_dir.mkdir(parents=True, exist_ok=True)

    tick = _align_down(start)
    aligned_end = _align_down(end)
    if aligned_end < end:
        aligned_end += FETCH_INTERVAL

    downloaded: list[Path] = []
    missing = False
    while tick <= aligned_end:
        url = template.format(timestamp=tick.strftime("%Y%m%d%H%M%S"))
        target = dest_dir / url.rsplit("/", 1)[-1]
        if target.is_file():
            logger.info("already downloaded: %s", target)
        elif (content := _fetch_one(url, timeout)) is not None:
            with open_replacing(target, "wb") as fh:
                fh.write(content)
            downloaded.append(target)
        else:
            missing = True
        tick += FETCH_INTERVAL
    if missing and not downloaded:
        logger.warning("no files downloaded for window %s .. %s", start, end)
    return downloaded


def _fetch_one(url: str, timeout: float) -> bytes | None:
    # imported here: loading urllib.request and http.client adds ~15 ms to every CLI start
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError

    for attempt in range(FETCH_ATTEMPTS):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                status, content = response.status, response.read()
        except HTTPError as exc:  # status >= 400; an OSError, so it is caught first
            status, failure = exc.code, exc
            exc.close()
        except (OSError, HTTPException) as exc:  # HTTPException includes IncompleteRead
            status, failure = None, exc
        if status == 200:
            return content
        if status == 404:
            logger.warning("missing tick (404): %s", url)
            return None
        if status is not None and status < 500:
            logger.warning("skipping %s: HTTP %d", url, status)
            return None
        logger.info("attempt %d for %s failed: %s", attempt + 1, url, failure)
        if attempt + 1 < FETCH_ATTEMPTS:
            time.sleep(FETCH_BACKOFF_S * (2**attempt))
    logger.warning("giving up on %s after %d attempts", url, FETCH_ATTEMPTS)
    return None
