"""End-to-end orchestration: fetch record files, reconstruct per URL in
parallel, write article corpora, and score them against references."""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from string import Formatter
from typing import IO, Iterable, Iterator, NamedTuple, Sequence
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


_GROUPS: dict[str, list[NgramRecord]] = {}
_CONFIG: AssemblyConfig | None = None


def _init_worker(groups: dict[str, list[NgramRecord]], config: AssemblyConfig) -> None:
    """Worker-pool initializer: keep the run's groups and assembly settings
    in this worker for every task it runs."""
    global _GROUPS, _CONFIG
    _GROUPS, _CONFIG = groups, config


def _group_task(url: str):
    """Worker-pool entry: reconstruct one of the groups ``_init_worker`` kept."""
    return _reconstruct_isolated(url, _GROUPS[url], _CONFIG)


def _reconstruct_in_pool(
    urls: list[str], groups: dict[str, list[NgramRecord]], assembly: AssemblyConfig, workers: int
) -> list:
    """Reconstruct the groups of ``urls`` in a pool of ``workers`` processes;
    each task is one URL, and the results come back in the order of ``urls``.

    Workers are forked wherever the platform offers fork, so they inherit
    the groups from this process's memory and no record is pickled; the
    pool forks them before it starts its own threads. Elsewhere each worker
    receives one pickled copy of the groups through the initializer. A
    worker that dies takes the pool down with it; every group whose result
    did not arrive is reported as a group error, and the results that did
    arrive are kept."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    chunksize = max(1, len(urls) // (workers * 4))
    results = []
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
            initargs=(groups, assembly),
        ) as pool:
            for result in pool.map(_group_task, urls, chunksize=chunksize):
                results.append(result)
    except BrokenProcessPool as exc:
        # pool.map yields in the order of urls, so the unfinished groups are the tail
        results.extend([(None, f"worker died: {exc}")] * (len(urls) - len(results)))
    return results


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
    intact. A group that raises, or whose result had not arrived when a
    worker process died, is counted in ``groups_skipped`` and listed in
    ``group_errors``. An unreadable file (ParseError, say a truncated gzip)
    is listed in ``file_errors`` and contributes no records, not even those
    read before the break. Raises ParseError when every input file is
    unreadable, EmptyInputError when nothing survives filtering, and OSError
    for a missing input or an unwritable output path.
    """
    started = time.perf_counter()
    records: list[NgramRecord] = []
    diagnostics = ParseDiagnostics()
    file_errors: list[tuple[str, str]] = []
    paths = expand_inputs(config.inputs)
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
    urls = sorted(groups)  # orders the tasks, their results and the corpus lines
    workers = min(config.workers, len(urls))
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

    Bounds are rounded outward to 15-minute boundaries and both endpoints are
    included. The template must be an http(s) URL whose only placeholder is
    ``{timestamp}``, expanded to YYYYMMDDHHMMSS, and ``timeout`` (seconds per
    request) must be positive; any other template or timeout raises
    ValueError before ``dest`` is created or anything is requested.
    Only HTTP 200 is saved; 404 and any other status below 500 are skipped
    with a warning. Transient failures (5xx, connection errors, timeouts,
    truncated bodies) are retried after ``FETCH_BACKOFF_S`` seconds, doubling
    each time, up to ``FETCH_ATTEMPTS`` tries, then skipped. Each file is
    written through :func:`open_replacing`, so a killed run leaves no
    truncated file under the final name, and a tick whose file already exists
    under that name is not requested again (a ``.part`` file never counts).
    Only an unwritable destination is fatal. Returns the paths this call wrote.
    """
    if start > end:
        raise ValueError("fetch window start must not be after end")
    placeholders = {name for _, name, _, _ in Formatter().parse(template) if name is not None}
    if placeholders - {"timestamp"}:
        raise ValueError(f"template {template!r} has a placeholder other than {{timestamp}}")
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
