"""Command-line interface: reconstruct, validate, shred, fetch."""

from __future__ import annotations

import json
import logging
import sys
import threading
from collections.abc import Iterable
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

import click

from .assembly import AssemblyConfig
from .pipeline import (
    DEFAULT_FETCH_TEMPLATE,
    FETCH_TIMEOUT_S,
    EmptyInputError,
    RunConfig,
    RunSummary,
    expand_inputs,
    fetch_window,
    open_replacing,
    reconstruct_command,
    validate_command,
)
from .records import ParseError, _parse_date, record_to_json_dict
from .shredder import MODE_ALL_OCCURRENCES, MODE_DISTINCT_FIRST, ShredConfig, shred
from .similarity import DEFAULT_THRESHOLDS, format_report_table

EXIT_EMPTY_INPUT = 3
EXIT_IO_ERROR = 4
EXIT_PARTIAL = 5  # a corpus was written, but some input file or URL group failed


def _load_config_file(path: str | None, options: dict[str, click.Option]) -> dict:
    """The config file's JSON object, after every key is matched to the option
    of the same name and its value checked the way that flag's would be."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise click.UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise click.UsageError(f"config file {path} must hold a JSON object")
    for key, value in config.items():
        if key not in options:
            raise click.UsageError(f"unknown config key {key!r} in {path}")
        if options[key].type is click.INT:
            ok = type(value) is int  # bool is a subclass of int, but true is no count
            kind = "an integer"
        else:
            ok = isinstance(value, str) or (
                isinstance(value, list) and all(isinstance(part, str) for part in value)
            )
            kind = "a string or a list of strings"
        if not ok:
            raise click.UsageError(f"config key {key!r} must be {kind}, not {json.dumps(value)}")
    return config


def _setting(option: click.Option, value):
    """A setting as its config class takes it: a string is one pattern of a
    repeatable option, and a comma-separated list for any other option."""
    if isinstance(value, str):
        return [value] if option.multiple else [part.strip() for part in value.split(",") if part.strip()]
    return list(value) if isinstance(value, tuple) else value


def _reject_same_file(outputs: list[tuple[str, str | None]], inputs: Iterable[str | Path]) -> None:
    """Refuse, before anything is written, an output option (given as an
    (option, path or None) pair) that names one of the command's input files
    or another output: writing it would replace that file."""
    taken = {Path(path).resolve(): f"input {path}" for path in inputs}
    for option, path in outputs:
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in taken:
            raise click.UsageError(f"{taken[resolved]} and {option} name the same file: {path}")
        taken[resolved] = option


def summary_lines(summary: RunSummary, output: str | Path) -> list[str]:
    """Human-readable run summary for stderr, for a corpus written to ``output``."""
    d = summary.diagnostics
    lines = [
        f"groups: {summary.groups} ({summary.groups_skipped} skipped)",
        f"articles written: {summary.articles} -> {Path(output)}",
        (
            f"records: ok={d.records_ok} malformed={d.lines_malformed} "
            f"type2_skipped={d.records_type2_skipped} filtered={d.records_filtered} "
            f"pos_clamped={d.pos_clamped} (lines read: {d.lines_read})"
        ),
        f"wall time: {summary.wall_time_s:.2f}s",
    ]
    for path, error in summary.file_errors:
        lines.append(f"file error: {path}: {error}")
    for url, error in summary.group_errors:
        lines.append(f"group error: {url}: {error}")
    return lines


def _parse_thresholds(value: str) -> list[float]:
    try:
        thresholds = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"thresholds must be comma-separated numbers: {value!r}")
    if any(not 0 <= t <= 1 for t in thresholds):
        raise click.UsageError("thresholds must lie in [0, 1]")
    return thresholds


class _Commands(click.Group):
    """The command group: its ``invoke`` decides, for every command, what
    SIGTERM does and the exit status of an error that reaches it."""

    def invoke(self, ctx: click.Context):
        import signal  # imported here, so that importing the CLI loads nothing more

        def stop(signum, frame):
            # an exception, unlike the default action, runs the command's cleanup: the
            # removal of a half-written .part file, and the pool's kill and reap
            raise SystemExit(128 + signum)

        # only the main thread may set a handler; called from another, the caller's policy holds
        on_main_thread = threading.current_thread() is threading.main_thread()
        previous = signal.signal(signal.SIGTERM, stop) if on_main_thread else None
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed stdout ends as click ends it: exit 1, with no message
        except EmptyInputError as exc:
            click.echo(f"empty input: {exc}", err=True)
            sys.exit(EXIT_EMPTY_INPUT)
        except ParseError as exc:
            click.echo(f"unreadable input: {exc}", err=True)
            sys.exit(EXIT_IO_ERROR)
        except OSError as exc:
            click.echo(f"I/O error: {exc}", err=True)
            sys.exit(EXIT_IO_ERROR)
        finally:
            if on_main_thread:
                signal.signal(signal.SIGTERM, previous)


@click.group(cls=_Commands)
@click.option("-v", "--verbose", count=True, help="Increase log detail (-v info, -vv debug).")
def main(verbose: int):
    """Rebuild full news-article text from web-ngrams record files."""
    level = logging.WARNING - 10 * min(verbose, 2)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path(), help="Corpus NDJSON to write.")
@click.option("--config", "config_path", type=click.Path(), help="JSON config file; flags win.")
@click.option("--langs", help="Comma-separated language allow-list (e.g. 'en,it').")
@click.option("--url-include", multiple=True, help="Keep only URLs containing this substring (repeatable).")
@click.option("--url-exclude", multiple=True, help="Drop URLs containing this substring (repeatable).")
@click.option("--min-overlap", type=int, help="Smallest word overlap accepted for a merge.")
@click.option("--pos-window", type=int, help="Max position-decile distance for a merge.")
@click.option("--min-dup-run", type=int, help="Shortest adjacent duplicate run to collapse.")
@click.option(
    "--workers",
    type=int,
    help=(
        f"Forked worker processes over URL groups (default {RunConfig.workers});"
        " without os.fork the groups run in-process."
    ),
)
def reconstruct(inputs, output, config_path, **flags):
    """Reconstruct articles from record files (NDJSON, plain or .gz).

    INPUTS are record files or directories of them. Writes one article per
    line, sorted by URL, and a run summary to stderr.
    """
    # Every option that lands in **flags is a setting a config file may hold. Flags win
    # over the file; a setting given by neither is left out, so its config class's default holds.
    options = {option.name: option for option in reconstruct.params if option.name in flags}
    settings = _load_config_file(config_path, options)
    settings.update((name, value) for name, value in flags.items() if value not in (None, ()))
    settings = {name: _setting(options[name], value) for name, value in settings.items()}
    assembly = {f.name: settings.pop(f.name) for f in fields(AssemblyConfig) if f.name in settings}
    try:
        run_config = RunConfig(list(inputs), output, AssemblyConfig(**assembly), **settings)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _reject_same_file([("-o/--output", output)], expand_inputs(inputs))
    summary = reconstruct_command(run_config)
    for line in summary_lines(summary, output):
        click.echo(line, err=True)
    if summary.file_errors or summary.group_errors:
        sys.exit(EXIT_PARTIAL)


@main.command()
@click.argument("reconstructed", type=click.Path())
@click.argument("reference", type=click.Path())
@click.option("--thresholds", default=",".join(map(str, DEFAULT_THRESHOLDS)), show_default=True,
              help="Comma-separated Jaccard cutoffs for the filter columns.")
@click.option("--report-json", type=click.Path(), help="Write the machine-readable report here.")
@click.option("--report-table", type=click.Path(), help="Write the text table here (also printed).")
def validate(reconstructed, reference, thresholds, report_json, report_table):
    """Score a reconstructed corpus against a reference corpus.

    Both arguments are NDJSON files with at least {"url": ..., "text": ...}
    per line; articles are paired by exact URL match.
    """
    _reject_same_file(
        [("--report-json", report_json), ("--report-table", report_table)], [reconstructed, reference]
    )
    cutoffs = _parse_thresholds(thresholds)
    try:
        report, stats = validate_command(
            reconstructed, reference, cutoffs,
            report_json=report_json, report_table=report_table,
        )
    except ValueError as exc:  # a corpus line that is not UTF-8 {url, text} JSON
        click.echo(f"invalid corpus: {exc}", err=True)
        sys.exit(EXIT_IO_ERROR)
    click.echo(format_report_table(report))
    click.echo(
        f"pairs matched: {stats.matched}  "
        f"unmatched reconstructed: {stats.unmatched_reconstructed}  "
        f"unmatched reference: {stats.unmatched_reference}",
        err=True,
    )
    if stats.matched == 0:
        click.echo("warning: no matching URLs, nothing scored", err=True)


@main.command(name="shred")
@click.argument("sources", nargs=-1, required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path(), help="Record NDJSON to write.")
@click.option("--reference-out", type=click.Path(),
              help="Also write a {url, text} reference corpus for validate.")
@click.option("--url-prefix", default="https://synthetic.test/", show_default=True,
              help="Article URLs are this prefix plus each source filename stem.")
@click.option("--lang", default="en", show_default=True)
@click.option("--window", type=int, default=ShredConfig.window, show_default=True,
              help="Context words kept on each side.")
@click.option("--mode", type=click.Choice([MODE_ALL_OCCURRENCES, MODE_DISTINCT_FIRST]),
              default=ShredConfig.mode, show_default=True)
@click.option("--drop-rate", type=float, default=ShredConfig.drop_rate, show_default=True,
              help="Fraction of records randomly withheld.")
@click.option("--seed", type=int, default=ShredConfig.seed, show_default=True)
def shred_cmd(sources, output, reference_out, url_prefix, lang, **settings):
    """Shred plain-text articles into synthetic record files.

    Each SOURCE file becomes one article's worth of records, letting the
    whole reconstruct/validate chain run against known ground truth.
    """
    _reject_same_file([("-o/--output", output), ("--reference-out", reference_out)], sources)
    try:
        config = ShredConfig(**settings)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    prefix = url_prefix if url_prefix.endswith("/") else url_prefix + "/"
    sources_by_url: dict[str, str] = {}
    for source in sources:
        url = prefix + Path(source).stem
        if url in sources_by_url:
            raise click.UsageError(f"{sources_by_url[url]} and {source} would share the article URL {url}")
        sources_by_url[url] = source

    with ExitStack() as stack:
        out_fh = stack.enter_context(open_replacing(output))
        reference_fh = stack.enter_context(open_replacing(reference_out)) if reference_out else None
        for url, source in sources_by_url.items():
            try:
                text = Path(source).read_text(encoding="utf-8")
                records = shred(text, config, url=url, lang=lang)
            except ValueError as exc:  # an empty or a non-UTF-8 source
                raise click.UsageError(f"{source}: {exc}")
            for record in records:
                out_fh.write(json.dumps(record_to_json_dict(record), ensure_ascii=False))
                out_fh.write("\n")
            if reference_fh is not None:
                clean = " ".join(text.split())
                reference_fh.write(json.dumps({"url": url, "text": clean}, ensure_ascii=False))
                reference_fh.write("\n")


@main.command()
@click.option("--start", required=True,
              help="Window start (ISO or YYYYMMDDHHMMSS timestamp, UTC unless it has an offset).")
@click.option("--end", required=True,
              help="Window end (ISO or YYYYMMDDHHMMSS timestamp, inclusive).")
@click.option("--dest", required=True, type=click.Path(), help="Directory for downloaded files.")
@click.option("--template", default=DEFAULT_FETCH_TEMPLATE, show_default=True,
              help="URL pattern; its file name (after the last '/') must contain {timestamp},"
                   " which expands to the UTC tick as YYYYMMDDHHMMSS.")
@click.option("--timeout", type=float, default=FETCH_TIMEOUT_S, show_default=True)
def fetch(start, end, dest, template, timeout):
    """Download record files for a time window, one per 15-minute tick.

    Missing ticks are skipped with a warning; an entirely empty window is not
    an error.
    """
    start_ts, end_ts = _parse_date(start), _parse_date(end)
    for flag, value, moment in (("--start", start, start_ts), ("--end", end, end_ts)):
        if moment is None:
            raise click.UsageError(f"{flag} is not an ISO or YYYYMMDDHHMMSS timestamp: {value!r}")
    try:
        paths = fetch_window(start_ts, end_ts, template=template, dest=dest, timeout=timeout)
    except ValueError as exc:  # --start after --end, a bad --template, or a --timeout not above 0
        raise click.UsageError(str(exc))
    click.echo(f"downloaded {len(paths)} file(s) to {dest}", err=True)
    for path in paths:
        click.echo(str(path))


if __name__ == "__main__":
    main()
