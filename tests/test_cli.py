import gzip
import json
import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from contextlib import suppress
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from ngramstitch import cli, pipeline
from ngramstitch.cli import main, reconstruct
from ngramstitch.pipeline import RunSummary, read_corpus
from conftest import make_article


@pytest.fixture
def runner():
    return CliRunner()


def write_sources(tmp_path, texts):
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"article{i:02d}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def test_shred_reconstruct_validate_round_trip(runner, tmp_path, rng, vocab, vocab_weights):
    texts = [make_article(rng, 120, vocab, vocab_weights) for _ in range(3)]
    sources = write_sources(tmp_path, texts)
    records = tmp_path / "records.ndjson"
    reference = tmp_path / "reference.ndjson"
    corpus = tmp_path / "corpus.ndjson"
    report_json = tmp_path / "report.json"

    result = runner.invoke(
        main,
        ["shred", *map(str, sources), "-o", str(records), "--reference-out", str(reference)],
    )
    assert result.exit_code == 0, result.output

    result = runner.invoke(main, ["reconstruct", str(records), "-o", str(corpus)])
    assert result.exit_code == 0, result.output
    assert read_corpus(corpus) == read_corpus(reference)

    result = runner.invoke(
        main,
        ["validate", str(corpus), str(reference), "--report-json", str(report_json)],
    )
    assert result.exit_code == 0, result.output
    assert "Levenshtein Similarity" in result.output
    assert "1.000000" in result.output
    payload = json.loads(report_json.read_text())
    assert payload["pairs_matched"] == 3
    assert all(row["mean"] == 1.0 for row in payload["summary"])


def test_reconstruct_empty_input_exit_code(runner, tmp_path):
    records = tmp_path / "records.ndjson"
    records.write_text(
        '{"ngram":"x","url":"u","lang":"zh","type":2,"pos":0,"pre":"","post":""}\n'
    )
    result = runner.invoke(main, ["reconstruct", str(records), "-o", str(tmp_path / "o.ndjson")])
    assert result.exit_code == 3
    assert "empty input" in result.output


def test_empty_input_names_the_unreadable_files(runner, tmp_path):
    kept = tmp_path / "it.ndjson"
    kept.write_text('{"ngram":"x","url":"u","lang":"it","type":1,"pos":0,"pre":"","post":""}\n')
    cut = tmp_path / "cut.ndjson.gz"
    cut.write_bytes(gzip.compress(kept.read_bytes())[:-1])
    result = runner.invoke(
        main, ["reconstruct", str(kept), str(cut), "-o", str(tmp_path / "o.ndjson"), "--langs", "en"]
    )
    assert result.exit_code == 3  # the readable file's records are all filtered out
    assert f"file error: {cut}: unreadable gzip stream" in result.output


def test_reconstruct_missing_file_exit_code(runner, tmp_path):
    result = runner.invoke(
        main, ["reconstruct", str(tmp_path / "missing.ndjson"), "-o", str(tmp_path / "o.ndjson")]
    )
    assert result.exit_code == 4
    assert "I/O error" in result.output


def test_reconstruct_bad_flag_value_is_usage_error(runner, tmp_path):
    records = tmp_path / "r.ndjson"
    records.write_text("")
    result = runner.invoke(
        main,
        ["reconstruct", str(records), "-o", str(tmp_path / "o.ndjson"), "--workers", "0"],
    )
    assert result.exit_code == 2


def test_config_file_with_flag_override(runner, tmp_path, rng, vocab, vocab_weights):
    text = make_article(rng, 60, vocab, vocab_weights)
    source = write_sources(tmp_path, [text])[0]
    records = tmp_path / "records.ndjson"
    runner.invoke(main, ["shred", str(source), "-o", str(records), "--lang", "it"])

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"langs": ["en"], "workers": 1}))

    out = tmp_path / "o.ndjson"
    result = runner.invoke(
        main, ["reconstruct", str(records), "-o", str(out), "--config", str(config)]
    )
    assert result.exit_code == 3  # config language filter drops everything

    result = runner.invoke(
        main,
        ["reconstruct", str(records), "-o", str(out), "--config", str(config), "--langs", "it"],
    )
    assert result.exit_code == 0, result.output  # flag overrides config file
    assert list(read_corpus(out).values()) == [text]


# every reconstruct option a config file may set: all but the output and the config file itself
SETTINGS = [
    p for p in reconstruct.params if isinstance(p, click.Option) and p.name not in ("output", "config_path")
]


@pytest.mark.parametrize("option", SETTINGS, ids=lambda option: option.name)
def test_every_setting_is_a_config_key_and_its_flag_wins(runner, tmp_path, monkeypatch, option):
    runs = []
    monkeypatch.setattr(cli, "reconstruct_command", lambda config: runs.append(config) or RunSummary())
    file_value, flag_value = (2, 3) if option.type is click.INT else ("a", "b")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({option.name: file_value}))
    argv = ["reconstruct", "r.ndjson", "-o", str(tmp_path / "o.ndjson"), "--config", str(config)]
    for extra in ([], [option.opts[-1], str(flag_value)]):
        result = runner.invoke(main, argv + extra)
        assert result.exit_code == 0, result.output

    def setting(run):
        holder = run.assembly if hasattr(run.assembly, option.name) else run
        return getattr(holder, option.name)

    expected = [file_value, flag_value] if option.type is click.INT else [[file_value], [flag_value]]
    assert [setting(run) for run in runs] == expected


@pytest.mark.parametrize(
    "key, value",
    [
        ("field_map", {"ngram": "unigram"}),
        ("min_overlp", 3),
        ("min_overlap", "3"),
        ("workers", "2"),
        ("pos_window", None),
        ("langs", 5),
        ("langs", ["en", 3]),
        ("workers", 2.5),
        ("workers", True),
        ("min_dup_run", 5.0),
    ],
)
def test_config_bad_key_or_value_is_usage_error(runner, tmp_path, key, value):
    records = tmp_path / "r.ndjson"
    records.write_text("")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    result = runner.invoke(
        main, ["reconstruct", str(records), "-o", str(tmp_path / "o.ndjson"), "--config", str(config)]
    )
    assert result.exit_code == 2, result.output
    assert repr(key) in result.output


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config file"), ("{workers: 2}", "is not valid JSON"),
     ('["workers", 2]', "must hold a JSON object"), ('{"langs": "fran\xe7ais"}', "is not valid JSON")],
    ids=["missing", "not-json", "list", "latin-1"],
)
def test_config_file_unusable_is_usage_error(runner, tmp_path, content, message):
    records = tmp_path / "r.ndjson"
    records.write_text("")
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content.encode("latin-1"))  # not UTF-8 where it holds a non-ASCII letter
    result = runner.invoke(
        main, ["reconstruct", str(records), "-o", str(tmp_path / "o.ndjson"), "--config", str(config)]
    )
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_cut_gzip_file_skips_only_itself(runner, tmp_path, rng, vocab, vocab_weights):
    # this case pins the messages and exit statuses; the cut offsets are drawn by
    # test_pipeline.py's test_split_input_files_write_the_single_file_corpus
    texts = [make_article(rng, 80, vocab, vocab_weights), make_article(rng, 1500, vocab, vocab_weights)]
    clean_source, cut_source = write_sources(tmp_path, texts)
    clean = tmp_path / "clean.ndjson"
    reference = tmp_path / "reference.ndjson"
    result = runner.invoke(
        main, ["shred", str(clean_source), "-o", str(clean), "--reference-out", str(reference)]
    )
    assert result.exit_code == 0, result.output
    whole = tmp_path / "whole.ndjson"
    result = runner.invoke(main, ["shred", str(cut_source), "-o", str(whole)])
    assert result.exit_code == 0, result.output
    packed = gzip.compress(whole.read_bytes())
    broken = tmp_path / "broken.ndjson.gz"
    broken.write_bytes(packed[: len(packed) // 2])
    # lines that decode before the break, which the broken file must not contribute
    assert zlib.decompressobj(31).decompress(broken.read_bytes()).count(b"\n") > 0

    out = tmp_path / "o.ndjson"
    result = runner.invoke(main, ["reconstruct", str(clean), str(broken), "-o", str(out)])
    assert result.exit_code == 5, result.output  # partial: a corpus, but a file failed
    assert read_corpus(out) == read_corpus(reference)
    assert f"file error: {broken}: unreadable gzip stream" in result.output
    clean_lines = len(clean.read_text().splitlines())
    assert f"records: ok={clean_lines} " in result.output

    result = runner.invoke(main, ["reconstruct", str(broken), "-o", str(out)])
    assert result.exit_code == 4  # no input file is readable
    assert "unreadable input" in result.output


def shred_two_hosts(runner, tmp_path, rng, vocab, vocab_weights):
    """Records for one article on herald.test and one on other.test."""
    texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(2)]
    sources = write_sources(tmp_path, texts)
    paths = []
    for host, source in zip(["herald.test", "other.test"], sources):
        path = tmp_path / f"{host}.ndjson"
        result = runner.invoke(
            main, ["shred", str(source), "-o", str(path), "--url-prefix", f"https://{host}/"]
        )
        assert result.exit_code == 0, result.output
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "key, pattern, kept_host",
    [("url_include", "herald.test/", "herald.test"), ("url_exclude", "zzz/", None)],
)
def test_config_url_pattern_string_is_one_pattern(
    runner, tmp_path, rng, vocab, vocab_weights, key, pattern, kept_host
):
    inputs = shred_two_hosts(runner, tmp_path, rng, vocab, vocab_weights)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: pattern}))
    out = tmp_path / "o.ndjson"
    result = runner.invoke(main, ["reconstruct", *inputs, "-o", str(out), "--config", str(config)])
    assert result.exit_code == 0, result.output
    hosts = sorted(url.split("/")[2] for url in read_corpus(out))
    assert hosts == ([kept_host] if kept_host else ["herald.test", "other.test"])


@pytest.mark.parametrize("value", [7, None, {"herald.test": True}, ["herald.test", 3]])
def test_config_url_pattern_bad_value_is_usage_error(runner, tmp_path, value):
    records = tmp_path / "r.ndjson"
    records.write_text("")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"url_exclude": value}))
    result = runner.invoke(
        main, ["reconstruct", str(records), "-o", str(tmp_path / "o.ndjson"), "--config", str(config)]
    )
    assert result.exit_code == 2
    assert "url_exclude" in result.output


def test_validate_missing_file_exit_code(runner, tmp_path):
    ref = tmp_path / "ref.ndjson"
    ref.write_text('{"url": "u", "text": "x"}\n')
    result = runner.invoke(main, ["validate", str(tmp_path / "missing.ndjson"), str(ref)])
    assert result.exit_code == 4


@pytest.mark.parametrize(
    "line",
    [
        '{"url": 5, "text": "x"}',
        '{"url": "u", "text": "caf\xe9"}',
        "[" * 100000 + "]" * 100000,
        '{"url": "u", "text": ' + "7" * 5000 + "}",
    ],
    ids=["int-url", "latin-1", "nested-past-recursion-limit", "integer-past-digit-limit"],
)
def test_validate_malformed_corpus_line_is_invalid_corpus(runner, tmp_path, line):
    corpus = tmp_path / "bad.ndjson"
    corpus.write_bytes(f"{line}\n".encode("latin-1"))
    result = runner.invoke(main, ["validate", str(corpus), str(corpus)])
    assert result.exit_code == 4
    assert f"invalid corpus: {corpus}:1: not a valid corpus line" in result.output
    assert "I/O error" not in result.output


@pytest.mark.parametrize(
    "thresholds, message",
    [("x", "thresholds must be comma-separated numbers"), ("0.5,1.5", "thresholds must lie in [0, 1]")],
)
def test_validate_bad_thresholds_is_usage_error(runner, tmp_path, thresholds, message):
    corpus = tmp_path / "c.ndjson"
    corpus.write_text('{"url": "u", "text": "x"}\n')
    result = runner.invoke(main, ["validate", str(corpus), str(corpus), "--thresholds", thresholds])
    assert result.exit_code == 2
    assert message in result.output


def test_validate_disjoint_urls_warns_but_succeeds(runner, tmp_path):
    left = tmp_path / "l.ndjson"
    right = tmp_path / "r.ndjson"
    left.write_text('{"url": "a", "text": "x"}\n')
    right.write_text('{"url": "b", "text": "y"}\n')
    result = runner.invoke(main, ["validate", str(left), str(right)])
    assert result.exit_code == 0
    assert "no matching URLs" in result.output


def test_shred_sources_sharing_a_stem_is_usage_error(runner, tmp_path):
    sources = []
    for folder, text in (("d1", "The council met on Monday."), ("d2", "Heavy rain closed the road.")):
        (tmp_path / folder).mkdir()
        sources.append(tmp_path / folder / "news.txt")
        sources[-1].write_text(text)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    outputs = ["-o", str(tmp_path / "r.ndjson"), "--reference-out", str(tmp_path / "ref.ndjson")]
    result = runner.invoke(main, ["shred", *map(str, sources), *outputs])
    assert result.exit_code == 2, result.output
    assert str(sources[0]) in result.output and str(sources[1]) in result.output
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_shred_empty_source_is_usage_error(runner, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("   ")
    result = runner.invoke(main, ["shred", str(empty), "-o", str(tmp_path / "r.ndjson")])
    assert result.exit_code == 2


def test_shred_bad_window_is_usage_error(runner, tmp_path):
    source = tmp_path / "a.txt"
    source.write_text("one two three")
    output = tmp_path / "r.ndjson"
    result = runner.invoke(main, ["shred", str(source), "-o", str(output), "--window", "0"])
    assert result.exit_code == 2
    assert "window must be >= 1" in result.output
    assert not output.exists()


@pytest.mark.parametrize("second, exit_code", [("empty", 2), ("latin-1", 2), ("missing", 4)])
def test_failed_shred_leaves_previous_output(
    runner, tmp_path, rng, vocab, vocab_weights, second, exit_code
):
    good = write_sources(tmp_path, [make_article(rng, 40, vocab, vocab_weights)])[0]
    bad = tmp_path / f"{second}.txt"
    if second == "empty":
        bad.write_text("   ")
    elif second == "latin-1":
        bad.write_bytes("café".encode("latin-1"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    records = out_dir / "r.ndjson"
    records.write_text("previous run\n")
    result = runner.invoke(
        main,
        ["shred", str(good), str(bad), "-o", str(records), "--reference-out", str(out_dir / "ref.ndjson")],
    )
    assert result.exit_code == exit_code, result.output
    assert str(bad) in result.output
    assert records.read_text() == "previous run\n"
    assert [p.name for p in out_dir.iterdir()] == ["r.ndjson"]  # no reference, no .part file


def test_failed_validate_report_leaves_no_report(runner, tmp_path):
    corpus = tmp_path / "c.ndjson"
    corpus.write_text('{"url": "u", "text": "x"}\n')
    table = tmp_path / "table.txt"
    table.mkdir()  # a file cannot replace a directory
    result = runner.invoke(
        main,
        ["validate", str(corpus), str(corpus), "--report-json", str(tmp_path / "rep.json"),
         "--report-table", str(table)],
    )
    assert result.exit_code == 4, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ndjson", "table.txt"]


@pytest.mark.parametrize("command, first, second", [
    ("shred", "-o", "--reference-out"),
    ("validate", "--report-json", "--report-table"),
])
def test_two_outputs_naming_one_file_is_usage_error(runner, tmp_path, command, first, second):
    (tmp_path / "sub").mkdir()
    source = tmp_path / "article.txt"
    source.write_text("The council met on Monday to discuss the budget.\n")
    corpus = tmp_path / "c.ndjson"
    corpus.write_text('{"url": "u", "text": "x"}\n')
    inputs = [str(source)] if command == "shred" else [str(corpus), str(corpus)]
    before = sorted(p.name for p in tmp_path.iterdir())
    result = runner.invoke(
        main,
        [command, *inputs, first, str(tmp_path / "x.out"), second, str(tmp_path / "sub" / ".." / "x.out")],
    )
    assert result.exit_code == 2, result.output
    assert "name the same file" in result.output
    assert first in result.output and second in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["reconstruct", "{records}", "-o", "{records}"],
    ["reconstruct", "{inputs}", "-o", "{inputs}/../inputs/r.ndjson"],  # a file the directory holds
    ["validate", "{corpus}", "{reference}", "--report-json", "{corpus}"],
    ["validate", "{corpus}", "{reference}", "--report-table", "{reference}"],
    ["shred", "{source}", "-o", "{source}"],
    ["shred", "{source}", "-o", "{out}", "--reference-out", "{source}"],
], ids=["reconstruct-file", "reconstruct-dir", "validate-json", "validate-table", "shred-o", "shred-reference"])
def test_output_naming_an_input_is_usage_error(runner, tmp_path, argv):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    source = inputs / "article.txt"
    source.write_text("The council met on Monday to discuss the budget for the city library.\n")
    records = inputs / "r.ndjson"
    reference = inputs / "ref.ndjson"
    result = runner.invoke(main, ["shred", str(source), "-o", str(records), "--reference-out", str(reference)])
    assert result.exit_code == 0, result.output
    corpus = inputs / "c.ndjson"
    corpus.write_bytes(reference.read_bytes())
    paths = dict(inputs=inputs, records=records, reference=reference, corpus=corpus, source=source,
                 out=tmp_path / "x.ndjson")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    result = runner.invoke(main, [arg.format(**paths) for arg in argv])
    assert result.exit_code == 2, result.output
    assert "name the same file" in result.output
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("outcome, exit_code", [("raises", 5), ("no fragments", 0)])
def test_failed_group_exits_partial(runner, tmp_path, rng, vocab, vocab_weights, monkeypatch, outcome, exit_code):
    inputs = shred_two_hosts(runner, tmp_path, rng, vocab, vocab_weights)
    reconstruct_group = pipeline.reconstruct_group

    def fails_on_herald(url, records, config):
        if "herald.test" not in url:
            return reconstruct_group(url, records, config)
        if outcome == "raises":
            raise RuntimeError("boom")
        return None  # no usable fragment: skipped, but not an error

    monkeypatch.setattr(pipeline, "reconstruct_group", fails_on_herald)
    out = tmp_path / "o.ndjson"
    result = runner.invoke(main, ["reconstruct", *inputs, "-o", str(out), "--workers", "1"])
    assert result.exit_code == exit_code, result.output
    assert [url.split("/")[2] for url in read_corpus(out)] == ["other.test"]
    assert ("group error" in result.output) == (outcome == "raises")


def test_shred_and_validate_create_missing_directories(runner, tmp_path, rng, vocab, vocab_weights):
    source = write_sources(tmp_path, [make_article(rng, 40, vocab, vocab_weights)])[0]
    records = tmp_path / "new" / "dir" / "r.ndjson"
    reference = tmp_path / "new" / "dir" / "ref.ndjson"
    result = runner.invoke(
        main, ["shred", str(source), "-o", str(records), "--reference-out", str(reference)]
    )
    assert result.exit_code == 0, result.output
    assert records.is_file()
    report = tmp_path / "other" / "dir" / "rep.json"
    result = runner.invoke(
        main, ["validate", str(reference), str(reference), "--report-json", str(report)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["pairs_matched"] == 1


def test_shred_deterministic_records(runner, tmp_path, rng, vocab, vocab_weights):
    source = write_sources(tmp_path, [make_article(rng, 40, vocab, vocab_weights)])[0]
    out1 = tmp_path / "r1.ndjson"
    out2 = tmp_path / "r2.ndjson"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["shred", str(source), "-o", str(out), "--drop-rate", "0.2", "--seed", "7"]
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def _fetch(runner, server, dest, start, end):
    """Run ``fetch`` against the loopback server, which serves every tick of
    10:00-10:30 on 2023-12-20."""
    for hhmm in ("1000", "1015", "1030"):
        server.script[f"/20231220{hhmm}00.gz"] = [(200, b"data")]
    return runner.invoke(
        main,
        [
            "fetch",
            "--start", start,
            "--end", end,
            "--dest", str(dest),
            "--template", server.base + "/{timestamp}.gz",
        ],
    )


def test_fetch_over_http(runner, tmp_path, http_server):
    dest = tmp_path / "downloads"
    result = _fetch(runner, http_server, dest, "2023-12-20T10:00:00Z", "2023-12-20T10:30:00Z")
    assert result.exit_code == 0, result.output
    assert len(http_server.requests) == 3
    assert sorted(p.name for p in dest.iterdir()) == [
        "20231220100000.gz",
        "20231220101500.gz",
        "20231220103000.gz",
    ]
    # a second fetch of the same window finds every file present and requests none
    result = _fetch(runner, http_server, dest, "2023-12-20T10:00:00Z", "2023-12-20T10:30:00Z")
    assert result.exit_code == 0, result.output
    assert "downloaded 0 file(s)" in result.output
    assert len(http_server.requests) == 3


def test_fetch_accepts_compact_file_name_timestamps(runner, tmp_path, http_server):
    # the YYYYMMDDHHMMSS form the feed's own file names carry
    result = _fetch(runner, http_server, tmp_path / "downloads", "20231220100000", "20231220101500")
    assert result.exit_code == 0, result.output
    assert http_server.requests == ["/20231220100000.gz", "/20231220101500.gz"]


def test_fetch_unparseable_timestamp_is_usage_error(runner, tmp_path, http_server):
    result = _fetch(runner, http_server, tmp_path, "yesterday", "20231220101500")
    assert result.exit_code == 2
    assert "--start" in result.output
    assert http_server.requests == []


@pytest.mark.parametrize(
    "option, value, message",
    [
        *(
            pytest.param("--template", template, message, id=f"{template}-{message}")
            for template, message in [
                ("files.test/{timestamp}.gz", "unknown url type"),
                ("http://files.test/{", "Single '{'"),
                ("http://files.test/{ts}.gz", "placeholder other than {timestamp}"),
                ("http://files.test/{0}.gz", "placeholder other than {timestamp}"),
                ("file:///d/{timestamp}.gz", "unknown url type"),
                ("data:,{timestamp}", "unknown url type"),
                ("/data.gz", "must contain {timestamp}"),
                # every tick would map to one file name: "webngrams.json.gz", or the hour
                ("/{timestamp}/webngrams.json.gz", "in the file name"),
                ("/{timestamp:.10}.gz", "in the file name"),
            ]
        ),
        *(
            pytest.param("--timeout", value, "timeout must be a positive", id=f"--timeout {value}")
            for value in ["0", "-1", "nan"]
        ),
    ],
)
def test_fetch_bad_template_is_usage_error(runner, tmp_path, http_server, option, value, message):
    # a bad --template or --timeout: refused before --dest is made or anything is requested
    dest = tmp_path / "downloads"
    if value.startswith("/"):
        # a template with no placeholder is a whole URL, and one that is not
        # refused is requested: point it at the loopback server, so such a
        # request shows in http_server.requests and never leaves the host
        value = http_server.base + value
    flags = {"--template": http_server.base + "/{timestamp}.gz", option: value}
    result = runner.invoke(
        main,
        ["fetch", "--start", "20231220100000", "--end", "20231220100000", "--dest", str(dest),
         *(word for flag in flags.items() for word in flag)],
    )
    assert result.exit_code == 2
    assert message in result.output and "Traceback" not in result.output
    assert not dest.exists() and http_server.requests == []


def test_fetch_dest_naming_a_file_is_io_error(runner, tmp_path):
    dest = tmp_path / "downloads"
    dest.write_text("")
    result = runner.invoke(
        main, ["fetch", "--start", "20231220100000", "--end", "20231220100000", "--dest", str(dest)]
    )
    assert result.exit_code == 4
    assert "I/O error" in result.output and str(dest) in result.output


def python_env(**extra):
    """The environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package,
    in a session of its own, so no process it starts can signal the test run."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=python_env(), timeout=60,
        start_new_session=True,
    )


def test_cli_import_loads_no_http_or_pool_library():
    # only fetch needs the HTTP modules, and only a pooled reconstruct the pool's
    lazy = (
        "{'requests', 'urllib3', 'urllib.request', 'http.client',"
        " 'multiprocessing', 'concurrent.futures.process'}"
    )
    result = run_python(f"import sys, ngramstitch.cli; print(sorted({lazy} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_forked_reconstruct_loads_no_pool_library(runner, tmp_path, rng, vocab, vocab_weights):
    texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(4)]
    records, corpus = tmp_path / "records.ndjson", tmp_path / "corpus.ndjson"
    result = runner.invoke(main, ["shred", *map(str, write_sources(tmp_path, texts)), "-o", str(records)])
    assert result.exit_code == 0, result.output
    args = ["reconstruct", str(records), "-o", str(corpus), "--workers", "2"]
    result = run_python(
        "import sys, ngramstitch.cli\n"
        f"ngramstitch.cli.main({args!r}, standalone_mode=False)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"  # a worker that returned into this code would print again
    assert len(read_corpus(corpus)) == len(texts)


def test_reconstruct_runs_off_the_main_thread(runner, tmp_path, rng, vocab, vocab_weights):
    # only the main thread may set a signal handler: from any other, the
    # command runs under the caller's SIGTERM policy
    texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(2)]
    records, corpus = tmp_path / "records.ndjson", tmp_path / "corpus.ndjson"
    result = runner.invoke(main, ["shred", *map(str, write_sources(tmp_path, texts)), "-o", str(records)])
    assert result.exit_code == 0, result.output
    results = []
    thread = threading.Thread(
        target=lambda: results.append(runner.invoke(main, ["reconstruct", str(records), "-o", str(corpus)]))
    )
    thread.start()
    thread.join()
    assert results[0].exit_code == 0, results[0].output
    assert len(read_corpus(corpus)) == len(texts)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sigterm_stops_a_pooled_reconstruct_and_cleans_up(runner, tmp_path, rng, vocab, vocab_weights):
    # both workers sleep in their group; SIGTERM to the command ends it with
    # 143, its workers killed and reaped, its temporary directory removed and
    # the previous corpus standing
    texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(2)]
    records, corpus = tmp_path / "records.ndjson", tmp_path / "corpus.ndjson"
    result = runner.invoke(main, ["shred", *map(str, write_sources(tmp_path, texts)), "-o", str(records)])
    assert result.exit_code == 0, result.output
    corpus.write_bytes(b'{"url": "old", "text": "previous run"}\n')
    scratch, markers = tmp_path / "tmp", tmp_path / "markers"
    scratch.mkdir()
    markers.mkdir()
    args = ["reconstruct", str(records), "-o", str(corpus), "--workers", "2"]
    code = (
        "import os, time\n"
        "from ngramstitch import cli, pipeline\n"
        "def sleeps(url, records, config):\n"
        f"    open(os.path.join({str(markers)!r}, str(os.getpid())), 'w').close()\n"
        "    time.sleep(30)\n"
        "pipeline.reconstruct_group = sleeps\n"
        f"cli.main({args!r})\n"
    )
    # stderr goes to a file: a worker left running would hold a pipe open
    stderr = tmp_path / "stderr.txt"
    with open(stderr, "wb") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", code], stderr=err, env=python_env(TMPDIR=str(scratch)), start_new_session=True
        )
    try:
        deadline = time.monotonic() + 30
        while len(list(markers.iterdir())) < 2:
            assert child.poll() is None and time.monotonic() < deadline, "the workers did not start"
            time.sleep(0.01)
        pids = [int(marker.name) for marker in markers.iterdir()]
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=5) == 143, stderr.read_text()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert not list(scratch.glob("ngramstitch-*"))
        assert corpus.read_bytes() == b'{"url": "old", "text": "previous run"}\n'
        assert not list(tmp_path.glob("*.part"))
    finally:  # leave no process of the run behind, whatever failed
        with suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()


def test_fetch_start_after_end_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["fetch", "--start", "2023-12-20T11:00:00", "--end", "2023-12-20T10:00:00",
         "--dest", str(tmp_path)],
    )
    assert result.exit_code == 2


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("reconstruct", "validate", "shred", "fetch"):
        assert command in result.output
