import gc
import gzip
import inspect
import io
import json
import logging
import multiprocessing
import os
import random
import stat
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramstitch import pipeline
from ngramstitch.assembly import AssemblyConfig
from ngramstitch.pipeline import (
    DEFAULT_FETCH_TEMPLATE,
    EmptyInputError,
    ReconstructedArticle,
    RunConfig,
    expand_inputs,
    fetch_window,
    read_corpus,
    reconstruct_command,
    reconstruct_group,
    validate_command,
)
from ngramstitch.records import NgramRecord, ParseError, group_by_url, parse_file, record_to_json_dict
from ngramstitch.shredder import ShredConfig, shred
from conftest import make_article, make_vocab, zipf_weights

FORK = "fork" in multiprocessing.get_all_start_methods()


def write_records(path: Path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json_dict(rec)) + "\n")


def shred_corpus(tmp_path, texts, window=7, mode="all_occurrences", drop_rate=0.0, seed=0):
    """Shred texts into one record file; returns (records path, url -> text)."""
    records = []
    reference = {}
    for i, text in enumerate(texts):
        url = f"https://n.test/{i:03d}"
        records.extend(
            shred(text, ShredConfig(window=window, mode=mode, drop_rate=drop_rate, seed=seed + i), url=url)
        )
        reference[url] = text
    path = tmp_path / "records.ndjson"
    write_records(path, records)
    return path, reference


class TestReconstructGroup:
    def test_round_trip_single_group(self, rng, vocab, vocab_weights):
        text = make_article(rng, 120, vocab, vocab_weights)
        records = shred(text, ShredConfig(window=7), url="https://n.test/a")
        article = reconstruct_group("https://n.test/a", records, AssemblyConfig())
        assert article.text == text
        assert article.fragments_total == len(records)
        assert article.fragments_used == len(records)
        assert article.fragments_unanchored == 0
        assert article.wraparound_applied == 0

    # the feed's wrap-around separator sits in a word record's pre or post and
    # is never an ngram itself; a "/" record is a "/" of the article's text
    def test_wraparound_counted(self):
        records = [
            NgramRecord(ngram="junk", url="u", pos=0, pre="tail", post="/ real start here now"),
            NgramRecord(ngram="start", url="u", pos=0, pre="real", post="here now and more"),
        ]
        article = reconstruct_group("u", records, AssemblyConfig(min_overlap=3))
        assert article.wraparound_applied == 1
        assert "junk" not in article.text

    def test_all_fragments_dropped_returns_none(self):
        records = [NgramRecord(ngram="before", url="u", pos=0, pre="only junk", post="/")]
        assert reconstruct_group("u", records, AssemblyConfig()) is None

    def slashed_text(self):
        words = [f"w{i}" for i in range(60)]
        words[4:7] = ["a", "/", "b"]  # in the first fifth, where the wrap-around rule looks
        return " ".join(words)

    def test_text_slash_round_trips_exactly(self):
        text = self.slashed_text()
        records = shred(text, ShredConfig(), url="u")
        article = reconstruct_group("u", records, AssemblyConfig())
        assert article.text == text
        assert article.wraparound_applied == 0
        assert article.fragments_unanchored == 0

    def test_text_slash_without_its_record_is_cut(self):
        text = self.slashed_text()
        records = [r for r in shred(text, ShredConfig(), url="u") if r.ngram != "/"]
        article = reconstruct_group("u", records, AssemblyConfig())
        assert article.wraparound_applied > 0
        assert article.text != text

    def test_date_first_seen_is_earliest(self):
        early = datetime(2023, 12, 1, tzinfo=timezone.utc)
        late = datetime(2023, 12, 20, tzinfo=timezone.utc)
        records = [
            NgramRecord(ngram="a", url="u", pos=0, post="b c d", date=late),
            NgramRecord(ngram="b", url="u", pos=0, pre="a", post="c d", date=early),
        ]
        article = reconstruct_group("u", records, AssemblyConfig())
        assert article.date_first_seen == early


class TestReconstructCommand:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_split_input_files_write_the_single_file_corpus(self, seed, data):
        # The run's fault contract, stated against a clean serial run over the
        # lines of the readable files. The same record lines are cut in order
        # into 1-4 files, some gzipped, so a URL group may span files. Each
        # file may be cut inside its gzip stream (unreadable: a file error
        # that gives no record, not even those before the cut) or carry a
        # line that is not UTF-8 (malformed); one URL may raise in
        # reconstruct_group (a group error); a pool may run the groups. A
        # small vocabulary makes ties and unanchored fragments common, so
        # records that arrive in another order can change a group's text.
        rnd = random.Random(seed)
        vocab = make_vocab(60)
        weights = zipf_weights(len(vocab))
        urls = [f"https://n.test/{i}" for i in range(data.draw(st.integers(0, 4)))]
        lines = []
        for i, url in enumerate(urls):
            text = make_article(rnd, rnd.randrange(20, 80), vocab, weights)
            config = ShredConfig(window=rnd.randrange(3, 8), drop_rate=0.3, seed=seed + i)
            for record in shred(text, config, url=url):
                lines.append(json.dumps(record_to_json_dict(record)).encode() + b"\n")
        rnd.shuffle(lines)  # each group's records spread over every file
        lines.insert(data.draw(st.integers(0, len(lines))), b"{not json\n")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)))
        raising = data.draw(st.sampled_from([None, *urls]))
        workers = data.draw(st.sampled_from([1, 2] if FORK else [1]))

        def raises_on_one_url(url, records, config):
            if url == raising:
                raise RuntimeError("injected")
            return reconstruct_group(url, records, config)

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            parts, readable, unreadable = [], [], []
            for n, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(lines)])):
                chunk = lines[lo:hi]
                fault = data.draw(st.sampled_from(["none", "cut", "not UTF-8"]))
                if fault == "not UTF-8":
                    chunk.insert(data.draw(st.integers(0, len(chunk))), b"caf\xe9\n")
                body = b"".join(chunk)
                if fault == "cut" or data.draw(st.booleans()):
                    part, packed = tmp / f"part{n}.ndjson.gz", gzip.compress(body)
                else:
                    part, packed = tmp / f"part{n}.ndjson", body
                if fault == "cut":
                    last = len(packed) - 1
                    at = data.draw(st.one_of(st.sampled_from([1, 2, last]), st.integers(1, last)))
                    packed = packed[:at]
                    unreadable.append(part)
                else:
                    readable.append(body)
                part.write_bytes(packed)
                parts.append(part)
            clean_path = tmp / "clean.ndjson"
            clean_path.write_bytes(b"".join(readable))
            clean_records, _ = parse_file(clean_path)
            raising_records = [r for r in clean_records if r.url == raising]

            config = RunConfig(inputs=parts, output=tmp / "split.ndjson", workers=workers)
            with patch.object(pipeline, "reconstruct_group", raises_on_one_url):
                if clean_records:
                    split = reconstruct_command(config)
                else:
                    with pytest.raises(EmptyInputError if readable else ParseError):
                        reconstruct_command(config)
            assert not list(tmp.glob("*.part"))
            if not clean_records:
                return
            clean = reconstruct_command(RunConfig(inputs=[clean_path], output=tmp / "clean-corpus.ndjson"))
            corpus = (tmp / "split.ndjson").read_bytes()
            clean_lines = (tmp / "clean-corpus.ndjson").read_bytes().splitlines(keepends=True)

        assert corpus == b"".join(line for line in clean_lines if json.loads(line)["url"] != raising)
        assert [url for url, _ in split.group_errors] == [raising] * bool(raising_records)
        assert [path for path, _ in split.file_errors] == [str(part) for part in unreadable]
        assert split.diagnostics == clean.diagnostics
        articles = [json.loads(line) for line in corpus.splitlines()]
        assert [a["url"] for a in articles] == sorted(a["url"] for a in articles)
        records_left = split.diagnostics.records_ok - len(raising_records)
        assert sum(a["fragments_total"] for a in articles) == records_left
        for article in articles:
            own = [r for r in clean_records if r.url == article["url"]]
            assert article == reconstruct_group(article["url"], own, AssemblyConfig()).to_json_dict()

    def test_empty_after_filtering_raises(self, tmp_path):
        rec = NgramRecord(ngram="w", url="u", lang="en", lang_type=2, pos=0)
        path = tmp_path / "r.ndjson"
        write_records(path, [rec])
        with pytest.raises(EmptyInputError):
            reconstruct_command(RunConfig(inputs=[path], output=tmp_path / "o.ndjson"))

    def test_cut_gzip_file_logs_no_warning(self, tmp_path, rng, vocab, vocab_weights, caplog):
        # the file error is reported once, in the summary; the log has it only at INFO
        records_path, reference = shred_corpus(tmp_path, [make_article(rng, 50, vocab, vocab_weights)])
        packed = gzip.compress(records_path.read_bytes())
        cut = tmp_path / "cut.ndjson.gz"
        cut.write_bytes(packed[: len(packed) // 2])
        out = tmp_path / "o.ndjson"
        with caplog.at_level(logging.INFO, logger="ngramstitch.pipeline"):
            summary = reconstruct_command(RunConfig(inputs=[records_path, cut], output=out))
        assert [path for path, _ in summary.file_errors] == [str(cut)]
        assert read_corpus(out) == reference
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert any(str(cut) in r.getMessage() for r in caplog.records)

    def test_missing_input_raises_oserror(self, tmp_path):
        config = RunConfig(inputs=[tmp_path / "nope.ndjson"], output=tmp_path / "o.ndjson")
        with pytest.raises(OSError):
            reconstruct_command(config)

    def test_language_filter_applies(self, tmp_path, rng, vocab, vocab_weights):
        text = make_article(rng, 40, vocab, vocab_weights)
        records = shred(text, ShredConfig(window=7), url="https://n.test/en", lang="en")
        records += shred(text, ShredConfig(window=7), url="https://n.test/it", lang="it")
        path = tmp_path / "r.ndjson"
        write_records(path, records)
        out = tmp_path / "o.ndjson"
        summary = reconstruct_command(RunConfig(inputs=[path], output=out, langs=["it"]))
        assert summary.articles == 1
        assert list(read_corpus(out)) == ["https://n.test/it"]

    @pytest.mark.skipif(not FORK, reason="needs the fork start method")
    def test_forked_pool_pickles_no_record(self, tmp_path, rng, vocab, vocab_weights):
        class Unpicklable(str):
            def __reduce_ex__(self, protocol):
                raise TypeError("a record was pickled")

        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(3)]
        records_path, _ = shred_corpus(tmp_path, texts, drop_rate=0.2)
        records, _ = parse_file(records_path)
        groups = {
            url: [r._replace(pre=Unpicklable(r.pre)) for r in group]
            for url, group in group_by_url(records).items()
        }
        urls, assembly = sorted(groups), AssemblyConfig()
        serial = [pipeline._reconstruct_isolated(url, groups[url], assembly) for url in urls]
        assert all(article is not None and error is None for article, error in serial)
        assert pipeline._reconstruct_in_pool(urls, groups, assembly, 2) == serial

    def test_spawned_pool_writes_the_serial_bytes(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(4)]
        records_path, _ = shred_corpus(tmp_path, texts, drop_rate=0.2)
        serial_out = tmp_path / "serial.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=serial_out, workers=1))

        methods = []
        real_get_context = multiprocessing.get_context

        def recording_get_context(method=None):
            methods.append(method)
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
        spawned_out = tmp_path / "spawned.ndjson"
        summary = reconstruct_command(RunConfig(inputs=[records_path], output=spawned_out, workers=2))
        assert methods == ["spawn"]
        assert summary.group_errors == []
        assert spawned_out.read_bytes() == serial_out.read_bytes()

    def test_killed_worker_is_a_group_error(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(6)]
        records_path, reference = shred_corpus(tmp_path, texts, drop_rate=0.3)
        serial_out = tmp_path / "serial.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=serial_out))
        serial = read_corpus(serial_out)
        doomed = sorted(reference)[2]
        real_reconstruct_group = pipeline.reconstruct_group

        def dies_on_one_url(url, records, config):
            if url == doomed:
                os._exit(1)
            return real_reconstruct_group(url, records, config)

        monkeypatch.setattr(pipeline, "reconstruct_group", dies_on_one_url)
        out = tmp_path / "o.ndjson"
        summary = reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=2))
        assert summary.groups == len(reference)
        assert doomed in dict(summary.group_errors)
        assert "worker died" in dict(summary.group_errors)[doomed]
        assert summary.groups_skipped == len(summary.group_errors)
        # every URL is either written once or listed once as a group error
        written = [json.loads(line)["url"] for line in out.read_text(encoding="utf-8").splitlines()]
        assert sorted(written + [url for url, _ in summary.group_errors]) == sorted(reference)
        corpus = read_corpus(out)
        assert doomed not in corpus and len(corpus) == summary.articles
        assert all(serial[url] == text for url, text in corpus.items())

    def test_failed_write_keeps_previous_corpus(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(3)]
        records_path, _ = shred_corpus(tmp_path, texts)
        out = tmp_path / "out" / "corpus.ndjson"
        out.parent.mkdir()
        out.write_bytes(b'{"url": "old", "text": "previous run"}\n')
        real_to_json_dict = ReconstructedArticle.to_json_dict
        calls = []

        def fails_on_second_article(article):
            calls.append(article.url)
            if len(calls) == 2:
                raise RuntimeError("disk went away")
            return real_to_json_dict(article)

        monkeypatch.setattr(ReconstructedArticle, "to_json_dict", fails_on_second_article)
        with pytest.raises(RuntimeError):
            reconstruct_command(RunConfig(inputs=[records_path], output=out))
        assert len(calls) == 2
        assert out.read_bytes() == b'{"url": "old", "text": "previous run"}\n'
        assert [p.name for p in out.parent.iterdir()] == ["corpus.ndjson"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fails", [False, True])
    def test_records_frozen_only_while_the_command_runs(
        self, tmp_path, rng, vocab, vocab_weights, monkeypatch, workers, fails
    ):
        texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(3)]
        records_path, _ = shred_corpus(tmp_path, texts)
        out = tmp_path / "corpus.ndjson"
        if fails:
            out.mkdir()  # the final rename onto a directory raises
        frozen_while_writing = []
        real_open_replacing = pipeline.open_replacing

        def recording_open_replacing(path, mode="w"):
            frozen_while_writing.append(gc.get_freeze_count())
            return real_open_replacing(path, mode)

        monkeypatch.setattr(pipeline, "open_replacing", recording_open_replacing)
        before = gc.get_freeze_count()
        if fails:
            with pytest.raises(OSError):
                reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=workers))
        else:
            reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=workers))
            assert len(read_corpus(out)) == len(texts)
        assert gc.get_freeze_count() == before
        assert len(frozen_while_writing) == 1 and frozen_while_writing[0] > before


class TestRunConfig:
    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(inputs=[tmp_path / "x"], output=tmp_path / "o", workers=0)

    def test_rejects_no_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(inputs=[], output=tmp_path / "o")


def test_expand_inputs_directory_sorted(tmp_path):
    record_dir = tmp_path / "records"
    record_dir.mkdir()
    (record_dir / "b.ndjson").write_text("")
    (record_dir / "a.json").write_text("")
    (record_dir / "c.txt").write_text("")  # not a record suffix
    (record_dir / "d.json").mkdir()  # not a file
    direct = tmp_path / "direct.ndjson"
    direct.write_text("")
    paths = expand_inputs([record_dir, direct])
    names = [p.name for p in paths]
    assert names == ["a.json", "b.ndjson", "direct.ndjson"]


class TestValidateCommand:
    def write_corpus(self, path, mapping):
        with open(path, "w", encoding="utf-8") as fh:
            for url, text in mapping.items():
                fh.write(json.dumps({"url": url, "text": text}) + "\n")

    def test_join_counts(self, tmp_path):
        # 5 URLs per side, 3 in common
        left = tmp_path / "l.ndjson"
        right = tmp_path / "r.ndjson"
        self.write_corpus(left, {f"u{i}": "text here" for i in range(5)})
        self.write_corpus(right, {f"u{i}": "text here" for i in range(2, 7)})
        report, stats = validate_command(left, right)
        assert stats.matched == 3
        assert stats.unmatched_reconstructed == 2
        assert stats.unmatched_reference == 2
        assert len(report.pairs) == 3

    def test_disjoint_urls_is_not_an_error(self, tmp_path):
        left = tmp_path / "l.ndjson"
        right = tmp_path / "r.ndjson"
        self.write_corpus(left, {"a": "x"})
        self.write_corpus(right, {"b": "y"})
        report, stats = validate_command(left, right)
        assert stats.matched == 0
        assert all(col.pair_count == 0 for col in report.columns)

    def test_report_files_written(self, tmp_path):
        left = tmp_path / "l.ndjson"
        right = tmp_path / "r.ndjson"
        self.write_corpus(left, {"u": "same words here"})
        self.write_corpus(right, {"u": "same words here"})
        json_path = tmp_path / "report.json"
        table_path = tmp_path / "report.txt"
        validate_command(left, right, report_json=json_path, report_table=table_path)
        payload = json.loads(json_path.read_text())
        assert payload["pairs_matched"] == 1
        assert len(payload["summary"]) == 8
        assert "Levenshtein" in table_path.read_text()

    @pytest.mark.parametrize(
        "line",
        [
            '{"url": "u2"}',  # no text field
            '{"url": 5, "text": "x"}',
            '{"url": "u2", "text": null}',
            '{"url": ["x"], "text": "x"}',
            '{"url": "u2", "text": "caf\xe9"}',  # written as latin-1: not UTF-8
        ],
        ids=["no-text", "int-url", "null-text", "list-url", "latin-1"],
    )
    def test_malformed_corpus_line_raises(self, tmp_path, line):
        # both files hold the bad line next to a string URL, so a line let
        # through would reach the URL join and the scoring
        left, right = tmp_path / "l.ndjson", tmp_path / "r.ndjson"
        for path in (left, right):
            path.write_bytes(f'{line}\n{{"url": "u", "text": "x"}}\n'.encode("latin-1"))
        with pytest.raises(ValueError, match="not a valid corpus line"):
            validate_command(left, right)


# script for one tick's path -> (file written?, requests made)
FETCH_POLICY = {
    "200": ([(200, b"payload")], True, 1),
    "404": ([(404, b"")], False, 1),
    "503": ([(503, b"")] * 5, False, 3),
    "204": ([(204, b"")], False, 1),
    "truncated body": (["truncate"] * 5, False, 3),
    "drop, 500, 200": (["drop", (500, b""), (200, b"payload")], True, 3),
}


class TestFetchWindow:
    def ts(self, minute, hour=10):
        return datetime(2023, 12, 20, hour, minute, tzinfo=timezone.utc)

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FETCH_BACKOFF_S", 0)

    def fetch(self, server, start, end, dest):
        return fetch_window(start, end, template=server.base + "/{timestamp}.gz", dest=dest)

    @pytest.mark.parametrize(
        "script, written, requests_made", FETCH_POLICY.values(), ids=FETCH_POLICY
    )
    def test_status_policy(self, tmp_path, http_server, script, written, requests_made):
        http_server.script["/20231220100000.gz"] = list(script)
        paths = self.fetch(http_server, self.ts(0), self.ts(0), tmp_path)
        assert http_server.requests == ["/20231220100000.gz"] * requests_made
        if written:
            assert paths == [tmp_path / "20231220100000.gz"]
            assert paths[0].read_bytes() == b"payload"
        else:
            assert paths == [] and list(tmp_path.iterdir()) == []

    def test_one_hour_is_five_ticks(self, tmp_path, http_server):
        self.fetch(http_server, self.ts(0), self.ts(0, hour=11), tmp_path)
        assert len(http_server.requests) == 5

    def test_start_equals_end_is_one_tick(self, tmp_path, http_server):
        self.fetch(http_server, self.ts(15), self.ts(15), tmp_path)
        assert len(http_server.requests) == 1

    def test_unaligned_bounds_round_outward(self, tmp_path, http_server):
        self.fetch(http_server, self.ts(7), self.ts(52), tmp_path)
        assert http_server.requests == [
            f"/20231220{hhmm}00.gz" for hhmm in ("1000", "1015", "1030", "1045", "1100")
        ]

    @pytest.mark.parametrize(
        "start, end, ticks",
        [
            pytest.param("12:00:00+02:00", "12:15:00+02:00", ["1000", "1015"], id="+02:00"),
            pytest.param("09:45:00+05:45", "10:00:00+05:45", ["0400", "0415"], id="+05:45"),
            pytest.param("10:00:00", "12:15:00+02:00", ["1000", "1015"], id="naive-start"),
        ],
    )
    def test_offset_bounds_name_utc_ticks(self, tmp_path, http_server, start, end, ticks):
        bounds = [datetime.fromisoformat(f"2023-12-20T{t}") for t in (start, end)]
        self.fetch(http_server, *bounds, tmp_path)
        assert http_server.requests == [f"/20231220{hhmm}00.gz" for hhmm in ticks]

    @pytest.mark.parametrize("path", ["/{ts}.gz", "/{0}.gz", "/{}.gz", "/{timestamp.year}.gz"])
    def test_bad_template_requests_nothing(self, tmp_path, http_server, path):
        with pytest.raises(ValueError, match="placeholder other than"):
            fetch_window(self.ts(0), self.ts(30), template=http_server.base + path, dest=tmp_path)
        assert http_server.requests == [] and list(tmp_path.iterdir()) == []

    def test_default_template_is_the_gdelt_feed(self):
        assert DEFAULT_FETCH_TEMPLATE.startswith("http://data.gdeltproject.org/")
        default = inspect.signature(fetch_window).parameters["template"].default
        assert default == DEFAULT_FETCH_TEMPLATE

    def test_all_missing_returns_empty(self, tmp_path, http_server, caplog):
        assert self.fetch(http_server, self.ts(0), self.ts(30), tmp_path) == []
        assert any(
            r.levelno == logging.WARNING and "no files downloaded" in r.getMessage()
            for r in caplog.records
        )

    def test_downloads_leave_only_final_names(self, tmp_path, http_server):
        (tmp_path / "x.gz.part").write_bytes(b"stale")
        for path in ("/20231220100000.gz", "/20231220101500.gz"):
            http_server.script[path] = [(200, b"payload")]
        paths = self.fetch(http_server, self.ts(0), self.ts(15), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "20231220100000.gz",
            "20231220101500.gz",
            "x.gz.part",
        ]
        assert expand_inputs([tmp_path]) == paths

    def test_second_call_skips_complete_ticks(self, tmp_path, http_server, caplog):
        for path in ("/20231220100000.gz", "/20231220101500.gz"):
            http_server.script[path] = [(200, b"payload")]
        first = self.fetch(http_server, self.ts(0), self.ts(15), tmp_path)
        assert len(first) == 2 and len(http_server.requests) == 2
        with caplog.at_level(logging.INFO, logger="ngramstitch.pipeline"):
            assert self.fetch(http_server, self.ts(0), self.ts(15), tmp_path) == []
        assert len(http_server.requests) == 2
        assert [p.read_bytes() for p in first] == [b"payload", b"payload"]
        assert sum("already downloaded" in r.getMessage() for r in caplog.records) == 2
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_stale_part_file_does_not_stop_a_download(self, tmp_path, http_server):
        (tmp_path / "20231220100000.gz.part").write_bytes(b"stale")
        http_server.script["/20231220100000.gz"] = [(200, b"payload")]
        paths = self.fetch(http_server, self.ts(0), self.ts(0), tmp_path)
        assert http_server.requests == ["/20231220100000.gz"]
        assert paths == [tmp_path / "20231220100000.gz"]
        assert list(tmp_path.iterdir()) == paths
        assert paths[0].read_bytes() == b"payload"

    def test_killed_write_leaves_no_final_name(self, tmp_path, http_server, monkeypatch):
        written = []

        class KilledMidWrite(io.FileIO):
            def write(self, data):
                written.append(super().write(data[:3]))
                raise KeyboardInterrupt

        http_server.script["/20231220100000.gz"] = [(200, b"payload")]
        monkeypatch.setattr(
            pipeline, "open", lambda path, mode, encoding: KilledMidWrite(path, mode), raising=False
        )
        with pytest.raises(KeyboardInterrupt):
            self.fetch(http_server, self.ts(0), self.ts(0), tmp_path)
        assert written == [3]
        assert list(tmp_path.iterdir()) == []
        assert expand_inputs([tmp_path]) == []

    def test_start_after_end_rejected(self, tmp_path, http_server):
        with pytest.raises(ValueError):
            self.fetch(http_server, self.ts(30), self.ts(0), tmp_path)
        assert http_server.requests == []

    @pytest.mark.skipif(os.geteuid() == 0, reason="permissions are ignored when running as root")
    def test_unwritable_destination_fatal(self, tmp_path, http_server):
        target = tmp_path / "ro"
        target.mkdir()
        target.chmod(stat.S_IRUSR | stat.S_IXUSR)
        http_server.script["/20231220100000.gz"] = [(200, b"x")]
        with pytest.raises(OSError):
            self.fetch(http_server, self.ts(0), self.ts(0), target)
