import errno
import gc
import gzip
import inspect
import io
import json
import logging
import math
import os
import random
import signal
import stat
import tempfile
import time
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramstitch import pipeline
from ngramstitch.assembly import AssemblyConfig
from ngramstitch.cli import main
from ngramstitch.pipeline import (
    DEFAULT_FETCH_TEMPLATE,
    EmptyInputError,
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

FORK = hasattr(os, "fork")


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
        # reconstruct_group (a group error); one URL's records may carry a
        # lone-surrogate escape in pre, valid JSON whose text cannot be
        # written as UTF-8 (a group error in the clean run too); a pool may
        # run the groups, and then, now and then, one URL kills the worker
        # running it (a group error too, and only its own). A small
        # vocabulary makes ties and unanchored fragments common, so records
        # that arrive in another order can change a group's text.
        rnd = random.Random(seed)
        vocab = make_vocab(60)
        weights = zipf_weights(len(vocab))
        urls = [f"https://n.test/{i}" for i in range(data.draw(st.integers(0, 4)))]
        unencodable = data.draw(st.sampled_from([None, *urls]))
        lines = []
        for i, url in enumerate(urls):
            text = make_article(rnd, rnd.randrange(20, 80), vocab, weights)
            config = ShredConfig(window=rnd.randrange(3, 8), drop_rate=0.3, seed=seed + i)
            for record in shred(text, config, url=url):
                if url == unencodable:  # every fragment, so the text, holds the surrogate
                    record = record._replace(pre=f"\ud800 {record.pre}")
                lines.append(json.dumps(record_to_json_dict(record)).encode() + b"\n")
        rnd.shuffle(lines)  # each group's records spread over every file
        lines.insert(data.draw(st.integers(0, len(lines))), b"{not json\n")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)))
        raising = data.draw(st.sampled_from([None, *urls]))
        workers = data.draw(st.sampled_from([1, 2] if FORK else [1]))

        dying = None

        def fails_on_one_or_two_urls(url, records, config):
            if url == dying:
                os._exit(1)
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
            groups = sorted({r.url for r in clean_records})
            # only where the pool runs, as a forked worker: a serial run would die with it
            if workers == 2 and len(groups) > 1 and data.draw(st.integers(0, 3)) == 0:
                dying = data.draw(st.sampled_from(groups))
            failing = [url for url in groups if url in (raising, dying, unencodable)]

            config = RunConfig(inputs=parts, output=tmp / "split.ndjson", workers=workers)
            with patch.object(pipeline, "reconstruct_group", fails_on_one_or_two_urls):
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

        assert corpus == b"".join(line for line in clean_lines if json.loads(line)["url"] not in failing)
        assert [url for url, _ in split.group_errors] == failing
        for url, error in split.group_errors:
            expected = "worker died" if url == dying else "injected" if url == raising else "UnicodeEncodeError"
            assert expected in error
        assert [url for url, _ in clean.group_errors] == [url for url in groups if url == unencodable]
        assert [path for path, _ in split.file_errors] == [str(part) for part in unreadable]
        assert split.diagnostics == clean.diagnostics
        articles = [json.loads(line) for line in corpus.splitlines()]
        assert [a["url"] for a in articles] == sorted(a["url"] for a in articles)
        records_left = split.diagnostics.records_ok - sum(r.url in failing for r in clean_records)
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

    def test_plain_file_failing_midway_skips_only_itself(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        (tmp_path / "good").mkdir()
        (tmp_path / "bad").mkdir()
        good, _ = shred_corpus(tmp_path / "good", [make_article(rng, 60, vocab, vocab_weights) for _ in range(2)])
        bad, _ = shred_corpus(tmp_path / "bad", [make_article(rng, 60, vocab, vocab_weights) for _ in range(2)])
        assert bad.stat().st_size > 2 * 4096
        alone = tmp_path / "alone.ndjson"
        reconstruct_command(RunConfig(inputs=[good], output=alone))

        class FailsAfter4K(io.FileIO):
            """A file whose reads fail with EIO once 4 KB are read, as a failing disk's would."""

            def readinto(self, buffer):
                if self.tell() >= 4096:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                return super().readinto(memoryview(buffer)[: 4096 - self.tell()])

        def failing_open(path, mode):
            return io.BufferedReader(FailsAfter4K(path)) if Path(path) == bad else open(path, mode)

        monkeypatch.setattr("ngramstitch.records.open", failing_open, raising=False)
        out = tmp_path / "o.ndjson"
        summary = reconstruct_command(RunConfig(inputs=[good, bad], output=out))
        assert [path for path, _ in summary.file_errors] == [str(bad)]
        assert "unreadable stream" in summary.file_errors[0][1]
        # the bad file shares the good one's URLs: any record it gave would change the articles
        assert out.read_bytes() == alone.read_bytes()

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

    @pytest.mark.skipif(not FORK, reason="needs os.fork")
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
        assert all(line is not None and error is None for line, error in serial)
        assert pipeline._reconstruct_in_pool(urls, groups, assembly, 2) == serial

    def test_without_fork_the_groups_run_in_process(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(4)]
        records_path, _ = shred_corpus(tmp_path, texts, drop_rate=0.2)
        serial_out, pooled_out = tmp_path / "serial.ndjson", tmp_path / "pooled.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=serial_out, workers=1))

        def no_pool(*args):
            raise AssertionError("the pool ran without os.fork")

        monkeypatch.delattr(os, "fork", raising=False)  # the platforms without fork
        monkeypatch.setattr(pipeline, "_reconstruct_in_pool", no_pool)
        summary = reconstruct_command(RunConfig(inputs=[records_path], output=pooled_out, workers=2))
        assert summary.groups == len(texts) and summary.group_errors == []
        assert pooled_out.read_bytes() == serial_out.read_bytes()

    @pytest.mark.skipif(not FORK, reason="needs os.fork")
    @pytest.mark.parametrize("via", ["library", "cli"])
    def test_failed_fork_kills_and_reaps_the_running_worker(
        self, tmp_path, rng, vocab, vocab_weights, monkeypatch, via
    ):
        # the second fork fails while the first worker is busy for 10 s: the
        # run fails at once, the worker is killed and reaped, the temporary
        # directory is gone and the previous corpus stands
        texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(2)]
        records_path, _ = shred_corpus(tmp_path, texts)
        out = tmp_path / "corpus.ndjson"
        out.write_bytes(b'{"url": "old", "text": "previous run"}\n')
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        real_fork, pids = os.fork, []

        def fails_on_second_call():
            if pids:  # simulated: no process id is really used up
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pids.append(real_fork())
            return pids[-1]

        def sleeps(url, records, config):
            time.sleep(10)

        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setattr(os, "fork", fails_on_second_call)
        monkeypatch.setattr(pipeline, "reconstruct_group", sleeps)
        started = time.monotonic()
        if via == "library":
            with pytest.raises(OSError):
                reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=2))
        else:
            args = ["reconstruct", str(records_path), "-o", str(out), "--workers", "2"]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 4 and "I/O error" in result.output
        assert time.monotonic() - started < 5
        [pid] = pids
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass  # the run reaped it
        else:  # leave no child behind, then fail
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            pytest.fail("the running worker was not reaped")
        assert not list(scratch.glob("ngramstitch-*"))
        assert out.read_bytes() == b'{"url": "old", "text": "previous run"}\n'
        assert not list(tmp_path.glob("*.part"))

    @pytest.mark.skipif(not FORK, reason="needs os.fork: run in-process, the dying group would end the test run")
    def test_killed_worker_is_a_group_error(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        # a group that kills its worker costs only itself: of 40 groups on 2
        # workers, group 17 dies, and its share is split until it is alone
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(40)]
        records_path, reference = shred_corpus(tmp_path, texts, drop_rate=0.3)
        serial_out = tmp_path / "serial.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=serial_out))
        doomed = sorted(reference)[17]
        real_reconstruct_group, real_fork, real_waitpid = pipeline.reconstruct_group, os.fork, os.waitpid
        events = []

        def dies_on_one_url(url, records, config):
            if url == doomed:
                os._exit(1)
            return real_reconstruct_group(url, records, config)

        def recording_fork():
            events.append("fork")
            return real_fork()

        def recording_waitpid(pid, options):
            events.append("wait")
            return real_waitpid(pid, options)

        monkeypatch.setattr(pipeline, "reconstruct_group", dies_on_one_url)
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        out = tmp_path / "o.ndjson"
        summary = reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=2))
        assert summary.groups == 40 and summary.articles == 39
        assert [url for url, _ in summary.group_errors] == [doomed]
        assert "worker died" in summary.group_errors[0][1]
        serial_lines = serial_out.read_bytes().splitlines(keepends=True)
        assert out.read_bytes() == b"".join(line for line in serial_lines if json.loads(line)["url"] != doomed)
        # both shares run at once; then two halves for each split of the dying share
        assert events[:3] == ["fork", "fork", "wait"]
        assert events.count("fork") <= 2 + 2 * math.ceil(math.log2(len(texts)))

    @pytest.mark.skipif(not FORK, reason="needs os.fork: run in-process, SIGTERM would end the test run")
    def test_worker_stopped_by_sigterm_is_a_group_error(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        # the workers inherit the CLI's SIGTERM handler, so a worker sent
        # SIGTERM leaves through os._exit(1) rather than by the signal, and its
        # share is split as a dying one is; the caller's handler is restored
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(8)]
        records_path, reference = shred_corpus(tmp_path, texts)
        serial_out = tmp_path / "serial.ndjson"
        reconstruct_command(RunConfig(inputs=[records_path], output=serial_out))
        doomed = sorted(reference)[5]
        real_reconstruct_group = pipeline.reconstruct_group

        def stopped_on_one_url(url, records, config):
            if url == doomed:
                os.kill(os.getpid(), signal.SIGTERM)
            return real_reconstruct_group(url, records, config)

        monkeypatch.setattr(pipeline, "reconstruct_group", stopped_on_one_url)
        previous = signal.getsignal(signal.SIGTERM)
        out = tmp_path / "o.ndjson"
        result = CliRunner().invoke(main, ["reconstruct", str(records_path), "-o", str(out), "--workers", "2"])
        assert signal.getsignal(signal.SIGTERM) is previous
        assert result.exit_code == 5, result.output
        assert f"group error: {doomed}: worker died: exit code 1" in result.output
        assert result.output.count("group error:") == 1
        serial_lines = serial_out.read_bytes().splitlines(keepends=True)
        assert out.read_bytes() == b"".join(line for line in serial_lines if json.loads(line)["url"] != doomed)

    @pytest.mark.skipif(not FORK, reason="needs os.fork")
    def test_stop_signals_are_blocked_only_across_each_fork(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        # a handler that raised between a fork and the record of its child, or
        # in the fork's own hooks, would leave the child running or be lost
        texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(4)]
        records_path, _ = shred_corpus(tmp_path, texts)
        stop = {signal.SIGINT, signal.SIGTERM}
        real_fork, real_reconstruct_group = os.fork, pipeline.reconstruct_group
        masks = []

        def recording_fork():
            masks.append(signal.pthread_sigmask(signal.SIG_BLOCK, set()))
            return real_fork()

        def fails_if_blocked(url, records, config):
            if stop & signal.pthread_sigmask(signal.SIG_BLOCK, set()):
                raise RuntimeError("the worker runs with SIGINT or SIGTERM blocked")
            return real_reconstruct_group(url, records, config)

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(pipeline, "reconstruct_group", fails_if_blocked)
        summary = reconstruct_command(RunConfig(inputs=[records_path], output=tmp_path / "o.ndjson", workers=2))
        assert summary.group_errors == [] and summary.articles == len(texts)
        assert len(masks) == 2 and all(stop <= mask for mask in masks)
        assert not stop & signal.pthread_sigmask(signal.SIG_BLOCK, set())

    @pytest.mark.skipif(not FORK, reason="needs os.fork")
    def test_interrupt_right_after_a_wait_kills_and_reaps_the_rest(
        self, tmp_path, rng, vocab, vocab_weights, monkeypatch
    ):
        # a handler may raise just after a wait returned, while the reaped
        # child is still listed as running: the other child is still killed
        texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(2)]
        records_path, reference = shred_corpus(tmp_path, texts)
        first = sorted(reference)[0]
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        real_fork, real_waitpid, pids = os.fork, os.waitpid, []

        def recording_fork():
            pids.append(real_fork())
            return pids[-1]

        def sleeps_but_first(url, records, config):
            if url != first:
                time.sleep(10)

        def interrupted_after_first_wait(pid, options):
            result = real_waitpid(pid, options)
            if len(pids) == 2 and pid == pids[0] and options == 0:
                pids.append(None)  # interrupt once
                raise KeyboardInterrupt
            return result

        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "waitpid", interrupted_after_first_wait)
        monkeypatch.setattr(pipeline, "reconstruct_group", sleeps_but_first)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            reconstruct_command(RunConfig(inputs=[records_path], output=tmp_path / "o.ndjson", workers=2))
        assert time.monotonic() - started < 5
        monkeypatch.undo()
        try:
            os.waitpid(pids[1], os.WNOHANG)
        except ChildProcessError:
            pass  # the run reaped it
        else:  # leave no child behind, then fail
            with suppress(ProcessLookupError):
                os.kill(pids[1], signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pids[1], 0)
            pytest.fail("the running worker was not reaped")
        assert not list(scratch.glob("ngramstitch-*"))

    def test_failed_write_keeps_previous_corpus(self, tmp_path, rng, vocab, vocab_weights, monkeypatch):
        texts = [make_article(rng, 60, vocab, vocab_weights) for _ in range(3)]
        records_path, _ = shred_corpus(tmp_path, texts)
        out = tmp_path / "out" / "corpus.ndjson"
        out.parent.mkdir()
        out.write_bytes(b'{"url": "old", "text": "previous run"}\n')
        real_open_replacing = pipeline.open_replacing
        writes = []

        class FailsOnSecondWrite:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(data)
                if len(writes) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        @contextmanager
        def failing_open_replacing(path, mode="w"):
            with real_open_replacing(path, mode) as fh:
                yield FailsOnSecondWrite(fh)

        monkeypatch.setattr(pipeline, "open_replacing", failing_open_replacing)
        with pytest.raises(OSError, match="No space left"):
            reconstruct_command(RunConfig(inputs=[records_path], output=out))
        assert len(writes) == 2
        assert out.read_bytes() == b'{"url": "old", "text": "previous run"}\n'
        assert [p.name for p in out.parent.iterdir()] == ["corpus.ndjson"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fails", [False, True])
    def test_collector_off_for_the_whole_command(
        self, tmp_path, rng, vocab, vocab_weights, monkeypatch, workers, fails
    ):
        # off while parsing, while each group is built (serially or in a
        # worker) and while the corpus is written; afterwards the caller's
        # setting is back and the objects the caller froze are still frozen
        texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(3)]
        records_path, _ = shred_corpus(tmp_path, texts)
        out = tmp_path / "corpus.ndjson"
        if fails:
            out.mkdir()  # the final rename onto a directory raises
        writing, parsing = [], []
        real_open_replacing, real_reconstruct_group = pipeline.open_replacing, pipeline.reconstruct_group
        real_parse_file = pipeline.parse_file

        @contextmanager
        def recording_open_replacing(path, mode="w"):
            writing.append(gc.isenabled())
            with real_open_replacing(path, mode) as fh:
                yield fh
                writing.append(gc.isenabled())

        def recording_parse_file(path, **filters):
            parsing.append(gc.isenabled())
            return real_parse_file(path, **filters)

        def fails_with_the_collector_on(url, records, config):
            if gc.isenabled():  # a group error, so the article is missing
                raise RuntimeError("built with the collector on")
            return real_reconstruct_group(url, records, config)

        monkeypatch.setattr(pipeline, "open_replacing", recording_open_replacing)
        monkeypatch.setattr(pipeline, "reconstruct_group", fails_with_the_collector_on)
        monkeypatch.setattr(pipeline, "parse_file", recording_parse_file)
        gc.freeze()  # the caller's own frozen objects
        frozen = gc.get_freeze_count()
        try:
            for collector in (True, False):
                (gc.enable if collector else gc.disable)()
                if fails:
                    with pytest.raises(OSError):
                        reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=workers))
                else:
                    reconstruct_command(RunConfig(inputs=[records_path], output=out, workers=workers))
                    assert len(read_corpus(out)) == len(texts)
                assert gc.isenabled() == collector
                assert gc.get_freeze_count() == frozen > 0
                assert parsing == [False] and writing == [False, False]
                writing.clear()
                parsing.clear()
        finally:
            gc.unfreeze()
            gc.enable()

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(not FORK, reason="without os.fork, 2 workers run serially")),
    ])
    def test_run_leaves_no_cyclic_garbage(self, tmp_path, rng, vocab, vocab_weights, monkeypatch, workers):
        # the premise of running with the collector off: a run, with a group
        # that raises and a cut gzip file, leaves nothing for it to free
        texts = [make_article(rng, 40, vocab, vocab_weights) for _ in range(4)]
        records_path, reference = shred_corpus(tmp_path, texts, drop_rate=0.2)
        packed = gzip.compress(records_path.read_bytes())
        cut = tmp_path / "cut.ndjson.gz"
        cut.write_bytes(packed[: len(packed) // 2])
        doomed = sorted(reference)[1]
        real_reconstruct_group = pipeline.reconstruct_group

        def raises_on_one_url(url, records, config):
            if url == doomed:
                raise RuntimeError("injected")
            return real_reconstruct_group(url, records, config)

        monkeypatch.setattr(pipeline, "reconstruct_group", raises_on_one_url)
        config = RunConfig(inputs=[records_path, cut], output=tmp_path / "o.ndjson", workers=workers)
        reconstruct_command(config)  # a first import, such as pickle's, can leave garbage of its own
        gc.collect()
        gc.disable()
        try:
            summary = reconstruct_command(config)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert summary.group_errors == [(doomed, "RuntimeError: injected")]
        assert [path for path, _ in summary.file_errors] == [str(cut)]


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
            '{"url": "u\\ud800", "text": "x"}',  # a lone surrogate: valid JSON, not a UTF-8 URL
        ],
        ids=["no-text", "int-url", "null-text", "list-url", "latin-1", "surrogate-url"],
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
