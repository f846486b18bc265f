"""Self-tests of the benchmark itself.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch():
    path = run.WORK_DIR / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_gives_same_bytes_for_same_seed(scratch, name):
    first = gen.generate(name, 11, scratch / "a")
    again = gen.generate(name, 11, scratch / "b")
    other = gen.generate(name, 12, scratch / "c")
    digest = gen.digest_files(first.inputs + [first.reference])
    assert digest == gen.digest_files(again.inputs + [again.reference])
    assert digest != gen.digest_files(other.inputs + [other.reference])
    assert first.diagnostics == again.diagnostics


def test_articles_repeat_no_dup_run_gram():
    rng = gen.random.Random(3)
    vocab = gen.make_vocab(rng, size=30)  # tiny vocabulary forces collisions
    words = gen.make_article(rng, 400, vocab, gen.zipf_cum_weights(len(vocab)))
    n = gen.MIN_DUP_RUN
    grams = [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]
    assert len(words) == 400
    assert len(set(grams)) == len(grams)


def test_tampered_output_counts_as_failed(scratch, monkeypatch):
    ws = run.Workspace("news-dense", 4, scratch / "ws")
    result, corpus, report = ws.roundtrip(workers=1, trace=False)
    assert run.check_roundtrip(ws, result, corpus, report) == (0, [])

    recorded = {"corpus": gen.digest_files([corpus]), "report": gen.digest_files([report])}
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    article = json.loads(lines[3])
    article["text"] = article["text"].replace(" ", "  ", 1) + " extra"
    lines[3] = json.dumps(article, ensure_ascii=False) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    failed, problems = run.check_roundtrip(ws, result, corpus, report)
    assert failed == 1 and problems

    # a digest mismatch cannot be pinned to one group, so it fails them all
    monkeypatch.setattr(run, "recorded_digests", lambda workload, seed: recorded)
    failed, _ = run.check_roundtrip(ws, result, corpus, report)
    assert failed == len(ws.inputs.expected_groups)

    # without full coverage the text is not known, but dedup must have left
    # no adjacent duplicated run
    monkeypatch.setattr(ws.inputs, "complete", False)
    monkeypatch.setattr(run, "recorded_digests", lambda workload, seed: None)
    failed, _ = run.check_roundtrip(ws, result, corpus, report)
    assert failed == 0
    words = article["text"].split()
    article["text"] = " ".join(words[:40] + words[30:])
    lines[3] = json.dumps(article, ensure_ascii=False) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    failed, _ = run.check_roundtrip(ws, result, corpus, report)
    assert failed == 1

    result["diagnostics"]["lines_malformed"] += 1
    failed, _ = run.check_roundtrip(ws, result, corpus, report)
    assert failed == len(ws.inputs.expected_groups)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    """--trace 1 also checks that traced and untraced round trips write
    identical bytes and that layer self times sum to the traced wall time."""
    proc = _bench("--workload", "news-dense", "--seed", "4", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_refuses_to_run_without_package_source(scratch):
    shutil.copytree(BENCH_DIR, scratch / "bench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", scratch)
    proc = _bench("--workload", "news-gappy", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""
