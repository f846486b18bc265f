"""Seeded round-trip benchmark for ngramstitch.

Usage (from the repository root):

    python3 bench/run.py --workload news-dense --seed 1 --seconds 36 --trace 0

Generates the workload's record files and reference corpus for the seed
(see ``gen.py``), then runs closed-loop round trips until ``--seconds`` are
used: each round trip is a fresh interpreter (``roundtrip.py``) that imports
the package, runs ``reconstruct_command`` and then ``validate_command``. The
next round trip starts after the previous one ends.

Every round trip's output is checked: reconstructed text must equal the
reference wherever the workload has complete coverage and keep no adjacent
duplicated run elsewhere, the parse diagnostics must equal what the
generator injected, and the corpus and report digests
must equal those recorded in ``digests.json`` for the seed, when recorded.
A URL group that errors, is skipped or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics (medians over round trips).
Round-trip timings are divided by the time of a fixed reference task run
in the same process just before and after the round trip ("ref" units), so
that drift in the host's speed cancels out; the wall-clock medians go to
stderr.
``--trace 1`` alternates serial untraced and serial traced round trips and
prints the per-layer metrics: layer self times from the spans, the run
counters, and the tracing overhead. Traced and untraced outputs must be
byte-identical and the layer self times must sum to the traced wall time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 1 when any check failed, 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "ngramstitch"
WORK_DIR = BENCH_DIR / "_work"
DIGESTS = BENCH_DIR / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
ROUNDTRIP_TIMEOUT_S = 100  # a run must end within 180 s

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402

# span or per-call aggregate name -> the layer metric its self time lands in
LAYER_OF = {
    "parse_file": "records.parse_s",
    "group_by_url": "records.group_s",
    "build_fragment": "fragments.build_s",
    "strip_wraparound_artifact": "fragments.build_s",
    "assemble": "assembly.assemble_s",
    "deduplicate": "assembly.dedup_s",
    "reconstruct_group": "pipeline.group_self_s",
    "reconstruct_command": "pipeline.reconstruct_self_s",
    "validate_command": "pipeline.validate_self_s",
    "read_corpus": "pipeline.validate_self_s",
    "validate_corpus": "pipeline.validate_self_s",
    "preprocess": "similarity.preprocess_s",
    "levenshtein_similarity": "similarity.levenshtein_s",
    "sequence_matcher_similarity": "similarity.seqmatch_s",
    "jaccard_similarity": "similarity.jaccard_s",
}
LAYER_TIMES = sorted(set(LAYER_OF.values()))
# Printed to stderr only: a shared host can change speed by tens of percent
# for minutes at a time, so the end-to-end timings are reported in units of
# a fixed reference task timed in the same process around each round trip.
WALL_CLOCK = ("roundtrip_s", "reconstruct_records_per_s", "validate_pairs_per_s", "reference_s")
DIAGNOSTIC_METRICS = {
    "lines_read": "records.lines_read",
    "records_ok": "records.records_ok",
    "lines_malformed": "records.lines_malformed",
    "records_filtered": "records.records_filtered",
    "records_type2_skipped": "records.type2_skipped",
    "pos_clamped": "records.pos_clamped",
}
COUNT_METRICS = (
    "fragments.count", "fragments.wraparound_cut", "assembly.merges",
    "assembly.unanchored", "assembly.draft_words", "assembly.dedup_removed_words",
    "similarity.identical_pairs", "similarity.compared_cells", "similarity.matching_chars",
)


class Workspace:
    """Generated inputs of one workload and seed, plus the round-trip runner."""

    def __init__(self, workload: str, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.spec = gen.WORKLOADS[workload]
        self.dir = directory
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        self.inputs = gen.generate(workload, seed, directory / "inputs")
        self.generate_s = time.perf_counter() - started
        self.references = read_texts(self.inputs.reference)
        self.runs = 0

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.dir)
        return env

    def run_child(self, *args: str) -> None:
        """Run the interpreter with ``args`` in its own session, so a round
        trip that hangs is killed together with its pool workers."""
        command = [sys.executable, *args]
        with subprocess.Popen(command, env=self.env(), start_new_session=True) as child:
            try:
                code = child.wait(timeout=ROUNDTRIP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                raise
        if code != 0:
            raise subprocess.CalledProcessError(code, command)

    def warm_up(self) -> None:
        """Byte-compile and page in the package once, as an installed tool
        would be, so every timed import sees the same caches."""
        self.run_child("-c", "import ngramstitch.cli")

    def roundtrip(self, workers: int, trace: bool) -> tuple[dict, Path, Path]:
        """Run one round trip in a fresh interpreter; returns its result and
        the corpus and report it wrote."""
        self.runs += 1
        out = self.dir / f"run{self.runs:03d}"
        out.mkdir()
        spec = {
            "package_dir": str(PACKAGE_DIR),
            "inputs": [str(p) for p in self.inputs.inputs],
            "reference": str(self.inputs.reference),
            "corpus": str(out / "corpus.ndjson"),
            "report": str(out / "report.json"),
            "langs": self.spec.langs,
            "url_include": self.spec.url_include,
            "workers": workers,
            "trace": trace,
        }
        (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        self.run_child(str(BENCH_DIR / "roundtrip.py"), str(out / "spec.json"),
                       str(out / "result.json"))
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        return result, out / "corpus.ndjson", out / "report.json"


def read_texts(path: Path) -> dict[str, str]:
    texts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            texts[obj["url"]] = obj["text"]
    return texts


def has_adjacent_dup(words: list[str], run: int = gen.MIN_DUP_RUN) -> bool:
    """Whether some run of at least ``run`` words is immediately repeated,
    which the program's dedup pass must leave none of. Such a repeat at
    distance k starts with a ``run``-gram seen k words earlier, so only
    repeated grams are compared."""
    starts: dict[tuple[str, ...], list[int]] = {}
    for i in range(len(words) - run + 1):
        gram = tuple(words[i : i + run])
        for j in starts.get(gram, ()):
            k = i - j
            if k >= run and words[j:i] == words[i : i + k]:
                return True
        starts.setdefault(gram, []).append(i)
    return False


def recorded_digests(workload: str, seed: int) -> dict | None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


def check_roundtrip(ws: Workspace, result: dict, corpus: Path, report: Path) -> tuple[int, list[str]]:
    """Failed URL groups of one round trip, and what went wrong.

    Where coverage is complete each text must equal its reference; where
    it is not, no text may keep an adjacent duplicated run. A check that
    cannot be pinned to one group (diagnostics, digests, the report's pair
    count) fails every group of the round trip.
    """
    expected = ws.inputs.expected_groups
    failed: set[str] = {url for url, _ in result["group_errors"]}
    texts = read_texts(corpus)
    for url in expected:
        if url not in texts:
            failed.add(url)
        elif ws.inputs.complete and texts[url] != ws.references[url]:
            failed.add(url)
        elif has_adjacent_dup(texts[url].split()):
            failed.add(url)
    problems = [f"{len(failed)} group(s) errored, missing or wrong"] if failed else []
    whole_run: list[str] = []
    if set(texts) - set(expected):
        whole_run.append("corpus holds URLs the filters should have dropped")
    if result["diagnostics"] != ws.inputs.diagnostics:
        whole_run.append(f"diagnostics {result['diagnostics']} != injected {ws.inputs.diagnostics}")
    if result["pairs_matched"] != len(expected):
        whole_run.append(f"{result['pairs_matched']} pairs matched, expected {len(expected)}")
    digests = recorded_digests(ws.workload, ws.seed)
    if digests is not None:
        got = {"corpus": gen.digest_files([corpus]), "report": gen.digest_files([report])}
        if got != digests:
            whole_run.append(f"digests {got} != recorded {digests}")
    if whole_run:
        failed = set(expected)
    return len(failed), problems + whole_run


def report_quality(report: Path) -> dict[str, float]:
    summary = json.loads(report.read_text(encoding="utf-8"))["summary"]
    means = {row["metric"]: row["mean"] for row in summary if row["filter"] == "No Filter"}
    return {
        "quality_levenshtein": means["levenshtein_similarity"],
        "quality_seqmatch": means["sequence_matcher_similarity"],
    }


def self_times(trace: dict) -> tuple[dict[str, float], float, float]:
    """Layer self times, traced wall time and the slowest group span.

    A span's self time is its duration minus the time its child spans and
    per-call aggregates cover; the root spans' durations sum to the wall
    time, so the layer self times must too.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    layers = dict.fromkeys(LAYER_TIMES, 0.0)
    for name, parent, count, total in trace["aggregates"]:
        layers[LAYER_OF[name]] += total
        if parent is not None:
            child_time[parent] += total
    wall = 0.0
    slowest_group = 0.0
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
        else:
            wall += end - start
    for index, (name, parent, start, end) in enumerate(spans):
        layers[LAYER_OF[name]] += (end - start) - child_time[index]
        if name == "reconstruct_group":
            slowest_group = max(slowest_group, end - start)
    return layers, wall, slowest_group


def measure_end_to_end(ws: Workspace, seconds: float):
    """Closed loop of round trips at the workload's worker count; returns
    metrics, groups attempted, groups failed, problems and the round-trip
    times."""
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    digests = set()
    quality = None
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        result, corpus, report = ws.roundtrip(ws.spec.workers, trace=False)
        bad, issues = check_roundtrip(ws, result, corpus, report)
        attempted += len(ws.inputs.expected_groups)
        failed += bad
        problems += issues
        digests.add((gen.digest_files([corpus]), gen.digest_files([report])))
        quality = report_quality(report)
        lines = result["diagnostics"]["lines_read"]
        ref = result["reference_s"]
        for name, value in (
            ("roundtrip_refs", result["roundtrip_s"] / ref),
            ("reconstruct_records_per_ref", lines * ref / result["reconstruct_s"]),
            ("validate_pairs_per_ref", result["pairs_matched"] * ref / result["validate_s"]),
            ("setup_s", result["setup_s"]),
            ("peak_rss_mb", result["peak_rss_kb"] / 1024),
            ("roundtrip_s", result["roundtrip_s"]),
            ("reconstruct_records_per_s", lines / result["reconstruct_s"]),
            ("validate_pairs_per_s", result["pairs_matched"] / result["validate_s"]),
            ("reference_s", ref),
        ):
            samples.setdefault(name, []).append(value)
        last = time.perf_counter() - begun
        elapsed = time.perf_counter() - started
        if elapsed + last > seconds:
            break
    if len(digests) != 1:
        problems.append("round trips of one input wrote different bytes")
    medians = {name: statistics.median(values) for name, values in samples.items()}
    wall_clock = {name: medians.pop(name) for name in WALL_CLOCK}
    print("wall-clock medians: " + ", ".join(f"{k} {v:.6g}" for k, v in wall_clock.items()),
          file=sys.stderr)
    medians["ops_ok_ratio"] = 1.0 - failed / attempted
    medians.update(quality)
    return medians, attempted, failed, problems, samples["roundtrip_s"]


def measure_per_layer(ws: Workspace, seconds: float):
    """Pairs of serial untraced and serial traced round trips."""
    samples: dict[str, list[float]] = {}
    counts = None
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain, plain_corpus, plain_report = ws.roundtrip(1, trace=False)
        traced, corpus, report = ws.roundtrip(1, trace=True)
        for result, c, r in ((plain, plain_corpus, plain_report), (traced, corpus, report)):
            bad, issues = check_roundtrip(ws, result, c, r)
            attempted += len(ws.inputs.expected_groups)
            failed += bad
            problems += issues
        if (gen.digest_files([corpus]), gen.digest_files([report])) != (
            gen.digest_files([plain_corpus]), gen.digest_files([plain_report])
        ):
            problems.append("traced and untraced round trips wrote different bytes")
        trace = traced["trace"]
        layers, wall, slowest = self_times(trace)
        if abs(sum(layers.values()) - wall) > 1e-6 * wall:
            problems.append(f"layer self times sum to {sum(layers.values())}, wall is {wall}")
        run_counts = {DIAGNOSTIC_METRICS[k]: v for k, v in traced["diagnostics"].items()}
        run_counts.update({name: trace["counts"].get(name, 0) for name in COUNT_METRICS})
        run_counts["pipeline.task_mb"] = trace["counts"]["pipeline.task_bytes"] / 1e6
        attempts = trace["counts"].get("assembly.attempts", 0)
        run_counts["assembly.anchored_ratio"] = (
            run_counts["assembly.merges"] / attempts if attempts else 1.0
        )
        if counts is None:
            counts = run_counts
        elif run_counts != counts:
            problems.append("run counters differ between traced round trips")
        timed = dict(layers)
        timed["records.lines_per_s"] = run_counts["records.lines_read"] / layers["records.parse_s"]
        timed["assembly.slowest_article_s"] = slowest
        timed["pipeline.traced_wall_s"] = wall
        timed["pipeline.untraced_wall_s"] = plain["roundtrip_s"]
        timed["pipeline.tracing_overhead_s"] = wall - plain["roundtrip_s"]
        timed["pipeline.reference_s"] = traced["reference_s"]
        for name, value in timed.items():
            samples.setdefault(name, []).append(value)
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - begun) > seconds:
            break
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(counts)
    return metrics, attempted, failed, problems, samples["pipeline.traced_wall_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"no package source at {PACKAGE_DIR}; run from a full checkout", file=sys.stderr)
        return 2

    ws = Workspace(args.workload, args.seed, WORK_DIR / args.workload)
    ws.warm_up()
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics, attempted, failed, problems, rounds = measure(ws, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"round trip failed: {exc}", file=sys.stderr)
        return 1
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: generated in {ws.generate_s:.2f}s, "
        f"{len(rounds)} round(s) measured: " + " ".join(f"{r:.3f}s" for r in rounds),
        file=sys.stderr,
    )
    correct = failed == 0 and not problems
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
