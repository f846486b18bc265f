"""One benchmark round trip in a fresh interpreter.

Usage: python3 roundtrip.py SPEC_JSON RESULT_JSON

Imports ``ngramstitch.cli`` first and times that import (the set-up a user's
``ngramstitch`` command pays), then runs ``reconstruct_command`` and
``validate_command`` on the files named in SPEC_JSON and writes timings,
run counters and peak RSS to RESULT_JSON. A fixed reference task is timed
just before and after the round trip, so timings can be expressed in units
of the host's speed at that moment. With ``"trace": true`` in the spec
it wraps the module attributes the pipeline calls, keeps the spans in memory
and writes them out with the result.
"""

import time

_import_start = time.perf_counter()
import ngramstitch.cli  # noqa: E402,F401  (the timed set-up)

SETUP_S = time.perf_counter() - _import_start

import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import ngramstitch  # noqa: E402
from ngramstitch import pipeline, similarity  # noqa: E402

perf_counter = time.perf_counter
REFERENCE_REPEATS = 5


def reference_task() -> int:
    """A fixed pure-Python job in the program's style (split, slice, tuple
    keys, dict counts, join) that no change to the program can touch."""
    words = [f"w{(i * 7919) % 1009}" for i in range(20000)]
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(words) - 2):
        key = tuple(words[i : i + 3])
        counts[key] = counts.get(key, 0) + 1
    text = " ".join(words)
    return len(counts) + len(text.split()) + sum(w == v for w, v in zip(words, words[1:]))


def reference_s() -> float:
    """Best of a few timings of ``reference_task``: the host's current speed,
    measured in the process that does the work."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        reference_task()
        best = min(best, perf_counter() - start)
    return best


class Tracer:
    """Spans as [name, parent_id, start, end] in call order; calls made once
    per record or pair are folded into (name, parent_id) -> [count, total_s]
    so tracing stays cheap where calls are many."""

    def __init__(self):
        self.spans: list[list] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            entry = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(entry)
            entry[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[3] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def aggregate(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            key = (name, self._stack[-1] if self._stack else None)
            slot = self.aggregates.get(key)
            if slot is None:
                slot = self.aggregates[key] = [0, 0.0]
            slot[0] += 1
            slot[1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


def install_tracer(tracer: Tracer, captured: dict) -> None:
    """Wrap the attributes ``pipeline`` and ``similarity`` look up at call
    time, so the program itself is unchanged."""

    def on_group_by_url(args, groups):
        captured["groups"] = groups

    def on_strip(args, result):
        tracer.count("fragments.wraparound_cut", result is not args[0])

    def on_assemble(args, draft):
        fragments = len(args[0])
        tracer.count("fragments.count", fragments)
        tracer.count("assembly.attempts", fragments - 1)
        tracer.count("assembly.merges", draft.fragments_used - 1 - draft.fragments_unanchored)
        tracer.count("assembly.unanchored", draft.fragments_unanchored)
        tracer.count("assembly.draft_words", len(draft.words))

    def on_dedup(args, words):
        tracer.count("assembly.dedup_removed_words", len(args[0]) - len(words))

    def on_seqmatch(args, result):
        a, b = args[0], args[1]
        if a == b:
            tracer.count("similarity.identical_pairs", 1)
        else:
            tracer.count("similarity.compared_cells", len(a) * len(b))
        tracer.count("similarity.matching_chars", result[1].matching_chars)

    spans = {
        pipeline: {
            "parse_file": None,
            "group_by_url": on_group_by_url,
            "reconstruct_group": None,
            "assemble": on_assemble,
            "deduplicate": on_dedup,
            "read_corpus": None,
            "validate_corpus": None,
        },
    }
    per_call = {
        pipeline: {"build_fragment": None, "strip_wraparound_artifact": on_strip},
        similarity: {
            "preprocess": None,
            "levenshtein_similarity": None,
            "sequence_matcher_similarity": on_seqmatch,
            "jaccard_similarity": None,
        },
    }
    for module, names in spans.items():
        for name, hook in names.items():
            setattr(module, name, tracer.span(name, getattr(module, name), hook))
    for module, names in per_call.items():
        for name, hook in names.items():
            setattr(module, name, tracer.aggregate(name, getattr(module, name), hook))


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    package_dir = Path(ngramstitch.__file__).resolve().parent
    if package_dir != Path(spec["package_dir"]).resolve():
        raise SystemExit(f"imported ngramstitch from {package_dir}, not the checkout")

    config = pipeline.RunConfig(
        inputs=spec["inputs"],
        output=spec["corpus"],
        langs=spec["langs"],
        url_include=spec["url_include"],
        workers=spec["workers"],
    )
    reconstruct = pipeline.reconstruct_command
    validate = pipeline.validate_command
    tracer = captured = None
    if spec["trace"]:
        tracer, captured = Tracer(), {}
        install_tracer(tracer, captured)
        reconstruct = tracer.span("reconstruct_command", reconstruct)
        validate = tracer.span("validate_command", validate)

    reference_before = reference_s()
    start = perf_counter()
    summary = reconstruct(config)
    middle = perf_counter()
    _, stats = validate(spec["corpus"], spec["reference"], report_json=spec["report"])
    end = perf_counter()
    reference_after = reference_s()

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": SETUP_S,
        "reconstruct_s": middle - start,
        "validate_s": end - middle,
        "roundtrip_s": end - start,
        "reference_s": (reference_before + reference_after) / 2,
        "peak_rss_kb": max(self_kb, children_kb),
        "diagnostics": vars(summary.diagnostics),
        "groups": summary.groups,
        "articles": summary.articles,
        "groups_skipped": summary.groups_skipped,
        "group_errors": [list(e) for e in summary.group_errors],
        "pairs_matched": stats.matched,
    }
    if tracer is not None:
        # outside every span: pickled size of the (url, records, config) tasks
        # reconstruct_command hands to the worker pool
        task_bytes = sum(
            len(pickle.dumps((url, group, config.assembly), pickle.DEFAULT_PROTOCOL))
            for url, group in captured["groups"].items()
        )
        result["trace"] = {
            "spans": tracer.spans,
            "aggregates": [[n, p, c, t] for (n, p), (c, t) in tracer.aggregates.items()],
            "counts": {**tracer.counts, "pipeline.task_bytes": task_bytes},
        }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
