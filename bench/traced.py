"""The traced run: one pass of a workload with every layer call timed.

``instrument`` swaps the functions that each layer calls, in the module
globals where the program looks them up, for wrappers that record a
span: name, label, start, end, parent and run id. The pass then goes
through ``cli_main`` exactly as an untraced one does, so the spans time
the program's own code path, whatever shape it takes. Spans stay in
memory, one column per field, and are written once at the end. The
tracer keeps a single stack of open spans, so it needs the serial
pipeline (``MCRANK_THREADS=1``).
"""

from __future__ import annotations

import contextlib
import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from mcrank import cli, io, pipeline, ranking
from mcrank.core import ScoredList

from checks import tied_pairs

ROOT_SPAN = "workload"


class Tracer:
    """In-memory span recorder with deterministic counters beside it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.texts: list[str] = []  # span names and labels, interned
        self._text_ids: dict[str, int] = {}
        self.name, self.label = array("I"), array("I")
        self.parent = array("i")
        self.start, self.end = array("d"), array("d")
        self.counts: Counter = Counter()
        self.sample_sets: list = []  # the first fold's candidate sets
        self._open = [-1]

    def _text(self, text: str) -> int:
        if text not in self._text_ids:
            self._text_ids[text] = len(self.texts)
            self.texts.append(text)
        return self._text_ids[text]

    def innermost(self) -> str | None:
        i = self._open[-1]
        return None if i < 0 else self.texts[self.name[i]]

    def call(self, name: str, label: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span."""
        i = len(self.start)
        self.name.append(self._text(name))
        self.label.append(self._text(label))
        self.parent.append(self._open[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(i)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self.start[i] = t0
            self._open.pop()

    def totals(self) -> tuple[dict, dict]:
        """Total and self time per (name, label); self time excludes children."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        key = (np.frombuffer(self.name, dtype=np.uint32).astype(np.int64)
               * len(self.texts) + np.frombuffer(self.label, dtype=np.uint32))
        keys, inverse = np.unique(key, return_inverse=True)
        total = np.bincount(inverse, weights=dur, minlength=len(keys))
        own = np.bincount(inverse, weights=dur - children, minlength=len(keys))
        names = [(self.texts[k // len(self.texts)], self.texts[k % len(self.texts)])
                 for k in keys.tolist()]
        return dict(zip(names, total.tolist())), dict(zip(names, own.tolist()))

    def write(self, path: Path) -> None:
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                parent = self.parent[i]
                fh.write(f'{{"run": "{self.run_id}", "id": {i}, "parent": '
                         f'{"null" if parent < 0 else parent}, "name": '
                         f'"{self.texts[self.name[i]]}", "label": '
                         f'"{self.texts[self.label[i]]}", "start": '
                         f'{self.start[i] - origin:.9f}, "end": '
                         f'{self.end[i] - origin:.9f}}}\n')


def _wrap(tracer: Tracer, name: str, fn, label=None, after=None):
    """``fn`` traced as ``name``; ``label(*args)`` names the call's method
    and ``after(result, *args)`` updates the counters."""
    def traced(*args, **kwargs):
        result = tracer.call(name, label(*args) if label else "", fn, *args, **kwargs)
        if after:
            after(result, *args)
        return result
    return traced


def _hooks(tracer: Tracer) -> list[tuple[object, str, str, object, object]]:
    """(owner, attribute, span name, label, after) for every traced call."""
    counts = tracer.counts

    def fitted(_model, train, *_):
        counts["predictor.fit_records"] += len(train.records)

    def candidates_built(result, *_):
        cands, _, skipped = result
        sizes = [c.n for c in cands.values()]
        counts["cands.sets"] += len(sizes)
        counts["cands.total"] += sum(sizes)
        counts["cands.max"] = max([counts["cands.max"], *sizes])
        counts["pipeline.users_skipped"] += len(skipped)
        if not tracer.sample_sets:
            tracer.sample_sets = [cands[u] for u in sorted(cands)]

    def candidates_loaded(cands, *_):
        # every rank call loads the same sets; count them once
        sizes = [c.n for c in cands.values()]
        counts["cands.sets"], counts["cands.total"] = len(sizes), sum(sizes)
        counts["cands.max"] = max(sizes)

    def ranked(result, _c, spec):
        counts[f"ranking.tied_pairs.{workloads.metric_label(spec.label)}"] += \
            tied_pairs(result.scores)

    def metric_called(*_):
        counts["metrics.calls"] += 1

    def by_label(_c, spec):
        return spec.label

    return [
        (workloads, "cli_main", "cli", lambda argv: argv[0], None),
        (io, "load_dataset", "io.load_dataset", None, None),
        (cli, "run_experiment", "pipeline.run_experiment", None, None),
        (io, "load_candidate_sets", "io.load_candidate_sets", None, candidates_loaded),
        (io, "emit_report", "io.emit_report", None, None),
        (pipeline, "kfold_split", "pipeline.kfold_split", None, None),
        (pipeline, "fit", "predictor.fit", None, fitted),
        (pipeline, "build_candidates", "pipeline.build_candidates", None,
         candidates_built),
        (pipeline, "predict_many", "predictor.predict_many", None, None),
        (pipeline, "rank_candidates", "ranking.rank_candidates", by_label, ranked),
        (cli, "rank_candidates", "ranking.rank_candidates", by_label, ranked),
        (ScoredList, "from_pairs", "core.scored_list", None, None),
        (pipeline, "top_n", "ranking.top_n", None, None),
        (cli, "top_n", "ranking.top_n", None, None),
        (pipeline, "confusion", "metrics.confusion", None, None),
        (pipeline, "f1", "metrics.f1", None, metric_called),
        (pipeline, "ndcg", "metrics.ndcg", None, metric_called),
    ]


def _score_hook(tracer: Tracer):
    """``ranking.method_scores``, which hybrids call again for their parts."""
    real = ranking.method_scores

    def traced(c, spec):
        if tracer.innermost() in ("ranking.score", "ranking.score_part"):
            return tracer.call("ranking.score_part", spec.label, real, c, spec)
        tracer.counts["ranking.pairs_scored"] += c.n * (c.n - 1)
        return tracer.call("ranking.score", spec.label, real, c, spec)
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every layer call for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for owner, attr, name, label, after in _hooks(tracer):
            stack.enter_context(workloads.patched(
                owner, attr, _wrap(tracer, name, getattr(owner, attr), label, after)))
        stack.enter_context(workloads.patched(ranking, "method_scores",
                                              _score_hook(tracer)))
        yield tracer


def traced_pass(tracer: Tracer, wl, inputs, workdir: Path) -> list:
    """One pass of the workload through ``cli_main`` with every layer traced."""
    with instrument(tracer):
        return tracer.call(ROOT_SPAN, wl.name, workloads.run_pass, wl, inputs, workdir)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from the spans and counters of one run."""
    total, own = tracer.totals()

    def layer(name):
        return sum(v for (n, _), v in total.items() if n == name)

    values = {f"{name}_s": layer(name) for name in (
        "io.load_dataset", "io.load_candidate_sets", "io.emit_report",
        "pipeline.kfold_split", "pipeline.build_candidates", "predictor.fit",
        "predictor.predict_many", "core.scored_list", "ranking.top_n",
        "metrics.confusion", "metrics.f1", "metrics.ndcg")}
    values["cli.rank_s"] = total.get(("cli", "rank"), 0.0)
    values["cli.rank_self_s"] = own.get(("cli", "rank"), 0.0)
    for (name, label), seconds in total.items():
        if name == "ranking.score":
            values[f"ranking.score_s.{workloads.metric_label(label)}"] = seconds
    counts = tracer.counts
    values.update({k: v for k, v in counts.items() if k != "cands.total"})
    if counts["cands.sets"]:
        values["cands.mean"] = counts["cands.total"] / counts["cands.sets"]
    values["trace.wall_s"] = layer(ROOT_SPAN)
    return values
