"""Per-layer metrics and counter invariants from the spans ``tracer.py`` wrote.

A span's self time is its duration minus its children's; spans nest
properly because the package runs on one thread.  Times and counts are
summed over the commands of the traced chain (``synthgen.generate_s`` over
set-up).  A metric whose layer does no work on a workload reads 0.

A command's span self times add up to its root span, which runs from the
parent's spawn to the spans being written; the parent's wall time adds the
interpreter's teardown, about 0.05 s.  The run fails if the spans miss more
than ``LEDGER_TOLERANCE`` of the wall time plus ``LEDGER_SLACK_S``, so that
no time goes missing.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

#: The window stage re-scores min(Q, eligible) candidates per query; the
#: benchmark's rerank commands run with the CLI default Q.
RERANK_Q = 20

#: Time a traced command's spans may miss: a share of its wall time, plus
#: an allowance for interpreter teardown after the spans are written.
LEDGER_TOLERANCE = 0.05
LEDGER_SLACK_S = 0.1

#: Spans that are not a layer: the whole command, interpreter start and
#: imports, and ``rvrank.cli.main`` (whose self time is the CLI's own code
#: plus any package function that is not traced).
NOT_LAYERS = ("command", "startup", "cli.main")

PER_LAYER_UNITS = {
    "verifier.pair_arrays_s": "s",
    "verifier.pairs_fused": "count",
    "verifier.fusion_distinct_ratio": "ratio",
    "verifier.validation_rank1_s": "s",
    "verifier.validation_calls": "count",
    "verifier.epoch_s": "s",
    "verifier.train_self_s": "s",
    "verifier.batch_scores_s": "s",
    "verifier.pairs_scored": "count",
    "retrieval.eligible_mask_s": "s",
    "retrieval.eligible_mask_calls": "count",
    "retrieval.distance_matrix_s": "s",
    "retrieval.distance_matrix_cells": "count",
    "retrieval.build_train_pairs_s": "s",
    "retrieval.build_eval_pairs_s": "s",
    "retrieval.write_pairs_csv_s": "s",
    "retrieval.read_pairs_csv_s": "s",
    "retrieval.pair_rows": "count",
    "reranker.kreciprocal_rerank_s": "s",
    "reranker.kreciprocal_n": "count",
    "reranker.rerank_pipeline_self_s": "s",
    "reranker.window_rerank_s": "s",
    "reranker.window_calls": "count",
    "reranker.scorer_calls": "count",
    "reranker.write_ranked_csv_s": "s",
    "reranker.read_ranked_csv_s": "s",
    "reranker.ranked_rows": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.queries_evaluated": "count",
    "datastore.load_bundle_s": "s",
    "datastore.load_bundle_calls": "count",
    "datastore.images_loaded": "count",
    "synthgen.generate_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cli.pairs_s": "s",
    "cli.train_s": "s",
    "cli.rerank_s": "s",
    "cli.eval_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.layer_coverage": "ratio",
}

#: Metrics that are a span's self time rather than its whole duration.
SELF_TIMES = {
    "verifier.train_self_s": "verifier.train",
    "reranker.rerank_pipeline_self_s": "reranker.rerank_pipeline",
    "cli.self_s": "cli.main",
}


def span_times(spans: list[list]) -> tuple[Counter, Counter]:
    """(total duration, total self time) per span name."""
    total: Counter = Counter()
    self_time: Counter = Counter()
    child_time: Counter = Counter()
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    for sid, _, name, start, end in spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[sid]
    return total, self_time


def layer_metrics(wl, eligible: list[int], spans_dir: Path,
                  command_s: dict[str, float], overhead_ratio: float,
                  ledger) -> dict[str, float]:
    """``command_s``: raw wall time of each traced command, measured by the
    parent; ``overhead_ratio``: traced chain time over untraced."""
    total: Counter = Counter()
    self_time: Counter = Counter()
    counts: Counter = Counter()
    fused = distinct = 0
    epoch_s = 0.0
    per_command: dict[str, dict] = defaultdict(dict)
    for name, _ in wl.chain:
        path = spans_dir / "chain" / f"{name}.json"
        if not path.exists():
            ledger.check(False, f"no spans for traced {name}")
            continue
        rec = json.loads(path.read_text())
        t, s = span_times(rec["spans"])
        total += t
        self_time += s
        c = Counter(rec["counts"])
        counts += c
        per_command[name] = c
        fused += c["verifier.pairs_fused"]
        distinct += rec["distinct_pairs"]
        ticks = rec["progress_times"]
        if len(ticks) > 1:
            epoch_s = statistics.median(b - a for a, b in zip(ticks, ticks[1:]))
        covered = sum(s.values())
        share = covered / command_s[name]
        print(f"  traced {name:<7} wall {command_s[name]:8.4f} s, span self "
              f"times sum to {covered:8.4f} s ({share:.1%})")
        missed = command_s[name] - covered
        ledger.check(missed <= LEDGER_TOLERANCE * command_s[name] + LEDGER_SLACK_S,
                     f"spans of traced {name} miss {missed:.4f} s of its wall time")

    setup_total: Counter = Counter()
    for path in sorted((spans_dir / "setup").glob("*.json")):
        setup_total += span_times(json.loads(path.read_text())["spans"])[0]

    check_invariants(wl, eligible, per_command, ledger)

    metrics: dict[str, float] = {}
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            metrics[key] = int(counts[key])
        elif key in SELF_TIMES:
            metrics[key] = self_time[SELF_TIMES[key]]
        elif unit == "s":
            metrics[key] = total[key[:-2]]
    metrics["synthgen.generate_s"] = setup_total["synthgen.generate"]
    metrics["cli.startup_s"] = total["startup"]
    for cmd in ("pairs", "train", "rerank", "eval"):
        metrics[f"cli.{cmd}_s"] = command_s.get(cmd, 0.0)
    metrics["verifier.epoch_s"] = epoch_s
    metrics["verifier.fusion_distinct_ratio"] = distinct / fused if fused else 0.0
    metrics["trace.overhead_ratio"] = overhead_ratio
    in_layers = sum(v for k, v in self_time.items() if k not in NOT_LAYERS)
    metrics["trace.layer_coverage"] = in_layers / sum(command_s.values())
    return metrics


def check_invariants(wl, eligible: list[int], per_command: dict[str, Counter],
                     ledger) -> None:
    """The exact counts the traced chain must show."""
    rerank = per_command.get("rerank", Counter())
    scored = sum(min(RERANK_Q, e) for e in eligible) if wl.window else 0
    calls = rerank["reranker.scorer_calls"]
    ledger.check(calls == scored,
                 f"reranker.scorer_calls {calls} != sum(min(Q, eligible)) {scored}")
    for key in ("rerank.pairs_fused", "rerank.pairs_scored"):
        ledger.check(rerank[key] == calls,
                     f"{key} during rerank {rerank[key]} != scorer_calls {calls}")
    rows = rerank["reranker.ranked_rows"]
    ledger.check(rows == sum(eligible),
                 f"reranker.ranked_rows {rows} != sum(eligible) {sum(eligible)}")
    evaluated = per_command.get("eval", Counter())["evaluation.queries_evaluated"]
    ledger.check(evaluated == len(eligible),
                 f"evaluation.queries_evaluated {evaluated} != {len(eligible)} queries")
    if wl.epochs is not None:
        calls = per_command.get("train", Counter())["verifier.validation_calls"]
        ledger.check(calls == wl.epochs + 1,
                     f"verifier.validation_calls {calls} != epochs + 1 = {wl.epochs + 1}")
