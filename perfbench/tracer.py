"""Run one rvrank CLI command with its public functions wrapped in spans.

    python3 perfbench/tracer.py SPANS.json -- <rvrank CLI arguments>

The package's code runs unchanged: before ``rvrank.cli.main`` starts, every
name in an ``rvrank`` module that refers to a traced function (the defining
module's attribute, ``rvrank.cli``'s imported names, ``rvrank.reranker``'s
``pair_arrays`` and so on) is rebound to a wrapper.  Each wrapper records a
span ``[id, parent, name, start, end]`` and its counters.  Spans stay in
memory and are written to SPANS.json once, when the command ends.

The root span ``command`` starts when the parent spawned this process
(``PERFBENCH_SPAWN_TIME``, a ``time.time()`` stamp), so interpreter start
and imports show as the ``startup`` child span.
"""

import time

_WALL0, _PERF0 = time.time(), time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_pairs: set = set()
        self.progress_times: list[float] = []

    def open(self, name: str, start: float | None = None) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, name,
                time.perf_counter() if start is None else start, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][2] == name for i in self.stack)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# counters, one per traced function that has any


def _in_rerank(t: Tracer) -> bool:
    return t.inside("reranker.rerank_pipeline")


def count_load_bundle(t, args, kwargs, bundle):
    t.counts["datastore.load_bundle_calls"] += 1
    t.counts["datastore.images_loaded"] += sum(len(s) for s in bundle.splits.values())


def count_distance_matrix(t, args, kwargs, dist):
    t.counts["retrieval.distance_matrix_cells"] += dist.size


def count_eligible_mask(t, args, kwargs, mask):
    t.counts["retrieval.eligible_mask_calls"] += 1


def count_write_pairs(t, args, kwargs, _):
    t.counts["retrieval.pair_rows"] += len(args[1].pairs)


def count_read_pairs(t, args, kwargs, pair_set):
    t.counts["retrieval.pair_rows"] += len(pair_set.pairs)


def count_pair_arrays(t, args, kwargs, _):
    recs = args[0]
    t.counts["verifier.pairs_fused"] += len(recs)
    if _in_rerank(t):
        t.counts["rerank.pairs_fused"] += len(recs)
    # Records live as long as their bundle, so identity names an image.
    t.distinct_pairs.update((id(q), id(g)) for q, g in recs)


def count_batch_scores(t, args, kwargs, scores):
    t.counts["verifier.pairs_scored"] += len(scores)
    if _in_rerank(t):
        t.counts["rerank.pairs_scored"] += len(scores)


def count_validation(t, args, kwargs, _):
    t.counts["verifier.validation_calls"] += 1


def count_window(t, args, kwargs, _):
    t.counts["reranker.window_calls"] += 1
    if _in_rerank(t):
        t.counts["reranker.scorer_calls"] += len(args[1])


def count_kreciprocal(t, args, kwargs, _):
    t.counts["reranker.kreciprocal_n"] += args[0].shape[0]


def count_write_ranked(t, args, kwargs, _):
    t.counts["reranker.ranked_rows"] += sum(len(rl.order) for rl in args[1])


def count_evaluate(t, args, kwargs, report):
    t.counts["evaluation.queries_evaluated"] += report.num_evaluated


#: (module, function, counter) for every traced public function.
TARGETS = [
    ("datastore", "load_bundle", count_load_bundle),
    ("datastore", "write_bundle", None),
    ("synthgen", "generate", None),
    ("retrieval", "distance_matrix", count_distance_matrix),
    ("retrieval", "eligible_mask", count_eligible_mask),
    ("retrieval", "top_candidates", None),
    ("retrieval", "build_train_pairs", None),
    ("retrieval", "build_eval_pairs", None),
    ("retrieval", "candidates_from_pairs", None),
    ("retrieval", "write_pairs_csv", count_write_pairs),
    ("retrieval", "read_pairs_csv", count_read_pairs),
    ("verifier", "pair_arrays", count_pair_arrays),
    ("verifier", "batch_scores", count_batch_scores),
    ("verifier", "validation_rank1", count_validation),
    ("verifier", "train", None),
    ("verifier", "save_model", None),
    ("verifier", "load_model", None),
    ("verifier", "write_history_csv", None),
    ("reranker", "rerank_pipeline", None),
    ("reranker", "window_rerank", count_window),
    ("reranker", "kreciprocal_rerank", count_kreciprocal),
    ("reranker", "write_ranked_csv", count_write_ranked),
    ("reranker", "read_ranked_csv", None),
    ("evaluation", "evaluate", count_evaluate),
]


def install(tracer: Tracer) -> None:
    """Rebind every ``rvrank`` module attribute that refers to a target."""
    import rvrank.cli  # noqa: F401  (imports every module of the package)

    modules = [m for n, m in list(sys.modules.items())
               if n == "rvrank" or n.startswith("rvrank.")]
    for module_name, fn_name, count in TARGETS:
        original = getattr(sys.modules[f"rvrank.{module_name}"], fn_name, None)
        if original is None:
            print(f"tracer: rvrank.{module_name}.{fn_name} not found; not traced",
                  file=sys.stderr)
            continue
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, count)
        if fn_name == "train":
            wrapper = _with_progress_clock(tracer, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _with_progress_clock(tracer: Tracer, train):
    """Stamp each call of ``train``'s progress callback (one per epoch)."""
    @functools.wraps(train)
    def traced(*args, progress=None, **kwargs):
        def clocked(stats):
            tracer.progress_times.append(time.perf_counter())
            if progress is not None:
                progress(stats)
        return train(*args, progress=clocked, **kwargs)
    return traced


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <rvrank arguments>")
    tracer = Tracer()
    spawn = float(os.environ.get("PERFBENCH_SPAWN_TIME", _WALL0))
    root = tracer.open("command", start=_PERF0 - (_WALL0 - spawn))
    startup = tracer.open("startup", start=root[3])
    install(tracer)
    import rvrank.cli
    tracer.close(startup)

    main_span = tracer.open("cli.main")
    try:
        rc = rvrank.cli.main(argv)
    finally:
        tracer.close(main_span)
        tracer.close(root)
        with open(out, "w") as fh:
            json.dump({"argv": argv, "spans": tracer.spans,
                       "counts": dict(tracer.counts),
                       "distinct_pairs": len(tracer.distinct_pairs),
                       "progress_times": tracer.progress_times}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
