"""The benchmark's tracer wraps package functions by name and counts their
work from the arguments they are called with: every name it lists must
resolve, and every counter must read those arguments as the package passes
them, or the traced benchmark run silently loses a layer or miscounts it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import random_bundle
from rvrank import cli, reranker, verifier
from rvrank.datastore import write_bundle
from rvrank.retrieval import eligible_mask
from rvrank.verifier import VerifierModel, save_model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def spy(monkeypatch, captured: dict[str, list], module, name: str) -> None:
    """Replace ``module.name`` with a wrapper that appends each call's
    ``(args, kwargs, result)`` to ``captured[name]``."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        captured.setdefault(name, []).append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


def test_every_traced_function_exists():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module_name, fn_name, _ in tracer.TARGETS:
        module = importlib.import_module(f"rvrank.{module_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"rvrank.{module_name}.{fn_name} is traced but does not exist"


def test_window_counters_read_the_arguments_rerank_passes(tmp_path, monkeypatch):
    tracer = load_tracer()
    rng = np.random.default_rng(11)
    bundle = random_bundle(rng, n_query=8, n_gallery=16, n_identities=2, n_cloths=2)
    Q = 12
    eligible = eligible_mask(bundle.splits["Q"], bundle.splits["G"]).sum(axis=1).tolist()
    # Both sides of min(Q, eligible) occur.
    assert min(eligible) < Q <= max(eligible)

    write_bundle(bundle, tmp_path / "meta.csv", tmp_path / "features.bin",
                 tmp_path / "parts.bin")
    save_model(tmp_path / "model.bin",
               VerifierModel.initialize(bundle.dims, 6, 6, seed=0))

    captured: dict[str, list] = {}
    for module, name in ((reranker, "window_rerank"), (verifier, "pair_arrays"),
                         (cli, "write_ranked_csv")):
        spy(monkeypatch, captured, module, name)
    assert cli.main(["rerank", "--meta", str(tmp_path / "meta.csv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--parts", str(tmp_path / "parts.bin"),
                     "--model", str(tmp_path / "model.bin"),
                     "--out", str(tmp_path / "ranked.csv"), "--stages", "window",
                     "--P", "16", "--L", "4", "--Q", str(Q)]) == 0

    t = tracer.Tracer()
    span = t.open("reranker.rerank_pipeline")
    for call in captured["window_rerank"]:
        tracer.count_window(t, *call)
    for call in captured["pair_arrays"]:
        tracer.count_pair_arrays(t, *call)
    t.close(span)
    for call in captured["write_ranked_csv"]:
        tracer.count_write_ranked(t, *call)

    scored = sum(min(Q, e) for e in eligible)
    assert t.counts["reranker.window_calls"] == len(eligible)
    assert t.counts["reranker.scorer_calls"] == scored
    assert t.counts["rerank.pairs_fused"] == scored
    assert t.counts["reranker.ranked_rows"] == sum(eligible)


def test_pair_row_counter_reads_the_pair_csv_calls(tmp_path, monkeypatch):
    tracer = load_tracer()
    data, pairs = tmp_path / "data", tmp_path / "pairs"
    bundle_flags = ["--meta", str(data / "meta.csv"), "--features",
                    str(data / "features.bin"), "--parts", str(data / "parts.bin")]
    assert cli.main(["synth", "--out", str(data), "--n-identities", "8",
                     "--feature-dim", "8", "--part-dim", "4", "--part-count", "4"]) == 0

    captured: dict[str, list] = {}
    for name in ("write_pairs_csv", "read_pairs_csv"):
        spy(monkeypatch, captured, cli, name)
    assert cli.main(["pairs", *bundle_flags, "--out", str(pairs), "--P", "5"]) == 0
    assert cli.main(["train", *bundle_flags,
                     "--train-pairs", str(pairs / "train_pairs.csv"),
                     "--valid-pairs", str(pairs / "valid_pairs.csv"),
                     "--out", str(tmp_path / "model"), "--epochs", "1",
                     "--hidden-global", "4", "--hidden-part", "4"]) == 0

    def data_rows(name: str) -> int:
        lines = (pairs / name).read_text().splitlines()
        return sum(1 for ln in lines if not ln.startswith("#")) - 1

    rows = {name: data_rows(f"{name}_pairs.csv") for name in ("train", "valid", "test")}
    assert min(rows.values()) > 0
    t = tracer.Tracer()
    for call in captured["write_pairs_csv"]:
        tracer.count_write_pairs(t, *call)
    assert t.counts["retrieval.pair_rows"] == sum(rows.values())
    t = tracer.Tracer()
    for call in captured["read_pairs_csv"]:
        tracer.count_read_pairs(t, *call)
    assert t.counts["retrieval.pair_rows"] == rows["train"] + rows["valid"]


def test_kreciprocal_counter_reads_the_union_size(tmp_path, monkeypatch):
    tracer = load_tracer()
    rng = np.random.default_rng(12)
    bundle = random_bundle(rng, n_query=5, n_gallery=14, n_identities=3, n_cloths=2)
    write_bundle(bundle, tmp_path / "meta.csv", tmp_path / "features.bin",
                 tmp_path / "parts.bin")

    captured: dict[str, list] = {}
    spy(monkeypatch, captured, reranker, "kreciprocal_rerank")
    assert cli.main(["rerank", "--meta", str(tmp_path / "meta.csv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--out", str(tmp_path / "ranked.csv"), "--stages", "kreciprocal",
                     "--k1", "4", "--k2", "2"]) == 0

    t = tracer.Tracer()
    [call] = captured["kreciprocal_rerank"]
    tracer.count_kreciprocal(t, *call)
    assert t.counts["reranker.kreciprocal_n"] == \
        len(bundle.splits["Q"]) + len(bundle.splits["G"])


@pytest.mark.parametrize("stages", ["kreciprocal", "both"])
def test_ranked_row_counter_reads_every_stage_chain(tmp_path, monkeypatch, stages):
    tracer = load_tracer()
    rng = np.random.default_rng(13)
    bundle = random_bundle(rng, n_query=70, n_gallery=30, n_identities=3, n_cloths=2)
    eligible = eligible_mask(bundle.splits["Q"], bundle.splits["G"]).sum(axis=1).tolist()
    # More queries than one block of them.
    assert len(eligible) > reranker.DISTANCE_BLOCK
    write_bundle(bundle, tmp_path / "meta.csv", tmp_path / "features.bin",
                 tmp_path / "parts.bin")
    save_model(tmp_path / "model.bin",
               VerifierModel.initialize(bundle.dims, 6, 6, seed=0))

    captured: dict[str, list] = {}
    spy(monkeypatch, captured, cli, "write_ranked_csv")
    assert cli.main(["rerank", "--meta", str(tmp_path / "meta.csv"),
                     "--features", str(tmp_path / "features.bin"),
                     "--parts", str(tmp_path / "parts.bin"),
                     "--model", str(tmp_path / "model.bin"),
                     "--out", str(tmp_path / "ranked.csv"), "--stages", stages,
                     "--k1", "4", "--k2", "2"]) == 0

    t = tracer.Tracer()
    for call in captured["write_ranked_csv"]:
        tracer.count_write_ranked(t, *call)
    assert len(captured["write_ranked_csv"]) == 1
    assert t.counts["reranker.ranked_rows"] == sum(eligible)


def test_eval_reads_the_ranked_file_through_the_traced_reader(tmp_path, monkeypatch):
    # The tracer rebinds every module attribute that is the traced
    # reranker.read_ranked_csv, so eval's read shows as
    # reranker.read_ranked_csv_s only while cli calls that function.
    assert cli.read_ranked_csv is reranker.read_ranked_csv
    rng = np.random.default_rng(14)
    bundle = random_bundle(rng, n_query=5, n_gallery=14, n_identities=3, n_cloths=2)
    flags = ["--meta", str(tmp_path / "meta.csv"), "--features", str(tmp_path / "features.bin")]
    write_bundle(bundle, tmp_path / "meta.csv", tmp_path / "features.bin")
    assert cli.main(["rerank", *flags, "--stages", "none",
                     "--out", str(tmp_path / "ranked.csv")]) == 0

    captured: dict[str, list] = {}
    spy(monkeypatch, captured, cli, "read_ranked_csv")
    assert cli.main(["eval", *flags, "--ranked", str(tmp_path / "ranked.csv"),
                     "--out", str(tmp_path / "report.json")]) == 0
    [(args, kwargs, ranked)] = captured["read_ranked_csv"]
    assert str(args[0]) == str(tmp_path / "ranked.csv")
    assert len(ranked) == len(bundle.splits["Q"])
