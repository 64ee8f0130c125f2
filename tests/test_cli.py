"""End-to-end command line tests over a small generated benchmark."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rvrank
from rvrank.cli import main
from rvrank.datastore import (
    _METADATA_KINDS,
    METADATA_HEADER,
    Split,
    build_bundle,
    load_bundle,
    read_csv,
    write_bundle,
)
from rvrank.evaluation import PER_QUERY_HEADER, SWEEP_HEADER, evaluate
from rvrank.reranker import (RankedList, RankingConfig, read_ranked_csv, rerank_pipeline,
                             write_ranked_csv)
from rvrank.retrieval import PAIR_HEADER
from rvrank.verifier import HISTORY_HEADER, VerifierModel, save_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the whole chain once: synth, retrieve, pairs, train, rerank, eval."""
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data"
    bundle_flags = ["--meta", str(data / "meta.csv"),
                    "--features", str(data / "features.bin"),
                    "--parts", str(data / "parts.bin")]
    steps = [
        ["synth", "--out", str(data), "--n-identities", "12",
         "--feature-dim", "12", "--part-dim", "4", "--part-count", "6",
         "--seed", "3"],
        ["validate", *bundle_flags],
        ["retrieve", *bundle_flags, "--out", str(ws / "candidates.csv"),
         "--P", "10"],
        ["pairs", *bundle_flags, "--out", str(ws / "pairs"), "--P", "10"],
        ["train", *bundle_flags,
         "--train-pairs", str(ws / "pairs" / "train_pairs.csv"),
         "--valid-pairs", str(ws / "pairs" / "valid_pairs.csv"),
         "--out", str(ws / "model"), "--epochs", "6", "--hidden-global", "12",
         "--hidden-part", "12", "--L", "5", "--Q", "10"],
        ["rerank", *bundle_flags, "--model", str(ws / "model" / "model.bin"),
         "--candidates", str(ws / "candidates.csv"),
         "--out", str(ws / "ranked.csv"), "--stages", "both",
         "--P", "10", "--L", "5", "--Q", "10", "--k1", "5", "--k2", "2"],
        ["rerank", *bundle_flags, "--out", str(ws / "ranked_none.csv"),
         "--stages", "none", "--P", "10", "--L", "5", "--Q", "10"],
        ["eval", *bundle_flags, "--ranked", str(ws / "ranked.csv"),
         "--out", str(ws / "report.json"),
         "--per-query", str(ws / "per_query.csv")],
        ["eval", *bundle_flags, "--ranked", str(ws / "ranked_none.csv"),
         "--out", str(ws / "report_none.json")],
        ["sweep-l", *bundle_flags, "--model", str(ws / "model" / "model.bin"),
         "--out", str(ws / "sweep.csv"), "--L-values", "1,3,5",
         "--P", "10", "--Q", "10"],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return ws


def test_all_artifacts_exist(workspace):
    for name in ("data/meta.csv", "data/features.bin", "data/parts.bin",
                 "data/features.bin.config.json",
                 "candidates.csv", "pairs/train_pairs.csv",
                 "pairs/valid_pairs.csv", "pairs/test_pairs.csv",
                 "model/model.bin", "model/model.bin.config.json",
                 "model/history.csv", "ranked.csv", "ranked.csv.config.json", "report.json",
                 "per_query.csv", "sweep.csv"):
        assert (workspace / name).exists(), name


def test_config_comment_heads_each_csv(workspace):
    for name in ("candidates.csv", "pairs/train_pairs.csv",
                 "sweep.csv", "per_query.csv", "data/meta.csv"):
        first = (workspace / name).read_text().splitlines()[0]
        assert first.startswith("# config: "), name
        cfg = json.loads(first.removeprefix("# config: "))
        assert "command" in cfg


def test_report_embeds_the_run_configuration(workspace):
    report = json.loads((workspace / "report.json").read_text())
    assert report["config"]["command"] == "eval"
    assert report["config"]["k_max"] == 10
    assert len(report["cmc"]) == 10


def test_model_sidecar_records_training_flags(workspace):
    sidecar = json.loads(
        (workspace / "model" / "model.bin.config.json").read_text())
    assert sidecar["config"]["command"] == "train"
    assert sidecar["config"]["epochs"] == 6


def test_stage_free_rerank_is_the_retrieval_baseline(workspace):
    data = workspace / "data"
    bundle = load_bundle(data / "meta.csv", data / "features.bin",
                         data / "parts.bin")
    ranked = read_ranked_csv(workspace / "ranked_none.csv")
    want = rerank_pipeline(bundle, None, RankingConfig(P=10, L=5, Q=10),
                           stages=())
    assert [rl.order.tolist() for rl in ranked] == [rl.order.tolist() for rl in want]
    report = json.loads((workspace / "report_none.json").read_text())
    fresh = evaluate(bundle, want, k_max=10)
    assert report["cmc"] == fresh.cmc
    assert report["map"] == fresh.map_score


def test_ranked_file_records_its_stages_in_its_sidecar(workspace):
    for name, stages in (("ranked.csv", "both"), ("ranked_none.csv", "none")):
        sidecar = json.loads((workspace / f"{name}.config.json").read_text())
        assert (sidecar["config"]["command"], sidecar["config"]["stages"]) == ("rerank", stages)


def test_sweep_rows_follow_the_requested_widths(workspace):
    (widths, rank1, rank10), _ = read_csv(workspace / "sweep.csv", SWEEP_HEADER,
                                          (int, float, float))
    assert widths.tolist() == [1, 3, 5]
    assert ((0.0 <= rank1) & (rank1 <= rank10) & (rank10 <= 1.0)).all()


def test_history_has_one_row_per_epoch_plus_start(workspace):
    lines = [ln for ln in (workspace / "model" / "history.csv").read_text()
             .splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "epoch,L,L_g,L_p,valid_rank1"
    assert len(lines) == 1 + 7  # header + epochs 0..6


def test_explain_prints_per_part_contributions(workspace, capsys):
    data = workspace / "data"
    rc = main(["explain", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--model", str(workspace / "model" / "model.bin"),
               "--query-index", "0", "--limit", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank,gallery_index,label,score,head,best_part" in out
    assert "parts:" in out


def test_image_records_are_named_only_by_datastore_and_verifier():
    package = Path(rvrank.__file__).parent
    assert sorted(path.name for path in package.glob("*.py")
                  if "ImageRecord" in path.read_text()) == ["datastore.py", "verifier.py"]


def test_only_the_rerank_scorer_builds_image_records(workspace, tmp_path, monkeypatch):
    """Every record a command builds, the model's scorer call builds for
    ``pair_arrays``; training and ``explain`` fuse by index gather."""
    builders = set()
    index_split = Split.__getitem__

    def spy(split, i):
        if not isinstance(i, slice):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "<listcomp>":
                caller = caller.f_back
            builders.add((Path(caller.f_code.co_filename).name, caller.f_code.co_name))
        return index_split(split, i)

    monkeypatch.setattr(Split, "__getitem__", spy)
    data, model = workspace / "data", str(workspace / "model" / "model.bin")
    bundle_flags = ["--meta", str(data / "meta.csv"), "--features", str(data / "features.bin"),
                    "--parts", str(data / "parts.bin")]
    for argv in (train_argv(workspace, tmp_path / "model"),
                 ["rerank", *bundle_flags, "--model", model, "--out", str(tmp_path / "r.csv"),
                  "--P", "10", "--L", "5", "--Q", "10", "--k1", "5", "--k2", "2"],
                 ["sweep-l", *bundle_flags, "--model", model, "--out", str(tmp_path / "s.csv"),
                  "--L-values", "1,3", "--P", "10", "--Q", "10"],
                 ["explain", *bundle_flags, "--model", model, "--query-index", "1"]):
        assert main(argv) == 0, argv[0]
    assert builders == {("verifier.py", "__call__")}


@pytest.mark.parametrize("index", ["-1", "9999"])
def test_explain_rejects_an_out_of_range_query_index(workspace, capsys, index):
    data = workspace / "data"
    n_query = len(load_bundle(data / "meta.csv", data / "features.bin").splits["Q"])
    rc = main(["explain", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--model", str(workspace / "model" / "model.bin"),
               "--query-index", index])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --query-index {index} out of range for role Q (n={n_query})\n")


def test_synth_is_deterministic_across_directories(tmp_path):
    args = ["--n-identities", "8", "--seed", "9", "--feature-dim", "6",
            "--part-dim", "3", "--part-count", "4"]
    assert main(["synth", "--out", str(tmp_path / "a"), *args]) == 0
    assert main(["synth", "--out", str(tmp_path / "b"), *args]) == 0
    for name in ("meta.csv", "features.bin", "parts.bin"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        # the metadata comment echoes --out, which legitimately differs
        if name == "meta.csv":
            a = b"\n".join(a.split(b"\n")[1:])
            b = b"\n".join(b.split(b"\n")[1:])
        assert a == b, name


def test_validate_rejects_a_corrupted_bundle(workspace, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(workspace / "data", broken)
    raw = (broken / "features.bin").read_bytes()
    (broken / "features.bin").write_bytes(raw[:-6])
    rc = main(["validate", "--meta", str(broken / "meta.csv"),
               "--features", str(broken / "features.bin"),
               "--parts", str(broken / "parts.bin")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_window_stages_require_a_model(workspace, capsys):
    data = workspace / "data"
    rc = main(["rerank", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--out", str(workspace / "nope.csv"), "--stages", "window"])
    assert rc == 1
    assert "--model" in capsys.readouterr().err


def test_mismatched_candidates_fail_the_rerank(workspace, tmp_path, capsys):
    data = workspace / "data"
    stale = tmp_path / "stale.csv"
    text = (workspace / "candidates.csv").read_text().splitlines()
    # swap the rank fields of the first query's top two candidates
    header_at = next(i for i, ln in enumerate(text)
                     if ln.startswith("query_role"))
    for offset, rank in ((1, "2"), (2, "1")):
        fields = text[header_at + offset].split(",")
        fields[2] = rank
        text[header_at + offset] = ",".join(fields)
    stale.write_text("\n".join(text) + "\n")
    rc = main(["rerank", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--model", str(workspace / "model" / "model.bin"),
               "--candidates", str(stale),
               "--out", str(tmp_path / "out.csv"), "--stages", "both",
               "--P", "10", "--L", "5", "--Q", "10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "candidate" in err


def test_candidates_made_for_other_roles_fail_the_rerank(workspace, tmp_path, capsys):
    data = workspace / "data"
    valid_pairs = workspace / "pairs" / "valid_pairs.csv"
    out = tmp_path / "out.csv"
    rc = main(["rerank", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--candidates", str(valid_pairs), "--stages", "none",
               "--out", str(out), "--P", "10"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --candidates {valid_pairs}: holds pairs of roles VQ/VG, but --candidates "
        "takes Q/G pairs\n")
    assert not out.exists()


@pytest.mark.parametrize("train_file, valid_file, message", [
    ("valid", "train", "--train-pairs {valid}: holds pairs of roles VQ/VG, but "
                       "--train-pairs takes T/T pairs"),
    ("train", "test", "--valid-pairs {test}: holds pairs of roles Q/G, but "
                      "--valid-pairs takes VQ/VG pairs"),
    ("train", "train", "--valid-pairs {train}: holds pairs of roles T/T, but "
                       "--valid-pairs takes VQ/VG pairs"),
], ids=["swapped", "test as valid", "train as valid"])
def test_pair_files_of_other_roles_fail_the_train(workspace, tmp_path, capsys,
                                                  train_file, valid_file, message):
    pairs = {name: str(workspace / "pairs" / f"{name}_pairs.csv")
             for name in ("train", "valid", "test")}
    out = tmp_path / "model"
    argv = train_argv(workspace, out)
    argv[argv.index("--train-pairs") + 1] = pairs[train_file]
    argv[argv.index("--valid-pairs") + 1] = pairs[valid_file]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(**pairs)}\n"
    assert not out.exists()


@pytest.mark.parametrize("rows", ["none", "no positive"])
def test_a_validation_file_without_positives_fails_the_train(workspace, tmp_path, capsys,
                                                             rows):
    # Such a file would rank every epoch 0.0 and keep the untrained weights.
    comment, header, *body = (workspace / "pairs" / "valid_pairs.csv").read_text().splitlines()
    if rows == "none":
        body = []
    else:
        body = [line.rsplit(",", 1)[0] + ",0" for line in body]
    valid = tmp_path / "valid_pairs.csv"
    valid.write_text("\n".join([comment, header, *body]) + "\n")
    out = tmp_path / "model"
    argv = train_argv(workspace, out)
    argv[argv.index("--valid-pairs") + 1] = str(valid)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: no usable validation queries: no query has a positive candidate\n")
    # The fault is found inside training, after every input has been read.
    assert not out.exists()


@pytest.mark.parametrize("index", ["-1", "len"])
def test_out_of_range_pair_index_fails_the_train(workspace, tmp_path, capsys, index):
    data = workspace / "data"
    n_train = len(load_bundle(data / "meta.csv", data / "features.bin").splits["T"])
    index = str(n_train) if index == "len" else index
    lines = (workspace / "pairs" / "train_pairs.csv").read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("T,"))
    fields = lines[row].split(",")
    fields[4] = index
    lines[row] = ",".join(fields)
    bad = tmp_path / "train_pairs.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--train-pairs", str(bad),
               "--valid-pairs", str(workspace / "pairs" / "valid_pairs.csv"),
               "--out", str(tmp_path / "model"), "--epochs", "1"])
    assert rc == 1
    assert f"index {index} out of range for role T" in capsys.readouterr().err
    assert not (tmp_path / "model" / "model.bin").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "-1", "epochs must be in 0..4294967295 (u32), got -1"),
    ("--batch-size", "-3", "batch_size must be at least 1, got -3"),
    ("--batch-size", "0", "batch_size must be at least 1, got 0"),
    ("--seed", "9223372036854775808",
     "seed must be in 0..9223372036854775807 (i64), got 9223372036854775808"),
    ("--seed", "-1", "seed must be in 0..9223372036854775807 (i64), got -1"),
])
def test_untrainable_hyperparameters_fail_before_training(workspace, tmp_path, capsys,
                                                          flag, value, message):
    data = workspace / "data"
    out = tmp_path / "model"
    rc = main(["train", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--train-pairs", str(workspace / "pairs" / "train_pairs.csv"),
               "--valid-pairs", str(workspace / "pairs" / "valid_pairs.csv"),
               "--out", str(out), flag, value])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def model_commands(workspace, model, out):
    """argv of every command that loads ``--model`` to score pairs."""
    data = workspace / "data"
    flags = ["--meta", str(data / "meta.csv"), "--features", str(data / "features.bin"),
             "--parts", str(data / "parts.bin"), "--model", str(model)]
    return {
        "rerank": ["rerank", *flags, "--stages", "window", "--out", str(out)],
        "sweep-l": ["sweep-l", *flags, "--L-values", "1,3", "--out", str(out)],
        "explain": ["explain", *flags, "--query-index", "0"],
    }


@pytest.mark.parametrize("command", ["rerank", "sweep-l", "explain"])
@pytest.mark.parametrize("dims", [(12, 4, 1), (16, 4, 6)])
def test_a_model_for_other_dims_is_rejected_before_any_output(workspace, tmp_path, capsys,
                                                              command, dims):
    model, out = tmp_path / "model.bin", tmp_path / "out.csv"
    save_model(model, VerifierModel.initialize(dims, 4, 4, seed=0))
    rc = main(model_commands(workspace, model, out)[command])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {model}: model has (D, Dp, K) = {dims}, "
                            "but the bundle holds (12, 4, 6)\n")
    assert not out.exists()


def test_a_model_trained_with_parts_needs_the_part_file(workspace, tmp_path, capsys):
    model, out = workspace / "model" / "model.bin", tmp_path / "ranked.csv"
    argv = model_commands(workspace, model, out)["rerank"]
    at = argv.index("--parts")
    rc = main(argv[:at] + argv[at + 2:])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {model}: model has (D, Dp, K) = (12, 4, 6), "
        "but the bundle holds (12, 0, 15)\n")
    assert not out.exists()


@pytest.mark.filterwarnings("default::UserWarning")
def test_clamp_warnings_are_one_line_without_a_source_location(workspace, tmp_path,
                                                                capsys):
    data = workspace / "data"
    rc = main(["sweep-l", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"),
               "--parts", str(data / "parts.bin"),
               "--model", str(workspace / "model" / "model.bin"),
               "--out", str(tmp_path / "sweep.csv"), "--L-values", "25", "--Q", "20"])
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines
    assert set(lines) == {"warning: L=25 exceeds Q=20; clamping L to 20"}


def test_a_bad_L_value_names_the_flag_and_the_token(workspace, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = model_commands(workspace, workspace / "model" / "model.bin", out)["sweep-l"]
    argv[argv.index("--L-values") + 1] = "1,x"
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --L-values: 'x' is not an integer\n"
    assert not out.exists()


@pytest.mark.parametrize("change", [-1, 1])
def test_eval_rejects_a_ranked_file_for_another_query_count(workspace, tmp_path, capsys,
                                                            change):
    data = workspace / "data"
    ranked = read_ranked_csv(workspace / "ranked.csv")
    other, report = tmp_path / "ranked.csv", tmp_path / "report.json"
    count = len(ranked) + change
    write_ranked_csv(other, (ranked + [RankedList(ranked[0].order)])[:count])
    rc = main(["eval", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"), "--parts", str(data / "parts.bin"),
               "--ranked", str(other), "--out", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {other}: holds rankings of {count} queries, "
                                       f"but the bundle holds {len(ranked)} Q queries\n")
    assert not report.exists()


def test_eval_rejects_a_ranking_made_for_other_roles(workspace, tmp_path, capsys):
    data = workspace / "data"
    flags = ["--meta", str(data / "meta.csv"), "--features", str(data / "features.bin"),
             "--parts", str(data / "parts.bin")]
    ranked, report = tmp_path / "ranked.csv", tmp_path / "report.json"
    assert main(["rerank", *flags, "--query-role", "VQ", "--gallery-role", "VG",
                 "--stages", "none", "--out", str(ranked)]) == 0
    capsys.readouterr()
    rc = main(["eval", *flags, "--ranked", str(ranked), "--out", str(report)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: {ranked}: ranked with --query-role VQ --gallery-role VG, "
                   "but eval got --query-role Q --gallery-role G\n")
    assert not report.exists()
    assert main(["eval", *flags, "--query-role", "VQ", "--gallery-role", "VG",
                 "--ranked", str(ranked), "--out", str(report)]) == 0


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2


def test_missing_bundle_file_is_reported(tmp_path, capsys):
    rc = main(["validate", "--meta", str(tmp_path / "none.csv"),
               "--features", str(tmp_path / "none.bin")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_out_of_memory_is_reported_without_a_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.00 TiB")

    monkeypatch.setattr("rvrank.cli.load_bundle", exhausted)
    rc = main(["validate", "--meta", str(tmp_path / "meta.csv"),
               "--features", str(tmp_path / "features.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory running 'validate': Unable to allocate 9.00 TiB\n"


def test_a_bad_L_value_fails_before_the_bundle_is_read(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-l", "--meta", str(tmp_path / "none.csv"),
               "--features", str(tmp_path / "none.bin"), "--model", str(tmp_path / "none.bin"),
               "--out", str(out), "--L-values", "1,x"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --L-values: 'x' is not an integer\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("rerank", ["--k1", "0"], "k1 and k2 must be >= 1, got k1=0 k2=6"),
    ("rerank", ["--lambda", "1.5"], "lam must lie in [0, 1], got 1.5"),
    ("rerank", ["--Q", "0"], "P, L and Q must be >= 1, got P=20 L=10 Q=0"),
    ("sweep-l", ["--k2", "0"], "k1 and k2 must be >= 1, got k1=20 k2=0"),
    ("sweep-l", ["--L-values", "5,0"], "P, L and Q must be >= 1, got P=20 L=0 Q=20"),
])
def test_a_bad_ranking_config_fails_before_any_input_is_read(tmp_path, capsys, command,
                                                             flags, message):
    # Every input is missing: reading any of them would report that instead.
    out = tmp_path / "out.csv"
    argv = [command, "--meta", str(tmp_path / "none.csv"), "--features",
            str(tmp_path / "none.bin"), "--model", str(tmp_path / "none.bin"),
            "--out", str(out)]
    if command == "sweep-l":
        argv += ["--L-values", "1,5"]
    assert main(argv + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def train_argv(workspace, out, *flags):
    data, pairs = workspace / "data", workspace / "pairs"
    return ["train", "--meta", str(data / "meta.csv"), "--features", str(data / "features.bin"),
            "--parts", str(data / "parts.bin"), "--train-pairs", str(pairs / "train_pairs.csv"),
            "--valid-pairs", str(pairs / "valid_pairs.csv"), "--out", str(out),
            "--epochs", "2", "--hidden-global", "4", "--hidden-part", "4", *flags]


@pytest.mark.filterwarnings("default::UserWarning")
def test_train_clamps_a_window_wider_than_its_depth(workspace, tmp_path, capsys):
    clamped, plain = tmp_path / "clamped", tmp_path / "plain"
    assert main(train_argv(workspace, clamped, "--L", "25", "--Q", "20")) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning")]
    assert warnings == ["warning: L=25 exceeds Q=20; clamping L to 20"]
    assert main(train_argv(workspace, plain, "--L", "20", "--Q", "20")) == 0
    assert (clamped / "model.bin").read_bytes() == (plain / "model.bin").read_bytes()
    # Only the recorded --L of the config comment differs.
    assert (clamped / "history.csv").read_text().splitlines()[1:] == \
           (plain / "history.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize("L, Q", [("0", "20"), ("5", "0"), ("-1", "-1")])
def test_train_rejects_a_window_or_depth_below_one(workspace, tmp_path, capsys, L, Q):
    out = tmp_path / "model"
    assert main(train_argv(workspace, out, "--L", L, "--Q", Q)) == 1
    assert capsys.readouterr().err == f"error: --L and --Q must be >= 1, got L={L} Q={Q}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("retrieve", ["--out", "out.csv", "--P", "0"], "--P must be >= 1, got 0"),
    ("explain", ["--model", "none.bin", "--query-index", "0", "--limit", "0"],
     "--limit must be >= 1, got 0"),
    ("eval", ["--ranked", "none.csv", "--out", "out.json", "--k-max", "0"],
     "--k-max must be >= 1, got 0"),
])
def test_a_count_below_one_fails_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                          command, flags, message):
    # Every input is missing: reading any of them would report that instead.
    monkeypatch.chdir(tmp_path)
    argv = [command, "--meta", "none.csv", "--features", "none.bin", "--parts", "none.bin"]
    assert main(argv + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == []


def test_pairs_without_a_validation_gallery_writes_nothing(tmp_path, capsys):
    # The train pairs build; the fault is found after them.
    rows = [(0, "T", 0, 0, 0), (1, "T", 0, 1, 1), (2, "T", 1, 0, 0), (3, "T", 1, 1, 1),
            (0, "VQ", 0, 0, 0), (0, "Q", 1, 0, 0), (0, "G", 1, 1, 1)]
    meta, feat, out = tmp_path / "meta.csv", tmp_path / "features.bin", tmp_path / "pairs"
    write_bundle(build_bundle(rows, np.arange(28.0).reshape(7, 4)), meta, feat)
    assert main(["pairs", "--meta", str(meta), "--features", str(feat), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: empty gallery: role VG holds no images to rank "
                                       "the VQ queries against\n")
    assert not out.exists()


@pytest.mark.parametrize("P", ["0", "-3"])
def test_pairs_rejects_a_depth_below_one_and_writes_nothing(workspace, tmp_path, capsys, P):
    data, out = workspace / "data", tmp_path / "pairs"
    assert main(["pairs", "--meta", str(data / "meta.csv"),
                 "--features", str(data / "features.bin"),
                 "--parts", str(data / "parts.bin"), "--out", str(out), "--P", P]) == 1
    assert capsys.readouterr().err == f"error: --P must be >= 1, got {P}\n"
    assert not out.exists()


def test_candidates_for_queries_the_bundle_lacks_fail_the_rerank(workspace, tmp_path, capsys):
    data = workspace / "data"
    extra = tmp_path / "test_pairs.csv"
    lines = (workspace / "pairs" / "test_pairs.csv").read_text().splitlines(keepends=True)
    n_queries = len(load_bundle(data / "meta.csv", data / "features.bin").splits["Q"])
    extra.write_text("".join(lines) + "".join(
        f"Q,{qi},{rank},G,{rank},0\n" for qi in (n_queries + 90, n_queries + 7)
        for rank in (1, 2)))
    out = tmp_path / "ranked.csv"
    rc = main(["rerank", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"), "--parts", str(data / "parts.bin"),
               "--candidates", str(extra), "--stages", "none", "--out", str(out),
               "--P", "10", "--L", "5", "--Q", "10"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: candidate list for query {n_queries + 7}, but the bundle has "
        f"{n_queries} Q queries\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "rerank"])
def test_a_repeated_pair_row_fails_the_read_naming_both_lines(workspace, tmp_path, capsys,
                                                              command):
    data, name = workspace / "data", f"{'train' if command == 'train' else 'test'}_pairs.csv"
    lines = (workspace / "pairs" / name).read_text().splitlines(keepends=True)
    assert lines[0].startswith("# config:") and lines[1].startswith("query_role")
    bad = tmp_path / name
    bad.write_text("".join(lines[:3] + lines[2:]))  # line 4 repeats line 3
    qr, qi, _, cr, ci, *_ = lines[2].split(",")
    out = tmp_path / "out"
    if command == "train":
        argv = train_argv(workspace, out)
        argv[argv.index("--train-pairs") + 1] = str(bad)
    else:
        argv = ["rerank", "--meta", str(data / "meta.csv"),
                "--features", str(data / "features.bin"), "--parts", str(data / "parts.bin"),
                "--candidates", str(bad), "--stages", "none", "--out", str(out),
                "--P", "10", "--L", "5", "--Q", "10"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 4: repeats the pair of line 3 ({qr} {qi} -> {cr} {ci})\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "rerank"])
def test_a_pair_file_with_a_score_column_fails_the_read(workspace, tmp_path, capsys, command):
    # Pair files once carried a score (-distance) before the label; they
    # must be regenerated, not read.
    data, name = workspace / "data", f"{'train' if command == 'train' else 'test'}_pairs.csv"
    comment, header, *rows = (workspace / "pairs" / name).read_text().splitlines()
    old = tmp_path / name
    old.write_text("".join(f"{line}\n" for line in [
        comment, header.replace(",label", ",score,label"),
        *(",-1.25,".join(row.rsplit(",", 1)) for row in rows)]))
    out = tmp_path / "out"
    if command == "train":
        argv = train_argv(workspace, out)
        argv[argv.index("--train-pairs") + 1] = str(old)
    else:
        argv = ["rerank", "--meta", str(data / "meta.csv"),
                "--features", str(data / "features.bin"), "--parts", str(data / "parts.bin"),
                "--candidates", str(old), "--stages", "none", "--out", str(out),
                "--P", "10", "--L", "5", "--Q", "10"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {old}: line 2: expected header "
        "'query_role,query_index,rank,cand_role,cand_index,label', got "
        "'query_role,query_index,rank,cand_role,cand_index,score,l'...\n")
    assert sorted(tmp_path.iterdir()) == [old]


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "inf", "learning_rate must be finite, got inf"),
    ("--margin", "nan", "margin must be finite, got nan"),
    ("--batch-size", "0", "batch_size must be at least 1, got 0"),
    ("--seed", "-1", "seed must be in 0..9223372036854775807 (i64), got -1"),
    ("--hidden-part", "-1", "bad hidden sizes hidden_global=32 hidden_part=-1: need >= 0"),
    ("--hidden-global", "-2", "bad hidden sizes hidden_global=-2 hidden_part=32: need >= 0"),
])
def test_untrainable_hyperparameters_fail_before_any_input_is_read(tmp_path, capsys,
                                                                  monkeypatch, flag, value,
                                                                  message):
    # Every input is missing: reading any of them would report that instead.
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--meta", "none.csv", "--features", "none.bin", "--train-pairs",
            "none.csv", "--valid-pairs", "none.csv", "--out", "model", flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, sizes", [(["--hidden-part", "-1"], "4 hidden_part=-1"),
                                          (["--hidden-global", "-2"], "-2 hidden_part=4")])
def test_a_negative_hidden_size_is_named(workspace, tmp_path, capsys, flags, sizes):
    out = tmp_path / "model"
    assert main(train_argv(workspace, out, *flags)) == 1
    assert capsys.readouterr().err == (
        f"error: bad hidden sizes hidden_global={sizes}: need >= 0\n")
    assert not out.exists()


def test_an_old_ranked_csv_fails_the_eval(workspace, tmp_path, capsys):
    # Rankings were once written as query_index,rank,gallery_index rows;
    # such a file must be regenerated with rerank, not read.
    data = workspace / "data"
    old, report = tmp_path / "ranked.csv", tmp_path / "report.json"
    old.write_text('# config: {"gallery_role":"G","query_role":"Q"}\n'
                   "query_index,rank,gallery_index\n0,1,5\n")
    rc = main(["eval", "--meta", str(data / "meta.csv"),
               "--features", str(data / "features.bin"), "--parts", str(data / "parts.bin"),
               "--ranked", str(old), "--out", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {old}: bad magic at offset 0: expected b'RVK1', got b'# co'\n")
    assert sorted(tmp_path.iterdir()) == [old]


@pytest.mark.parametrize("command, flags, message", [
    ("rerank", ["--stages", "window", "--out", "out.csv"],
     "--model is required when the window stage runs"),
    ("eval", ["--ranked", "ranked.csv", "--out", "out.json"],
     "ranked.csv: ranked with --query-role VQ --gallery-role VG, "
     "but eval got --query-role Q --gallery-role G"),
])
def test_flag_errors_come_before_the_bundle_is_read(tmp_path, capsys, monkeypatch, command,
                                                    flags, message):
    # The bundle is missing: reading it would report that instead.
    monkeypatch.chdir(tmp_path)
    ranked = tmp_path / "ranked.csv"
    write_ranked_csv(ranked, [], "VQ", "VG")
    assert main([command, "--meta", "none.csv", "--features", "none.bin", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [ranked]


@pytest.fixture
def one_query_without_eligible_images(tmp_path):
    """Query 0 shares identity and cloth with every gallery image, so it has
    no eligible image; query 1 has three, all positives."""
    rows = [(0, "Q", 1, 0, 0), (1, "Q", 1, 1, 1)] + [(i, "G", 1, 0, 2) for i in range(3)]
    feats = np.random.default_rng(5).normal(size=(len(rows), 4))
    data = tmp_path / "data"
    data.mkdir()
    write_bundle(build_bundle(rows, feats), data / "meta.csv", data / "features.bin")
    return ["--meta", str(data / "meta.csv"), "--features", str(data / "features.bin")]


def test_a_query_without_eligible_images_is_excluded_by_eval(
        one_query_without_eligible_images, tmp_path, capsys):
    flags = one_query_without_eligible_images
    ranked, report = tmp_path / "ranked.csv", tmp_path / "report.json"
    assert main(["rerank", *flags, "--stages", "none", "--out", str(ranked)]) == 0
    assert [len(rl.order) for rl in read_ranked_csv(ranked)] == [0, 3]
    assert main(["eval", *flags, "--ranked", str(ranked), "--out", str(report)]) == 0
    got = json.loads(report.read_text())
    assert (got["excluded_queries"], got["num_evaluated"], got["cmc"][0]) == ([0], 1, 1.0)
    # An empty ranking for a query that has eligible images still fails.
    write_ranked_csv(ranked, [RankedList(np.empty(0, dtype=np.int64))] * 2)
    capsys.readouterr()
    assert main(["eval", *flags, "--ranked", str(ranked), "--out", str(report)]) == 1
    assert capsys.readouterr().err == (
        "error: ranking for query 1 is not a permutation of its 3 eligible gallery images\n")


PAIR_KINDS = (str, int, int, str, int, int)

#: Every CSV the workspace chain writes: its header and column kinds.
WRITTEN_CSVS = {
    "data/meta.csv": (METADATA_HEADER, _METADATA_KINDS),
    "candidates.csv": (PAIR_HEADER, PAIR_KINDS),
    "pairs/train_pairs.csv": (PAIR_HEADER, PAIR_KINDS),
    "pairs/valid_pairs.csv": (PAIR_HEADER, PAIR_KINDS),
    "pairs/test_pairs.csv": (PAIR_HEADER, PAIR_KINDS),
    "model/history.csv": (HISTORY_HEADER, (int, float, float, float, float)),
    "sweep.csv": (SWEEP_HEADER, (int, float, float)),
    "per_query.csv": (PER_QUERY_HEADER, (int, str, str)),
}


def test_every_written_csv_reads_back(workspace, one_query_without_eligible_images, tmp_path):
    # An excluded query's rank and AP are empty fields of per_query.csv.
    flags = one_query_without_eligible_images
    ranked, excluded = tmp_path / "ranked.csv", tmp_path / "per_query.csv"
    assert main(["rerank", *flags, "--stages", "none", "--out", str(ranked)]) == 0
    assert main(["eval", *flags, "--ranked", str(ranked), "--out", str(tmp_path / "report.json"),
                 "--per-query", str(excluded)]) == 0
    files = {workspace / name: form for name, form in WRITTEN_CSVS.items()}
    files[excluded] = WRITTEN_CSVS["per_query.csv"]
    for path, (header, kinds) in files.items():
        text = path.read_text()
        _, *rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert rows, path
        columns, lines = read_csv(path, header, kinds)
        head = text.count("\n") - len(rows)
        assert lines == range(head + 1, head + 1 + len(rows)), path
        for column, kind, written in zip(columns, kinds, zip(*(row.split(",") for row in rows)),
                                         strict=True):
            assert column.tolist() == [kind(value) for value in written], path
    (_, rank, precision), _ = read_csv(excluded, PER_QUERY_HEADER, (int, str, str))
    assert (rank.tolist(), precision.tolist()) == (["", "1"], ["", "1.0"])


def test_the_cli_imports_no_csv_module():
    # read_csv is the one CSV reader; csv.reader coming back would pull these in.
    code = "import sys, rvrank.cli; print(sorted({'csv', '_csv'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(rvrank.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command", [["retrieve", "--P", "10"],
                                     ["rerank", "--stages", "kreciprocal", "--k1", "5"]],
                         ids=["retrieve", "rerank-kreciprocal"])
def test_a_command_imports_no_numpy_ma(workspace, tmp_path, command):
    # The first np.unique call of a process imports numpy.ma: 9-13 ms and
    # about 1 MB of each command that made one.
    data = workspace / "data"
    argv = [*command, "--meta", str(data / "meta.csv"), "--features", str(data / "features.bin"),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from rvrank.cli import main; "
            f"print(main({argv!r}), 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(rvrank.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_a_query_without_eligible_images_needs_no_candidate_list(
        one_query_without_eligible_images, tmp_path, capsys):
    flags = one_query_without_eligible_images
    candidates, ranked = tmp_path / "candidates.csv", tmp_path / "ranked.csv"
    assert main(["retrieve", *flags, "--out", str(candidates)]) == 0
    assert main(["rerank", *flags, "--stages", "none", "--candidates", str(candidates),
                 "--out", str(ranked)]) == 0
    assert main(["rerank", *flags, "--stages", "none", "--out", str(tmp_path / "plain.csv")]) == 0
    assert ranked.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    # A query that has eligible images still needs its list.
    lines = candidates.read_text().splitlines(keepends=True)
    candidates.write_text("".join(lines[:2]))
    capsys.readouterr()
    assert main(["rerank", *flags, "--stages", "none", "--candidates", str(candidates),
                 "--out", str(ranked)]) == 1
    assert capsys.readouterr().err == "error: no candidate list for query 1\n"


def test_faults_are_plain_value_errors():
    """No module defines an exception type of its own or raises KeyError:
    every input fault is a ValueError naming where it is."""
    modules = [rvrank] + [importlib.import_module(f"rvrank.{info.name}")
                          for info in pkgutil.iter_modules(rvrank.__path__)]
    for module in modules:
        assert not [name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__], module.__name__
        raised = {ast.unparse(node.exc).split("(")[0]
                  for node in ast.walk(ast.parse(inspect.getsource(module)))
                  if isinstance(node, ast.Raise) and node.exc is not None}
        assert "KeyError" not in raised, module.__name__


def test_a_negative_label_fails_every_command_at_load(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    lines = (data / "meta.csv").read_text().splitlines(keepends=True)
    index, role, _, cloth, camera = lines[4].split(",")
    lines[4] = ",".join([index, role, "-1", cloth, camera])
    (data / "meta.csv").write_text("".join(lines))
    flags = ["--meta", str(data / "meta.csv"), "--features", str(data / "features.bin"),
             "--parts", str(data / "parts.bin")]
    for argv in (["validate", *flags],
                 ["pairs", *flags, "--out", str(tmp_path / "pairs")],
                 ["rerank", *flags, "--stages", "kreciprocal", "--out", str(tmp_path / "r.csv")],
                 ["eval", *flags, "--ranked", str(workspace / "ranked.csv"),
                  "--out", str(tmp_path / "report.json")]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr() == ("", f"error: {data / 'meta.csv'}: line 5: "
                                           "identity -1 is negative\n"), argv[0]
    assert sorted(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("flag, message", [
    ("--identity-shift=nan", "identity_shift must be finite, got nan"),
    ("--cloth-shift=inf", "cloth_shift must be finite, got inf"),
    ("--general-noise=nan", "general_noise must be finite, got nan"),
    ("--detail-noise=-inf", "detail_noise must be finite, got -inf"),
    ("--images-per-cloth=1",
     "images_per_cloth must be >= 2 so every query has gallery images, got 1"),
    ("--seed=-1", "seed must be >= 0, got -1"),
    # Finite in float64, but beyond float32: the bundle would hold inf.
    ("--cloth-shift=1e308", "features: non-finite value in feature row 0 (metadata T:0)"),
])
def test_synth_writes_no_bundle_that_would_not_load(tmp_path, capsys, flag, message):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--n-identities", "5", flag]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("gallery_role", ["G", "VG"])
def test_retrieve_names_an_empty_gallery_role(tmp_path, capsys, gallery_role):
    rows = [(0, "T", 0, 0, 0), (0, "Q", 1, 0, 0), (1, "Q", 2, 0, 1)]
    meta, feat = tmp_path / "meta.csv", tmp_path / "features.bin"
    write_bundle(build_bundle(rows, np.zeros((3, 4))), meta, feat)
    assert main(["retrieve", "--meta", str(meta), "--features", str(feat),
                 "--gallery-role", gallery_role, "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err == (f"error: empty gallery: role {gallery_role} holds no "
                                       "images to rank the Q queries against\n")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command", [
    ["explain", "--query-index", "0"],
    ["rerank", "--stages", "kreciprocal"],
    ["rerank", "--stages", "both"],
    ["rerank", "--stages", "kreciprocal", "--candidates", "{candidates}"],
    ["sweep-l", "--with-kreciprocal", "--L-values", "1,3"],
])
def test_an_empty_gallery_role_is_named_before_any_selection(workspace, tmp_path, capsys,
                                                             command):
    # The workspace bundle with its VG role emptied: every other role, the
    # dims and so the model still fit.
    data, out = workspace / "data", tmp_path / "out"
    bundle = load_bundle(data / "meta.csv", data / "features.bin", data / "parts.bin")
    bundle.splits["VG"] = bundle.splits["VG"][0:0]
    flags = ["--meta", str(tmp_path / "meta.csv"), "--features", str(tmp_path / "f.bin"),
             "--parts", str(tmp_path / "p.bin"), "--gallery-role", "VG"]
    write_bundle(bundle, *flags[1:6:2])
    if command[0] != "rerank" or "both" in command:
        flags += ["--model", str(workspace / "model" / "model.bin")]
    if command[0] != "explain":
        flags += ["--out", str(out)]
    # A header-only candidate file: no query has a list.
    (tmp_path / "c.csv").write_text(",".join(PAIR_HEADER) + "\n")
    argv = [arg.format(candidates=tmp_path / "c.csv") for arg in command] + flags
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: empty gallery: role VG holds no images to "
                                       "rank the Q queries against\n")
    assert not out.exists()
