"""End-to-end command line tests over a small generated benchmark."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from rvrank.cli import main
from rvrank.datastore import load_bundle
from rvrank.evaluation import evaluate, read_sweep_csv
from rvrank.reranker import RankingConfig, read_ranked_csv, rerank_pipeline
from rvrank.verifier import VerifierModel, save_model


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
                 "data/groundtruth.json", "data/features.bin.config.json",
                 "candidates.csv", "pairs/train_pairs.csv",
                 "pairs/valid_pairs.csv", "pairs/test_pairs.csv",
                 "model/model.bin", "model/model.bin.config.json",
                 "model/history.csv", "ranked.csv", "report.json",
                 "per_query.csv", "sweep.csv"):
        assert (workspace / name).exists(), name


def test_config_comment_heads_each_csv(workspace):
    for name in ("candidates.csv", "pairs/train_pairs.csv", "ranked.csv",
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
    assert {rl.provenance for rl in ranked} == {"retrieval"}
    want = rerank_pipeline(bundle, None, RankingConfig(P=10, L=5, Q=10),
                           stages=())
    assert [rl.order.tolist() for rl in ranked] == [rl.order.tolist() for rl in want]
    report = json.loads((workspace / "report_none.json").read_text())
    fresh = evaluate(bundle, want, k_max=10)
    assert report["cmc"] == fresh.cmc
    assert report["map"] == fresh.map_score


def test_composed_rerank_labels_its_provenance(workspace):
    ranked = read_ranked_csv(workspace / "ranked.csv")
    assert {rl.provenance for rl in ranked} == {"composed"}


def test_sweep_rows_follow_the_requested_widths(workspace):
    rows = read_sweep_csv(workspace / "sweep.csv")
    assert [r[0] for r in rows] == [1, 3, 5]
    for _, r1, r10 in rows:
        assert 0.0 <= r1 <= r10 <= 1.0


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
    for name in ("meta.csv", "features.bin", "parts.bin", "groundtruth.json"):
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
        f"error: {valid_pairs}: holds pairs of roles VQ/VG, but rerank got "
        "--query-role Q --gallery-role G\n")
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


def test_eval_rejects_partial_or_duplicated_rankings(workspace, tmp_path, capsys):
    data = workspace / "data"
    lines = (workspace / "ranked.csv").read_text().splitlines()
    header_at = next(i for i, ln in enumerate(lines)
                     if ln.startswith("query_index"))
    head, rows = lines[:header_at + 1], lines[header_at + 1:]
    query1 = [ln for ln in rows if ln.split(",")[0] == "1"]
    cases = {
        "partial": (head + [ln for ln in rows if ln.split(",")[0] != "1"],
                    "missing: [1]"),
        "doubled": (lines + query1, "query 1"),
    }
    for name, (text, named) in cases.items():
        ranked = tmp_path / f"{name}.csv"
        ranked.write_text("\n".join(text) + "\n")
        report = tmp_path / f"{name}.json"
        rc = main(["eval", "--meta", str(data / "meta.csv"),
                   "--features", str(data / "features.bin"),
                   "--parts", str(data / "parts.bin"),
                   "--ranked", str(ranked), "--out", str(report)])
        assert rc == 1, name
        assert named in capsys.readouterr().err, name
        assert not report.exists(), name


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


def test_candidates_for_queries_the_bundle_lacks_fail_the_rerank(workspace, tmp_path, capsys):
    data = workspace / "data"
    extra = tmp_path / "test_pairs.csv"
    lines = (workspace / "pairs" / "test_pairs.csv").read_text().splitlines(keepends=True)
    n_queries = len(load_bundle(data / "meta.csv", data / "features.bin").splits["Q"])
    extra.write_text("".join(lines) + "".join(
        f"Q,{qi},{rank},G,{rank},-1.5,0\n" for qi in (n_queries + 90, n_queries + 7)
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
