"""Command line interface.

Every subcommand reads and writes files only; there is no state between
invocations, so runs compose into pipelines (synth -> retrieve -> pairs ->
train -> rerank -> eval).  Each artifact records the configuration that
produced it: CSVs carry a leading ``# config: {...}`` comment, JSON files a
``"config"`` key, and binary files a ``<name>.config.json`` sidecar.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .datastore import ROLES, load_bundle, write_bundle, write_json
from .evaluation import evaluate, write_sweep_csv
from .retrieval import (METRICS, build_eval_pairs, build_train_pairs,
                        candidates_from_pairs, read_pairs_csv, require_gallery,
                        sorted_unique, top_candidates, write_pairs_csv)
from .reranker import (RankingConfig, read_ranked_csv, rerank_pipeline, sweep_L,
                       write_ranked_csv)
from .synthgen import SynthConfig, generate
from .verifier import (TrainConfig, VerifierModel, batch_scores, check_sizes, fuse,
                       load_model, part_contributions, save_model, train,
                       write_history_csv)

STAGE_CHOICES = {
    "none": (),
    "kreciprocal": ("kreciprocal",),
    "window": ("window",),
    "both": ("kreciprocal", "window"),
}


def _config_dict(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["command"] = args.func.__name__.removeprefix("cmd_")
    return cfg


def _config_comment(args: argparse.Namespace) -> str:
    return "config: " + json.dumps(_config_dict(args), sort_keys=True,
                                   separators=(",", ":"))


def _write_sidecar(path: Path, args: argparse.Namespace) -> None:
    write_json(str(path) + ".config.json", {"config": _config_dict(args)})


def _load_bundle_args(args: argparse.Namespace):
    return load_bundle(args.meta, args.features, getattr(args, "parts", None))


def _load_model_args(args: argparse.Namespace, bundle) -> VerifierModel:
    """Load ``--model``, which must have been trained on ``bundle``'s dims."""
    model = load_model(args.model)
    if model.dims != bundle.dims:
        raise ValueError(f"{args.model}: model has (D, Dp, K) = {model.dims}, but the "
                         f"bundle holds {bundle.dims}")
    return model


def _at_least_one(flag: str, value: int) -> None:
    """Fail unless the count given as ``flag`` is at least 1."""
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _check_pair_roles(flag: str, path: str, pairs: np.ndarray,
                      roles: tuple[str, str]) -> None:
    """Fail unless every row of the pair file ``path``, given as ``flag``,
    pairs a ``roles[0]`` query with a ``roles[1]`` candidate."""
    query, cand = pairs["query_role"], pairs["cand_role"]
    if ((query != roles[0]) | (cand != roles[1])).any():
        found = sorted(set(zip(query.tolist(), cand.tolist())))
        raise ValueError(f"{flag} {path}: holds pairs of roles "
                         f"{', '.join(f'{q}/{g}' for q, g in found)}, but {flag} takes "
                         f"{roles[0]}/{roles[1]} pairs")


def _add_bundle_flags(sub: argparse.ArgumentParser, parts_required: bool = False) -> None:
    sub.add_argument("--meta", required=True, help="metadata CSV")
    sub.add_argument("--features", required=True, help="global feature file")
    sub.add_argument("--parts", required=parts_required, default=None,
                     help="part feature file")


def _add_role_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--query-role", default="Q", choices=ROLES)
    sub.add_argument("--gallery-role", default="G", choices=ROLES)


def _add_config_flags(sub: argparse.ArgumentParser, config: type, *names: str) -> None:
    """Add a flag per field of the dataclass ``config`` (only ``names`` if
    given), in field order, typed and defaulted as the field; ``lam`` is ``--lambda``."""
    for f in dataclasses.fields(config):
        if not names or f.name in names:
            flag = "lambda" if f.name == "lam" else f.name.replace("_", "-")
            sub.add_argument("--" + flag, dest=f.name, type=type(f.default), default=f.default)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(SynthConfig)})
    bundle, _ = generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_bundle(bundle, out / "meta.csv", out / "features.bin", out / "parts.bin",
                 config_comment=_config_comment(args))
    _write_sidecar(out / "features.bin", args)
    _write_sidecar(out / "parts.bin", args)
    counts = {role: len(bundle.splits[role]) for role in bundle.splits}
    print(f"wrote {out}: dims={bundle.dims} " +
          " ".join(f"{r}={c}" for r, c in counts.items()))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = _load_bundle_args(args)
    total = sum(len(s) for s in bundle.splits.values())
    print(f"ok: {total} images, dims={bundle.dims}")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    _at_least_one("--P", args.P)
    bundle = _load_bundle_args(args)
    pairs = build_eval_pairs(bundle, args.query_role, args.gallery_role,
                             num_candidates=args.P, metric=args.metric)
    write_pairs_csv(args.out, pairs, config_comment=_config_comment(args))
    n_queries = len(sorted_unique(pairs.pairs["query_index"]))
    print(f"wrote {args.out}: {len(pairs.pairs)} pairs for {n_queries} queries")
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    _at_least_one("--P", args.P)
    bundle = _load_bundle_args(args)
    comment = _config_comment(args)
    train_pairs, dropped = build_train_pairs(bundle, num_candidates=args.P,
                                             metric=args.metric)
    valid_pairs = build_eval_pairs(bundle, "VQ", "VG", args.P, args.metric)
    test_pairs = build_eval_pairs(bundle, "Q", "G", args.P, args.metric)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pairs_csv(out / "train_pairs.csv", train_pairs, comment)
    write_pairs_csv(out / "valid_pairs.csv", valid_pairs, comment)
    write_pairs_csv(out / "test_pairs.csv", test_pairs, comment)
    if dropped:
        print(f"dropped {len(dropped)} train anchor(s) without cross-cloth "
              f"positives or negatives: {dropped}")
    print(f"wrote {out}: train={len(train_pairs.pairs)} "
          f"valid={len(valid_pairs.pairs)} test={len(test_pairs.pairs)} pairs")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.L < 1 or args.Q < 1:
        raise ValueError(f"--L and --Q must be >= 1, got L={args.L} Q={args.Q}")
    # Validation re-ranks as rerank does, L clamped to Q (P plays no part).
    window = RankingConfig(P=args.Q, L=args.L, Q=args.Q).clamped()
    hyper = TrainConfig(margin=args.margin, learning_rate=args.lr,
                        epochs=args.epochs, batch_size=args.batch_size)
    check_sizes(args.hidden_global, args.hidden_part, args.seed)
    bundle = _load_bundle_args(args)
    train_pairs = read_pairs_csv(args.train_pairs)
    _check_pair_roles("--train-pairs", args.train_pairs, train_pairs.pairs, ("T", "T"))
    valid_pairs = read_pairs_csv(args.valid_pairs)
    _check_pair_roles("--valid-pairs", args.valid_pairs, valid_pairs.pairs, ("VQ", "VG"))
    model = VerifierModel.initialize(bundle.dims, hidden_global=args.hidden_global,
                                     hidden_part=args.hidden_part, seed=args.seed,
                                     hyper=hyper)

    def progress(stats) -> None:
        print(f"epoch {stats.epoch}: loss={stats.loss:.6f} "
              f"valid_rank1={stats.valid_rank1:.4f}", file=sys.stderr)

    model, history = train(model, bundle, train_pairs, valid_pairs,
                           ranking_L=window.L, ranking_Q=window.Q, progress=progress)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.bin", model)
    _write_sidecar(out / "model.bin", args)
    write_history_csv(out / "history.csv", history, config_comment=_config_comment(args))
    best = max(history, key=lambda s: (s.valid_rank1, -s.epoch))
    print(f"wrote {out}: best epoch {best.epoch} valid_rank1={best.valid_rank1:.4f}")
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    config = RankingConfig(P=args.P, L=args.L, Q=args.Q,
                           k1=args.k1, k2=args.k2, lam=args.lam)
    stages = STAGE_CHOICES[args.stages]
    if "window" in stages and args.model is None:
        raise ValueError("--model is required when the window stage runs")
    bundle = _load_bundle_args(args)
    scorer = _load_model_args(args, bundle) if "window" in stages else None
    candidates = None
    if args.candidates is not None:
        pair_set = read_pairs_csv(args.candidates)
        _check_pair_roles("--candidates", args.candidates, pair_set.pairs,
                          (args.query_role, args.gallery_role))
        candidates = candidates_from_pairs(pair_set)
    ranked = rerank_pipeline(bundle, scorer, config, stages=stages,
                             candidates=candidates, metric=args.metric,
                             query_role=args.query_role,
                             gallery_role=args.gallery_role)
    write_ranked_csv(args.out, ranked, args.query_role, args.gallery_role)
    _write_sidecar(Path(args.out), args)
    print(f"wrote {args.out}: {len(ranked)} queries, "
          f"stages={args.stages}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _at_least_one("--k-max", args.k_max)
    # The roles are checked before the bundle is read.
    ranked = read_ranked_csv(args.ranked, (args.query_role, args.gallery_role))
    bundle = _load_bundle_args(args)
    held = len(bundle.splits[args.query_role])
    if len(ranked) != held:
        raise ValueError(f"{args.ranked}: holds rankings of {len(ranked)} queries, but the "
                         f"bundle holds {held} {args.query_role} queries")
    report = evaluate(bundle, ranked, k_max=args.k_max,
                      query_role=args.query_role, gallery_role=args.gallery_role)
    report.write_json(args.out, config=_config_dict(args))
    if args.per_query is not None:
        report.write_per_query_csv(args.per_query, config_comment=_config_comment(args))
    print(f"wrote {args.out}: rank1={report.cmc[0]:.4f} mAP={report.map_score:.4f} "
          f"AUC={report.auc:.4f} evaluated={report.num_evaluated} "
          f"excluded={len(report.excluded_queries)}")
    return 0


def cmd_sweep_l(args: argparse.Namespace) -> int:
    L_values = []
    for tok in args.L_values.split(","):
        if tok:
            try:
                L_values.append(int(tok))
            except ValueError:
                raise ValueError(f"--L-values: {tok!r} is not an integer") from None
    if not L_values:
        raise ValueError("--L-values is empty")
    # One config per width, so that a bad one fails before any input is read.
    config, *_ = [RankingConfig(P=args.P, L=L, Q=args.Q, k1=args.k1, k2=args.k2,
                                lam=args.lam) for L in L_values]
    bundle = _load_bundle_args(args)
    model = _load_model_args(args, bundle)
    rows = sweep_L(bundle, model, config, L_values,
                   include_kreciprocal=args.with_kreciprocal,
                   metric=args.metric, query_role=args.query_role,
                   gallery_role=args.gallery_role)
    write_sweep_csv(args.out, rows, config_comment=_config_comment(args))
    for L, r1, r10 in rows:
        print(f"L={L}: rank1={r1:.4f} rank10={r10:.4f}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    _at_least_one("--limit", args.limit)
    bundle = _load_bundle_args(args)
    model = _load_model_args(args, bundle)
    queries, gallery = bundle.splits[args.query_role], bundle.splits[args.gallery_role]
    qi = args.query_index
    if not 0 <= qi < len(queries):
        raise ValueError(f"--query-index {qi} out of range for role "
                         f"{args.query_role} (n={len(queries)})")
    require_gallery(gallery, args.query_role, args.gallery_role)
    [indices] = top_candidates(queries[qi:qi + 1], gallery, args.limit, metric=args.metric)
    print(f"query {args.query_role}:{qi} identity={queries.identity[qi]} "
          f"cloth={queries.cloth[qi]}")
    print("rank,gallery_index,label,score,head,best_part")
    gx, px, present = fuse(queries, np.full(len(indices), qi), gallery, indices)
    scores = batch_scores(model, gx, px, present)
    contribs = part_contributions(model, px, present)
    labels = (gallery.identity[indices] == queries.identity[qi]).astype(int)
    rows = zip(indices.tolist(), labels.tolist(), scores, contribs, present.any(axis=1))
    for rank, (gi, label, score, contrib, has_parts) in enumerate(rows, start=1):
        if has_parts:
            best = int(np.nanargmax(contrib))
            print(f"{rank},{gi},{label},{score:.6f},part,{best}")
            cells = ["-" if np.isnan(c) else f"{c:.4f}" for c in contrib]
            print("  parts: " + " ".join(cells))
        else:
            print(f"{rank},{gi},{label},{score:.6f},global,-")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvrank",
        description="Retrieval-verification re-ranking for cloth-changing "
                    "person re-identification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, SynthConfig)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="check a bundle against its invariants")
    _add_bundle_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("retrieve", help="write labelled top-P candidates per query")
    _add_bundle_flags(p)
    _add_role_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--P", type=int, default=20)
    p.add_argument("--metric", choices=METRICS, default="euclidean")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("pairs", help="build train/valid/test pair datasets")
    _add_bundle_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--P", type=int, default=20)
    p.add_argument("--metric", choices=METRICS, default="euclidean")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("train", help="train the pair verifier")
    _add_bundle_flags(p, parts_required=False)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--valid-pairs", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--margin", type=float, default=TrainConfig.margin)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--hidden-global", type=int, default=32)
    p.add_argument("--hidden-part", type=int, default=32)
    _add_config_flags(p, RankingConfig, "L", "Q")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="re-rank gallery images per query")
    _add_bundle_flags(p)
    _add_role_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None, help="verifier checkpoint")
    p.add_argument("--candidates", default=None,
                   help="previously retrieved candidate CSV to cross-check")
    p.add_argument("--stages", choices=sorted(STAGE_CHOICES), default="both")
    _add_config_flags(p, RankingConfig)
    p.add_argument("--metric", choices=METRICS, default="euclidean")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="score ranked lists (CMC, mAP, AUC)")
    _add_bundle_flags(p)
    _add_role_flags(p)
    p.add_argument("--ranked", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--per-query", default=None, help="optional per-query CSV")
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-l", help="rank1/rank10 as a function of window size L")
    _add_bundle_flags(p)
    _add_role_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--L-values", required=True, help="comma-separated L values")
    _add_config_flags(p, RankingConfig, "P", "Q", "k1", "k2", "lam")
    p.add_argument("--with-kreciprocal", action="store_true")
    p.add_argument("--metric", choices=METRICS, default="euclidean")
    p.set_defaults(func=cmd_sweep_l)

    p = sub.add_parser("explain", help="per-part contributions for a query's "
                                       "top candidates")
    _add_bundle_flags(p, parts_required=True)
    _add_role_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--query-index", type=int, required=True)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--metric", choices=METRICS, default="euclidean")
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # One line per warning, without the source location, so stderr
            # does not depend on the checkout.
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory running {args.command!r}"
              + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
