"""Learned pair verifier: decides whether two images show the same person.

A query/candidate pair is reduced to a symmetric fused representation
(elementwise absolute difference concatenated with elementwise product),
once for the global feature and once per part.  Two small heads score it:

* the global head is a one-hidden-layer network ``2D -> Hg -> 1`` with tanh
  activations producing ``sim_G`` in (-1, 1);
* the part head applies shared weights ``2Dp -> Hp`` (tanh) to every
  jointly-present part, mixes each to a scalar contribution, max-pools the
  contributions, and squashes through a positive-gain affine + tanh to get
  ``sim_S``.  The gain is parameterised as ``exp(log_gain)`` so raising the
  winning part's contribution always raises ``sim_S``.

Pairs where no part is present on both sides have no ``sim_S``; their score
falls back to ``sim_G`` (see :func:`batch_scores`).

Training minimises a dual triplet hinge over anchor/positive/negative
triplets with plain mini-batch SGD, checkpointing the epoch with the best
validation Rank-1 (epoch 0, the untrained model, included).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .datastore import (BinaryHeader, DatasetBundle, ImageRecord, Split, check_rows,
                        write_csv)
from .retrieval import PairSet, query_runs

MODEL_MAGIC = b"RVM1"

#: RVM1 header after the magic: u32 D, Dp, K, Hg, Hp; i64 seed; f64 margin
#: and learning rate; u32 epochs and batch size; f64 decay factor; u32
#: milestone count.  The milestones follow as u32, then the weights.
MODEL_HEADER = "<5Iq2d2IdI"

HISTORY_HEADER = ("epoch", "L", "L_g", "L_p", "valid_rank1")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.  ``batch_size`` must be at least 1, and
    every count an RVM1 checkpoint stores as u32 must fit in one."""

    margin: float = 0.3
    learning_rate: float = 3.5e-4
    epochs: int = 80
    batch_size: int = 16
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (30, 60)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        counts = [("epochs", self.epochs), ("batch_size", self.batch_size),
                  *(("decay_epochs", m) for m in self.decay_epochs)]
        for name, value in counts:
            if not 0 <= value < 2**32:
                raise ValueError(f"{name} must be in 0..{2**32 - 1} (u32), got {value}")


class EpochStats(NamedTuple):
    epoch: int
    loss: float
    loss_global: float
    loss_part: float
    valid_rank1: float


def _stacked(arrays: list[np.ndarray], shape: tuple[int, ...],
             what: str) -> np.ndarray:
    out = np.stack(arrays) if arrays else np.zeros((0, *shape))
    if out.shape[1:] != shape:
        raise ValueError(f"{what} shapes {out.shape[1:]} do not match dims {shape}")
    return out


def pair_arrays(pairs: list[tuple[ImageRecord, ImageRecord]],
                dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric fusion ``[|a-b| ; a*b]`` of many (query, candidate) pairs,
    globally and per part, in float64.

    Returns ``(global_x, part_x, joint_present)`` with shapes (n, 2D),
    (n, K, 2Dp) and (n, K); a part slot is jointly present when both
    records have it, and its fused row is zero otherwise.
    """
    d, dp, k = dims
    queries, cands = [q for q, _ in pairs], [g for _, g in pairs]
    fq = _stacked([r.global_feature for r in queries], (d,), "global feature")
    fg = _stacked([r.global_feature for r in cands], (d,), "global feature")
    vq = _stacked([r.part_vectors for r in queries], (k, dp), "part vector")
    vg = _stacked([r.part_vectors for r in cands], (k, dp), "part vector")
    present = np.logical_and(
        _stacked([r.part_present for r in queries], (k,), "part presence"),
        _stacked([r.part_present for r in cands], (k,), "part presence"))
    fq, fg = fq.astype(np.float64), fg.astype(np.float64)
    vq, vg = vq.astype(np.float64), vg.astype(np.float64)
    gx = np.concatenate([np.abs(fq - fg), fq * fg], axis=1)
    px = np.concatenate([np.abs(vq - vg), vq * vg], axis=2)
    px[~present] = 0.0
    return gx, px, present


def _weight_layout(dims: tuple[int, int, int], hidden_global: int,
                   hidden_part: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, init fan-in) of every weight tensor, in the order the
    tensors lie in :attr:`VerifierModel.params`."""
    d, dp, k = dims
    if d < 1 or dp < 0 or k < 1:
        raise ValueError(f"bad dims {dims}: need D >= 1, Dp >= 0, K >= 1")
    hg, hp = hidden_global, hidden_part
    return [
        ("global_hidden_w", (hg, 2 * d), 2 * d),
        ("global_hidden_b", (hg,), 2 * d),
        ("global_out_w", (hg,), hg),
        ("global_out_b", (), hg),
        ("part_hidden_w", (hp, 2 * dp), 2 * dp),
        ("part_hidden_b", (hp,), 2 * dp),
        ("part_mix_w", (k, hp), hp),
        ("part_mix_b", (k,), hp),
        ("out_log_gain", (), 1),
        ("out_bias", (), 1),
    ]


@dataclass(frozen=True, eq=False)
class VerifierModel:
    """Weights and shape/seed bookkeeping for the two scoring heads.

    ``params`` holds every weight as one float64 vector, the tensors back
    to back in :func:`_weight_layout` order; checkpoints store it as
    float32 (see :func:`save_model`).  Each tensor name, such as
    ``model.global_hidden_w``, reads a writable view into ``params``.  The
    model is frozen, so a tensor name cannot be rebound to another array.
    """

    dims: tuple[int, int, int]
    hidden_global: int
    hidden_part: int
    seed: int
    params: np.ndarray
    hyper: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        layout = _weight_layout(self.dims, self.hidden_global, self.hidden_part)
        size = sum(math.prod(shape) for _, shape, _ in layout)
        if self.params.dtype != np.float64 or self.params.shape != (size,):
            raise ValueError(f"params must be {size} float64 values, got "
                             f"{self.params.dtype} of shape {self.params.shape}")
        # The frozen dataclass's __setattr__ refuses every name, so the
        # tensor views go into the instance dict directly.
        self.__dict__["_layout"] = layout
        self.__dict__.update(self.views(self.params))

    @classmethod
    def initialize(cls, dims: tuple[int, int, int], hidden_global: int = 32,
                   hidden_part: int = 32, seed: int = 0,
                   hyper: TrainConfig | None = None) -> "VerifierModel":
        """Seeded uniform init: each tensor ~ U[-1/sqrt(fan_in), +1/sqrt(fan_in)].

        Tensors are drawn in layout order from one generator, so a
        (dims, seed) pair fully determines the weights.  The output affine
        scalars use fan-in 1.  The seed must fit the checkpoint's i64.
        """
        if not 0 <= seed < 2**63:
            raise ValueError(f"seed must be in 0..{2**63 - 1} (i64), got {seed}")
        rng = np.random.default_rng(seed)
        params = np.concatenate([
            rng.uniform(-1.0 / np.sqrt(max(1, fan_in)), 1.0 / np.sqrt(max(1, fan_in)),
                        size=math.prod(shape))
            for _, shape, fan_in in _weight_layout(dims, hidden_global, hidden_part)])
        return cls(dims=tuple(dims), hidden_global=hidden_global,
                   hidden_part=hidden_part, seed=seed, params=params,
                   hyper=hyper or TrainConfig())

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Tensor name -> view into ``vec``, a vector laid out like ``params``."""
        ends = np.cumsum([math.prod(shape) for _, shape, _ in self._layout])
        return {name: chunk.reshape(shape) for (name, shape, _), chunk
                in zip(self._layout, np.split(vec, ends[:-1]))}

    def nonfinite_tensor(self, vec: np.ndarray) -> str | None:
        """Name of the first tensor, in layout order, with a non-finite value
        in ``vec`` (laid out like ``params``); None if every value is finite."""
        return next((name for name, view in self.views(vec).items()
                     if not np.isfinite(view).all()), None)

    def copy(self) -> "VerifierModel":
        return replace(self, params=self.params.copy())


# ---------------------------------------------------------------------------
# forward / backward


def _forward_global(model: VerifierModel, gx: np.ndarray):
    z1 = gx @ model.global_hidden_w.T + model.global_hidden_b
    h = np.tanh(z1)
    z2 = h @ model.global_out_w + model.global_out_b
    s = np.tanh(z2)
    return s, (gx, h, s)


def _backward_global(model: VerifierModel, cache, ds: np.ndarray, grads: dict) -> None:
    gx, h, s = cache
    dz2 = ds * (1.0 - s * s)
    grads["global_out_b"] += dz2.sum()
    grads["global_out_w"] += h.T @ dz2
    dh = dz2[:, None] * model.global_out_w[None, :]
    dz1 = dh * (1.0 - h * h)
    grads["global_hidden_b"] += dz1.sum(axis=0)
    grads["global_hidden_w"] += dz1.T @ gx


def _forward_parts(model: VerifierModel, px: np.ndarray, present: np.ndarray):
    """Part-head forward for (n, K, 2Dp) inputs.

    Returns ``(s, contrib, valid, cache)``: ``s`` is NaN where ``valid`` is
    False (no jointly present part); ``contrib`` holds raw per-part
    contributions with NaN at absent slots.
    """
    zp = px @ model.part_hidden_w.T + model.part_hidden_b
    u = np.tanh(zp)
    c = (u * model.part_mix_w[None, :, :]).sum(axis=2) + model.part_mix_b[None, :]
    valid = present.any(axis=1)
    masked = np.where(present, c, -np.inf)
    pooled = np.full(c.shape[0], np.nan)
    kstar = np.zeros(c.shape[0], dtype=np.intp)
    if valid.any():
        pooled[valid] = masked[valid].max(axis=1)
        kstar[valid] = masked[valid].argmax(axis=1)
    gain = np.exp(model.out_log_gain)
    s = np.tanh(gain * pooled + model.out_bias)
    contrib = np.where(present, c, np.nan)
    return s, contrib, valid, (px, u, pooled, kstar, s, gain, valid)


def _backward_parts(model: VerifierModel, cache, ds: np.ndarray, grads: dict) -> None:
    """Backward for the part head; ``ds`` must be zero at invalid rows."""
    px, u, pooled, kstar, s, gain, valid = cache
    ds = np.where(valid, ds, 0.0)
    rows = np.flatnonzero(ds != 0.0)
    if rows.size == 0:
        return
    dzs = ds[rows] * (1.0 - s[rows] * s[rows])
    grads["out_bias"] += dzs.sum()
    grads["out_log_gain"] += (dzs * pooled[rows]).sum() * gain
    dpooled = dzs * gain
    ks = kstar[rows]
    np.add.at(grads["part_mix_b"], ks, dpooled)
    u_star = u[rows, ks]
    np.add.at(grads["part_mix_w"], ks, dpooled[:, None] * u_star)
    du = dpooled[:, None] * model.part_mix_w[ks]
    dzp = du * (1.0 - u_star * u_star)
    grads["part_hidden_b"] += dzp.sum(axis=0)
    grads["part_hidden_w"] += dzp.T @ px[rows, ks]


# ---------------------------------------------------------------------------
# scoring


def batch_scores(model: VerifierModel, gx: np.ndarray, px: np.ndarray,
                 present: np.ndarray) -> np.ndarray:
    """Verification score per fused pair (see :func:`pair_arrays`):
    ``sim_S``, or ``sim_G`` for a pair with no jointly present part."""
    sg, _ = _forward_global(model, gx)
    sp, _, valid, _ = _forward_parts(model, px, present)
    return np.where(valid, sp, sg)


def part_contributions(model: VerifierModel, px: np.ndarray,
                       present: np.ndarray) -> np.ndarray:
    """Per-part contributions (n, K) that the part head of
    :func:`batch_scores` max-pools; NaN where a part is not jointly present."""
    return _forward_parts(model, px, present)[1]


#: Pairs fused and scored together by :func:`prefix_scores`, which bounds
#: the fused arrays' memory whatever the number of queries.
SCORE_CHUNK = 256


def prefix_scores(scorer: VerifierModel | Callable[[ImageRecord, ImageRecord], float],
                  dims: tuple[int, int, int], queries: Split, gallery: Split,
                  orders: list[np.ndarray], depth: int) -> list[np.ndarray]:
    """Score each query against the first ``depth`` gallery indices of its
    order: ``orders[i]`` ranks ``gallery`` for ``queries[i]``, and the result
    holds one float array per query, aligned with ``orders[i][:depth]``.

    A :class:`VerifierModel` fuses and scores the pairs of all queries in
    chunks of ``SCORE_CHUNK``; any other ``(query, candidate) -> float``
    callable is called once per pair.  A failure raises RuntimeError naming
    the query whose pairs were being scored.
    """
    prefixes = [order[:depth] for order in orders]
    if not isinstance(scorer, VerifierModel):
        out = []
        for query, prefix in zip(queries, prefixes):
            try:
                out.append(np.array([float(scorer(query, gallery[gi]))
                                     for gi in prefix.tolist()]))
            except Exception as exc:
                raise RuntimeError(
                    f"window stage failed for query {query.index}: {exc}") from exc
        return out
    pairs = [(queries[qi], gallery[gi]) for qi, prefix in enumerate(prefixes)
             for gi in prefix.tolist()]
    flat = np.empty(len(pairs))
    for start in range(0, len(pairs), SCORE_CHUNK):
        chunk = pairs[start:start + SCORE_CHUNK]
        try:
            flat[start:start + len(chunk)] = batch_scores(scorer, *pair_arrays(chunk, dims))
        except Exception as exc:
            raise RuntimeError(f"window stage failed for query "
                               f"{chunk[0][0].index}: {exc}") from exc
    ends = np.cumsum([len(p) for p in prefixes], dtype=np.int64).tolist()
    return [flat[end - len(p):end] for p, end in zip(prefixes, ends)]


# ---------------------------------------------------------------------------
# triplet loss


def triplet_hinge(sim_pos: float, sim_neg: float, margin: float) -> float:
    """Hinge pushing the positive score above the negative by ``margin``:
    ``max(sim_neg - sim_pos + margin, 0)``."""
    return max(sim_neg - sim_pos + margin, 0.0)


class TripletTable(NamedTuple):
    """The fused pairs :func:`train` optimises over.

    Row ``r`` of ``gx``/``px``/``present`` fuses the pair ``pairs[r]``, a
    row of the pair set's array; ``anchors`` numbers the anchors from 0 and
    ``anchor_rows[a]`` holds anchor ``a``'s positive and negative row arrays.
    Every anchor has at least one of each.
    """

    anchors: range
    anchor_rows: list[tuple[np.ndarray, np.ndarray]]
    pairs: np.ndarray
    gx: np.ndarray
    px: np.ndarray
    present: np.ndarray

    def cross_indices(self, anchors) -> tuple[np.ndarray, np.ndarray]:
        """Every positive x negative triplet of ``anchors``, anchor by
        anchor, as (positive row, negative row) index arrays."""
        pos_idx, neg_idx = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for anchor in anchors:
            p, n = self.anchor_rows[anchor]
            pos_idx.append(np.repeat(p, n.size))
            neg_idx.append(np.tile(n, p.size))
        return np.concatenate(pos_idx), np.concatenate(neg_idx)

    def batch(self, anchors):
        """One SGD batch: ``(gx, px, present, pos_index, neg_index)`` over
        just the rows the anchors' triplets use, in table order."""
        pos_idx, neg_idx = self.cross_indices(anchors)
        rows = np.unique(np.concatenate([pos_idx, neg_idx]))
        remap = np.zeros(len(self.pairs), dtype=np.intp)
        remap[rows] = np.arange(rows.size)
        return (self.gx[rows], self.px[rows], self.present[rows],
                remap[pos_idx], remap[neg_idx])


def _pair_records(bundle: DatasetBundle, pairs: np.ndarray
                  ) -> list[tuple[ImageRecord, ImageRecord]]:
    """The (query, candidate) records of each pair row, whose roles and
    indices :func:`_check_pair_indices` has checked."""
    splits = bundle.splits
    return [(splits[qr][qi], splits[cr][ci]) for qr, qi, _, cr, ci, _, _ in pairs.tolist()]


def _check_pair_indices(bundle: DatasetBundle, pairs: np.ndarray) -> None:
    """Raise ValueError naming the first pair row, in array order, whose
    query or candidate index lies outside its role's split; a role the
    bundle lacks raises KeyError."""
    rules = []
    for role, index in ((pairs["query_role"], pairs["query_index"]),
                        (pairs["cand_role"], pairs["cand_index"])):
        names, inverse = np.unique(role, return_inverse=True)
        unknown = [name for name in names.tolist() if name not in bundle.splits]
        if unknown:
            raise KeyError(f"unknown role {unknown[0]!r}")
        size = np.array([len(bundle.splits[name]) for name in names.tolist()])[inverse]
        rules.append(((index < 0) | (index >= size), lambda row, role=role, index=index,
                      size=size: f"pair row {row}: index {index[row]} out of range for "
                                 f"role {role[row]} (n={size[row]})"))
    check_rows(rules)


def triplet_table(bundle: DatasetBundle, pair_set: PairSet) -> TripletTable:
    """Fuse every pair of every anchor that has both positives and
    negatives, anchors in first-appearance order and each anchor's rows in
    pair-set order.  Every pair row's indices are checked first, including
    the rows of anchors that are left out."""
    _check_pair_indices(bundle, pair_set.pairs)
    is_pos = pair_set.pairs["label"] == 1
    runs = [np.sort(run) for run in query_runs(pair_set.pairs)
            if is_pos[run].any() and not is_pos[run].all()]
    if not runs:
        raise ValueError("no usable anchors: every anchor lacks positives or negatives")
    pairs = pair_set.pairs[np.concatenate(runs)]
    pos = pairs["label"] == 1
    positions = np.split(np.arange(len(pairs)), np.cumsum([len(run) for run in runs[:-1]]))
    anchor_rows = [(rows[pos[rows]], rows[~pos[rows]]) for rows in positions]
    return TripletTable(range(len(runs)), anchor_rows, pairs,
                        *pair_arrays(_pair_records(bundle, pairs), bundle.dims))


def _loss_forward(model: VerifierModel, gx, px, present, pos_index, neg_index,
                  margin: float):
    sg, cache_g = _forward_global(model, gx)
    sp, _, valid, cache_p = _forward_parts(model, px, present)
    zg = sg[neg_index] - sg[pos_index] + margin
    hg = np.maximum(zg, 0.0)
    part_ok = valid[pos_index] & valid[neg_index]
    zp = np.where(part_ok, sp[neg_index] - sp[pos_index] + margin, 0.0)
    hp = np.where(part_ok, np.maximum(zp, 0.0), 0.0)
    return (float(hg.sum()), float(hp.sum()), hg, hp, part_ok,
            sg, sp, cache_g, cache_p)


def triplet_loss(model: VerifierModel, gx, px, present, pos_index, neg_index,
                 margin: float) -> tuple[float, float, float]:
    """Summed dual hinge loss ``(total, global_term, part_term)`` over the
    triplets ``(pos_index[i], neg_index[i])`` of fused pair rows.

    The part term skips triplets where either pair has no jointly present
    part (those pairs have no ``sim_S``).
    """
    lg, lp, *_ = _loss_forward(model, gx, px, present, pos_index, neg_index, margin)
    return lg + lp, lg, lp


def triplet_loss_and_grads(model: VerifierModel, gx, px, present, pos_index,
                           neg_index, margin: float
                           ) -> tuple[tuple[float, float, float], np.ndarray]:
    """:func:`triplet_loss` plus its analytic gradient, one vector laid out
    like ``model.params``.

    At a hinge kink (activation exactly 0) the subgradient 0 is used.
    """
    lg, lp, hg, hp, part_ok, sg, sp, cache_g, cache_p = _loss_forward(
        model, gx, px, present, pos_index, neg_index, margin)
    grad = np.zeros_like(model.params)
    grads = model.views(grad)

    dsg = np.zeros_like(sg)
    active = hg > 0.0
    np.add.at(dsg, neg_index[active], 1.0)
    np.add.at(dsg, pos_index[active], -1.0)
    _backward_global(model, cache_g, dsg, grads)

    dsp = np.zeros_like(sg)
    active_p = (hp > 0.0) & part_ok
    np.add.at(dsp, neg_index[active_p], 1.0)
    np.add.at(dsp, pos_index[active_p], -1.0)
    _backward_parts(model, cache_p, dsp, grads)
    return (lg + lp, lg, lp), grad


# ---------------------------------------------------------------------------
# training


class ValidationSet(NamedTuple):
    """What :func:`validation_rank1` ranks: in ``labels``, each validation
    query with a positive as its candidates' labels (1 for a positive, else
    0) in rank order; in ``gx``/``px``/``present``, its first ``depth``
    candidates (the only ones the window scores) fused once, query after
    query."""

    labels: list[np.ndarray]
    depth: int
    gx: np.ndarray
    px: np.ndarray
    present: np.ndarray


def validation_set(bundle: DatasetBundle, valid_pairs: PairSet,
                   ranking_Q: int) -> ValidationSet:
    """Group ``valid_pairs`` by query and fuse every prefix once.  Every
    pair row's indices are checked first, including the rows of queries
    without a positive, which are left out."""
    pairs = valid_pairs.pairs
    _check_pair_indices(bundle, pairs)
    runs = [pairs[run] for run in query_runs(pairs) if (pairs["label"][run] == 1).any()]
    prefixes = np.concatenate([pairs[:0], *(run[:ranking_Q] for run in runs)])
    return ValidationSet([(run["label"] == 1).astype(np.int64) for run in runs], ranking_Q,
                         *pair_arrays(_pair_records(bundle, prefixes), bundle.dims))


def validation_rank1(model: VerifierModel, valid: ValidationSet,
                     ranking_L: int) -> float:
    """Rank-1 over validation queries after re-scoring their candidate lists
    with the verifier and applying the windowed ranking strategy (window
    ``ranking_L``, depth ``valid.depth``).

    Returns 0.0 if no query has a positive candidate.
    """
    from .reranker import window_rerank

    scores = np.empty(len(valid.gx))
    for start in range(0, len(scores), SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        scores[rows] = batch_scores(model, valid.gx[rows], valid.px[rows],
                                    valid.present[rows])
    hits = end = 0
    for labels in valid.labels:
        start, end = end, end + min(valid.depth, len(labels))
        # The window moves positions, so re-ranking the labels puts the
        # label of the verifier's top candidate first.
        hits += int(window_rerank(labels, scores[start:end], ranking_L,
                                  valid.depth).order[0])
    return hits / len(valid.labels) if valid.labels else 0.0


def _learning_rate(config: TrainConfig, epoch: int) -> float:
    lr = config.learning_rate
    for milestone in config.decay_epochs:
        if epoch > milestone:
            lr *= config.decay_factor
    return lr


def train(model: VerifierModel, bundle: DatasetBundle, train_pairs: PairSet,
          valid_pairs: PairSet, ranking_L: int = 10, ranking_Q: int = 20,
          progress: Callable[[EpochStats], None] | None = None
          ) -> tuple[VerifierModel, list[EpochStats]]:
    """Mini-batch SGD on the dual triplet hinge loss.

    Anchors are shuffled every epoch with a generator derived from the model
    seed; batches hold ``hyper.batch_size`` anchors with the full positive x
    negative cross product per anchor.  The learning rate decays by
    ``decay_factor`` after each milestone in ``decay_epochs``.  After the
    last epoch the weights giving the best validation Rank-1 (ties: earliest
    epoch, including the untrained epoch 0) are restored into ``model``.

    Returns the model and one :class:`EpochStats` row per epoch (0..epochs).
    """
    config = model.hyper
    # Pairs fused once; per-epoch batches only re-index into the table, and
    # validation re-scores the same fused prefixes.
    table = triplet_table(bundle, train_pairs)
    valid = validation_set(bundle, valid_pairs, ranking_Q)

    params = model.params
    history: list[EpochStats] = []
    best_vec: np.ndarray | None = None
    best_key: tuple[float, int] | None = None

    def record(epoch: int, losses: tuple[float, float, float]) -> None:
        nonlocal best_vec, best_key
        rank1 = validation_rank1(model, valid, ranking_L)
        stats = EpochStats(epoch, losses[0], losses[1], losses[2], rank1)
        history.append(stats)
        key = (-rank1, epoch)
        if best_key is None or key < best_key:
            best_key = key
            best_vec = params.copy()
        if progress is not None:
            progress(stats)

    record(0, triplet_loss(model, table.gx, table.px, table.present,
                           *table.cross_indices(table.anchors), config.margin))
    rng = np.random.default_rng([model.seed, 1])
    for epoch in range(1, config.epochs + 1):
        lr = _learning_rate(config, epoch)
        order = rng.permutation(len(table.anchors))
        total = np.zeros(3)
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            losses, grad = triplet_loss_and_grads(model, *table.batch(chunk),
                                                  config.margin)
            if not np.isfinite(losses[0]):
                raise RuntimeError(f"non-finite loss at epoch {epoch}")
            total += losses
            bad = model.nonfinite_tensor(grad)
            if bad is not None:
                raise RuntimeError(f"non-finite gradient for {bad} at epoch {epoch}")
            params -= lr * grad
        record(epoch, (float(total[0]), float(total[1]), float(total[2])))

    assert best_vec is not None
    params[:] = best_vec
    return model, history


def write_history_csv(path: str | Path, history: list[EpochStats],
                      config_comment: str | None = None) -> None:
    table = np.array(history, dtype=[("epoch", np.int64)]
                     + [(name, np.float64) for name in HISTORY_HEADER[1:]])
    write_csv(path, HISTORY_HEADER, [table[name] for name in HISTORY_HEADER], config_comment)


# ---------------------------------------------------------------------------
# checkpoint format


def save_model(path: str | Path, model: VerifierModel) -> None:
    """Write an RVM1 checkpoint.

    Layout (little-endian): magic, the :data:`MODEL_HEADER` fields, the
    u32 milestones, then ``params`` as f32.
    """
    h = model.hyper
    # Packed before the file opens: a value that does not fit leaves no file.
    header = (MODEL_MAGIC
              + struct.pack(MODEL_HEADER, *model.dims, model.hidden_global,
                            model.hidden_part, model.seed, h.margin, h.learning_rate,
                            h.epochs, h.batch_size, h.decay_factor, len(h.decay_epochs))
              + struct.pack(f"<{len(h.decay_epochs)}I", *h.decay_epochs))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(model.params.astype("<f4").tobytes())


def load_model(path: str | Path) -> VerifierModel:
    """Read an RVM1 checkpoint; a malformed header or payload, or a
    non-finite weight, raises ValueError naming the file."""
    header = BinaryHeader(path, MODEL_MAGIC, ValueError)
    (d, dp, k, hg, hp, seed, margin, lr, epochs, batch, decay_factor,
     n_milestones) = header.take(MODEL_HEADER)
    milestones = header.take(f"<{n_milestones}I")
    try:
        hyper = TrainConfig(margin=margin, learning_rate=lr, epochs=epochs,
                            batch_size=batch, decay_factor=decay_factor,
                            decay_epochs=tuple(milestones))
        layout = _weight_layout((d, dp, k), hg, hp)
    except ValueError as exc:
        raise ValueError(f"{header.path}: {exc}") from None
    expect = sum(math.prod(shape) for _, shape, _ in layout)
    payload = np.frombuffer(header.payload(4 * expect, f"{expect} f32 weights"),
                            dtype="<f4")
    model = VerifierModel(dims=(d, dp, k), hidden_global=hg, hidden_part=hp,
                          seed=seed, params=payload.astype(np.float64), hyper=hyper)
    bad = model.nonfinite_tensor(model.params)
    if bad is not None:
        raise ValueError(f"{header.path}: non-finite value in weight tensor {bad}")
    return model
