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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .datastore import (BinaryHeader, DatasetBundle, ImageRecord, Split, check_rows,
                        write_csv)
from .retrieval import PairSet, concatenated_ranges, query_runs

MODEL_MAGIC = b"RVM1"

#: RVM1 header after the magic: u32 D, Dp, K, Hg, Hp; i64 seed; f64 margin
#: and learning rate; u32 epochs and batch size; f64 decay factor; u32
#: milestone count.  The milestones follow as u32, then the weights.
MODEL_HEADER = "<5Iq2d2IdI"

HISTORY_HEADER = ("epoch", "L", "L_g", "L_p", "valid_rank1")

#: Pairs fused or scored together, which bounds every temporary of those
#: steps whatever the number of pairs.  It is also the block of the global
#: head's product (see :func:`_forward_global`).
SCORE_CHUNK = 256

#: Most bytes of one (rows, K, Hp) float64 temporary of the part head's
#: hidden layer.  Kept below glibc's default 128 KiB mmap threshold, so the
#: temporaries of every SGD step come from the heap rather than from fresh
#: pages (a 256-row block at K = 15, Hp = 32 is 983 KB).
PART_BLOCK_BYTES = 120 * 1024

#: Anchors whose triplets :func:`table_loss` takes at once, which bounds
#: its temporaries beside the two triplet-length hinge arrays.  At 20
#: positives and 20 negatives an anchor, one int64 temporary is 100 KiB,
#: below glibc's mmap threshold as with :data:`PART_BLOCK_BYTES`.
ANCHOR_BLOCK = 32


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.  ``margin``, ``learning_rate`` and
    ``decay_factor`` must be finite, ``batch_size`` at least 1, and every
    count an RVM1 checkpoint stores as u32 must fit in one."""

    margin: float = 0.3
    learning_rate: float = 3.5e-4
    epochs: int = 80
    batch_size: int = 16
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (30, 60)

    def __post_init__(self) -> None:
        for name in ("margin", "learning_rate", "decay_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    out = np.stack(arrays)
    if out.shape[1:] != shape:
        raise ValueError(f"{what} shapes {out.shape[1:]} do not match dims {shape}")
    return out


def _fuse_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """The fusion arithmetic: ``out = [|a - b| ; a * b]`` along the last
    axis, every op in float64 (the cast of an f32 input is exact).  Each
    half is computed contiguous and copied in once, which is faster than
    ufuncs writing to a strided half of ``out``."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff = a - b
    np.abs(diff, out=diff)
    np.multiply(a, b, out=a)
    np.concatenate((diff, a), axis=-1, out=out)


def _collect(n: int, dims: tuple[int, int, int], sides: Callable
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(global_x, part_x, joint_present)`` of ``n`` pairs, filled
    ``SCORE_CHUNK`` rows at a time.  ``sides(rows)`` gives the query and the
    candidate side of the pairs in slice ``rows``, each as (features,
    vectors, present) arrays."""
    d, dp, k = dims
    gx = np.empty((n, 2 * d))
    px = np.empty((n, k, 2 * dp))
    present = np.empty((n, k), dtype=bool)
    for start in range(0, n, SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        (fq, vq, pq), (fg, vg, pg) = sides(rows)
        np.logical_and(pq, pg, out=present[rows])
        _fuse_into(fq, fg, gx[rows])
        _fuse_into(vq, vg, px[rows])
        px[rows][~present[rows]] = 0.0
    return gx, px, present


def pair_arrays(pairs: list[tuple[ImageRecord, ImageRecord]],
                dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric fusion ``[|a-b| ; a*b]`` of many (query, candidate) pairs,
    globally and per part, in float64.

    Returns ``(global_x, part_x, joint_present)`` with shapes (n, 2D),
    (n, K, 2Dp) and (n, K); a part slot is jointly present when both
    records have it, and its fused row is zero otherwise.  The outputs are
    filled ``SCORE_CHUNK`` pairs at a time, so no other temporary grows
    with n.  :func:`fuse` computes the same arrays from index arrays.
    """
    d, dp, k = dims

    def sides(rows):
        return [(_stacked([r.global_feature for r in side], (d,), "global feature"),
                 _stacked([r.part_vectors for r in side], (k, dp), "part vector"),
                 _stacked([r.part_present for r in side], (k,), "part presence"))
                for side in zip(*pairs[rows])]

    return _collect(len(pairs), dims, sides)


def fuse(queries: Split, query_index: np.ndarray, gallery: Split,
         gallery_index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pair_arrays` of the pairs ``(queries[q], gallery[g])`` of the
    aligned index arrays, gathered from the splits' columns by index rather
    than through image records."""
    _, k, dp = queries.vectors.shape

    def sides(rows):
        return [(split.features[index], split.vectors[index], split.present[index])
                for split, index in ((queries, query_index[rows]),
                                     (gallery, gallery_index[rows]))]

    return _collect(len(query_index), (queries.features.shape[1], dp, k), sides)


def check_sizes(hidden_global: int, hidden_part: int, seed: int = 0) -> None:
    """Raise ValueError unless ``seed`` fits a checkpoint's i64 and both
    hidden sizes are at least 0.  It needs no input, so ``train`` checks its
    flags with it before it reads any."""
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be in 0..{2**63 - 1} (i64), got {seed}")
    if hidden_global < 0 or hidden_part < 0:
        raise ValueError(f"bad hidden sizes hidden_global={hidden_global} "
                         f"hidden_part={hidden_part}: need >= 0")


def _weight_layout(dims: tuple[int, int, int], hidden_global: int,
                   hidden_part: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, init fan-in) of every weight tensor, in the order the
    tensors lie in :attr:`VerifierModel.params`."""
    d, dp, k = dims
    if d < 1 or dp < 0 or k < 1:
        raise ValueError(f"bad dims {dims}: need D >= 1, Dp >= 0, K >= 1")
    check_sizes(hidden_global, hidden_part)
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
        ends = np.cumsum([0, *(math.prod(shape) for _, shape, _ in layout)]).tolist()
        if self.params.dtype != np.float64 or self.params.shape != (ends[-1],):
            raise ValueError(f"params must be {ends[-1]} float64 values, got "
                             f"{self.params.dtype} of shape {self.params.shape}")
        # The frozen dataclass's __setattr__ refuses every name, so the
        # offsets and the tensor views go into the instance dict directly.
        self.__dict__["_slices"] = [(name, slice(start, end), shape) for
                                    (name, shape, _), start, end in zip(layout, ends, ends[1:])]
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
        check_sizes(hidden_global, hidden_part, seed)
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
        return {name: vec[at].reshape(shape) for name, at, shape in self._slices}

    def nonfinite_tensor(self, vec: np.ndarray) -> str | None:
        """Name of the first tensor, in layout order, with a non-finite value
        in ``vec`` (laid out like ``params``); None if every value is finite."""
        if np.isfinite(vec).all():
            return None
        return next(name for name, view in self.views(vec).items()
                    if not np.isfinite(view).all())

    def __call__(self, queries: Split, query_index: np.ndarray, gallery: Split,
                 gallery_index: np.ndarray) -> np.ndarray:
        """The scorer protocol of :func:`prefix_scores`: one verification
        score per aligned (query index, gallery index) pair.

        This is the one caller of :func:`pair_arrays`, and so the one place
        that builds image records: the benchmark tracer counts the pairs
        the rerank scorer fuses by the records that call is given.
        """
        return batch_scores(self, *pair_arrays(
            [(queries[q], gallery[g]) for q, g
             in zip(query_index.tolist(), gallery_index.tolist())], self.dims))


# ---------------------------------------------------------------------------
# forward / backward


def _forward_global(model: VerifierModel, gx: np.ndarray):
    # The head runs in SCORE_CHUNK-row blocks counted from row 0, each block
    # its own products.  OpenBLAS can round a cell of a 2-D product
    # differently with another row count, so the blocks are the definition:
    # rows r0:r0 + SCORE_CHUNK (r0 a multiple of the block) are bit for bit
    # the call on that slice, whatever the number of rows around them.
    h = np.empty((len(gx), model.hidden_global))
    z2 = np.empty(len(gx))
    for start in range(0, len(gx), SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        block = np.matmul(gx[rows], model.global_hidden_w.T, out=h[rows])
        block += model.global_hidden_b
        np.tanh(block, out=block)
        z2[rows] = block @ model.global_out_w
    z2 += model.global_out_b
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


def _part_block(model: VerifierModel) -> int:
    """Rows of the part head's hidden layer taken at once: as many as keep
    one (rows, K, Hp) float64 temporary within :data:`PART_BLOCK_BYTES`,
    and at least 1."""
    return max(1, PART_BLOCK_BYTES // (8 * model.dims[2] * max(1, model.hidden_part)))


def _forward_parts(model: VerifierModel, px: np.ndarray, present: np.ndarray,
                   contrib: np.ndarray | None = None):
    """Part-head forward for (n, K, 2Dp) inputs.

    Returns ``(s, valid, cache)``: ``s`` is NaN where ``valid`` is False
    (no jointly present part).  A given (n, K) ``contrib`` receives the raw
    per-part contributions, absent slots included.

    The hidden layer runs :func:`_part_block` rows at a time; of its (n, K,
    Hp) activations only the winning slot's row ``u_star`` (n, Hp) is kept
    for :func:`_backward_parts`.  numpy takes the 3-D product slice by
    slice, so no result depends on the block size.
    """
    n = len(present)
    pooled = np.empty(n)
    kstar = np.empty(n, dtype=np.intp)
    u_star = np.empty((n, model.hidden_part))
    step = _part_block(model)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        u = px[rows] @ model.part_hidden_w.T
        u += model.part_hidden_b
        np.tanh(u, out=u)
        c = (u * model.part_mix_w[None, :, :]).sum(axis=2) + model.part_mix_b[None, :]
        if contrib is not None:
            contrib[rows] = c
        # A row with no present slot is all -inf and takes slot 0.
        c[~present[rows]] = -np.inf
        at = np.arange(len(c))
        kstar[rows] = c.argmax(axis=1)
        pooled[rows] = c[at, kstar[rows]]
        u_star[rows] = u[at, kstar[rows]]
    valid = present.any(axis=1)
    pooled[~valid] = np.nan
    gain = np.exp(model.out_log_gain)
    s = np.tanh(gain * pooled + model.out_bias)
    return s, valid, (px, u_star, pooled, kstar, s, gain, valid)


def _backward_parts(model: VerifierModel, cache, ds: np.ndarray, grads: dict) -> None:
    """Backward for the part head; ``ds`` must be zero at invalid rows."""
    px, u_star, pooled, kstar, s, gain, valid = cache
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
    u_star = u_star[rows]
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
    sp, valid, _ = _forward_parts(model, px, present)
    return np.where(valid, sp, sg)


def part_contributions(model: VerifierModel, px: np.ndarray,
                       present: np.ndarray) -> np.ndarray:
    """Per-part contributions (n, K) that the part head of
    :func:`batch_scores` max-pools; NaN where a part is not jointly present."""
    contrib = np.empty(present.shape)
    _forward_parts(model, px, present, contrib)
    contrib[~present] = np.nan
    return contrib


def prefix_scores(scorer: Callable[[Split, np.ndarray, Split, np.ndarray], np.ndarray],
                  queries: Split, gallery: Split, orders: list[np.ndarray],
                  depth: int) -> list[np.ndarray]:
    """Score each query against the first ``depth`` gallery indices of its
    order: ``orders[i]`` ranks ``gallery`` for ``queries[i]``, and the result
    holds one float array per query, aligned with ``orders[i][:depth]``.

    ``scorer(queries, query_index, gallery, gallery_index)`` returns one
    score per aligned pair of int64 index arrays; a :class:`VerifierModel`
    is one.  The prefixes of all queries, back to back, go to it
    ``SCORE_CHUNK`` pairs per call.  A failure raises RuntimeError naming
    the queries of the failing call.
    """
    prefixes = [order[:depth] for order in orders]
    lengths = np.array([len(p) for p in prefixes], dtype=np.int64)
    query_index = np.repeat(np.arange(len(prefixes), dtype=np.int64), lengths)
    gallery_index = np.concatenate([np.empty(0, np.int64), *prefixes])
    flat = np.empty(len(query_index))
    for start in range(0, len(flat), SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        try:
            flat[rows] = scorer(queries, query_index[rows], gallery, gallery_index[rows])
        except Exception as exc:
            first, last = query_index[rows][[0, -1]].tolist()
            who = f"query {first}" if first == last else f"queries {first}-{last}"
            raise RuntimeError(f"window stage failed for {who}: {exc}") from exc
    ends = np.cumsum(lengths).tolist()
    return [flat[end - n:end] for n, end in zip(lengths.tolist(), ends)]


# ---------------------------------------------------------------------------
# triplet loss


def triplet_hinge(sim_pos: float, sim_neg: float, margin: float) -> float:
    """Hinge pushing the positive score above the negative by ``margin``:
    ``max(sim_neg - sim_pos + margin, 0)``."""
    return max(sim_neg - sim_pos + margin, 0.0)


@dataclass(frozen=True, eq=False)
class TripletTable:
    """The pairs :func:`train` optimises over, as indices only.

    Row ``r`` is the pair of image ``query_index[r]`` of ``queries`` and
    image ``cand_index[r]`` of ``cands``, a positive where ``positive[r]``;
    :meth:`fused` fuses rows when they are used.  Anchor ``a`` (numbered
    from 0) owns rows ``bounds[a]:bounds[a + 1]``, at least one positive and
    one negative, and triplets of each positive with each negative (see
    :meth:`triplets`).  ``len(table)`` is the number of anchors.
    """

    query_index: np.ndarray
    cand_index: np.ndarray
    positive: np.ndarray
    bounds: np.ndarray
    queries: Split
    cands: Split

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def rows(self, anchors: np.ndarray) -> np.ndarray:
        """The rows ``anchors`` own, anchor after anchor in the order given."""
        return concatenated_ranges(self.bounds[anchors], self.bounds[anchors + 1])

    def triplets(self, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(positive rows, negative rows)`` of every triplet of ``anchors``:
        anchor after anchor in the order given, and within an anchor each of
        its positives with each of its negatives, both in row order, positive
        by positive.  A fixed number of whole-array steps, whatever the
        number of anchors."""
        anchors = np.asarray(anchors, dtype=np.int64)
        rows = self.rows(anchors)
        flags = self.positive[rows]
        sizes = self.bounds[anchors + 1] - self.bounds[anchors]
        n_pos = np.add.reduceat(flags, np.cumsum(sizes) - sizes, dtype=np.int64)
        n_neg = sizes - n_pos
        # Positive p of an anchor stands once against each of the anchor's
        # negatives, which lie at first_neg:first_neg + n_neg of neg_rows.
        first_neg = np.repeat(np.cumsum(n_neg) - n_neg, n_pos)
        per_pos = np.repeat(n_neg, n_pos)
        neg = rows[~flags][concatenated_ranges(first_neg, first_neg + per_pos)]
        return np.repeat(rows[flags], per_pos), neg

    def fused(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`fuse` of the table rows ``rows`` (an index array or a
        slice)."""
        return fuse(self.queries, self.query_index[rows], self.cands, self.cand_index[rows])

    def batch(self, anchors: np.ndarray):
        """One SGD batch ``(gx, px, present, pos_index, neg_index)``: the
        anchors' rows in table order, fused, and their triplets in the
        order the anchors are given, numbered by those rows."""
        rows = self.rows(np.sort(anchors))
        # The rows ascend, and each anchor's triplets use every row it owns.
        pos, neg = self.triplets(anchors)
        return (*self.fused(rows), np.searchsorted(rows, pos), np.searchsorted(rows, neg))


def _check_pair_indices(bundle: DatasetBundle, pairs: np.ndarray) -> tuple[Split, Split]:
    """The query and candidate splits of a pair array, which pairs one query
    role with one candidate role.  Raise ValueError naming the first pair
    row, in array order, whose roles differ from row 0's, whose query or
    candidate index lies outside its split, or whose role the bundle
    lacks."""
    # Row 0 names the roles; any split serves a pair array without rows.
    (query_role, cand_role), = pairs[["query_role", "cand_role"]][:1].tolist() or [("T", "T")]
    for role in (query_role, cand_role):
        if role not in bundle.splits:
            raise ValueError(f"unknown role {role!r}")
    queries, cands = bundle.splits[query_role], bundle.splits[cand_role]
    rules = [((pairs["query_role"] != query_role) | (pairs["cand_role"] != cand_role),
              lambda row: f"pair row {row}: roles {pairs['query_role'][row]}/"
                          f"{pairs['cand_role'][row]}, but row 0 pairs {query_role}/"
                          f"{cand_role}; a pair set holds one role pair")]
    for role, n, index in ((query_role, len(queries), pairs["query_index"]),
                           (cand_role, len(cands), pairs["cand_index"])):
        rules.append(((index < 0) | (index >= n), lambda row, role=role, n=n, index=index:
                      f"pair row {row}: index {index[row]} out of range for role {role} "
                      f"(n={n})"))
    check_rows(rules)
    return queries, cands


def _first_appearance_groups(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: the rows of each value of the non-negative
    ``index`` in row order, values by first appearance, back to back; value
    ``g``'s rows are ``order[bounds[g]:bounds[g + 1]]``."""
    by_value = np.argsort(index, kind="stable")
    runs = np.append(np.flatnonzero(np.diff(index[by_value], prepend=-1)), len(index))
    appearance = np.argsort(by_value[runs[:-1]])
    starts, stops = runs[:-1][appearance], runs[1:][appearance]
    return (by_value[concatenated_ranges(starts, stops)],
            np.cumsum(np.append(0, stops - starts)))


def triplet_table(bundle: DatasetBundle, pair_set: PairSet) -> TripletTable:
    """Every pair of every anchor that has both positives and negatives,
    anchors in first-appearance order and each anchor's rows in pair-set
    order.  Every pair row's roles and indices are checked, including the
    rows of anchors that are left out, so every later gather is in range."""
    pairs = pair_set.pairs
    queries, cands = _check_pair_indices(bundle, pairs)
    # One query role throughout (checked), so the index names the anchor.
    order, bounds = _first_appearance_groups(pairs["query_index"])
    positive = pairs["label"][order] == 1
    sizes = np.diff(bounds)
    n_pos = np.add.reduceat(positive, bounds[:-1], dtype=np.int64)
    usable = (n_pos > 0) & (n_pos < sizes)
    if not usable.any():
        raise ValueError("no usable anchors: every anchor lacks positives or negatives")
    keep = np.repeat(usable, sizes)
    order = order[keep]
    return TripletTable(pairs["query_index"][order], pairs["cand_index"][order],
                        positive[keep], np.cumsum(np.append(0, sizes[usable])),
                        queries, cands)


def _hinges(sg, sp, valid, pos_index, neg_index, margin: float,
            hg: np.ndarray, hp: np.ndarray) -> None:
    """Fill ``hg``/``hp`` with the global and part hinge of every triplet
    over the scores ``sg``/``sp`` of its rows."""
    np.maximum(sg[neg_index] - sg[pos_index] + margin, 0.0, out=hg)
    # A triplet with a pair that has no sim_S has no part term.
    part_ok = valid[pos_index] & valid[neg_index]
    np.maximum(np.where(part_ok, sp[neg_index] - sp[pos_index] + margin, 0.0), 0.0, out=hp)


def _loss_forward(model: VerifierModel, gx, px, present, pos_index, neg_index,
                  margin: float):
    """``(global_term, part_term, hg, hp, cache_g, cache_p)``: the summed
    hinges over the triplets, each triplet's hinges and the heads' caches."""
    sg, cache_g = _forward_global(model, gx)
    sp, valid, cache_p = _forward_parts(model, px, present)
    hg, hp = np.empty(len(pos_index)), np.empty(len(pos_index))
    _hinges(sg, sp, valid, pos_index, neg_index, margin, hg, hp)
    return float(hg.sum()), float(hp.sum()), hg, hp, cache_g, cache_p


def table_loss(model: VerifierModel, table: TripletTable,
               margin: float) -> tuple[float, float, float]:
    """The summed dual hinge loss ``(total, global_term, part_term)`` over
    every triplet of ``table``, bit for bit the losses that
    :func:`triplet_loss_and_grads` gives over the whole fused table.  Its
    rows are fused ``SCORE_CHUNK`` at a time and both heads run on each
    chunk as it is fused, so only the per-row scores outlive a chunk: the
    global head's blocks are those of one call over the whole table.  The
    triplets come ``ANCHOR_BLOCK`` anchors at a time, and their hinges fill
    one float64 array per term, each summed once."""
    n = len(table.query_index)
    sg, sp = np.empty(n), np.empty(n)
    valid = np.empty(n, dtype=bool)
    for start in range(0, n, SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        gx, px, present = table.fused(rows)
        sg[rows] = _forward_global(model, gx)[0]
        sp[rows], valid[rows], _ = _forward_parts(model, px, present)
    n_pos = np.add.reduceat(table.positive, table.bounds[:-1], dtype=np.int64)
    count = int(np.dot(n_pos, np.diff(table.bounds) - n_pos))
    hg, hp = np.empty(count), np.empty(count)
    end = 0
    for a0 in range(0, len(table), ANCHOR_BLOCK):
        pos, neg = table.triplets(np.arange(a0, min(a0 + ANCHOR_BLOCK, len(table))))
        at = slice(end, end + len(pos))
        _hinges(sg, sp, valid, pos, neg, margin, hg[at], hp[at])
        end = at.stop
    lg, lp = float(hg.sum()), float(hp.sum())
    return lg + lp, lg, lp


def triplet_loss_and_grads(model: VerifierModel, gx, px, present, pos_index,
                           neg_index, margin: float
                           ) -> tuple[tuple[float, float, float], np.ndarray]:
    """The summed dual hinge loss ``(total, global_term, part_term)`` over
    the triplets ``(pos_index[i], neg_index[i])`` of fused pair rows, plus
    its analytic gradient, one vector laid out like ``model.params``.  The
    part term skips triplets where either pair has no jointly present part
    (those pairs have no ``sim_S``).

    At a hinge kink (activation exactly 0) the subgradient 0 is used.
    """
    lg, lp, hg, hp, cache_g, cache_p = _loss_forward(model, gx, px, present, pos_index,
                                                      neg_index, margin)
    grad = np.zeros_like(model.params)
    grads = model.views(grad)
    for hinge, backward, cache in ((hg, _backward_global, cache_g),
                                   (hp, _backward_parts, cache_p)):
        # d(loss)/d(score) of each row counts its active triplets, +1 as the
        # negative and -1 as the positive: integers, so exact in float64.
        active = hinge > 0.0
        ds = (np.bincount(neg_index[active], minlength=len(gx))
              - np.bincount(pos_index[active], minlength=len(gx))).astype(np.float64)
        backward(model, cache, ds, grads)
    return (lg + lp, lg, lp), grad


# ---------------------------------------------------------------------------
# training


class ValidationSet(NamedTuple):
    """What :func:`validation_rank1` ranks: in ``labels``, each validation
    query with a positive as its candidates' labels (1 for a positive, else
    0) in rank order.  Its first ``depth`` candidates (the only ones the
    window scores), query after query, are the pairs of image
    ``query_index`` of ``queries`` and image ``gallery_index`` of
    ``gallery``: indices only, fused when they are scored."""

    labels: list[np.ndarray]
    depth: int
    queries: Split
    gallery: Split
    query_index: np.ndarray
    gallery_index: np.ndarray


def validation_set(bundle: DatasetBundle, valid_pairs: PairSet,
                   ranking_Q: int) -> ValidationSet:
    """Group ``valid_pairs`` by query and keep the index arrays of every
    prefix.  Every pair row's roles and indices are checked first, including
    the rows of queries without a positive, which are left out; a set where
    no query has a positive raises ValueError."""
    pairs = valid_pairs.pairs
    queries, gallery = _check_pair_indices(bundle, pairs)
    runs = [pairs[run] for run in query_runs(pairs) if (pairs["label"][run] == 1).any()]
    if not runs:
        raise ValueError("no usable validation queries: no query has a positive candidate")
    prefixes = np.concatenate([run[:ranking_Q] for run in runs])
    return ValidationSet([(run["label"] == 1).astype(np.int64) for run in runs], ranking_Q,
                         queries, gallery, prefixes["query_index"].copy(),
                         prefixes["cand_index"].copy())


def validation_rank1(model: VerifierModel, valid: ValidationSet,
                     ranking_L: int) -> float:
    """Rank-1 over validation queries after re-scoring their candidate lists
    with the verifier and applying the windowed ranking strategy (window
    ``ranking_L``, depth ``valid.depth``)."""
    scores = np.empty(len(valid.query_index))
    for start in range(0, len(scores), SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        scores[rows] = batch_scores(model, *fuse(valid.queries, valid.query_index[rows],
                                                 valid.gallery, valid.gallery_index[rows]))
    hits = end = 0
    for labels in valid.labels:
        start, end = end, end + min(valid.depth, len(labels))
        # The window's first pick, as window_rerank makes it: the first of
        # the highest scores among the first L positions.  max() keeps its
        # first entry against a NaN challenger, and a NaN first entry
        # against every challenger.
        window = scores[start:min(end, start + ranking_L)]
        hits += int(labels[0 if np.isnan(window[0]) else np.nanargmax(window)])
    return hits / len(valid.labels)


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
    # The table and the validation set hold indices only: each batch and
    # each validation chunk fuses its own rows.
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

    record(0, table_loss(model, table, config.margin))
    rng = np.random.default_rng([model.seed, 1])
    for epoch in range(1, config.epochs + 1):
        lr = _learning_rate(config, epoch)
        order = rng.permutation(len(table))
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
    with BinaryHeader(path, MODEL_MAGIC) as header:
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
