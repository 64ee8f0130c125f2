"""Synthetic benchmark generator with planted ground truth.

The generator builds datasets where global appearance features are
deliberately confounded the way clothing changes confound real re-id
features, while part features carry clean identity evidence:

* identities form confuser groups sharing a global centroid, so group
  members look alike at the global level;
* each identity adds a small unit-direction offset (``identity_shift``),
  each (identity, cloth) combination a larger one (``cloth_shift``) -- with
  a large cloth shift, two clothes of one person differ as much as two
  people in the same group;
* every image gets isotropic Gaussian noise (``general_noise``);
* part vectors are per-identity detail signatures shared by all of that
  identity's images, plus optional noise and random dropout.

Splits are identity-disjoint (50% train / 20% validation / 30% test,
rounded); confuser groups never straddle a split.  Within validation and
test, image slot 0 of every (identity, cloth) becomes a query and the
remaining slots become gallery.  Everything is drawn from one seeded
generator, so a config determines the bundle bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .datastore import ROLES, DatasetBundle, build_bundle

TRAIN_FRACTION = 0.5
VALID_FRACTION = 0.2


@dataclass(frozen=True)
class SynthConfig:
    n_identities: int = 40
    clothes_per_identity: int = 3
    images_per_cloth: int = 2
    confuser_group_size: int = 4
    feature_dim: int = 32
    part_dim: int = 8
    part_count: int = 15
    identity_shift: float = 0.2
    cloth_shift: float = 1.0
    general_noise: float = 0.3
    detail_noise: float = 0.0
    part_dropout: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_identities < 5:
            raise ValueError("n_identities must be >= 5 so every split gets an identity")
        for name in ("clothes_per_identity", "confuser_group_size",
                     "feature_dim", "part_dim", "part_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.images_per_cloth < 2:
            raise ValueError("images_per_cloth must be >= 2 so every query has gallery "
                             f"images, got {self.images_per_cloth}")
        for name in ("identity_shift", "cloth_shift", "general_noise", "detail_noise"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.part_dropout < 1.0:
            raise ValueError(f"part_dropout must lie in [0, 1), got {self.part_dropout}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GroundTruth:
    """What the generator planted: enough to build an upper-bound scorer."""

    config: SynthConfig
    split_of_identity: list[str]
    group_of_identity: list[int]
    detail_vectors: np.ndarray  # (n_identities, K, Dp) float32


def split_identity_counts(n_identities: int) -> tuple[int, int, int]:
    """(train, valid, test) identity counts for a dataset size."""
    n_train = int(round(n_identities * TRAIN_FRACTION))
    n_valid = int(round(n_identities * VALID_FRACTION))
    n_test = n_identities - n_train - n_valid
    if min(n_train, n_valid, n_test) < 1:
        raise ValueError(f"cannot split {n_identities} identities into three "
                         f"non-empty groups ({n_train}/{n_valid}/{n_test})")
    return n_train, n_valid, n_test


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def generate(config: SynthConfig) -> tuple[DatasetBundle, GroundTruth]:
    """Generate a dataset bundle and its ground truth from one seed."""
    config.validate()
    n_train, n_valid, n_test = split_identity_counts(config.n_identities)
    split_of_identity = (["train"] * n_train + ["valid"] * n_valid + ["test"] * n_test)

    # Groups are consecutive identities within a split segment.
    group_of_identity: list[int] = []
    next_group = 0
    for seg_len in (n_train, n_valid, n_test):
        for offset in range(seg_len):
            group_of_identity.append(next_group + offset // config.confuser_group_size)
        next_group = group_of_identity[-1] + 1
    n_groups = next_group

    rng = np.random.default_rng(config.seed)
    d, dp, k = config.feature_dim, config.part_dim, config.part_count
    centroids = rng.normal(size=(n_groups, d))

    images = []   # (role, identity, cloth, camera, feature, presence, parts)
    details = np.zeros((config.n_identities, k, dp))

    for identity in range(config.n_identities):
        centre = centroids[group_of_identity[identity]]
        id_dir = _unit(rng.normal(size=d))
        details[identity] = rng.normal(size=(k, dp))
        split = split_of_identity[identity]
        for cloth in range(config.clothes_per_identity):
            cloth_dir = _unit(rng.normal(size=d))
            mean = (centre + config.identity_shift * id_dir
                    + config.cloth_shift * cloth_dir)
            for slot in range(config.images_per_cloth):
                feat = mean + rng.normal(scale=config.general_noise, size=d) \
                    if config.general_noise > 0 else mean.copy()
                parts = details[identity] + (
                    rng.normal(scale=config.detail_noise, size=(k, dp))
                    if config.detail_noise > 0 else 0.0)
                if config.part_dropout > 0:
                    present = rng.random(k) >= config.part_dropout
                else:
                    present = np.ones(k, dtype=bool)
                if split == "train":
                    role = "T"
                elif split == "valid":
                    role = "VQ" if slot == 0 else "VG"
                else:
                    role = "Q" if slot == 0 else "G"
                camera = cloth * config.images_per_cloth + slot
                images.append((role, identity, cloth, camera, feat, present, parts))

    # Metadata order: by role, each role in generation order (a stable sort).
    images.sort(key=lambda image: ROLES.index(image[0]))
    index: Counter = Counter()
    rows = []
    for role, identity, cloth, camera, *_ in images:
        rows.append((index[role], role, identity, cloth, camera))
        index[role] += 1
    *_, feat_rows, present_rows, part_rows = zip(*images)
    bundle = build_bundle(rows, np.stack(feat_rows), np.stack(present_rows),
                          np.stack(part_rows))
    truth = GroundTruth(config=config,
                        split_of_identity=split_of_identity,
                        group_of_identity=group_of_identity,
                        detail_vectors=details.astype(np.float32))
    return bundle, truth


def oracle_scorer(truth: GroundTruth):
    """Upper-bound pair scorer built from the planted ground truth, in the
    protocol of :func:`~rvrank.verifier.prefix_scores`.

    Same identity scores exactly 1.0; otherwise the cosine similarity of the
    two identities' flattened detail signatures (well below 1 for random
    signatures).  Any ranking strategy limited only by its structure, not by
    scoring quality, can be probed with this.
    """
    flat = truth.detail_vectors.reshape(truth.detail_vectors.shape[0], -1) \
        .astype(np.float64)
    norms = np.linalg.norm(flat, axis=1)

    def score(queries, query_index, gallery, gallery_index) -> np.ndarray:
        a, b = queries.identity[query_index], gallery.identity[gallery_index]
        dots = np.einsum("ij,ij->i", flat[a], flat[b])
        return np.where(a == b, 1.0, dots / np.maximum(norms[a] * norms[b], 1e-12))

    return score
