"""Metric tests: hand-worked CMC/AP cases plus a scalar-loop oracle."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rvrank
from conftest import eligible_orders, oracle_metrics, pairwise, random_bundle
from rvrank import evaluation
from rvrank.datastore import build_bundle, read_csv
from rvrank.evaluation import (
    SWEEP_HEADER,
    evaluate,
    write_sweep_csv,
)
from rvrank.reranker import RankedList, RankingConfig, rerank_pipeline, sweep_L
from rvrank.retrieval import distance_matrix


def labelled_instance(identities, query_identity=1):
    """One query plus a gallery with the given identity labels."""
    n = len(identities)
    feats = np.zeros((n + 1, 2), dtype=np.float32)
    rows = [(0, "Q", query_identity, 0, 0)]
    rows += [(i, "G", ident, 1, 1) for i, ident in enumerate(identities)]
    return build_bundle(rows, feats)


class TestHandWorkedCases:
    def test_single_positive_on_top(self):
        bundle = labelled_instance([1, 0, 0, 0, 0])
        report = evaluate(bundle, [RankedList([0, 1, 2, 3, 4])],
                          k_max=5)
        assert report.cmc[0] == 1.0
        assert report.map_score == 1.0
        assert report.auc == 1.0

    def test_positives_at_ranks_two_and_four(self):
        bundle = labelled_instance([0, 1, 0, 1, 0])
        report = evaluate(bundle, [RankedList([0, 1, 2, 3, 4])],
                          k_max=5)
        assert report.map_score == pytest.approx(0.5)
        assert report.cmc[0] == 0.0
        assert report.cmc[1:] == [1.0, 1.0, 1.0, 1.0]
        assert report.auc == pytest.approx(4 / 5)
        assert report.first_hit_rank.tolist() == [2]
        assert report.average_precision.tolist() == [0.5]

    def test_query_without_positives_is_excluded(self):
        bundle = labelled_instance([0, 0, 2])
        report = evaluate(bundle, [RankedList([0, 1, 2])])
        assert report.num_evaluated == 0
        assert report.excluded_queries == [0]
        assert report.first_hit_rank.tolist() == [0]
        assert np.isnan(report.average_precision).all()


class TestAgainstScalarOracle:
    def test_random_instances_match_to_high_precision(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            bundle = random_bundle(rng,
                                   n_query=int(rng.integers(1, 6)),
                                   n_gallery=int(rng.integers(4, 20)),
                                   n_identities=int(rng.integers(2, 7)))
            orders = eligible_orders(rng, bundle)
            ranked = [RankedList(order) for order in orders]
            k_max = int(rng.integers(1, 8))
            report = evaluate(bundle, ranked, k_max=k_max)
            cmc, map_score, auc, excluded = oracle_metrics(bundle, orders, k_max)
            np.testing.assert_allclose(report.cmc, cmc, atol=1e-12)
            np.testing.assert_allclose(report.map_score, map_score, atol=1e-12)
            np.testing.assert_allclose(report.auc, auc, atol=1e-12)
            assert report.excluded_queries == excluded

    def test_cmc_is_monotone_and_auc_is_its_mean(self):
        rng = np.random.default_rng(56)
        bundle = random_bundle(rng, n_query=6, n_gallery=25)
        orders = eligible_orders(rng, bundle)
        ranked = [RankedList(order) for order in orders]
        report = evaluate(bundle, ranked, k_max=10)
        assert all(a <= b for a, b in zip(report.cmc, report.cmc[1:]))
        np.testing.assert_allclose(report.auc, np.mean(report.cmc), rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 7])
    def test_query_blocks_change_no_outcome(self, monkeypatch, block):
        rng = np.random.default_rng(58)
        bundle = random_bundle(rng, n_query=150, n_gallery=30, n_identities=8)
        orders = eligible_orders(rng, bundle)
        ranked = [RankedList(order) for order in orders]
        bad = ranked[:100] + [RankedList(orders[100][1:])] + ranked[101:]

        def outcomes():
            report = evaluate(bundle, ranked, k_max=5)
            with pytest.raises(ValueError) as fault:
                evaluate(bundle, bad)
            return report, str(fault.value)

        want, want_fault = outcomes()
        assert "query 100 " in want_fault
        assert 0 < want.num_evaluated < 150
        monkeypatch.setattr(evaluation, "DISTANCE_BLOCK", block)
        got, got_fault = outcomes()
        assert (got.to_json_dict(), got_fault) == (want.to_json_dict(), want_fault)
        assert np.array_equal(got.first_hit_rank, want.first_hit_rank)
        assert np.array_equal(got.average_precision, want.average_precision, equal_nan=True)


class TestPermutationStrictness:
    def setup_method(self):
        self.bundle = labelled_instance([1, 0, 0, 2])

    def test_duplicate_entry_raises(self):
        with pytest.raises(ValueError, match="permutation"):
            evaluate(self.bundle, [RankedList([0, 0, 1, 2])])

    def test_missing_entry_raises(self):
        with pytest.raises(ValueError, match="query 0"):
            evaluate(self.bundle, [RankedList([0, 1])])

    def test_ineligible_entry_raises(self):
        # gallery 0 shares identity and cloth with the query: ineligible
        rows = [(0, "Q", 1, 0, 0), (0, "G", 1, 0, 1), (1, "G", 0, 1, 1),
                (2, "G", 0, 1, 1)]
        bundle = build_bundle(rows, np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="permutation"):
            evaluate(bundle, [RankedList([0, 1, 2])])

    @pytest.mark.parametrize("order", [[-1, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 2**70]])
    def test_out_of_range_entry_raises(self, order):
        # -1 and 4 would gather real labels if looked up before the check.
        with pytest.raises(ValueError, match="query 0 is not a permutation"):
            evaluate(self.bundle, [RankedList(order)])

    def test_bad_k_max_raises(self):
        with pytest.raises(ValueError, match="k_max"):
            evaluate(self.bundle, [RankedList([0, 1, 2, 3])],
                     k_max=0)


class TestQueryCoverage:
    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_ranking_list_of_another_length_names_both_counts(self, change):
        rng = np.random.default_rng(61)
        bundle = random_bundle(rng, n_query=6, n_gallery=12)
        ranked = [RankedList(order) for order in eligible_orders(rng, bundle)]
        ranked = (ranked + ranked[:1])[:6 + change]
        with pytest.raises(ValueError) as info:
            evaluate(bundle, ranked)
        assert str(info.value) == (f"expected one ranking per Q query: got {6 + change} "
                                   "rankings for 6 queries")

    def test_duplicated_queries_are_named(self):
        # A ranking carries no query index: a repeat is one ranking too many.
        rng = np.random.default_rng(61)
        bundle = random_bundle(rng, n_query=6, n_gallery=12)
        ranked = [RankedList(order) for order in eligible_orders(rng, bundle)]
        with pytest.raises(ValueError, match=r"got 12 rankings for 6 queries"):
            evaluate(bundle, ranked + ranked)
        with pytest.raises(ValueError, match=r"got 7 rankings for 6 queries"):
            evaluate(bundle, ranked + [ranked[3]])

    def test_unknown_queries_are_named(self):
        # A ranking past the last query would score query 6, which Q lacks.
        rng = np.random.default_rng(61)
        bundle = random_bundle(rng, n_query=6, n_gallery=12)
        ranked = [RankedList(order) for order in eligible_orders(rng, bundle)]
        extra = RankedList(np.arange(12, dtype=np.int64))
        with pytest.raises(ValueError, match=r"got 7 rankings for 6 queries"):
            evaluate(bundle, ranked + [extra])


def test_evaluation_imports_no_ranking_or_training_module():
    # evaluation holds metrics only: ranking, verification and synthesis
    # stay out of an interpreter that imports it alone.
    code = ("import sys, rvrank.evaluation; "
            "print(sorted(m for m in sys.modules if m.startswith('rvrank.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(rvrank.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "['rvrank.datastore', 'rvrank.evaluation', 'rvrank.retrieval']\n"


class TestReportSerialisation:
    def test_json_layout_and_config_echo(self, tmp_path):
        bundle = labelled_instance([1, 0])
        report = evaluate(bundle, [RankedList([0, 1])], k_max=2)
        path = tmp_path / "report.json"
        report.write_json(path, config={"L": 10})
        data = json.loads(path.read_text())
        assert set(data) == {"cmc", "map", "auc", "num_evaluated",
                             "excluded_queries", "config"}
        assert data["config"] == {"L": 10}
        assert data["cmc"] == [1.0, 1.0]

    def test_per_query_csv_blanks_excluded_queries(self, tmp_path):
        bundle = labelled_instance([0, 0, 2])
        report = evaluate(bundle, [RankedList([0, 1, 2])])
        path = tmp_path / "per_query.csv"
        report.write_per_query_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_index,first_hit_rank,average_precision"
        assert lines[1] == "0,,"

    def test_sweep_csv_round_trip(self, tmp_path):
        rows = [(1, 0.25, 0.75), (5, 0.5, 1.0)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows, config_comment="config: {}")
        columns, _ = read_csv(path, SWEEP_HEADER, (int, float, float))
        assert list(zip(*(column.tolist() for column in columns))) == rows
        assert path.read_text().splitlines()[1] == ",".join(SWEEP_HEADER)

    def test_sweep_csv_floats_survive_repr_round_trip(self, tmp_path):
        rows = [(1, -0.12345678901234567, 5e-324)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        columns, _ = read_csv(path, SWEEP_HEADER, (int, float, float))
        assert list(zip(*(column.tolist() for column in columns))) == rows


class TestSweep:
    def test_width_one_row_equals_plain_retrieval(self):
        rng = np.random.default_rng(58)
        bundle = random_bundle(rng, n_query=5, n_gallery=20, n_identities=4)
        table = {}

        def scorer(query, cand):
            key = (query.index, cand.index)
            if key not in table:
                table[key] = float(rng.normal())
            return table[key]

        cfg = RankingConfig(P=20, L=10, Q=15)
        rows = sweep_L(bundle, pairwise(scorer), cfg, [1, 4])
        base = rerank_pipeline(bundle, None, cfg, stages=())
        report = evaluate(bundle, base, k_max=10)
        assert rows[0] == (1, report.cmc[0], report.cmc[9])

    def test_rows_follow_the_requested_order(self):
        rng = np.random.default_rng(59)
        bundle = random_bundle(rng, n_query=4, n_gallery=16)
        rows = sweep_L(bundle, pairwise(lambda q, g: 0.0), RankingConfig(P=16, Q=12),
                       [7, 2, 9])
        assert [r[0] for r in rows] == [7, 2, 9]

    def test_oracle_distance_scorer_improves_with_width(self):
        # Scoring with the negated true distance can only help as the window
        # grows, so rank-1 should be non-decreasing in L here.
        rng = np.random.default_rng(60)
        bundle = random_bundle(rng, n_query=6, n_gallery=24, n_identities=5)
        dist = distance_matrix(bundle.splits["Q"].features,
                               bundle.splits["G"].features)

        def scorer(query, cand):
            same = bundle.splits["G"][cand.index].identity == query.identity
            return 1.0 if same else -1.0 - dist[query.index, cand.index]

        rows = sweep_L(bundle, pairwise(scorer), RankingConfig(P=24, Q=20),
                       [1, 5, 10, 20])
        rank1 = [r[1] for r in rows]
        assert all(a <= b for a, b in zip(rank1, rank1[1:]))
