"""Shape tests for the reproduced evaluation artifacts (DESIGN.md §4).

Benchmarks (``benchmarks/``) run the full-size harnesses and print the
paper-vs-measured tables; these tests run reduced configurations and
assert the *shape* each paper result claims, so a regression in any
pipeline stage fails CI rather than silently bending a curve.
"""
import pytest

from repro.experiments import (
    e1_views,
    e2_view_reuse,
    e4_nerd,
    e5_obr,
    e6_sim,
    e7_live,
    e8_kge,
)


class TestE4NerdAnnotation:
    @pytest.fixture(scope="class")
    def result(self):
        return e4_nerd.run(n_entities=400, n_mentions=600)

    def test_nerd_beats_baseline_recall_at_high_confidence(self, result):
        row = next(s for s in result["sweep"] if s["threshold"] == 0.9)
        assert row["recall_improvement_pct"] > 50.0  # paper: ~+70%

    def test_recall_improvement_diminishes_at_lower_thresholds(self, result):
        by_tau = {s["threshold"]: s["recall_improvement_pct"] for s in result["sweep"]}
        assert by_tau[0.9] > by_tau[0.5]

    def test_precision_improvement_small_at_high_confidence(self, result):
        row = next(s for s in result["sweep"] if s["threshold"] == 0.9)
        gain = row["precision_improvement_pct"]
        if gain != gain:  # baseline accepted nothing at 0.9 → undefined
            pytest.skip("baseline accepts no predictions at 0.9 at this scale")
        # paper reports ≤ +3.4%; our corpus is deliberately tail-heavy so
        # the gain is larger — assert the direction and a sane magnitude
        assert -2.0 <= gain <= 60.0

    def test_nerd_precision_high_everywhere(self, result):
        for s in result["sweep"]:
            assert s["nerd"]["precision"] > 0.9


class TestE5ObjectResolution:
    @pytest.fixture(scope="class")
    def result(self):
        return e5_obr.run(n_entities=400, n_tasks=500)

    def test_type_hints_improve_precision(self, result):
        assert result["precision_improvement_pct"] >= 0.0  # paper: ~+10%

    def test_type_hints_improve_recall(self, result):
        assert result["recall_improvement_pct"] > 20.0  # paper: ~+25%

    def test_ordering_baseline_nerd_typed(self, result):
        s = result["systems"]
        assert s["nerd_typed"]["recall"] >= s["nerd"]["recall"] > s["baseline"]["recall"]


class TestE6LearnedSimilarity:
    @pytest.fixture(scope="class")
    def result(self):
        return e6_sim.run(n_entities=500)

    def test_gain_exceeds_twenty_points_somewhere(self, result):
        assert any(p["improvement_points"] > 20 for p in result["points"])

    def test_learned_never_worse(self, result):
        for p in result["points"]:
            assert p["learned_recall"] >= p["deterministic_recall"]


class TestE7LiveLatency:
    @pytest.fixture(scope="class")
    def result(self):
        return e7_live.run(n_entities=600, n_queries=400, n_stream_events=80)

    def test_p95_under_20ms(self, result):
        assert result["p95_ms"] < 20.0  # the paper's SLA

    def test_all_queries_answered(self, result):
        assert result["n_queries"] == 400


class TestE8Embeddings:
    @pytest.fixture(scope="class")
    def result(self):
        return e8_kge.run(n_entities=400, epochs=25)

    @pytest.mark.parametrize("model", ["transe", "distmult"])
    def test_verification_auc_above_chance(self, result, model):
        assert result["models"][model]["verification_auc"] > 0.8

    @pytest.mark.parametrize("model", ["transe", "distmult"])
    def test_imputation_recovers_tails(self, result, model):
        assert result["models"][model]["imputation_hits@10"] > 0.5

    def test_people_subset_nonempty(self, result):
        for m in result["models"].values():
            assert 0 < m["n_people_subset"] < m["n_entities_embedded"]


class TestE1E2Spark:
    """Reduced-size timing shapes (full size in benchmarks)."""

    def test_e1_optimized_wins_on_join_heavy_views(self, tuned_spark):
        res = e1_views.run(tuned_spark, n_entities=1200, reps=1)
        per = {v["view"]: v for v in res["per_view"]}
        # join-heavy views must not regress (paper: no view regressed)
        assert per["person"]["speedup"] > 1.0
        assert per["movie"]["speedup"] > 1.0

    def test_e2_reuse_improves_runtime(self, tuned_spark):
        res = e2_view_reuse.run(tuned_spark, n_entities=800, reps=1)
        assert res["improvement_pct"] > 10.0  # paper: 26%

    def test_format_rows_mentions_paper(self, tuned_spark):
        res = e2_view_reuse.run(tuned_spark, n_entities=400, reps=1)
        assert "26%" in e2_view_reuse.format_rows(res)
