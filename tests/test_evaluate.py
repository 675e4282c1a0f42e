"""Metric fidelity: normalization, token F1, NTE, NDCG, Spearman.

scipy.stats serves as the independent oracle for rank correlation; NDCG is
checked against hand-evaluated formula arithmetic and a brute-force
permutation sweep.
"""

import itertools
import math
import re

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from igp.evaluate import (
    DatasetSummary,
    SampleResult,
    average_ranks,
    dataset_summary,
    f1_best_of_refs,
    is_closed_set_yes_no,
    load_qrels,
    ndcg_at_k,
    normalize_answer,
    spearman,
    token_f1,
)


class TestNormalizeAnswer:
    def test_lowercase_punct_whitespace(self):
        assert normalize_answer("The  CAT!") == "the cat"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_article_removal_is_opt_in(self):
        assert normalize_answer("the cat") == "the cat"

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestTokenF1:
    def test_identity(self):
        assert token_f1("cat", "cat") == (1.0, 1.0, 1.0)

    def test_partial_overlap(self):
        p, r, f1 = token_f1("the cat sat", "cat")
        assert p == pytest.approx(1 / 3)
        assert r == 1.0
        assert f1 == pytest.approx(0.5)

    def test_multiset_counts(self):
        p, r, f1 = token_f1("a a b", "a b b")
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_no_overlap(self):
        assert token_f1("cat", "dog") == (0.0, 0.0, 0.0)

    def test_empty_side(self):
        assert token_f1("", "cat") == (0.0, 0.0, 0.0)
        assert token_f1("cat", "!!!") == (0.0, 0.0, 0.0)

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_symmetry(self, a, b):
        assert token_f1(a, b)[2] == token_f1(b, a)[2]


class TestBestOfRefs:
    def test_exact_member(self):
        assert f1_best_of_refs("cat", ["cat", "feline"]) == 1.0

    def test_closed_set_normalization_equality(self):
        assert f1_best_of_refs("Yes.", ["yes"], closed_set_yes_no=True) == 1.0

    def test_closed_set_mismatch(self):
        assert f1_best_of_refs("yes", ["no"], closed_set_yes_no=True) == 0.0

    def test_empty_refs_is_an_error(self):
        with pytest.raises(ValueError):
            f1_best_of_refs("cat", [])

    def test_closed_set_detection(self):
        assert is_closed_set_yes_no(["Yes", "NO"])
        assert not is_closed_set_yes_no(["yes", "maybe"])
        assert not is_closed_set_yes_no([])

    @given(
        st.text(max_size=30),
        st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=4),
        st.text(min_size=1, max_size=20),
    )
    def test_monotone_in_reference_set(self, pred, refs, extra):
        assert f1_best_of_refs(pred, refs + [extra]) >= f1_best_of_refs(pred, refs)


class TestDatasetSummary:
    def sample(self, f1, tk):
        return SampleResult("q", "pred", f1, tk)

    def test_means(self):
        summary = dataset_summary([self.sample(0.5, 100), self.sample(1.0, 200)])
        assert summary.f1_mean == pytest.approx(0.75)
        assert summary.tk_mean == pytest.approx(150.0)
        assert summary.n_samples == 2
        assert summary.nte is None

    def test_single_sample(self):
        summary = dataset_summary([self.sample(0.3, 42)])
        assert summary.f1_mean == 0.3
        assert summary.tk_mean == 42.0

    def test_nte_against_itself_is_exactly_one(self):
        base = dataset_summary([self.sample(0.4, 120), self.sample(0.6, 80)])
        assert dataset_summary(
            [self.sample(0.4, 120), self.sample(0.6, 80)], baseline=base
        ).nte == 1.0

    def test_nte_arithmetic(self):
        base = DatasetSummary(n_samples=1, f1_mean=0.5, tk_mean=100.0)
        summary = dataset_summary([self.sample(0.6, 50)], baseline=base)
        # F1 ratio 1.2 over TK ratio 0.5.
        assert summary.nte == pytest.approx(2.4)

    def test_zero_baseline_f1_undefined(self):
        base = DatasetSummary(n_samples=1, f1_mean=0.0, tk_mean=100.0)
        with pytest.raises(ValueError):
            dataset_summary([self.sample(0.6, 50)], baseline=base)

    def test_zero_tk_undefined(self):
        base = DatasetSummary(n_samples=1, f1_mean=0.5, tk_mean=100.0)
        with pytest.raises(ValueError):
            dataset_summary([self.sample(0.6, 0)], baseline=base)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            dataset_summary([])

    def test_f1_of_none_left_out_of_the_f1_mean_only(self):
        summary = dataset_summary(
            [self.sample(0.5, 100), SampleResult("u", None, None, 200), self.sample(1.0, 30)]
        )
        assert summary.f1_mean == 0.75
        assert summary.tk_mean == 110.0
        assert summary.n_samples == 3

    def test_no_f1_at_all_gives_no_f1_mean(self):
        summary = dataset_summary([SampleResult("u", None, None, 40)])
        assert summary.f1_mean is None
        assert summary.tk_mean == 40.0

    def test_ndcg_mean_over_the_samples_that_have_one(self):
        samples = [
            SampleResult("a", "x", 0.5, 10, ndcg=0.25),
            SampleResult("b", "x", 0.5, 10),
            SampleResult("c", "x", 0.5, 10, ndcg=1.0),
        ]
        assert dataset_summary(samples).ndcg_mean == 0.625
        assert dataset_summary(samples[1:2]).ndcg_mean is None

    @pytest.mark.parametrize("side", ["sample", "baseline"])
    def test_nte_against_an_f1_of_none_undefined(self, side):
        unlabeled = [SampleResult("u", None, None, 50)]
        labeled = [self.sample(0.6, 50)]
        results, base = (unlabeled, labeled) if side == "sample" else (labeled, unlabeled)
        with pytest.raises(ValueError, match="NTE undefined"):
            dataset_summary(results, baseline=dataset_summary(base))


class TestNdcg:
    def test_ideal_ranking_scores_one(self):
        qrels = {"a": 3, "b": 2, "c": 0}
        assert ndcg_at_k(["a", "b", "c"], qrels, 3) == pytest.approx(1.0)

    def test_hand_case_zero_three(self):
        qrels = {"a": 0, "b": 3}
        expected = (7 / math.log2(3)) / 7.0
        assert ndcg_at_k(["a", "b"], qrels, 2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.63093, abs=1e-5)

    def test_hand_case_binary(self):
        qrels = {"a": 1, "b": 0, "c": 1}
        expected = (1.0 + 0.0 + 1.0 / 2.0) / (1.0 + 1.0 / math.log2(3))
        assert ndcg_at_k(["a", "b", "c"], qrels, 3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.91972, abs=1e-5)

    def test_missing_judgments_count_as_zero(self):
        assert ndcg_at_k(["x", "a"], {"a": 2}, 2) == pytest.approx(
            (3 / math.log2(3)) / 3
        )

    def test_all_zero_relevance_is_zero(self):
        assert ndcg_at_k(["a", "b"], {"a": 0, "b": 0}, 2) == 0.0

    def test_ideal_uses_all_judged_passages(self):
        # The judged-but-unretrieved rel-3 passage caps the achievable score.
        qrels = {"a": 1, "hidden": 3}
        assert ndcg_at_k(["a"], qrels, 2) == pytest.approx(1.0 / (7 + 1 / math.log2(3)))

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, 0)

    def test_no_permutation_beats_ideal(self):
        qrels = {f"p{i}": rel for i, rel in enumerate((3, 2, 2, 1, 0))}
        ideal = max(
            ndcg_at_k(list(perm), qrels, 5)
            for perm in itertools.permutations(qrels.keys())
        )
        assert ideal == pytest.approx(1.0, abs=1e-12)
        for perm in itertools.permutations(qrels.keys()):
            ranked = list(perm)
            score = ndcg_at_k(ranked, qrels, 5)
            assert score <= 1.0 + 1e-12
            rels = [qrels[p] for p in ranked]
            if rels == sorted(rels, reverse=True):
                assert score == pytest.approx(1.0, abs=1e-12)


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_case_point_eight(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_vector_undefined(self):
        with pytest.raises(ValueError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_average_ranks_ties(self):
        assert average_ranks([10, 10, 20]) == [1.5, 1.5, 3.0]
        assert average_ranks([5, 1, 5, 5]) == [3.0, 1.0, 3.0, 3.0]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=-50, max_value=50),
            ),
            min_size=3,
            max_size=30,
        )
    )
    @settings(max_examples=150)
    def test_matches_scipy_with_ties(self, pairs):
        xs = [float(x) for x, _ in pairs]
        ys = [float(y) for _, y in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-9)


class TestQrels:
    def test_load_tsv(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tp1\t2\nq1\tp2\t0\nq2\tp9\t1\n", encoding="utf-8")
        qrels = load_qrels(path)
        assert qrels == {"q1": {"p1": 2, "p2": 0}, "q2": {"p9": 1}}

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("query-id\tcorpus-id\tscore\nq1\tp1\t3\n", encoding="utf-8")
        assert load_qrels(path) == {"q1": {"p1": 3}}

    def test_negative_relevance_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\tp1\t-1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_qrels(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q1\tp1\n", "2: expected 3 tab-separated fields"),
            ("q1\tp1\t1\tx\n", "2: expected 3 tab-separated fields"),
            ("q1\tp1\thigh\n", "2: relevance is not an integer"),
        ],
        ids=["two-fields", "four-fields", "relevance-word"],
    )
    def test_malformed_row_after_the_first_rejected(self, tmp_path, text, message):
        path = tmp_path / "qrels.tsv"
        path.write_text("q0\tp0\t1\n" + text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
            load_qrels(path)

    def test_repeated_judgment_rejected(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q0\tp1\t1\nq0\tp2\t0\nq0\tp1\t3\n", encoding="utf-8")
        message = f"{path}:3: duplicate judgment for q0/p1 (first on line 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_qrels(path)
