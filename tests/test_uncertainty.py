"""NU/IG math against independent oracles.

The entropy oracle recomputes probabilities by direct exp/sum and sums
-p*log(p) with fsum at full precision, never touching the production path.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import HALF, ONEHOT, UNIFORM, make_step
from igp.probe import Rollout
from igp.uncertainty import (
    DegenerateDistributionError,
    DegenerateStepError,
    EmptyRolloutError,
    IncomparableEstimatesError,
    IgScore,
    NuValue,
    information_gain,
    information_gain_from_rollouts,
    nu_from_steps,
    sequence_nu,
    step_normalized_uncertainty,
    token_entropy,
    topk_renormalize,
)


def entropy_oracle(logprobs):
    """Brute force: direct renormalization then -sum p ln p."""
    m = max(logprobs)
    weights = [math.exp(lp - m) for lp in logprobs]
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    return -math.fsum(p * math.log(p) for p in probs if p > 0)


def rollout_from_profiles(step_dicts, eos_last=True):
    steps = [
        make_step(d, index=i, is_eos=eos_last and i == len(step_dicts))
        for i, d in enumerate(step_dicts, 1)
    ]
    return Rollout(tuple(steps), "eos" if eos_last else "max_tokens")


logprob_lists = st.lists(
    st.floats(min_value=-30.0, max_value=5.0, allow_nan=False),
    min_size=2,
    max_size=40,
)


def step_from_values(values):
    return make_step({f"t{i:03d}": lp for i, lp in enumerate(values)})


class TestRenormalize:
    def test_two_equal_entries_split_mass(self):
        probs = dict(topk_renormalize(make_step({"a": -0.693147, "b": -0.693147})))
        assert probs == {"a": 0.5, "b": 0.5}

    def test_hand_softmax_two_thirds(self):
        probs = dict(topk_renormalize(make_step({"a": math.log(2), "b": 0.0})))
        assert probs["a"] == pytest.approx(2 / 3, abs=1e-12)
        assert probs["b"] == pytest.approx(1 / 3, abs=1e-12)

    def test_single_entry_renormalizes_to_one(self):
        assert topk_renormalize(make_step({"a": -3.2})) == [("a", 1.0)]

    def test_preserves_entry_order(self):
        step = make_step({"b": -0.1, "a": -0.2, "c": -0.3})
        assert [t for t, _ in topk_renormalize(step)] == ["b", "a", "c"]

    def test_all_minus_inf_is_degenerate(self):
        step = make_step({"a": -math.inf, "b": -math.inf})
        with pytest.raises(DegenerateDistributionError):
            topk_renormalize(step)

    @given(logprob_lists, st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_shift_invariance(self, lps, shift):
        base = dict(topk_renormalize(step_from_values(lps)))
        shifted = dict(topk_renormalize(step_from_values([lp + shift for lp in lps])))
        for tok, p in base.items():
            assert shifted[tok] == pytest.approx(p, abs=1e-12)

    @given(logprob_lists)
    def test_probabilities_sum_to_one(self, lps):
        total = math.fsum(p for _, p in topk_renormalize(step_from_values(lps)))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTokenEntropy:
    def test_uniform_four(self):
        probs = [(f"t{i}", 0.25) for i in range(4)]
        assert token_entropy(probs) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert token_entropy([("a", 1.0), ("b", 0.0)]) == 0.0

    def test_two_thirds_one_third(self):
        h = token_entropy([("a", 2 / 3), ("b", 1 / 3)])
        assert h == pytest.approx(0.636514, abs=1e-6)
        assert h == pytest.approx(entropy_oracle([math.log(2), 0.0]), abs=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            token_entropy([("a", 0.9), ("b", 0.3)])

    @given(logprob_lists)
    @settings(max_examples=200)
    def test_oracle_equivalence(self, lps):
        step = step_from_values(lps)
        h = token_entropy(topk_renormalize(step))
        assert h == pytest.approx(entropy_oracle(lps), abs=1e-9)


class TestStepUncertainty:
    def test_uniform_is_exactly_one(self):
        assert step_normalized_uncertainty(make_step(UNIFORM), 4) == 1.0

    def test_one_hot_is_exactly_zero(self):
        assert step_normalized_uncertainty(make_step(ONEHOT), 4) == 0.0

    def test_hand_ratio(self):
        u = step_normalized_uncertainty(make_step({"a": math.log(2), "b": 0.0}), 2)
        assert u == pytest.approx(0.636514 / 0.693147, abs=1e-5)

    def test_uses_actual_set_size_when_short(self):
        # Backend returned 2 entries though 8 were requested: normalize by
        # log 2 so the value stays in [0, 1].
        u = step_normalized_uncertainty(make_step({"a": 0.0, "b": 0.0}), 8)
        assert u == 1.0

    def test_truncates_to_requested_width(self):
        step = make_step({"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0})
        assert step_normalized_uncertainty(step, 2) == 1.0

    def test_single_usable_entry_is_degenerate(self):
        with pytest.raises(DegenerateStepError):
            step_normalized_uncertainty(make_step({"a": -3.0}), 4)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            step_normalized_uncertainty(make_step(UNIFORM), 1)

    def test_monotone_flattening_two_point(self):
        # Two-point distributions get strictly more uncertain toward (.5, .5).
        last = -1.0
        for i in range(1, 50):
            p = 0.5 + i / 100.0
            u = step_normalized_uncertainty(
                make_step({"a": math.log(p), "b": math.log(1 - p)}), 2
            )
            if last >= 0:
                assert u < last
            last = u

    @given(logprob_lists, st.integers(min_value=2, max_value=64))
    @settings(max_examples=200)
    def test_bounded(self, lps, k):
        u = step_normalized_uncertainty(step_from_values(lps), k)
        assert 0.0 <= u <= 1.0

    @given(logprob_lists, st.integers(min_value=2, max_value=64))
    def test_matches_probability_space_path(self, lps, k):
        step = step_from_values(lps)
        effective = step.entries[:k]
        if len(effective) < 2:
            return
        u = step_normalized_uncertainty(step, k)
        h = token_entropy(topk_renormalize(make_step(dict(effective))))
        assert u == pytest.approx(h / math.log(len(effective)), abs=1e-12)


class TestSequenceNu:
    def test_all_uniform_is_exactly_one(self):
        rollout = rollout_from_profiles([UNIFORM] * 5)
        assert sequence_nu(rollout, 4).value == 1.0

    def test_mean_of_two(self):
        rollout = rollout_from_profiles([UNIFORM, HALF])
        assert sequence_nu(rollout, 4).value == pytest.approx(0.75, abs=1e-12)

    def test_three_step_mean_matches_per_step_oracle(self):
        dists = [
            {"a": 0.0, "b": -0.4, "c": -2.0},
            {"a": 0.0, "b": -3.0, "c": -3.0},
            {"a": -0.1, "b": -0.1, "c": -0.1},
        ]
        rollout = rollout_from_profiles(dists)
        expected = math.fsum(
            entropy_oracle(list(d.values())) / math.log(3) for d in dists
        ) / 3
        assert sequence_nu(rollout, 3).value == pytest.approx(expected, abs=1e-9)

    def test_steps_used_records_length(self):
        nu = sequence_nu(rollout_from_profiles([UNIFORM, ONEHOT, UNIFORM]), 4)
        assert nu.steps_used == 3

    def test_empty_steps_rejected(self):
        with pytest.raises(EmptyRolloutError):
            nu_from_steps([], 4)

    def test_length_normalization(self):
        dists = [{"a": 0.0, "b": -0.7}, {"a": 0.0, "b": -2.2}]
        single = sequence_nu(rollout_from_profiles(dists), 2)
        doubled = sequence_nu(rollout_from_profiles(dists * 2), 2)
        assert doubled.value == pytest.approx(single.value, abs=1e-12)


class TestInformationGain:
    def nu(self, value, k=4, mt=8):
        return NuValue(value=value, steps_used=2, k_used=k, mt_used=mt)

    def test_subtraction(self):
        assert information_gain(self.nu(0.8), self.nu(0.3), "d").ig == pytest.approx(0.5)

    def test_identical_nu_gives_zero(self):
        assert information_gain(self.nu(0.6), self.nu(0.6), "d").ig == 0.0

    def test_negative_gain(self):
        assert information_gain(self.nu(0.6), self.nu(0.9), "d").ig == pytest.approx(-0.3)

    def test_k_mismatch_rejected(self):
        with pytest.raises(IncomparableEstimatesError):
            information_gain(self.nu(0.5, k=4), self.nu(0.5, k=8), "d")

    def test_mt_mismatch_rejected(self):
        with pytest.raises(IncomparableEstimatesError):
            information_gain(self.nu(0.5, mt=8), self.nu(0.5, mt=16), "d")

    def test_ig_must_equal_difference(self):
        with pytest.raises(ValueError):
            IgScore("d", self.nu(0.8), self.nu(0.3), ig=0.4)

    def test_identical_rollouts_give_exactly_zero(self):
        rollout = rollout_from_profiles([UNIFORM, HALF, ONEHOT])
        score = information_gain_from_rollouts(rollout, rollout, 4, "d")
        assert score.ig == 0.0
