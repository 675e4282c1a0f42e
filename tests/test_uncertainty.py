"""NU/IG math against independent oracles.

The entropy oracle recomputes probabilities by direct exp/sum and sums
-p*log(p) with fsum at full precision, never touching the production path.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import igp.uncertainty as uncertainty
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
    steps = [make_step(d, index=i) for i, d in enumerate(step_dicts, 1)]
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


class TestNuMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=-30.0, max_value=5.0, allow_nan=False), min_size=2, max_size=8),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.tuples(st.integers(min_value=2, max_value=9), st.sampled_from([None, 1, 8, 32])),
            min_size=1,
            max_size=12,
        ),
    )
    def test_memoized_nu_equals_a_fresh_computation(self, step_values, calls):
        # One rollout asked at mixed widths and caps, in any order and with
        # repeats: no (k, mt) ever answers with another one's value.
        rollout = rollout_from_profiles(
            [{f"t{i:03d}": lp for i, lp in enumerate(values)} for values in step_values]
        )
        for k, mt in calls:
            assert sequence_nu(rollout, k, mt) == nu_from_steps(rollout.steps, k, mt)

    def test_repeated_call_computes_once(self, nu_computations):
        rollout = rollout_from_profiles([UNIFORM, HALF])
        for k, mt in [(4, 8), (2, 8), (4, 8), (4, None), (2, 8), (4, None)]:
            sequence_nu(rollout, k, mt)
        assert nu_computations == [(4, 8), (2, 8), (4, None)]

    def test_memo_outside_equality_hash_repr_and_replace(self):
        a = rollout_from_profiles([UNIFORM, HALF])
        b = rollout_from_profiles([UNIFORM, HALF])
        sequence_nu(a, 4, 8)
        sequence_nu(a, 2)
        assert a._nu_memo and not b._nu_memo
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "memo" not in repr(a)
        fresh = replace(a, terminated_by="max_tokens")
        assert fresh._nu_memo == {}
        assert fresh._nu_memo is not a._nu_memo


def reference_step_nu(step, k):
    """The per-width formula without shared terms: cut the entries to k,
    shift by their max, and exponentiate and sum afresh at every width."""
    if k < 2:
        raise ValueError("k must be >= 2")
    effective = step.entries[:k]
    k_prime = len(effective)
    if k_prime < 2:
        raise DegenerateStepError(
            f"step {step.step_index} has {k_prime} usable entries; need >= 2"
        )
    logprobs = [lp for _, lp in effective]
    m = max(logprobs)
    if m == -math.inf:
        raise DegenerateDistributionError("all entries carry zero probability")
    shifted = [lp - m for lp in logprobs]
    exps = [math.exp(z) for z in shifted]
    total = math.fsum(exps)
    dot = math.fsum(z * e for z, e in zip(shifted, exps) if e > 0.0)
    h = math.log(total) - dot / total
    return min(max(h / math.log(k_prime), 0.0), 1.0)


def outcome(fn, *args):
    """A float as its exact bits (sign of zero included), or an exception
    as its type and message."""
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return type(exc), str(exc)


finite_logprobs = st.floats(min_value=-60.0, max_value=5.0, allow_nan=False)
# One list of logprobs per kind of step the shared terms must match on:
# general, uniform, one-hot, -inf-tailed, subnormal or underflowing tails
# (z < -745 makes exp return 0), and all -inf. make_step sorts them.
step_logprobs = st.one_of(
    st.lists(finite_logprobs, min_size=1, max_size=40),
    st.integers(1, 40).flatmap(lambda n: st.lists(st.just(-1.5), min_size=n, max_size=n)),
    st.integers(1, 40).map(lambda n: [0.0] + [-math.inf] * (n - 1)),
    st.tuples(
        st.lists(finite_logprobs, min_size=1, max_size=20),
        st.integers(1, 20),
    ).map(lambda t: t[0] + [-math.inf] * t[1]),
    st.tuples(
        finite_logprobs,
        st.lists(st.floats(min_value=-2000.0, max_value=-700.0), min_size=1, max_size=20),
    ).map(lambda t: [t[0]] + [t[0] + z for z in t[1]]),
    st.integers(1, 6).map(lambda n: [-math.inf] * n),
)


class TestSharedStepTerms:
    @settings(max_examples=300)
    @given(step_logprobs, st.lists(st.integers(1, 45), min_size=1, max_size=6))
    def test_every_width_matches_the_reference_bit_for_bit(self, values, widths):
        # Widths below, at and above the entry count, in any order, on one
        # step whose terms the first width fills; errors match in type and
        # message.
        step = step_from_values(values)
        for k in widths + [len(values) - 1, len(values), len(values) + 1]:
            assert outcome(step_normalized_uncertainty, step, k) == outcome(
                reference_step_nu, step, k
            )

    def test_underflowing_and_minus_inf_entries_add_zero_terms(self):
        step = make_step({"a": 0.0, "b": -0.5, "c": -800.0, "d": -math.inf})
        assert step_normalized_uncertainty(step, 4).hex() == reference_step_nu(step, 4).hex()
        _, zes = step._nu_terms
        assert [z.hex() for z in zes[2:]] == [(0.0).hex()] * 2

    def test_degenerate_steps_raise_as_the_reference(self):
        cases = [
            (make_step(UNIFORM), 1),
            (make_step({"a": -3.0}), 4),
            (make_step({"a": -math.inf, "b": -math.inf}), 2),
        ]
        for step, k in cases:
            expected = outcome(reference_step_nu, step, k)
            assert isinstance(expected, tuple)
            assert outcome(step_normalized_uncertainty, step, k) == expected
            assert step._nu_terms is None

    def test_a_second_width_reuses_the_terms(self, monkeypatch, nu_computations):
        fills = []
        real = uncertainty._fill_nu_terms

        def counting(step):
            fills.append(step)
            return real(step)

        monkeypatch.setattr(uncertainty, "_fill_nu_terms", counting)
        rollout = rollout_from_profiles([UNIFORM, HALF, ONEHOT])
        for k in (4, 2, 3, 4, 2):
            sequence_nu(rollout, k)
        assert nu_computations == [(4, None), (2, None), (3, None)]
        assert [id(step) for step in fills] == [id(step) for step in rollout.steps]

    def test_terms_outside_equality_hash_repr_and_replace(self):
        a, b = make_step(HALF), make_step(HALF)
        step_normalized_uncertainty(a, 4)
        assert a._nu_terms is not None and b._nu_terms is None
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "terms" not in repr(a)
        assert replace(a, step_index=2)._nu_terms is None


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
