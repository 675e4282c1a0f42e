"""Stub and HTTP backend behavior: rollout termination, tie-breaking,
forced-continuation scoring, retries, and error classification."""

import json

import pytest
from hypothesis import given, strategies as st

from helpers import steps_from_profile
from igp.core import CandidateSet, Passage, Query
from igp.probe import (
    HttpBackend,
    MalformedResponseError,
    MissingLogprobsError,
    ProbeConfig,
    ProbeError,
    Rollout,
    StepDistribution,
    StubBackend,
    TransportError,
    UnknownPromptError,
    UnsupportedCapabilityError,
)
from igp.select import BaselineUnavailableError, qlm_rerank

CFG = ProbeConfig(top_k=4, max_tokens=32)


def stub(prompt_entries, default=None, **extra):
    table = {"prompts": prompt_entries}
    if default is not None:
        table["default"] = default
    table.update(extra)
    return StubBackend(table)


class TestProbeConfig:
    def test_k_must_allow_normalization(self):
        with pytest.raises(ValueError):
            ProbeConfig(top_k=1)

    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            ProbeConfig(max_tokens=0)

    def test_defaults(self):
        cfg = ProbeConfig()
        assert cfg.top_k == 128
        assert cfg.max_tokens == 32


class TestStepDistribution:
    def test_requires_sorted_entries(self):
        with pytest.raises(ValueError):
            StepDistribution(1, (("a", -2.0), ("b", -1.0)), "a")

    def test_tie_break_is_lexicographic(self):
        step = StepDistribution(1, (("a", -1.0), ("b", -1.0)), "a")
        assert step.entries[0][0] == "a"
        with pytest.raises(ValueError):
            StepDistribution(1, (("b", -1.0), ("a", -1.0)), "b")

    def test_chosen_must_be_argmax(self):
        with pytest.raises(ValueError):
            StepDistribution(1, (("a", -1.0), ("b", -2.0)), "b")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StepDistribution(1, (("a", float("nan")),), "a")


class TestStubRollout:
    def test_eos_at_step_two(self):
        backend = stub({"p": {"steps": steps_from_profile("uo", eos_last=True)}})
        rollout = backend.greedy_rollout("p", CFG)
        assert rollout.effective_length == 2
        assert rollout.terminated_by == "eos"
        assert rollout.eos_signal == "step_flag"

    def test_max_tokens_cap(self):
        backend = stub({"p": {"steps": steps_from_profile("uuuuuu")}})
        rollout = backend.greedy_rollout("p", ProbeConfig(top_k=4, max_tokens=4))
        assert rollout.effective_length == 4
        assert rollout.terminated_by == "max_tokens"

    def test_table_end_counts_as_generation_end(self):
        backend = stub({"p": {"steps": steps_from_profile("uuu")}})
        rollout = backend.greedy_rollout("p", CFG)
        assert rollout.effective_length == 3
        assert rollout.terminated_by == "eos"
        assert rollout.eos_signal == "table_end"

    def test_steps_match_table(self):
        table = {
            "p": {
                "steps": [
                    {"top_logprobs": {"x": -0.1, "y": -1.4}},
                    {"top_logprobs": {"z": -0.2, "x": -0.9}},
                    {"top_logprobs": {"w": -0.3}},
                ]
            }
        }
        rollout = stub(table).greedy_rollout("p", CFG)
        assert [dict(s.entries) for s in rollout.steps] == [
            {"x": -0.1, "y": -1.4},
            {"z": -0.2, "x": -0.9},
            {"w": -0.3},
        ]
        assert rollout.chosen_tokens == ("x", "z", "w")

    def test_entries_truncated_to_top_k(self):
        table = {"p": {"steps": [{"top_logprobs": {"a": -0.1, "b": -0.2, "c": -0.3}}]}}
        rollout = stub(table).greedy_rollout("p", ProbeConfig(top_k=2, max_tokens=4))
        assert [t for t, _ in rollout.steps[0].entries] == ["a", "b"]

    def test_referential_transparency(self):
        backend = stub({"p": {"steps": steps_from_profile("uou")}})
        assert backend.greedy_rollout("p", CFG) == backend.greedy_rollout("p", CFG)

    def test_unknown_prompt_without_default(self):
        backend = stub({"p": {"steps": steps_from_profile("u")}})
        with pytest.raises(UnknownPromptError):
            backend.greedy_rollout("other", CFG)

    def test_default_entry_is_fallback(self):
        backend = stub({}, default={"steps": steps_from_profile("uu")})
        assert backend.greedy_rollout("anything", CFG).effective_length == 2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stub.json"
        path.write_text(
            json.dumps({"prompts": {"p": {"steps": steps_from_profile("u")}}}),
            encoding="utf-8",
        )
        assert StubBackend.load(path).greedy_rollout("p", CFG).effective_length == 1


class TestStubForceScore:
    def test_constant_logprob(self):
        backend = stub({"p": {"steps": steps_from_profile("u"), "forced_logprob": -0.5}})
        assert backend.force_score("p", "one two three four", CFG) == [-0.5] * 4

    def test_explicit_table(self):
        backend = stub({"p": {"forced": {"the answer": [-0.1, -0.9]}}})
        assert backend.force_score("p", "the answer", CFG) == [-0.1, -0.9]

    def test_greedy_continuation_matches_rollout_logprobs(self):
        table = {
            "p": {
                "steps": [
                    {"top_logprobs": {"cats": -0.2, "dogs": -1.0}},
                    {"top_logprobs": {"purr": -0.4, "bark": -2.0}},
                ]
            }
        }
        backend = stub(table)
        rollout = backend.greedy_rollout("p", CFG)
        continuation = " ".join(rollout.chosen_tokens)
        scores = backend.force_score("p", continuation, CFG)
        assert scores == [dict(s.entries)[s.chosen_token] for s in rollout.steps]

    def test_oov_token_gets_floor_logprob(self):
        backend = stub(
            {"p": {"steps": [{"top_logprobs": {"a": -0.1}}]}}, oov_logprob=-9.0
        )
        assert backend.force_score("p", "zzz", CFG) == [-9.0]

    def test_empty_continuation_rejected(self):
        backend = stub({"p": {"steps": steps_from_profile("u")}})
        with pytest.raises(ValueError):
            backend.force_score("p", "", CFG)


class TestStubFirstStepAndText:
    def test_complete_text_prefers_explicit_text(self):
        backend = stub({"p": {"steps": steps_from_profile("u"), "text": " Paris "}})
        assert backend.complete_text("p", 8) == "Paris"

    def test_complete_text_joins_chosen_tokens(self):
        table = {
            "p": {
                "steps": [
                    {"top_logprobs": {"blue": -0.1}},
                    {"top_logprobs": {"whale": -0.1}},
                    {"top_logprobs": {"</s>": -0.1}, "eos": True},
                ]
            }
        }
        assert stub(table).complete_text("p", 8) == "blue whale"


class FakeTransport:
    """Scripted (status, body) responses, recording each payload."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.payloads = []

    def __call__(self, url, payload):
        self.payloads.append((url, payload))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def completion_body(tokens, token_logprobs, top_logprobs, finish_reason="stop", text=""):
    return {
        "choices": [
            {
                "text": text,
                "finish_reason": finish_reason,
                "logprobs": {
                    "tokens": tokens,
                    "token_logprobs": token_logprobs,
                    "top_logprobs": top_logprobs,
                },
            }
        ]
    }


def http_backend(responses, **kwargs):
    transport = FakeTransport(responses)
    backend = HttpBackend(
        "http://example/v1",
        "test-model",
        transport=transport,
        sleep=lambda _: None,
        **kwargs,
    )
    return backend, transport


class TestHttpBackend:
    def test_request_carries_probing_protocol(self):
        body = completion_body(["a"], [-0.1], [{"a": -0.1, "b": -2.0}])
        backend, transport = http_backend([(200, body)])
        backend.greedy_rollout("prompt", ProbeConfig(top_k=5, max_tokens=7))
        url, payload = transport.payloads[0]
        assert url == "http://example/v1/completions"
        assert payload["temperature"] == 0
        assert payload["max_tokens"] == 7
        assert payload["logprobs"] == 5

    def test_stop_finish_marks_eos(self):
        body = completion_body(
            ["a", "b"], [-0.1, -0.2], [{"a": -0.1}, {"b": -0.2, "c": -1.0}]
        )
        backend, _ = http_backend([(200, body)])
        rollout = backend.greedy_rollout("p", CFG)
        assert rollout.terminated_by == "eos"
        assert rollout.eos_signal == "finish_reason"
        assert rollout.steps[-1].is_eos

    def test_length_finish_is_max_tokens(self):
        body = completion_body(["a"], [-0.1], [{"a": -0.1}], finish_reason="length")
        backend, _ = http_backend([(200, body)])
        assert backend.greedy_rollout("p", CFG).terminated_by == "max_tokens"

    def test_missing_logprobs_is_fatal_config_error(self):
        body = {"choices": [{"text": "x", "finish_reason": "stop", "logprobs": None}]}
        backend, _ = http_backend([(200, body)])
        with pytest.raises(MissingLogprobsError):
            backend.greedy_rollout("p", CFG)

    def test_malformed_payload_not_retried(self):
        backend, transport = http_backend([(200, {"nope": True})])
        with pytest.raises(MalformedResponseError):
            backend.greedy_rollout("p", CFG)
        assert len(transport.payloads) == 1

    def test_transport_errors_retried_with_backoff(self):
        body = completion_body(["a"], [-0.1], [{"a": -0.1}])
        backend, transport = http_backend(
            [TransportError("boom"), (503, {}), (200, body)], max_retries=3
        )
        rollout = backend.greedy_rollout("p", CFG)
        assert rollout.effective_length == 1
        assert len(transport.payloads) == 3

    def test_retries_exhausted(self):
        backend, _ = http_backend([TransportError("boom")] * 3, max_retries=2)
        with pytest.raises(TransportError):
            backend.greedy_rollout("p", CFG)

    def test_client_error_is_fatal(self):
        backend, transport = http_backend([(404, {"error": "no model"})])
        with pytest.raises(ProbeError):
            backend.greedy_rollout("p", CFG)
        assert len(transport.payloads) == 1

    def test_force_score_selects_continuation_tokens(self):
        prompt, continuation = "ab ", "cd ef"
        body = {
            "choices": [
                {
                    "finish_reason": "stop",
                    "logprobs": {
                        "tokens": ["ab", " cd", " ef"],
                        "token_logprobs": [None, -0.4, -0.6],
                        "text_offset": [0, 3, 6],
                    },
                }
            ]
        }
        backend, transport = http_backend([(200, body)])
        scores = backend.force_score(prompt, continuation, CFG)
        assert scores == [-0.4, -0.6]
        assert transport.payloads[0][1]["echo"] is True
        assert transport.payloads[0][1]["max_tokens"] == 0

    def test_force_score_without_echo_support(self):
        body = {"choices": [{"finish_reason": "stop", "logprobs": {"tokens": []}}]}
        backend, _ = http_backend([(200, body)])
        with pytest.raises(UnsupportedCapabilityError):
            backend.force_score("p", "cont", CFG)

    def test_complete_text(self):
        backend, transport = http_backend(
            [(200, {"choices": [{"text": " Paris\n"}]})]
        )
        assert backend.complete_text("p", 16) == "Paris"
        assert "logprobs" not in transport.payloads[0][1]


def choice(index, tokens, finish_reason="stop"):
    """One completions choice whose every step puts its token on top."""
    return {
        "index": index,
        "text": "".join(tokens),
        "finish_reason": finish_reason,
        "logprobs": {
            "tokens": tokens,
            "token_logprobs": [-0.1] * len(tokens),
            "top_logprobs": [{tok: -0.1, "zz": -3.0} for tok in tokens],
        },
    }


def echo_choice(index, offsets, token_logprobs):
    """One echo-scoring choice: a logprob per token, at its text offset."""
    return {
        "index": index,
        "finish_reason": "length",
        "logprobs": {"token_logprobs": token_logprobs, "text_offset": offsets},
    }


class TestHttpBatch:
    def test_one_list_prompt_payload(self):
        body = {"choices": [choice(0, ["a"]), choice(1, ["b"])]}
        backend, transport = http_backend([(200, body)])
        results = backend.greedy_rollouts(["p0", "p1"], ProbeConfig(top_k=5, max_tokens=7))
        assert [r.chosen_tokens for r in results] == [("a",), ("b",)]
        (url, payload), = transport.payloads
        assert url == "http://example/v1/completions"
        assert payload["prompt"] == ["p0", "p1"]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0
        assert payload["max_tokens"] == 7
        assert payload["logprobs"] == 5

    def test_choices_matched_by_index(self):
        body = {"choices": [choice(2, ["c"]), choice(0, ["a"]), choice(1, ["b"], "length")]}
        backend, _ = http_backend([(200, body)])
        results = backend.greedy_rollouts(["p0", "p1", "p2"], CFG)
        assert [r.chosen_tokens for r in results] == [("a",), ("b",), ("c",)]
        assert [r.terminated_by for r in results] == ["eos", "max_tokens", "eos"]

    def test_malformed_choice_fails_its_prompt_only(self):
        broken = dict(choice(1, ["b"]), logprobs=None)
        body = {"choices": [choice(0, ["a"]), broken, choice(2, ["c"])]}
        backend, transport = http_backend([(200, body)])
        first, second, third = backend.greedy_rollouts(["p0", "p1", "p2"], CFG)
        assert isinstance(second, MissingLogprobsError)
        assert first.chosen_tokens == ("a",) and third.chosen_tokens == ("c",)
        assert len(transport.payloads) == 1

    def test_refused_batch_resent_one_prompt_per_request(self):
        refusal = (404, {"error": "no response for p1"})
        body = completion_body(["a"], [-0.1], [{"a": -0.1}])
        backend, transport = http_backend([(404, {"error": "batch"}), (200, body), refusal])
        first, second = backend.greedy_rollouts(["p0", "p1"], CFG)
        assert first.chosen_tokens == ("a",)
        lone, _ = http_backend([refusal])
        with pytest.raises(ProbeError) as alone:
            lone.greedy_rollout("p1", CFG)
        assert type(second) is type(alone.value)
        assert str(second) == str(alone.value)
        assert [payload["prompt"] for _, payload in transport.payloads] == [["p0", "p1"], "p0", "p1"]

    def test_mismatched_choice_set_resent_one_prompt_per_request(self):
        short = {"choices": [choice(0, ["a"])]}
        backend, transport = http_backend(
            [(200, short), (200, {"choices": [choice(0, ["a"])]}), (200, {"choices": [choice(0, ["b"])]})]
        )
        results = backend.greedy_rollouts(["p0", "p1"], CFG)
        assert [r.chosen_tokens for r in results] == [("a",), ("b",)]
        assert len(transport.payloads) == 3

    def test_exhausted_transport_fails_every_prompt_without_resend(self):
        backend, transport = http_backend([TransportError("boom")] * 3, max_retries=2)
        results = backend.greedy_rollouts(["p0", "p1", "p2"], CFG)
        assert all(isinstance(r, TransportError) for r in results)
        assert len(results) == 3
        assert [payload["prompt"] for _, payload in transport.payloads] == [["p0", "p1", "p2"]] * 3

    def test_single_prompt_sends_a_string(self):
        body = completion_body(["a"], [-0.1], [{"a": -0.1}])
        backend, transport = http_backend([(200, body)])
        (rollout,) = backend.greedy_rollouts(["p0"], CFG)
        assert rollout.chosen_tokens == ("a",)
        assert transport.payloads[0][1]["prompt"] == "p0"

    def test_force_scores_one_list_echo_payload(self):
        body = {"choices": [echo_choice(0, [0, 2], [None, -0.5]), echo_choice(1, [0, 2], [None, -0.7])]}
        backend, transport = http_backend([(200, body)])
        assert backend.force_scores(["p0", "p1"], " c", CFG) == [[-0.5], [-0.7]]
        (url, payload), = transport.payloads
        assert url == "http://example/v1/completions"
        assert payload["prompt"] == ["p0 c", "p1 c"]
        assert payload["model"] == "test-model"
        assert payload["echo"] is True
        assert payload["max_tokens"] == 0
        assert payload["logprobs"] == 0

    def test_force_scores_cut_at_each_prompts_own_length(self):
        # Prompt 1's token at offset 3 lies inside prompt 1 but past the end
        # of prompt 0, so a shared cut would either keep it or drop all of
        # prompt 0's continuation.
        body = {
            "choices": [
                echo_choice(0, [0, 2, 4], [None, -0.1, -0.2]),
                echo_choice(1, [0, 3, 5, 6], [None, -9.0, -0.3, -0.4]),
            ]
        }
        backend, _ = http_backend([(200, body)])
        assert backend.force_scores(["a ", "bbbb "], "x y", CFG) == [[-0.1, -0.2], [-0.3, -0.4]]

    def test_force_scores_choice_without_echo_fails_its_slot(self):
        no_echo = {"index": 1, "finish_reason": "stop", "logprobs": {"tokens": []}}
        body = {"choices": [echo_choice(0, [0, 2], [None, -0.5]), no_echo]}
        backend, transport = http_backend([(200, body)])
        scored, unsupported = backend.force_scores(["p0", "p1"], " c", CFG)
        assert scored == [-0.5]
        assert isinstance(unsupported, UnsupportedCapabilityError)
        assert len(transport.payloads) == 1

    def test_qlm_over_a_batch_without_echo_is_unavailable(self):
        query = Query("q", "what is it")
        passages = [Passage(f"d{i}", f"passage {i}") for i in range(3)]
        candidates = CandidateSet("q", tuple((p, 3.0 - i) for i, p in enumerate(passages)))
        no_echo = {"index": 2, "finish_reason": "stop", "logprobs": {"tokens": []}}
        scored = [echo_choice(i, [0, 999], [None, -0.5]) for i in range(2)]
        body = {"choices": [*scored, no_echo]}
        backend, _ = http_backend([(200, body)])
        with pytest.raises(BaselineUnavailableError) as raised:
            qlm_rerank(query, candidates, backend, CFG)
        lone, _ = http_backend([(200, {"choices": [no_echo]})])
        with pytest.raises(UnsupportedCapabilityError) as alone:
            lone.force_score("p", "cont", CFG)
        assert str(raised.value) == f"query-likelihood baseline unavailable: {alone.value}"
        assert type(raised.value.__cause__) is UnsupportedCapabilityError
        assert str(raised.value.__cause__) == str(alone.value)

    def test_force_scores_refused_batch_resent_one_prompt_per_request(self):
        refusal = (404, {"error": "no response for p1"})
        body = {"choices": [echo_choice(0, [0, 2], [None, -0.5])]}
        backend, transport = http_backend([(404, {"error": "batch"}), (200, body), refusal])
        first, second = backend.force_scores(["p0", "p1"], " c", CFG)
        assert first == [-0.5]
        lone, _ = http_backend([refusal])
        with pytest.raises(ProbeError) as alone:
            lone.force_score("p1", " c", CFG)
        assert type(second) is type(alone.value)
        assert str(second) == str(alone.value)
        assert [payload["prompt"] for _, payload in transport.payloads] == [["p0 c", "p1 c"], "p0 c", "p1 c"]

    def test_force_scores_exhausted_transport_fails_every_slot_without_resend(self):
        backend, transport = http_backend([TransportError("boom")] * 3, max_retries=2)
        results = backend.force_scores(["p0", "p1", "p2"], " c", CFG)
        assert len(results) == 3
        assert all(isinstance(r, TransportError) for r in results)
        assert [payload["prompt"] for _, payload in transport.payloads] == [["p0 c", "p1 c", "p2 c"]] * 3


class TestRolloutInvariants:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    def test_length_never_exceeds_cap(self, table_len, max_tokens):
        backend = stub({"p": {"steps": steps_from_profile("u" * table_len)}})
        rollout = backend.greedy_rollout("p", ProbeConfig(top_k=4, max_tokens=max_tokens))
        assert 1 <= rollout.effective_length <= max_tokens
        assert (rollout.terminated_by == "eos") == rollout.steps[-1].is_eos

    def test_mid_rollout_eos_rejected(self):
        steps = (
            StepDistribution(1, (("a", -0.1),), "a", is_eos=True),
            StepDistribution(2, (("b", -0.1),), "b"),
        )
        with pytest.raises(ValueError):
            Rollout(steps, "max_tokens")
