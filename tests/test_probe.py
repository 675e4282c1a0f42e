"""Stub and HTTP backend behavior: rollout termination, tie-breaking,
forced-continuation scoring, retries, and error classification."""

import gc
import http.client
import json
import math
import random
import re
import socket
import ssl
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, strategies as st

from helpers import steps_from_profile
import igp.uncertainty as uncertainty
from igp.core import CandidateSet, Passage, Query
from igp.probe import (
    _GREEDY_TOLERANCE,
    HttpBackend,
    MalformedResponseError,
    MissingLogprobsError,
    ProbeConfig,
    ProbeError,
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


def reference_step_check(entries, chosen):
    """StepDistribution's entry checks in their sort-and-compare form, the
    reference for the one-pass walk."""
    lps = [lp for _, lp in entries]
    if any(math.isnan(lp) or lp == math.inf for lp in lps):
        raise ValueError("logprobs must not be NaN or +inf")
    keyed = [(-lp, tok) for tok, lp in entries]
    if keyed != sorted(keyed):
        raise ValueError("entries must be sorted by logprob desc, token asc")
    chosen_lp = dict(entries).get(chosen)
    if chosen_lp is None:
        raise ValueError(f"chosen token {chosen!r} not among entries")
    if chosen_lp < max(lps) - _GREEDY_TOLERANCE:
        raise ValueError("chosen token is not a maximal-logprob entry")


def reference_sorted_entries(raw, k):
    return tuple(sorted(raw.items(), key=lambda kv: (-kv[1], kv[0]))[:k])


def reference_step(raw, k, chosen=None):
    """``StepDistribution.from_logprobs`` by sort, cut and the checked
    constructor. A NaN anywhere in the map is refused, since no order ranks
    it."""
    if any(lp != lp for lp in raw.values()):
        raise ValueError("logprobs must not be NaN or +inf")
    entries = reference_sorted_entries(raw, k)
    if chosen is None and entries:
        chosen = entries[0][0]
    return StepDistribution(1, entries, chosen)


# Few values, so ties are common; signed zeros, the infinities, two
# neighbouring floats, and logprobs just within and just outside the greedy
# tolerance of 0.
TOLERANCE_EDGE = (-_GREEDY_TOLERANCE, -_GREEDY_TOLERANCE * 1.5)
NEIGHBOURS = (-0.5, math.nextafter(-0.5, -math.inf))
STEP_LOGPROBS = (0.0, -0.0, *TOLERANCE_EDGE, *NEIGHBOURS, -1.0, -math.inf, math.inf)
STEP_TOKENS = ("a", "b", "c", "d")


def outcome(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


class TestStepBuildMatchesReference:
    def test_step_checks_match_the_sort_and_compare_form(self):
        rng = random.Random(1301)
        seen = set()
        for _ in range(20000):
            entries = [
                (rng.choice(STEP_TOKENS), rng.choice(STEP_LOGPROBS))
                for _ in range(rng.randint(1, 5))
            ]
            if rng.random() < 0.2:
                entries[rng.randrange(len(entries))] = (rng.choice(STEP_TOKENS), math.nan)
            if rng.random() < 0.7:
                entries.sort(key=lambda kv: (-kv[1], kv[0]))
            chosen = rng.choice([*STEP_TOKENS, "zz"])
            expected = outcome(lambda: reference_step_check(entries, chosen))
            assert outcome(lambda: StepDistribution(1, tuple(entries), chosen)) == expected
            seen.add(expected)
        # Some steps passed, and each check rejected some.
        assert {
            None,
            "logprobs must not be NaN or +inf",
            "entries must be sorted by logprob desc, token asc",
            "chosen token 'zz' not among entries",
            "chosen token is not a maximal-logprob entry",
        } <= seen

    def test_sorted_entries_match_the_key_sort(self):
        rng = random.Random(1302)
        finite = [lp for lp in STEP_LOGPROBS if lp != math.inf]
        for _ in range(5000):
            tokens = rng.sample("abcdefgh", rng.randint(1, 8))
            raw = {tok: rng.choice(finite) for tok in tokens}
            k = rng.randint(1, 9)
            built = StepDistribution.from_logprobs(1, raw, k)
            assert built.entries == reference_sorted_entries(raw, k)

    @given(
        raw=st.dictionaries(
            st.sampled_from("abcdef"),
            st.sampled_from((*STEP_LOGPROBS, math.nan, 0, -1)),
            max_size=6,
        ),
        k=st.integers(min_value=1, max_value=7),
        chosen=st.none() | st.sampled_from([*STEP_TOKENS, "zz"]),
    )
    # A maximal chosen token that the width cuts.
    @example(raw={"a": 0.0, "b": 0.0}, k=1, chosen="b")
    def test_builder_matches_the_reference(self, raw, k, chosen):
        # ``chosen`` None is a stub step, whose chosen token is the first.
        try:
            built = StepDistribution.from_logprobs(1, raw, k, chosen)
        except ValueError as exc:
            assert outcome(lambda: reference_step(raw, k, chosen)) == str(exc)
            return
        reference = reference_step(raw, k, chosen)
        assert built == reference
        assert all(type(lp) is float for _, lp in built.entries)
        terms = outcome(lambda: uncertainty._fill_nu_terms(built))
        assert terms == outcome(lambda: uncertainty._fill_nu_terms(reference))
        if terms is None:
            assert [[x.hex() for x in column] for column in built._nu_terms] == [
                [x.hex() for x in column] for column in reference._nu_terms
            ]

    @pytest.mark.parametrize(
        "value", [None, True, "-0.5", [-0.5]], ids=["null", "true", "str", "list"]
    )
    def test_logprob_that_is_not_a_number_fails_a_stub_rollout(self, value):
        backend = stub({"p": {"steps": [{"top_logprobs": {"a": value, "b": -1.0}}]}})
        message = f"logprob of 'a' is not a number: {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            backend.greedy_rollout("p", CFG)

    @pytest.mark.parametrize(
        "token_lp, alternatives, message",
        [
            (-0.1, {"a": -0.1, "b": None}, "logprob of 'b' is not a number: None"),
            (-0.1, {"a": -0.1, "b": True}, "logprob of 'b' is not a number: True"),
            (True, {"a": -0.1, "b": -2.0}, "logprob of 'a' is not a number: True"),
        ],
        ids=["null", "true", "true-token-logprob"],
    )
    def test_logprob_that_is_not_a_number_fails_an_http_rollout(
        self, token_lp, alternatives, message
    ):
        body = completion_body(["a"], [token_lp], [alternatives])
        backend, transport = http_backend([(200, body)])
        with pytest.raises(MalformedResponseError, match=f"^{re.escape(message)}$"):
            backend.greedy_rollout("p", CFG)
        assert len(transport.payloads) == 1

    def test_integer_logprobs_give_float_entries(self):
        # The second step's token is not among its alternatives.
        body = completion_body(["a", "c"], [0, -1], [{"a": 0, "b": -2}, {"b": -3}])
        backend, _ = http_backend([(200, body)])
        rollout = backend.greedy_rollout("p", CFG)
        assert [step.entries for step in rollout.steps] == [
            (("a", 0.0), ("b", -2.0)), (("c", -1.0), ("b", -3.0))
        ]
        assert all(type(lp) is float for step in rollout.steps for _, lp in step.entries)

    def test_nan_in_the_kept_entries_fails_a_stub_rollout(self):
        backend = stub({"p": {"steps": [{"top_logprobs": {"a": -0.1, "b": math.nan}}]}})
        with pytest.raises(ValueError, match="NaN"):
            backend.greedy_rollout("p", CFG)

    def test_nan_in_the_kept_entries_fails_an_http_rollout(self):
        body = completion_body(["a"], [-0.1], [{"a": -0.1, "b": math.nan}])
        backend, transport = http_backend([(200, body)])
        with pytest.raises(MalformedResponseError, match="NaN"):
            backend.greedy_rollout("p", CFG)
        assert len(transport.payloads) == 1


class TestStubRollout:
    def test_eos_at_step_two(self):
        backend = stub({"p": {"steps": steps_from_profile("uo", eos_last=True)}})
        rollout = backend.greedy_rollout("p", CFG)
        assert rollout.effective_length == 2
        assert rollout.terminated_by == "eos"

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

    # ``stopped_by`` names what in the table ended generation: the flag of
    # the last kept step, or nothing, when the cap cut the rollout.
    @pytest.mark.parametrize(
        "eos_at, terminated_by, stopped_by, length",
        [
            (None, "max_tokens", None, 3),  # table exactly as long as the cap
            (3, "eos", "step_flag", 3),  # eos flag on the cap step
            (4, "max_tokens", None, 3),  # eos flag past the cap is never read
        ],
    )
    def test_ending_at_the_cap(self, eos_at, terminated_by, stopped_by, length):
        steps = steps_from_profile("u" * (eos_at or 3))
        if eos_at:
            steps[-1]["eos"] = True
        backend = stub({"p": {"steps": steps}})
        rollout = backend.greedy_rollout("p", ProbeConfig(top_k=4, max_tokens=3))
        assert rollout.terminated_by == terminated_by
        assert rollout.effective_length == length
        # Generated text leaves out the flagged step's token only.
        text = backend.complete_text("p", 3)
        assert len(text.split()) == length - (stopped_by == "step_flag")

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

    @pytest.mark.parametrize(
        "table",
        [
            "prompts",
            [],
            {},
            {"prompts": 3},
            {"prompts": ["p"]},
            {"prompts": {"p": 3}},
            {"prompts": {"p": {"steps": []}, "q": "text"}},
            {"prompts": {}, "default": None},
            {"prompts": {}, "default": [{"steps": []}]},
        ],
        ids=repr,
    )
    def test_table_of_the_wrong_shape_rejected(self, table):
        with pytest.raises(ValueError, match="stub table"):
            StubBackend(table)

    def test_entry_without_steps_fails_its_prompt(self):
        backend = stub({"p": {"text": "an answer"}})
        (failed,) = backend.greedy_rollouts(["p"], CFG)
        assert isinstance(failed, MalformedResponseError)
        assert str(failed) == "stub entry has no steps"


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

    @pytest.mark.parametrize(
        "eos_last, max_tokens, text",
        [
            (True, 8, "blue whale"),  # a flagged last step's token is dropped
            (False, 8, "blue whale </s>"),  # a table end without a flag keeps it
            (True, 2, "blue whale"),  # the cap stops before the flagged step
        ],
        ids=["flagged", "table-end", "cap"],
    )
    def test_complete_text_joins_chosen_tokens(self, eos_last, max_tokens, text):
        steps = [
            {"top_logprobs": {"blue": -0.1}},
            {"top_logprobs": {"whale": -0.1}},
            {"top_logprobs": {"</s>": -0.1}, "eos": eos_last},
        ]
        assert stub({"p": {"steps": steps}}).complete_text("p", max_tokens) == text


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

    @pytest.mark.parametrize("finish_reason", ["stop", None])
    def test_stop_finish_marks_eos(self, finish_reason):
        body = completion_body(
            ["a", "b"],
            [-0.1, -0.2],
            [{"a": -0.1}, {"b": -0.2, "c": -1.0}],
            finish_reason=finish_reason,
        )
        backend, _ = http_backend([(200, body)])
        rollout = backend.greedy_rollout("p", CFG)
        assert rollout.terminated_by == "eos"
        assert rollout.effective_length == 2

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

    @pytest.mark.parametrize("failure", [TransportError("boom"), (503, {})])
    def test_exhausted_retries_back_off_and_stop(self, failure):
        sleeps = []
        transport = FakeTransport([failure] * 3)
        backend = HttpBackend(
            "http://example/v1", "m", max_retries=2, transport=transport, sleep=sleeps.append
        )
        with pytest.raises(TransportError):
            backend.greedy_rollout("p", CFG)
        assert sleeps == [0.5, 1.0]
        assert len(transport.payloads) == 3

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            HttpBackend("http://example/v1", "m", max_retries=-1)

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

    @pytest.mark.parametrize("logprobs", [None, {}, []])
    def test_force_score_without_echo_payload_is_unsupported(self, logprobs):
        body = {"choices": [{"finish_reason": "stop", "logprobs": logprobs}]}
        backend, transport = http_backend([(200, body)])
        with pytest.raises(UnsupportedCapabilityError):
            backend.force_score("p", "cont", CFG)
        assert len(transport.payloads) == 1

    @pytest.mark.parametrize("logprobs", [[1, 2], ["text_offset"], "abc", 5])
    def test_force_score_echo_payload_of_the_wrong_shape_is_malformed(self, logprobs):
        body = {"choices": [{"finish_reason": "stop", "logprobs": logprobs}]}
        backend, transport = http_backend([(200, body)])
        with pytest.raises(MalformedResponseError):
            backend.force_score("p", "cont", CFG)
        assert len(transport.payloads) == 1

    def test_complete_text(self):
        backend, transport = http_backend(
            [(200, {"choices": [{"text": " Paris\n"}]})]
        )
        assert backend.complete_text("p", 16) == "Paris"
        assert "logprobs" not in transport.payloads[0][1]


class _Completions(BaseHTTPRequestHandler):
    """Answers every POST with the server's ``reply`` bytes as a 200,
    recording the path, client port, Authorization header and payload. With
    the server's ``drop`` set it closes the connection after each reply
    without saying so; with ``hang`` set it never replies."""

    protocol_version = "HTTP/1.1"  # keep-alive, as a real endpoint

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append({
            "path": self.path,
            "port": self.client_address[1],
            "auth": self.headers.get("Authorization"),
            "payload": payload,
        })
        if self.server.hang:
            self.rfile.read(1)  # returns once the client hangs up
            self.close_connection = True
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.server.reply)))
        self.end_headers()
        self.wfile.write(self.server.reply)
        self.close_connection = self.server.drop

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    """A loopback completions server whose address is ``url``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Completions)
    server.seen = []
    server.drop = server.hang = False
    server.reply = json.dumps({"choices": [{"index": 0, "text": " Paris"}]}).encode()
    host, port = server.server_address
    server.url = f"http://{host}:{port}/v1"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestDefaultTransport:
    """``HttpBackend`` over its own ``http.client`` transport, not an injected one."""

    @staticmethod
    def calls(backend, *prompts):
        """``complete_text`` of each prompt on this thread, then close the
        thread's connection; a call's exception is returned in its slot."""
        try:
            out = []
            for prompt in prompts:
                try:
                    out.append(backend.complete_text(prompt, 4))
                except Exception as exc:
                    out.append(exc)
            return out
        finally:
            backend._local.held.conn.close()

    def test_calls_from_one_thread_reuse_one_connection(self, endpoint):
        backend = HttpBackend(endpoint.url, "m")
        assert self.calls(backend, "p", "q") == ["Paris", "Paris"]
        first, second = endpoint.seen
        assert first["port"] == second["port"]
        assert first["path"] == "/v1/completions"
        assert second["payload"] == {"model": "m", "prompt": "q", "temperature": 0, "max_tokens": 4}

    @pytest.mark.parametrize("api_key, auth", [(None, None), ("", None), ("k1", "Bearer k1")])
    def test_bearer_sent_only_with_an_api_key(self, endpoint, api_key, auth):
        self.calls(HttpBackend(endpoint.url, "m", api_key=api_key), "p")
        assert [r["auth"] for r in endpoint.seen] == [auth]

    def test_non_json_200_is_malformed_and_not_retried(self, endpoint):
        endpoint.reply = b"<html>busy</html>"
        (error,) = self.calls(HttpBackend(endpoint.url, "m", sleep=pytest.fail), "p")
        assert isinstance(error, MalformedResponseError)
        assert len(endpoint.seen) == 1

    def test_closed_port_is_a_transport_error_after_the_retries(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps = []
        backend = HttpBackend(
            f"http://127.0.0.1:{port}/v1", "m", max_retries=2, backoff=0.25, sleep=sleeps.append
        )
        (error,) = self.calls(backend, "p")
        assert isinstance(error, TransportError)
        assert sleeps == [0.25, 0.5]

    def test_runs_without_requests(self, endpoint, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # import requests fails
        assert self.calls(HttpBackend(endpoint.url, "m"), "p") == ["Paris"]

    def test_dropped_connection_resent_at_once_on_a_fresh_one(self, endpoint):
        endpoint.drop = True
        backend = HttpBackend(endpoint.url, "m", sleep=pytest.fail)
        assert self.calls(backend, "p", "q", "r") == ["Paris"] * 3
        assert [r["payload"]["prompt"] for r in endpoint.seen] == ["p", "q", "r"]

    def test_path_prefix_and_query_string_kept(self, endpoint):
        base = endpoint.url.replace("/v1", "/proxy/v1/?api-version=2")
        self.calls(HttpBackend(base, "m"), "p")
        assert [r["path"] for r in endpoint.seen] == ["/proxy/v1/completions?api-version=2"]

    def test_read_timeout_is_a_transport_error_after_the_retries(self, endpoint):
        endpoint.hang = True
        sleeps = []
        backend = HttpBackend(
            endpoint.url, "m", timeout=0.05, max_retries=1, sleep=sleeps.append
        )
        (error,) = self.calls(backend, "p")
        assert isinstance(error, TransportError)
        assert "TimeoutError" in str(error)
        assert sleeps == [0.5]
        assert len(endpoint.seen) == 2

    def test_two_threads_use_two_connections(self, endpoint):
        backend = HttpBackend(endpoint.url, "m")
        both = threading.Barrier(2, timeout=5)

        def worker(prompt):
            try:
                first = backend.complete_text(prompt, 4)
                both.wait()  # both threads hold an open connection here
                return [first, backend.complete_text(prompt, 4)]
            finally:
                backend._local.held.conn.close()

        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(worker, ["p", "q"])) == [["Paris", "Paris"]] * 2
        by_port = {}
        for r in endpoint.seen:
            by_port.setdefault(r["port"], []).append(r["payload"]["prompt"])
        assert sorted(by_port.values()) == [["p", "p"], ["q", "q"]]

    def test_connection_closed_when_its_thread_ends_or_its_backend_goes(self, endpoint):
        backend = HttpBackend(endpoint.url, "m")

        def worker():
            backend.complete_text("p", 4)
            return backend._local.held.conn

        with ThreadPoolExecutor(1) as pool:
            worker_conn = pool.submit(worker).result()
        assert worker_conn.sock is None  # the pool's shutdown joined the thread
        backend.complete_text("q", 4)
        conn = backend._local.held.conn
        assert conn.sock is not None
        del backend
        gc.collect()
        assert conn.sock is None

    def test_https_connection_verifies_the_certificate_and_host(self):
        conn = HttpBackend("https://example.test/v1", "m")._connection()
        assert isinstance(conn, http.client.HTTPSConnection)
        assert (conn.host, conn.port, conn.sock) == ("example.test", 443, None)
        assert conn._context.verify_mode == ssl.CERT_REQUIRED
        assert conn._context.check_hostname

    @pytest.mark.parametrize(
        "url", ["localhost:8000/v1", "ftp://host/v1", "http:///v1", "http://host:port/v1"]
    )
    def test_bad_base_url_rejected(self, url):
        with pytest.raises(ValueError, match=re.escape(repr(url))):
            HttpBackend(url, "m")


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

    def test_only_unclaimed_prompts_resent_one_per_request(self):
        # p1's choice has no index and p2's index is claimed twice: the
        # batch still answers p0, and only p1 and p2 go again, alone.
        unindexed = {k: v for k, v in choice(1, ["b"]).items() if k != "index"}
        body = {"choices": [choice(0, ["a"]), unindexed, choice(3, ["x"]), choice(3, ["y"])]}
        backend, transport = http_backend(
            [(200, body), (200, {"choices": [choice(0, ["b"])]}),
             (200, {"choices": [choice(0, ["c"])]}), (200, {"choices": [choice(0, ["d"])]})]
        )
        results = backend.greedy_rollouts(["p0", "p1", "p2", "p3"], CFG)
        assert [r.chosen_tokens for r in results] == [("a",), ("b",), ("c",), ("d",)]
        assert [payload["prompt"] for _, payload in transport.payloads] == [
            ["p0", "p1", "p2", "p3"], "p1", "p2", "p3",
        ]

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

    def test_qlm_over_a_wrong_shaped_echo_rejects_that_candidate_only(self):
        query = Query("q", "what is it")
        passages = [Passage(f"d{i}", f"passage {i}") for i in range(3)]
        candidates = CandidateSet("q", tuple((p, 3.0 - i) for i, p in enumerate(passages)))
        wrong = {"index": 1, "finish_reason": "stop", "logprobs": [1, 2]}
        body = {"choices": [echo_choice(0, [0, 999], [None, -0.5]), wrong, echo_choice(2, [0, 999], [None, -0.7])]}
        backend, transport = http_backend([(200, body)])
        ranked = qlm_rerank(query, candidates, backend, CFG)
        by_id = {entry.passage.id: entry for entry in ranked.entries}
        assert by_id["d1"].error.startswith("MalformedResponseError: ")
        assert not by_id["d1"].admitted
        assert (by_id["d0"].score, by_id["d2"].score) == (-0.5, -0.7)
        assert by_id["d0"].error is None and by_id["d2"].error is None
        assert len(transport.payloads) == 1

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


def rollout_choice(index=0, **logprobs):
    good = choice(index, ["a", "b"])
    return dict(good, logprobs=dict(good["logprobs"], **logprobs))


def echo(index=0, token_logprobs=(None, -0.5)):
    return echo_choice(index, [0, 2], list(token_logprobs))


# One-prompt calls, their batch forms, and a well-formed choice for each;
# "force" scores " c" after the prompt.
CALLS = {
    "rollout": lambda backend, prompt: backend.greedy_rollout(prompt, CFG),
    "force": lambda backend, prompt: backend.force_score(prompt, " c", CFG),
    "text": lambda backend, prompt: backend.complete_text(prompt, 8),
}
BATCH_CALLS = {
    "rollout": lambda backend, prompts: backend.greedy_rollouts(prompts, CFG),
    "force": lambda backend, prompts: backend.force_scores(prompts, " c", CFG),
}
GOOD = {"rollout": rollout_choice, "force": echo}

# A choice of the wrong shape, and the call that parses it.
MALFORMED = {
    "non-object choice, rollout": ("rollout", "oops"),
    "non-object choice, force": ("force", "oops"),
    "non-object choice, text": ("text", ["oops"]),
    "logprobs list": ("rollout", dict(choice(0, ["a"]), logprobs=[-0.1])),
    "top_logprobs step list": ("rollout", rollout_choice(top_logprobs=[{"a": -0.1}, ["b"]])),
    "string token_logprobs entry": ("rollout", rollout_choice(token_logprobs=[-0.1, "high"])),
    "string top_logprobs entry": ("rollout", rollout_choice(top_logprobs=[{"a": -0.1}, {"b": "low"}])),
    "string echo logprob": ("force", echo(token_logprobs=[None, "low"])),
}
# A choice of the right types that breaks the protocol, the call that reads
# it, and the message it is refused with.
REFUSED = {
    "rollout arrays of different lengths": (
        "rollout", rollout_choice(token_logprobs=[-0.1]), "inconsistent logprob arrays in response"
    ),
    "null top_logprobs step": (
        "rollout", rollout_choice(top_logprobs=[{"a": -0.1}, None]), "missing logprobs at step 2"
    ),
    "null token logprob": (
        "rollout", rollout_choice(token_logprobs=[-0.1, None]), "missing logprobs at step 2"
    ),
    "echo arrays of different lengths": (
        "force", echo(token_logprobs=[None]), "inconsistent echo logprob arrays"
    ),
    "echo of the prompt only": (
        "force", echo_choice(0, [0], [-0.5]), "echo response covered no continuation tokens"
    ),
    "completion without text": (
        "text", {"index": 0, "finish_reason": "stop"}, "completion response has no text"
    ),
}
# The ones a batch can match to their prompt by index.
INDEXED = {name: case for name, case in MALFORMED.items() if isinstance(case[1], dict)}


class TestMalformedChoice:
    @pytest.mark.parametrize("call, malformed", MALFORMED.values(), ids=list(MALFORMED))
    def test_fails_as_malformed_without_retry(self, call, malformed):
        backend, transport = http_backend([(200, {"choices": [malformed]})])
        with pytest.raises(MalformedResponseError) as raised:
            CALLS[call](backend, "p")
        assert type(raised.value.__cause__) in (AttributeError, TypeError, ValueError)
        assert str(raised.value) == str(raised.value.__cause__)
        assert len(transport.payloads) == 1

    @pytest.mark.parametrize("call, malformed", INDEXED.values(), ids=list(INDEXED))
    def test_fails_only_its_own_slot_in_a_batch(self, call, malformed):
        body = {"choices": [GOOD[call](0), dict(malformed, index=1)]}
        backend, transport = http_backend([(200, body)])
        first, second = BATCH_CALLS[call](backend, ["p0", "p1"])
        assert not isinstance(first, Exception)
        assert isinstance(second, MalformedResponseError)
        assert len(transport.payloads) == 1

    @pytest.mark.parametrize("call, refused, message", REFUSED.values(), ids=list(REFUSED))
    def test_protocol_breach_fails_as_malformed_without_retry(self, call, refused, message):
        backend, transport = http_backend([(200, {"choices": [refused]})])
        with pytest.raises(MalformedResponseError, match=f"^{re.escape(message)}$"):
            CALLS[call](backend, "p")
        assert len(transport.payloads) == 1

    def test_non_object_choice_fails_only_its_own_slot(self):
        # A choice without an index cannot be matched to its prompt, so
        # that prompt alone is re-sent; the other keeps its batch choice.
        backend, transport = http_backend(
            [(200, {"choices": [choice(0, ["a"]), "oops"]}), (200, {"choices": ["oops"]})]
        )
        first, second = backend.greedy_rollouts(["p0", "p1"], CFG)
        assert first.chosen_tokens == ("a",)
        assert isinstance(second, MalformedResponseError)
        assert len(transport.payloads) == 2


class TestRolloutInvariants:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    def test_length_never_exceeds_cap(self, table_len, max_tokens):
        backend = stub({"p": {"steps": steps_from_profile("u" * table_len)}})
        rollout = backend.greedy_rollout("p", ProbeConfig(top_k=4, max_tokens=max_tokens))
        assert 1 <= rollout.effective_length <= max_tokens
        assert (rollout.terminated_by == "eos") == (table_len < max_tokens)
