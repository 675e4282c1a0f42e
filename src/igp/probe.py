"""Black-box generator probing: deterministic greedy rollouts that record the
Top-K log-probabilities at every decoding step.

Two backends ship: a table-driven stub (exact-prompt lookup, used for tests
and fixtures) and a client for OpenAI-compatible completions endpoints. The
rerankers reach either through a ``Prober``, which counts their prompts and
memoizes rollouts.
Probing always decodes greedily (temperature 0); a rollout stops at the
backend's end-of-generation signal or at the ``max_tokens`` cap, whichever
comes first, and the step that produced the stop signal is included.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar


class ProbeError(Exception):
    """Base class for probing failures."""


class TransportError(ProbeError):
    """Network-level failure or retryable server error; safe to retry."""


class MalformedResponseError(ProbeError):
    """The backend answered but the payload cannot be used; never retried."""


class MissingLogprobsError(MalformedResponseError):
    """The endpoint returned no log-probabilities: a fatal configuration
    error, not a condition to degrade silently."""


class UnsupportedCapabilityError(ProbeError):
    """The backend cannot perform the requested operation (e.g. scoring a
    forced continuation)."""


class UnknownPromptError(ProbeError):
    """The stub table has no entry for the prompt and no default entry."""


# A generated token must be an argmax token; logprobs that disagree by more
# than this are treated as a malformed response.
_GREEDY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ProbeConfig:
    """Probing knobs: Top-K record width and the rollout-length cap.

    Temperature is fixed at 0 and is deliberately not configurable.
    """

    top_k: int = 128
    max_tokens: int = 32

    def __post_init__(self) -> None:
        if self.top_k < 2:
            raise ValueError("top_k must be >= 2")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class StepDistribution:
    """Top-K alternatives at one decoding step, sorted by logprob descending
    with lexicographic token order breaking ties."""

    step_index: int
    entries: tuple[tuple[str, float], ...]
    chosen_token: str
    is_eos: bool = False

    def __post_init__(self) -> None:
        if self.step_index < 1:
            raise ValueError("step_index is 1-based")
        if not self.entries:
            raise ValueError("step has no entries")
        lps = [lp for _, lp in self.entries]
        if any(math.isnan(lp) or lp == math.inf for lp in lps):
            raise ValueError("logprobs must not be NaN or +inf")
        keyed = [(-lp, tok) for tok, lp in self.entries]
        if keyed != sorted(keyed):
            raise ValueError("entries must be sorted by logprob desc, token asc")
        chosen_lp = dict(self.entries).get(self.chosen_token)
        if chosen_lp is None:
            raise ValueError(f"chosen token {self.chosen_token!r} not among entries")
        if chosen_lp < max(lps) - _GREEDY_TOLERANCE:
            raise ValueError("chosen token is not a maximal-logprob entry")


@dataclass(frozen=True)
class Rollout:
    """A full greedy probing trajectory.

    ``terminated_by`` is "eos" when the final step produced the
    end-of-generation signal and "max_tokens" when the length cap fired.
    ``eos_signal`` records which mechanism signalled the stop
    ("step_flag", "table_end", or "finish_reason").
    """

    steps: tuple[StepDistribution, ...]
    terminated_by: str
    eos_signal: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("rollout must have at least one step")
        if self.terminated_by not in ("eos", "max_tokens"):
            raise ValueError(f"bad terminated_by: {self.terminated_by!r}")
        if (self.terminated_by == "eos") != self.steps[-1].is_eos:
            raise ValueError("terminated_by=eos must match the final step's is_eos")
        for pos, step in enumerate(self.steps, 1):
            if step.step_index != pos:
                raise ValueError("step indices must be contiguous from 1")
            if step.is_eos and pos != len(self.steps):
                raise ValueError("only the final step may carry is_eos")

    @property
    def effective_length(self) -> int:
        return len(self.steps)

    @property
    def chosen_tokens(self) -> tuple[str, ...]:
        return tuple(s.chosen_token for s in self.steps)


def _sorted_entries(raw: dict[str, float], top_k: int) -> tuple[tuple[str, float], ...]:
    ordered = sorted(raw.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ordered[:top_k])


T = TypeVar("T")


def _each(fn: Callable[[Any], T], items: Iterable) -> list[T | Exception]:
    """``fn`` of each item, in order, with an item's exception in its slot."""
    out: list[T | Exception] = []
    for item in items:
        try:
            out.append(fn(item))
        except Exception as exc:
            out.append(exc)
    return out


def _only(results: list[T | Exception]) -> T:
    """The result of a one-prompt batch, raising its exception."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


class ProbeBackend:
    """Interface every probing backend implements. Backends hold no mutable
    per-call state and may be used from many threads concurrently."""

    def greedy_rollout(self, prompt: str, cfg: ProbeConfig) -> Rollout:
        raise NotImplementedError

    def greedy_rollouts(
        self, prompts: Sequence[str], cfg: ProbeConfig
    ) -> list[Rollout | Exception]:
        """One greedy rollout per prompt, in order. A prompt whose probe
        fails gets its exception in place of a rollout, so one failure never
        costs the other prompts theirs."""
        return _each(lambda prompt: self.greedy_rollout(prompt, cfg), prompts)

    def force_score(self, prompt: str, continuation: str, cfg: ProbeConfig) -> list[float]:
        """Per-token logprobs of ``continuation`` under teacher forcing."""
        raise UnsupportedCapabilityError(
            f"{type(self).__name__} cannot score forced continuations"
        )

    def force_scores(
        self, prompts: Sequence[str], continuation: str, cfg: ProbeConfig
    ) -> list[list[float] | Exception]:
        """``force_score`` of ``continuation`` after each prompt, in order,
        with each failure in its prompt's slot as in ``greedy_rollouts``."""
        return _each(lambda prompt: self.force_score(prompt, continuation, cfg), prompts)

    def complete_text(self, prompt: str, max_tokens: int) -> str:
        """Greedy free-text completion, used for final answer generation."""
        raise UnsupportedCapabilityError(
            f"{type(self).__name__} cannot generate free text"
        )


class StubBackend(ProbeBackend):
    """Deterministic table-driven backend.

    The table is a JSON document::

        {
          "default": { ...entry... },          # optional fallback
          "oov_logprob": -20.0,                # optional, for force_score
          "prompts": {
            "<exact prompt string>": {
              "steps": [
                {"top_logprobs": {"token": lp, ...}, "eos": false},
                ...
              ],
              "text": "completion text",        # optional
              "forced_logprob": -0.5,           # optional constant
              "forced": {"<continuation>": [lp, ...]}   # optional exact table
            }
          }
        }

    Rollouts replay the scripted steps, stopping at the first step flagged
    ``eos`` or at ``max_tokens``. A table that runs out before the cap is
    treated as ending generation at its last step.
    """

    def __init__(self, table: dict):
        if "prompts" not in table:
            raise ValueError("stub table must have a 'prompts' mapping")
        self._prompts: dict[str, dict] = table["prompts"]
        self._default: Optional[dict] = table.get("default")
        self._oov_logprob: float = float(table.get("oov_logprob", -20.0))

    @classmethod
    def load(cls, path: str | Path) -> "StubBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def _entry(self, prompt: str) -> dict:
        entry = self._prompts.get(prompt, self._default)
        if entry is None:
            raise UnknownPromptError(
                f"stub table has no entry for prompt starting {prompt[:80]!r}"
            )
        return entry

    def greedy_rollout(self, prompt: str, cfg: ProbeConfig) -> Rollout:
        raw_steps = self._entry(prompt).get("steps")
        if not raw_steps:
            raise MalformedResponseError("stub entry has no steps")
        steps: list[StepDistribution] = []
        eos_signal: Optional[str] = None
        for idx, raw in enumerate(raw_steps, 1):
            entries = _sorted_entries(raw["top_logprobs"], cfg.top_k)
            explicit_eos = bool(raw.get("eos", False))
            steps.append(
                StepDistribution(
                    step_index=idx,
                    entries=entries,
                    chosen_token=entries[0][0],
                    is_eos=explicit_eos,
                )
            )
            if explicit_eos:
                eos_signal = "step_flag"
                break
            if idx == cfg.max_tokens:
                break
        if eos_signal is None and len(steps) < cfg.max_tokens:
            # Table exhausted before the cap: generation ended here.
            eos_signal = "table_end"
            steps[-1] = replace(steps[-1], is_eos=True)
        terminated_by = "eos" if steps[-1].is_eos else "max_tokens"
        return Rollout(tuple(steps), terminated_by, eos_signal)

    def force_score(self, prompt: str, continuation: str, cfg: ProbeConfig) -> list[float]:
        if not continuation:
            raise ValueError("continuation must be non-empty")
        entry = self._entry(prompt)
        forced = entry.get("forced", {})
        if continuation in forced:
            return [float(lp) for lp in forced[continuation]]
        tokens = continuation.split()
        if "forced_logprob" in entry:
            return [float(entry["forced_logprob"])] * len(tokens)
        raw_steps = entry.get("steps")
        if not raw_steps:
            raise UnsupportedCapabilityError(
                "stub entry has neither forced scores nor steps"
            )
        scores: list[float] = []
        for i, tok in enumerate(tokens):
            if i < len(raw_steps):
                scores.append(float(raw_steps[i]["top_logprobs"].get(tok, self._oov_logprob)))
            else:
                scores.append(self._oov_logprob)
        return scores

    def complete_text(self, prompt: str, max_tokens: int) -> str:
        entry = self._entry(prompt)
        if "text" in entry:
            return str(entry["text"]).strip()
        rollout = self.greedy_rollout(prompt, ProbeConfig(max_tokens=max_tokens))
        tokens = [
            s.chosen_token
            for s in rollout.steps
            if not (s.is_eos and rollout.eos_signal == "step_flag")
        ]
        return " ".join(tokens).strip()


# HTTP status codes worth retrying; everything else 4xx/5xx is surfaced as-is.
_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

Transport = Callable[[str, dict], tuple[int, dict]]


class HttpBackend(ProbeBackend):
    """Client for an OpenAI-compatible completions endpoint.

    Requests carry temperature 0, the rollout cap as ``max_tokens``, and
    ``logprobs`` set to the Top-K width. The API key is read from the
    environment by the caller and passed in; ``base_url`` should include any
    ``/v1`` prefix the service expects.

    Transport failures are retried with exponential backoff up to
    ``max_retries`` times; malformed payloads are never retried. The default
    transport keeps one keep-alive ``requests.Session`` per thread.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        transport: Optional[Transport] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self._api_key = api_key
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._transport = transport or self._default_transport
        self._sleep = sleep
        self._local = threading.local()  # a Session is not thread-safe

    def _default_transport(self, url: str, payload: dict) -> tuple[int, dict]:
        import requests

        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        try:
            resp = session.post(url, json=payload, headers=headers, timeout=self._timeout)
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        try:
            body = resp.json()
        except ValueError:
            body = {}
        return resp.status_code, body

    def _request(self, payload: dict) -> dict:
        url = f"{self.base_url}/completions"
        delay = self._backoff
        attempt = 0
        while True:
            try:
                status, body = self._transport(url, payload)
            except TransportError:
                if attempt >= self._max_retries:
                    raise
                self._sleep(delay)
                delay *= 2
                attempt += 1
                continue
            if status in _RETRYABLE_STATUS:
                if attempt >= self._max_retries:
                    raise TransportError(f"server returned {status} after retries")
                self._sleep(delay)
                delay *= 2
                attempt += 1
                continue
            if status != 200:
                raise ProbeError(f"endpoint returned {status}: {body}")
            return body

    @staticmethod
    def _choice(body: dict) -> dict:
        try:
            return body["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"no choices in response: {body}") from exc

    @staticmethod
    def _choices(body: dict, count: int) -> Optional[list[dict]]:
        """The choices of a list-prompt response in prompt order, matched by
        ``index``; None unless there is exactly one per prompt."""
        try:
            choices = body["choices"]
            by_index = {choice["index"]: choice for choice in choices}
            return [by_index[i] for i in range(count)] if len(choices) == count else None
        except (KeyError, TypeError):
            return None

    def _payload(self, prompt: str | list[str], **fields) -> dict:
        return {"model": self.model, "prompt": prompt, "temperature": 0, **fields}

    def _batch(
        self, wire: Sequence[str], parse: Callable[[dict, int], T], **fields
    ) -> list[T | Exception]:
        """``parse(choice, i)`` of the completion of each ``wire`` prompt, all
        sent in one request whose ``prompt`` is the list and whose other
        payload ``fields`` every prompt shares.

        A choice that fails to parse fails its prompt only. A batch the
        endpoint refuses, or answers with a choice set that does not match
        the prompts, is re-sent one prompt per request, so each prompt gets
        the result or error it gets alone. Retries used up on the batch fail
        every prompt without a re-send. One prompt, or a list holding an
        empty one, goes as plain string payloads.
        """

        def alone(i: int) -> T:
            if not wire[i]:
                raise ValueError("prompt must be non-empty")
            return parse(self._choice(self._request(self._payload(wire[i], **fields))), i)

        choices = None
        if len(wire) > 1 and all(wire):
            try:
                body = self._request(self._payload(list(wire), **fields))
            except TransportError as exc:
                return [exc] * len(wire)
            except ProbeError:
                pass
            else:
                choices = self._choices(body, len(wire))
        if choices is None:
            return _each(alone, range(len(wire)))
        return _each(lambda i: parse(choices[i], i), range(len(wire)))

    def greedy_rollout(self, prompt: str, cfg: ProbeConfig) -> Rollout:
        return _only(self.greedy_rollouts([prompt], cfg))

    def greedy_rollouts(
        self, prompts: Sequence[str], cfg: ProbeConfig
    ) -> list[Rollout | Exception]:
        """All prompts in one request; see ``_batch``."""
        return self._batch(
            prompts,
            lambda choice, _: self._rollout(choice, cfg),
            max_tokens=cfg.max_tokens,
            logprobs=cfg.top_k,
        )

    @staticmethod
    def _rollout(choice: dict, cfg: ProbeConfig) -> Rollout:
        logprobs = choice.get("logprobs")
        if not logprobs:
            raise MissingLogprobsError(
                "endpoint returned no logprobs; it must support per-token "
                "top logprobs for probing"
            )
        tokens = logprobs.get("tokens") or []
        token_lps = logprobs.get("token_logprobs") or []
        top_lps = logprobs.get("top_logprobs") or []
        if not tokens or len(tokens) != len(top_lps) or len(tokens) != len(token_lps):
            raise MalformedResponseError("inconsistent logprob arrays in response")
        steps: list[StepDistribution] = []
        for idx, (tok, tok_lp, alts) in enumerate(zip(tokens, token_lps, top_lps), 1):
            if alts is None or tok_lp is None:
                raise MalformedResponseError(f"missing logprobs at step {idx}")
            raw = {str(t): float(lp) for t, lp in alts.items()}
            raw.setdefault(str(tok), float(tok_lp))
            entries = _sorted_entries(raw, cfg.top_k)
            try:
                steps.append(
                    StepDistribution(
                        step_index=idx,
                        entries=entries,
                        chosen_token=str(tok),
                        is_eos=False,
                    )
                )
            except ValueError as exc:
                raise MalformedResponseError(str(exc)) from exc
        finish = choice.get("finish_reason")
        if finish == "length":
            return Rollout(tuple(steps), "max_tokens", None)
        # Any other finish reason is the service's end-of-generation signal.
        steps[-1] = replace(steps[-1], is_eos=True)
        return Rollout(tuple(steps), "eos", "finish_reason")

    def force_score(self, prompt: str, continuation: str, cfg: ProbeConfig) -> list[float]:
        return _only(self.force_scores([prompt], continuation, cfg))

    def force_scores(
        self, prompts: Sequence[str], continuation: str, cfg: ProbeConfig
    ) -> list[list[float] | Exception]:
        """Echo scoring of ``continuation`` after every prompt in one
        request; see ``_batch``. Each choice's scores start at its own
        prompt's end."""
        if not continuation:
            raise ValueError("continuation must be non-empty")
        return self._batch(
            [prompt + continuation for prompt in prompts],
            lambda choice, i: self._forced(choice, len(prompts[i])),
            max_tokens=0,
            echo=True,
            logprobs=0,
        )

    @staticmethod
    def _forced(choice: dict, cut: int) -> list[float]:
        logprobs = choice.get("logprobs")
        if not logprobs or "text_offset" not in logprobs:
            raise UnsupportedCapabilityError(
                "endpoint does not support echo scoring of a supplied continuation"
            )
        offsets = logprobs["text_offset"]
        token_lps = logprobs.get("token_logprobs") or []
        if len(offsets) != len(token_lps):
            raise MalformedResponseError("inconsistent echo logprob arrays")
        scores = [
            float(lp)
            for off, lp in zip(offsets, token_lps)
            if off >= cut and lp is not None
        ]
        if not scores:
            raise MalformedResponseError("echo response covered no continuation tokens")
        return scores

    def complete_text(self, prompt: str, max_tokens: int) -> str:
        choice = self._choice(self._request(self._payload(prompt, max_tokens=max_tokens)))
        text = choice.get("text")
        if text is None:
            raise MalformedResponseError("completion response has no text")
        return str(text).strip()


class Prober(ProbeBackend):
    """The wrapper the rerankers probe through: it counts the prompts asked
    of it in ``calls``, cache hits included, and memoizes greedy rollouts by
    (prompt hash, max-token cap). A stored rollout serves any Top-K width up
    to the one it was probed at, since the uncertainty math truncates the
    recorded entries itself; a wider request re-probes. With ``probe_k`` set,
    misses are probed at least that wide. Forced scores and generations go to
    the inner backend uncached and unwidened.
    """

    def __init__(self, inner: ProbeBackend, probe_k: Optional[int] = None):
        self._inner = inner
        self._probe_k = probe_k
        self._lock = threading.Lock()
        self._store: dict[tuple[str, int], tuple[int, Rollout]] = {}
        self._tally = {"hits": 0, "misses": 0}
        self.calls = 0

    def for_query(self) -> "Prober":
        """A view sharing this prober's backend, store and hit/miss counts,
        whose own ``calls`` start at 0."""
        view = copy.copy(self)
        view.calls = 0
        return view

    @property
    def hits(self) -> int:
        """Rollouts served from the store, over every view."""
        return self._tally["hits"]

    @property
    def misses(self) -> int:
        """Rollouts probed and stored, over every view."""
        return self._tally["misses"]

    def greedy_rollout(self, prompt: str, cfg: ProbeConfig) -> Rollout:
        return _only(self.greedy_rollouts([prompt], cfg))

    def greedy_rollouts(
        self, prompts: Sequence[str], cfg: ProbeConfig
    ) -> list[Rollout | Exception]:
        """Serves hits from the store and sends the misses to the inner
        backend as one batch; only successful rollouts are stored."""
        keys = [(hashlib.sha256(p.encode("utf-8")).hexdigest(), cfg.max_tokens) for p in prompts]
        results: list = [None] * len(prompts)
        missed: list[int] = []
        with self._lock:
            self.calls += len(prompts)
            for i, key in enumerate(keys):
                cached = self._store.get(key)
                if cached is not None and cached[0] >= cfg.top_k:
                    results[i] = cached[1]
                    self._tally["hits"] += 1
                else:
                    missed.append(i)
        if not missed:
            return results
        if self._probe_k is not None:
            cfg = replace(cfg, top_k=max(cfg.top_k, self._probe_k))
        probed = self._inner.greedy_rollouts([prompts[i] for i in missed], cfg)
        with self._lock:
            for i, result in zip(missed, probed):
                results[i] = result
                if not isinstance(result, Exception):
                    self._store[keys[i]] = (cfg.top_k, result)
                    self._tally["misses"] += 1
        return results

    def force_score(self, prompt: str, continuation: str, cfg: ProbeConfig) -> list[float]:
        return _only(self.force_scores([prompt], continuation, cfg))

    def force_scores(
        self, prompts: Sequence[str], continuation: str, cfg: ProbeConfig
    ) -> list[list[float] | Exception]:
        with self._lock:
            self.calls += len(prompts)
        return self._inner.force_scores(prompts, continuation, cfg)

    def complete_text(self, prompt: str, max_tokens: int) -> str:
        with self._lock:
            self.calls += 1
        return self._inner.complete_text(prompt, max_tokens)
