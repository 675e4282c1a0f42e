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

import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import pairwise
from operator import eq, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar
from urllib.parse import urlsplit, urlunsplit

from .core import open_input


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

# The types a logprob may have; JSON integers are made floats.
_NUMBER = (float, int)


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
    with lexicographic token order breaking ties.

    Backends build steps with ``from_logprobs``, which sorts; entries passed
    in directly are checked for that order instead."""

    step_index: int
    entries: tuple[tuple[str, float], ...]
    chosen_token: str
    # The entries' exp and z·e terms, filled by ``uncertainty``; outside
    # equality, hashing and repr, and empty again after ``replace``.
    _nu_terms: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.step_index < 1:
            raise ValueError("step_index is 1-based")
        if not self.entries:
            raise ValueError("step has no entries")
        lps = list(map(itemgetter(1), self.entries))
        # NaN is the one value not equal to itself.
        if math.inf in lps or not all(map(eq, lps, lps)):
            raise ValueError("logprobs must not be NaN or +inf")
        for (t1, l1), (t2, l2) in pairwise(self.entries):
            if l1 < l2 or (l1 == l2 and t1 > t2):
                raise ValueError("entries must be sorted by logprob desc, token asc")
        # The last entry of a duplicated token is the one looked up.
        chosen_lp = dict(self.entries).get(self.chosen_token)
        if chosen_lp is None:
            raise ValueError(f"chosen token {self.chosen_token!r} not among entries")
        # Sorted, so the first logprob is the largest.
        if chosen_lp < lps[0] - _GREEDY_TOLERANCE:
            raise ValueError("chosen token is not a maximal-logprob entry")

    @classmethod
    def from_logprobs(
        cls,
        step_index: int,
        raw: dict[str, float],
        top_k: int,
        chosen_token: Optional[str] = None,
    ) -> "StepDistribution":
        """The step of a ``token -> logprob`` map: its ``top_k`` entries by
        logprob desc, token asc, with integer logprobs made floats. The
        chosen token is the first entry unless given, and a given one must
        be kept and maximal. A logprob that is not a number, a NaN anywhere
        in the map (no order ranks it) and a +inf are refused. Sorting makes
        the order, so it is not checked again."""
        if set(map(type, raw.values())) != {float}:
            for token, lp in raw.items():
                if type(lp) not in _NUMBER:
                    raise ValueError(f"logprob of {token!r} is not a number: {lp!r}")
            raw = {token: float(lp) for token, lp in raw.items()}
        if not raw:
            raise ValueError("step has no entries")
        lps = raw.values()
        # A finite sum has no NaN or infinity among its terms; NaN is the one
        # value not equal to itself.
        if not math.isfinite(sum(lps)) and (math.inf in lps or not all(map(eq, lps, lps))):
            raise ValueError("logprobs must not be NaN or +inf")
        # Tokens are unique keys, so a sort of the keys alone orders ties by
        # token; the stable logprob sort keeps that order among equals.
        tokens = sorted(raw)
        tokens.sort(key=raw.__getitem__, reverse=True)
        del tokens[top_k:]
        if chosen_token is None:
            chosen_token = tokens[0]
        elif chosen_token not in tokens:
            raise ValueError(f"chosen token {chosen_token!r} not among entries")
        elif raw[chosen_token] < raw[tokens[0]] - _GREEDY_TOLERANCE:
            raise ValueError("chosen token is not a maximal-logprob entry")
        # Built sorted and checked above, so ``__post_init__`` is skipped.
        step = object.__new__(cls)
        step.__dict__.update(
            step_index=step_index,
            entries=tuple(zip(tokens, map(raw.__getitem__, tokens))),
            chosen_token=chosen_token,
            _nu_terms=None,
        )
        return step


@dataclass(frozen=True)
class Rollout:
    """A full greedy probing trajectory.

    ``terminated_by`` is the one record of how it ended: "eos" when
    generation stopped at the final step, which is kept, and "max_tokens"
    when the length cap cut it.
    """

    steps: tuple[StepDistribution, ...]
    terminated_by: str
    # NU per (k, mt), filled by ``uncertainty.sequence_nu``; outside equality,
    # hashing and repr, and empty again after ``replace``.
    _nu_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("rollout must have at least one step")
        if self.terminated_by not in ("eos", "max_tokens"):
            raise ValueError(f"bad terminated_by: {self.terminated_by!r}")
        for pos, step in enumerate(self.steps, 1):
            if step.step_index != pos:
                raise ValueError("step indices must be contiguous from 1")

    @property
    def effective_length(self) -> int:
        return len(self.steps)

    @property
    def chosen_tokens(self) -> tuple[str, ...]:
        return tuple(s.chosen_token for s in self.steps)


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

    Rollouts replay the scripted steps and end as "eos" at the first step
    flagged ``eos``, or at the table's last step when it runs out before
    ``max_tokens``; otherwise the cap cuts them as "max_tokens". Without a
    ``text``, generated text joins the rollout's chosen tokens, leaving out
    the token of a step flagged ``eos``.
    """

    def __init__(self, table: dict):
        prompts = table.get("prompts") if isinstance(table, dict) else None
        if not (isinstance(prompts, dict) and all(isinstance(e, dict) for e in prompts.values())):
            raise ValueError(
                "stub table must be an object whose 'prompts' maps each prompt to an object"
            )
        if not isinstance(table.get("default", {}), dict):
            raise ValueError("stub table's 'default' must be an object")
        self._prompts: dict[str, dict] = prompts
        self._default: Optional[dict] = table.get("default")
        self._oov_logprob: float = float(table.get("oov_logprob", -20.0))

    @classmethod
    def load(cls, path: str | Path) -> "StubBackend":
        with open_input(path, "stub table") as fh:
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
        for idx, raw in enumerate(raw_steps[: cfg.max_tokens], 1):
            steps.append(StepDistribution.from_logprobs(idx, raw["top_logprobs"], cfg.top_k))
            if raw.get("eos"):
                return Rollout(tuple(steps), "eos")
        # A table that runs out before the cap ended generation there.
        ended = len(raw_steps) < cfg.max_tokens
        return Rollout(tuple(steps), "eos" if ended else "max_tokens")

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
        tokens = self.greedy_rollout(prompt, ProbeConfig(max_tokens=max_tokens)).chosen_tokens
        # The rollout stops at the first flagged step, so only its last
        # step can be one, and that step's token is the end marker.
        if entry["steps"][len(tokens) - 1].get("eos"):
            tokens = tokens[:-1]
        return " ".join(tokens).strip()


# HTTP status codes worth retrying; everything else 4xx/5xx is surfaced as-is.
_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

Transport = Callable[[str, dict], tuple[int, dict]]


class _HeldConnection:
    """One thread's connection, closed when this holder is freed: when the
    thread ends, or with the backend that keeps it."""

    def __init__(self, conn):
        self.conn = conn

    def __del__(self):
        self.conn.close()


class HttpBackend(ProbeBackend):
    """Client for an OpenAI-compatible completions endpoint.

    Requests carry temperature 0, the rollout cap as ``max_tokens``, and
    ``logprobs`` set to the Top-K width. The API key is read from the
    environment by the caller and passed in. ``base_url`` is ``http://`` or
    ``https://`` with a host and should include any ``/v1`` prefix the
    service expects. Each request goes to its path plus ``/completions``,
    followed by any query string it has.

    Transport failures are retried with exponential backoff up to
    ``max_retries`` times; malformed payloads are never retried. The default
    transport is stdlib ``http.client`` with one keep-alive connection per
    thread, TLS verified against the system trust store. It reads no proxy
    settings, ``~/.netrc`` or credentials in the URL and follows no
    redirects; pass ``transport`` for those. A call that finds its reused
    connection dropped by the server is sent once more at once on a fresh
    one.
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
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        parts = urlsplit(base_url)
        try:
            port = parts.port
        except ValueError as exc:
            raise ValueError(f"endpoint URL {base_url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"endpoint URL {base_url!r} needs an http:// or https:// scheme and a host"
            )
        self.base_url = base_url.rstrip("/")
        self._https = parts.scheme == "https"
        self._address = (parts.hostname, port or (443 if self._https else 80))
        path = parts.path.rstrip("/") + "/completions"
        self._target = f"{path}?{parts.query}" if parts.query else path
        self._url = urlunsplit((parts.scheme, parts.netloc, path, parts.query, ""))
        self.model = model
        self._api_key = api_key
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._transport = transport or self._default_transport
        self._sleep = sleep
        self._local = threading.local()  # holds this thread's connection

    def _connection(self):
        """A new, not yet opened connection to the endpoint's host."""
        import http.client

        if not self._https:
            return http.client.HTTPConnection(*self._address, timeout=self._timeout)
        import ssl

        return http.client.HTTPSConnection(
            *self._address, timeout=self._timeout, context=ssl.create_default_context()
        )

    def _default_transport(self, url: str, payload: dict) -> tuple[int, dict]:
        """POSTs ``payload`` over this thread's connection; ``url`` is
        ``self._url``, which ``__init__`` split into host and target."""
        import http.client

        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = _HeldConnection(self._connection())
        conn = held.conn
        body = json.dumps(payload, allow_nan=False).encode()
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"

        def send() -> http.client.HTTPResponse:
            conn.request("POST", self._target, body, headers)
            return conn.getresponse()

        try:
            reused = conn.sock is not None
            try:
                resp = send()
            except (BrokenPipeError, ConnectionResetError):
                # The server closed a kept-alive connection before answering.
                if not reused:
                    raise
                conn.close()
                resp = send()
            status, data = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        try:
            return status, json.loads(data)
        except ValueError:
            return status, {}

    def _request(self, payload: dict) -> dict:
        delay = self._backoff
        for attempt in range(self._max_retries + 1):
            if attempt:
                self._sleep(delay)
                delay *= 2
            try:
                status, body = self._transport(self._url, payload)
            except TransportError as exc:
                error = exc
                continue
            if status == 200:
                return body
            if status not in _RETRYABLE_STATUS:
                raise ProbeError(f"endpoint returned {status}: {body}")
            error = TransportError(f"server returned {status} after retries")
        raise error

    @staticmethod
    def _choice(body: dict) -> dict:
        try:
            return body["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"no choices in response: {body}") from exc

    @staticmethod
    def _choices(body: dict, count: int) -> list[Optional[dict]]:
        """The choice of each prompt of a list-prompt response, matched by
        ``index``: None for a prompt that no object choice claims alone, and
        for every prompt unless there is one choice per prompt."""
        try:
            choices = body["choices"]
            if len(choices) == count:
                indexed = [
                    (c["index"], c) for c in choices if isinstance(c, dict) and "index" in c
                ]
                claims = Counter(i for i, _ in indexed)
                by_index = {i: c for i, c in indexed if claims[i] == 1}
                return [by_index.get(i) for i in range(count)]
        except (KeyError, TypeError):
            pass
        return [None] * count

    def _payload(self, prompt: str | list[str], **fields) -> dict:
        return {"model": self.model, "prompt": prompt, "temperature": 0, **fields}

    def _batch(
        self, wire: Sequence[str], parse: Callable[[dict, int], T], **fields
    ) -> list[T | Exception]:
        """``parse(choice, i)`` of the completion of each ``wire`` prompt, all
        sent in one request whose ``prompt`` is the list and whose other
        payload ``fields`` every prompt shares.

        A choice that fails to parse fails its prompt only, with a
        ``MalformedResponseError`` when it has the wrong shape. A batch the
        endpoint refuses, or answers with a choice set that does not match
        the prompts, is re-sent one prompt per request, so each prompt gets
        the result or error it gets alone. In a matching set, only the
        prompts that no one choice claims by ``index`` are re-sent. Retries
        used up on the batch fail every prompt without a re-send. One prompt,
        or a list holding an empty one, goes as plain string payloads.
        """

        def parsed(choice: dict, i: int) -> T:
            try:
                return parse(choice, i)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise MalformedResponseError(str(exc)) from exc

        def alone(i: int) -> T:
            if not wire[i]:
                raise ValueError("prompt must be non-empty")
            return parsed(self._choice(self._request(self._payload(wire[i], **fields))), i)

        choices: list[Optional[dict]] = [None] * len(wire)
        if len(wire) > 1 and all(wire):
            try:
                body = self._request(self._payload(list(wire), **fields))
            except TransportError as exc:
                return [exc] * len(wire)
            except ProbeError:
                pass
            else:
                choices = self._choices(body, len(wire))
        return _each(
            lambda i: alone(i) if choices[i] is None else parsed(choices[i], i),
            range(len(wire)),
        )

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
            tok = str(tok)
            if type(tok_lp) not in _NUMBER:
                raise ValueError(f"logprob of {tok!r} is not a number: {tok_lp!r}")
            raw = alts if tok in alts else {**alts, tok: tok_lp}
            steps.append(StepDistribution.from_logprobs(idx, raw, cfg.top_k, tok))
        # Any finish reason but the length cap is the service's
        # end-of-generation signal.
        cut = choice.get("finish_reason") == "length"
        return Rollout(tuple(steps), "max_tokens" if cut else "eos")

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
        if logprobs and not isinstance(logprobs, dict):
            raise MalformedResponseError(f"echo logprobs is not an object: {logprobs!r}")
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
        """Sent, retried and parsed as a one-prompt probe is; see ``_batch``."""
        return _only(
            self._batch([prompt], lambda choice, _: self._text(choice), max_tokens=max_tokens)
        )

    @staticmethod
    def _text(choice: dict) -> str:
        text = choice.get("text")
        if text is None:
            raise MalformedResponseError("completion response has no text")
        return str(text).strip()


class Prober(ProbeBackend):
    """One query's wrapper around the backend its rerankers probe through.
    ``calls`` counts every prompt asked of it, store hits included. Greedy
    rollouts are stored by (prompt, max-token cap); ``hits`` and ``misses``
    count those served from the store and probed into it. A stored rollout
    serves any Top-K width up to the one it was probed at, since the
    uncertainty math truncates the recorded entries itself; a wider request
    re-probes. With ``probe_k`` set, misses are probed at least that wide.
    Forced scores and generations go to the inner backend uncached and
    unwidened.
    """

    def __init__(self, inner: ProbeBackend, probe_k: Optional[int] = None):
        self._inner = inner
        self._probe_k = probe_k
        self._lock = threading.Lock()
        self._store: dict[tuple[str, int], tuple[int, Rollout]] = {}
        self.calls = 0
        self.hits = 0
        self.misses = 0

    def greedy_rollout(self, prompt: str, cfg: ProbeConfig) -> Rollout:
        return _only(self.greedy_rollouts([prompt], cfg))

    def greedy_rollouts(
        self, prompts: Sequence[str], cfg: ProbeConfig
    ) -> list[Rollout | Exception]:
        """Serves hits from the store and sends the misses to the inner
        backend as one batch; only successful rollouts are stored."""
        keys = [(p, cfg.max_tokens) for p in prompts]
        results: list = [None] * len(prompts)
        missed: list[int] = []
        with self._lock:
            self.calls += len(prompts)
            for i, key in enumerate(keys):
                cached = self._store.get(key)
                if cached is not None and cached[0] >= cfg.top_k:
                    results[i] = cached[1]
                    self.hits += 1
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
                    self.misses += 1
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
