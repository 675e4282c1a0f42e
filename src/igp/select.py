"""Evidence selection: information-gain rerank with threshold pruning, the
budget-truncation executor, and the generator-as-scorer rerank baselines.

Reranking produces a RankedList whose entries carry an admitted flag; the
truncate executor then keeps at most M admitted passages (optionally guarded
by a hard passage-token budget) without knowing or caring which scoring
method produced the list. Swapping the scorer never changes truncation
behavior for the same list.

Per-passage probing failures never abort a query: the failed candidate is
scored as rejected-with-error and recorded. Only an unavailable unconditional
baseline (no reference point for any score) aborts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from .core import (
    CandidateSet,
    EvidenceBudget,
    Passage,
    Query,
    render_probe_prompt,
    render_yesno_prompt,
)
from .probe import ProbeBackend, ProbeConfig, Rollout, UnsupportedCapabilityError
from .uncertainty import (
    IgScore,
    information_gain_from_rollouts,
    topk_renormalize,
)


class BaselineUnavailableError(Exception):
    """The backend lacks a capability this baseline requires."""


def whitespace_token_count(text: str) -> int:
    """The token counter behind the passage-token guard and TK."""
    return len(text.split())


@dataclass(frozen=True)
class RankedEntry:
    passage: Passage
    score: float
    score_kind: str
    admitted: bool
    retriever_rank: int
    ig: Optional[IgScore] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class RankedList:
    """Candidates sorted by score descending; ties break by original
    retriever rank, then passage id. Admission via a threshold is always
    prefix-closed: no lower-scored entry is admitted over a higher one."""

    query_id: str
    entries: tuple[RankedEntry, ...]

    @property
    def admitted_entries(self) -> tuple[RankedEntry, ...]:
        return tuple(e for e in self.entries if e.admitted)

    @property
    def admitted_ids(self) -> tuple[str, ...]:
        return tuple(e.passage.id for e in self.admitted_entries)


@dataclass(frozen=True)
class SelectedEvidence:
    query_id: str
    passages: tuple[Passage, ...]
    total_tokens: int


def _score_candidates(
    candidates: CandidateSet,
    score_kind: str,
    results: Sequence[Any],
    score: Callable[[Passage, Any], tuple[float, bool, Optional[IgScore]]],
) -> RankedList:
    """The loop every ranking shares: ``results`` holds each candidate's
    slot of the query's one backend batch (or its retriever score), in
    retriever order, and ``score`` maps a passage and its result to (score,
    admitted, IG detail). A failed slot, or an exception from ``score``,
    becomes a rejected entry carrying the error.
    """
    entries = []
    for i, ((passage, _), result) in enumerate(
        zip(candidates.candidates, results, strict=True)
    ):
        try:
            if isinstance(result, Exception):
                raise result
            value, admitted, ig = score(passage, result)
            error = None
        except Exception as exc:
            value, admitted, ig = -math.inf, False, None
            error = f"{type(exc).__name__}: {exc}"
        entries.append(
            RankedEntry(
                passage=passage,
                score=value,
                score_kind=score_kind,
                admitted=admitted,
                retriever_rank=i,
                ig=ig,
                error=error,
            )
        )
    entries.sort(key=lambda e: (-e.score, e.retriever_rank, e.passage.id))
    return RankedList(query_id=candidates.query_id, entries=tuple(entries))


def igp_rerank(
    query: Query,
    candidates: CandidateSet,
    backend: ProbeBackend,
    cfg: ProbeConfig,
    t_p: float,
) -> RankedList:
    """Rerank candidates by information gain and admit those with IG >= t_p.

    The no-evidence prompt and the candidate prompts, in retriever order,
    go to the backend as one batch of N+1 probes, so they share their
    question prefix; the no-evidence rollout, and so its NU, is shared
    across all candidates. Passing ``t_p = -inf`` disables pruning and
    reduces to pure IG reordering.
    """
    if not candidates.candidates:
        raise ValueError("candidates must be non-empty")
    passages = [passage for passage, _ in candidates.candidates]
    uncond, *conds = backend.greedy_rollouts(
        [render_probe_prompt(query, p) for p in (None, *passages)], cfg
    )
    # Unconditional NU unavailable means no candidate can be scored: abort.
    if isinstance(uncond, Exception):
        raise uncond

    def score(passage: Passage, cond: Rollout) -> tuple[float, bool, IgScore]:
        ig = information_gain_from_rollouts(
            uncond, cond, cfg.top_k, passage_id=passage.id, mt=cfg.max_tokens
        )
        return ig.ig, ig.ig >= t_p, ig

    return _score_candidates(candidates, "ig", conds, score)


def qlm_rerank(
    query: Query,
    candidates: CandidateSet,
    backend: ProbeBackend,
    cfg: ProbeConfig,
) -> RankedList:
    """Query-likelihood baseline: score each candidate by the mean per-token
    logprob of the question forced after the document-conditioned probing
    prompt. No pruning; every scored candidate is admitted."""
    results = backend.force_scores(
        [render_probe_prompt(query, p) for p, _ in candidates.candidates],
        query.question,
        cfg,
    )
    for result in results:
        if isinstance(result, UnsupportedCapabilityError):
            raise BaselineUnavailableError(
                f"query-likelihood baseline unavailable: {result}"
            ) from result

    def score(passage: Passage, lps: list[float]) -> tuple[float, bool, None]:
        return math.fsum(lps) / len(lps), True, None

    return _score_candidates(candidates, "qlm", results, score)


_AFFIRMATIVE = "yes"


def yesno_rerank(
    query: Query,
    candidates: CandidateSet,
    backend: ProbeBackend,
    cfg: ProbeConfig,
) -> RankedList:
    """Yes/No baseline: score each candidate by the renormalized first-step
    probability mass on the affirmative token (case-insensitive "Yes" after
    whitespace stripping; 0 when absent from the Top-K set). No pruning.

    Each candidate is a one-token rollout; its first step is cut to
    ``cfg.top_k`` entries, so a rollout probed wider scores as a fresh
    narrow probe does."""
    rollouts = backend.greedy_rollouts(
        [render_yesno_prompt(query, p) for p, _ in candidates.candidates],
        replace(cfg, max_tokens=1),
    )

    def score(passage: Passage, rollout: Rollout) -> tuple[float, bool, None]:
        step = rollout.steps[0]
        step = replace(step, entries=step.entries[: cfg.top_k])
        mass = math.fsum(
            p
            for tok, p in topk_renormalize(step)
            if tok.strip().lower() == _AFFIRMATIVE
        )
        return mass, True, None

    return _score_candidates(candidates, "yesno", rollouts, score)


def retriever_ranked(candidates: CandidateSet) -> RankedList:
    """Pass-through ranking in retriever order with all candidates admitted."""
    scores = [score for _, score in candidates.candidates]
    return _score_candidates(candidates, "retriever", scores, lambda _, s: (s, True, None))


def truncate(ranked: RankedList, budget: EvidenceBudget) -> SelectedEvidence:
    """Budget executor: keep admitted entries in order, at most M of them.

    When the token guard is set, the admitted prefix is scanned and the scan
    stops before the first passage whose inclusion would exceed the guard; no
    later, shorter passage is pulled forward to fill the gap.
    """
    kept: list[Passage] = []
    total = 0
    for entry in ranked.admitted_entries:
        if len(kept) >= budget.top_m:
            break
        n = whitespace_token_count(entry.passage.text)
        if budget.token_guard is not None and total + n > budget.token_guard:
            break
        kept.append(entry.passage)
        total += n
    return SelectedEvidence(
        query_id=ranked.query_id, passages=tuple(kept), total_tokens=total
    )
