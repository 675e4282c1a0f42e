"""Normalized-uncertainty and information-gain math over Top-K logprob steps.

A step's uncertainty is the entropy of its Top-K renormalized distribution
divided by log of the set size, so it lands in [0, 1]. A rollout's normalized
uncertainty (NU) is the per-step average, which keeps rollouts of different
lengths comparable. Information gain (IG) of a passage is the drop in NU when
the passage is injected: positive IG means the passage makes generation more
decisive, negative IG means it spreads the output distribution.

All entropies are in nats; the base cancels in the ratio either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .probe import Rollout, StepDistribution


class DegenerateDistributionError(ValueError):
    """Every entry has probability zero; no distribution to renormalize."""


class DegenerateStepError(ValueError):
    """Fewer than two alternatives at a step: log K' normalization undefined."""


class EmptyRolloutError(ValueError):
    """A rollout with no steps reached the math core (backend misuse)."""


class IncomparableEstimatesError(ValueError):
    """Two NU estimates were produced under different K or max-token caps."""


@dataclass(frozen=True)
class NuValue:
    """A sequence-level normalized uncertainty in [0, 1], carrying the
    estimation parameters it was computed under."""

    value: float
    steps_used: int
    k_used: int
    mt_used: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"NU out of range: {self.value}")
        if self.steps_used < 1:
            raise ValueError("steps_used must be >= 1")


@dataclass(frozen=True)
class IgScore:
    """Per-passage utility: unconditional NU, conditional NU, and their
    difference. IG is bounded in [-1, 1] because both NUs live in [0, 1]."""

    passage_id: str
    nu_unconditional: NuValue
    nu_conditional: NuValue
    ig: float

    def __post_init__(self) -> None:
        expected = self.nu_unconditional.value - self.nu_conditional.value
        if self.ig != expected:
            raise ValueError("ig must equal nu_unconditional - nu_conditional")
        if not -1.0 <= self.ig <= 1.0:
            raise ValueError(f"IG out of range: {self.ig}")


def topk_renormalize(step: StepDistribution) -> list[tuple[str, float]]:
    """Softmax of the step's entry logprobs over the recorded set only.

    Order is preserved and the probabilities sum to 1. Shift-invariant:
    adding a constant to every logprob does not change the output.
    """
    lps = [lp for _, lp in step.entries]
    m = max(lps)
    if m == -math.inf:
        raise DegenerateDistributionError("all entries carry zero probability")
    exps = [math.exp(lp - m) for lp in lps]
    total = math.fsum(exps)
    return [(tok, e / total) for (tok, _), e in zip(step.entries, exps)]


def token_entropy(probs: Sequence[tuple[str, float]]) -> float:
    """Shannon entropy in nats of a renormalized distribution, with the
    0·log 0 := 0 convention."""
    total = math.fsum(p for _, p in probs)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")
    for tok, p in probs:
        if p < -1e-12 or p > 1.0 + 1e-12:
            raise ValueError(f"probability out of range for {tok!r}: {p}")
    return -math.fsum(p * math.log(p) for _, p in probs if p > 0.0)


def _entropy_from_logprobs(logprobs: Sequence[float]) -> float:
    # Log-domain form of the renormalized entropy: log(sum e^z) - sum(z e^z)/sum(e^z)
    # with z shifted by the max. Equals token_entropy(topk_renormalize(...))
    # and is exact on uniform and one-hot steps.
    m = max(logprobs)
    if m == -math.inf:
        raise DegenerateDistributionError("all entries carry zero probability")
    shifted = [lp - m for lp in logprobs]
    exps = [math.exp(z) for z in shifted]
    total = math.fsum(exps)
    dot = math.fsum(z * e for z, e in zip(shifted, exps) if e > 0.0)
    return math.log(total) - dot / total


def step_normalized_uncertainty(step: StepDistribution, k: int) -> float:
    """Entropy of the step's Top-K renormalized distribution divided by
    log K', where K' = min(k, entries actually present).

    When the backend recorded fewer than k alternatives, normalization uses
    the actual set size so the result stays <= 1; when it recorded more
    (e.g. re-deriving at a smaller k from cached steps), the entry list is
    truncated to its top k before renormalizing.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    effective = step.entries[:k]
    k_prime = len(effective)
    if k_prime < 2:
        raise DegenerateStepError(
            f"step {step.step_index} has {k_prime} usable entries; need >= 2"
        )
    h = _entropy_from_logprobs([lp for _, lp in effective])
    return min(max(h / math.log(k_prime), 0.0), 1.0)


def nu_from_steps(
    steps: Sequence[StepDistribution], k: int, mt: Optional[int] = None
) -> NuValue:
    """Arithmetic mean of per-step normalized uncertainties."""
    if not steps:
        raise EmptyRolloutError("cannot average uncertainty over zero steps")
    us = [step_normalized_uncertainty(s, k) for s in steps]
    return NuValue(
        value=math.fsum(us) / len(us),
        steps_used=len(us),
        k_used=k,
        mt_used=mt,
    )


def sequence_nu(rollout: Rollout, k: int, mt: Optional[int] = None) -> NuValue:
    return nu_from_steps(rollout.steps, k, mt)


def information_gain(
    nu_uncond: NuValue, nu_cond: NuValue, passage_id: str
) -> IgScore:
    """Uncertainty reduction from injecting the passage."""
    if nu_uncond.k_used != nu_cond.k_used:
        raise IncomparableEstimatesError(
            f"K mismatch: {nu_uncond.k_used} vs {nu_cond.k_used}"
        )
    if (
        nu_uncond.mt_used is not None
        and nu_cond.mt_used is not None
        and nu_uncond.mt_used != nu_cond.mt_used
    ):
        raise IncomparableEstimatesError(
            f"max-token cap mismatch: {nu_uncond.mt_used} vs {nu_cond.mt_used}"
        )
    return IgScore(
        passage_id=passage_id,
        nu_unconditional=nu_uncond,
        nu_conditional=nu_cond,
        ig=nu_uncond.value - nu_cond.value,
    )


def information_gain_from_rollouts(
    uncond: Rollout,
    cond: Rollout,
    k: int,
    passage_id: str,
    mt: Optional[int] = None,
) -> IgScore:
    """Compute IG from the two probing rollouts' full length-normalized NU
    estimates, which are comparable across differing lengths."""
    return information_gain(
        sequence_nu(uncond, k, mt), sequence_nu(cond, k, mt), passage_id
    )
