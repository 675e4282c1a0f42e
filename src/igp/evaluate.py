"""Answer-quality and cost metrics: normalization, token-level F1, dataset
aggregation with normalized token efficiency, NDCG@k, and Spearman rank
correlation with average-rank tie handling.

All functions are pure; dataset aggregation is a straightforward fold.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .core import open_input

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, strip ASCII punctuation, collapse whitespace runs; articles
    stay. Idempotent."""
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


def token_f1(prediction: str, reference: str) -> tuple[float, float, float]:
    """Token-level (precision, recall, F1) via multiset overlap of the
    normalized, whitespace-split token counts. Zero overlap, or either side
    empty after normalization, scores (0, 0, 0)."""
    pred_tokens = normalize_answer(prediction).split()
    ref_tokens = normalize_answer(reference).split()
    if not pred_tokens or not ref_tokens:
        return (0.0, 0.0, 0.0)
    overlap = sum((Counter(pred_tokens) & Counter(ref_tokens)).values())
    if overlap == 0:
        return (0.0, 0.0, 0.0)
    precision = overlap / len(pred_tokens)
    recall = overlap / len(ref_tokens)
    f1 = 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


def f1_best_of_refs(
    prediction: str,
    refs: Sequence[str],
    closed_set_yes_no: bool = False,
) -> float:
    """Best F1 over the reference answers.

    With ``closed_set_yes_no`` each reference scores 1 iff the normalized
    strings match exactly, else 0 (the exact-match rule for yes/no answers).
    An empty reference set is an error: unlabeled samples must be excluded
    upstream, not scored 0.
    """
    if not refs:
        raise ValueError("reference set is empty; exclude unlabeled samples upstream")
    if closed_set_yes_no:
        pred_norm = normalize_answer(prediction)
        return max(
            1.0 if pred_norm == normalize_answer(ref) else 0.0 for ref in refs
        )
    return max(token_f1(prediction, ref)[2] for ref in refs)


def is_closed_set_yes_no(refs: Sequence[str]) -> bool:
    """True when every reference normalizes to "yes" or "no"."""
    return bool(refs) and all(
        normalize_answer(r) in ("yes", "no") for r in refs
    )


@dataclass(frozen=True)
class SampleResult:
    query_id: str
    prediction: Optional[str]  # None when run without generation
    f1: Optional[float]  # None without gold answers or a prediction
    input_tokens: int
    ndcg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.f1 is not None and not 0.0 <= self.f1 <= 1.0:
            raise ValueError(f"f1 out of range: {self.f1}")
        if self.input_tokens < 0:
            raise ValueError("input_tokens must be >= 0")
        if self.ndcg is not None and not 0.0 <= self.ndcg <= 1.0:
            raise ValueError(f"ndcg out of range: {self.ndcg}")


@dataclass(frozen=True)
class DatasetSummary:
    n_samples: int
    f1_mean: Optional[float]
    tk_mean: float
    nte: Optional[float] = None
    ndcg_mean: Optional[float] = None


def normalized_token_efficiency(
    f1: Optional[float], tk: float, base_f1: Optional[float], base_tk: float
) -> float:
    """Quality per token relative to a baseline: (f1/tk) / (base_f1/base_tk).
    Undefined, and an error, when an F1 is None or a token mean or the
    baseline F1 is zero."""
    if f1 is None or not base_f1 or tk == 0 or base_tk == 0:
        raise ValueError(
            "NTE undefined: requires F1 means, nonzero token means and nonzero baseline F1"
        )
    return (f1 / tk) / (base_f1 / base_tk)


def mean(values: Sequence[float]) -> Optional[float]:
    """The one mean every summary uses: ``fsum / len``; None when empty."""
    if not values:
        return None
    return math.fsum(values) / len(values)


def dataset_summary(
    results: Sequence[SampleResult],
    baseline: Optional[DatasetSummary] = None,
) -> DatasetSummary:
    """Arithmetic means: F1 and NDCG over the samples that have one (None
    when none has), input tokens over every sample. With a baseline,
    normalized token efficiency (quality-per-token relative to the baseline)
    is attached. The baseline scored against itself yields NTE = 1 exactly.
    """
    if not results:
        raise ValueError("results must be non-empty")
    f1_mean = mean([r.f1 for r in results if r.f1 is not None])
    tk_mean = mean([r.input_tokens for r in results])
    nte: Optional[float] = None
    if baseline is not None:
        nte = normalized_token_efficiency(f1_mean, tk_mean, baseline.f1_mean, baseline.tk_mean)
    ndcg_mean = mean([r.ndcg for r in results if r.ndcg is not None])
    return DatasetSummary(len(results), f1_mean, tk_mean, nte, ndcg_mean)


def _dcg(rels: Sequence[int]) -> float:
    return math.fsum(
        (2.0**rel - 1.0) / math.log2(i + 2) for i, rel in enumerate(rels)
    )


def ndcg_at_k(
    ranked_passage_ids: Sequence[str],
    qrels: Mapping[str, int],
    k: int,
) -> float:
    """Normalized discounted cumulative gain at cutoff k.

    Passages without a judgment count as relevance 0. The ideal ranking is
    taken over all judged passages for the query, not only retrieved ones.
    A query with no positive judgments scores 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gains = [qrels.get(pid, 0) for pid in ranked_passage_ids[:k]]
    ideal = sorted(qrels.values(), reverse=True)[:k]
    idcg = _dcg(ideal)
    if idcg == 0:
        return 0.0
    return _dcg(gains) / idcg


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, smallest first, with tied values sharing the mean of
    the ranks they span."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    start = 0
    while start < n:
        stop = start
        while stop + 1 < n and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        mean_rank = (start + stop) / 2.0 + 1.0
        for pos in range(start, stop + 1):
            ranks[order[pos]] = mean_rank
        start = stop + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks."""
    if len(xs) != len(ys):
        raise ValueError("input vectors must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    mx = math.fsum(rx) / len(rx)
    my = math.fsum(ry) / len(ry)
    dx = [r - mx for r in rx]
    dy = [r - my for r in ry]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0 or var_y == 0:
        raise ValueError("correlation undefined for a constant input vector")
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    return cov / math.sqrt(var_x * var_y)


# query id -> (passage id -> graded relevance)
QrelSet = dict[str, dict[str, int]]


def load_qrels(path: str | Path) -> QrelSet:
    """Load a TSV of ``query-id<TAB>passage-id<TAB>relevance`` rows; a
    leading header row is skipped when its relevance column is not numeric.
    A pair judged twice is refused."""
    qrels: QrelSet = {}
    first_line: dict[tuple[str, str], int] = {}
    with open_input(path, "qrels") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            qid, pid, rel_str = parts
            try:
                rel = int(rel_str)
            except ValueError:
                if lineno == 1:
                    continue
                raise ValueError(f"{path}:{lineno}: relevance is not an integer")
            if rel < 0:
                raise ValueError(f"{path}:{lineno}: relevance must be >= 0")
            if (qid, pid) in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate judgment for {qid}/{pid} "
                    f"(first on line {first_line[qid, pid]})"
                )
            first_line[qid, pid] = lineno
            qrels.setdefault(qid, {})[pid] = rel
    return qrels
