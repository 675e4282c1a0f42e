"""Seeded synthetic worlds for the benchmark workloads.

A world is a corpus, a dataset, qrels, and the model side: a stub table for
``StubBackend`` or a response map for the fake completions endpoint. The same
seed and size always give byte-identical files.

Every number the output check compares against comes from the construction,
not from running the pipeline:

* Retrieval. Each query plants two rare terms in exactly five passages, with
  term frequencies 5, 4, 3, 2, 1 for the first term and 1 for the second.
  Every passage has exactly ``PASSAGE_TOKENS`` tokens, so BM25 length norms
  are equal and the planted passages rank in that order. The query's three
  common Zipf terms never occur in its planted passages, and
  ``_check_retrieval_margin`` proves that no other passage can outscore the
  weakest planted one.
* Probing. A rollout has ``L`` steps, each either exactly uniform (normalized
  uncertainty 1) or exactly one-hot (0), so its NU is ``u / L`` for ``u``
  uniform steps at any Top-K width. Information gains are therefore exact
  multiples of ``1 / L``, chosen away from every pruning threshold swept.
* Admission. IG reranking orders candidates by gain, and a threshold admits
  the gains at or above it, so the admitted passage ids of every query at
  every threshold are known too.
* Answers. The answer prompt for each admitted evidence list maps to either
  the gold answer (F1 1) or its first word plus a wrong word (F1 1/2).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from igp.core import Passage, Query, render_answer_prompt, render_probe_prompt

PASSAGE_TOKENS = 60
CANDIDATES = 5  # planted passages per query; equals the CLI's default --topn
# Each query takes one of these triples of Zipf ranks for its common terms.
# Every triple sums to about the same postings-list length (document
# frequencies of roughly 1.9 corpus sizes), so every query walks about the
# same number of postings and the per-query latency distribution has one
# mode instead of one per triple.
COMMON_RANK_SETS = ((0, 7, 11), (1, 6, 10), (2, 5, 9), (3, 4, 8))
ZIPF_EXPONENT = 1.0
HARD_SHARE = 0.25  # queries whose answer stays partial even on clean evidence

# BM25 constants of the CLI's search (igp.retrieve.Bm25Params defaults).
_K1 = 0.9


@dataclass(frozen=True)
class Probing:
    """Rollout shape: ``width`` Top-K entries per step, ``length`` steps, and
    the number of uniform steps in the no-evidence rollout and in each
    candidate's conditional rollout."""

    width: int
    length: int
    uncond_uniform: int
    cand_uniform: tuple[int, ...]

    def gains(self) -> list[Fraction]:
        return [Fraction(self.uncond_uniform - u, self.length) for u in self.cand_uniform]


@dataclass(frozen=True)
class Spec:
    passages: int
    queries: int
    vocab: int
    probing: Probing | None  # None: retriever order, no probe prompts
    tps: tuple[float, ...]  # pruning thresholds the run or sweep uses


@dataclass
class World:
    corpus: Path
    dataset: Path
    qrels: Path
    model: Path  # stub table or endpoint response map
    expected: dict[float, dict]  # tp -> {"f1", "tk", "n"}
    admitted: dict[float, dict[str, list[str]]]  # tp -> query id -> passage ids, in rank order


def _vocab(rng: random.Random, size: int) -> list[str]:
    # Consonant-vowel pseudo-words: no digits and no "x", so they never
    # collide with the planted rare terms.
    cons, vows = "bcdfghjklmnprstvwz", "aeiou"
    syll = [c + v for c in cons for v in vows]
    words: set[str] = set()
    out: list[str] = []
    while len(out) < size:
        w = "".join(rng.choice(syll) for _ in range(rng.choice((2, 3))))
        if w not in words:
            words.add(w)
            out.append(w)
    return out


def _idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def _check_retrieval_margin(n_docs: int, df: dict[str, int], commons: list[list[str]]) -> None:
    # All passages have the same length, so a term with frequency tf adds
    # idf * tf * (k1 + 1) / (tf + k1), which is below idf * (k1 + 1). The
    # weakest planted passage holds each rare term (df = CANDIDATES) once.
    floor = 2 * _idf(n_docs, CANDIDATES)
    for terms in commons:
        ceiling = sum(_idf(n_docs, df[t]) for t in terms) * (_K1 + 1.0)
        if ceiling >= floor:
            raise RuntimeError(
                f"world construction cannot guarantee the planted ranking: "
                f"common-term ceiling {ceiling:.3f} >= planted floor {floor:.3f}"
            )


def _uniform_step(tokens: list[str]) -> dict:
    lp = round(-math.log(len(tokens)), 6)
    return {t: lp for t in tokens}


def _onehot_step(tokens: list[str], chosen: int) -> dict:
    return {t: (0.0 if i == chosen else -1000.0) for i, t in enumerate(tokens)}


def _rollout(rng: random.Random, p: Probing, uniform: int, tokens: list[str]) -> list[dict]:
    kinds = [True] * uniform + [False] * (p.length - uniform)
    rng.shuffle(kinds)
    return [
        _uniform_step(tokens) if u else _onehot_step(tokens, rng.randrange(len(tokens)))
        for u in kinds
    ]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def build(spec: Spec, seed: int, out: Path) -> World:
    """Write the world for ``spec`` and ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    words = _vocab(rng, spec.vocab + 64)
    answer_words, vocab = words[:64], words[64:]
    cum: list[float] = []
    total = 0.0
    for rank in range(len(vocab)):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cum.append(total)

    def filler(count: int, banned: frozenset[str] = frozenset()) -> list[str]:
        drawn: list[str] = []
        while len(drawn) < count:
            drawn.extend(
                w
                for w in rng.choices(vocab, cum_weights=cum, k=count - len(drawn))
                if w not in banned
            )
        return drawn

    if CANDIDATES * spec.queries > spec.passages:
        raise ValueError("corpus too small for the planted passages")
    slots = list(range(spec.passages))
    rng.shuffle(slots)
    texts: list[str] = [""] * spec.passages
    queries: list[tuple[Query, list[int], str, bool]] = []
    commons: list[list[str]] = []
    for qi in range(spec.queries):
        rare_a, rare_b = f"xa{qi}", f"xb{qi}"
        common = [vocab[r] for r in COMMON_RANK_SETS[qi % len(COMMON_RANK_SETS)]]
        mine = slots[qi * CANDIDATES : (qi + 1) * CANDIDATES]
        for rank, slot in enumerate(mine):
            tokens = [rare_a] * (CANDIDATES - rank) + [rare_b]
            tokens += filler(PASSAGE_TOKENS - len(tokens), frozenset(common))
            rng.shuffle(tokens)
            texts[slot] = " ".join(tokens)
        a1, a2, wrong = rng.sample(answer_words, 3)
        question = f"{rare_a} {common[0]} {common[1]} {rare_b} {common[2]}"
        query = Query(f"q{qi:04d}", question, (f"{a1} {a2}",))
        queries.append((query, mine, f"{a1} {wrong}", rng.random() < HARD_SHARE))
        commons.append(common)
    for slot in slots[CANDIDATES * spec.queries :]:
        texts[slot] = " ".join(filler(PASSAGE_TOKENS))

    df = {t: 0 for terms in commons for t in terms}
    for text in texts:
        for t in set(text.split()) & df.keys():
            df[t] += 1
    _check_retrieval_margin(spec.passages, df, commons)

    p = spec.probing
    step_tokens = vocab[: p.width] if p else []
    prompts: dict[str, dict] = {}
    scores: dict[float, list[tuple[float, int]]] = {tp: [] for tp in spec.tps}
    admitted_ids: dict[float, dict[str, list[str]]] = {tp: {} for tp in spec.tps}
    qrels: list[str] = []
    for query, mine, partial, hard in queries:
        passages = [Passage(f"d{slot:06d}", texts[slot]) for slot in mine]
        if p is None:
            gains = [Fraction(0)] * CANDIDATES
        else:
            order = rng.sample(range(CANDIDATES), CANDIDATES)
            gains = [p.gains()[k] for k in order]
            prompts[render_probe_prompt(query, None)] = {
                "steps": [{"top_logprobs": s} for s in _rollout(rng, p, p.uncond_uniform, step_tokens)]
            }
            for passage, k in zip(passages, order):
                steps = _rollout(rng, p, p.cand_uniform[k], step_tokens)
                prompts[render_probe_prompt(query, passage)] = {
                    "steps": [{"top_logprobs": s} for s in steps]
                }
        # IG rerank order: gain descending, retriever rank breaking ties.
        ranked = sorted(range(CANDIDATES), key=lambda r: (-gains[r], r))
        best = ranked[0]
        qrels.append(f"{query.id}\t{passages[best].id}\t2")
        if best != 0:
            qrels.append(f"{query.id}\t{passages[0].id}\t1")
        for tp in spec.tps:
            admitted = [r for r in ranked if p is None or gains[r] >= tp]
            admitted_ids[tp][query.id] = [passages[r].id for r in admitted]
            clean = not hard and all(gains[r] >= 0 for r in admitted)
            answer = query.gold_answers[0] if clean else partial
            prompt = render_answer_prompt(query, [passages[r] for r in admitted])
            prompts[prompt] = {"text": answer}
            scores[tp].append((1.0 if clean else 0.5, len(prompt.split())))

    corpus = out / "corpus.jsonl"
    dataset = out / "dataset.jsonl"
    qrels_path = out / "qrels.tsv"
    model = out / "model.json"
    _write_jsonl(
        corpus, ({"id": f"d{i:06d}", "contents": t} for i, t in enumerate(texts))
    )
    _write_jsonl(
        dataset,
        (
            {"id": q.id, "question": q.question, "golden_answers": list(q.gold_answers)}
            for q, *_ in queries
        ),
    )
    qrels_path.write_text("\n".join(qrels) + "\n", encoding="utf-8")
    model.write_text(
        json.dumps({"prompts": prompts}, separators=(",", ":")), encoding="utf-8"
    )
    expected = {
        tp: {
            "f1": math.fsum(f for f, _ in rows) / len(rows),
            "tk": math.fsum(t for _, t in rows) / len(rows),
            "n": len(rows),
        }
        for tp, rows in scores.items()
    }
    return World(corpus, dataset, qrels_path, model, expected, admitted_ids)
