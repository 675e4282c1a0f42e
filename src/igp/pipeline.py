"""End-to-end run engine: configuration, per-query records, and dataset-level
aggregation.

Each run writes one directory: a config snapshot, per-query records as
JSON-Lines, and a one-row summary CSV. Records are replayable: a record plus
the corpus reconstructs the exact final prompt. Timing fields are the only
nondeterministic content, so replay comparisons exclude them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .core import (
    CandidateSet,
    EvidenceBudget,
    Passage,
    PromptBundle,
    DEFAULT_PROMPTS,
    Query,
    load_corpus,
    load_dataset,
    render_answer_prompt,
)
from .evaluate import (
    QrelSet,
    f1_best_of_refs,
    is_closed_set_yes_no,
    load_qrels,
    ndcg_at_k,
)
from .probe import (
    HttpBackend,
    ProbeBackend,
    ProbeConfig,
    Prober,
    StubBackend,
    UnsupportedCapabilityError,
)
from .retrieve import Bm25Params, InvertedIndex, load_index, search
from .select import (
    DEFAULT_YESNO_TEMPLATE,
    RankedList,
    igp_rerank,
    qlm_rerank,
    retriever_ranked,
    truncate,
    whitespace_token_count,
    yesno_rerank,
)

API_KEY_ENV = "IGP_API_KEY"

RERANK_METHODS = ("none", "ig", "igp", "qlm", "yesno")

SUMMARY_COLUMNS = ("method", "topm", "tp", "f1", "tk", "nte", "ndcg", "n")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """Everything one end-to-end run needs. Exactly one probing backend may
    be configured (stub table file, or HTTP endpoint plus model name)."""

    index_path: str
    dataset_path: str
    out_dir: str
    corpus_path: Optional[str] = None
    qrels_path: Optional[str] = None
    stub_path: Optional[str] = None
    endpoint: Optional[str] = None
    model: Optional[str] = None
    rerank: str = "igp"
    tp: float = 0.05
    top_m: int = 5
    token_guard: Optional[int] = None
    top_n: int = 5
    top_k: int = 128
    max_tokens: int = 32
    answer_max_tokens: int = 32
    parallelism: int = 4
    generate: bool = True
    labeled_only: bool = False
    failure_ceiling: float = 0.0
    yesno_template: str = DEFAULT_YESNO_TEMPLATE

    def __post_init__(self) -> None:
        if self.rerank not in RERANK_METHODS:
            raise ValueError(f"unknown rerank method {self.rerank!r}")
        if (self.stub_path is None) == (self.endpoint is None):
            raise ValueError("configure exactly one backend: stub_path or endpoint")
        if self.endpoint is not None and not self.model:
            raise ValueError("an HTTP backend needs a model name")
        # -inf is a valid threshold (admit everything); sweeps use it.
        if not _is_number(self.tp) or math.isnan(self.tp):
            raise ValueError(f"tp must be a number, not {self.tp!r}")
        if not (_is_number(self.failure_ceiling) and 0.0 <= self.failure_ceiling <= 1.0):
            raise ValueError(
                f"failure_ceiling must be a number in [0, 1], not {self.failure_ceiling!r}"
            )
        try:
            if self.parallelism < 1:
                raise ValueError("parallelism must be >= 1")
            # Build what every query builds, so a bad setting fails here.
            self.probe_config, self.budget, Bm25Params(top_n=self.top_n)
        except TypeError as exc:
            raise ValueError(f"run setting of the wrong type: {exc}") from exc

    @property
    def probe_config(self) -> ProbeConfig:
        return ProbeConfig(top_k=self.top_k, max_tokens=self.max_tokens)

    @property
    def budget(self) -> EvidenceBudget:
        return EvidenceBudget(top_m=self.top_m, token_guard=self.token_guard)


def make_backend(config: RunConfig) -> ProbeBackend:
    if config.stub_path is not None:
        return StubBackend.load(config.stub_path)
    return HttpBackend(
        base_url=config.endpoint,
        model=config.model,
        api_key=os.environ.get(API_KEY_ENV),
    )


@dataclass
class RunRecord:
    """Per-query provenance: everything behind each number in the summary."""

    query_id: str
    question: str
    method: str
    candidates: list[dict]
    scores: list[dict]
    admitted_ids: list[str]
    final_prompt: str
    prediction: Optional[str]
    f1: Optional[float]
    input_tokens: int
    ndcg: Optional[float]
    probe_calls: int
    probe_failures: int
    timings: dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _score_dicts(ranked: RankedList) -> list[dict]:
    out = []
    for entry in ranked.entries:
        item: dict = {
            "passage_id": entry.passage.id,
            "kind": entry.score_kind,
            "score": None if entry.error is not None else entry.score,
            "admitted": entry.admitted,
            "error": entry.error,
        }
        if entry.ig is not None:
            item["nu_unconditional"] = entry.ig.nu_unconditional.value
            item["nu_conditional"] = entry.ig.nu_conditional.value
        out.append(item)
    return out


def rerank_candidates(
    query: Query,
    candidates: CandidateSet,
    backend: ProbeBackend,
    config: RunConfig,
    prompts: PromptBundle = DEFAULT_PROMPTS,
) -> RankedList:
    """Dispatch to the configured rerank method. "ig" is pure information-
    gain reordering (threshold disabled); "none" keeps retriever order."""
    if not candidates.candidates:
        return RankedList(query_id=query.id, entries=())
    method = config.rerank
    if method == "none":
        return retriever_ranked(candidates)
    if method in ("ig", "igp"):
        t_p = float("-inf") if method == "ig" else config.tp
        return igp_rerank(
            query,
            candidates,
            backend,
            config.probe_config,
            t_p,
            prompts=prompts,
        )
    if method == "qlm":
        return qlm_rerank(
            query,
            candidates,
            backend,
            config.probe_config,
            prompts=prompts,
        )
    if method == "yesno":
        return yesno_rerank(
            query,
            candidates,
            backend,
            config.probe_config,
            yesno_template=config.yesno_template,
        )
    raise ValueError(f"unknown rerank method {method!r}")


def run_query(
    query: Query,
    index: InvertedIndex,
    prober: Prober,
    config: RunConfig,
    qrels: Optional[QrelSet] = None,
    prompts: PromptBundle = DEFAULT_PROMPTS,
) -> RunRecord:
    """retrieve -> rerank -> truncate -> render -> (generate) -> score.

    ``prober`` is this query's own view, so its ``calls`` are the query's
    probe and generation calls."""
    t0 = time.monotonic()
    candidates = search(
        index,
        query.question,
        Bm25Params(top_n=config.top_n),
        query_id=query.id,
    )
    t_retrieve = time.monotonic()
    ranked = rerank_candidates(query, candidates, prober, config, prompts)
    t_rerank = time.monotonic()
    selected = truncate(ranked, config.budget, whitespace_token_count)
    prompt = render_answer_prompt(query, selected.passages, prompts)

    prediction: Optional[str] = None
    if config.generate:
        try:
            prediction = prober.complete_text(prompt, config.answer_max_tokens)
        except UnsupportedCapabilityError:
            prediction = None
    t_generate = time.monotonic()

    f1: Optional[float] = None
    if prediction is not None and query.gold_answers:
        f1 = f1_best_of_refs(
            prediction,
            query.gold_answers,
            closed_set_yes_no=is_closed_set_yes_no(query.gold_answers),
        )

    ndcg: Optional[float] = None
    if qrels is not None and query.id in qrels:
        ndcg = ndcg_at_k(list(ranked.admitted_ids), qrels[query.id], config.top_m)

    score_dicts = _score_dicts(ranked)
    return RunRecord(
        query_id=query.id,
        question=query.question,
        method=config.rerank,
        candidates=[
            {"passage_id": p.id, "retriever_score": s}
            for p, s in candidates.candidates
        ],
        scores=score_dicts,
        admitted_ids=list(ranked.admitted_ids),
        final_prompt=prompt,
        prediction=prediction,
        f1=f1,
        input_tokens=whitespace_token_count(prompt),
        ndcg=ndcg,
        probe_calls=prober.calls,
        probe_failures=sum(1 for s in score_dicts if s["error"]),
        timings={
            "retrieve_s": t_retrieve - t0,
            "rerank_s": t_rerank - t_retrieve,
            "generate_s": t_generate - t_rerank,
            "total_s": time.monotonic() - t0,
        },
    )


def _mean(values: list[float]) -> Optional[float]:
    if not values:
        return None
    return math.fsum(values) / len(values)


@dataclass
class RunResult:
    records: list[RunRecord]  # includes failed queries, error field set
    summary: dict
    failed: int

    @property
    def failure_rate(self) -> float:
        return self.failed / len(self.records) if self.records else 0.0


def run_dataset(
    config: RunConfig,
    backend: Optional[ProbeBackend] = None,
    prompts: PromptBundle = DEFAULT_PROMPTS,
) -> RunResult:
    """Run the whole dataset, persist records and the summary row, and return
    both. Per-query failures are recorded and skipped; the caller decides
    whether the failure rate breaches the configured ceiling.

    Each query probes through its own ``Prober``: a view of ``backend`` when
    that is a ``Prober`` (a sweep's, whose store serves every point), else a
    fresh one whose store dies with the query."""
    index = load_index(config.index_path)
    queries = load_dataset(config.dataset_path)
    qrels = load_qrels(config.qrels_path) if config.qrels_path else None
    if config.labeled_only:
        queries = [
            q for q in queries if q.gold_answers and (qrels is None or q.id in qrels)
        ]
    if backend is None:
        backend = make_backend(config)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(asdict(config), indent=2, sort_keys=True), encoding="utf-8"
    )

    def process(query: Query) -> RunRecord:
        prober = backend.for_query() if isinstance(backend, Prober) else Prober(backend)
        try:
            return run_query(query, index, prober, config, qrels, prompts)
        except Exception as exc:
            return RunRecord(
                query_id=query.id,
                question=query.question,
                method=config.rerank,
                candidates=[],
                scores=[],
                admitted_ids=[],
                final_prompt="",
                prediction=None,
                f1=None,
                input_tokens=0,
                ndcg=None,
                probe_calls=prober.calls,
                probe_failures=0,
                error=f"{type(exc).__name__}: {exc}",
            )

    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        records = list(pool.map(process, queries))

    ok = [r for r in records if r.error is None]
    failed = len(records) - len(ok)

    f1_mean = _mean([r.f1 for r in ok if r.f1 is not None])
    tk_mean = _mean([float(r.input_tokens) for r in ok])
    ndcg_values = [r.ndcg for r in ok if r.ndcg is not None]

    summary = {
        "method": config.rerank,
        "topm": config.top_m,
        "tp": config.tp if config.rerank == "igp" else "",
        "f1": f1_mean if f1_mean is not None else "",
        "tk": tk_mean if tk_mean is not None else "",
        "nte": "",
        "ndcg": _mean(ndcg_values) if ndcg_values else "",
        "n": len(ok),
    }

    with open(out_dir / "records.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    write_summary_csv(out_dir / "summary.csv", [summary])

    return RunResult(records=records, summary=summary, failed=failed)


def write_summary_csv(path: str | Path, rows: list[dict], extra_columns: tuple = ()) -> None:
    columns = list(SUMMARY_COLUMNS) + [c for c in extra_columns if c not in SUMMARY_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_summary_csv(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def load_records(path: str | Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_passage_map(corpus_path: str | Path) -> dict[str, Passage]:
    return {p.id: p for p in load_corpus(corpus_path)}
