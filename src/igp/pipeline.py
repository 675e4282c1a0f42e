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
from typing import Optional, Sequence

from .core import (
    CandidateSet,
    EvidenceBudget,
    Query,
    load_dataset,
    open_input,
    render_answer_prompt,
)
from .evaluate import (
    QrelSet,
    SampleResult,
    dataset_summary,
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


_OPTIONAL_STR = ("corpus_path", "qrels_path", "stub_path", "endpoint", "model")
_STR_SETTINGS = ("index_path", "dataset_path", "out_dir", *_OPTIONAL_STR)

_INT_SETTINGS = (
    "top_m", "token_guard", "top_n", "top_k", "max_tokens", "answer_max_tokens", "parallelism"
)


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

    def __post_init__(self) -> None:
        for name in _STR_SETTINGS:
            value = getattr(self, name)
            if not isinstance(value, str) and not (value is None and name in _OPTIONAL_STR):
                raise ValueError(f"{name} must be a string, not {value!r}")
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
        for name in _INT_SETTINGS:
            value = getattr(self, name)
            # type(), not isinstance(): a bool is an int too.
            if type(value) is not int and not (name == "token_guard" and value is None):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for name in ("generate", "labeled_only"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, not {getattr(self, name)!r}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.answer_max_tokens < 1:
            raise ValueError("answer_max_tokens must be >= 1")
        # Build what every query builds, so a bad setting fails here.
        self.probe_config, self.budget, Bm25Params(top_n=self.top_n)

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
    probe_calls: int
    candidates: list[dict] = field(default_factory=list)
    scores: list[dict] = field(default_factory=list)
    admitted_ids: list[str] = field(default_factory=list)
    final_prompt: str = ""
    prediction: Optional[str] = None
    f1: Optional[float] = None
    input_tokens: int = 0
    ndcg: Optional[float] = None
    probe_failures: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        # Fields hold plain JSON values that nothing mutates, so a shallow
        # copy serves; ``asdict`` would deep-copy every nested list and dict.
        return dict(vars(self))


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
        return igp_rerank(query, candidates, backend, config.probe_config, t_p)
    if method == "qlm":
        return qlm_rerank(query, candidates, backend, config.probe_config)
    if method == "yesno":
        return yesno_rerank(query, candidates, backend, config.probe_config)
    raise ValueError(f"unknown rerank method {method!r}")


def run_query(
    query: Query,
    index: InvertedIndex,
    prober: Prober,
    config: RunConfig,
    qrels: Optional[QrelSet] = None,
) -> RunRecord:
    """retrieve -> rerank -> truncate -> render -> (generate) -> score.

    The record's ``probe_calls`` is ``prober.calls`` when the query ends, so
    the caller zeroes it first."""
    t0 = time.monotonic()
    candidates = search(
        index,
        query.question,
        Bm25Params(top_n=config.top_n),
        query_id=query.id,
    )
    t_retrieve = time.monotonic()
    ranked = rerank_candidates(query, candidates, prober, config)
    t_rerank = time.monotonic()
    selected = truncate(ranked, config.budget)
    prompt = render_answer_prompt(query, selected.passages)

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


@dataclass
class RunResult:
    records: list[RunRecord]  # includes failed queries, error field set
    summary: dict
    failed: int

    @property
    def failure_rate(self) -> float:
        return self.failed / len(self.records) if self.records else 0.0


def run_points(
    configs: Sequence[RunConfig], backend: Optional[ProbeBackend] = None
) -> list[RunResult]:
    """Run the whole dataset at every point (a run is one point, a sweep
    several), persist each point's records and summary row, and return the
    results in point order. Per-query failures are recorded and skipped; the
    caller decides whether a point's failure rate breaches its ceiling.

    The index, dataset, qrels, corpus and backend come from the first config,
    so points differ only in per-query settings. Each query runs every point on
    one worker, through one ``Prober`` made for that query and dropped after
    it: its rollouts serve every point, probed at the widest Top-K any point
    asks for, and no rollout outlives its query. Its ``calls`` are zeroed
    before each point, so a record's ``probe_calls`` are that point's calls."""
    first = configs[0]
    index = load_index(first.index_path)
    queries = load_dataset(first.dataset_path)
    qrels = load_qrels(first.qrels_path) if first.qrels_path else None
    if first.corpus_path is not None:
        # Passage texts come from the index; the corpus is kept in
        # config.json for replay, so it is opened, not parsed.
        with open_input(first.corpus_path, "corpus"):
            pass
    if first.labeled_only:
        queries = [
            q for q in queries if q.gold_answers and (qrels is None or q.id in qrels)
        ]
    if not queries:
        kind = "labeled query" if first.labeled_only else "query"
        raise ValueError(f"dataset {first.dataset_path} has no {kind} to run")
    if backend is None:
        backend = make_backend(first)
    for config in configs:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(
            json.dumps(asdict(config), indent=2, sort_keys=True), encoding="utf-8"
        )
    probe_k = max(c.top_k for c in configs)

    def process(query: Query) -> list[RunRecord]:
        prober = Prober(backend, probe_k=probe_k)
        records = []
        for config in configs:
            prober.calls = 0
            try:
                records.append(run_query(query, index, prober, config, qrels))
            except Exception as exc:
                records.append(
                    RunRecord(
                        query_id=query.id,
                        question=query.question,
                        method=config.rerank,
                        probe_calls=prober.calls,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
        return records

    with ThreadPoolExecutor(max_workers=first.parallelism) as pool:
        by_query = list(pool.map(process, queries))

    results = []
    for i, config in enumerate(configs):
        records = [query_records[i] for query_records in by_query]
        ok = [r for r in records if r.error is None]
        summary = {
            "method": config.rerank,
            "topm": config.top_m,
            "tp": config.tp if config.rerank == "igp" else "",
            "f1": "",
            "tk": "",
            "nte": "",
            "ndcg": "",
            "n": len(ok),
        }
        if ok:
            means = dataset_summary(
                [SampleResult(r.query_id, r.prediction, r.f1, r.input_tokens, r.ndcg) for r in ok]
            )
            values = {"f1": means.f1_mean, "tk": means.tk_mean, "ndcg": means.ndcg_mean}
            summary.update((k, v) for k, v in values.items() if v is not None)
        out_dir = Path(config.out_dir)
        with open(out_dir / "records.jsonl", "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        write_summary_csv(out_dir / "summary.csv", [summary])
        results.append(RunResult(records=records, summary=summary, failed=len(records) - len(ok)))
    return results


def run_dataset(config: RunConfig, backend: Optional[ProbeBackend] = None) -> RunResult:
    """Run the whole dataset at one point; see ``run_points``."""
    return run_points([config], backend)[0]


def write_csv(path: str | Path, columns: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under a ``columns`` header; keys outside it are left out."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_summary_csv(path: str | Path, rows: list[dict], extra_columns: tuple = ()) -> None:
    columns = list(SUMMARY_COLUMNS) + [c for c in extra_columns if c not in SUMMARY_COLUMNS]
    write_csv(path, columns, rows)


def load_records(path: str | Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
