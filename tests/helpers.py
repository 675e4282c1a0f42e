"""Shared fixture builders: scripted stub tables with hand-computable
uncertainty profiles, a small end-to-end world (corpus + dataset + qrels
+ stub) whose gold passages collapse generation uncertainty while the
retriever prefers longer, term-stuffed distractors; index files cut short
inside a chosen section; and readers of a run's summary table and corpus.

Step profiles use single letters: "u" is a uniform step (normalized
uncertainty exactly 1), "o" a one-hot step (exactly 0), "h" a half step
(mass split over 2 of 4 tokens, uncertainty 1/2 at Top-K width 4).
"""

from __future__ import annotations

import csv
import json
import zlib
from pathlib import Path

from igp.core import (
    Passage,
    Query,
    load_corpus,
    render_answer_prompt,
    render_probe_prompt,
    render_yesno_prompt,
)
from igp.probe import ProbeConfig, StepDistribution
from igp.retrieve import Analyzer, Bm25Params, build_index, save_index, search

UNIFORM = {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}
ONEHOT = {"a": 0.0, "b": -1000.0, "c": -1000.0, "d": -1000.0}
HALF = {"a": 0.0, "b": 0.0, "c": -1000.0, "d": -1000.0}

_PROFILE_STEPS = {"u": UNIFORM, "o": ONEHOT, "h": HALF}


def steps_from_profile(profile: str, eos_last: bool = False) -> list[dict]:
    """Build stub step dicts from a profile string like "uuo"."""
    steps = [{"top_logprobs": dict(_PROFILE_STEPS[c])} for c in profile]
    if eos_last:
        steps[-1]["eos"] = True
    return steps


def make_step(logprobs: dict[str, float], index: int = 1) -> StepDistribution:
    entries = tuple(sorted(logprobs.items(), key=lambda kv: (-kv[1], kv[0])))
    return StepDistribution(step_index=index, entries=entries, chosen_token=entries[0][0])


def cut_inside(raw: bytes, section: str) -> int:
    """An offset in the middle of ``section`` of a decompressed index."""
    header_end = raw.index(b"\n") + 1
    column = (len(raw) - header_end) // 2
    return {
        "header": header_end // 2,
        "doc_ids": header_end + column // 2 + 1,
        "tfs": header_end + column + column // 2 + 1,
    }[section]


def cut_short(data: bytes) -> bytes:
    """A gzip stream of ``data`` that stops before its end-of-stream marker,
    as a file cut short while it was written."""
    compressor = zlib.compressobj(1, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
    return compressor.compress(data) + compressor.flush(zlib.Z_SYNC_FLUSH)


def read_summary_csv(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def load_passage_map(corpus_path: str | Path) -> dict[str, Passage]:
    return {p.id: p for p in load_corpus(corpus_path)}


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class MiniWorld:
    """Handles to everything run-level tests need."""

    def __init__(self, root, queries, gold, probe_cfg, paths):
        self.root = root
        self.queries = queries
        self.gold = gold  # query id -> gold passage id
        self.probe_cfg = probe_cfg
        self.corpus_path = paths["corpus"]
        self.dataset_path = paths["dataset"]
        self.index_path = paths["index"]
        self.qrels_path = paths["qrels"]
        self.stub_path = paths["stub"]


def build_miniworld(root: Path, n_queries: int = 10) -> MiniWorld:
    """200-passage world: per query, two term-stuffed long distractors that
    outrank the short gold passage at retrieval, two weak matches, and 15
    fillers. The stub's conditional rollouts collapse to certainty only on
    gold passages; answer prompts yield the gold answer only when the gold
    passage is the sole document in the prompt."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    probe_cfg = ProbeConfig(top_k=4, max_tokens=8)

    corpus_rows: list[dict] = []
    dataset_rows: list[dict] = []
    qrel_lines: list[str] = []
    queries: list[Query] = []
    gold_of: dict[str, str] = {}
    passages: dict[str, Passage] = {}

    def add_passage(pid: str, text: str) -> Passage:
        p = Passage(pid, text)
        passages[pid] = p
        corpus_rows.append({"id": pid, "contents": text})
        return p

    def pad(word: str, n: int) -> str:
        return " ".join(f"{word}{j}" for j in range(n))

    for i in range(n_queries):
        t1, t2 = f"zephyr{i}", f"quartz{i}"
        answer = f"amber{i} beacon{i}"
        question = f"where does one find {t1} {t2} today"
        qid = f"q{i}"
        queries.append(Query(qid, question, (answer,)))
        dataset_rows.append(
            {"id": qid, "question": question, "golden_answers": [answer]}
        )
        gold_id = f"{qid}-gold"
        gold_of[qid] = gold_id

        add_passage(
            f"{qid}-strong1",
            f"{t1} {t2} " * 4 + pad(f"lore{i}x", 50),
        )
        add_passage(
            f"{qid}-strong2",
            f"{t1} {t2} " * 3 + pad(f"myth{i}x", 48),
        )
        add_passage(
            gold_id,
            f"{t1} {t2} rests within {answer} according to keepers "
            + pad(f"note{i}x", 8),
        )
        add_passage(f"{qid}-weak1", f"{t1} {t2} " + pad(f"dust{i}x", 36))
        add_passage(f"{qid}-weak2", f"{t1} {t2} " + pad(f"mist{i}x", 36))
        for j in range(15):
            add_passage(f"{qid}-filler{j}", pad(f"tide{i}f{j}x", 24))
        qrel_lines.append(f"{qid}\t{qid}-strong1\t2")
        qrel_lines.append(f"{qid}\t{qid}-strong2\t1")
        qrel_lines.append(f"{qid}\t{gold_id}\t0")

    paths = {
        "corpus": root / "corpus.jsonl",
        "dataset": root / "dataset.jsonl",
        "index": root / "bm25.idx",
        "qrels": root / "qrels.tsv",
        "stub": root / "stub.json",
    }
    write_jsonl(paths["corpus"], corpus_rows)
    write_jsonl(paths["dataset"], dataset_rows)
    paths["qrels"].write_text("\n".join(qrel_lines) + "\n", encoding="utf-8")

    index = build_index(
        (Passage(r["id"], r["contents"]) for r in corpus_rows), Analyzer()
    )
    save_index(index, paths["index"])

    table: dict = {
        "prompts": {},
        "default": {
            "steps": steps_from_profile("uu"),
            "text": "unknown answer",
        },
    }

    for query in queries:
        gold_id = gold_of[query.id]
        retrieved = search(index, query.question, Bm25Params(top_n=5), query.id)
        retrieved_ids = [p.id for p in retrieved.passages]
        qid = query.id
        assert retrieved_ids == [
            f"{qid}-strong1",
            f"{qid}-strong2",
            gold_id,
            f"{qid}-weak1",
            f"{qid}-weak2",
        ], f"unexpected retrieval order for {qid}: {retrieved_ids}"

        table["prompts"][render_probe_prompt(query, None)] = {
            "steps": steps_from_profile("uuuo")
        }
        for passage in retrieved.passages:
            profile = "oo" if passage.id == gold_id else "uu"
            table["prompts"][render_probe_prompt(query, passage)] = {
                "steps": steps_from_profile(profile)
            }
            table["prompts"][render_yesno_prompt(query, passage)] = {
                "steps": [
                    {
                        "top_logprobs": (
                            {"Yes": -0.1, "No": -2.4}
                            if passage.id == f"{query.id}-strong2"
                            else {"Yes": -2.4, "No": -0.1}
                        )
                    }
                ]
            }

        gold_passage = passages[gold_id]
        answer = query.gold_answers[0]
        table["prompts"][render_answer_prompt(query, [gold_passage])] = {
            "text": answer
        }
        # Retriever-only prompts at both budgets answer wrongly; the
        # yes/no-top passage yields a half-overlapping answer.
        top1 = passages[retrieved_ids[0]]
        top5 = [passages[pid] for pid in retrieved_ids]
        table["prompts"][render_answer_prompt(query, [top1])] = {
            "text": "unknown answer"
        }
        table["prompts"][render_answer_prompt(query, top5)] = {
            "text": "unknown answer"
        }
        strong2 = passages[f"{query.id}-strong2"]
        table["prompts"][render_answer_prompt(query, [strong2])] = {
            "text": answer.split()[0] + " harbor"
        }

    paths["stub"].write_text(json.dumps(table), encoding="utf-8")
    return MiniWorld(root, queries, gold_of, probe_cfg, paths)
