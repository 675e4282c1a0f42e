#!/usr/bin/env python3
"""Generate a small self-contained demo world for the CLI walkthrough.

Writes a corpus, a dataset, qrels, and a scripted stub-backend table into a
target directory. Per topic, two term-stuffed long distractors outrank the
short gold passage at retrieval, ahead of two weak matches and the fillers.
The stub is keyed on the exact prompts the pipeline will render: conditional
probes on gold passages collapse uncertainty, probes on distractors inflate
it, and only the gold-only answer prompt yields the correct answer. That
makes gain-based pruning visibly beat retriever order on both quality and
token cost, at desk scale, with no model attached. The test suite's mini
world is this recipe at 10 topics (``tests/helpers.build_miniworld``).

Usage:
    python scripts/make_demo_fixture.py demo/
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from igp.core import (
    Passage,
    Query,
    render_answer_prompt,
    render_probe_prompt,
    render_yesno_prompt,
)
from igp.retrieve import Analyzer, Bm25Params, InvertedIndex, build_index, search

# (query id, question, gold answer); the question's two words before its
# last are the topic's terms.
TOPICS = [
    ("q0", "where does one find the cobalt lantern today", "ivory harbor"),
    ("q1", "where does one find the marble compass today", "cedar vault"),
    ("q2", "where does one find the copper astrolabe today", "granite spire"),
]


def pad(word: str, n: int) -> str:
    return " ".join(f"{word}{j}" for j in range(n))


def build(
    out_dir: Path, topics=TOPICS, fillers: int = 10
) -> tuple[list[Query], dict[str, str], InvertedIndex]:
    """Write the world into ``out_dir``; return its queries, each query's
    gold passage id, and the corpus's index (not saved)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    passages: dict[str, Passage] = {}
    corpus_rows, dataset_rows, qrel_lines = [], [], []
    queries: list[Query] = []
    gold_of: dict[str, str] = {}

    def add(pid: str, text: str) -> None:
        passages[pid] = Passage(pid, text)
        corpus_rows.append({"id": pid, "contents": text})

    for i, (qid, question, answer) in enumerate(topics):
        terms = " ".join(question.split()[-3:-1])
        queries.append(Query(qid, question, (answer,)))
        dataset_rows.append(
            {"id": qid, "question": question, "golden_answers": [answer]}
        )
        gold_id = f"{qid}-gold"
        gold_of[qid] = gold_id
        add(f"{qid}-strong1", f"{terms} " * 4 + pad(f"lore{i}x", 50))
        add(f"{qid}-strong2", f"{terms} " * 3 + pad(f"myth{i}x", 48))
        add(gold_id, f"{terms} rests within {answer} according to keepers " + pad(f"note{i}x", 8))
        add(f"{qid}-weak1", f"{terms} " + pad(f"dust{i}x", 36))
        add(f"{qid}-weak2", f"{terms} " + pad(f"mist{i}x", 36))
        for j in range(fillers):
            add(f"{qid}-filler{j}", pad(f"tide{i}f{j}x", 24))
        qrel_lines += [
            f"{qid}\t{qid}-strong1\t2",
            f"{qid}\t{qid}-strong2\t1",
            f"{qid}\t{gold_id}\t0",
        ]

    (out_dir / "corpus.jsonl").write_text(
        "\n".join(json.dumps(r) for r in corpus_rows) + "\n", encoding="utf-8"
    )
    (out_dir / "dataset.jsonl").write_text(
        "\n".join(json.dumps(r) for r in dataset_rows) + "\n", encoding="utf-8"
    )
    (out_dir / "qrels.tsv").write_text("\n".join(qrel_lines) + "\n", encoding="utf-8")

    uniform = {"top_logprobs": {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}}
    onehot = {"top_logprobs": {"a": 0.0, "b": -1000.0, "c": -1000.0, "d": -1000.0}}
    table: dict = {
        "prompts": {},
        "default": {"steps": [uniform, uniform], "text": "unknown answer"},
    }

    index = build_index(passages.values(), Analyzer())
    for query in queries:
        gold_id = gold_of[query.id]
        top5 = list(search(index, query.question, Bm25Params(top_n=5), query.id).passages)
        order = [p.id for p in top5]
        kinds = ("strong1", "strong2", "gold", "weak1", "weak2")
        expected = [f"{query.id}-{kind}" for kind in kinds]
        if order != expected:
            raise RuntimeError(f"unexpected retrieval order for {query.id}: {order}")
        table["prompts"][render_probe_prompt(query, None)] = {
            "steps": [uniform, uniform, uniform, onehot]
        }
        for passage in top5:
            profile = [onehot, onehot] if passage.id == gold_id else [uniform, uniform]
            table["prompts"][render_probe_prompt(query, passage)] = {"steps": profile}
            yes, no = (-0.1, -2.4) if passage.id == f"{query.id}-strong2" else (-2.4, -0.1)
            table["prompts"][render_yesno_prompt(query, passage)] = {
                "steps": [{"top_logprobs": {"Yes": yes, "No": no}}]
            }
        # Only the gold passage alone answers right; retriever order at both
        # budgets answers wrongly, and the yes/no favourite half right.
        answer = query.gold_answers[0]
        table["prompts"][render_answer_prompt(query, [passages[gold_id]])] = {"text": answer}
        table["prompts"][render_answer_prompt(query, top5[:1])] = {"text": "unknown answer"}
        table["prompts"][render_answer_prompt(query, top5)] = {"text": "unknown answer"}
        table["prompts"][render_answer_prompt(query, [top5[1]])] = {
            "text": answer.split()[0] + " annex"
        }

    (out_dir / "stub.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    return queries, gold_of, index


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    out_dir = parser.parse_args().out_dir
    build(out_dir)
    print(f"demo world -> {out_dir}")
    print("try:")
    print(f"  igp index --corpus {out_dir}/corpus.jsonl --out {out_dir}/bm25.idx")
    print(
        f"  igp run --index {out_dir}/bm25.idx --dataset {out_dir}/dataset.jsonl"
        f" --qrels {out_dir}/qrels.tsv --stub {out_dir}/stub.json"
        f" --topk 4 --max-tokens 8 --rerank igp --tp 0.05 --topm 5"
        f" --out {out_dir}/run-igp"
    )
    print(
        f"  igp sweep --index {out_dir}/bm25.idx --dataset {out_dir}/dataset.jsonl"
        f" --qrels {out_dir}/qrels.tsv --stub {out_dir}/stub.json"
        f" --topk 4 --max-tokens 8 --topm 5 --param tp --values=-inf,0,0.05"
        f" --out {out_dir}/sweep-tp"
    )


if __name__ == "__main__":
    main()
