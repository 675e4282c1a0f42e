"""Prompt rendering, domain-type invariants, and file loading."""

import json
import re

import pytest
from hypothesis import given, strategies as st

from igp.core import (
    CandidateSet,
    EvidenceBudget,
    Passage,
    Query,
    format_reference,
    load_corpus,
    load_dataset,
    render_answer_prompt,
    render_probe_prompt,
    render_yesno_prompt,
)

Q = Query("q1", "Q?")
P1 = Passage("p1", "first passage text")
P2 = Passage("p2", "second passage text")


class TestTypes:
    def test_passage_requires_nonempty_fields(self):
        with pytest.raises(ValueError):
            Passage("", "text")
        with pytest.raises(ValueError):
            Passage("p", "")

    def test_query_rejects_empty_gold_answer(self):
        with pytest.raises(ValueError):
            Query("q", "question", ("ok", ""))

    def test_candidate_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CandidateSet("q", ((P1, 2.0), (P1, 1.0)))

    def test_candidate_set_rejects_unordered_scores(self):
        with pytest.raises(ValueError):
            CandidateSet("q", ((P1, 1.0), (P2, 2.0)))

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            EvidenceBudget(top_m=0)
        with pytest.raises(ValueError):
            EvidenceBudget(top_m=1, token_guard=0)
        assert EvidenceBudget(top_m=1).token_guard is None


class TestAnswerPrompt:
    def test_doc_blocks_in_order(self):
        prompt = render_answer_prompt(Q, [P1, P2])
        block1 = f"[DOC 1] {P1.text}"
        block2 = f"[DOC 2] {P2.text}"
        assert block1 in prompt
        assert block2 in prompt
        assert prompt.index(block1) < prompt.index(block2)
        assert "Question: Q?" in prompt

    def test_empty_evidence_keeps_template_shape(self):
        prompt = render_answer_prompt(Q, [])
        assert "User: Documents:\n\n\nQuestion: Q?" in prompt
        assert prompt.endswith("Answer:")

    def test_deterministic(self):
        assert render_answer_prompt(Q, [P1, P2]) == render_answer_prompt(Q, [P1, P2])

    def test_indices_restart_from_one(self):
        # After pruning, retained passages are renumbered 1..M regardless of
        # their original retrieval ranks.
        prompt = render_answer_prompt(Q, [P2])
        assert f"[DOC 1] {P2.text}" in prompt
        assert "[DOC 2]" not in prompt

    @given(st.integers(min_value=0, max_value=6))
    def test_prefix_consistency(self, cut):
        passages = [Passage(f"p{i}", f"text number {i}") for i in range(6)]
        full = render_answer_prompt(Q, passages)
        partial_block = format_reference(passages[:cut])
        assert partial_block in full


class TestProbePrompt:
    def test_unconditional(self):
        assert render_probe_prompt(Q, None) == "User: Q?\nAssistant:"

    def test_conditional_contains_passage_once(self):
        prompt = render_probe_prompt(Q, P1)
        assert prompt == f"User: Q?\nContext:\n{P1.text}\nAssistant:"
        assert prompt.count(P1.text) == 1

    def test_pair_differs_only_in_context_block(self):
        uncond = render_probe_prompt(Q, None)
        cond = render_probe_prompt(Q, P1)
        assert cond.replace(f"Context:\n{P1.text}\n", "") == uncond

    def test_slot_like_text_is_not_reexpanded(self):
        tricky = Passage("p", "weird {question} braces")
        for render in (render_probe_prompt, render_yesno_prompt):
            prompt = render(Q, tricky)
            assert "weird {question} braces" in prompt
        # Neither a question nor a passage is read as a template, in any of
        # the four prompts.
        text = "{0} {{ {reference} {question} {context} }} {x!r}"
        query, passage = Query("q", f"Q {text}"), Passage("p", f"P {text}")
        assert render_probe_prompt(query, None) == f"User: Q {text}\nAssistant:"
        for prompt in (
            render_probe_prompt(query, passage),
            render_yesno_prompt(query, passage),
            render_answer_prompt(query, [passage]),
        ):
            assert prompt.count(f"Q {text}") == prompt.count(f"P {text}") == 1


class TestLoaders:
    def test_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [{"id": "a", "contents": "alpha"}, {"id": "b", "contents": "beta"}]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        passages = list(load_corpus(path))
        assert [p.id for p in passages] == ["a", "b"]
        assert passages[0].text == "alpha"

    def test_dataset_roundtrip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [
            {"id": "q1", "question": "Q?", "golden_answers": ["x", "y"]},
            {"id": "q2", "question": "R?", "golden_answers": []},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        queries = load_dataset(path)
        assert queries[0].gold_answers == ("x", "y")
        assert queries[1].gold_answers == ()

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        passage = '{"id": "a", "contents": "x"}'
        query = '{"id": "q1", "question": "Q?"}'
        answers = '{"id": "q2", "question": "R?", "golden_answers": %s}'
        cases = [
            (load_corpus, passage, "not json", "invalid JSON"),
            (load_corpus, passage, '["b", "y"]', "not a JSON object"),
            (load_corpus, passage, '{"contents": "y"}', "'id'"),
            (load_corpus, passage, '{"id": null, "contents": "y"}', "'id'"),
            (load_corpus, passage, '{"id": "b"}', "'contents'"),
            (load_corpus, passage, '{"id": "b", "contents": 3}', "'contents'"),
            (load_corpus, passage, '{"id": "b", "contents": ""}', "'contents'"),
            (load_dataset, query, '{"id": "q2"}', "'question'"),
            (load_dataset, query, '{"id": "q2", "question": ""}', "'question'"),
            (load_dataset, query, answers % '"Paris"', "'golden_answers'"),
            (load_dataset, query, answers % '["Paris", 3]', "'golden_answers'"),
            (load_dataset, query, answers % '["Paris", ""]', "'golden_answers'"),
            (load_dataset, query, query, r"duplicate query id 'q1' \(first on line 1\)"),
        ]
        for load, good, bad, field in cases:
            path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{field}"):
                list(load(path))
