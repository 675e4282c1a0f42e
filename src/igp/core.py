"""Shared domain types, the fixed prompt templates, and dataset/corpus loading.

All types are immutable after construction and safe to share across workers.
Prompt rendering is a pure function of its inputs: identical inputs always
produce byte-identical strings.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO


@dataclass(frozen=True)
class Passage:
    """One retrievable evidence unit with a corpus-unique id."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("passage id must be non-empty")
        if not self.text:
            raise ValueError(f"passage {self.id!r} has empty text")


@dataclass(frozen=True)
class Query:
    """A question with optional gold answers (empty for unlabeled runs)."""

    id: str
    question: str
    gold_answers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.question:
            raise ValueError(f"query {self.id!r} has empty question")
        if any(not a for a in self.gold_answers):
            raise ValueError(f"query {self.id!r} has an empty gold answer")


@dataclass(frozen=True)
class CandidateSet:
    """First-stage retrieval output: (passage, retriever score) pairs,
    ordered by score descending, no duplicate passage ids."""

    query_id: str
    candidates: tuple[tuple[Passage, float], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        prev: Optional[float] = None
        for passage, score in self.candidates:
            if passage.id in seen:
                raise ValueError(f"duplicate candidate id {passage.id!r}")
            seen.add(passage.id)
            if prev is not None and score > prev:
                raise ValueError("candidates not ordered by score descending")
            prev = score

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def passages(self) -> tuple[Passage, ...]:
        return tuple(p for p, _ in self.candidates)


@dataclass(frozen=True)
class EvidenceBudget:
    """Truncation contract: keep at most ``top_m`` passages, optionally
    guarded by a hard passage-token budget."""

    top_m: int
    token_guard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.top_m < 1:
            raise ValueError("top_m must be >= 1")
        if self.token_guard is not None and self.token_guard < 1:
            raise ValueError("token_guard must be >= 1 when set")


DEFAULT_ANSWER_TEMPLATE = (
    "System: You are given a question and a set of documents.\n"
    "Answer the question using only the information in the documents.\n"
    "Output only the answer.\n"
    "\n"
    "User: Documents:\n"
    "{reference}\n"
    "\n"
    "Question: {question}\n"
    "Answer:"
)

DEFAULT_PROBE_UNCONDITIONAL = "User: {question}\nAssistant:"

DEFAULT_PROBE_CONDITIONAL = "User: {question}\nContext:\n{context}\nAssistant:"

# Invented; the generator-as-classifier baseline needs some fixed question
# prompt and none is standardized.
DEFAULT_YESNO_TEMPLATE = (
    "User: {question}\n"
    "Context:\n"
    "{context}\n"
    "Does this document answer the question? Answer Yes or No.\n"
    "Assistant:"
)


def _render(template: str, slots: dict[str, str]) -> str:
    # format_map scans only the template: slot text inserted from user content
    # is never scanned again, so braces inside passages or questions cannot
    # inject slots.
    return template.format_map(slots)


def format_reference(passages: Sequence[Passage]) -> str:
    """Serialize passages as ``[DOC 1] ...`` blocks joined by newlines.

    Indices always restart at 1 over the retained passages, regardless of
    their original retrieval ranks. The empty list yields an empty block.
    """
    return "\n".join(f"[DOC {i}] {p.text}" for i, p in enumerate(passages, 1))


def render_answer_prompt(query: Query, passages: Sequence[Passage]) -> str:
    """Render the final answer-generation prompt over the retained evidence."""
    return _render(
        DEFAULT_ANSWER_TEMPLATE,
        {"reference": format_reference(passages), "question": query.question},
    )


def render_probe_prompt(query: Query, passage: Optional[Passage] = None) -> str:
    """Render the probing prompt; with a passage the conditional template is
    used, otherwise the no-evidence template. For a fixed query the two
    renderings differ only in the context block."""
    if passage is None:
        return _render(DEFAULT_PROBE_UNCONDITIONAL, {"question": query.question})
    return _render(
        DEFAULT_PROBE_CONDITIONAL,
        {"question": query.question, "context": passage.text},
    )


def render_yesno_prompt(query: Query, passage: Passage) -> str:
    """Render the Yes/No baseline's relevance question over one passage."""
    return _render(
        DEFAULT_YESNO_TEMPLATE,
        {"question": query.question, "context": passage.text},
    )


@contextmanager
def open_input(path: str | Path, role: str) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text. A file that cannot be opened or
    decoded is refused with a ``ValueError`` that names its ``role``."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {role} file {path}: {exc}") from exc


def _read_jsonl(path: str | Path, role: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSON-Lines
    file. Every line must be a JSON object with a non-empty "id"."""
    with open_input(path, role) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            if obj.get("id") in (None, ""):
                raise ValueError(f"{path}:{lineno}: field 'id' is missing or empty")
            yield lineno, obj


def _nonempty_str(value: object) -> bool:
    return isinstance(value, str) and value != ""


def load_corpus(path: str | Path) -> Iterator[Passage]:
    """Stream passages from a JSON-Lines corpus of {"id", "contents"} objects."""
    for lineno, obj in _read_jsonl(path, "corpus"):
        text = obj.get("contents")
        if not _nonempty_str(text):
            raise ValueError(
                f"{path}:{lineno}: field 'contents' must be a non-empty string"
            )
        yield Passage(id=str(obj["id"]), text=text)


def load_dataset(path: str | Path) -> list[Query]:
    """Load queries from a JSON-Lines dataset of
    {"id", "question", "golden_answers"} objects."""
    queries: list[Query] = []
    first_line: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path, "dataset"):
        qid = str(obj["id"])
        if qid in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate query id {qid!r} "
                f"(first on line {first_line[qid]})"
            )
        first_line[qid] = lineno
        question = obj.get("question")
        answers = obj.get("golden_answers", [])
        if not _nonempty_str(question):
            raise ValueError(
                f"{path}:{lineno}: field 'question' must be a non-empty string"
            )
        if not (isinstance(answers, list) and all(map(_nonempty_str, answers))):
            raise ValueError(
                f"{path}:{lineno}: field 'golden_answers' must be a list of "
                "non-empty strings"
            )
        queries.append(Query(id=qid, question=question, gold_answers=tuple(answers)))
    return queries
