"""Shared fixture builders: scripted stub tables with hand-computable
uncertainty profiles, the README demo world at test size (corpus + dataset
+ qrels + stub + index), index files cut short inside a chosen section, and
readers of a run's summary table and corpus.

Step profiles use single letters: "u" is a uniform step (normalized
uncertainty exactly 1), "o" a one-hot step (exactly 0), "h" a half step
(mass split over 2 of 4 tokens, uncertainty 1/2 at Top-K width 4).
"""

from __future__ import annotations

import csv
import runpy
import zlib
from pathlib import Path

from igp.core import Passage, load_corpus
from igp.probe import ProbeConfig, StepDistribution
from igp.retrieve import save_index

DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_fixture.py"

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


class MiniWorld:
    """Handles to everything run-level tests need."""

    def __init__(self, root: Path, queries, gold, probe_cfg):
        self.root = root
        self.queries = queries
        self.gold = gold  # query id -> gold passage id
        self.probe_cfg = probe_cfg
        self.corpus_path = root / "corpus.jsonl"
        self.dataset_path = root / "dataset.jsonl"
        self.index_path = root / "bm25.idx"
        self.qrels_path = root / "qrels.tsv"
        self.stub_path = root / "stub.json"


def build_miniworld(root: Path) -> MiniWorld:
    """README's demo world (``scripts/make_demo_fixture.py``) at 10 topics
    with 15 fillers each, 200 passages, indexed."""
    root = Path(root)
    topics = [
        (f"q{i}", f"where does one find zephyr{i} quartz{i} today", f"amber{i} beacon{i}")
        for i in range(10)
    ]
    queries, gold_of, index = runpy.run_path(str(DEMO_SCRIPT))["build"](root, topics, fillers=15)
    world = MiniWorld(root, queries, gold_of, ProbeConfig(top_k=4, max_tokens=8))
    save_index(index, world.index_path)
    return world
