"""First-stage BM25 retrieval: analyzer, inverted index, persistence, search.

The analyzer lowercases and splits on non-alphanumeric runs, with an optional
stopword list; no stemming. Scoring is Okapi BM25 with the non-negative
log(1 + ...) idf variant and defaults k1=0.9, b=0.4. Results are totally
ordered (score descending, passage id ascending on ties), so rankings do not
depend on corpus ingestion order.

The index is immutable after construction: concurrent searches are safe.
"""

from __future__ import annotations

import gzip
import hashlib
import heapq
import json
import math
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import CandidateSet, Passage

_TOKEN_RE = re.compile(r"[0-9a-z]+")

_INDEX_FORMAT = "bm25-index"
_INDEX_VERSION = 2
# Fixed, so index files stay byte-deterministic; low, because at level 9
# compression was most of the time ``igp index`` spent.
_GZIP_LEVEL = 1
# Relative margin below the n-th best score inside which search re-scores
# passages exactly: far above the rounding of a sum in another term order.
_TIE_TOL = 1e-9


class IndexFormatError(ValueError):
    """Persisted index is unreadable or was built by an incompatible analyzer."""


@dataclass(frozen=True)
class Analyzer:
    stopwords: frozenset[str] = frozenset()

    def tokens(self, text: str) -> list[str]:
        toks = _TOKEN_RE.findall(text.lower())
        if self.stopwords:
            toks = [t for t in toks if t not in self.stopwords]
        return toks

    @property
    def fingerprint(self) -> str:
        recipe = "lower-nonalnum-v1|" + ",".join(sorted(self.stopwords))
        return hashlib.sha256(recipe.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4
    top_n: int = 5

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass(frozen=True)
class InvertedIndex:
    """Columnar postings: ``runs`` maps a term to the ``[start, end)`` slice
    of the flat ``doc_ids`` and ``tfs`` arrays that holds its postings, doc
    ordinals ascending within each run. ``ids``, ``texts`` and
    ``doc_lengths`` are indexed by ordinal."""

    runs: dict[str, tuple[int, int]]
    doc_ids: array
    tfs: array
    doc_lengths: tuple[int, ...]
    avg_doc_length: float
    doc_count: int
    ids: tuple[str, ...]
    texts: tuple[str, ...]
    analyzer: Analyzer


def build_index(corpus: Iterable[Passage], analyzer: Analyzer = Analyzer()) -> InvertedIndex:
    """Index a passage stream. Raises on duplicate ids or an empty corpus."""
    postings: dict[str, tuple[list[int], list[int]]] = {}
    doc_lengths: list[int] = []
    ids: list[str] = []
    texts: list[str] = []
    seen: set[str] = set()
    for ordinal, passage in enumerate(corpus):
        if passage.id in seen:
            raise ValueError(f"duplicate passage id {passage.id!r}")
        seen.add(passage.id)
        ids.append(passage.id)
        texts.append(passage.text)
        toks = analyzer.tokens(passage.text)
        doc_lengths.append(len(toks))
        for term, tf in Counter(toks).items():
            run = postings.get(term)
            if run is None:
                run = postings[term] = ([], [])
            run[0].append(ordinal)
            run[1].append(tf)
    if not ids:
        raise ValueError("corpus is empty")
    runs: dict[str, tuple[int, int]] = {}
    doc_ids, tfs = array("i"), array("i")
    for term in sorted(postings):
        ordinals, freqs = postings[term]
        runs[term] = (len(doc_ids), len(doc_ids) + len(ordinals))
        doc_ids.extend(ordinals)
        tfs.extend(freqs)
    return InvertedIndex(
        runs=runs,
        doc_ids=doc_ids,
        tfs=tfs,
        doc_lengths=tuple(doc_lengths),
        avg_doc_length=math.fsum(doc_lengths) / len(doc_lengths),
        doc_count=len(ids),
        ids=tuple(ids),
        texts=tuple(texts),
        analyzer=analyzer,
    )


def idf(doc_count: int, doc_freq: int) -> float:
    return math.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))


def search(
    index: InvertedIndex,
    query_text: str,
    params: Bm25Params = Bm25Params(),
    query_id: str = "",
) -> CandidateSet:
    """Top-n passages by BM25 score, descending, ties broken by id ascending.

    A query whose terms match nothing returns an empty candidate list.

    Exact MaxScore (Turtle & Flood 1995): a term adds at most
    ``count * idf * (k1 + 1)`` to any passage. Terms are scored over their
    whole run in descending order of that bound until the n-th best partial
    score exceeds the bounds of the terms left; those terms then only add to
    passages already seen that can still reach the top n, found by bisection
    in each run. The shortlist within ``_TIE_TOL`` of the n-th score is
    re-scored in query-term order, so every score is the same float an
    exhaustive loop in query-term order gives.
    """
    if index.doc_count == 0:
        raise ValueError("index is empty")
    qtf: dict[str, int] = {}
    for t in index.analyzer.tokens(query_text):
        qtf[t] = qtf.get(t, 0) + 1
    # (count, start, end, idf) per matching term, in query order.
    terms = []
    for term, count in qtf.items():
        run = index.runs.get(term)
        if run is not None:
            start, end = run
            terms.append((count, start, end, idf(index.doc_count, end - start)))

    doc_ids, tfs, lengths = index.doc_ids, index.tfs, index.doc_lengths
    k1, b, avgdl = params.k1, params.b, index.avg_doc_length
    k1p1, c = k1 + 1.0, 1.0 - b
    n = params.top_n
    acc: dict[int, float] = {}

    # Both loops compute a posting's contribution with the same operations
    # in the same order, so re-scoring in query-term order reproduces the
    # floats of an exhaustive loop in that order.
    def add_run(count: int, start: int, end: int, w: float) -> None:
        get = acc.get
        for o, tf in zip(doc_ids[start:end], tfs[start:end]):
            norm = tf + k1 * (c + b * lengths[o] / avgdl)
            acc[o] = get(o, 0.0) + count * (w * tf * k1p1 / norm)

    def add_found(cands: list[int], count: int, start: int, end: int, w: float) -> None:
        # cands ascend, so each bisection starts where the last one ended.
        for o in cands:
            start = bisect_left(doc_ids, o, start, end)
            if start == end:
                break
            if doc_ids[start] == o:
                tf = tfs[start]
                norm = tf + k1 * (c + b * lengths[o] / avgdl)
                acc[o] += count * (w * tf * k1p1 / norm)

    def floor(scores: Iterable[float]) -> float:
        """Just below the n-th best score; 0.0 when fewer than n."""
        top = heapq.nlargest(n, scores)
        return top[-1] * (1.0 - _TIE_TOL) if len(top) == n else 0.0

    order = sorted(terms, key=lambda t: t[0] * t[3], reverse=True)
    rest = [0.0] * (len(order) + 1)  # rest[i]: bound on what order[i:] adds
    for i in range(len(order) - 1, -1, -1):
        count, _, _, w = order[i]
        rest[i] = rest[i + 1] + count * w * k1p1
    essential = len(order)
    for i, term in enumerate(order):
        add_run(*term)
        if rest[i + 1] < floor(acc.values()):
            essential = i + 1
            break
    cands = sorted(acc)
    for i in range(essential, len(order)):
        least = floor(acc[o] for o in cands)
        cands = [o for o in cands if acc[o] + rest[i] >= least]
        add_found(cands, *order[i])
    least = floor(acc[o] for o in cands)
    shortlist = [o for o in cands if acc[o] >= least]
    if order != terms:
        # Contributions were summed in bound order; redo them in query order.
        for o in shortlist:
            acc[o] = 0.0
        for term in terms:
            add_found(shortlist, *term)
    shortlist.sort(key=lambda o: (-acc[o], index.ids[o]))
    return CandidateSet(
        query_id=query_id,
        candidates=tuple(
            (Passage(index.ids[o], index.texts[o]), acc[o]) for o in shortlist[:n]
        ),
    )


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Persist the index as deterministic gzip-compressed JSON: rebuilding
    from the same corpus yields byte-identical files. Postings are stored
    flat: run ``i`` holds ``terms[i]`` and ends at ``ends[i]`` in ``doc_ids``
    and ``tfs``."""
    terms = sorted(index.runs, key=index.runs.__getitem__)
    payload = {
        "format": _INDEX_FORMAT,
        "version": _INDEX_VERSION,
        "analyzer": {
            "fingerprint": index.analyzer.fingerprint,
            "stopwords": sorted(index.analyzer.stopwords),
        },
        "doc_count": index.doc_count,
        "avg_doc_length": index.avg_doc_length,
        "doc_lengths": list(index.doc_lengths),
        "ids": list(index.ids),
        "texts": list(index.texts),
        "terms": terms,
        "ends": [index.runs[t][1] for t in terms],
        "doc_ids": index.doc_ids.tolist(),
        "tfs": index.tfs.tolist(),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        # filename="" and mtime=0 keep the gzip header content-independent,
        # so identical corpora produce byte-identical index files.
        with gzip.GzipFile(
            filename="", fileobj=fh, mode="wb", compresslevel=_GZIP_LEVEL, mtime=0
        ) as gz:
            gz.write(encoded)


def load_index(path: str | Path) -> InvertedIndex:
    try:
        with gzip.open(path, "rb") as gz:
            payload = json.loads(gz.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise IndexFormatError(f"cannot read index file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _INDEX_FORMAT:
        raise IndexFormatError(f"{path} is not a {_INDEX_FORMAT} file")
    if payload.get("version") != _INDEX_VERSION:
        raise IndexFormatError(
            f"index version {payload.get('version')} unsupported "
            f"(expected {_INDEX_VERSION}); rebuild it with `igp index`"
        )
    analyzer = Analyzer(stopwords=frozenset(payload["analyzer"]["stopwords"]))
    if analyzer.fingerprint != payload["analyzer"]["fingerprint"]:
        raise IndexFormatError(
            "analyzer fingerprint mismatch: index was built with an "
            "incompatible analyzer"
        )
    terms, ends = payload["terms"], payload["ends"]
    doc_ids, tfs = array("i", payload["doc_ids"]), array("i", payload["tfs"])
    total = ends[-1] if ends else 0
    if len(terms) != len(ends) or not len(doc_ids) == len(tfs) == total:
        raise IndexFormatError(f"{path}: postings runs do not cover the postings arrays")
    return InvertedIndex(
        runs=dict(zip(terms, zip([0] + ends[:-1], ends))),
        doc_ids=doc_ids,
        tfs=tfs,
        doc_lengths=tuple(payload["doc_lengths"]),
        avg_doc_length=float(payload["avg_doc_length"]),
        doc_count=int(payload["doc_count"]),
        ids=tuple(payload["ids"]),
        texts=tuple(payload["texts"]),
        analyzer=analyzer,
    )
