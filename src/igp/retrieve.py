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
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import CandidateSet, Passage

_TOKEN_RE = re.compile(r"[0-9a-z]+")

_INDEX_FORMAT = "bm25-index"
_INDEX_VERSION = 3
# Postings columns are stored little-endian whatever the host's order.
_BIG_ENDIAN = sys.byteorder == "big"
# Fixed, so index files stay byte-deterministic; low, because at level 9
# compression was most of the time ``igp index`` spent.
_GZIP_LEVEL = 1
# Postings per read of a column: 1 MiB of int32.
_READ_POSTINGS = 1 << 18
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
    """Persist the index as one deterministic gzip stream: rebuilding from
    the same corpus yields byte-identical files.

    Format version 3: one compact JSON header line holds the analyzer, the
    per-passage fields and the postings layout (run ``i`` holds ``terms[i]``
    and ends at ``ends[i]`` in ``doc_ids`` and ``tfs``). The ``doc_ids``
    column follows the header, then ``tfs``, each ``ends[-1]`` raw
    little-endian int32 values."""
    terms = sorted(index.runs, key=index.runs.__getitem__)
    header = {
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
    }
    # Compact JSON escapes every newline inside a string: the header is one line.
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        # filename="" and mtime=0 keep the gzip header content-independent,
        # so identical corpora produce byte-identical index files.
        with gzip.GzipFile(
            filename="", fileobj=fh, mode="wb", compresslevel=_GZIP_LEVEL, mtime=0
        ) as gz:
            gz.write(encoded)
            gz.write(b"\n")
            for column in (index.doc_ids, index.tfs):
                if _BIG_ENDIAN:
                    column = array("i", column)
                    column.byteswap()
                gz.write(column.tobytes())


def load_index(path: str | Path) -> InvertedIndex:
    """Load a version-3 index. The header's format, version and analyzer
    fingerprint are checked before any postings are read; each column is
    read as raw bytes straight into an array. A truncated or corrupt file,
    a short column, trailing bytes or an inconsistent header raises
    ``IndexFormatError``."""
    try:
        with gzip.open(path, "rb") as gz:
            header = json.loads(gz.readline())
            analyzer = _check_header(header, path)
            terms, ends = header["terms"], header["ends"]
            total = ends[-1] if ends else 0
            doc_ids = _read_column(gz, total, "doc_ids", path)
            tfs = _read_column(gz, total, "tfs", path)
            if gz.read(1):
                raise IndexFormatError(f"{path}: trailing bytes after the postings")
        return InvertedIndex(
            runs=dict(zip(terms, zip([0] + ends[:-1], ends))),
            doc_ids=doc_ids,
            tfs=tfs,
            doc_lengths=tuple(header["doc_lengths"]),
            avg_doc_length=float(header["avg_doc_length"]),
            doc_count=int(header["doc_count"]),
            ids=tuple(header["ids"]),
            texts=tuple(header["texts"]),
            analyzer=analyzer,
        )
    except IndexFormatError:
        raise
    except (OSError, EOFError, KeyError, TypeError, ValueError, zlib.error) as exc:
        raise IndexFormatError(f"cannot read index file {path}: {exc}") from exc


def _check_header(header: object, path: str | Path) -> Analyzer:
    """Refuse a header of another format, version or analyzer, or whose
    fields disagree in shape; return its analyzer. Costs O(terms + docs),
    with no pass over the postings."""
    if not isinstance(header, dict) or header.get("format") != _INDEX_FORMAT:
        raise IndexFormatError(f"{path} is not a {_INDEX_FORMAT} file")
    if header.get("version") != _INDEX_VERSION:
        raise IndexFormatError(
            f"index version {header.get('version')} unsupported "
            f"(expected {_INDEX_VERSION}); rebuild it with `igp index`"
        )
    analyzer = Analyzer(stopwords=frozenset(header["analyzer"]["stopwords"]))
    if analyzer.fingerprint != header["analyzer"]["fingerprint"]:
        raise IndexFormatError(
            "analyzer fingerprint mismatch: index was built with an "
            "incompatible analyzer"
        )
    doc_count = header["doc_count"]
    for field in ("ids", "texts", "doc_lengths"):
        if len(header[field]) != doc_count:
            raise IndexFormatError(
                f"{path}: {field} holds {len(header[field])} entries, "
                f"not doc_count {doc_count}"
            )
    terms, ends = header["terms"], header["ends"]
    if len(terms) != len(ends):
        raise IndexFormatError(f"{path}: terms and ends differ in length")
    if any(a > b for a, b in zip([0] + ends, ends)):
        raise IndexFormatError(f"{path}: ends decrease")
    return analyzer


def _read_column(gz: gzip.GzipFile, count: int, name: str, path: str | Path) -> array:
    """Read ``count`` little-endian int32 values; refuse a short column. The
    reads are bounded, so a forged count fails on the file's real length."""
    column = array("i")
    while len(column) < count:
        size = min(count - len(column), _READ_POSTINGS) * column.itemsize
        data = gz.read(size)
        if len(data) != size:
            done = len(column) + len(data) // column.itemsize
            raise IndexFormatError(f"{path}: {name} ends after {done} of {count} postings")
        column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column
