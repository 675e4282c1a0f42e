"""BM25 retrieval against a direct-formula brute-force oracle.

The oracle never touches the inverted index: it recounts term frequencies
straight from the raw texts and evaluates the scoring formula per (term,
document) pair.
"""

import dataclasses
import gzip
import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from igp.core import Passage
from igp.retrieve import (
    Analyzer,
    Bm25Params,
    IndexFormatError,
    build_index,
    load_index,
    save_index,
    search,
)

DOCS = [
    Passage("doc-a", "the yellow sun is a star of moderate size"),
    Passage("doc-b", "a yellow dwarf is a star like our sun yellow and warm"),
    Passage("doc-c", "red dwarf stars burn slowly for a very long time"),
    Passage("doc-d", "planets orbit stars in nearly elliptical paths"),
]


def brute_force_scores(docs, query, params, analyzer=Analyzer()):
    """Direct Okapi BM25 over raw texts, no index involved."""
    tokenized = {d.id: analyzer.tokens(d.text) for d in docs}
    n_docs = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n_docs
    scores = {}
    for doc in docs:
        toks = tokenized[doc.id]
        counts = Counter(toks)
        score = 0.0
        for term in analyzer.tokens(query):
            df = sum(1 for t in tokenized.values() if term in t)
            if df == 0 or counts[term] == 0:
                continue
            idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
            tf = counts[term]
            denom = tf + params.k1 * (1 - params.b + params.b * len(toks) / avgdl)
            score += idf * tf * (params.k1 + 1) / denom
        if score > 0:
            scores[doc.id] = score
    return scores


def exhaustive_search(docs, query, params, analyzer=Analyzer()):
    """The exhaustive search ``search`` replaced, over raw texts: every
    posting of every query term, each term's contribution added in
    query-term order, then a full sort by (-score, id). ``search`` must
    return the same floats."""
    counts = [Counter(analyzer.tokens(d.text)) for d in docs]
    lengths = [sum(c.values()) for c in counts]
    avgdl = sum(lengths) / len(docs)
    scores = {}
    for term, count in Counter(analyzer.tokens(query)).items():
        df = sum(1 for c in counts if term in c)
        if df == 0:
            continue
        term_idf = math.log(1.0 + (len(docs) - df + 0.5) / (df + 0.5))
        for doc, c, dl in zip(docs, counts, lengths):
            if term not in c:
                continue
            tf = c[term]
            norm = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl)
            contribution = term_idf * tf * (params.k1 + 1.0) / norm
            scores[doc.id] = scores.get(doc.id, 0.0) + count * contribution
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: params.top_n]


class RecordingArray(array):
    """Postings array that records which slices search reads whole."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append((key.start, key.stop))
        return super().__getitem__(key)


def scanned_runs(index, query, params):
    """Terms whose whole postings run ``search`` scanned for ``query``."""
    doc_ids = RecordingArray("i", index.doc_ids)
    doc_ids.slices = []
    got = search(dataclasses.replace(index, doc_ids=doc_ids), query, params)
    assert got == search(index, query, params)
    return {t for t, run in index.runs.items() if run in doc_ids.slices}


_VOCAB = ["sun", "star", "moon", "comet", "dust", "nova", "orbit", "quasar"]
# Each passage draws from a prefix of the vocabulary, so earlier words
# occur in more passages: document frequencies, and so bounds, vary.
_TEXTS = st.integers(1, len(_VOCAB)).flatmap(
    lambda m: st.lists(st.sampled_from(_VOCAB[:m]), min_size=1, max_size=10)
).map(" ".join)


class TestAnalyzer:
    def test_lowercase_and_split_on_non_alnum(self):
        assert Analyzer().tokens("Hello, World-2024!") == ["hello", "world", "2024"]

    def test_stopwords_filtered(self):
        analyzer = Analyzer(stopwords=frozenset({"the", "a"}))
        assert analyzer.tokens("the cat sat on a mat") == ["cat", "sat", "on", "mat"]

    def test_fingerprint_depends_on_stopwords(self):
        assert Analyzer().fingerprint != Analyzer(stopwords=frozenset({"x"})).fingerprint


class TestBuildIndex:
    def test_toy_corpus_statistics(self):
        docs = DOCS[:3]
        index = build_index(docs)
        assert index.doc_count == 3
        lengths = [len(Analyzer().tokens(d.text)) for d in docs]
        assert list(index.doc_lengths) == lengths
        assert index.avg_doc_length == pytest.approx(sum(lengths) / 3)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([DOCS[0], DOCS[0]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index([])


class TestSearch:
    def test_doc_with_both_terms_ranks_first(self):
        index = build_index(DOCS[:3])
        result = search(index, "yellow dwarf", Bm25Params(top_n=3))
        assert result.passages[0].id == "doc-b"

    def test_no_matching_terms_returns_empty(self):
        index = build_index(DOCS)
        result = search(index, "xylophone zamboni")
        assert len(result) == 0

    def test_scores_match_brute_force_oracle(self):
        params = Bm25Params(top_n=10)
        index = build_index(DOCS)
        for query in ("yellow dwarf", "sun star", "red planets orbit", "yellow yellow sun"):
            got = {p.id: s for p, s in search(index, query, params).candidates}
            expected = brute_force_scores(DOCS, query, params)
            assert got.keys() == expected.keys()
            for pid, score in expected.items():
                assert got[pid] == pytest.approx(score, abs=1e-9), (query, pid)

    def test_ordering_invariant_under_corpus_permutation(self):
        params = Bm25Params(top_n=10)
        orders = [DOCS, DOCS[::-1], [DOCS[2], DOCS[0], DOCS[3], DOCS[1]]]
        rankings = [
            [(p.id, s) for p, s in search(build_index(o), "yellow sun star", params).candidates]
            for o in orders
        ]
        assert rankings[0] == rankings[1] == rankings[2]

    def test_ties_break_by_id_ascending(self):
        docs = [Passage("b", "same words here"), Passage("a", "same words here")]
        index = build_index(docs)
        result = search(index, "same words", Bm25Params(top_n=2))
        assert [p.id for p in result.passages] == ["a", "b"]

    def test_top_n_truncates(self):
        index = build_index(DOCS)
        assert len(search(index, "star sun dwarf", Bm25Params(top_n=2))) == 2

    def test_unrelated_doc_added_with_frozen_stats_keeps_order(self):
        # A new doc sharing no query terms shifts idf/avgdl globally; with
        # those statistics pinned to the original values the surviving ids
        # must come back in the same order.
        query = "yellow sun star"
        params = Bm25Params(top_n=10)
        base = build_index(DOCS)
        extra = Passage("doc-z", "completely unrelated gardening equipment catalog")
        grown = build_index(DOCS + [extra])
        frozen = dataclasses.replace(
            grown, doc_count=base.doc_count, avg_doc_length=base.avg_doc_length
        )
        base_ids = [p.id for p in search(base, query, params).passages]
        frozen_ids = [p.id for p in search(frozen, query, params).passages]
        assert frozen_ids == base_ids


class TestSearchMatchesExhaustiveLoop:
    @given(
        texts=st.lists(_TEXTS, min_size=1, max_size=20),
        copies=st.integers(0, 5),
        query=st.lists(st.sampled_from(_VOCAB + ["absent"]), max_size=6),
        extra_n=st.integers(0, 25),
        k1=st.sampled_from([0.0, 0.9, 2.0]),
        b=st.sampled_from([0.0, 0.4, 1.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_ids_order_and_scores_exact(self, texts, copies, query, extra_n, k1, b):
        # Duplicate texts under new ids make exact score ties.
        texts = texts + texts[:copies]
        docs = [Passage(f"d{i:02d}", text) for i, text in enumerate(texts)]
        query = " ".join(query)
        params = Bm25Params(k1=k1, b=b, top_n=1 + extra_n)
        got = [(p.id, s) for p, s in search(build_index(docs), query, params).candidates]
        assert got == exhaustive_search(docs, query, params)

    def _corpus(self):
        # "star" is in every passage, "sun" in all but c2, "comet" in two.
        docs = [Passage(f"d{i:02d}", "sun star " + "sun " * (i % 4)) for i in range(40)]
        docs += [Passage("c1", "comet sun star"), Passage("c2", "comet comet star")]
        return docs

    def test_rare_term_stops_exhaustive_scoring_early(self):
        docs = self._corpus()
        params = Bm25Params(top_n=2)
        query = "comet sun star"
        index = build_index(docs)
        assert scanned_runs(index, query, params) == {"comet"}
        got = [(p.id, s) for p, s in search(index, query, params).candidates]
        assert got == exhaustive_search(docs, query, params)

    def test_seen_passage_behind_the_top_keeps_later_terms(self):
        # After "comet", "a" leads "b" by more than "dust" can add to an
        # unseen passage, so "dust" is only looked up for seen passages;
        # "b" must keep that lookup, because "dust" lifts it past "a".
        docs = [Passage("a", "comet comet"), Passage("b", "comet dust")]
        docs += [Passage(f"d{i}", "dust moon") for i in range(3)]
        docs += [Passage(f"m{i}", "moon sun") for i in range(7)]
        params = Bm25Params(top_n=1)
        index = build_index(docs)
        assert scanned_runs(index, "comet dust", params) == {"comet"}
        got = [(p.id, s) for p, s in search(index, "comet dust", params).candidates]
        assert got == exhaustive_search(docs, "comet dust", params)
        assert got[0][0] == "b"

    def test_unseen_passage_tying_the_bound_is_not_pruned(self):
        # At k1=0 a posting adds exactly its term's idf, which is the bound.
        # After "comet" the second score equals the bound of "dust", so
        # stopping would lose a1 and a2, which tie z1 and z2 and sort first.
        docs = [
            Passage("z1", "comet"),
            Passage("z2", "comet"),
            Passage("a1", "dust"),
            Passage("a2", "dust"),
            Passage("m1", "moon"),
        ]
        params = Bm25Params(k1=0.0, top_n=2)
        got = [(p.id, s) for p, s in search(build_index(docs), "comet dust", params).candidates]
        assert got == exhaustive_search(docs, "comet dust", params)
        assert [pid for pid, _ in got] == ["a1", "a2"]

    def test_terms_of_equal_bound_are_all_scored_whole(self):
        # A contribution stays below its term's bound, so with "star" and
        # "sun" equally frequent no partial score can exceed the bound left.
        docs = self._corpus()[:40]
        params = Bm25Params(top_n=3)
        query = "star sun"
        index = build_index(docs)
        assert scanned_runs(index, query, params) == {"star", "sun"}
        got = [(p.id, s) for p, s in search(index, query, params).candidates]
        assert got == exhaustive_search(docs, query, params)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        index = build_index(DOCS)
        path = tmp_path / "bm25.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index

    def test_rebuild_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "one.idx", tmp_path / "two.idx"
        save_index(build_index(DOCS), p1)
        save_index(build_index(DOCS), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fingerprint_mismatch_detected(self, tmp_path):
        path = tmp_path / "bm25.idx"
        save_index(build_index(DOCS), path)
        import gzip
        import json

        payload = json.loads(gzip.open(path).read())
        payload["analyzer"]["fingerprint"] = "0" * 64
        with open(path, "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(json.dumps(payload).encode("utf-8"))
        with pytest.raises(IndexFormatError, match="fingerprint"):
            load_index(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bm25.idx"
        path.write_bytes(b"not an index")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_version_1_index_refused(self, tmp_path):
        # The seed's layout: nested per-term postings lists.
        payload = {
            "format": "bm25-index",
            "version": 1,
            "analyzer": {"fingerprint": Analyzer().fingerprint, "stopwords": []},
            "doc_count": 1,
            "avg_doc_length": 2.0,
            "doc_lengths": [2],
            "ids": ["doc-a"],
            "texts": ["yellow sun"],
            "postings": {"sun": [[0, 1]], "yellow": [[0, 1]]},
        }
        path = tmp_path / "v1.idx"
        path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))
        with pytest.raises(IndexFormatError, match=r"version 1 .*expected 2.*igp index"):
            load_index(path)


def test_cli_import_does_not_load_numpy():
    # numpy would add its import time and resident memory to every command.
    import igp

    src = str(Path(igp.__file__).resolve().parents[1])
    code = "import sys, igp.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
