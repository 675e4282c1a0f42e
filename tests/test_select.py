"""Rerank and truncate behavior: the information-gain algorithm end to end on
scripted stubs, the generator-scored baselines, budget safety, and the
threshold-monotonicity property."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import render_yesno_prompt, steps_from_profile
from igp.core import (
    CandidateSet,
    EvidenceBudget,
    Passage,
    Query,
    render_probe_prompt,
)
from igp.probe import ProbeConfig, StubBackend
from igp.select import (
    BaselineUnavailableError,
    RankedEntry,
    RankedList,
    igp_rerank,
    qlm_rerank,
    retriever_ranked,
    truncate,
    whitespace_token_count,
    yesno_rerank,
)

QUERY = Query("q1", "what powers the beacon")
D1 = Passage("d1", "decisive evidence one")
D2 = Passage("d2", "noisy conflicting evidence")
D3 = Passage("d3", "mildly helpful evidence")
CANDIDATES = CandidateSet("q1", ((D1, 3.0), (D2, 2.0), (D3, 1.0)))

CFG = ProbeConfig(top_k=4, max_tokens=50)


def scripted_backend():
    """Stub whose hand-computed gains are d1=0.50, d2=-0.30, d3=0.07.

    The no-evidence rollout averages a uniform and a one-hot step (0.5);
    d1 collapses to certainty (0.0), d2 inflates to 0.8, and d3 lands at
    0.43 via 21 uniform steps, one half step, and 28 one-hot steps over 50.
    """
    table = {
        "prompts": {
            render_probe_prompt(QUERY, None): {"steps": steps_from_profile("uo")},
            render_probe_prompt(QUERY, D1): {"steps": steps_from_profile("oo")},
            render_probe_prompt(QUERY, D2): {"steps": steps_from_profile("uuuuo")},
            render_probe_prompt(QUERY, D3): {
                "steps": steps_from_profile("u" * 21 + "h" + "o" * 28)
            },
        }
    }
    return StubBackend(table)


class TestIgpRerank:
    def test_hand_computed_gains(self):
        ranked = igp_rerank(QUERY, CANDIDATES, scripted_backend(), CFG, t_p=0.05)
        by_id = {e.passage.id: e for e in ranked.entries}
        assert by_id["d1"].score == pytest.approx(0.50, abs=1e-9)
        assert by_id["d2"].score == pytest.approx(-0.30, abs=1e-9)
        assert by_id["d3"].score == pytest.approx(0.07, abs=1e-9)

    def test_threshold_admits_exactly_d1_d3(self):
        ranked = igp_rerank(QUERY, CANDIDATES, scripted_backend(), CFG, t_p=0.05)
        assert [e.passage.id for e in ranked.entries] == ["d1", "d3", "d2"]
        assert ranked.admitted_ids == ("d1", "d3")

    def test_minus_inf_threshold_admits_all(self):
        ranked = igp_rerank(
            QUERY, CANDIDATES, scripted_backend(), CFG, t_p=-math.inf
        )
        assert [e.passage.id for e in ranked.entries] == ["d1", "d3", "d2"]
        assert ranked.admitted_ids == ("d1", "d3", "d2")

    def test_unreachable_threshold_admits_none(self):
        ranked = igp_rerank(QUERY, CANDIDATES, scripted_backend(), CFG, t_p=1.5)
        assert ranked.admitted_ids == ()

    def test_inclusive_threshold(self):
        # Admission uses score >= threshold, so a candidate exactly at the
        # barrier is kept.
        ranked = igp_rerank(QUERY, CANDIDATES, scripted_backend(), CFG, t_p=0.5)
        assert ranked.admitted_ids == ("d1",)

    def test_failed_passage_is_rejected_with_error_not_dropped(self):
        table = {
            "prompts": {
                render_probe_prompt(QUERY, None): {"steps": steps_from_profile("uo")},
                render_probe_prompt(QUERY, D1): {"steps": steps_from_profile("oo")},
                render_probe_prompt(QUERY, D3): {"steps": steps_from_profile("uo")},
                # d2 intentionally missing: its probe raises UnknownPromptError.
            }
        }
        ranked = igp_rerank(QUERY, CANDIDATES, StubBackend(table), CFG, t_p=0.05)
        assert len(ranked.entries) == 3
        failed = [e for e in ranked.entries if e.error is not None]
        assert [e.passage.id for e in failed] == ["d2"]
        assert not failed[0].admitted
        assert ranked.entries[-1].passage.id == "d2"

    def test_unconditional_failure_aborts_query(self):
        table = {
            "prompts": {
                render_probe_prompt(QUERY, D1): {"steps": steps_from_profile("oo")},
            }
        }
        with pytest.raises(Exception):
            igp_rerank(QUERY, CANDIDATES, StubBackend(table), CFG, t_p=0.05)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            igp_rerank(
                QUERY, CandidateSet("q1", ()), scripted_backend(), CFG, t_p=0.05
            )


class TestTruncate:
    def entry(self, pid, tokens, admitted=True, rank=0):
        return RankedEntry(
            passage=Passage(pid, " ".join(["w"] * tokens)),
            score=1.0,
            score_kind="ig",
            admitted=admitted,
            retriever_rank=rank,
            retriever_score=1.0,
        )

    def test_top_m_prefix(self):
        ranked = RankedList("q", tuple(self.entry(f"p{i}", 10, rank=i) for i in range(5)))
        selected = truncate(ranked, EvidenceBudget(top_m=2))
        assert [p.id for p in selected.passages] == ["p0", "p1"]
        assert selected.total_tokens == 20

    def test_token_guard_prefix_rule(self):
        entries = (
            self.entry("p0", 120, rank=0),
            self.entry("p1", 110, rank=1),
            self.entry("p2", 90, rank=2),
        )
        selected = truncate(
            RankedList("q", entries), EvidenceBudget(top_m=3, token_guard=250)
        )
        # 120 + 110 = 230 <= 250 < 320; the scan stops, never skipping ahead
        # to the shorter third passage.
        assert [p.id for p in selected.passages] == ["p0", "p1"]
        assert selected.total_tokens == 230

    def test_zero_admitted_yields_empty_selection(self):
        ranked = RankedList("q", tuple(self.entry(f"p{i}", 10, admitted=False) for i in range(3)))
        selected = truncate(ranked, EvidenceBudget(top_m=2))
        assert selected.passages == ()
        assert selected.total_tokens == 0

    def test_depends_only_on_flags_order_and_budget(self):
        # Relabeling scores and score kinds without touching order or
        # admission must not change the selection.
        base = tuple(self.entry(f"p{i}", 10, rank=i) for i in range(4))
        relabeled = tuple(
            RankedEntry(
                passage=e.passage,
                score=-e.score * 7,
                score_kind="yesno",
                admitted=e.admitted,
                retriever_rank=e.retriever_rank,
                retriever_score=e.retriever_score,
            )
            for e in base
        )
        budget = EvidenceBudget(top_m=3, token_guard=25)
        assert truncate(RankedList("q", base), budget) == truncate(
            RankedList("q", relabeled), budget
        )

    def test_custom_token_counter(self):
        ranked = RankedList("q", (self.entry("p0", 10),))
        selected = truncate(ranked, EvidenceBudget(top_m=1), token_counter=len)
        assert selected.total_tokens == len(ranked.entries[0].passage.text)


class TestQlmRerank:
    def backend(self, mean_d1=-0.4, mean_d2=-1.1, mean_d3=-0.8):
        question = QUERY.question
        table = {"prompts": {}}
        for passage, mean in ((D1, mean_d1), (D2, mean_d2), (D3, mean_d3)):
            table["prompts"][render_probe_prompt(QUERY, passage)] = {
                "forced": {question: [mean] * 3}
            }
        return StubBackend(table)

    def test_orders_by_mean_forced_logprob(self):
        ranked = qlm_rerank(QUERY, CANDIDATES, self.backend(), CFG)
        assert [e.passage.id for e in ranked.entries] == ["d1", "d3", "d2"]
        assert ranked.entries[0].score == pytest.approx(-0.4)
        assert ranked.admitted_ids == ("d1", "d3", "d2")

    def test_identical_scores_preserve_retriever_order(self):
        ranked = qlm_rerank(
            QUERY, CANDIDATES, self.backend(-0.5, -0.5, -0.5), CFG
        )
        assert [e.passage.id for e in ranked.entries] == ["d1", "d2", "d3"]

    def test_empty_candidates(self):
        ranked = qlm_rerank(QUERY, CandidateSet("q1", ()), self.backend(), CFG)
        assert ranked.entries == ()

    def test_unsupported_backend_reports_unavailable(self):
        class NoForce(StubBackend):
            def force_score(self, prompt, continuation, cfg):
                from igp.probe import UnsupportedCapabilityError

                raise UnsupportedCapabilityError("no echo")

        backend = NoForce({"prompts": {}})
        with pytest.raises(BaselineUnavailableError):
            qlm_rerank(QUERY, CANDIDATES, backend, CFG)


class TestYesNoRerank:
    def backend(self, yes_lp):
        table = {"prompts": {}}
        for passage in (D1, D2, D3):
            table["prompts"][render_yesno_prompt(QUERY, passage)] = {
                "steps": [{"top_logprobs": yes_lp[passage.id]}]
            }
        return StubBackend(table)

    def test_higher_affirmative_mass_ranks_first(self):
        backend = self.backend(
            {
                "d1": {"Yes": -2.0, "No": -0.1},
                "d2": {"Yes": -0.1, "No": -2.0},
                "d3": {"Yes": -1.0, "No": -1.0},
            }
        )
        ranked = yesno_rerank(QUERY, CANDIDATES, backend, CFG)
        assert [e.passage.id for e in ranked.entries] == ["d2", "d3", "d1"]
        assert ranked.entries[0].score == pytest.approx(
            math.exp(-0.1) / (math.exp(-0.1) + math.exp(-2.0))
        )

    def test_affirmative_match_strips_and_folds_case(self):
        backend = self.backend(
            {
                "d1": {" yes": -0.1, "No": -2.0},
                "d2": {"YES": -0.2, "No": -2.0},
                "d3": {"maybe": -0.1, "No": -2.0},
            }
        )
        ranked = yesno_rerank(QUERY, CANDIDATES, backend, CFG)
        assert ranked.entries[-1].passage.id == "d3"
        assert ranked.entries[-1].score == 0.0

    def test_all_zero_scores_preserve_retriever_order(self):
        backend = self.backend(
            {
                "d1": {"No": -0.1, "Never": -2.0},
                "d2": {"No": -0.1, "Never": -2.0},
                "d3": {"No": -0.1, "Never": -2.0},
            }
        )
        ranked = yesno_rerank(QUERY, CANDIDATES, backend, CFG)
        assert [e.passage.id for e in ranked.entries] == ["d1", "d2", "d3"]


class TestRetrieverRanked:
    def test_keeps_retriever_order_all_admitted(self):
        ranked = retriever_ranked(CANDIDATES)
        assert [e.passage.id for e in ranked.entries] == ["d1", "d2", "d3"]
        assert all(e.admitted for e in ranked.entries)
        assert all(e.score_kind == "retriever" for e in ranked.entries)


# Random uncertainty landscapes for the monotonicity property: per-candidate
# step profiles drawn from the exactly-computable alphabet.
profiles = st.lists(
    st.lists(st.sampled_from("uoh"), min_size=1, max_size=6).map("".join),
    min_size=1,
    max_size=6,
)
thresholds = st.lists(
    st.one_of(
        st.floats(min_value=-1.1, max_value=1.1, allow_nan=False),
        st.just(-math.inf),
    ),
    min_size=2,
    max_size=5,
)


@given(profiles=profiles, tp_grid=thresholds, top_m=st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_threshold_monotonicity_property(profiles, tp_grid, top_m):
    """Raising the admission barrier never admits a new passage and never
    grows the truncated selection's token footprint."""
    query = Query("q", "probe question")
    passages = [
        Passage(f"c{i}", f"candidate text {' filler' * i} {i}")
        for i in range(len(profiles))
    ]
    candidates = CandidateSet(
        "q", tuple((p, float(len(passages) - i)) for i, p in enumerate(passages))
    )
    table = {"prompts": {render_probe_prompt(query, None): {"steps": steps_from_profile("uh")}}}
    for passage, profile in zip(passages, profiles):
        table["prompts"][render_probe_prompt(query, passage)] = {
            "steps": steps_from_profile(profile)
        }
    backend = StubBackend(table)
    cfg = ProbeConfig(top_k=4, max_tokens=8)
    budget = EvidenceBudget(top_m=top_m)

    previous_admitted = None
    previous_tokens = None
    for tp in sorted(tp_grid):
        ranked = igp_rerank(query, candidates, backend, cfg, t_p=tp)
        admitted = set(ranked.admitted_ids)
        selected = truncate(ranked, budget)
        if previous_admitted is not None:
            assert admitted.issubset(previous_admitted)
            assert selected.total_tokens <= previous_tokens
        previous_admitted = admitted
        previous_tokens = selected.total_tokens


def test_whitespace_token_count():
    assert whitespace_token_count("one  two\nthree") == 3
    assert whitespace_token_count("") == 0
