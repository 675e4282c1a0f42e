"""End-to-end engine behavior on the scripted mini-world: record content,
replay determinism, pruning edge cases, and the sweep rollout cache."""

import json
import threading
from collections import Counter
from dataclasses import replace

import pytest

from helpers import load_passage_map

from igp.core import (
    CandidateSet,
    Passage,
    Query,
    load_dataset,
    render_answer_prompt,
    render_probe_prompt,
    render_yesno_prompt,
)
from igp.pipeline import (
    API_KEY_ENV,
    RunConfig,
    load_records,
    make_backend,
    run_dataset,
    run_points,
)
from igp.probe import (
    HttpBackend,
    ProbeBackend,
    ProbeConfig,
    Prober,
    StubBackend,
    UnknownPromptError,
)
from igp.select import whitespace_token_count, yesno_rerank
from igp.uncertainty import sequence_nu


def world_config(world, out_dir, **overrides):
    values = dict(
        index_path=str(world.index_path),
        dataset_path=str(world.dataset_path),
        corpus_path=str(world.corpus_path),
        qrels_path=str(world.qrels_path),
        stub_path=str(world.stub_path),
        out_dir=str(out_dir),
        top_k=world.probe_cfg.top_k,
        max_tokens=world.probe_cfg.max_tokens,
        top_n=5,
        rerank="igp",
        tp=0.05,
        top_m=1,
        parallelism=2,
    )
    values.update(overrides)
    return RunConfig(**values)


class RecordingBackend(ProbeBackend):
    """Forwards to ``inner``, recording every prompt it is asked to probe and
    every batch it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []
        self.batches = []

    def greedy_rollout(self, prompt, cfg):
        self.prompts.append(prompt)
        return self.inner.greedy_rollout(prompt, cfg)

    def greedy_rollouts(self, prompts, cfg):
        self.batches.append((list(prompts), cfg))
        return super().greedy_rollouts(prompts, cfg)

    def complete_text(self, prompt, max_tokens):
        self.prompts.append(prompt)
        return self.inner.complete_text(prompt, max_tokens)


class ThreadRecordingBackend(ProbeBackend):
    """Forwards to ``inner``, recording the thread behind every call; the
    batch methods come from ``ProbeBackend`` and run on the caller's
    thread."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()  # Thread objects, kept alive so none is reused

    def greedy_rollout(self, prompt, cfg):
        self.threads.add(threading.current_thread())
        return self.inner.greedy_rollout(prompt, cfg)

    def force_score(self, prompt, continuation, cfg):
        self.threads.add(threading.current_thread())
        return self.inner.force_score(prompt, continuation, cfg)

    def complete_text(self, prompt, max_tokens):
        self.threads.add(threading.current_thread())
        return self.inner.complete_text(prompt, max_tokens)


class StubCompletions:
    """In-process completions endpoint serving a stub table: the transport
    of an ``HttpBackend`` that must answer as the ``StubBackend`` does."""

    def __init__(self, table):
        self.stub = StubBackend(table)
        self.payloads = []

    def __call__(self, url, payload):
        self.payloads.append(payload)
        prompts = payload["prompt"]
        prompts = [prompts] if isinstance(prompts, str) else prompts
        choices = []
        for index, prompt in enumerate(prompts):
            if "logprobs" not in payload:
                text = self.stub.complete_text(prompt, payload["max_tokens"])
                choices.append({"index": index, "text": text})
                continue
            cfg = ProbeConfig(top_k=payload["logprobs"], max_tokens=payload["max_tokens"])
            rollout = self.stub.greedy_rollout(prompt, cfg)
            steps = rollout.steps
            choices.append(
                {
                    "index": index,
                    "finish_reason": "length" if rollout.terminated_by == "max_tokens" else "stop",
                    "logprobs": {
                        "tokens": [s.chosen_token for s in steps],
                        "token_logprobs": [dict(s.entries)[s.chosen_token] for s in steps],
                        "top_logprobs": [dict(s.entries) for s in steps],
                    },
                }
            )
        return 200, {"choices": choices}


def stub_table(world):
    return json.loads(world.stub_path.read_text(encoding="utf-8"))


class TestRunConfig:
    def test_requires_exactly_one_backend(self):
        with pytest.raises(ValueError):
            RunConfig(index_path="i", dataset_path="d", out_dir="o")
        with pytest.raises(ValueError):
            RunConfig(
                index_path="i",
                dataset_path="d",
                out_dir="o",
                stub_path="s",
                endpoint="http://x/v1",
                model="m",
            )

    def test_endpoint_needs_model(self):
        with pytest.raises(ValueError):
            RunConfig(
                index_path="i", dataset_path="d", out_dir="o", endpoint="http://x/v1"
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(
                index_path="i",
                dataset_path="d",
                out_dir="o",
                stub_path="s",
                rerank="bm42",
            )

    def test_make_backend_reads_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        config = RunConfig(
            index_path="i",
            dataset_path="d",
            out_dir="o",
            endpoint="http://host:8000/v1",
            model="m",
        )
        backend = make_backend(config)
        assert isinstance(backend, HttpBackend)
        assert backend.base_url == "http://host:8000/v1"
        assert backend._api_key == "sk-test"


class TestRunDataset:
    def test_igp_run_scores_and_persists(self, miniworld, tmp_path):
        config = world_config(miniworld, tmp_path / "run")
        result = run_dataset(config)
        assert result.failed == 0
        assert result.summary["f1"] == pytest.approx(1.0)
        assert result.summary["n"] == len(miniworld.queries)
        records = load_records(tmp_path / "run" / "records.jsonl")
        assert len(records) == len(miniworld.queries)
        record = records[0]
        assert record["admitted_ids"] == [miniworld.gold[record["query_id"]]]
        ig_scores = {s["passage_id"]: s for s in record["scores"]}
        gold_entry = ig_scores[miniworld.gold[record["query_id"]]]
        assert gold_entry["score"] == pytest.approx(0.75)
        assert gold_entry["nu_conditional"] == pytest.approx(0.0)
        # 1 unconditional + 5 conditional probes + 1 generation call.
        assert record["probe_calls"] == 7
        assert record["probe_failures"] == 0
        assert (tmp_path / "run" / "config.json").exists()

    def test_igp_tk_matches_hand_count(self, miniworld, tmp_path):
        # Every query admits exactly its gold passage, so the dataset TK must
        # equal the mean whitespace token count of the gold-only prompts.
        config = world_config(miniworld, tmp_path / "tk")
        result = run_dataset(config)
        passages = load_passage_map(miniworld.corpus_path)
        expected = [
            whitespace_token_count(
                render_answer_prompt(q, [passages[miniworld.gold[q.id]]])
            )
            for q in load_dataset(miniworld.dataset_path)
        ]
        assert result.summary["tk"] == pytest.approx(sum(expected) / len(expected))

    def test_record_plus_corpus_reconstructs_prompt(self, miniworld, tmp_path):
        run_dataset(world_config(miniworld, tmp_path / "rp", rerank="none", top_m=3))
        passages = load_passage_map(miniworld.corpus_path)
        queries = {q.id: q for q in load_dataset(miniworld.dataset_path)}
        for record in load_records(tmp_path / "rp" / "records.jsonl"):
            kept = [passages[pid] for pid in record["admitted_ids"][:3]]
            rebuilt = render_answer_prompt(queries[record["query_id"]], kept)
            assert rebuilt == record["final_prompt"]

    def test_retriever_only_baseline_answers_wrong(self, miniworld, tmp_path):
        config = world_config(miniworld, tmp_path / "none", rerank="none")
        result = run_dataset(config)
        assert result.summary["f1"] == pytest.approx(0.0)
        assert result.summary["ndcg"] == pytest.approx(1.0)

    def test_qlm_dispatch_degrades_to_retriever_order(self, miniworld, tmp_path):
        # The mini-world stub defines no forced-continuation tables, so every
        # candidate walks the default steps to an identical score and the
        # retriever-rank tie-break keeps the original ordering.
        config = world_config(miniworld, tmp_path / "qlm", rerank="qlm", top_m=5)
        result = run_dataset(config)
        assert result.failed == 0
        records = load_records(tmp_path / "qlm" / "records.jsonl")
        for record in records:
            assert record["admitted_ids"] == [
                c["passage_id"] for c in record["candidates"]
            ]
            assert all(s["kind"] == "qlm" for s in record["scores"])

    def test_replay_identical_modulo_timings(self, miniworld, tmp_path):
        first = run_dataset(world_config(miniworld, tmp_path / "a"))
        second = run_dataset(world_config(miniworld, tmp_path / "b"))
        assert first.summary == second.summary
        rec_a = load_records(tmp_path / "a" / "records.jsonl")
        rec_b = load_records(tmp_path / "b" / "records.jsonl")
        for ra, rb in zip(rec_a, rec_b):
            ra.pop("timings")
            rb.pop("timings")
        assert rec_a == rec_b

    def test_unreachable_threshold_empties_every_prompt(self, miniworld, tmp_path):
        config = world_config(miniworld, tmp_path / "hi-tp", tp=1.5)
        result = run_dataset(config)
        records = load_records(tmp_path / "hi-tp" / "records.jsonl")
        queries = load_dataset(miniworld.dataset_path)
        bare = [
            whitespace_token_count(render_answer_prompt(q, [])) for q in queries
        ]
        assert all(r["admitted_ids"] == [] for r in records)
        assert result.summary["tk"] == pytest.approx(sum(bare) / len(bare))

    def test_pure_reorder_admits_same_set_as_none(self, miniworld, tmp_path):
        run_dataset(world_config(miniworld, tmp_path / "none", rerank="none", top_m=5))
        run_dataset(world_config(miniworld, tmp_path / "ig", rerank="ig", top_m=5))
        rec_none = load_records(tmp_path / "none" / "records.jsonl")
        rec_ig = load_records(tmp_path / "ig" / "records.jsonl")
        for ra, rb in zip(rec_none, rec_ig):
            assert set(ra["admitted_ids"]) == set(rb["admitted_ids"])
            assert ra["admitted_ids"] != rb["admitted_ids"]

    def test_yesno_run(self, miniworld, tmp_path):
        config = world_config(miniworld, tmp_path / "yn", rerank="yesno")
        result = run_dataset(config)
        assert result.summary["f1"] == pytest.approx(0.5)
        assert result.summary["ndcg"] == pytest.approx(1 / 3)

    def test_generation_disabled_still_reports_costs(self, miniworld, tmp_path):
        config = world_config(miniworld, tmp_path / "nogen", generate=False)
        result = run_dataset(config)
        assert result.summary["f1"] == ""
        assert result.summary["tk"] != ""
        assert result.summary["ndcg"] != ""

    def test_backend_that_cannot_generate_records_no_prediction(self, miniworld, tmp_path):
        # The base backend refuses free text; the queries still succeed.
        config = world_config(miniworld, tmp_path / "notext", rerank="none")
        result = run_dataset(config, ProbeBackend())
        assert result.failed == 0
        assert all(r.prediction is None and r.f1 is None for r in result.records)
        assert result.summary["f1"] == ""

    def test_labeled_only_filters_queries(self, miniworld, tmp_path):
        # Qrels cover every query here, so the filter is a no-op; dropping
        # the qrels for one query must shrink n by one.
        lines = miniworld.qrels_path.read_text(encoding="utf-8").splitlines()
        kept = [ln for ln in lines if not ln.startswith("q0\t")]
        trimmed = miniworld.root / "qrels-partial.tsv"
        trimmed.write_text("\n".join(kept) + "\n", encoding="utf-8")
        config = world_config(
            miniworld,
            miniworld.root / "labeled",
            qrels_path=str(trimmed),
            labeled_only=True,
        )
        result = run_dataset(config)
        assert result.summary["n"] == len(miniworld.queries) - 1

    def test_labeled_only_without_qrels_drops_unlabeled_queries(self, miniworld, tmp_path):
        rows = [json.loads(ln) for ln in miniworld.dataset_path.read_text(encoding="utf-8").splitlines()]
        rows[0]["golden_answers"] = []
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        config = world_config(
            miniworld,
            tmp_path / "labeled",
            dataset_path=str(dataset),
            qrels_path=None,
            labeled_only=True,
        )
        assert run_dataset(config).summary["n"] == len(miniworld.queries) - 1

    def test_stage_timings_fit_in_the_total(self, miniworld, tmp_path):
        for record in run_dataset(world_config(miniworld, tmp_path / "t")).records:
            t = record.timings
            assert t["retrieve_s"] + t["rerank_s"] + t["generate_s"] <= t["total_s"]

    @pytest.mark.parametrize("rerank", ["qlm", "yesno"])
    def test_backend_called_from_parallelism_threads_only(self, miniworld, tmp_path, rerank):
        backend = ThreadRecordingBackend(StubBackend(stub_table(miniworld)))
        config = world_config(miniworld, tmp_path / rerank, rerank=rerank, parallelism=2)
        result = run_dataset(config, backend)
        assert result.failed == 0
        # 5 candidate probes and 1 generation call per query.
        assert all(r.probe_calls == 6 for r in result.records)
        assert 1 <= len(backend.threads) <= 2

    def test_run_keeps_no_rollouts_across_queries(self, miniworld, tmp_path):
        # Two queries share a question, so they share the no-evidence prompt;
        # each query probes through a store of its own.
        lines = miniworld.dataset_path.read_text(encoding="utf-8").splitlines()
        twin = dict(json.loads(lines[0]), id="q0-twin")
        dataset = tmp_path / "twins.jsonl"
        dataset.write_text("\n".join([*lines, json.dumps(twin)]) + "\n", encoding="utf-8")
        backend = RecordingBackend(StubBackend(stub_table(miniworld)))
        config = world_config(miniworld, tmp_path / "twins", dataset_path=str(dataset))
        result = run_dataset(config, backend)
        assert result.failed == 0
        shared = render_probe_prompt(load_dataset(dataset)[-1], None)
        assert backend.prompts.count(shared) == 2

    def test_sweep_keeps_no_rollouts_across_queries(self, miniworld, tmp_path):
        # A 2 tp x 2 topk sweep over the twin dataset: each query's probe
        # prompts go out once, at the widest K, as in a run; the twins share
        # a question, so theirs go out twice.
        lines = miniworld.dataset_path.read_text(encoding="utf-8").splitlines()
        twin = dict(json.loads(lines[0]), id="q0-twin")
        dataset = tmp_path / "twins.jsonl"
        dataset.write_text("\n".join([*lines, json.dumps(twin)]) + "\n", encoding="utf-8")
        backend = RecordingBackend(StubBackend(stub_table(miniworld)))
        configs = [
            world_config(
                miniworld, tmp_path / f"tp{tp}-k{k}", dataset_path=str(dataset), tp=tp, top_k=k
            )
            for tp in (0.05, 0.5)
            for k in (2, 4)
        ]
        results = run_points(configs, backend)
        assert all(result.failed == 0 for result in results)
        assert {cfg.top_k for _, cfg in backend.batches} == {4}
        probed = Counter(p for prompts, _ in backend.batches for p in prompts)
        twin_question = f"User: {twin['question']}\n"
        assert any(p.startswith(twin_question) for p in probed)
        assert all(n == (2 if p.startswith(twin_question) else 1) for p, n in probed.items())


class TestQueryFailureIsolation:
    def test_probe_outage_recorded_not_raised(self, miniworld, tmp_path):
        table = json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        queries = load_dataset(miniworld.dataset_path)
        victim = queries[0]
        # Remove the unconditional entry and the fallback: scoring q0 aborts.
        table["prompts"].pop(render_probe_prompt(victim, None))
        table.pop("default", None)
        broken = tmp_path / "broken-stub.json"
        broken.write_text(json.dumps(table), encoding="utf-8")
        config = world_config(miniworld, tmp_path / "broken", stub_path=str(broken))
        result = run_dataset(config)
        assert result.failed == 1
        failed = [r for r in result.records if r.error is not None]
        assert [r.query_id for r in failed] == [victim.id]
        assert result.failure_rate == pytest.approx(1 / len(queries))


    def test_failed_query_records_the_calls_it_issued(self, miniworld, tmp_path):
        table = stub_table(miniworld)
        victim = load_dataset(miniworld.dataset_path)[0]
        table["prompts"].pop(render_probe_prompt(victim, None))
        table.pop("default", None)
        backend = RecordingBackend(StubBackend(table))
        config = world_config(miniworld, tmp_path / "broken")
        result = run_dataset(config, backend=backend)
        record = next(r for r in result.records if r.query_id == victim.id)
        assert record.error.startswith("UnknownPromptError")
        asked = [p for p in backend.prompts if p.startswith(f"User: {victim.question}\n")]
        assert asked and record.probe_calls == len(asked)

    def test_each_points_failed_record_counts_only_its_own_calls(self, miniworld, tmp_path):
        table = stub_table(miniworld)
        victim = load_dataset(miniworld.dataset_path)[0]
        table["prompts"].pop(render_probe_prompt(victim, None))
        table.pop("default", None)
        configs = [
            world_config(miniworld, tmp_path / f"k{k}", top_k=k)
            for k in (miniworld.probe_cfg.top_k, 2)
        ]
        results = run_points(configs, backend=StubBackend(table))
        # One no-evidence probe and five candidates per point; the second
        # point's candidates come from the store but still count.
        for result in results:
            (failed,) = [r for r in result.records if r.error is not None]
            assert failed.query_id == victim.id
            assert failed.probe_calls == 6


class TestHttpEquivalence:
    def test_batched_http_run_equals_stub_run(self, miniworld, tmp_path):
        table = stub_table(miniworld)
        transport = StubCompletions(table)
        http = HttpBackend("http://example/v1", "test-model", transport=transport)
        stub_run = run_dataset(world_config(miniworld, tmp_path / "stub"), StubBackend(table))
        http_run = run_dataset(world_config(miniworld, tmp_path / "http"), http)
        fields = ("admitted_ids", "scores", "final_prompt", "prediction", "probe_calls")
        for a, b in zip(stub_run.records, http_run.records, strict=True):
            assert a.error is None and b.error is None
            assert {f: getattr(a, f) for f in fields} == {f: getattr(b, f) for f in fields}
        # One probe batch and one generation request per query.
        assert len(transport.payloads) == 2 * len(http_run.records)
        assert sum(isinstance(p["prompt"], list) for p in transport.payloads) == len(http_run.records)

    def test_batched_http_yesno_run_equals_stub_run(self, miniworld, tmp_path):
        table = stub_table(miniworld)
        transport = StubCompletions(table)
        http = HttpBackend("http://example/v1", "test-model", transport=transport)
        stub_run = run_dataset(world_config(miniworld, tmp_path / "stub", rerank="yesno"), StubBackend(table))
        http_run = run_dataset(world_config(miniworld, tmp_path / "http", rerank="yesno"), http)
        fields = ("admitted_ids", "scores", "final_prompt", "prediction", "probe_calls")
        for a, b in zip(stub_run.records, http_run.records, strict=True):
            assert a.error is None and b.error is None
            assert {f: getattr(a, f) for f in fields} == {f: getattr(b, f) for f in fields}
        # One Yes/No batch and one generation request per query.
        assert len(transport.payloads) == 2 * len(http_run.records)
        assert sum(isinstance(p["prompt"], list) for p in transport.payloads) == len(http_run.records)


class TestRolloutCache:
    def test_cached_unconditional_equals_fresh(self, miniworld):
        backend = StubBackend(
            json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        )
        cfg = miniworld.probe_cfg
        queries = load_dataset(miniworld.dataset_path)
        cache = Prober(backend)
        for query in queries:
            prompt = render_probe_prompt(query, None)
            cached_nu = sequence_nu(cache.greedy_rollout(prompt, cfg), cfg.top_k)
            again = sequence_nu(cache.greedy_rollout(prompt, cfg), cfg.top_k)
            fresh = sequence_nu(backend.greedy_rollout(prompt, cfg), cfg.top_k)
            assert cached_nu == again == fresh
        assert cache.hits == len(queries)
        assert cache.misses == len(queries)

    def test_narrow_probe_reprobed_for_wider_request(self, miniworld):
        backend = StubBackend(
            json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        )
        prompt = render_probe_prompt(load_dataset(miniworld.dataset_path)[0], None)
        cache = Prober(backend)
        cache.greedy_rollout(prompt, ProbeConfig(top_k=2, max_tokens=8))
        rollout = cache.greedy_rollout(prompt, ProbeConfig(top_k=4, max_tokens=8))
        assert cache.misses == 2
        assert len(rollout.steps[0].entries) == 4

    def test_wide_probe_serves_narrow_request(self, miniworld):
        backend = StubBackend(
            json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        )
        prompt = render_probe_prompt(load_dataset(miniworld.dataset_path)[0], None)
        cache = Prober(backend, probe_k=4)
        rollout = cache.greedy_rollout(prompt, ProbeConfig(top_k=2, max_tokens=8))
        assert cache.misses == 1
        # Recorded at width 4; the uncertainty math truncates to 2 itself,
        # and re-deriving at the narrow width equals a fresh narrow probe.
        assert len(rollout.steps[0].entries) == 4
        recomputed = sequence_nu(rollout, 2)
        fresh = sequence_nu(
            backend.greedy_rollout(prompt, ProbeConfig(top_k=2, max_tokens=8)), 2
        )
        assert recomputed.value == fresh.value
        assert recomputed.k_used == 2

    def test_distinct_caps_not_conflated(self, miniworld):
        backend = StubBackend(
            json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        )
        prompt = render_probe_prompt(load_dataset(miniworld.dataset_path)[0], None)
        cache = Prober(backend)
        short = cache.greedy_rollout(prompt, ProbeConfig(top_k=4, max_tokens=2))
        long = cache.greedy_rollout(prompt, ProbeConfig(top_k=4, max_tokens=8))
        assert short.effective_length == 2
        assert long.effective_length == 4
        assert cache.misses == 2

    def test_batch_never_forwards_hits(self, miniworld):
        inner = RecordingBackend(StubBackend(stub_table(miniworld)))
        cfg = miniworld.probe_cfg
        query = load_dataset(miniworld.dataset_path)[0]
        hit, *others = [render_probe_prompt(query, None)] + [
            p for p in stub_table(miniworld)["prompts"] if p.startswith(f"User: {query.question}\nContext:\n")
        ][:2]
        assert len(others) == 2
        cache = Prober(inner)
        cache.greedy_rollout(hit, cfg)
        inner.batches.clear()
        results = cache.greedy_rollouts([hit, *others], cfg)
        assert [prompts for prompts, _ in inner.batches] == [others]
        assert results[0] == cache.greedy_rollout(hit, cfg)
        assert cache.hits == 2

    def test_batch_misses_go_out_once_widened(self, miniworld):
        inner = RecordingBackend(StubBackend(stub_table(miniworld)))
        prompts = [render_probe_prompt(q, None) for q in load_dataset(miniworld.dataset_path)[:3]]
        cache = Prober(inner, probe_k=4)
        results = cache.greedy_rollouts(prompts, ProbeConfig(top_k=2, max_tokens=8))
        ((sent, cfg),) = inner.batches
        assert sent == prompts and cfg.top_k == 4
        assert all(len(r.steps[0].entries) == 4 for r in results)
        assert cache.misses == 3

    def test_failed_miss_not_cached(self, miniworld):
        table = stub_table(miniworld)
        table.pop("default", None)
        inner = RecordingBackend(StubBackend(table))
        cfg = miniworld.probe_cfg
        good = render_probe_prompt(load_dataset(miniworld.dataset_path)[0], None)
        cache = Prober(inner)
        for _ in range(2):
            missing, rollout = cache.greedy_rollouts(["no such prompt", good], cfg)
            assert isinstance(missing, UnknownPromptError)
        assert [prompts for prompts, _ in inner.batches] == [["no such prompt", good], ["no such prompt"]]
        assert cache.misses == 1 and cache.hits == 1

    def test_counting_counts_every_prompt_hits_included(self, miniworld):
        inner = RecordingBackend(StubBackend(stub_table(miniworld)))
        prompts = [render_probe_prompt(q, None) for q in load_dataset(miniworld.dataset_path)[:3]]
        cache = Prober(inner)
        cache.greedy_rollouts(prompts, miniworld.probe_cfg)
        cache.greedy_rollouts(prompts, miniworld.probe_cfg)
        assert cache.calls == 6
        assert cache.hits == 3 and len(inner.prompts) == 3

    def test_forced_score_is_the_backends_and_counts_one_call(self, miniworld):
        prompt = render_probe_prompt(load_dataset(miniworld.dataset_path)[0], None)
        stub = StubBackend(stub_table(miniworld))
        prober = Prober(stub)
        scores = prober.force_score(prompt, "amber0 beacon0", miniworld.probe_cfg)
        assert scores == stub.force_score(prompt, "amber0 beacon0", miniworld.probe_cfg)
        assert prober.calls == 1

    def test_yesno_through_a_widened_cache_equals_the_bare_backend(self):
        query = Query("q", "is it here")
        passages = [Passage("a", "alpha text"), Passage("b", "beta text")]
        candidates = CandidateSet("q", ((passages[0], 2.0), (passages[1], 1.0)))
        # The third and fourth entries change the score when kept.
        first_steps = (
            {"No": -0.1, "Yes": -0.3, "Maybe": -0.5, "yes": -0.6},
            {"Yes": -0.2, "No": -0.4, "YES": -0.5, "x": -0.9},
        )
        table = {
            "prompts": {
                render_yesno_prompt(query, p): {"steps": [{"top_logprobs": lps}]}
                for p, lps in zip(passages, first_steps)
            }
        }
        backend = StubBackend(table)
        cfg = ProbeConfig(top_k=2, max_tokens=8)
        cache = Prober(backend, probe_k=4)
        cached = yesno_rerank(query, candidates, cache, cfg)
        assert cache.misses == 2
        assert cached == yesno_rerank(query, candidates, backend, cfg)
        assert cached != yesno_rerank(query, candidates, backend, replace(cfg, top_k=4))
