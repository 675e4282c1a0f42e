"""The benchmark's own tests, at smoke size. Run with::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import http.client
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import world  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_same_seed_gives_identical_world(tmp_path):
    spec = run._workloads()["sweep-wide-k"].sizes["smoke"]
    a = world.build(spec, 7, tmp_path / "a")
    b = world.build(spec, 7, tmp_path / "b")
    c = world.build(spec, 8, tmp_path / "c")
    for name in ("corpus", "dataset", "qrels", "model"):
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()
    assert a.corpus.read_bytes() != c.corpus.read_bytes()
    assert a.expected == b.expected


def test_expected_values_follow_admitted_counts(tmp_path):
    spec = run._workloads()["sweep-wide-k"].sizes["smoke"]
    w = world.build(spec, 3, tmp_path)
    # Gains 10/32, 4/32, 2/32, 1/32, -2/32 admit 5, 4, 3, 2 passages at the
    # thresholds -inf, 0, 0.05, 0.1; each passage adds 62 prompt tokens.
    tks = [w.expected[tp]["tk"] for tp in (-math.inf, 0.0, 0.05, 0.1)]
    assert [b - a for a, b in zip(tks[1:], tks)] == [62.0, 62.0, 62.0]
    assert w.expected[-math.inf]["f1"] == 0.5  # a negative-gain passage is admitted


def test_check_rows_reports_mismatch():
    expected = {0.05: {"f1": 0.75, "tk": 220.0, "n": 8}}
    good = [{"tp": "0.05", "f1": "0.75", "tk": "220.0", "n": "8"}]
    assert run._check_rows(good, expected, 1) == []
    bad = [{"tp": "0.05", "f1": "0.7", "tk": "220.0", "n": "7"}]
    problems = run._check_rows(bad, expected, 1)
    assert any("f1=" in p for p in problems) and any("n=" in p for p in problems)


def test_missing_wrapper_target_is_loud():
    with pytest.raises(child.MissingTarget):
        child._target(run, "no_such_function")


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, None, "a", None, 0.0, 10.0, None),
        (2, 1, "b", None, 1.0, 4.0, None),
        (3, 1, "b", None, 2.0, 5.0, None),  # overlaps span 2
    ]
    assert run.self_times(spans) == {1: 6.0, 2: 3.0, 3: 3.0}


def test_endpoint_batches_and_reuses_connections(tmp_path):
    import endpoint

    table = {
        "prompts": {
            "p1": {"steps": [{"top_logprobs": {"a": -0.1, "b": -2.0, "c": -3.0}}] * 3},
            "p2": {"text": "two words"},
        }
    }
    table_path = tmp_path / "t.json"
    table_path.write_text(json.dumps(table), encoding="utf-8")
    ep = run.FakeEndpoint(table_path, tmp_path)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", ep.port, timeout=10)
        body = json.dumps({"prompt": ["p1", "p1"], "max_tokens": 2, "logprobs": 2})
        conn.request("POST", "/v1/completions", body=body)
        reply = json.loads(conn.getresponse().read())
        conn.request("POST", "/v1/completions", body=json.dumps({"prompt": "p2"}))
        text = json.loads(conn.getresponse().read())
        conn.request("POST", "/v1/completions", body=json.dumps({"prompt": "nope"}))
        missing = conn.getresponse()
        missing.read()
        conn.close()
        stats = ep.stats()
    finally:
        ep.close()
    assert [c["index"] for c in reply["choices"]] == [0, 1]
    lp = reply["choices"][0]["logprobs"]
    assert lp["tokens"] == ["a", "a"] and lp["top_logprobs"][0] == {"a": -0.1, "b": -2.0}
    assert reply["choices"][0]["finish_reason"] == "length"
    assert text["choices"][0]["text"] == "two words"
    assert missing.status == 404
    assert stats["connections"] == 1 and stats["requests"] == 3 and stats["prompts"] == 4
    # base 4 ms + 1 ms per token of the longest completion (2 steps)
    assert stats["injected"][endpoint.prompt_key("p1")] == pytest.approx(0.006)


def test_failed_probe_on_a_rejected_candidate_fails_the_pass(tmp_path):
    """A probe that fails on a candidate the threshold rejects anyway leaves
    the summary unchanged; the record check must still catch it."""
    from igp.core import Passage, Query, render_probe_prompt

    wl = run._workloads()["endpoint-igp"]
    w = world.build(wl.sizes["smoke"], 5, tmp_path / "world")
    rows = [json.loads(line) for line in w.dataset.read_text(encoding="utf-8").splitlines()]
    query = Query(rows[0]["id"], rows[0]["question"], tuple(rows[0]["golden_answers"]))
    rare = query.question.split()[0]
    corpus = [json.loads(line) for line in w.corpus.read_text(encoding="utf-8").splitlines()]
    planted = [Passage(d["id"], d["contents"]) for d in corpus if rare in d["contents"].split()]
    (tp,) = w.admitted
    rejected = [c for c in planted if c.id not in w.admitted[tp][query.id]]
    assert len(planted) == 5 and rejected
    table = json.loads(w.model.read_text(encoding="utf-8"))
    del table["prompts"][render_probe_prompt(query, rejected[0])]
    w.model.write_text(json.dumps(table), encoding="utf-8")

    ep = run.FakeEndpoint(w.model, tmp_path)
    try:
        p = run.run_pass(wl, w, tmp_path, False, ep, 0, True)
    finally:
        ep.close()
    # Only the probe error shows: the summary and the admitted ids still match.
    assert p.failed == 0 and sum(p.failures.values()) == 1
    assert next(iter(p.failures)).startswith("probe error ")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_all_workloads(trace):
    proc = _bench("--workload", "all", "--size", "smoke", "--seconds", "1", "--seed", "5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    for w in run._workloads():
        assert {f"{w}.{m}" for m, _ in names} <= result["metrics"].keys()
    m = result["metrics"]
    if trace == "1":
        assert m["endpoint-igp.probe.http_requests_per_query"]["value"] == 7
        assert m["endpoint-igp.probe.http_connections_per_request"]["value"] == 1.0
        assert m["sweep-wide-k.retrieve.load_index_calls"]["value"] == 12
        assert m["sweep-wide-k.probe.stub_load_calls"]["value"] == 12
    else:
        assert m["endpoint-igp.model_prompts_per_query"]["value"] == 7
        assert m["sweep-wide-k.model_prompts_per_query"]["value"] == 1.5


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "corpus-30k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
