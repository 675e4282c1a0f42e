"""Command surface: index building, run/sweep wiring, config-file overrides,
and the report tables (Pareto dominance, NDCG-F1 correlation)."""

import csv
import errno
import gzip
import json
import os
import runpy
import socket
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from helpers import DEMO_SCRIPT, cut_inside, cut_short, read_summary_csv

import igp.cli
import igp.pipeline
from igp.cli import _config_from_args, build_parser, correlation_rows, main, pareto_rows
from igp.core import (
    Query,
    load_dataset,
    render_answer_prompt,
    render_probe_prompt,
    render_yesno_prompt,
)
from igp.evaluate import SampleResult, dataset_summary
from igp.pipeline import RunConfig, load_records, write_summary_csv
from igp.probe import StubBackend
from igp.retrieve import Bm25Params, load_index, search


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def world_args(miniworld):
    return [
        "--index", miniworld.index_path,
        "--dataset", miniworld.dataset_path,
        "--corpus", miniworld.corpus_path,
        "--qrels", miniworld.qrels_path,
        "--stub", miniworld.stub_path,
        "--topk", miniworld.probe_cfg.top_k,
        "--max-tokens", miniworld.probe_cfg.max_tokens,
        "--topn", 5,
    ]


# Every RunConfig field: the run flag that sets it, and a value other than
# its default. The two boolean flags take no value.
RUN_FLAGS = {
    "index_path": ("--index", "a.idx"),
    "dataset_path": ("--dataset", "d.jsonl"),
    "out_dir": ("--out", "out"),
    "corpus_path": ("--corpus", "c.jsonl"),
    "qrels_path": ("--qrels", "q.tsv"),
    "stub_path": ("--stub", "s.json"),
    "endpoint": ("--endpoint", "http://localhost:8000/v1"),
    "model": ("--model", "m"),
    "rerank": ("--rerank", "qlm"),
    "tp": ("--tp", 0.25),
    "top_m": ("--topm", 3),
    "token_guard": ("--token-guard", 40),
    "top_n": ("--topn", 7),
    "top_k": ("--topk", 16),
    "max_tokens": ("--max-tokens", 9),
    "answer_max_tokens": ("--answer-max-tokens", 11),
    "parallelism": ("--parallelism", 2),
    "labeled_only": ("--labeled-only", True),
    "generate": ("--no-generate", False),
    "failure_ceiling": ("--failure-ceiling", 0.5),
}


class TestRunFlags:
    COMMANDS = [("run",), ("sweep", "--param", "tp", "--values", "0")]
    # Exactly one backend per config: the stub, or an endpoint with a model.
    BACKENDS = [("stub_path",), ("endpoint", "model")]

    def settings(self, backend):
        others = {f for b in self.BACKENDS if b != backend for f in b}
        return {name: value for name, (_, value) in RUN_FLAGS.items() if name not in others}

    def test_every_config_field_has_a_flag(self):
        assert set(RUN_FLAGS) == {f.name for f in fields(RunConfig)}
        assert all(RUN_FLAGS[f.name][1] != f.default for f in fields(RunConfig))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_flag_lands_in_its_field(self, command, backend):
        settings = self.settings(backend)
        argv = list(command)
        for name, value in settings.items():
            flag = RUN_FLAGS[name][0]
            argv += [flag] if isinstance(value, bool) else [flag, str(value)]
        config = _config_from_args(build_parser().parse_args(argv))
        assert config == RunConfig(**settings)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unset_flags_leave_config_values_standing(self, command, backend, tmp_path):
        settings = self.settings(backend)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(settings), encoding="utf-8")
        args = build_parser().parse_args([*command, "--config", str(path)])
        assert _config_from_args(args) == RunConfig(**settings)


class TestIndexCommand:
    def test_build_and_rebuild_identical(self, miniworld, tmp_path):
        out1, out2 = tmp_path / "a.idx", tmp_path / "b.idx"
        assert run_cli("index", "--corpus", miniworld.corpus_path, "--out", out1) == 0
        assert run_cli("index", "--corpus", miniworld.corpus_path, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_corpus_fails(self, tmp_path, capsys):
        corpus = tmp_path / "nope.jsonl"
        assert run_cli("index", "--corpus", corpus, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read corpus file {corpus}: ")

    def test_directory_as_corpus_fails(self, tmp_path, capsys):
        out = tmp_path / "x.idx"
        assert run_cli("index", "--corpus", tmp_path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read corpus file {tmp_path}: ")
        assert not out.exists()

    def test_binary_corpus_fails(self, tmp_path, capsys):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "x.idx"
        corpus.write_bytes(NOT_UTF8)
        assert run_cli("index", "--corpus", corpus, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read corpus file {corpus}: 'utf-8' codec can't decode byte "
            "0x8b in position 1: invalid start byte\n"
        )
        assert not out.exists()


class TestRunCommand:
    def test_igp_run(self, world_args, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", *world_args, "--rerank", "igp", "--tp", "0.05",
            "--topm", "1", "--out", out,
        )
        assert code == 0
        rows = read_summary_csv(out / "summary.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "igp"
        assert float(rows[0]["f1"]) == pytest.approx(1.0)
        assert list(rows[0].keys()) == [
            "method", "topm", "tp", "f1", "tk", "nte", "ndcg", "n",
        ]

    def test_igp_run_computes_each_rollouts_nu_once(self, world_args, tmp_path, nu_computations):
        out = tmp_path / "run"
        assert run_cli("run", *world_args, "--rerank", "igp", "--topm", "1", "--out", out) == 0
        records = load_records(out / "records.jsonl")
        # The no-evidence NU is shared by the query's 5 candidates: N+1 NUs.
        assert len(records) == 10
        assert len(nu_computations) == len(records) * (5 + 1)

    def test_config_file_with_flag_override(self, miniworld, tmp_path):
        config = {
            "index_path": str(miniworld.index_path),
            "dataset_path": str(miniworld.dataset_path),
            "qrels_path": str(miniworld.qrels_path),
            "stub_path": str(miniworld.stub_path),
            "out_dir": str(tmp_path / "from-config"),
            "top_k": miniworld.probe_cfg.top_k,
            "max_tokens": miniworld.probe_cfg.max_tokens,
            "rerank": "none",
            "top_m": 1,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "overridden"
        assert run_cli("run", "--config", path, "--rerank", "yesno", "--out", out) == 0
        rows = read_summary_csv(out / "summary.csv")
        assert rows[0]["method"] == "yesno"

    @pytest.mark.parametrize(
        "world, flags, failed",
        [
            ("world_args", ("--rerank", "igp"), 0),
            ("world_args", ("--rerank", "none"), 0),
            ("world_args", ("--rerank", "yesno"), 0),
            ("world_args", ("--rerank", "igp", "--no-generate"), 0),
            ("broken_stub_args", ("--rerank", "igp", "--failure-ceiling", "0.5"), 1),
        ],
        ids=["igp", "none", "yesno", "no-generate", "one-failed"],
    )
    def test_summary_is_the_dataset_summary_of_the_ok_records(
        self, request, tmp_path, world, flags, failed
    ):
        args = request.getfixturevalue(world)
        out = tmp_path / "r"
        assert run_cli("run", *args, *flags, "--out", out) == 0
        records = load_records(out / "records.jsonl")
        ok = [r for r in records if r["error"] is None]
        assert len(records) - len(ok) == failed
        expected = dataset_summary(
            [
                SampleResult(r["query_id"], r["prediction"], r["f1"], r["input_tokens"], r["ndcg"])
                for r in ok
            ]
        )
        (row,) = read_summary_csv(out / "summary.csv")
        assert int(row["n"]) == expected.n_samples == len(ok)
        for column, value in (
            ("f1", expected.f1_mean), ("tk", expected.tk_mean), ("ndcg", expected.ndcg_mean)
        ):
            assert (float(row[column]) if row[column] else None) == value
        assert expected.tk_mean is not None and expected.ndcg_mean is not None
        assert (expected.f1_mean is None) == ("--no-generate" in args + list(flags))

    def test_point_where_every_query_fails_writes_empty_means(
        self, miniworld, world_args, tmp_path, capsys
    ):
        table = json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        table["prompts"] = {}
        table.pop("default")
        empty = tmp_path / "empty-stub.json"
        empty.write_text(json.dumps(table), encoding="utf-8")
        args = list(world_args)
        args[args.index("--stub") + 1] = empty
        out = tmp_path / "r"
        assert run_cli("run", *args, "--rerank", "igp", "--no-generate", "--out", out) == 1
        (row,) = read_summary_csv(out / "summary.csv")
        assert row == {
            "method": "igp", "topm": "5", "tp": "0.05",
            "f1": "", "tk": "", "nte": "", "ndcg": "", "n": "0",
        }
        assert len(load_records(out / "records.jsonl")) == len(miniworld.queries)
        assert "summary: method=igp topm=5 tp=0.05 f1= tk= ndcg= n=0\n" in capsys.readouterr().out

    def test_minus_infinity_tp_accepted(self, world_args, tmp_path):
        out = tmp_path / "r"
        assert run_cli("run", *world_args, "--rerank", "igp", "--tp=-inf", "--out", out) == 0
        assert read_summary_csv(out / "summary.csv")[0]["tp"] == "-inf"

    @pytest.mark.parametrize("damage", ["header", "doc_ids", "tfs", "trailing byte"])
    def test_damaged_index_fails_cleanly(self, miniworld, world_args, tmp_path, capsys, damage):
        raw = gzip.decompress(Path(miniworld.index_path).read_bytes())
        if damage == "trailing byte":
            damaged = gzip.compress(raw + b"\0")
        else:
            damaged = cut_short(raw[: cut_inside(raw, damage)])
        path = tmp_path / "damaged.idx"
        path.write_bytes(damaged)
        args = list(world_args)
        args[args.index("--index") + 1] = path
        assert run_cli("run", *args, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_failure_ceiling_gates_exit_code(self, miniworld, world_args, tmp_path):
        # Break the no-evidence probe for one query: that query fails, the
        # rest complete. Exit is nonzero only when the ceiling is below the
        # observed failure rate.
        from igp.core import load_dataset, render_probe_prompt

        table = json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
        victim = load_dataset(miniworld.dataset_path)[0]
        table["prompts"].pop(render_probe_prompt(victim, None))
        table.pop("default")
        broken = tmp_path / "broken-stub.json"
        broken.write_text(json.dumps(table), encoding="utf-8")
        args = list(world_args)
        args[args.index("--stub") + 1] = broken
        # Generation for unkeyed prompts relied on the default entry: keep
        # generation off so only the probing outage fails.
        common = ["run", *args, "--rerank", "igp", "--topm", "1", "--no-generate"]
        assert run_cli(*common, "--out", tmp_path / "strict") == 1
        assert (
            run_cli(*common, "--failure-ceiling", "0.5", "--out", tmp_path / "lax")
            == 0
        )


@pytest.fixture()
def broken_stub_args(miniworld, world_args, tmp_path):
    """``world_args`` over a stub that lacks the first query's no-evidence
    probe and the default entry: with generation off, that query fails and
    the rest complete."""
    table = json.loads(miniworld.stub_path.read_text(encoding="utf-8"))
    victim = load_dataset(miniworld.dataset_path)[0]
    table["prompts"].pop(render_probe_prompt(victim, None))
    table.pop("default")
    broken = tmp_path / "broken-stub.json"
    broken.write_text(json.dumps(table), encoding="utf-8")
    args = list(world_args)
    args[args.index("--stub") + 1] = broken
    return [*args, "--no-generate"]


@pytest.fixture(scope="module")
def demo_world(tmp_path_factory):
    """README's demo world, indexed."""
    root = tmp_path_factory.mktemp("demo")
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_fixture.py"
    runpy.run_path(str(script))["build"](root)
    assert run_cli("index", "--corpus", root / "corpus.jsonl", "--out", root / "bm25.idx") == 0
    return root


def test_demo_world_build_is_deterministic(tmp_path):
    build = runpy.run_path(str(DEMO_SCRIPT))["build"]
    build(tmp_path / "a")
    build(tmp_path / "b")
    names = ["corpus.jsonl", "dataset.jsonl", "qrels.tsv", "stub.json"]
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_demo_stub_keys_every_probe_prompt(demo_world):
    # The stub's default entry would answer an unkeyed prompt silently, so a
    # drift between the fixture's prompts and the renderers shows only here.
    prompts = json.loads((demo_world / "stub.json").read_text(encoding="utf-8"))["prompts"]
    index = load_index(demo_world / "bm25.idx")
    for query in load_dataset(demo_world / "dataset.jsonl"):
        passages = search(index, query.question, Bm25Params(top_n=5), query.id).passages
        assert len(passages) == 5
        for passage in passages:
            assert render_probe_prompt(query, passage) in prompts
            assert render_yesno_prompt(query, passage) in prompts


@pytest.mark.parametrize("method", ["igp", "none"])
def test_query_that_retrieves_nothing(demo_world, tmp_path, method):
    # No query term is in the corpus: nothing to rerank, an empty document
    # block, and the generation call is the query's only call.
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        json.dumps({"id": "qx", "question": "xylophone quasar"}) + "\n", encoding="utf-8"
    )
    out = tmp_path / "run"
    assert run_cli(
        "run", "--index", demo_world / "bm25.idx", "--dataset", dataset,
        "--stub", demo_world / "stub.json", "--topk", 4, "--max-tokens", 8,
        "--rerank", method, "--out", out,
    ) == 0
    (record,) = load_records(out / "records.jsonl")
    assert record["candidates"] == record["scores"] == record["admitted_ids"] == []
    assert record["final_prompt"] == render_answer_prompt(Query("qx", "xylophone quasar"), [])
    assert record["probe_calls"] == 1
    assert record["prediction"] == "unknown answer"
    assert record["error"] is None


def test_readme_quick_start(tmp_path):
    # README's quick start: build the demo world, index it, and compare the
    # pruned run with retriever order.
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_fixture.py"
    runpy.run_path(str(script))["build"](tmp_path)
    idx = tmp_path / "bm25.idx"
    assert run_cli("index", "--corpus", tmp_path / "corpus.jsonl", "--out", idx) == 0
    summaries = {}
    for method, flags in (("igp", ("--tp", 0.05)), ("none", ())):
        out = tmp_path / f"run-{method}"
        assert run_cli(
            "run", "--index", idx, "--dataset", tmp_path / "dataset.jsonl",
            "--qrels", tmp_path / "qrels.tsv", "--stub", tmp_path / "stub.json",
            "--topk", 4, "--max-tokens", 8, "--rerank", method, *flags,
            "--topm", 5, "--out", out,
        ) == 0
        summaries[method] = read_summary_csv(out / "summary.csv")[0]
    igp, none = summaries["igp"], summaries["none"]
    assert float(igp["f1"]) > float(none["f1"])
    assert float(igp["tk"]) < float(none["tk"])


ROOT = Path(__file__).resolve().parents[1]


def package_env():
    """The environment with this interpreter first on PATH and the package
    under test importable."""
    src = str(Path(igp.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    return env


def run_walkthrough(igp_command, out):
    """``scripts/walkthrough.sh`` under ``package_env``; returns the exit code
    and the output. The output goes to a file, not a pipe, so an endpoint
    left running cannot hold the call open."""
    log = out.parent / "walkthrough.log"
    with open(log, "w", encoding="utf-8") as fh:
        code = subprocess.call(
            ["sh", str(ROOT / "scripts" / "walkthrough.sh"), igp_command, str(out)],
            env=package_env(), stdout=fh, stderr=subprocess.STDOUT, timeout=300,
        )
    return code, log.read_text(encoding="utf-8")


def test_walkthrough_script(tmp_path):
    # CI runs the same script through the installed ``igp``.
    code, output = run_walkthrough(f"{sys.executable} -m igp.cli", tmp_path / "demo")
    assert code == 0, output
    assert output.endswith("walkthrough: ok\n")
    assert (tmp_path / "demo" / "report" / "correlation.csv").is_file()


def test_benchmark_finds_every_function_it_wraps(miniworld, tmp_path):
    # perfbench/child.py wraps igp functions by name, all of them when
    # traced, and exits 3 when one is missing. About 0.15 s: one process
    # start and one index build of the mini world.
    stats = tmp_path / "stats.json"
    result = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), "--stats", str(stats),
            "--trace", "1", "--", "index", "--corpus", str(miniworld.corpus_path),
            "--out", str(tmp_path / "bm25.idx"),
        ],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(stats.read_text(encoding="utf-8"))["spans"]


def test_walkthrough_stops_at_the_first_failure_and_stops_its_endpoint(tmp_path):
    wrapper = tmp_path / "igp.sh"
    wrapper.write_text(
        f'case "$*" in *--endpoint*) exit 3;; esac\nexec "{sys.executable}" -m igp.cli "$@"\n',
        encoding="utf-8",
    )
    out = tmp_path / "demo"
    code, output = run_walkthrough(f"sh {wrapper}", out)
    assert code == 3
    assert "walkthrough: ok" not in output
    assert (out / "run-igp").is_dir() and not (out / "run-none").exists()
    port = int((out / "endpoint.out").read_text(encoding="utf-8").split()[1])
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


class TestSweepCommand:
    def test_tp_grid_admission_monotone(self, world_args, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", *world_args, "--rerank", "igp", "--topm", "5",
            "--param", "tp", "--values=-inf,0,0.05,1.5", "--out", out,
        )
        assert code == 0
        rows = read_summary_csv(out / "sweep.csv")
        assert [r["tp"] for r in rows] == ["-inf", "0.0", "0.05", "1.5"]
        sizes = []
        for i, row in enumerate(rows):
            point_dir = next(out.glob(f"point_{i:03d}_*"))
            records = [
                json.loads(line)
                for line in (point_dir / "records.jsonl").read_text().splitlines()
            ]
            sizes.append(sum(len(r["admitted_ids"]) for r in records))
        assert sizes == sorted(sizes, reverse=True)
        tks = [float(r["tk"]) for r in rows]
        assert tks == sorted(tks, reverse=True)

    def test_topk_grid_reuses_rollouts(self, world_args, tmp_path):
        out = tmp_path / "ksweep"
        code = run_cli(
            "sweep", *world_args, "--rerank", "igp", "--tp", "0.05", "--topm", "1",
            "--param", "topk", "--values", "2,4", "--out", out,
        )
        assert code == 0
        rows = read_summary_csv(out / "sweep.csv")
        assert [r["k"] for r in rows] == ["2", "4"]
        # Both grid points must admit the gold passages (decisive at any K).
        assert all(float(r["f1"]) == pytest.approx(1.0) for r in rows)

    def test_point_records_equal_a_run_with_the_point_config(self, world_args, tmp_path):
        # The first point misses the rollout cache everywhere, the second
        # hits it everywhere; both must record what a plain run records.
        out = tmp_path / "tpsweep"
        common = ["--rerank", "igp", "--topm", "1"]
        assert run_cli(
            "sweep", *world_args, *common, "--param", "tp", "--values", "0.05,0.5",
            "--out", out,
        ) == 0
        for i, tp in enumerate(("0.05", "0.5")):
            run_dir = tmp_path / f"run-{tp}"
            assert run_cli("run", *world_args, *common, "--tp", tp, "--out", run_dir) == 0
            point_dir = next(out.glob(f"point_{i:03d}_*"))
            swept = load_records(point_dir / "records.jsonl")
            ran = load_records(run_dir / "records.jsonl")
            for record in swept + ran:
                record.pop("timings")
            assert swept == ran
            assert all(r["probe_calls"] == 7 for r in swept)

    def test_sweep_computes_each_rollouts_nu_once_per_width(
        self, world_args, tmp_path, nu_computations
    ):
        # 2 tp x 2 topk points: every rollout is probed once at K=4, and its
        # NU is computed once at each width, not once per point.
        out = tmp_path / "tpk"
        assert run_cli(
            "sweep", *world_args, "--rerank", "igp", "--topm", "1",
            "--param", "tp", "--values", "0.05,0.5",
            "--param2", "topk", "--values2", "2,4", "--out", out,
        ) == 0
        points = sorted(out.glob("point_*"))
        assert len(points) == 4
        queries = len(load_records(points[0] / "records.jsonl"))
        assert queries == 10
        assert len(nu_computations) == queries * (5 + 1) * 2
        assert sorted({k for k, _ in nu_computations}) == [2, 4]

    def test_stub_table_parsed_once_per_sweep(self, world_args, tmp_path, monkeypatch):
        load = StubBackend.load
        paths = []

        def counting_load(cls, path):
            paths.append(path)
            return load(path)

        monkeypatch.setattr(StubBackend, "load", classmethod(counting_load))
        assert run_cli(
            "sweep", *world_args, "--rerank", "igp", "--topm", "1",
            "--param", "tp", "--values", "0.05,0.5", "--out", tmp_path / "once",
        ) == 0
        assert len(paths) == 1

    def test_index_loaded_once_per_sweep(self, miniworld, world_args, tmp_path, monkeypatch):
        load = igp.pipeline.load_index
        paths = []

        def counting_load(path):
            paths.append(path)
            return load(path)

        monkeypatch.setattr(igp.pipeline, "load_index", counting_load)
        assert run_cli(
            "sweep", *world_args, "--rerank", "igp", "--topm", "1",
            "--param", "tp", "--values", "0.05,0.5",
            "--param2", "topk", "--values2", "2,4", "--out", tmp_path / "once",
        ) == 0
        assert paths == [str(miniworld.index_path)]
        points = sorted((tmp_path / "once").glob("point_*"))
        assert len(points) == 4
        assert all(not r["error"] for p in points for r in load_records(p / "records.jsonl"))

    def test_two_axis_grid_is_cross_product(self, world_args, tmp_path):
        out = tmp_path / "kmtsweep"
        code = run_cli(
            "sweep", *world_args, "--rerank", "igp", "--tp", "0.05", "--topm", "1",
            "--param", "topk", "--values", "2,4",
            "--param2", "mt", "--values2", "2,8",
            "--out", out,
        )
        assert code == 0
        rows = read_summary_csv(out / "sweep.csv")
        assert [(r["k"], r["mt"]) for r in rows] == [
            ("2", "2"), ("2", "8"), ("4", "2"), ("4", "8"),
        ]

    @pytest.mark.parametrize("ceiling, expected", [("0", 1), ("0.5", 0)])
    def test_each_failing_point_warns_and_the_ceiling_sets_the_exit_code(
        self, broken_stub_args, tmp_path, capsys, ceiling, expected
    ):
        out = tmp_path / "failing"
        code = run_cli(
            "sweep", *broken_stub_args, "--rerank", "igp", "--topm", "1",
            "--failure-ceiling", ceiling, "--param", "tp", "--values", "0.05,0.5",
            "--out", out,
        )
        assert code == expected
        warnings = capsys.readouterr().err.splitlines()
        points = sorted(out.glob("point_*"))
        assert len(points) == 2
        assert warnings == [
            f"warning: {p}: 1 queries failed (rate 10.00%, ceiling {float(ceiling):.2%})"
            for p in points
        ]


# Stand-ins for the paths a refusal's test makes: a directory, a file that
# does not exist, a file that is not UTF-8 (the start of a gzip stream), and
# the dataset with its first query repeated at the end.
DIRECTORY, MISSING, BINARY = "<directory>", "<missing>", "<binary>"
REPEATED_ID = "<repeated id>"
NOT_UTF8 = b"\x1f\x8b\x08\x00"
# The role each input file is named by when it cannot be read.
INPUT_ROLES = {
    "--index": "index", "--dataset": "dataset", "--corpus": "corpus",
    "--qrels": "qrels", "--stub": "stub table",
}
SWEEP_FLAGS = {"--param", "--values", "--param2", "--values2"}

# Each refusal edits the flags of world_args (and of the sweep's tp axis):
# a value sets its flag and None drops it. A --config value is the document
# to write, and the flags of its fields are dropped so that its values stand.
# A message that begins with "error: " is the whole of stderr; any other is a
# part of the one error line. "{path}" is the row's stand-in path.
REFUSALS = {
    "unknown-key": ({"--config": {"wat": 1}}, "error: unknown config keys: ['wat']\n"),
    "template-key": (
        {"--config": {"yesno_template": "User: {question}\nAssistant:"}},
        "unknown config keys: ['yesno_template']",
    ),
    "config-list": ({"--config": [1]}, "must hold a JSON object"),
    "config-number": ({"--config": 3}, "must hold a JSON object"),
    "no-index": ({"--index": None}, "missing required config values: ['index_path']"),
    "topk-1": ({"--topk": "1"}, "top_k must be >= 2"),
    "topk-1-none": ({"--rerank": "none", "--topk": "1"}, "top_k must be >= 2"),
    "topm-0": ({"--topm": "0"}, "top_m must be >= 1"),
    "mt-0": ({"--max-tokens": "0"}, "max_tokens must be >= 1"),
    "topn-0": ({"--topn": "0"}, "top_n must be >= 1"),
    "parallelism-0": ({"--parallelism": "0"}, "parallelism must be >= 1"),
    "answer-mt--3": ({"--answer-max-tokens": "-3"}, "answer_max_tokens must be >= 1"),
    "answer-mt-0": ({"--answer-max-tokens": "0"}, "answer_max_tokens must be >= 1"),
    "tp-nan-flag": ({"--tp": "nan"}, "tp must be a number, not nan"),
    "ceiling-2-flag": ({"--failure-ceiling": "2"}, "failure_ceiling must be a number in [0, 1]"),
    "tp-str": ({"--config": {"tp": "wide"}}, "tp must be a number, not 'wide'"),
    "tp-nan": ({"--config": {"tp": float("nan")}}, "tp must be a number, not nan"),
    "tp-bool": ({"--config": {"tp": True}}, "tp must be a number, not True"),
    "ceiling-str": ({"--config": {"failure_ceiling": "x"}}, "not 'x'"),
    "ceiling-1.5": ({"--config": {"failure_ceiling": 1.5}}, "not 1.5"),
    "ceiling--0.1": ({"--config": {"failure_ceiling": -0.1}}, "not -0.1"),
    "topk-str": ({"--config": {"top_k": "wide"}}, "top_k must be an integer, not 'wide'"),
    "topk-float": ({"--config": {"top_k": 4.5}}, "top_k must be an integer, not 4.5"),
    "topk-bool": ({"--config": {"top_k": True}}, "top_k must be an integer, not True"),
    "mt-float": ({"--config": {"max_tokens": 8.5}}, "max_tokens must be an integer"),
    "topn-float": ({"--config": {"top_n": 2.5}}, "top_n must be an integer"),
    "topm-float": ({"--config": {"top_m": 2.5}}, "top_m must be an integer"),
    "guard-float": ({"--config": {"token_guard": 100.5}}, "token_guard must be an integer"),
    "parallelism-float": ({"--config": {"parallelism": 2.5}}, "parallelism must be an integer"),
    "answer-mt-str": ({"--config": {"answer_max_tokens": "8"}}, "answer_max_tokens must be"),
    "generate-str": ({"--config": {"generate": "false"}}, "generate must be true or false"),
    "labeled-only-int": ({"--config": {"labeled_only": 1}}, "labeled_only must be true or false"),
    "index-int": ({"--config": {"index_path": 3}}, "index_path must be a string"),
    "dataset-list": ({"--config": {"dataset_path": ["d.jsonl"]}}, "dataset_path must be a string"),
    "qrels-int": ({"--config": {"qrels_path": 3}}, "qrels_path must be a string"),
    "corpus-object": ({"--config": {"corpus_path": {}}}, "corpus_path must be a string"),
    "stub-bool": ({"--config": {"stub_path": True}}, "stub_path must be a string"),
    "endpoint-int": (
        {"--config": {"stub_path": None, "endpoint": 3, "model": "m"}},
        "endpoint must be a string",
    ),
    "model-int": (
        {"--config": {"stub_path": None, "endpoint": "http://127.0.0.1:9/v1", "model": 3}},
        "model must be a string",
    ),
    "endpoint-url": (
        {"--stub": None, "--endpoint": "localhost:8000/v1", "--model": "m"},
        "error: endpoint URL 'localhost:8000/v1' needs an http:// or https:// "
        "scheme and a host\n",
    ),
    "repeated-query-id": (
        {"--dataset": REPEATED_ID},
        "error: {path}:11: duplicate query id 'q0' (first on line 1)\n",
    ),
    **{
        f"{flag[2:]}-{kind}": (
            {flag: stand_in},
            f"error: cannot read {role} file {{path}}: [Errno {code}] {reason}: '{{path}}'\n",
        )
        for flag, role in INPUT_ROLES.items()
        for kind, stand_in, code, reason in (
            ("missing", MISSING, errno.ENOENT, "No such file or directory"),
            ("directory", DIRECTORY, errno.EISDIR, "Is a directory"),
        )
    },
    # The run reads passage texts from the index, so it opens the corpus
    # without decoding it.
    **{
        f"{flag[2:]}-binary": (
            {flag: BINARY},
            f"error: cannot read {INPUT_ROLES[flag]} file {{path}}: 'utf-8' codec can't "
            "decode byte 0x8b in position 1: invalid start byte\n",
        )
        for flag in ("--dataset", "--qrels", "--stub")
    },
    "grid-point": ({"--param": "topk", "--values": "4,1"}, "top_k must be >= 2"),
    "empty-grid": ({"--values": ","}, "error: sweep grid is empty\n"),
    "values2-alone": ({"--values2": "2,3"}, "error: --values2 requires --param2\n"),
    "param2-alone": ({"--param2": "topk"}, "error: --param2 requires --values2\n"),
    "same-axes": (
        {"--param2": "tp", "--values2": "0.1"},
        "error: the two sweep axes must differ\n",
    ),
}


class TestBadRunInputs:
    COMMANDS = [("run",), ("sweep", "--param", "tp", "--values", "0,0.05")]

    def assert_refused(self, argv, out, capsys):
        """The command exits 2 with one ``error:`` line and writes no ``out``;
        returns that line."""
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "command, edits, expected",
        [
            pytest.param(command, edits, expected, id=f"{command}-{name}")
            for name, (edits, expected) in REFUSALS.items()
            for command in ("run", "sweep")
            if command == "sweep" or not SWEEP_FLAGS & set(edits)
        ],
    )
    def test_refused_before_any_directory(
        self, miniworld, world_args, tmp_path, capsys, command, edits, expected
    ):
        flags = dict(zip(world_args[::2], world_args[1::2]))
        if command == "sweep":
            flags.update({"--param": "tp", "--values": "0,0.05"})
        path = None
        for flag, value in edits.items():
            if flag == "--config":
                for name in RUN_FLAGS.keys() & (value if isinstance(value, dict) else {}):
                    flags.pop(RUN_FLAGS[name][0], None)
                config = tmp_path / "run.json"
                config.write_text(json.dumps(value), encoding="utf-8")
                value = config
            elif value == DIRECTORY:
                value = path = tmp_path
            elif value == MISSING:
                value = path = tmp_path / "missing"
            elif value == BINARY:
                value = path = tmp_path / "binary"
                path.write_bytes(NOT_UTF8)
            elif value == REPEATED_ID:
                lines = miniworld.dataset_path.read_text(encoding="utf-8").splitlines()
                value = path = tmp_path / "dataset.jsonl"
                path.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
            if value is None:
                del flags[flag]
            else:
                flags[flag] = value
        err = self.assert_refused(
            [command, *(a for pair in flags.items() for a in pair)], tmp_path / "r", capsys
        )
        expected = expected.format(path=path)
        if expected.startswith("error: "):
            assert err == expected
        else:
            assert expected in err

    @pytest.mark.parametrize(
        "table",
        ['"prompts"', '{"prompts": 3}', '{"prompts": {"p": 3}}', '{"prompts": {}, "default": 3}'],
    )
    @pytest.mark.parametrize("command", COMMANDS, ids=["run", "sweep"])
    def test_stub_table_of_the_wrong_shape_exits_2_before_any_directory(
        self, world_args, tmp_path, capsys, command, table
    ):
        stub = tmp_path / "stub.json"
        stub.write_text(table, encoding="utf-8")
        args = list(world_args)
        args[args.index("--stub") + 1] = stub
        err = self.assert_refused([*command, *args], tmp_path / "r", capsys)
        assert "stub table" in err

    @pytest.mark.parametrize("labeled_only", [False, True], ids=["empty", "none-labeled"])
    @pytest.mark.parametrize("command", COMMANDS, ids=["run", "sweep"])
    def test_run_with_no_query_to_run_exits_2_before_any_directory(
        self, miniworld, world_args, tmp_path, capsys, command, labeled_only
    ):
        # Either no query at all, or qrels that name none of the queries.
        args = list(world_args)
        dataset = tmp_path / "dataset.jsonl"
        if labeled_only:
            dataset.write_text(miniworld.dataset_path.read_text(encoding="utf-8"), encoding="utf-8")
            qrels = tmp_path / "qrels.tsv"
            qrels.write_text("other\tp0\t1\n", encoding="utf-8")
            args[args.index("--qrels") + 1] = qrels
            args.append("--labeled-only")
        else:
            dataset.write_text("", encoding="utf-8")
        args[args.index("--dataset") + 1] = dataset
        err = self.assert_refused([*command, *args], tmp_path / "r", capsys)
        kind = "labeled query" if labeled_only else "query"
        assert err == f"error: dataset {dataset} has no {kind} to run\n"

    @pytest.mark.parametrize(
        "param, values, repeated",
        [("tp", "0.05,0.05", "0.05"), ("tp", "-inf,0.05,5e-2", "0.05"), ("topk", "4,2,04", "4")],
    )
    def test_sweep_grid_that_repeats_a_value_exits_2(
        self, world_args, tmp_path, capsys, param, values, repeated
    ):
        err = self.assert_refused(
            ["sweep", *world_args, "--param", param, f"--values={values}"], tmp_path / "r", capsys
        )
        assert err == f"error: sweep grid for {param} lists {repeated} twice\n"
        err = self.assert_refused(
            ["sweep", *world_args, "--param", "topm", "--values", "1,2",
             "--param2", param, f"--values2={values}"],
            tmp_path / "r", capsys,
        )
        assert err == f"error: sweep grid for {param} lists {repeated} twice\n"


class TestReport:
    def rows(self):
        # none sits on the frontier through its low cost, igp through its
        # quality; qlm loses to igp on both axes.
        return [
            {"method": "none", "topm": "1", "tp": "", "f1": "0.20", "tk": "90",
             "nte": "", "ndcg": "0.9", "n": "10"},
            {"method": "igp", "topm": "1", "tp": "0.05", "f1": "0.30", "tk": "100",
             "nte": "", "ndcg": "0.2", "n": "10"},
            {"method": "qlm", "topm": "1", "tp": "", "f1": "0.25", "tk": "210",
             "nte": "", "ndcg": "0.5", "n": "10"},
        ]

    def test_dominated_flag(self):
        out = {r["method"]: r for r in pareto_rows(self.rows())}
        # qlm: lower F1 and higher TK than igp -> dominated; others not.
        assert out["qlm"]["dominated"] == "true"
        assert out["igp"]["dominated"] == "false"
        assert out["none"]["dominated"] == "false"

    def test_row_beaten_on_both_axes_is_dominated(self):
        rows = self.rows()
        rows[0]["tk"] = "200"  # now igp beats none on F1 and TK alike
        out = {r["method"]: r for r in pareto_rows(rows)}
        assert out["none"]["dominated"] == "true"

    def test_single_row_not_dominated(self):
        rows = pareto_rows(self.rows()[:1])
        assert rows[0]["dominated"] == "false"

    def test_nte_filled_from_retriever_only_baseline(self):
        out = {r["method"]: r for r in pareto_rows(self.rows())}
        assert out["none"]["nte"] == pytest.approx(1.0)
        assert out["igp"]["nte"] == pytest.approx((0.3 / 100) / (0.2 / 90))

    def test_correlation_rows(self):
        rows = correlation_rows(self.rows())
        assert len(rows) == 1
        assert rows[0]["n_methods"] == 3
        # ndcg ranks (3, 1, 2) vs f1 ranks (1, 3, 2): perfect reversal.
        assert rows[0]["spearman_ndcg_f1"] == pytest.approx(-1.0)

    def test_correlation_counts_each_operating_point_once(self, capsys):
        # Five methods, each run twice with equal results.
        rows = [
            {"method": m, "topm": "2", "tp": "0.05" if m == "igp" else "",
             "f1": str(0.1 * i), "ndcg": str(1 - 0.1 * i)}
            for i, m in enumerate(("none", "ig", "igp", "qlm", "yesno"), 1)
        ]
        (row,) = correlation_rows(rows + rows)
        assert row["n_methods"] == 5
        assert row["spearman_ndcg_f1"] == pytest.approx(-1.0)
        assert capsys.readouterr().err == ""

    def test_correlation_names_a_differing_repeat_and_a_skipped_budget(self, capsys):
        rows = self.rows() + [dict(self.rows()[1], f1="0.35")]
        rows += [dict(r, topm="2", f1="0.5") for r in self.rows()]
        (row,) = correlation_rows(rows)
        assert row["topm"] == "1" and row["n_methods"] == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: topm=1 method=igp tp=0.05 k= mt= repeats with other ndcg/f1 (0.2, 0.35)",
            "warning: topm=2 skipped: correlation undefined for a constant input vector",
        ]

    def test_report_command_end_to_end(self, tmp_path):
        summary = tmp_path / "summary.csv"
        with open(summary, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(self.rows()[0].keys()))
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)
        out = tmp_path / "report"
        assert run_cli("report", summary, "--out", out) == 0
        pareto = read_summary_csv(out / "pareto.csv")
        assert {r["method"]: r["dominated"] for r in pareto} == {
            "none": "false", "igp": "false", "qlm": "true",
        }
        with open(out / "correlation.csv") as fh:
            corr = list(csv.DictReader(fh))
        assert float(corr[0]["spearman_ndcg_f1"]) == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("correlation.csv", "topm,spearman_ndcg_f1,n_methods\n1,-1.0,3\n",
             "not a summary or sweep table, missing columns ['method', 'f1', 'tk']"),
            ("config.json", "{}", "not a run config with top_k and max_tokens"),
            ("config.json", "[1]", "not a run config with top_k and max_tokens"),
        ],
        ids=["correlation-table", "config-without-keys", "config-list"],
    )
    def test_unusable_input_rejected_before_the_report_directory(
        self, tmp_path, capsys, name, text, message
    ):
        # A config.json is read from beside the summary it belongs to.
        summary = tmp_path / "summary.csv"
        write_summary_csv(summary, self.rows())
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "report"
        inputs = [summary, bad] if bad.suffix == ".csv" else [summary]
        assert run_cli("report", *inputs, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_header_only_summaries_rejected_before_the_report_directory(
        self, tmp_path, capsys
    ):
        summary = tmp_path / "summary.csv"
        write_summary_csv(summary, self.rows())
        header = tmp_path / "header.csv"
        header.write_text(summary.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        out = tmp_path / "report"
        assert run_cli("report", header, header, "--out", out) == 2
        assert capsys.readouterr().err == "error: no summary rows found\n"
        assert not out.exists()

    def test_report_names_each_sweep_row(self, tmp_path, capsys):
        # Three tp points of one sweep, equal on every other column, and a
        # run's summary row, which has no k or mt.
        rows = [
            dict(self.rows()[1], tp=tp, k="4", mt="8") for tp in ("-inf", "0.0", "0.05")
        ]
        sweep = tmp_path / "sweep.csv"
        write_summary_csv(sweep, rows, extra_columns=("k", "mt"))
        summary = tmp_path / "summary.csv"
        write_summary_csv(summary, self.rows()[:1])
        assert run_cli("report", sweep, summary, "--out", tmp_path / "report") == 0
        pareto = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("pareto:")]
        assert pareto == [
            "pareto: method=igp topm=1 tp=-inf k=4 mt=8 f1=0.30 tk=100 dominated=false",
            "pareto: method=igp topm=1 tp=0.0 k=4 mt=8 f1=0.30 tk=100 dominated=false",
            "pareto: method=igp topm=1 tp=0.05 k=4 mt=8 f1=0.30 tk=100 dominated=false",
            "pareto: method=none topm=1 tp= k= mt= f1=0.20 tk=90 dominated=false",
        ]

    def test_run_and_its_equal_sweep_point_count_once(self, tmp_path, capsys):
        # Each method's run summary has a config.json beside it at K=4,
        # mt=8; the sweep repeats igp's row at those settings.
        summaries = []
        for row in self.rows():
            run_dir = tmp_path / f"run-{row['method']}"
            run_dir.mkdir()
            write_summary_csv(run_dir / "summary.csv", [row])
            (run_dir / "config.json").write_text(json.dumps({"top_k": 4, "max_tokens": 8}))
            summaries.append(run_dir / "summary.csv")
        sweep = tmp_path / "sweep.csv"
        write_summary_csv(sweep, [dict(self.rows()[1], k=4, mt=8)], extra_columns=("k", "mt"))
        assert run_cli("report", *summaries, sweep, "--out", tmp_path / "report") == 0
        out, err = capsys.readouterr()
        assert "correlation: topm=1 spearman(ndcg, f1)=-1.0000 over 3 methods" in out.splitlines()
        assert "pareto: method=none topm=1 tp= k=4 mt=8 f1=0.20 tk=90 dominated=false" in out
        assert err == ""
        (row,) = read_summary_csv(tmp_path / "report" / "correlation.csv")
        assert row["n_methods"] == "3"

    def test_run_summary_reads_k_and_mt_from_its_config(self, world_args, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", *world_args, "--rerank", "none", "--topm", 1, "--out", out) == 0
        (row,) = igp.cli._report_rows(str(out / "summary.csv"))
        config = json.loads((out / "config.json").read_text())
        assert (row["k"], row["mt"]) == (str(config["top_k"]), str(config["max_tokens"]))
        with open(out / "summary.csv", newline="") as fh:
            assert "k" not in next(csv.reader(fh))

    def test_pareto_names_the_baseline_among_differing_none_rows(self, capsys):
        rows = self.rows() + [dict(self.rows()[0], f1="0.10", k="4", mt="8")]
        out = {r["method"]: r for r in pareto_rows(rows)}
        assert out["igp"]["nte"] == pytest.approx((0.3 / 100) / (0.1 / 90))
        assert capsys.readouterr().err.splitlines() == [
            "warning: NTE baseline at topm=1 is the last none row, "
            "topm=1 method=none tp= k=4 mt=8 f1=0.10 tk=90; "
            "other none rows there differ in (f1, tk)"
        ]

    def test_pareto_is_silent_over_equal_none_rows(self, capsys):
        pareto_rows(self.rows() + [dict(self.rows()[0], k="4", mt="8")])
        assert capsys.readouterr().err == ""
