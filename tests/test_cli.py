"""Command surface: index building, run/sweep wiring, config-file overrides,
and the report tables (Pareto dominance, NDCG-F1 correlation)."""

import csv
import json

import pytest

from igp.cli import correlation_rows, main, pareto_rows
from igp.pipeline import load_records, read_summary_csv
from igp.probe import StubBackend


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


class TestIndexCommand:
    def test_build_and_rebuild_identical(self, miniworld, tmp_path):
        out1, out2 = tmp_path / "a.idx", tmp_path / "b.idx"
        assert run_cli("index", "--corpus", miniworld.corpus_path, "--out", out1) == 0
        assert run_cli("index", "--corpus", miniworld.corpus_path, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_corpus_fails(self, tmp_path):
        assert run_cli("index", "--corpus", tmp_path / "nope.jsonl", "--out", tmp_path / "x") == 1


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

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wat": 1}), encoding="utf-8")
        assert run_cli("run", "--config", path) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--topk", "1"),
            ("--rerank", "none", "--topk", "1"),
            ("--topm", "0"),
            ("--max-tokens", "0"),
            ("--topn", "0"),
            ("--parallelism", "0"),
        ],
    )
    def test_bad_setting_rejected_before_any_query(self, world_args, tmp_path, capsys, flags):
        out = tmp_path / "r"
        assert run_cli("run", *world_args, *flags, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("document", [[1], 3, {"top_k": "wide"}])
    def test_bad_config_document_rejected(self, world_args, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        args = list(world_args)
        del args[args.index("--topk"):args.index("--topk") + 2]
        out = tmp_path / "r"
        assert run_cli("run", "--config", path, *args, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "document",
        [
            {"tp": "wide"},
            {"tp": float("nan")},
            {"tp": True},
            {"failure_ceiling": "x"},
            {"failure_ceiling": 1.5},
            {"failure_ceiling": -0.1},
        ],
    )
    def test_bad_tp_or_failure_ceiling_rejected(self, world_args, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "r"
        assert run_cli("run", "--config", path, *world_args, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--tp", "nan"), ("--failure-ceiling", "2")])
    def test_bad_tp_or_failure_ceiling_flag_rejected(self, world_args, tmp_path, capsys, flags):
        out = tmp_path / "r"
        assert run_cli("run", *world_args, *flags, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_minus_infinity_tp_accepted(self, world_args, tmp_path):
        out = tmp_path / "r"
        assert run_cli("run", *world_args, "--rerank", "igp", "--tp=-inf", "--out", out) == 0
        assert read_summary_csv(out / "summary.csv")[0]["tp"] == "-inf"

    def test_missing_input_file_fails_cleanly(self, world_args, tmp_path):
        args = list(world_args)
        args[args.index("--index") + 1] = tmp_path / "missing.idx"
        assert run_cli("run", *args, "--out", tmp_path / "r") == 2

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

    def test_bad_grid_point_rejected_before_the_first_point(self, world_args, tmp_path, capsys):
        out = tmp_path / "badk"
        code = run_cli(
            "sweep", *world_args, "--rerank", "igp", "--topm", "1",
            "--param", "topk", "--values", "4,1", "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out.glob("point_*")) and not list(out.glob("**/records.jsonl"))

    def test_duplicate_axes_rejected(self, world_args, tmp_path):
        code = run_cli(
            "sweep", *world_args, "--param", "tp", "--values", "0,0.05",
            "--param2", "tp", "--values2", "0.1", "--out", tmp_path / "dup",
        )
        assert code == 2


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
        corr = list(csv.DictReader(open(out / "correlation.csv")))
        assert float(corr[0]["spearman_ndcg_f1"]) == pytest.approx(-1.0)
