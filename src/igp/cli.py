"""Operator surface: index building, end-to-end runs, parameter sweeps, and
report emission (Pareto table, NDCG-vs-F1 correlation table).

Configuration comes from a JSON file (--config) with per-flag overrides;
flags win. The API key for an HTTP backend is read only from the IGP_API_KEY
environment variable, never from a file or flag.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .core import load_corpus
from .evaluate import normalized_token_efficiency, spearman
from .pipeline import (
    RERANK_METHODS,
    RunConfig,
    RunResult,
    run_dataset,
    run_points,
    write_csv,
    write_summary_csv,
)
from .retrieve import Analyzer, build_index, save_index

_SWEEP_FIELD = {"tp": "tp", "topm": "top_m", "topk": "top_k", "mt": "max_tokens"}

SWEEP_PARAMS = tuple(_SWEEP_FIELD)


def cmd_index(args: argparse.Namespace) -> int:
    stopwords = frozenset(args.stopwords.split(",")) if args.stopwords else frozenset()
    index = build_index(load_corpus(args.corpus), Analyzer(stopwords=stopwords))
    save_index(index, args.out)
    print(f"indexed {index.doc_count} passages -> {args.out}")
    return 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    unknown = set(values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = value
    missing = [k for k in ("index_path", "dataset_path", "out_dir") if k not in values]
    if missing:
        raise ValueError(f"missing required config values: {missing}")
    return RunConfig(**values)


def _finish(result: RunResult, config: RunConfig) -> int:
    """Print the run's summary line, and a warning naming the run directory
    when any query failed; the exit code is 1 when the failure rate is
    above the ceiling."""
    parts = [f"{k}={result.summary[k]}" for k in ("method", "topm", "tp", "f1", "tk", "ndcg", "n")]
    print("summary: " + " ".join(parts))
    if result.failed:
        print(
            f"warning: {config.out_dir}: {result.failed} queries failed "
            f"(rate {result.failure_rate:.2%}, ceiling {config.failure_ceiling:.2%})",
            file=sys.stderr,
        )
    return 1 if result.failure_rate > config.failure_ceiling else 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    exit_code = _finish(run_dataset(config), config)
    print(f"records -> {Path(config.out_dir) / 'records.jsonl'}")
    return exit_code


def _parse_grid(param: str, raw: str) -> list:
    values = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        value = float(chunk) if param == "tp" else int(chunk)
        if value in values:
            raise ValueError(f"sweep grid for {param} lists {value} twice")
        values.append(value)
    if not values:
        raise ValueError("sweep grid is empty")
    return values


def _point_config(base: RunConfig, i: int, assignment: dict) -> RunConfig:
    label = "_".join(f"{p}={v}" for p, v in assignment.items())
    out_dir = Path(base.out_dir) / f"point_{i:03d}_{label}"
    fields_ = {_SWEEP_FIELD[param]: value for param, value in assignment.items()}
    cfg = replace(base, out_dir=str(out_dir), **fields_)
    if "tp" in assignment:
        cfg = replace(cfg, rerank="igp")
    return cfg


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    axes = [(args.param, _parse_grid(args.param, args.values))]
    if args.values2 is not None and not args.param2:
        raise ValueError("--values2 requires --param2")
    if args.param2:
        if not args.values2:
            raise ValueError("--param2 requires --values2")
        if args.param2 == args.param:
            raise ValueError("the two sweep axes must differ")
        axes.append((args.param2, _parse_grid(args.param2, args.values2)))
    points: list[dict] = [{}]
    for param, grid in axes:
        points = [dict(p, **{param: v}) for p in points for v in grid]
    # Every point's config is built, and so checked, before any point runs.
    configs = [_point_config(base, i, assignment) for i, assignment in enumerate(points)]
    sweep_dir = Path(base.out_dir)

    rows = []
    exit_code = 0
    for config, result in zip(configs, run_points(configs)):
        exit_code |= _finish(result, config)
        rows.append(dict(result.summary, k=config.top_k, mt=config.max_tokens))
    write_summary_csv(sweep_dir / "sweep.csv", rows, extra_columns=("k", "mt"))
    print(f"sweep table -> {sweep_dir / 'sweep.csv'}")
    return exit_code


def _as_float(value) -> Optional[float]:
    if value is None or value == "":
        return None
    return float(value)


def _point_name(row: dict) -> str:
    return " ".join(f"{c}={row.get(c, '')}" for c in ("topm", "method", "tp", "k", "mt"))


def pareto_rows(rows: list[dict]) -> list[dict]:
    """Attach an NTE column (relative to the retriever-only row at the same
    budget, when present) and flag Pareto-dominated operating points. With
    several retriever-only rows at a budget the last is the baseline; when
    they differ in (f1, tk), stderr names the one used."""
    out = [dict(r) for r in rows]
    points = [(_as_float(r["f1"]), _as_float(r["tk"])) for r in out]
    nones = [(r, p) for r, p in zip(out, points) if r["method"] == "none"]
    last_none = {r["topm"]: (r, p) for r, p in nones}
    for topm, (used, base) in last_none.items():
        if any(r["topm"] == topm and p != base for r, p in nones):
            print(
                f"warning: NTE baseline at topm={topm} is the last none row, "
                f"{_point_name(used)} f1={used['f1']} tk={used['tk']}; "
                "other none rows there differ in (f1, tk)",
                file=sys.stderr,
            )
    baselines = {topm: p for topm, (_, p) in last_none.items()}
    known = [p for p in points if None not in p]
    for row, (f1, tk) in zip(out, points):
        base = baselines.get(row["topm"])
        if not row.get("nte") and base and None not in (f1, tk, *base):
            try:
                row["nte"] = normalized_token_efficiency(f1, tk, *base)
            except ValueError:
                pass
        if f1 is None or tk is None:
            row["dominated"] = ""
            continue
        dominated = any(
            of1 >= f1 and otk <= tk and (of1 > f1 or otk < tk) for of1, otk in known
        )
        row["dominated"] = str(dominated).lower()
    return out


def correlation_rows(rows: list[dict]) -> list[dict]:
    """Spearman correlation between NDCG and F1 over the operating points
    ``(method, tp, k, mt)`` at each budget. A point repeated with equal NDCG
    and F1 counts once; a repeat with other values counts again and is named
    on stderr, as is a budget whose correlation is undefined. Budgets with
    fewer than two points carrying both metrics are skipped."""
    by_topm: dict[str, list[tuple[float, float]]] = {}
    seen: dict[str, set[tuple[float, float]]] = {}
    for row in rows:
        ndcg, f1 = _as_float(row.get("ndcg")), _as_float(row.get("f1"))
        if ndcg is None or f1 is None:
            continue
        point = _point_name(row)
        values = seen.setdefault(point, set())
        if (ndcg, f1) in values:
            continue
        if values:
            print(f"warning: {point} repeats with other ndcg/f1 ({ndcg}, {f1})", file=sys.stderr)
        values.add((ndcg, f1))
        by_topm.setdefault(str(row["topm"]), []).append((ndcg, f1))
    out = []
    for topm in sorted(by_topm):
        pairs = by_topm[topm]
        if len(pairs) < 2:
            continue
        try:
            rho = spearman([p[0] for p in pairs], [p[1] for p in pairs])
        except ValueError as exc:
            print(f"warning: topm={topm} skipped: {exc}", file=sys.stderr)
            continue
        out.append({"topm": topm, "spearman_ndcg_f1": rho, "n_methods": len(pairs)})
    return out


_REPORT_COLUMNS = ("method", "topm", "f1", "tk")


def _report_rows(path: str) -> list[dict]:
    """The rows of a summary or sweep CSV, whose header must hold the
    columns the report reads. A run's ``summary.csv`` has no ``k`` or ``mt``
    column; they come from the ``config.json`` beside it, when there is one,
    so a run and its equal sweep point are one point."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _REPORT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: not a summary or sweep table, missing columns {missing}")
        rows = list(reader)
    config_path = Path(path).parent / "config.json"
    if config_path.is_file():
        config = json.loads(config_path.read_text(encoding="utf-8"))
        if not (isinstance(config, dict) and {"top_k", "max_tokens"} <= config.keys()):
            raise ValueError(f"{config_path}: not a run config with top_k and max_tokens")
        for row in rows:
            row.setdefault("k", str(config["top_k"]))
            row.setdefault("mt", str(config["max_tokens"]))
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    for path in args.summaries:
        rows.extend(_report_rows(path))
    if not rows:
        raise ValueError("no summary rows found")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pareto = pareto_rows(rows)
    write_summary_csv(out_dir / "pareto.csv", pareto, extra_columns=("k", "mt", "dominated"))
    for row in pareto:
        print(
            f"pareto: method={row['method']} topm={row['topm']} tp={row.get('tp', '')} "
            f"k={row.get('k', '')} mt={row.get('mt', '')} f1={row['f1']} "
            f"tk={row['tk']} dominated={row['dominated']}"
        )

    correlations = correlation_rows(rows)
    columns = ["topm", "spearman_ndcg_f1", "n_methods"]
    write_csv(out_dir / "correlation.csv", columns, correlations)
    for row in correlations:
        print(
            f"correlation: topm={row['topm']} "
            f"spearman(ndcg, f1)={row['spearman_ndcg_f1']:+.4f} "
            f"over {row['n_methods']} methods"
        )
    print(f"report -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igp",
        description="Budgeted RAG evidence selection with information-gain pruning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="Build a BM25 index from a corpus JSONL")
    p_index.add_argument("--corpus", required=True, help="corpus JSONL path")
    p_index.add_argument("--out", required=True, help="index file to write")
    p_index.add_argument("--stopwords", default="", help="comma-separated stopword list")
    p_index.set_defaults(func=cmd_index)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        # Each flag's dest is its RunConfig field; an unset flag reads None,
        # so a --config value stands.
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--index", dest="index_path", help="index file path")
        p.add_argument("--dataset", dest="dataset_path", help="dataset JSONL path")
        p.add_argument("--corpus", dest="corpus_path", help="corpus JSONL path (for record replay)")
        p.add_argument("--qrels", dest="qrels_path", help="qrels TSV path")
        p.add_argument("--stub", dest="stub_path", help="stub backend JSON table path")
        p.add_argument("--endpoint", help="OpenAI-compatible base URL (incl. /v1)")
        p.add_argument("--model", help="model name for the HTTP backend")
        p.add_argument("--rerank", choices=RERANK_METHODS)
        p.add_argument("--tp", type=float, help="pruning threshold")
        p.add_argument("--topm", dest="top_m", type=int, help="evidence budget M")
        p.add_argument("--token-guard", dest="token_guard", type=int)
        p.add_argument("--topn", dest="top_n", type=int, help="retrieval candidates")
        p.add_argument("--topk", dest="top_k", type=int, help="probing Top-K width")
        p.add_argument("--max-tokens", dest="max_tokens", type=int, help="probing rollout cap")
        p.add_argument("--answer-max-tokens", dest="answer_max_tokens", type=int)
        p.add_argument("--parallelism", type=int)
        p.add_argument("--labeled-only", dest="labeled_only", action="store_const", const=True)
        p.add_argument("--no-generate", dest="generate", action="store_const", const=False)
        p.add_argument("--failure-ceiling", dest="failure_ceiling", type=float)
        p.add_argument("--out", dest="out_dir", help="run output directory")

    p_run = sub.add_parser("run", help="End-to-end run over a dataset")
    add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="Grid sweep over one or two parameters")
    add_run_flags(p_sweep)
    p_sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid values (-inf allowed for tp)")
    p_sweep.add_argument("--param2", choices=SWEEP_PARAMS, default=None,
                         help="optional second axis; the sweep runs the cross product")
    p_sweep.add_argument("--values2", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="Pareto and correlation tables")
    p_report.add_argument("summaries", nargs="+", help="summary/sweep CSV files")
    p_report.add_argument("--out", required=True, help="report output directory")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
