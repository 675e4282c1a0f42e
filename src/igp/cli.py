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
    make_backend,
    read_summary_csv,
    run_dataset,
    write_summary_csv,
)
from .probe import Prober
from .retrieve import Analyzer, build_index, save_index

SWEEP_PARAMS = ("tp", "topm", "topk", "mt")

_SWEEP_FIELD = {"tp": "tp", "topm": "top_m", "topk": "top_k", "mt": "max_tokens"}


def cmd_index(args: argparse.Namespace) -> int:
    corpus_path = Path(args.corpus)
    if not corpus_path.exists():
        print(f"error: corpus file not found: {corpus_path}", file=sys.stderr)
        return 1
    stopwords = frozenset(args.stopwords.split(",")) if args.stopwords else frozenset()
    index = build_index(load_corpus(corpus_path), Analyzer(stopwords=stopwords))
    save_index(index, args.out)
    print(f"indexed {index.doc_count} passages -> {args.out}")
    return 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    overrides = {
        "index_path": args.index,
        "dataset_path": args.dataset,
        "out_dir": args.out,
        "corpus_path": args.corpus,
        "qrels_path": args.qrels,
        "stub_path": args.stub,
        "endpoint": args.endpoint,
        "model": args.model,
        "rerank": args.rerank,
        "tp": args.tp,
        "top_m": args.topm,
        "token_guard": args.token_guard,
        "top_n": args.topn,
        "top_k": args.topk,
        "max_tokens": args.max_tokens,
        "answer_max_tokens": args.answer_max_tokens,
        "parallelism": args.parallelism,
        "labeled_only": args.labeled_only or None,
        "generate": (not args.no_generate) if args.no_generate else None,
        "failure_ceiling": args.failure_ceiling,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    missing = [k for k in ("index_path", "dataset_path", "out_dir") if k not in values]
    if missing:
        raise ValueError(f"missing required config values: {missing}")
    return RunConfig(**values)


def _check_inputs(config: RunConfig) -> None:
    paths = {
        "index": config.index_path,
        "dataset": config.dataset_path,
        "qrels": config.qrels_path,
        "stub": config.stub_path,
        "corpus": config.corpus_path,
    }
    for name, p in paths.items():
        if p is not None and not Path(p).exists():
            raise FileNotFoundError(f"{name} file not found: {p}")


def _print_summary(summary: dict) -> None:
    parts = [f"{k}={summary[k]}" for k in ("method", "topm", "tp", "f1", "tk", "ndcg", "n")]
    print("summary: " + " ".join(parts))


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _check_inputs(config)
    result = run_dataset(config)
    _print_summary(result.summary)
    print(f"records -> {Path(config.out_dir) / 'records.jsonl'}")
    if result.failed:
        print(
            f"warning: {result.failed} queries failed "
            f"(rate {result.failure_rate:.2%}, ceiling {config.failure_ceiling:.2%})",
            file=sys.stderr,
        )
    return 1 if result.failure_rate > config.failure_ceiling else 0


def _parse_grid(param: str, raw: str) -> list:
    values = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        values.append(float(chunk) if param == "tp" else int(chunk))
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
    _check_inputs(base)
    axes = [(args.param, _parse_grid(args.param, args.values))]
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
    sweep_dir.mkdir(parents=True, exist_ok=True)

    # One prober for the whole sweep: rollouts probed for one grid point are
    # reused wherever the point's (prompt, max-token) pair is unchanged.
    # The no-evidence rollout is probed once per query across a whole tp or
    # topm grid. When the Top-K width is swept, everything is probed once at
    # the widest K and the uncertainty math re-derives each narrower width
    # from the recorded steps.
    probe_k = None
    for param, grid in axes:
        if param == "topk":
            probe_k = max(grid)
    prober = Prober(make_backend(base), probe_k=probe_k)

    rows = []
    exit_code = 0
    for config in configs:
        result = run_dataset(config, backend=prober)
        if result.failure_rate > config.failure_ceiling:
            exit_code = 1
        row = dict(result.summary)
        row["k"] = config.top_k
        row["mt"] = config.max_tokens
        rows.append(row)
        _print_summary(result.summary)
    write_summary_csv(sweep_dir / "sweep.csv", rows, extra_columns=("k", "mt"))
    print(f"sweep table -> {sweep_dir / 'sweep.csv'}")
    return exit_code


def _as_float(value) -> Optional[float]:
    if value is None or value == "":
        return None
    return float(value)


def pareto_rows(rows: list[dict]) -> list[dict]:
    """Attach an NTE column (relative to the retriever-only row at the same
    budget, when present) and flag Pareto-dominated operating points."""
    out = [dict(r) for r in rows]
    baselines = {
        r["topm"]: (_as_float(r["f1"]), _as_float(r["tk"]))
        for r in out
        if r["method"] == "none"
    }
    for row in out:
        f1, tk = _as_float(row["f1"]), _as_float(row["tk"])
        base = baselines.get(row["topm"])
        if not row.get("nte") and base and None not in (f1, tk, *base):
            try:
                row["nte"] = normalized_token_efficiency(f1, tk, *base)
            except ValueError:
                pass
    for row in out:
        f1, tk = _as_float(row["f1"]), _as_float(row["tk"])
        if f1 is None or tk is None:
            row["dominated"] = ""
            continue
        dominated = any(
            other is not row
            and _as_float(other["f1"]) is not None
            and _as_float(other["tk"]) is not None
            and _as_float(other["f1"]) >= f1
            and _as_float(other["tk"]) <= tk
            and (_as_float(other["f1"]) > f1 or _as_float(other["tk"]) < tk)
            for other in out
        )
        row["dominated"] = str(dominated).lower()
    return out


def correlation_rows(rows: list[dict]) -> list[dict]:
    """Spearman correlation between per-method NDCG and F1 at each budget.
    Budgets with fewer than two methods carrying both metrics are skipped."""
    by_topm: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        ndcg, f1 = _as_float(row.get("ndcg")), _as_float(row.get("f1"))
        if ndcg is None or f1 is None:
            continue
        by_topm.setdefault(str(row["topm"]), []).append((ndcg, f1))
    out = []
    for topm in sorted(by_topm):
        pairs = by_topm[topm]
        if len(pairs) < 2:
            continue
        try:
            rho = spearman([p[0] for p in pairs], [p[1] for p in pairs])
        except ValueError:
            continue
        out.append({"topm": topm, "spearman_ndcg_f1": rho, "n_methods": len(pairs)})
    return out


def cmd_report(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    for path in args.summaries:
        rows.extend(read_summary_csv(path))
    if not rows:
        print("error: no summary rows found", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pareto = pareto_rows(rows)
    write_summary_csv(out_dir / "pareto.csv", pareto, extra_columns=("k", "mt", "dominated"))
    for row in pareto:
        print(
            f"pareto: method={row['method']} topm={row['topm']} f1={row['f1']} "
            f"tk={row['tk']} dominated={row['dominated']}"
        )

    correlations = correlation_rows(rows)
    with open(out_dir / "correlation.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["topm", "spearman_ndcg_f1", "n_methods"])
        writer.writeheader()
        for row in correlations:
            writer.writerow(row)
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
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--index", help="index file path")
        p.add_argument("--dataset", help="dataset JSONL path")
        p.add_argument("--corpus", help="corpus JSONL path (for record replay)")
        p.add_argument("--qrels", help="qrels TSV path")
        p.add_argument("--stub", help="stub backend JSON table path")
        p.add_argument("--endpoint", help="OpenAI-compatible base URL (incl. /v1)")
        p.add_argument("--model", help="model name for the HTTP backend")
        p.add_argument("--rerank", choices=RERANK_METHODS, default=None)
        p.add_argument("--tp", type=float, default=None, help="pruning threshold")
        p.add_argument("--topm", type=int, default=None, help="evidence budget M")
        p.add_argument("--token-guard", dest="token_guard", type=int, default=None)
        p.add_argument("--topn", type=int, default=None, help="retrieval candidates")
        p.add_argument("--topk", type=int, default=None, help="probing Top-K width")
        p.add_argument("--max-tokens", dest="max_tokens", type=int, default=None,
                       help="probing rollout cap")
        p.add_argument("--answer-max-tokens", dest="answer_max_tokens", type=int,
                       default=None)
        p.add_argument("--parallelism", type=int, default=None)
        p.add_argument("--labeled-only", action="store_true", default=False)
        p.add_argument("--no-generate", action="store_true", default=False)
        p.add_argument("--failure-ceiling", dest="failure_ceiling", type=float,
                       default=None)
        p.add_argument("--out", help="run output directory")

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
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
