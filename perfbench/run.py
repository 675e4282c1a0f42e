#!/usr/bin/env python3
"""Outside-in benchmark for igp: seeded worlds driven through the ``igp`` CLI.

    python3 perfbench/run.py --workload sweep-wide-k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each workload builds a seeded world (outside the timed phase), then repeats a
pass until ``--seconds`` have passed since the first ``igp run`` or ``igp
sweep`` began, with at least two passes. A pass runs the workload's ``igp
run`` or ``igp sweep``, preceded by ``igp index`` over the world's corpus on
every pass (once per invocation on ``corpus-30k``, whose build is costly). Each command runs in a fresh child process (``child.py``), so
set-up and peak RSS belong to that command alone. ``endpoint-igp`` also
starts one fake completions endpoint (``endpoint.py``) for the whole
invocation.

Every pass is checked: exit code 0, no failed query, and ``summary.csv`` or
``sweep.csv`` ``f1``/``tk``/``n`` equal to what the world's construction
predicts. Any mismatch makes the result ``correct: false`` and the exit code
1.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` passes alternate traced and untraced; the result carries the
per-layer metrics from the traced passes and the tracing overhead (traced
minus untraced). The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import http.client
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
ENDPOINT = HERE / "endpoint.py"

MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0

# Metric names and units come from the benchmark's definition.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # igp subcommand and its workload flags
    sizes: dict  # size name -> world.Spec
    endpoint: bool = False
    # False builds the index once per invocation: a costly build then leaves
    # the window to more samples of the command under test.
    reindex_each_pass: bool = True

    @property
    def points(self) -> int:
        """Runs per command: the size of a sweep's grid, else 1."""
        n = 1
        for flag, value in zip(self.command, self.command[1:] + ("",)):
            name, eq, inline = flag.partition("=")
            if name in ("--values", "--values2"):
                n *= len((inline if eq else value).split(","))
        return n


def _workloads() -> dict[str, Workload]:
    from world import Probing, Spec

    inf = float("-inf")
    return {
        "endpoint-igp": Workload(
            command=(
                "run", "--rerank", "igp", "--tp", "0.05", "--topk", "20",
                "--max-tokens", "16", "--topm", "5", "--parallelism", "2",
            ),
            sizes={
                "full": Spec(1500, 200, 20000, Probing(20, 16, 10, (5, 8, 9, 11, 12)), (0.05,)),
                "smoke": Spec(200, 8, 2000, Probing(20, 16, 10, (5, 8, 9, 11, 12)), (0.05,)),
            },
            endpoint=True,
        ),
        "sweep-wide-k": Workload(
            command=(
                "sweep", "--topk", "128", "--max-tokens", "32", "--topm", "5",
                "--param", "tp", "--values=-inf,0,0.05,0.1",
                "--param2", "topk", "--values2", "32,64,128", "--parallelism", "2",
            ),
            sizes={
                "full": Spec(2000, 40, 20000, Probing(128, 32, 20, (10, 16, 18, 19, 22)), (inf, 0.0, 0.05, 0.1)),
                "smoke": Spec(200, 4, 2000, Probing(128, 32, 20, (10, 16, 18, 19, 22)), (inf, 0.0, 0.05, 0.1)),
            },
        ),
        "corpus-30k": Workload(
            command=("run", "--rerank", "none", "--topm", "5"),
            sizes={
                "full": Spec(30000, 100, 20000, None, (inf,)),
                "smoke": Spec(300, 6, 2000, None, (inf,)),
            },
            reindex_each_pass=False,
        ),
    }


class BenchError(Exception):
    """The benchmark could not run a pass to completion."""


# ---------------------------------------------------------------- processes


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class Child:
    argv: list[str]
    spawn: float
    exit: float
    code: int
    stats: dict
    log: Path

    @property
    def wall(self) -> float:
        return self.exit - self.spawn

    @property
    def setup(self) -> float:
        return self.stats["first_query_t"] - self.spawn

    @property
    def spans(self) -> list[tuple]:
        return self.stats.get("spans", [])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], traced: bool, work: Path, tag: str) -> Child:
    stats_path = work / f"{tag}.stats.json"
    log = work / f"{tag}.log"
    stats_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--stats", str(stats_path), "--trace", str(int(traced)), "--", *argv]
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=work)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"igp {argv[0]} timed out after {CHILD_TIMEOUT_S:.0f} s")
        finally:
            t1 = time.monotonic()
            _stop(proc)
    stats = json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists() else {}
    return Child(argv, t0, t1, proc.returncode, stats, log)


class FakeEndpoint:
    def __init__(self, table: Path, work: Path):
        self._err = open(work / "endpoint.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(ENDPOINT), "--table", str(table)],
            stdout=subprocess.PIPE, stderr=self._err,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("PORT "):
                raise BenchError("fake endpoint did not start")
        except BaseException:
            self.close()
            raise
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def close(self) -> None:
        _stop(self.proc)
        self.proc.stdout.close()
        self._err.close()


# --------------------------------------------------------------- one pass


@dataclass
class Pass:
    traced: bool
    index: Child | None  # None when the pass reused the previous index
    main: Child
    attempted: int
    index_mb: float
    endpoint: dict | None
    failures: Counter = field(default_factory=Counter)  # reason -> count
    record_errors: Counter = field(default_factory=Counter)  # exception type -> count

    @property
    def failed(self) -> int:
        return self.attempted - self.main.stats.get("completed", 0)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _tp(row: dict) -> float:
    return float(row["tp"]) if row.get("tp") else float("-inf")


def _at(table: dict, tp: float):
    """The world's entry for threshold ``tp``; a world built for a single
    threshold answers for whatever tp its one command reports."""
    return table.get(tp) if len(table) > 1 else next(iter(table.values()))


def _check_rows(rows: list[dict], expected: dict, points: int) -> list[str]:
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} summary rows, expected {points}")
    for row in rows:
        want = _at(expected, _tp(row))
        if want is None:
            problems.append(f"unexpected tp {row.get('tp')!r}")
            continue
        for key in ("f1", "tk"):
            got = float(row[key]) if row.get(key) else float("nan")
            if not _close(got, want[key]):
                problems.append(f"tp={row.get('tp')} k={row.get('k', '')}: {key}={got} expected {want[key]}")
        if int(row.get("n") or -1) != want["n"]:
            problems.append(f"tp={row.get('tp')} k={row.get('k', '')}: n={row.get('n')} expected {want['n']}")
    return problems


def _check_records(p: Pass, world, out: Path) -> None:
    """Per record: failed queries, failed probes (a candidate whose probe
    failed is dropped from admission, which a summary need not show), and
    admitted passage ids against the world's construction."""
    for path in sorted(out.glob("**/records.jsonl")):
        with open(path.parent / "summary.csv", encoding="utf-8", newline="") as fh:
            tp = _tp(next(csv.DictReader(fh), {}))
        want = _at(world.admitted, tp) or {}
        seen = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                seen.add(record["query_id"])
                if record.get("error"):  # counted by Pass.failed
                    p.record_errors[record["error"].split(":", 1)[0]] += 1
                    continue
                for score in record["scores"]:
                    if score.get("error"):
                        p.failures[f"probe error {score['error'].split(':', 1)[0]}"] += 1
                if record["admitted_ids"] != want.get(record["query_id"]):
                    p.failures[f"tp={tp}: admitted ids differ from the construction"] += 1
        if seen != want.keys():
            p.failures[f"tp={tp}: records cover {len(seen)} queries, expected {len(want)}"] += 1


def check_pass(p: Pass, wl: Workload, world, out: Path) -> None:
    if p.main.code != 0:
        tail = p.main.log.read_text(encoding="utf-8", errors="replace")[-2000:]
        p.failures[f"igp {wl.command[0]} exit code {p.main.code}"] += 1
        print(f"igp {wl.command[0]} exited {p.main.code}:\n{tail}", file=sys.stderr)
        return
    _check_records(p, world, out)
    summary = out / ("sweep.csv" if wl.command[0] == "sweep" else "summary.csv")
    with open(summary, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for problem in _check_rows(rows, world.expected, wl.points):
        p.failures[f"output mismatch: {problem}"] += 1
    if p.failed:
        p.failures[f"{p.failed} of {p.attempted} query evaluations failed"] += 1


def run_pass(
    wl: Workload, world, work: Path, traced: bool, endpoint: FakeEndpoint | None, n: int, rebuild: bool
) -> Pass:
    index_path = work / "bm25.idx"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    index = None
    if rebuild:
        index = spawn(["index", "--corpus", str(world.corpus), "--out", str(index_path)], traced, work, f"index{n}")
        if index.code != 0:
            tail = index.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"igp index exited {index.code}:\n{tail}")
    backend = ["--endpoint", endpoint.url, "--model", "bench"] if endpoint else ["--stub", str(world.model)]
    argv = [
        *wl.command, *backend, "--index", str(index_path), "--dataset", str(world.dataset),
        "--qrels", str(world.qrels), "--out", str(out),
    ]
    if endpoint:
        endpoint.reset()
    main = spawn(argv, traced, work, f"main{n}")
    ep = endpoint.stats() if endpoint else None
    attempted = sum(1 for _ in open(world.dataset, encoding="utf-8")) * wl.points
    index_mb = index_path.stat().st_size / 1e6
    p = Pass(traced, index, main, attempted, index_mb, ep)
    check_pass(p, wl, world, out)
    return p


# ------------------------------------------------------------ aggregation


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _prompts(p: Pass) -> int:
    return p.endpoint["prompts"] if p.endpoint is not None else p.main.stats["prompts"]


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    queries_ms = [s * 1000.0 for p in passes for s in p.main.stats["query_s"]]
    indexed = [p for p in passes if p.index is not None]
    completed = sum(p.main.stats["completed"] for p in passes)
    attempted = sum(p.attempted for p in passes)
    return {
        "qps": (median(p.main.stats["completed"] / (p.main.wall - p.main.setup) for p in passes), len(passes)),
        "query_p50_ms": (median(queries_ms), len(queries_ms)),
        "query_p90_ms": (percentile(queries_ms, 90), len(queries_ms)),
        "setup_s": (median(p.main.setup for p in passes), len(passes)),
        "index_s": (median(p.index.wall for p in indexed), len(indexed)),
        "peak_rss_mb": (median(p.main.stats["maxrss_kb"] / 1024.0 for p in passes), len(passes)),
        "model_prompts_per_query": (sum(_prompts(p) for p in passes) / max(completed, 1), completed),
        "error_rate": (sum(p.failed for p in passes) / max(attempted, 1), attempted),
    }


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list] = defaultdict(list)
    for sid, parent, _name, _qid, t0, t1, _err in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, _qid, t0, t1, _err in spans:
        covered = _union([(max(a, t0), min(b, t1)) for a, b in children[sid] if b > t0 and a < t1])
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(traced: list[Pass], untraced: list[Pass]) -> tuple[dict, Counter]:
    mains = [p.main for p in traced]
    children = mains + [p.index for p in traced if p.index is not None]
    evaluations = max(sum(c.stats["completed"] for c in mains), 1)

    def durations(name: str, among=children) -> list[float]:
        return [s[5] - s[4] for c in among for s in c.spans if s[2] == name]

    def count(name: str, c: Child) -> int:
        return sum(1 for s in c.spans if s[2] == name)

    selfs = [self_times(c.spans) for c in mains]

    def self_sum(c: Child, selfmap: dict, pred) -> float:
        return sum(selfmap[s[0]] for s in c.spans if pred(s[2]))

    def per_command_self(pred) -> float:
        return median(self_sum(c, m, pred) for c, m in zip(mains, selfs))

    wall = sum(c.wall for c in mains)
    uncertainty_self = sum(self_sum(c, m, lambda n: n.startswith("uncertainty.")) for c, m in zip(mains, selfs))
    rerank_self = [m[s[0]] * 1000.0 for c, m in zip(mains, selfs) for s in c.spans if s[2] == "select.rerank"]

    rollouts = sum(count("probe.rollout", c) for c in mains)
    rendered = sum(c.stats["counts"].get("probe_prompts_rendered", 0) for c in mains)
    eps = [p.endpoint for p in traced if p.endpoint is not None]
    requests = sum(e["requests"] for e in eps)
    overhead_ms: list[float] = []  # client call time minus injected latency
    for p in traced:
        if p.endpoint is not None:
            injected = p.endpoint["injected"]
            overhead_ms += [(s - injected[k]) * 1000.0 for k, s in p.main.stats["model_calls"] if k in injected]
    failures: Counter = Counter()
    for c in mains:
        for s in c.spans:
            if s[2] in ("probe.rollout", "probe.generate") and s[6]:
                failures[s[6]] += 1
    for p in traced:
        failures.update(p.record_errors)

    def uncovered(c: Child) -> float:
        roots = [(s[4], s[5]) for s in c.spans if s[1] is None]
        return c.wall - _union(roots)

    t_e2e, u_e2e = end_to_end(traced), end_to_end(untraced)
    metrics = {
        "retrieve.search_ms_p50": median(d * 1000.0 for d in durations("retrieve.search")),
        "retrieve.load_index_s": median(durations("retrieve.load_index")),
        "retrieve.load_index_calls": median(count("retrieve.load_index", c) for c in mains),
        "retrieve.build_index_s": median(durations("retrieve.build_index")),
        "retrieve.save_index_s": median(durations("retrieve.save_index")),
        "retrieve.index_mb": median(p.index_mb for p in traced),
        "probe.stub_load_s": median(durations("probe.stub_load")),
        "probe.stub_load_calls": median(count("probe.stub_load", c) for c in mains),
        "probe.rollout_calls_per_query": rollouts / evaluations,
        "probe.rollout_ms_p50": median(d * 1000.0 for d in durations("probe.rollout")),
        "probe.http_requests_per_query": requests / evaluations,
        "probe.http_prompts_per_request": sum(e["prompts"] for e in eps) / max(requests, 1),
        "probe.http_connections_per_request": sum(e["connections"] for e in eps) / max(requests, 1),
        "probe.http_inflight_peak": max((e["inflight_peak"] for e in eps), default=0),
        "probe.http_retries": sum(e["retries"] for e in eps),
        "probe.http_client_overhead_ms": median(overhead_ms),
        "probe.failures": sum(failures.values()),
        "uncertainty.nu_calls_per_query": sum(count("uncertainty.nu", c) for c in mains) / evaluations,
        "uncertainty.nu_steps_per_query": sum(c.stats["counts"].get("nu_steps", 0) for c in mains) / evaluations,
        "uncertainty.self_share": uncertainty_self / wall if wall else 0.0,
        "select.rerank_self_ms_p50": median(rerank_self),
        "select.threads_peak": max(c.stats["threads_peak"] for c in mains),
        "pipeline.cache_hit_ratio": 1.0 - rollouts / rendered if rendered else 0.0,
        "pipeline.run_dataset_self_s": per_command_self(lambda n: n == "pipeline.run_dataset"),
        "core.load_dataset_s": median(durations("core.load_dataset")),
        "evaluate.score_ms_per_query": sum(durations("evaluate.score", mains)) * 1000.0 / evaluations,
        "cli.import_s": median(durations("boot.import")),
        "cli.self_s": per_command_self(lambda n: n == "cli.cmd"),
        "trace.uncovered_s": median(uncovered(c) for c in mains),
        "trace.overhead_qps": t_e2e["qps"][0] - u_e2e["qps"][0],
        "trace.overhead_query_p50_ms": t_e2e["query_p50_ms"][0] - u_e2e["query_p50_ms"][0],
        "trace.overhead_setup_s": t_e2e["setup_s"][0] - u_e2e["setup_s"][0],
    }
    for layer in ("pipeline", "retrieve", "probe", "uncertainty", "select", "core", "evaluate"):
        metrics[f"{layer}.self_s"] = per_command_self(lambda n, layer=layer: n.split(".", 1)[0] == layer)
    return metrics, failures


# ----------------------------------------------------------------- runner


def run_workload(name: str, wl: Workload, args, work: Path) -> dict:
    import world as world_mod

    world = world_mod.build(wl.sizes[args.size], args.seed, work / "world")
    endpoint = FakeEndpoint(world.model, work) if wl.endpoint else None
    passes: list[Pass] = []
    try:
        while True:
            n = len(passes)
            # Traced passes come first, so the one that rebuilds the index
            # records the build and save spans.
            traced = bool(args.trace) and n % 2 == 0
            p = run_pass(wl, world, work, traced, endpoint, n, n == 0 or wl.reindex_each_pass)
            passes.append(p)
            if p.failures:
                break
            # Predict the next pass from the commands measured so far.
            n += 1
            upcoming = median(q.main.wall for q in passes)
            if wl.reindex_each_pass:
                upcoming += median(q.index.wall for q in passes if q.index is not None)
            # The first index build is set-up: the window starts with the
            # first run or sweep command.
            elapsed = time.monotonic() - passes[0].main.spawn
            if n >= MIN_PASSES and elapsed + upcoming > args.seconds:
                break
    finally:
        if endpoint:
            endpoint.close()

    failures: Counter = Counter()
    record_errors: Counter = Counter()
    for p in passes:
        failures.update(p.failures)
        record_errors.update(p.record_errors)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    e2e = end_to_end(untraced) if not failures else {}
    units = dict(END_TO_END, error_rate="ratio")
    print(f"== {name} (seed {args.seed}, {len(passes)} passes, {len(traced)} traced)")
    for metric, (value, n) in e2e.items():
        print(f"  {metric:<28} {value:>12.4f} {units[metric]:<10} n={n}")
    if not failures and args.trace:
        layers, probe_failures = layer_metrics(traced, untraced)
        for metric, unit in PER_LAYER:
            print(f"  {metric:<36} {layers[metric]:>12.4f} {unit}")
        if probe_failures:
            print(f"  probe failures by type: {dict(probe_failures)}")
        result["metrics"] = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER}
    else:
        result["metrics"] = {m: {"value": e2e[m][0], "unit": u} for m, u in END_TO_END if m in e2e}
    if failures or record_errors:
        print("FAILURES:", file=sys.stderr)
        for reason, n in sorted(failures.items()):
            print(f"  {n:>5} x {reason}", file=sys.stderr)
        for kind, n in sorted(record_errors.items()):
            print(f"  {n:>5} x record error {kind}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not (SRC / "igp" / "cli.py").is_file():
        print(f"error: igp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(workloads)} or all", file=sys.stderr)
        return 2

    # SystemExit unwinds through the finally blocks that stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = {}
    try:
        for name in names:
            work = base / name
            work.mkdir(parents=True, exist_ok=True)
            results[name] = run_workload(name, workloads[name], args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
