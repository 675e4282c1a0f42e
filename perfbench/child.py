"""Run one ``igp`` command through ``igp.cli.main`` with measurement wrappers
installed, then write what they saw to a JSON file.

    python3 perfbench/child.py --stats OUT.json --trace 0 -- run --index ...

The benchmark starts one of these per command, so start-up, set-up and peak
RSS belong to that command alone.

Untraced (``--trace 0``) wraps only the end-to-end boundaries: ``run_query``
as bound in ``igp.pipeline`` (per-query wall time, first entry and
completions) and the ``StubBackend`` methods that serve prompts
(``greedy_rollout`` and ``complete_text``).

Traced (``--trace 1``) also records a span at every layer boundary the
per-layer metrics name, each wrapper installed where the caller looks the
name up. A span is (id, parent, name, query id, start, end). Its parent is
the innermost open span on the same thread; probes run on nested
``ThreadPoolExecutor`` threads whose stack is empty, so those spans are
attributed to their query instead (recovered from a ``Query`` argument, or
from the question inside a prompt) and parented to the innermost open span
on the thread running that query. Spans stay in memory until exit.

A wrapper whose target is missing stops the command with exit code 3: the
benchmark never reports a layer it could not see.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import resource
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

MISSING_TARGET_EXIT = 3


class MissingTarget(Exception):
    pass


def _question(prompt: str) -> str | None:
    if prompt.startswith("User: "):
        return prompt[len("User: "):].split("\n", 1)[0]
    _, sep, tail = prompt.rpartition("\nQuestion: ")
    return tail.split("\n", 1)[0] if sep else None


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.lock = threading.Lock()
        self.query_s: list[float] = []
        self.first_query_t: float | None = None
        self.completed = 0
        self.prompts = 0  # prompts served at the StubBackend boundary
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.threads_peak = 0
        self.model_calls: list[tuple[str, float]] = []  # (prompt sha1, seconds)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._query_stacks: dict[str, list] = {}
        self.questions: dict[str, str] = {}
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list, qid: str | None) -> int | None:
        for candidate in (stack, self._query_stacks.get(qid) if qid else None, self._main_stack):
            try:
                if candidate:
                    return candidate[-1]
            except IndexError:  # another thread popped it meanwhile
                continue
        return None

    def span(self, name: str, qid: str | None, fn, args, kwargs, owns_query=False):
        """Call ``fn`` inside a span; re-raises whatever it raises."""
        stack = self._stack()
        if qid is None:
            qid = getattr(self._local, "qid", None)
        else:
            self.set_query(qid)
        parent = self._parent(stack, qid)
        sid = next(self._ids)
        threads = threading.active_count()
        if threads > self.threads_peak:
            self.threads_peak = threads
        if owns_query:
            self._query_stacks[qid] = stack
        stack.append(sid)
        t0 = time.monotonic()
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.monotonic()
            stack.pop()
            if owns_query:
                self._query_stacks.pop(qid, None)
            self.spans.append((sid, parent, name, qid, t0, t1, error))

    def query_of_prompt(self, prompt: str) -> str | None:
        question = _question(prompt) if isinstance(prompt, str) else None
        return self.questions.get(question) if question is not None else None

    def set_query(self, qid: str) -> None:
        """Attribute this thread's next spans to ``qid``."""
        self._local.qid = qid

    def count(self, key: str, n: int = 1) -> None:
        with self.lock:
            self.counts[key] += n


def _target(owner, attr: str):
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise MissingTarget(f"{getattr(owner, '__name__', owner)}.{attr}")
    return fn


def install(rec: Recorder) -> None:
    """Install the wrappers; raises MissingTarget if a boundary is gone."""
    import igp.pipeline as pipeline
    import igp.probe as probe

    run_query = _target(pipeline, "run_query")

    @functools.wraps(run_query)
    def timed_run_query(*args, **kwargs):
        query = args[0] if args else kwargs["query"]
        t0 = time.monotonic()
        with rec.lock:
            if rec.first_query_t is None:
                rec.first_query_t = t0
            rec.questions[query.question] = query.id
        if rec.traced:
            result = rec.span("pipeline.run_query", query.id, run_query, args, kwargs, owns_query=True)
        else:
            result = run_query(*args, **kwargs)
        dt = time.monotonic() - t0
        with rec.lock:
            rec.query_s.append(dt)
            rec.completed += 1
        return result

    pipeline.run_query = timed_run_query

    # Prompts served at the backend boundary: counted on StubBackend (the
    # endpoint counts its own), spanned when traced.
    span_names = {"greedy_rollout": "probe.rollout", "complete_text": "probe.generate"}

    def serving(cls, attr: str, http: bool):
        fn = _target(cls, attr)

        @functools.wraps(fn)
        def wrapper(self, prompt, *args, **kwargs):
            if not http:
                with rec.lock:
                    rec.prompts += 1
            if not rec.traced:
                return fn(self, prompt, *args, **kwargs)
            t0 = time.monotonic()
            try:
                return rec.span(span_names[attr], rec.query_of_prompt(prompt), fn, (self, prompt) + args, kwargs)
            finally:
                if http:  # joined with the endpoint's injected latency
                    key = hashlib.sha1(prompt.encode("utf-8")).hexdigest()
                    with rec.lock:
                        rec.model_calls.append((key, time.monotonic() - t0))

        setattr(cls, attr, wrapper)

    for attr in span_names:
        serving(probe.StubBackend, attr, http=False)
    if not rec.traced:
        return
    for attr in span_names:
        serving(probe.HttpBackend, attr, http=True)

    import igp.cli as cli
    import igp.select as select
    import igp.uncertainty as uncertainty

    def traced(owner, attr: str, name: str, query_of=None, counter=None):
        fn = _target(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(args, kwargs)
            qid = query_of(args, kwargs) if query_of else None
            return rec.span(name, qid, fn, args, kwargs)

        setattr(owner, attr, wrapper)

    first_query = lambda args, kwargs: (args[0] if args else kwargs["query"]).id  # noqa: E731
    for attr in ("cmd_index", "cmd_run", "cmd_sweep"):
        traced(cli, attr, "cli.cmd")
    traced(cli, "build_index", "retrieve.build_index")
    traced(cli, "save_index", "retrieve.save_index")
    traced(cli, "run_dataset", "pipeline.run_dataset")
    traced(pipeline, "load_index", "retrieve.load_index")
    traced(pipeline, "load_dataset", "core.load_dataset")
    traced(pipeline, "load_qrels", "evaluate.load_qrels")
    traced(pipeline, "search", "retrieve.search", lambda a, k: k.get("query_id"))
    traced(pipeline, "igp_rerank", "select.rerank", first_query)
    traced(pipeline, "f1_best_of_refs", "evaluate.score")
    traced(pipeline, "ndcg_at_k", "evaluate.score")
    traced(probe.StubBackend, "load", "probe.stub_load")
    traced(select, "information_gain_from_rollouts", "uncertainty.ig")
    traced(
        uncertainty, "nu_from_steps", "uncertainty.nu",
        counter=lambda a, k: rec.count("nu_steps", len(a[0] if a else k["steps"])),
    )

    render = _target(select, "render_probe_prompt")

    @functools.wraps(render)
    def counted_render(*args, **kwargs):
        rec.count("probe_prompts_rendered")
        rec.set_query(first_query(args, kwargs))
        return render(*args, **kwargs)

    select.render_probe_prompt = counted_render


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    rec = Recorder(bool(args.trace))
    code = 1
    try:
        t0 = time.monotonic()
        import igp.cli

        t1 = time.monotonic()
        if rec.traced:
            rec.spans.append((0, None, "boot.import", None, t0, t1, None))
        install(rec)
        code = igp.cli.main(argv)
    except MissingTarget as exc:
        print(f"benchmark wrapper target missing: {exc}", file=sys.stderr)
        code = MISSING_TARGET_EXIT
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        stats = {
            "first_query_t": rec.first_query_t,
            "query_s": rec.query_s,
            "completed": rec.completed,
            "prompts": rec.prompts,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if rec.traced:
            stats.update(
                spans=rec.spans,
                counts=dict(rec.counts),
                threads_peak=rec.threads_peak,
                model_calls=rec.model_calls,
            )
        args.stats.write_text(json.dumps(stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
