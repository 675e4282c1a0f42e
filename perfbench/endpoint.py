"""Fake OpenAI-compatible completions endpoint for the endpoint-bound workload.

One process, one asyncio thread, bound to 127.0.0.1 on an ephemeral port that
it prints as ``PORT <n>`` on its first line of output. It serves
``POST /v1/completions`` from a stub table (the ``StubBackend`` JSON format):

* ``prompt`` may be a string or a list; the response has one choice per
  prompt, in order.
* With ``logprobs`` set, a choice carries the table's first ``max_tokens``
  steps, each cut to the ``logprobs`` most likely entries; ``finish_reason``
  is ``length`` when the cap cut the rollout short of its scripted end.
  Without it, a choice carries the entry's ``text``.
* Each request sleeps ``BASE_S + TOKEN_S * n`` (4 ms + 1 ms per token),
  ``n`` being the longest completion in the request, without blocking other
  requests.
* Connections are HTTP/1.1 keep-alive unless the client asks to close.

``GET /stats`` returns the counters and ``POST /reset`` zeroes them. An
unknown prompt gets 404, so a pipeline that renders an unexpected prompt
fails loudly. Run it with::

    python3 perfbench/endpoint.py --table model.json
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import signal
import sys

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}
BASE_S = 0.004  # injected latency per request
TOKEN_S = 0.001  # injected latency per token of the longest completion


def prompt_key(prompt: str) -> str:
    return hashlib.sha1(prompt.encode("utf-8")).hexdigest()


class Endpoint:
    def __init__(self, table: dict):
        self._entries: dict[str, dict] = {}
        for prompt, entry in table["prompts"].items():
            steps = [
                sorted(step["top_logprobs"].items(), key=lambda kv: (-kv[1], kv[0]))
                for step in entry.get("steps", ())
            ]
            self._entries[prompt] = {"steps": steps, "text": entry.get("text")}
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.prompts = 0
        self.connections = 0
        self.inflight = 0
        self.inflight_peak = 0
        self.retries = 0
        self.injected: dict[str, float] = {}  # prompt key -> injected seconds
        self._seen: set[str] = set()

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "prompts": self.prompts,
            "connections": self.connections,
            "inflight_peak": self.inflight_peak,
            "retries": self.retries,
            "injected": self.injected,
        }

    def _choice(self, index: int, prompt: str, body: dict) -> tuple[dict, int]:
        """One choice and its completion length; KeyError when the table has
        no such response."""
        entry = self._entries[prompt]
        top = body.get("logprobs")
        if top is None:
            if entry["text"] is None:
                raise KeyError(prompt)
            text = entry["text"]
            return {"index": index, "text": text, "logprobs": None, "finish_reason": "stop"}, len(
                text.split()
            )
        max_tokens = int(body.get("max_tokens", 16))
        steps = entry["steps"][:max_tokens]
        if not steps:
            raise KeyError(prompt)
        tokens = [step[0][0] for step in steps]
        choice = {
            "index": index,
            "text": "".join(tokens),
            "logprobs": {
                "tokens": tokens,
                "token_logprobs": [step[0][1] for step in steps],
                "top_logprobs": [dict(step[: max(int(top), 1)]) for step in steps],
            },
            "finish_reason": "length" if len(steps) == max_tokens else "stop",
        }
        return choice, len(steps)

    async def completions(self, raw: bytes) -> tuple[int, dict]:
        try:
            body = json.loads(raw)
            prompts = body["prompt"]
        except (ValueError, KeyError, TypeError):
            return 400, {"error": {"message": "malformed completions request"}}
        if isinstance(prompts, str):
            prompts = [prompts]
        digest = hashlib.sha1(raw).hexdigest()
        if digest in self._seen:
            self.retries += 1
        self._seen.add(digest)
        self.requests += 1
        self.prompts += len(prompts)
        choices, longest = [], 0
        for i, prompt in enumerate(prompts):
            try:
                choice, n = self._choice(i, prompt, body)
            except KeyError:
                return 404, {"error": {"message": f"no response for prompt {prompt[:80]!r}"}}
            choices.append(choice)
            longest = max(longest, n)
        delay = BASE_S + TOKEN_S * longest
        for prompt in prompts:
            self.injected[prompt_key(prompt)] = delay
        self.inflight += 1
        self.inflight_peak = max(self.inflight_peak, self.inflight)
        try:
            await asyncio.sleep(delay)
        finally:
            self.inflight -= 1
        return 200, {"object": "text_completion", "model": body.get("model"), "choices": choices}

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        counted = False
        try:
            while True:
                request_line = await reader.readline()
                if not request_line.strip():
                    break
                method, target, version = request_line.decode("latin-1").split()
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                raw = await reader.readexactly(int(headers.get("content-length", "0")))
                if method == "POST" and target.endswith("/completions"):
                    if not counted:
                        self.connections += 1
                        counted = True
                    status, payload = await self.completions(raw)
                elif method == "GET" and target == "/stats":
                    status, payload = 200, self.stats()
                elif method == "POST" and target == "/reset":
                    self.reset()
                    status, payload = 200, {}
                else:
                    status, payload = 404, {"error": {"message": f"no route {target}"}}
                data = json.dumps(payload).encode("utf-8")
                keep = version == "HTTP/1.1" and headers.get("connection", "").lower() != "close"
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
                    ).encode("latin-1")
                    + data
                )
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


async def _main(args: argparse.Namespace) -> None:
    with open(args.table, encoding="utf-8") as fh:
        endpoint = Endpoint(json.load(fh))
    server = await asyncio.start_server(endpoint.serve, "127.0.0.1", 0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    print(f"PORT {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop.wait()


def main() -> None:
    parser = argparse.ArgumentParser(description="fake completions endpoint")
    parser.add_argument("--table", required=True, help="stub table JSON")
    asyncio.run(_main(parser.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
