#!/bin/sh
# README's walkthrough, end to end, through a given `igp` command:
#
#   sh scripts/walkthrough.sh IGP OUT_DIR
#
# IGP is the command that runs the CLI, split on spaces: `igp` for the
# installed entry point, or `python -m igp.cli`. OUT_DIR receives the demo
# world and every output. The script builds the demo world twice and indexes
# it twice (each pair of files must be equal), runs every rerank method, runs
# the `igp` run again over HTTP against perfbench/endpoint.py serving the
# stub table (its summary, and its records without timings, must equal the
# stub run's), runs two sweeps and the report, and checks that a run given a
# directory as its corpus is refused with exit 2 and writes no directory. It
# exits non-zero at the first failing command or mismatch, and stops the
# endpoint on every exit path.
# It needs `python3` (stdlib only, with igp importable for the fixture).
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 IGP OUT_DIR" >&2
    exit 2
fi
IGP=$1
D=$2
ROOT=$(cd "$(dirname "$0")/.." && pwd)

ENDPOINT_PID=
stop_endpoint() {
    if [ -n "$ENDPOINT_PID" ]; then
        kill "$ENDPOINT_PID" 2>/dev/null || true
        wait "$ENDPOINT_PID" 2>/dev/null || true
        ENDPOINT_PID=
    fi
}
trap stop_endpoint EXIT
trap 'exit 1' HUP INT TERM

python3 "$ROOT/scripts/make_demo_fixture.py" "$D" > /dev/null
# The same recipe gives the same world files.
python3 "$ROOT/scripts/make_demo_fixture.py" "$D/again" > /dev/null
for f in corpus.jsonl dataset.jsonl qrels.tsv stub.json; do
    cmp "$D/$f" "$D/again/$f"
done
$IGP index --corpus "$D/corpus.jsonl" --out "$D/bm25.idx"
# The same corpus gives the same index bytes.
$IGP index --corpus "$D/corpus.jsonl" --out "$D/bm25-2.idx"
cmp "$D/bm25.idx" "$D/bm25-2.idx"

$IGP run --index "$D/bm25.idx" --dataset "$D/dataset.jsonl" \
    --qrels "$D/qrels.tsv" --stub "$D/stub.json" \
    --topk 4 --max-tokens 8 --rerank igp --tp 0.05 --topm 5 \
    --out "$D/run-igp"

# The same run over HTTP, against the fake endpoint serving the stub table:
# the summary and the records without timings must match.
python3 "$ROOT/perfbench/endpoint.py" --table "$D/stub.json" > "$D/endpoint.out" &
ENDPOINT_PID=$!
tries=0
until grep -q '^PORT ' "$D/endpoint.out"; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "walkthrough: the endpoint printed no port" >&2
        exit 1
    fi
    sleep 0.1
done
PORT=$(awk '/^PORT /{print $2}' "$D/endpoint.out")
$IGP run --index "$D/bm25.idx" --dataset "$D/dataset.jsonl" \
    --qrels "$D/qrels.tsv" \
    --endpoint "http://127.0.0.1:$PORT/v1" --model demo \
    --topk 4 --max-tokens 8 --rerank igp --tp 0.05 --topm 5 \
    --out "$D/run-igp-http"
stop_endpoint
cmp "$D/run-igp/summary.csv" "$D/run-igp-http/summary.csv"
python3 - "$D/run-igp/records.jsonl" "$D/run-igp-http/records.jsonl" <<'EOF'
import json
import sys
from pathlib import Path

stub, http = (
    [
        {k: v for k, v in json.loads(line).items() if k != "timings"}
        for line in Path(path).read_text(encoding="utf-8").splitlines()
    ]
    for path in sys.argv[1:]
)
if stub != http:
    sys.exit(f"walkthrough: {sys.argv[1]} and {sys.argv[2]} differ beyond timings")
EOF

for method in none yesno ig qlm; do
    $IGP run --index "$D/bm25.idx" --dataset "$D/dataset.jsonl" \
        --qrels "$D/qrels.tsv" --stub "$D/stub.json" \
        --topk 4 --max-tokens 8 --rerank "$method" --topm 5 \
        --out "$D/run-$method"
done
$IGP sweep --index "$D/bm25.idx" --dataset "$D/dataset.jsonl" \
    --stub "$D/stub.json" --topk 4 --max-tokens 8 --topm 5 \
    --param tp --values=-inf,0,0.05 --out "$D/sweep-tp"
$IGP sweep --index "$D/bm25.idx" --dataset "$D/dataset.jsonl" \
    --stub "$D/stub.json" --topk 4 --max-tokens 8 --topm 5 \
    --param tp --values=-inf,0.05 --param2 topk --values2 2,4 \
    --out "$D/sweep-tpk"
# An input file that cannot be opened is refused before any output.
status=0
$IGP run --index "$D/bm25.idx" --dataset "$D/dataset.jsonl" \
    --stub "$D/stub.json" --corpus "$D" --out "$D/refused" 2> "$D/refused.err" || status=$?
if [ "$status" -ne 2 ] || [ -e "$D/refused" ]; then
    echo "walkthrough: a directory as --corpus gave exit $status" >&2
    exit 1
fi
$IGP report "$D/run-igp/summary.csv" "$D/run-none/summary.csv" \
    "$D/run-yesno/summary.csv" "$D/run-ig/summary.csv" \
    "$D/run-qlm/summary.csv" "$D/sweep-tp/sweep.csv" \
    "$D/sweep-tpk/sweep.csv" --out "$D/report"
echo "walkthrough: ok"
