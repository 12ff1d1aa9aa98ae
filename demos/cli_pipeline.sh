#!/bin/sh
# End-to-end command line workflow: simulate a dataset, fit a model,
# score it against the stored truth, dump a path trace, and run a small
# benchmark. Every artifact except timing.csv is byte-reproducible.
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

python3 -m curereg simulate --model II --n 60 --p 30 --q 20 --r-star 2 \
    --snr 2.0 --rho 0.3 --seed 42 --out-dir "$work/data"
echo "--- simulated: $(ls "$work/data")"

python3 -m curereg fit --x "$work/data/X.csv" --y "$work/data/Y.csv" \
    --method seqstl --rank 2 --epsilon 0.5 \
    --truth "$work/data/truth.json" --out-dir "$work/fit"
echo "--- fit report:"
cat "$work/fit/report.csv"

python3 -m curereg eval --model-json "$work/fit/model.json" \
    --x "$work/data/X.csv" --truth "$work/data/truth.json" \
    --out-dir "$work/eval"
echo "--- eval report matches fit report:"
cmp "$work/fit/report.csv" "$work/eval/report.csv" && echo "byte-identical"

python3 -m curereg paths --x "$work/data/X.csv" --y "$work/data/Y.csv" \
    --epsilon 0.5 --criterion gic --out-dir "$work/paths"
echo "--- first and last path records, expanded from the move log:"
python3 -c '
import json, sys
from curereg.io import read_path_jsonl
for rec in read_path_jsonl(sys.argv[1]):
    if rec["t"] == 0:
        print(json.dumps(rec))
print(json.dumps(rec))' "$work/paths/path.jsonl"

python3 -m curereg benchmark --model II --n 50 --p 60 --q 20 --r-star 2 \
    --snr 1.0 --rho 0.3 --methods seqstl,rrr --rank 2 --reps 3 --seed 1 \
    --out-dir "$work/bench"
echo "--- benchmark table (first four columns):"
cut -d, -f1-4 "$work/bench/table.csv"
