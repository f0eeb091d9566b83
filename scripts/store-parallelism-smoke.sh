#!/usr/bin/env bash
# Store parallelism smoke test: build a directory store once, search the
# same queries through `alae` at -p 1, 2 and 4, and require every line
# of hits output AND every CalculatedEntries counter to be
# byte-identical across the three runs. This is the shared-index
# scatter's external contract — -p is a pure parallelism knob over one
# monolithic index, so changing it may change nothing observable but
# wall clock. CI runs this end to end through the real CLI, not just
# the in-process parity tests.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

echo "== build"
go build -o "$workdir/alae" ./cmd/alae
go build -o "$workdir/alae-gen" ./cmd/alae-gen

echo "== generate data"
"$workdir/alae-gen" -kind dna -n 200000 -queries 3 -out "$workdir" >/dev/null
text=$(ls "$workdir"/dna_text_*.fa)
queries=$(ls "$workdir"/dna_queries_*.fa)

echo "== build the directory store (once; parallelism is not a build choice)"
"$workdir/alae" -text "$text" -save-store-dir "$workdir/db" >/dev/null

echo "== search at p=1, 2, 4"
for p in 1 2 4; do
  # Cache off so every run does the full scatter; keep every line after
  # the preamble (the whole Stats struct is deterministic).
  "$workdir/alae" -load-store "$workdir/db" -p "$p" -query "$queries" \
    -threshold 50 -query-cache -1 -max-hits 0 -stats |
    grep -v '^loaded store:' >"$workdir/out.p$p"
  hits=$(sed -n 's/^query .*: \([0-9]*\) hit(s).*/\1/p' "$workdir/out.p$p" | awk '{n+=$1} END{print n}')
  entries=$(grep -o 'CalculatedEntries:[0-9]*' "$workdir/out.p$p" | cut -d: -f2 | awk '{n+=$1} END{print n}')
  echo "p=$p: $hits hit(s), $entries entries"
done

echo "== compare"
cmp "$workdir/out.p1" "$workdir/out.p2" || { echo "p=2 output diverges from p=1"; exit 1; }
cmp "$workdir/out.p1" "$workdir/out.p4" || { echo "p=4 output diverges from p=1"; exit 1; }

echo "store parallelism smoke passed: p=1/2/4 outputs byte-identical"
