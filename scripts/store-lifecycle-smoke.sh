#!/usr/bin/env bash
# End-to-end generational-store smoke test: build a directory store,
# append a generation, tombstone a member, kill a compaction mid-run,
# then require the directory to reload with the right answers — the
# appended member must hit, the deleted member must not — and a clean
# compaction afterwards to leave a single purged generation and no
# debris: loads only read, and the first writer after the kill sweeps.
# CI runs this; it is the check that crash-safe mutation actually
# survives a kill -9, not just that the crash matrix passes in-process.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

echo "== build"
go build -o "$workdir/alae" ./cmd/alae
go build -o "$workdir/alae-gen" ./cmd/alae-gen

echo "== generate data"
# No repeats: the deleted member's prefix must not align anywhere else
# above the verification threshold.
"$workdir/alae-gen" -kind dna -n 400000 -queries 1 -repeats 0 -out "$workdir" >/dev/null
bases=$(awk '/^>/{next}{printf "%s",$0}' "$workdir"/dna_text_*.fa)

# Four base members and one to append, 80kb each, disjoint chunks.
fasta() { # fasta NAME START  -> one 80000-base record on stdout
  echo ">$1"
  printf '%s\n' "${bases:$2:80000}" | fold -w 60
}
{ fasta m1 0; fasta m2 80000; fasta m3 160000; fasta m4 240000; } >"$workdir/base.fa"
fasta m5 320000 >"$workdir/extra.fa"

# Verification queries: 200-base prefixes. An exact match scores 200,
# so -threshold 150 admits only the member itself.
{ echo ">q-appended"; printf '%s\n' "${bases:320000:200}"; } >"$workdir/q_new.fa"
{ echo ">q-deleted"; printf '%s\n' "${bases:80000:200}"; } >"$workdir/q_del.fa"

hits() { # hits QUERY_FILE -> hit count for the one query in it
  "$workdir/alae" -load-store "$workdir/db" -threshold 150 -query "$1" |
    sed -n 's/^query .*: \([0-9]*\) hit(s).*/\1/p'
}

echo "== build the directory store"
"$workdir/alae" -text "$workdir/base.fa" -save-store-dir "$workdir/db" >/dev/null
[ -f "$workdir/db/MANIFEST" ] || { echo "no MANIFEST in the store directory"; exit 1; }

echo "== append a generation, tombstone a member"
"$workdir/alae" -load-store "$workdir/db" -append "$workdir/extra.fa" >"$workdir/append.log"
grep -q "appended 1 member" "$workdir/append.log"
"$workdir/alae" -load-store "$workdir/db" -delete m2 >"$workdir/delete.log"
grep -q "deleted 1 member" "$workdir/delete.log"

echo "== kill a compaction mid-run"
"$workdir/alae" -load-store "$workdir/db" -compact >"$workdir/compact1.log" 2>&1 &
compact_pid=$!
sleep 0.05
if kill -9 "$compact_pid" 2>/dev/null; then
  echo "compaction killed mid-run"
else
  echo "compaction finished before the kill (still a valid recovery case)"
fi
wait "$compact_pid" 2>/dev/null || true

echo "== the store must reload and answer correctly after the kill"
new_hits=$(hits "$workdir/q_new.fa")
del_hits=$(hits "$workdir/q_del.fa")
[ "$new_hits" -gt 0 ] || { echo "appended member lost after kill ($new_hits hits)"; exit 1; }
[ "$del_hits" -eq 0 ] || { echo "deleted member resurfaced after kill ($del_hits hits)"; exit 1; }
echo "post-kill answers: appended=$new_hits deleted=$del_hits"

echo "== clean compaction"
# Tombstone one more member first, so the compaction always commits,
# and so sweeps, even when the killed one had committed before the kill.
"$workdir/alae" -load-store "$workdir/db" -delete m3 >"$workdir/delete2.log"
grep -q "deleted 1 member" "$workdir/delete2.log"
"$workdir/alae" -load-store "$workdir/db" -compact >"$workdir/compact2.log"
grep -q "store now:" "$workdir/compact2.log" || { echo "compaction did not report store state"; exit 1; }
grep -q "0 tombstone(s)" "$workdir/compact2.log" || {
  echo "tombstones survived compaction:"; cat "$workdir/compact2.log"; exit 1
}
if ls "$workdir/db"/*.tmp-* >/dev/null 2>&1; then
  echo "temp debris survived the writers after the kill:"; ls "$workdir/db"; exit 1
fi
gens=$(sed -n 's/^store now: .*, \([0-9]*\) generation(s).*/\1/p' "$workdir/compact2.log")
files=$(find "$workdir/db" -maxdepth 1 -name 'gen-*.alae' | wc -l)
[ "$files" -eq "$gens" ] || {
  echo "orphan generation files survived the writers after the kill ($files files, $gens generations):"
  ls "$workdir/db"; exit 1
}

echo "== post-compaction answers unchanged"
[ "$(hits "$workdir/q_new.fa")" -eq "$new_hits" ] || { echo "appended hits changed after compaction"; exit 1; }
[ "$(hits "$workdir/q_del.fa")" -eq 0 ] || { echo "deleted member resurfaced after compaction"; exit 1; }

echo "store lifecycle smoke: PASS"
