#!/usr/bin/env bash
# End-to-end serving smoke test: build a store from generated FASTA,
# start alae-serve against it, exercise the endpoints — health, a
# normal search, a search under a short deadline, stats — then SIGTERM
# the daemon and require a clean drain with exit status 0. CI runs
# this; it is the check that the binary actually serves and actually
# drains, not just that the packages compile.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/alae" ./cmd/alae
go build -o "$workdir/alae-gen" ./cmd/alae-gen
go build -o "$workdir/alae-serve" ./cmd/alae-serve

echo "== generate data and build the store"
"$workdir/alae-gen" -kind dna -n 100000 -m 600 -queries 2 -out "$workdir" >/dev/null
"$workdir/alae" -text "$workdir/dna_text_100000.fa" \
  -save-store "$workdir/db.alae" >/dev/null

echo "== start the daemon"
addr="127.0.0.1:7741"
"$workdir/alae-serve" -store "$workdir/db.alae" -addr "$addr" \
  -search-timeout 20s -reload 5s -probe 5s \
  >"$workdir/serve.log" 2>&1 &
server_pid=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "daemon died during startup:"; cat "$workdir/serve.log"; exit 1
  fi
  sleep 0.2
done
curl -fsS "http://$addr/healthz" | grep -q ok
echo "healthz: ok"

echo "== search (a member prefix must hit)"
query=$(awk '/^>/{next}{printf "%s",$0}' "$workdir/dna_text_100000.fa" | cut -c1-200)
code=$(curl -s -o "$workdir/search.json" -w '%{http_code}' \
  -d "{\"query\":\"$query\"}" "http://$addr/search")
[ "$code" = 200 ] || { echo "search returned $code"; cat "$workdir/search.json"; exit 1; }
grep -q '"total_hits":' "$workdir/search.json"
total=$(sed -n 's/.*"total_hits":\([0-9]*\).*/\1/p' "$workdir/search.json")
[ "$total" -gt 0 ] || { echo "search found no hits"; cat "$workdir/search.json"; exit 1; }
echo "search: $total hit(s)"

echo "== search under a 1ms deadline (must answer 200 or 504, never crash)"
code=$(curl -s -o "$workdir/deadline.json" -w '%{http_code}' \
  -d "{\"query\":\"$query\",\"timeout_ms\":1}" "http://$addr/search")
case "$code" in
  200|504) echo "deadline search: $code" ;;
  *) echo "deadline search returned $code"; cat "$workdir/deadline.json"; exit 1 ;;
esac
curl -fsS "http://$addr/healthz" >/dev/null # still serving

echo "== stats"
curl -fsS "http://$addr/stats" | grep -q '"admitted":'

echo "== SIGTERM: the daemon must drain and exit 0"
kill -TERM "$server_pid"
status=0
for i in $(seq 1 100); do
  if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "daemon did not exit within 20s of SIGTERM"; cat "$workdir/serve.log"; exit 1
fi
wait "$server_pid" || status=$?
server_pid=""
if [ "$status" -ne 0 ]; then
  echo "daemon exited $status after SIGTERM:"; cat "$workdir/serve.log"; exit 1
fi
grep -q "drained, exiting" "$workdir/serve.log"
echo "drain: clean exit 0"
echo "serve smoke: PASS"
