#!/usr/bin/env bash
# Reach map: which of the module's functions does no job enter?
#
# Builds every command, every example and the e2e benchmark with
# coverage instrumentation over rheem/..., drives them through the
# traffic the repository serves, merges what they counted and prints,
# per package, the functions nothing entered with their statement and
# line counts, then the packages no binary links. Tests do not count:
# only the binaries run, so code that only a test reaches is listed.
#
#   - benchmarks/e2e -quick, every workload at -trace 0 and -trace 1;
#   - rheem-serve through CI's service-smoke sequence (submit, poll,
#     result, profile, Perfetto export, scrape, calibration warm-up,
#     drain), then restarted over the same -state-dir, so rehydrating
#     profiles and calibration is reached too;
#   - rheem-bench -quick, -mappings, -metrics, -scrape, -trace,
#     -profile and -perfetto;
#   - rheem-sql -demo on every platform, -explain, and over a CSV table;
#   - rheem-clean -demo on every platform and over a CSV file with -fd
#     and -dc rules;
#   - every example.
#
# Usage: bash scripts/reach.sh > reach.txt
# Everything it writes goes to a temporary directory, removed on exit;
# progress goes to stderr. A binary that fails fails the script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

work="$(mktemp -d)"
serve_pid=""
cleanup() {
  if [[ -n "$serve_pid" ]]; then kill -KILL "$serve_pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
bin="$work/bin" cov="$work/cov" out="$work/out"
mkdir -p "$bin" "$cov" "$out" "$work/tmp" "$work/config/go/telemetry"
# Telemetry off, as benchmarks/run.sh does: in its default mode go starts
# a detached child that outlives the build.
echo off >"$work/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local TMPDIR="$work/tmp"

step() { echo "reach: $*" >&2; }

step "building instrumented binaries"
go build -cover -coverpkg=rheem/... -o "$bin/" ./cmd/... ./examples/... ./benchmarks/e2e
export GOCOVERDIR="$cov"

# run NAME ARGS... runs one binary with its output in the log.
run() {
  local name="$1"
  shift
  step "$name $*"
  "$bin/$name" "$@" >>"$work/log" 2>&1 || { tail -20 "$work/log" >&2; return 1; }
}

for w in colscan-1m xplat-udf small-sql service-http; do
  for t in 0 1; do
    run e2e -quick -seconds 1 -workload "$w" -trace "$t" -out "$out/e2e"
  done
done

# --- rheem-serve -----------------------------------------------------------
base=""
serve() { # serve LOG ARGS... starts rheem-serve and sets base
  local log="$1"
  shift
  step "rheem-serve $*"
  "$bin/rheem-serve" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
  serve_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^rheem-serve listening on //p' "$log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  [[ -n "$addr" ]] || { cat "$log" >&2; return 1; }
  base="http://$addr"
}
stop() { # stop: graceful drain, which must exit 0
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  serve_pid=""
}
# field NAME prints the named top-level field of the JSON object on stdin.
field() { python3 -c 'import json,sys; print(json.load(sys.stdin).get(sys.argv[1], ""))' "$1"; }
submit() { curl -sf -X POST "$base/jobs" -d "$1" | field id; }
await() { # await ID: poll the job until it succeeds
  local state=""
  for _ in $(seq 1 200); do
    state="$(curl -sf "$base/jobs/$1" | field state)"
    [[ "$state" == succeeded ]] && return 0
    [[ "$state" == failed || "$state" == cancelled ]] && break
    sleep 0.1
  done
  echo "reach: job $1 ended $state" >&2
  return 1
}

serve "$work/serve1.log" -catalog-scale 2000 -state-dir "$work/state"
id="$(submit '{"tenant":"ci","spec":{"kind":"sql","query":"SELECT well, AVG(pressure) AS p FROM sensors GROUP BY well ORDER BY well LIMIT 5"}}')"
await "$id"
curl -sf "$base/jobs/$id/result" >/dev/null
rid="$(curl -sf "$base/jobs/$id" | field run_id)"
curl -sf "$base/runs/$rid/profile" >/dev/null
curl -sf "$base/runs/$rid/trace.json" >/dev/null
run rheem-bench -scrape "$base/metrics"
run rheem-bench -scrape "$base/runs"
for job in '"tenant":"ci","spec":{"kind":"workload","workload":"wordcount","n":500,"seed":1}' \
  '"tenant":"ci","spec":{"kind":"workload","workload":"wordcount","n":500,"seed":2}' \
  '"tenant":"ci","spec":{"kind":"workload","workload":"wordcount","n":500,"seed":3}' \
  '"tenant":"acme","spec":{"kind":"workload","workload":"sensor","n":500}' \
  '"tenant":"acme","spec":{"kind":"workload","workload":"fanout","n":100}'; do
  id="$(submit "{$job}")"
  await "$id"
done
curl -sf "$base/calibration" >/dev/null
curl -sf "$base/jobs" >/dev/null
curl -sf "$base/tenants" >/dev/null
curl -sf "$base/healthz" >/dev/null
stop
serve "$work/serve2.log" -catalog-scale 2000 -state-dir "$work/state"
curl -sf "$base/runs/$rid/profile" >/dev/null
curl -sf "$base/calibration" >/dev/null
stop

# --- rheem-bench ------------------------------------------------------------
run rheem-bench -quick -csv "$out/csv"
run rheem-bench -mappings
run rheem-bench -experiment fig3left -quick -v -metrics 127.0.0.1:0
run rheem-bench -trace "$out/trace.jsonl"
run rheem-bench -profile "$out/profile.json" -perfetto "$out/perfetto.json"

# --- rheem-sql and rheem-clean ---------------------------------------------
queries=(
  "SELECT state, COUNT(*) AS n, AVG(salary) AS s FROM tax WHERE salary > 50000 GROUP BY state HAVING n > 10 ORDER BY state"
  "SELECT zip, MIN(rate) AS lo, MAX(rate) AS hi, SUM(salary) AS total FROM tax GROUP BY zip ORDER BY total DESC LIMIT 10"
  "SELECT a.id, b.city FROM tax a JOIN tax b ON a.zip = b.zip WHERE a.salary > 90000 ORDER BY a.id LIMIT 20"
  "SELECT * FROM tax WHERE gender = 'F' LIMIT 5"
)
for q in "${queries[@]}"; do
  for p in auto java spark relational; do
    run rheem-sql -demo 500 -platform "$p" "$q"
  done
  run rheem-sql -demo 500 -explain "$q"
done
run rheem-clean -demo 2000 -metrics 127.0.0.1:0 -repair "$out/repaired.csv"
for p in java spark relational; do
  run rheem-clean -demo 2000 -platform "$p"
done
run rheem-clean -in "$out/repaired.csv" -fd 'id:zip->city,state' -dc 'id:salary>salary,rate<rate:fix=rate'
run rheem-sql -table "tax=$out/repaired.csv" "${queries[0]}"

for ex in examples/*/; do
  run "$(basename "$ex")"
done

# --- the map ----------------------------------------------------------------
step "merging coverage"
mkdir -p "$work/merged"
go tool covdata merge -i="$cov" -o="$work/merged"
go tool covdata textfmt -i="$work/merged" -o="$work/profile.txt"
go tool cover -func="$work/profile.txt" >"$work/func.txt"
# The packages with a function in them; a doc-only package links nothing.
go list -f '{{if .GoFiles}}{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}{{end}}' ./... |
  while read -r pkg files; do
    if grep -qs '^func ' $files; then echo "$pkg"; fi
  done >"$work/packages.txt"

# Every block of the profile belongs to the function that starts last at
# or before it in its file; a function nothing entered is one cover
# reports at 0.0 %. Lines run from the function's first line to the end
# of its last block. Functions without statements are not listed.
awk -F'\t' -v total="$(tail -1 "$work/func.txt" | awk '{print $NF}')" '
FILENAME == ARGV[1] {
  if ($1 == "total:") next
  n = 0
  for (i = 1; i <= NF; i++) if ($i != "") f[++n] = $i
  split(f[1], loc, ":")
  pkg = loc[1]; sub(/\/[^\/]*$/, "", pkg); seen[pkg] = 1
  k = ++nf[loc[1]]
  start[loc[1], k] = loc[2] + 0; name[loc[1], k] = f[2]; pct[loc[1], k] = f[3]
  next
}
FILENAME == ARGV[2] {
  if ($0 ~ /^mode:/) next
  split($0, w, " ")
  split(w[1], loc, ":"); split(loc[2], span, ","); split(span[1], a, "."); split(span[2], b, ".")
  file = loc[1]; k = 0
  for (j = 1; j <= nf[file]; j++) if (start[file, j] <= a[1] + 0) k = j
  if (k == 0) next
  stmts[file, k] += w[2]
  if (b[1] + 0 > last[file, k]) last[file, k] = b[1] + 0
  next
}
{ linked[$0] = 1 }
END {
  for (key in start) {
    split(key, p, SUBSEP); file = p[1]; k = p[2]
    if (stmts[file, k] == 0) continue
    pkg = file; sub(/\/[^\/]*$/, "", pkg); short = file; sub(/.*\//, "", short)
    funcs++
    if (pct[file, k] != "0.0%") continue
    lines = last[file, k] - start[file, k] + 1
    dead++; deadStmts += stmts[file, k]; deadLines += lines
    pkgDead[pkg]++; pkgStmts[pkg] += stmts[file, k]; pkgLines[pkg] += lines
    printf "B\t%s\t%s:%d\t%s\t%d\t%d\n", pkg, short, start[file, k], name[file, k], stmts[file, k], lines
  }
  for (pkg in pkgDead)
    printf "A\t%s\t%d functions, %d statements, %d lines\n", pkg, pkgDead[pkg], pkgStmts[pkg], pkgLines[pkg]
  printf "S\tNo job enters %d of the module'"'"'s %d functions (%d statements, %d lines); %s of statements are reached.\n", dead, funcs, deadStmts, deadLines, total
  for (pkg in linked) if (!(pkg in seen)) printf "U\t%s\n", pkg
}' "$work/func.txt" "$work/profile.txt" "$work/packages.txt" | sort -t"$(printf '\t')" -k1,1 -k2,2 -k3,3V |
  awk -F'\t' '
  $1 == "S" { summary = $2; next }
  $1 == "A" { head[$2] = $3; next }
  $1 == "B" {
    if ($2 != pkg) { pkg = $2; body = body sprintf("\n%s: %s\n", pkg, head[pkg]) }
    body = body sprintf("  %-34s %-40s %5d stmts %5d lines\n", $3, $4, $5, $6)
    next
  }
  $1 == "U" { unlinked = unlinked sprintf("  %s\n", $2) }
  END {
    print summary
    printf "%s", body
    printf "\nPackages no binary links:\n%s", unlinked == "" ? "  (none)\n" : unlinked
  }'
step "done"
