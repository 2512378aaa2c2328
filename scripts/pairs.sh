#!/usr/bin/env bash
# The pair protocol as one command: runs one benchmark workload as N
# alternating parent/change pairs, each side from its own checkout and built
# by its own benchmarks/run.sh, and writes the verdict to BENCH_<workload>.json.
#
#   scripts/pairs.sh PARENT [CHANGE] -w WORKLOAD [-n N] [-seed S]
#                    [-seconds T] [-aa] [-o FILE]
#
# PARENT and CHANGE are git refs. Without CHANGE the change is the working
# tree: every tracked file and every untracked one git does not ignore, as
# it stands. -aa runs PARENT on both sides (an A/A run: the metrics' noise);
# it takes no CHANGE. Pair i runs seed S+i on both sides (-seed, default 1),
# the parent first in even pairs and the change first in odd ones, each run
# untraced for T seconds (-seconds, default 20). -n defaults to 10.
#
# The file holds both commits, the seeds, every pair's end-to-end metrics
# (with each run's correct, attempted and failed), and per metric the two
# sides' medians and quartiles, the change's wins out of n (better by the
# direction BENCHMARK.json gives) and a two-sided sign-test p. A short table
# goes to stdout. The checkouts live in a temporary directory that is removed
# on exit, so the repository is left as it was, but for the file.
# Needs git, tar, go and python3.
set -euo pipefail

usage() {
  sed -n '6,7p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

refs=() workload="" n=10 seed=1 seconds=20 aa=0 out=""
while (($#)); do
  case "$1" in
    -w) workload="${2:?}"; shift 2 ;;
    -n) n="${2:?}"; shift 2 ;;
    -seed) seed="${2:?}"; shift 2 ;;
    -seconds) seconds="${2:?}"; shift 2 ;;
    -o) out="${2:?}"; shift 2 ;;
    -aa) aa=1; shift ;;
    -h | --help) usage ;;
    -*) echo "pairs.sh: unknown flag $1" >&2; usage ;;
    *) refs+=("$1"); shift ;;
  esac
done
if [[ -z "$workload" || ${#refs[@]} -lt 1 || ${#refs[@]} -gt 2 || ($aa == 1 && ${#refs[@]} == 2) ]]; then
  usage
fi
[[ "$n" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ ]] || usage

root="$(git rev-parse --show-toplevel)"
out="${out:-$root/BENCH_$workload.json}"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# checkout REF DIR extracts REF, or the working tree for an empty REF, into
# DIR and prints the commit it names.
checkout() {
  mkdir -p "$2"
  if [[ -z "$1" ]]; then
    (cd "$root" && git ls-files -z -co --exclude-standard |
      while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"; done |
      tar --null -T - -cf -) | tar -x -C "$2"
    local head
    head="$(git -C "$root" rev-parse HEAD)"
    if [[ -n "$(git -C "$root" status --porcelain)" ]]; then
      echo "$head+worktree"
    else
      echo "$head"
    fi
  else
    git -C "$root" archive "$(git -C "$root" rev-parse --verify "$1^{commit}")" | tar -x -C "$2"
    git -C "$root" rev-parse "$1^{commit}"
  fi
}

parent_ref="${refs[0]}"
change_ref="${refs[1]:-}"
if ((aa)); then change_ref="$parent_ref"; fi
parent_commit="$(checkout "$parent_ref" "$tmp/parent")"
change_commit="$(checkout "$change_ref" "$tmp/change")"
label_change="${change_ref:-worktree}"

# run SIDE SEED appends one run's JSON line, tagged, to $tmp/runs.
run() {
  local line
  line="$(cd "$tmp/$1" && bash benchmarks/run.sh --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 --out "$tmp/out-$1")"
  printf '{"side":"%s","seed":%s,"run":%s}\n' "$1" "$2" "$line" >>"$tmp/runs"
}

: >"$tmp/runs"
for ((i = 0; i < n; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    echo "pair $((i + 1))/$n seed $s: $side" >&2
    run "$side" "$s"
  done
done

python3 - "$tmp/runs" "$root/BENCHMARK.json" "$out" "$workload" "$seconds" "$aa" \
  "$parent_ref" "$parent_commit" "$label_change" "$change_commit" <<'EOF'
import json, math, statistics, sys

runs_path, bench_path, out, workload, seconds, aa, pref, pcommit, cref, ccommit = sys.argv[1:]
runs = [json.loads(l) for l in open(runs_path)]
better = {m["name"]: m["better"] for m in json.load(open(bench_path))["end_to_end"]}

pairs, by_seed = [], {}
for r in runs:
    by_seed.setdefault(r["seed"], {})[r["side"]] = r["run"]
    if len(by_seed[r["seed"]]) == 1:
        pairs.append({"seed": r["seed"], "first": r["side"]})
for p in pairs:
    for side in ("parent", "change"):
        line = by_seed[p["seed"]][side]
        p[side] = {k: v["value"] for k, v in line["metrics"].items()}
        p[side].update(correct=line["correct"], attempted=line["attempted"], failed=line["failed"])

def quart(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": med, "q1": q1, "q3": q3}

def sign_p(wins, losses):
    # Two-sided exact sign test over the pairs that are not ties.
    m, k = wins + losses, min(wins, losses)
    if m == 0:
        return 1.0
    return min(1.0, 2 * sum(math.comb(m, i) for i in range(k + 1)) / 2**m)

summary = {}
for name, way in better.items():
    if not all(name in p["parent"] and name in p["change"] for p in pairs):
        continue
    sign = -1 if way == "lower" else 1
    wins = sum(1 for p in pairs if sign * (p["change"][name] - p["parent"][name]) > 0)
    losses = sum(1 for p in pairs if sign * (p["change"][name] - p["parent"][name]) < 0)
    par, chg = quart([p["parent"][name] for p in pairs]), quart([p["change"][name] for p in pairs])
    summary[name] = {
        "better": way, "parent": par, "change": chg,
        "delta_pct": 100 * (chg["median"] - par["median"]) / par["median"] if par["median"] else None,
        "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses, "n": len(pairs),
        "sign_p": sign_p(wins, losses),
    }

doc = {
    "workload": workload, "seconds": float(seconds), "aa": aa == "1",
    "parent": {"ref": pref, "commit": pcommit}, "change": {"ref": cref, "commit": ccommit},
    "seeds": [p["seed"] for p in pairs], "pairs": pairs, "summary": summary,
    "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in ("parent", "change")),
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

short = lambda c: c[:12] + c[40:]  # keeps a "+worktree" suffix
print(f"{workload}: {short(pcommit)} -> {short(ccommit)}, {len(pairs)} pairs, every job correct: {doc['all_correct']}")
print(f"{'metric':<18} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} {'delta':>8} {'wins':>6} {'sign p':>8}")
for name, s in summary.items():
    fmt = lambda q: f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
    d = "" if s["delta_pct"] is None else f"{s['delta_pct']:+.2f}%"
    print(f"{name:<18} {fmt(s['parent']):<36} {fmt(s['change']):<36} {d:>8} {s['wins']:>3}/{s['n']:<2} {s['sign_p']:>8.4f}")
print(f"wrote {out}")
EOF
