#!/usr/bin/env bash
# Size table: non-test Go lines (wc -l over every .go file that is not a
# _test.go file, tracked or not yet added, ignored files left out) per
# package group, each group's packages by size in parentheses, and the
# tree total — the layout of ROADMAP's Size table, as markdown.
#
# A group is internal/<name> or benchmarks/<name>, any other top-level
# directory (cmd, examples), or the root package (rheem). Inside a
# group, a package is named by its directory below the group; a group's
# own directory is `.`.
#
# Usage: bash scripts/size.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' |
  while IFS= read -r f; do
    [[ -f "$f" ]] && printf '%s %s\n' "$(wc -l <"$f")" "$f"
  done |
  awk '
    function group(path, parts, n) {
      n = split(path, parts, "/")
      if (n == 1) return "rheem"
      if ((parts[1] == "internal" || parts[1] == "benchmarks") && n > 2) return parts[1] "/" parts[2]
      return parts[1]
    }
    function pkg(path, g, dir) {
      dir = path
      sub(/\/[^\/]*$/, "", dir)
      if (path !~ /\//) return "."
      if (dir == g) return "."
      return substr(dir, length(g) + 2)
    }
    function num(n, s) {
      s = sprintf("%d", n)
      while (s ~ /[0-9][0-9][0-9][0-9]/) sub(/[0-9][0-9][0-9]$/, " &", s)
      return s
    }
    {
      g = group($2)
      p = pkg($2, g)
      total += $1
      lines[g] += $1
      pl[g SUBSEP p] += $1
      if (!((g, p) in seen)) { seen[g, p] = 1; npk[g]++; pk[g, npk[g]] = p }
    }
    END {
      print "| Package | Lines |"
      print "|---|---|"
      # groups by size, descending
      ng = 0
      for (g in lines) order[++ng] = g
      for (i = 1; i <= ng; i++)
        for (j = i + 1; j <= ng; j++)
          if (lines[order[j]] > lines[order[i]]) { t = order[i]; order[i] = order[j]; order[j] = t }
      for (i = 1; i <= ng; i++) {
        g = order[i]
        cell = num(lines[g])
        if (npk[g] > 1) {
          n = npk[g]
          for (a = 1; a <= n; a++) ps[a] = pk[g, a]
          for (a = 1; a <= n; a++)
            for (b = a + 1; b <= n; b++)
              if (pl[g, ps[b]] > pl[g, ps[a]]) { t = ps[a]; ps[a] = ps[b]; ps[b] = t }
          sep = " ("
          for (a = 1; a <= n; a++) { cell = cell sep "`" ps[a] "` " num(pl[g, ps[a]]); sep = ", " }
          cell = cell ")"
        }
        printf "| `%s` | %s |\n", g, cell
      }
      printf "| total | %s |\n", num(total)
    }'
