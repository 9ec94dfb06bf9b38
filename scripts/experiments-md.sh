#!/usr/bin/env bash
# EXPERIMENTS.md cannot drift from `reproduce`: every fenced table in it (a
# ``` block whose second line is a rule of dashes) must be, line for line, a
# contiguous run of `crates/bench/golden/reproduce.txt` — the output CI
# diffs the binary against. Paste tables from the golden, never by hand.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
awk '
    function check(    s, i) {
        for (s = 1; s + len - 1 <= n; s++) {
            for (i = 1; i <= len && golden[s + i - 1] == block[i]; i++);
            if (i > len) return
        }
        printf "EXPERIMENTS.md: the table \"%s\" is not in the golden\n", block[1]
        bad = 1
    }
    NR == FNR { golden[++n] = $0; next }
    /^```/ { if (inside && table) check(); inside = !inside; len = table = 0; next }
    inside { block[++len] = $0; if (len == 2 && /^-+$/) table = 1 }
    END { exit bad }
' crates/bench/golden/reproduce.txt EXPERIMENTS.md
