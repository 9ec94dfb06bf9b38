#!/usr/bin/env bash
# The CHANGES.md line table of a `[simplicity]` PR, as markdown: for every
# Rust file that differs between BASE-REF (default HEAD) and the working
# tree, `wc -l` of the whole file and of its non-test part — the lines
# before the first `#[cfg(test)]`; a `tests.rs` is all test — at both ends,
# then the non-test total of DIR (default `crates/core/src`, ROADMAP
# needle 2).
#
#   scripts/loc-table.sh [BASE-REF] [DIR]
set -euo pipefail
base=${1:-HEAD}
dir=${2:-crates/core/src}
cd "$(git rev-parse --show-toplevel)"

# stdin: a file's text; $1: its path. Prints "all non-test".
count() {
    awk -v path="$1" '
        !cut && /#\[cfg\(test\)\]/ { cut = 1 }
        { all++; if (!cut) code++ }
        END { if (path ~ /(^|\/)tests\.rs$/) code = 0; printf "%d %d\n", all, code }'
}
at_base() { git cat-file -e "$base:$1" 2>/dev/null && git show "$base:$1" | count "$1" || echo "0 0"; }
at_tree() { [ -f "$1" ] && count "$1" <"$1" || echo "0 0"; }
# Tracked and not-yet-added files of the working tree under "$@".
tree_files() { git ls-files --cached --others --exclude-standard -- "$@" | sort -u; }

echo "| file | parent all / non-test | change all / non-test | Δ non-test |"
echo "|---|---|---|---|"
{ git diff --name-only "$base" -- '*.rs'; git ls-files --others --exclude-standard -- '*.rs'; } |
    sort -u | while read -r f; do
    read -r pa pn < <(at_base "$f")
    read -r ca cn < <(at_tree "$f")
    printf '| `%s` | %d / %d | %d / %d | %+d |\n' "$f" "$pa" "$pn" "$ca" "$cn" $((cn - pn))
done

parent=0 change=0
while read -r f; do
    read -r _ n < <(at_base "$f"); parent=$((parent + n))
done < <(git ls-tree -r --name-only "$base" -- "$dir" | grep '\.rs$')
while read -r f; do
    read -r _ n < <(at_tree "$f"); change=$((change + n))
done < <(tree_files "$dir/*.rs")
printf '| **total `%s` non-test** | %d | %d | %+d |\n' "$dir" "$parent" "$change" $((change - parent))
