#!/usr/bin/env bash
# The CHANGES.md line table of a `[simplicity]` PR, as markdown: for every
# Rust file that differs between BASE-REF (default HEAD) and the working
# tree, `wc -l` of the whole file and of its non-test part at both ends,
# then the non-test total of DIR (default `crates/core/src`, ROADMAP
# needle 2).
#
# The non-test part of a file is the lines before its first line-start
# `#[cfg(test)]` followed by a `mod … {` line (an inline test module; an
# indented `#[cfg(test)]` inside a function does not cut). A file its parent
# module declares as `#[cfg(test)]` then `mod <name>;` (`tests.rs`,
# `fft/src/oracle.rs`, `*/proptests.rs`) compiles only under test and is
# all test.
#
#   scripts/loc-table.sh [BASE-REF] [DIR]
set -euo pipefail
base=${1:-HEAD}
dir=${2:-crates/core/src}
cd "$(git rev-parse --show-toplevel)"

# The text of path $2 at BASE-REF ($1 = base) or in the working tree
# ($1 = tree); nothing when it does not exist there.
text() {
    if [ "$1" = base ]; then git show "$base:$2" 2>/dev/null || true; else cat "$2" 2>/dev/null || true; fi
}

# 1 when the parent module of path $2 (at side $1) declares it test-only.
test_only() {
    local parent_dir=${2%/*} name
    name=$(basename "$2" .rs)
    for parent in "$parent_dir/lib.rs" "$parent_dir/main.rs" "$parent_dir/mod.rs" "$parent_dir.rs"; do
        text "$1" "$parent"
    done | awk -v name="$name" '
        prev ~ /^#\[cfg\(test\)\]/ && $0 ~ "^mod " name ";" { found = 1 }
        { prev = $0 }
        END { print found + 0 }'
}

# Path $2 at side $1. Prints "all non-test", "0 0" when it does not exist.
count() {
    if [ "$1" = base ]; then
        git cat-file -e "$base:$2" 2>/dev/null || { echo "0 0"; return; }
    else
        [ -f "$2" ] || { echo "0 0"; return; }
    fi
    text "$1" "$2" | awk -v test_only="$(test_only "$1" "$2")" '
        !cut && prev ~ /^#\[cfg\(test\)\]/ && /^mod [A-Za-z0-9_]+ \{/ { cut = 1; code-- }
        { all++; if (!cut) code++; prev = $0 }
        END { if (test_only) code = 0; printf "%d %d\n", all, code }'
}
# Tracked and not-yet-added files of the working tree under "$@".
tree_files() { git ls-files --cached --others --exclude-standard -- "$@" | sort -u; }

echo "| file | parent all / non-test | change all / non-test | Δ non-test |"
echo "|---|---|---|---|"
{ git diff --name-only "$base" -- '*.rs'; git ls-files --others --exclude-standard -- '*.rs'; } |
    sort -u | while read -r f; do
    read -r pa pn < <(count base "$f")
    read -r ca cn < <(count tree "$f")
    printf '| `%s` | %d / %d | %d / %d | %+d |\n' "$f" "$pa" "$pn" "$ca" "$cn" $((cn - pn))
done

parent=0 change=0
while read -r f; do
    read -r _ n < <(count base "$f"); parent=$((parent + n))
done < <(git ls-tree -r --name-only "$base" -- "$dir" | grep '\.rs$')
while read -r f; do
    read -r _ n < <(count tree "$f"); change=$((change + n))
done < <(tree_files "$dir/*.rs")
printf '| **total `%s` non-test** | %d | %d | %+d |\n' "$dir" "$parent" "$change" $((change - parent))
