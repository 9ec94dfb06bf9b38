#!/usr/bin/env bash
# Every `unsafe` in the crates' sources (`crates/*/src`, test code
# included) and in the vendored ones (`third_party/*/src`, whose channel
# is every real-time handoff's hot path) as `file:line`, then their count. A `//` comment is cut off
# each line before the search, so doc and SAFETY comments do not count.
# Fails when the count exceeds MAX, the number of sites the tree is
# allowed: a commit that adds a site raises MAX beside its SAFETY argument.
#
#   scripts/unsafe-sites.sh
set -euo pipefail
MAX=5
cd "$(git rev-parse --show-toplevel)"

sites=$(find crates/*/src third_party/*/src -name '*.rs' | sort | xargs awk '
    { sub(/\/\/.*/, "") }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR }')
[ -n "$sites" ] && echo "$sites"
count=$(printf '%s' "$sites" | grep -c . || true)
echo "$count"
if [ "$count" -gt "$MAX" ]; then
    echo "error: $count unsafe sites, at most $MAX allowed" >&2
    exit 1
fi
