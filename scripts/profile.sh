#!/usr/bin/env bash
# Where one benchmark workload spends its CPU: a flat profile by symbol.
#
# Builds scripts/sampler.c into an LD_PRELOAD library and runs the
# benchmark unchanged under it (contract mode, `--workload W --seconds S`):
# every trial is a process of its own and writes its own sample file. Each
# sampled PC is attributed to a symbol of the object it fell in (by `nm`:
# the benchmark binary, libc, ld.so) or to its mapping ([vdso], anonymous
# code). Prints the top rows, then the four groups the call path is judged
# by: hashing, clock reads, handoffs (the futex `syscall`, `sched_yield`,
# a contended lock, park/unpark) and copies (libc's memmove and memcpy).
# Fails on fewer than MIN_SAMPLES samples. A stripped libc has dynamic
# symbols only, so its internal functions (malloc's, say) show under the
# nearest exported name before them; the string routines the sampler found
# with `dlsym` (memmove, memcpy, memset, memcmp, strlen: the IFUNC
# implementations the process calls) are added to its table as
# `memmove (ifunc)` and so on, one name per address.
#
#   scripts/profile.sh <workload> [seconds]     (default 2 s; TOP=n rows, default 25)
#
# Pin it (`taskset -c 1 scripts/profile.sh split_loop 24`) to profile the
# way the one-CPU contract runs are compared. Output lands in target/profile.
set -euo pipefail
workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-2}
MIN_SAMPLES=200
cd "$(git rev-parse --show-toplevel)"

out=$PWD/target/profile
mkdir -p "$out"
run=$(mktemp -d "$out/run.XXXXXX")
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/sampler.c -ldl
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$PWD/benchmark/target/release/oopp-benchmark
SAMPLER_DIR=$run LD_PRELOAD=$out/sampler.so \
    "$bin" --workload "$workload" --seconds "$seconds" >"$run/result.json"
echo "result: $(cat "$run/result.json")"

python3 - "$run" "${TOP:-25}" "$MIN_SAMPLES" <<'EOF'
import bisect, collections, glob, os, re, subprocess, sys

run, top, floor = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
GROUPS = [
    ("hashing: SipHash, hash_one, Hasher impls",
     re.compile(r"[Ss]ip(Hasher|13|24)|sip::|hash_one|Hasher>::(write|finish)|IdHasher")),
    ("clock: [vdso], clock_gettime, Instant, Timespec, now_nanos",
     re.compile(r"\[vdso\]|clock_gettime|Instant|Timespec|now_nanos")),
    ("handoff: futex syscall, sched_yield, Mutex::lock_contended, park/unpark",
     re.compile(r"^syscall |sched_yield|lock_contended|(^|::)(un)?park|Parker")),
    ("copies: libc's memmove, memcpy (ifunc)",
     re.compile(r"^(memmove|memcpy)[/ ].*\(ifunc\)")),
]

tables = {}
def symbols(path):
    """Sorted (addresses, names) of the code symbols of `path`."""
    if path not in tables:
        rows = []
        for dynamic in ([], ["-D"]):
            nm = subprocess.run(["nm", "-C", "--defined-only", *dynamic, path],
                                capture_output=True, text=True)
            for line in nm.stdout.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    name = re.sub(r"::h[0-9a-f]{16}$|@.*$", "", parts[2])
                    rows.append((int(parts[0], 16), name))
            if rows:
                break
        rows.sort()
        tables[path] = ([a for a, _ in rows], [n for _, n in rows])
    return tables[path]

def is_pie(path):
    try:
        with open(path, "rb") as f:
            return f.read(18)[16] == 3  # e_type ET_DYN
    except OSError:
        return False

named = set()
def add_routines(path, found):
    """Name the `dlsym` addresses `found` ({address: [names]}) in the
    table of `path`, once: the IFUNC implementations a stripped libc
    hides behind its nearest exported symbol."""
    if path in named:
        return
    named.add(path)
    addrs, names = symbols(path)
    rows = list(zip(addrs, names))
    rows += [(a, "/".join(sorted(ns)) + " (ifunc)") for a, ns in found.items()]
    rows.sort()
    tables[path] = ([a for a, _ in rows], [n for _, n in rows])

counts, processes, total = collections.Counter(), 0, 0
for prof in glob.glob(os.path.join(run, "prof.*")):
    maps, pcs, base, routines = [], [], {}, {}
    with open(prof) as f:
        lines = iter(f.read().splitlines())
        for line in lines:
            if line == "pcs":
                break
            if line.startswith("sym "):
                _, addr, name = line.split()
                routines.setdefault(int(addr, 16), []).append(name)
                continue
            parts = line.split(maxsplit=5)
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5] if len(parts) == 6 else ""
            if path.startswith("/"):
                base[path] = min(base.get(path, start), start)
            if "x" in parts[1]:
                maps.append((start, end, path))
        pcs = [int(x, 16) for x in lines]
    processes += 1
    maps.sort()
    starts = [m[0] for m in maps]
    found = collections.defaultdict(dict)
    for addr, names in routines.items():
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < maps[i][1] and maps[i][2].startswith("/"):
            path = maps[i][2]
            found[path][addr - base[path] if is_pie(path) else addr] = names
    for path, by_addr in found.items():
        add_routines(path, by_addr)
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts["[unmapped]"] += 1
            continue
        path = maps[i][2]
        if not path.startswith("/"):
            counts[path or "[anonymous]"] += 1
            continue
        addr = pc - base[path] if is_pie(path) else pc
        addrs, names = symbols(path)
        j = bisect.bisect_right(addrs, addr) - 1
        name = names[j] if j >= 0 else "?"
        counts[f"{name}  [{os.path.basename(path)}]"] += 1
    total += len(pcs)

print(f"{total} samples from {processes} processes")
for name, n in counts.most_common(top):
    print(f"{100 * n / max(total, 1):6.2f}% {n:7}  {name}")
for label, pattern in GROUPS:
    n = sum(c for name, c in counts.items() if pattern.search(name))
    print(f"{100 * n / max(total, 1):6.2f}% {n:7}  group: {label}")
if total < floor:
    sys.exit(f"error: {total} samples, at least {floor} expected")
EOF
