#!/usr/bin/env python3
"""Turn a pcsample histogram into function and source-line shares.

Usage: pcreport.py PROFILE [--top N]

PROFILE is the pcsample.<pid>.txt a run under
LD_PRELOAD=libpcsample.so leaves in its working directory
(bench/prof/pcsample.cc). Each sampled PC is mapped back to its binary
through the recorded mappings and resolved with one addr2line call per
binary. A PC inside inlined code resolves to a chain of frames; the
innermost one is the code that ran. The report prints three tables:

  * lines: the innermost file:line, the finest attribution;
  * functions: the innermost function, inlined helpers included;
  * symbols: the outermost function, the symbol gprof would charge.

Build with debug info (the default RelWithDebInfo) for line tables.
"""

import argparse
import collections
import os
import subprocess
import sys


def parse(path):
    maps, pcs, header = [], [], ""
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line[1:].strip()
            elif line.startswith("map "):
                fields = line[4:].split()
                if len(fields) < 6:
                    continue  # anonymous executable mapping
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif line.startswith("pc "):
                _, pc, count = line.split()
                pcs.append((int(pc, 16), int(count)))
    return header, maps, pcs


def is_pie(binary):
    """True for ET_DYN objects (PIE and shared libraries)."""
    try:
        with open(binary, "rb") as f:
            head = f.read(18)
        return int.from_bytes(head[16:18], "little") == 3
    except OSError:
        return True


def resolve(binary, addrs):
    """addr2line -i over @addrs: address -> [(function, file:line)]."""
    if not os.path.isfile(binary):
        return {}  # [vdso] and other mappings with no file behind them
    out = subprocess.run(
        ["addr2line", "-e", binary, "-a", "-f", "-C", "-i"],
        input="".join("%x\n" % a for a in addrs),
        capture_output=True, text=True, check=True).stdout.splitlines()
    frames, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            frames[cur] = []
            i += 1
            continue
        func = out[i]
        where = out[i + 1] if i + 1 < len(out) else "??:0"
        frames[cur].append((func, where))
        i += 2
    return frames


def short(where):
    path, _, line = where.partition(":")
    line = line.split(" ")[0]
    root = os.getcwd() + os.sep
    if path.startswith(root):
        path = path[len(root):]
    return "%s:%s" % (path, line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    header, maps, pcs = parse(args.profile)
    total = sum(c for _, c in pcs)
    if total == 0:
        sys.exit("pcreport: no samples in " + args.profile)

    by_binary = collections.defaultdict(list)
    unmapped = 0
    for pc, count in pcs:
        for lo, hi, off, binary in maps:
            if lo <= pc < hi:
                addr = pc - lo + off if is_pie(binary) else pc
                by_binary[binary].append((pc, addr, count))
                break
        else:
            unmapped += count

    lines = collections.Counter()
    funcs = collections.Counter()
    symbols = collections.Counter()
    line_func = {}
    for binary, entries in by_binary.items():
        frames = resolve(binary, sorted({a for _, a, _ in entries}))
        base = os.path.basename(binary)
        for _, addr, count in entries:
            chain = frames.get(addr) or [("??", "??:0")]
            inner_func, inner_where = chain[0]
            if inner_func == "??":
                inner_func = "?? (%s)" % base
            key = short(inner_where)
            lines[key] += count
            line_func.setdefault(key, inner_func)
            funcs[inner_func] += count
            outer = chain[-1][0]
            symbols[outer if outer != "??" else "?? (%s)" % base] += count

    print("# %s" % header)
    print("# %d samples, %d outside any mapping" % (total, unmapped))

    def table(title, counter, label=None):
        print("\n%s" % title)
        for key, count in counter.most_common(args.top):
            extra = "  [%s]" % label[key][:60] if label else ""
            print("  %6.2f%%  %7d  %s%s" % (100.0 * count / total, count,
                                           key[:100], extra))

    table("lines (innermost file:line)", lines, line_func)
    table("functions (innermost, inlined helpers included)", funcs)
    table("symbols (outermost, as gprof charges them)", symbols)


if __name__ == "__main__":
    main()
