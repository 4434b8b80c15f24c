#!/usr/bin/env python3
"""Fail when src/ defines a function that no shipped binary links.

The shipped binaries are the executables of bench/, examples/ and tools/
plus perfbench's rekeybench. The script builds them at -O0 with
-ffunction-sections -fdata-sections and -Wl,--gc-sections, so the linker
drops every function that nothing reachable calls and inlining hides none.
It then lists each external (T) and local (t) function symbol that the
object files of src/ define and none of the binaries keeps, skipping
compiler-generated ones, and fails on any that matches no substring of the
allowlist (tools/unshipped_allowlist.txt).

Allowlist lines read `<substring of the demangled name>  # <reason>`; a
blank line or a line starting with `#` is ignored, an entry without a
reason is an error, and so is an entry that matches no unshipped symbol,
so the list shrinks when a caller ships.

    python3 tools/unshipped_functions.py [--build-dir DIR]

perfbench/ is configured from its own CMakeLists.txt, unedited.
"""
import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_DIRS = ("bench", "examples", "tools")
PERFBENCH_TARGET = "rekeybench"
GENERATED = ("_GLOBAL__sub_I_", "__static_initialization_", "__tcf_")
ALLOWLIST = os.path.join(ROOT, "tools", "unshipped_allowlist.txt")
JOBS = f"-j{os.cpu_count() or 1}"
FLAGS = [
    "-G", "Unix Makefiles",
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kw):
    print("+", " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, **kw)


def function_symbols(path):
    """Mangled names of the T and t symbols that `nm` lists in `path`."""
    out = subprocess.run(["nm", path], check=True, capture_output=True,
                         text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("T", "t"):
            if not parts[2].startswith(GENERATED):
                names.add(parts[2])
    return names


def demangle(names):
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def executables(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def read_allowlist(path):
    entries = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            pattern, _, reason = text.partition("#")
            if not pattern.strip() or not reason.strip():
                sys.exit(f"{path}:{number}: want '<substring>  # <reason>'")
            entries.append(pattern.strip())
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-shipped"))
    args = parser.parse_args()
    main_dir = os.path.join(args.build_dir, "main")
    perf_dir = os.path.join(args.build_dir, "perfbench")

    run(["cmake", "-S", ROOT, "-B", main_dir] + FLAGS,
        stdout=subprocess.DEVNULL)
    for sub in ("src",) + SHIPPED_DIRS:
        run(["make", "-s", "-C", os.path.join(main_dir, sub), JOBS],
            stdout=subprocess.DEVNULL)
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perf_dir]
        + FLAGS, stdout=subprocess.DEVNULL)
    run(["make", "-s", "-C", perf_dir, JOBS, PERFBENCH_TARGET],
        stdout=subprocess.DEVNULL)

    binaries = [b for sub in SHIPPED_DIRS
                for b in executables(os.path.join(main_dir, sub))]
    binaries.append(os.path.join(perf_dir, PERFBENCH_TARGET))
    kept = set()
    for binary in binaries:
        kept |= function_symbols(binary)

    src_dir = os.path.join(main_dir, "src")
    defined = set()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".a"):
            defined |= function_symbols(os.path.join(src_dir, name))

    names = demangle(sorted(defined - kept))
    allow = read_allowlist(ALLOWLIST)
    used = set()
    failing = []
    for mangled, pretty in sorted(names.items(), key=lambda kv: kv[1]):
        match = next((p for p in allow if p in pretty), None)
        if match is None:
            failing.append(pretty)
        else:
            used.add(match)
        print(("allowed  " if match else "UNSHIPPED ") + pretty)
    stale = [p for p in allow if p not in used]
    print(f"{len(binaries)} binaries; {len(defined)} src/ functions, "
          f"{len(names)} linked by none: {len(names) - len(failing)} "
          f"allowlisted, {len(failing)} not")
    for pattern in stale:
        print(f"stale allowlist entry (matches no unshipped function): "
              f"{pattern}")
    return 1 if failing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
