#!/usr/bin/env python3
"""Lists the library functions that no example, bench or suite binary keeps.

  unused_api.py [--build-dir build-unused]

Builds the `src/` libraries, every `examples/*.cpp` and `bench/bench_*.cpp`
program and the benchmark suite's `wdoc_suite` at -O0 with
-ffunction-sections -fdata-sections and -Wl,--gc-sections, into
BUILD_DIR/main and BUILD_DIR/suite (a rebuild of an unchanged tree is a
no-op). At -O0 nothing is inlined, so every function a binary can call is
a symbol in it, and the linker drops every function that no entry point
reaches. A function is unused when a `libwdoc_*.a` defines it and no
binary keeps it: only tests call it.

Only functions whose own scope is `wdoc::` count (mangled `_ZN4wdoc` or
`_ZNK4wdoc`), file-local ones included, which drops standard-library
instantiations and still tells overloads apart. Lambdas and the members
of the `Result<>` and `StrongId<>` templates are left out. A header-inline
function that no library code calls is emitted in no library, so it is
not seen.

Each line of the allowlist, tools/unused_api.allow, is a demangled name,
then `#` and the check it performs on code that binaries run. Exits 1 when
an unused function is not on the allowlist, or an allowlist entry names a
function that is kept or gone.
"""

import argparse
import collections
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = [
    "-G", "Ninja",
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
FUNCTION_TYPES = set("TtWw")
SKIPPED_SCOPES = ("wdoc::Result<", "wdoc::StrongId<")


def programs():
    """(build subdirectory, target) of every example and bench program."""
    examples = sorted(p.stem for p in (ROOT / "examples").glob("*.cpp"))
    benches = sorted(p.stem for p in (ROOT / "bench").glob("bench_*.cpp"))
    return [("examples", t) for t in examples] + [("bench", t) for t in benches]


def build(build_dir):
    main, suite = build_dir / "main", build_dir / "suite"
    for source, binary, targets in (
            (ROOT, main, [t for _, t in programs()]),
            (ROOT / "bench" / "suite", suite, ["wdoc_suite"])):
        subprocess.run(["cmake", "-S", str(source), "-B", str(binary), *FLAGS],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", str(binary), "-j",
                        str(os.cpu_count() or 1), "--target", *targets], check=True)


def symbols(path):
    """Mangled wdoc:: function symbols `path` defines, each with a count.

    A file-local function is one symbol per object that defines it, so its
    count is the number of copies; any other name counts once.
    """
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    found = collections.Counter()
    for line in out.splitlines():
        parts = line.split()
        if (len(parts) == 3 and parts[1] in FUNCTION_TYPES
                and parts[2].startswith(("_ZN4wdoc", "_ZNK4wdoc"))):
            if parts[1] == "t":
                found[parts[2]] += 1
            else:
                found[parts[2]] = 1
    return found


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def read_allowlist(path):
    allowed = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, _, reason = line.partition("#")
        if not reason.strip():
            sys.exit(f"{path}:{number}: entry without a reason: {line}")
        allowed[name.strip()] = reason.strip()
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=ROOT / "build-unused")
    args = parser.parse_args()

    build_dir = args.build_dir.resolve()
    build(build_dir)

    # A file-local name counts as kept only when some binary holds as many
    # copies of it as the libraries define.
    defined, library_of = collections.Counter(), {}
    for lib in sorted((build_dir / "main" / "src").rglob("libwdoc_*.a")):
        for name, count in symbols(lib).items():
            defined[name] = max(defined[name], count)
            library_of.setdefault(name, lib.stem[len("lib"):])
    binaries = [build_dir / "main" / d / t for d, t in programs()]
    binaries.append(build_dir / "suite" / "wdoc_suite")
    kept = collections.Counter()
    for binary in binaries:
        for name, count in symbols(binary).items():
            kept[name] = max(kept[name], count)

    # Constructor and destructor variants (C1/C2, D0/D1/D2) demangle alike;
    # a demangled name is kept when any of its symbols is.
    readable = demangle(sorted(defined))
    kept_names = {readable[name] for name, count in defined.items()
                  if kept[name] >= count}
    unused = sorted({
        (library_of[name], readable[name]) for name in defined
        if readable[name] not in kept_names and "{lambda(" not in readable[name]
        and not readable[name].startswith(SKIPPED_SCOPES)})

    allowed = read_allowlist(ROOT / "tools" / "unused_api.allow")
    listed = {name for _, name in unused}
    stray = [(lib, name) for lib, name in unused if name not in allowed]
    stale = sorted(name for name in allowed if name not in listed)

    print(f"{len(defined)} wdoc:: function symbols in the libraries, "
          f"{len(unused)} kept by no binary, {len(allowed)} allowlisted")
    for lib, name in stray:
        print(f"unused: {lib}: {name}")
    for name in stale:
        print(f"stale allowlist entry (kept by a binary, or gone): {name}")
    return 1 if stray or stale else 0


if __name__ == "__main__":
    sys.exit(main())
