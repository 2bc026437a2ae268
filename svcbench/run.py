#!/usr/bin/env python3
"""Build and run the in-process NETEMBED service benchmark.

Run from the root of a source tree:

    python3 svcbench/run.py --workload tenant_churn --seed 1 --seconds 10 --trace 0

The benchmark is the OCaml program svcbench/main.exe, built here with
dune from the tree's own sources.  Build output goes to stderr; stdout
is the benchmark's report, whose last line is one JSON result.  The
exit code is the benchmark's (non-zero on a failed build or on any
output that fails its correctness check).  Inputs, the substrate file
and the span trace of --trace 1 runs go to svcbench/_out/.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "svcbench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("lib", "svcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "--cache=disabled", "./svcbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("svcbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    args = [EXE] + sys.argv[1:] + ["--out", OUT, "--commit", source_revision()]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
