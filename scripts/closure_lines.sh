#!/usr/bin/env bash
# Prints the .ml/.mli line count of each library bin/netembed_server
# links and their total, then the total for all of lib/.  The closure
# comes from `dune describe workspace`: the executable's requires,
# followed through each library's own.
#
#   ./scripts/closure_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

dune describe workspace --lang 0.1 | python3 -c '
import os, re, sys

stack = [[]]
for tok in re.findall(r"\(|\)|[^\s()]+", sys.stdin.read()):
    if tok == "(":
        stack.append([])
    elif tok == ")":
        done = stack.pop()
        stack[-1].append(done)
    else:
        stack[-1].append(tok)
stanzas = [(s[0], {f[0]: f[1:] for f in s[1]})
           for s in stack[0][0] if s[0] in ("library", "executables")]
libs = {body["uid"][0]: body for kind, body in stanzas if kind == "library"}
server = next(body for kind, body in stanzas
              if kind == "executables" and "netembed_server" in body["names"][0])

def lines(d):
    return sum(sum(1 for _ in open(os.path.join(d, n), "rb"))
               for n in os.listdir(d) if n.endswith((".ml", ".mli")))

seen, todo = set(), list(server["requires"][0])
while todo:
    uid = todo.pop()
    if uid in libs and uid not in seen:
        seen.add(uid)
        todo += libs[uid]["requires"][0]
local = sorted((libs[u]["name"][0], libs[u]["source_dir"][0])
               for u in seen if libs[u]["local"] == ["true"])
for name, d in local:
    print(f"  {name:24s} {lines(d):6d}")
print(f"server closure: {sum(lines(d) for _, d in local)} lines in {len(local)} libraries")
lib = sum(lines(d) for d, _, _ in os.walk("lib"))
print(f"lib/ total: {lib} lines")
'
