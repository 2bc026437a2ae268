#!/usr/bin/env bash
# Prints the .ml/.mli line count of each library bin/netembed_server
# links and their total, then the total for all of lib/.  The closure
# comes from `dune describe workspace`: the executable's requires,
# followed through each library's own.
#
# Then a census: every module of those libraries that no name reachable
# from bin/netembed_server.ml mentions, with the reason it stays in the
# closure.  The walk is by name: a module reaches each module whose name
# its code (comments and strings left out) spells, qualified by its
# library, unqualified within its own library, or after an open of the
# library.  A module printed with "no reason recorded" is code the
# server links and never runs.
#
#   ./scripts/closure_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PY'
import os, re, subprocess

describe = subprocess.run(["dune", "describe", "workspace", "--lang", "0.1"],
                          check=True, capture_output=True, text=True).stdout
stack = [[]]
for tok in re.findall(r"\(|\)|[^\s()]+", describe):
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

# The census.  Why a module the server never names stays where it is.
reasons = {
    "Sample": "svcbench links it from netembed_graph; it moves only with svcbench",
    "Verify": "svcbench checks every mapping with it",
}

def sources(fields):
    # A module's .ml and .mli, without dune's generated alias modules.
    return [f[1][0] for f in fields
            if f[0] in ("impl", "intf") and f[1] and not f[1][0].endswith("-gen")]

def name_of(fields):
    return next(f[1] for f in fields if f[0] == "name")

# modules[(library, Module)] = its source files.
modules, wrappers = {}, {}
for u in seen:
    name = libs[u]["name"][0]
    if libs[u]["local"] != ["true"]:
        continue
    wrappers[name.capitalize()] = name
    for fields in libs[u]["modules"][0]:
        if sources(fields):
            modules[(name, name_of(fields))] = sources(fields)

CHAR = re.compile(r"'(?:\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|.)|[^\\'\n])'")

def code(path):
    # The source without comments (which nest), strings and characters.
    s, out, i, depth = open(path, encoding="utf-8").read(), [], 0, 0
    while i < len(s):
        if s.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and s.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif s[i] == '"':
            i += 1
            while i < len(s) and s[i] != '"':
                i += 2 if s[i] == "\\" else 1
            i += 1
        elif s[i] == "'" and CHAR.match(s, i):
            i = CHAR.match(s, i).end()
        else:
            if not depth:
                out.append(s[i])
            i += 1
    return "".join(out)

def named(path, own):
    # The closure modules a file names.  A library named alone (open,
    # let open, a local open) puts its modules in scope.
    paths = [p.split(".") for p in
             re.findall(r"\b[A-Z][\w']*(?:\.[A-Z][\w']*)*", code(path))]
    scope = {own} | {wrappers[p[0]] for p in paths if len(p) == 1 and p[0] in wrappers}
    out = set()
    for p in paths:
        if p[0] in wrappers and len(p) > 1:
            out.add((wrappers[p[0]], p[1]))
        out |= {(l, p[0]) for l in scope}
    return out & modules.keys()

start = next(src for fields in server["modules"][0] for src in sources(fields)
             if src.endswith("netembed_server.ml"))
reached, todo = set(), list(named(start, None))
while todo:
    key = todo.pop()
    if key not in reached:
        reached.add(key)
        todo += [k for src in modules[key] for k in named(src, key[0])]
unreached = sorted(modules.keys() - reached)
print(f"census: {len(unreached)} closure modules that no name from "
      f"bin/netembed_server.ml reaches")
for l, m in unreached:
    n = sum(sum(1 for _ in open(src, "rb")) for src in modules[(l, m)])
    why = reasons.get(m, "no reason recorded")
    print(f"  {l + '.' + m:32s} {n:6d}  {why}")
PY
