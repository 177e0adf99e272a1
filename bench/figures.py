"""Reference figures, each measured once and not gated.

    python3 bench/figures.py

- default_site(S4) under two hash seeds;
- corr at order 7: Z7, multiplicative Z/7, the left-zero band with unit;
- the order-8 refusals of corr and end, with the guard that refused.

Each figure runs in its own interpreter, capped at 3 GiB of address space,
one after another.  Results go to bench/results/figures.json.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAP = 3 << 30

CHILD = r"""
import contextlib, io, json, os, resource, sys, tempfile, time
resource.setrlimit(resource.RLIMIT_AS, (%(cap)d, %(cap)d))
sys.path[:0] = [%(src)r, %(here)r]
import monoids, galmon, galmon.cli
table = getattr(monoids, %(maker)r)(*%(args)r).relabel()
if %(command)r == "default_site":
    m = galmon.cli.parse_monoid(table.doc())
    t0 = time.perf_counter()
    site = galmon.default_site(m)
    print(json.dumps({"seconds": time.perf_counter() - t0, "code": 0,
                      "objects": len(site.names)}))
else:
    with tempfile.TemporaryDirectory(dir=%(here)r) as d:
        path = os.path.join(d, "m.json")
        monoids.write(path, table.doc())
        argv = [%(command)r, "--monoid", path]
        if %(command)r == "stab":
            argv += ["--sub", os.path.join(d, "v.json")]
            monoids.write(argv[-1], {"subsets": {}})
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = galmon.cli.run(argv)
        dt = time.perf_counter() - t0
    out = json.loads(buf.getvalue())
    print(json.dumps({"seconds": dt, "code": code, "error": out.get("error")}))
"""

FIGURES = [
    ("default_site", "symmetric4", (), "0"),
    ("default_site", "symmetric4", (), "1"),
    ("corr", "cyclic", (7,), "0"),
    ("corr", "mult_mod", (7,), "0"),
    ("corr", "left_zero_band", (7,), "0"),
] + [(command, maker, args, "0")
     for maker, args in (("dihedral", (4,)), ("quaternion", ()), ("cyclic", (8,)),
                         ("mult_mod", (8,)))
     for command in ("corr", "laws", "end", "stab")]


def main():
    results = []
    for command, maker, args, hash_seed in FIGURES:
        src = CHILD % {"cap": CAP, "src": os.path.join(ROOT, "src"), "here": HERE,
                       "maker": maker, "args": args, "command": command}
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", src], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        entry = {"command": command, "monoid": "%s%r" % (maker, args),
                 "hash_seed": hash_seed, "wall_s": time.perf_counter() - t0}
        if proc.returncode == 0:
            entry.update(json.loads(proc.stdout.splitlines()[-1]))
        else:
            entry["crash"] = proc.stderr.strip().splitlines()[-1:]
        results.append(entry)
        print(json.dumps(entry), flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "figures.json"), "w") as fd:
        json.dump(results, fd, indent=1)


if __name__ == "__main__":
    main()
