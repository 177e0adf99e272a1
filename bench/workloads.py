"""The three workloads: their monoids, their operations and the check each
operation's output must pass.

Every table is built here from a formula or from permutation generators,
relabelled by the workload seed and written as a CLI input file; galmon
reads nothing else.  Operation lists are fixed, so every run attempts
whole rounds of the same operations whatever the seed.
"""

import os
import random

import monoids
import reference


class Op:
    """One timed operation: a CLI command, or a default_site build."""

    def __init__(self, name, check, argv=None, monoid_path=None):
        self.name = name
        self.argv = argv
        self.monoid_path = monoid_path
        self.check = check  # parsed output (or Site) -> raises Mismatch


def _cli(name, command, path, check, *extra):
    return Op("%s %s" % (command, name), check,
              argv=[command, "--monoid", path] + list(extra))


class Inputs:
    """Writes relabelled tables into a work directory, with a reference each."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.written = set()

    def monoid(self, table, shuffle=True):
        t = table.relabel(self.rng if shuffle else None)
        monoids.check_laws(t)
        if t.name in self.written:
            raise ValueError("%s is written twice" % t.name)
        self.written.add(t.name)
        path = os.path.join(self.workdir, "%s.json" % t.name)
        monoids.write(path, t.doc())
        return path, reference.Reference(t)

    def subfunctor(self, name, V):
        path = os.path.join(self.workdir, "%s.json" % name)
        monoids.write(path, {"subsets": V})
        return path


def correspondence(inp):
    """corr where finset exponentials do the work; dense subgroup scans."""
    ops = []
    paths = {}
    for table in (monoids.symmetric3(), monoids.cyclic(6), monoids.mult_mod(6),
                  monoids.cyclic(4), monoids.klein_four(), monoids.cyclic(5),
                  monoids.idempotent_pair(), monoids.mult_mod(5)):
        path, ref = paths[table.name] = inp.monoid(table)
        ops.append(_cli(table.name, "corr", path,
                        lambda out, ref=ref: reference.check_corr(out, ref)))
    path, ref = paths["Z6"]
    seed = inp.rng.randrange(1 << 30)
    ops.append(_cli("Z6", "laws", path,
                    lambda out, ref=ref: reference.check_laws(out, ref, seed),
                    "--seed", str(seed)))
    for table in (monoids.left_zero_band(13), monoids.mult_mod(16)):
        path, ref = inp.monoid(table)
        ops.append(_cli(table.name, "subgroups", path,
                        lambda out, ref=ref: reference.check_subgroups(out, ref)))
    return ops


def ends(inp):
    """end and stab, where ends.internal_nat does the work."""
    ops = []
    paths = {}
    for table in (monoids.symmetric3(), monoids.cyclic(6), monoids.cyclic(7),
                  monoids.mult_mod(6), monoids.mult_mod(7)):
        path, ref = paths[table.name] = inp.monoid(table)
        ops.append(_cli(table.name, "end", path,
                        lambda out, ref=ref: reference.check_end(out, ref)))
    path, ref = paths["S3"]
    for k, S in enumerate(ref.submonoids):
        V = ref.invariants(S)
        sub = inp.subfunctor("S3-inv%d" % k, V)
        ops.append(Op("stab S3 inv%d" % k,
                      lambda out, ref=ref, V=V: reference.check_stab(out, ref, V),
                      argv=["stab", "--monoid", path, "--sub", sub]))
    return ops


def lattices(inp):
    """Sparse subgroup lattices: the subset scan and the coset sites.

    D8, D9 and D10 keep the labels in the order their elements were built.
    The scan's work depends on which element carries which label, through
    the iteration order of a set of strings: D10's subgroups took 2.0 s to
    6.9 s over five seeded labellings, which would swamp any change to the
    code.  The seed relabels the smaller groups only.
    """
    ops = []
    for table in (monoids.dihedral(4), monoids.quaternion(), monoids.cyclic(8),
                  monoids.alternating4(), monoids.dihedral(6), monoids.dihedral(8),
                  monoids.dihedral(9), monoids.dihedral(10)):
        path, ref = inp.monoid(table, shuffle=len(table) <= 12)
        ops.append(_cli(table.name, "subgroups", path,
                        lambda out, ref=ref: reference.check_subgroups(out, ref)))
        ops.append(Op("default_site %s" % table.name,
                      lambda site, ref=ref: reference.check_site(site, ref),
                      monoid_path=path))
    return ops


WORKLOADS = {"correspondence": correspondence, "ends": ends, "lattices": lattices}


def build(name, workdir, seed):
    return WORKLOADS[name](Inputs(workdir, seed))
