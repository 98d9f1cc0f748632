"""Print one hash per finite group: its table, names, inverses and embedding, then its normal subgroups and quotients.

The hash of a group covers the bytes of its multiplication table and of its
inverse array, its element names and, for a permutation group, the image
tuple of every element.  The groups are the symmetric groups S_1 to S_6, a
few cyclic groups Zn, closures of seeded random generator sets of degree 2
to 7 (each closed under a cap of CAP elements, so a set that generates more
prints the CapacityError instead; S_7 itself is closed once, from a 7-cycle
and a transposition), centralizers of seeded random permutation sets, and
the group cover of every substitution of specs/*.spec,
tests/fixtures/specs/valid/*.spec and any spec files named on the command
line.  For each group of order up to NORMAL_ORDER, and for each cover, a
second line hashes normal_subgroups and, for each normal subgroup, the
quotient's table, names, inverses and projection.  A call that raises prints
the exception's type and message instead of a hash.  Run from the
repository root, once with each tree's src on PYTHONPATH, and diff the two
outputs:

    PYTHONPATH=src python tools/group_sweep.py [extra.spec ...] > after.txt

tools/compare_sweeps.py REV does this, and the same for the other sweeps,
against the src of the git revision REV.
"""

import hashlib
import os
import pathlib
import random
import sys

from mobiuslab import permgrp, subst
from mobiuslab.cli import load_document
from mobiuslab.permgrp import Perm

ROOT = pathlib.Path(__file__).resolve().parent.parent
CAP = 1000
NORMAL_ORDER = 120
CYCLIC = (1, 2, 6, 12, 30, 97)


def group_hash(h, group) -> None:
    h.update(group.table.tobytes())
    h.update(group.inverse.tobytes())
    h.update("\0".join(group.element_names).encode("utf-8") + b"\1")


def describe(group, embedding=None) -> str:
    h = hashlib.sha256()
    group_hash(h, group)
    if embedding is not None:
        h.update(repr([p.images for p in embedding.images]).encode("ascii"))
    return "%s order=%d" % (h.hexdigest()[:16], group.order)


def describe_normals(group) -> str:
    h = hashlib.sha256()
    normals = permgrp.normal_subgroups(group)
    for sub in normals:
        h.update(repr(sorted(sub)).encode("ascii"))
        quotient, projection = permgrp.quotient(group, sub)
        group_hash(h, quotient)
        h.update(repr(projection).encode("ascii"))
    return "%s normals=%d" % (h.hexdigest()[:16], len(normals))


def random_perm(rng, degree) -> Perm:
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(images)


def groups(extra):
    """(label, group, embedding or None) for every group the sweep hashes; CapacityError and ValueError as values."""
    for degree in range(1, 7):
        yield ("S_%d" % degree,) + permgrp.symmetric_group(degree)
    for n in CYCLIC:
        yield "Z%d" % n, permgrp.cyclic_group(n), None
    yield ("S_7 <(0 1 2 3 4 5 6), (0 1)>",) + permgrp.closure(
        [Perm.from_cycles(7, tuple(range(7))), Perm.from_cycles(7, (0, 1))])
    rng = random.Random(2026)
    for degree in range(2, 8):
        for count in (1, 1, 2, 2, 3):
            gens = [random_perm(rng, degree) for _ in range(count)]
            label = "closure %s" % " ".join(g.cycle_string() for g in gens)
            try:
                yield (label,) + permgrp.closure(gens, size_cap=CAP)
            except permgrp.CapacityError as exc:
                yield label, exc, None
    for degree in range(1, 7):
        for count in (0, 1, 2):
            perms = [random_perm(rng, degree) for _ in range(count)]
            label = "centralizer %d %s" % (degree, " ".join(p.cycle_string() for p in perms))
            yield (label,) + permgrp.centralizer_in_sym(perms, degree=degree)
    specs = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("specs/*.spec"))
    specs += sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("tests/fixtures/specs/valid/*.spec"))
    for spec in specs + extra:
        for name, bound in sorted(load_document(spec).bound.items()):
            if bound.kind == "substitution":
                try:
                    cover = subst.group_cover(bound.definition)
                except ValueError as exc:
                    yield "cover %s %s" % (spec, name), exc, None
                else:
                    yield "cover %s %s" % (spec, name), cover.group, cover.embedding


def main(extra) -> int:
    extra = [os.path.abspath(spec) for spec in extra]
    os.chdir(ROOT)
    for label, group, embedding in groups(extra):
        if isinstance(group, Exception):
            print("raised %s: %s  %s" % (type(group).__name__, group, label), flush=True)
            continue
        print("%s  %s" % (describe(group, embedding), label), flush=True)
        if group.order <= NORMAL_ORDER or label.startswith("cover "):
            try:
                line = describe_normals(group)
            except permgrp.CapacityError as exc:  # a cover past NORMAL_SUBGROUP_ORDER_CAP
                line = "raised CapacityError: %s" % exc
            print("%s  %s" % (line, label), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
