"""Permutations of a finite alphabet and small concrete groups.

Composition applies the right factor first, (p * q)(a) = p(q(a)), and every
multiplication table built here follows the same convention.  Element 0 of a
FiniteGroup is always its identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

CLOSURE_CAP = 10_000
CENTRALIZER_DEGREE_CAP = 8
NORMAL_SUBGROUP_ORDER_CAP = 1_000


class Perm:
    """Permutation of {0..degree-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(a) for a in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..%d: %r" % (len(images) - 1, images))
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles) -> "Perm":
        images, moved = list(range(degree)), set()
        for cyc in cycles:
            for a in cyc:
                if not 0 <= a < degree or a in moved:
                    raise ValueError("cycle point %d is %s a permutation of degree %d"
                                     % (a, "repeated in" if a in moved else "outside", degree))
                moved.add(a)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == a for i, a in enumerate(self.images))

    def __call__(self, a: int) -> int:
        return self.images[a]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        return Perm(self.images[b] for b in other.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for a, b in enumerate(self.images):
            inv[b] = a
        return Perm(inv)

    def _cycles(self):
        """Each cycle as a list of points from its least point, fixed points included."""
        seen = [False] * self.degree
        for a in range(self.degree):
            cycle = []
            while not seen[a]:
                seen[a] = True
                cycle.append(a)
                a = self.images[a]
            if cycle:
                yield cycle

    def order(self) -> int:
        return math.lcm(*(len(cycle) for cycle in self._cycles()))

    def cycle_string(self, names=None) -> str:
        names = names or [str(a) for a in range(self.degree)]
        parts = ["(" + " ".join(names[a] for a in cycle) + ")" for cycle in self._cycles() if len(cycle) > 1]
        return "".join(parts) or "e"

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm%r" % (self.images,)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    element_names are display labels; index 0 is the identity.  Construction
    validates the identity row and column and that rows and columns are
    permutations; full associativity is available through check().
    """

    def __init__(self, element_names, mult):
        self.element_names = tuple(str(s) for s in element_names)
        m = len(self.element_names)
        table = np.asarray(mult, dtype=np.int32)
        if table.shape != (m, m):
            raise ValueError("multiplication table must be %dx%d" % (m, m))
        if table.min(initial=0) < 0 or table.max(initial=0) >= m:
            raise ValueError("table entries out of range 0..%d" % (m - 1))
        if not (np.array_equal(table[0], np.arange(m)) and np.array_equal(table[:, 0], np.arange(m))):
            raise ValueError("element 0 must be the identity")
        # latin square and inverse checks over blocks of about 2^20 entries:
        # a Zn(10000) table alone is 400 MB, so none makes a table-sized copy
        ident = np.arange(m)
        step = max(1, (1 << 20) // m)
        blocks = [slice(lo, lo + step) for lo in range(0, m, step)]
        if not all((np.sort(table[b], axis=1) == ident).all() for b in blocks):
            raise ValueError("rows must be permutations")
        if not all((np.sort(table[:, b], axis=0) == ident[:, None]).all() for b in blocks):
            raise ValueError("columns must be permutations")
        # each row holds one 0, at the right inverse; it must be a left inverse too
        inv = np.concatenate([np.argmax(table[b] == 0, axis=1) for b in blocks]).astype(np.int32)
        bad = np.flatnonzero(table[inv, ident])
        if len(bad):
            raise ValueError("element %d has no two-sided inverse" % bad[0])
        table.flags.writeable = False
        self.table = table
        inv.flags.writeable = False
        self.inverse = inv

    @property
    def order(self) -> int:
        return len(self.element_names)

    def _elements(self, indices) -> list:
        """The element indices as ints; ValueError names the least below 0, else the largest past the order."""
        indices = [int(a) for a in indices]
        for a in (min(indices, default=0), max(indices, default=0)):
            if not 0 <= a < self.order:
                raise ValueError("element index %d is outside a group of order %d" % (a, self.order))
        return indices

    def mul(self, a: int, b: int) -> int:
        a, b = self._elements((a, b))
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        (a,) = self._elements((a,))
        return int(self.inverse[a])

    def product(self, indices) -> int:
        """Left-to-right product of a sequence of element indices."""
        acc = 0
        for a in self._elements(indices):
            acc = int(self.table[acc, a])
        return acc

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def check(self) -> None:
        """Assert full associativity (O(order^3); for tests)."""
        t = self.table
        # left[a,b,c] = (ab)c, right[a,b,c] = a(bc)
        if not np.array_equal(t[t, :], t[:, t]):
            raise AssertionError("multiplication table is not associative")

    def subgroup_closure(self, subset) -> frozenset:
        """Smallest subgroup containing the given element indices: a walk from the identity along their rows."""
        gens = sorted(set(self._elements(subset)))
        inside = np.arange(self.order) == 0
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            reached = inside.copy()
            for g in gens:
                reached[self.table[g, frontier]] = True
            frontier = np.flatnonzero(reached & ~inside)
            inside = reached
        return frozenset(np.flatnonzero(inside).tolist())

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


@dataclass(frozen=True)
class GroupEmbedding:
    """Permutation realization of a FiniteGroup: index -> Perm."""

    group: FiniteGroup
    images: tuple

    @property
    def degree(self) -> int:
        return self.images[0].degree


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), ((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive, got %d" % n)
    names = tuple(str(a) for a in range(n))
    table = np.add.outer(np.arange(n, dtype=np.int32), np.arange(n, dtype=np.int32))
    table %= n  # in place: Zn(10000) is 400 MB
    return FiniteGroup(names, table)


def symmetric_group(degree: int) -> "tuple[FiniteGroup, GroupEmbedding]":
    """Full symmetric group on 0..degree-1; degree <= 6 keeps the table small."""
    if degree < 1:
        raise ValueError("degree must be positive, got %d" % degree)
    if degree > 6:
        raise CapacityError("S_%d multiplication table is too large; capped at degree 6" % degree)
    perms = [Perm(p) for p in itertools.permutations(range(degree))]
    return _group_from_perms(perms)


def _group_from_perms(perms):
    """Build (FiniteGroup, GroupEmbedding) from a closed perm list, identity first.

    Each element a walk from the identity has not reached becomes a generator g, whose left map
    L_g[x] = index of g * perms[x] is m products looked up among the images; an element b first
    reached as g * perms[c] gets row b = L_g[row c].  Every element is a product of generators,
    so the list is closed exactly when no L_g leaves it, and a product outside it refuses the list.
    """
    if not perms[0].is_identity:
        raise ValueError("element 0 must be the identity")
    m = len(perms)
    stack = np.array([p.images for p in perms], dtype=np.int32)
    index = {images.tobytes(): i for i, images in enumerate(stack)}
    table = np.zeros((m, m), dtype=np.int32)  # row b is filled once table[b, 0] = b * e = b
    table[0] = np.arange(m)
    walk, lefts = [0], []
    for g in range(1, m):
        if table[g, 0] == g:
            continue
        try:
            lefts.append(np.array([index[images.tobytes()] for images in stack[g][stack]], dtype=np.int32))
        except KeyError:
            raise ValueError("permutations are not closed under composition") from None
        for c in walk:  # grows as it goes: every element reached so far and each new one, times every generator
            for left in lefts:
                b = left[c]
                if table[b, 0] != b:
                    np.take(left, table[c], out=table[b])
                    walk.append(b)
    names = tuple(p.cycle_string() for p in perms)
    group = FiniteGroup(names, table)
    return group, GroupEmbedding(group, tuple(perms))


def closure(generators, degree=None, size_cap: int = CLOSURE_CAP):
    """BFS closure of permutation generators.

    Returns (FiniteGroup, GroupEmbedding) with elements in discovery order,
    identity first.  Raises CapacityError past size_cap and ValueError on
    mixed degrees or a degree below 1.
    """
    gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
    degrees = {g.degree for g in gens}
    if len(degrees) > 1:
        raise ValueError("generators act on different alphabets: degrees %s" % sorted(degrees))
    if degree is None:
        degree = degrees.pop() if degrees else 1
    elif degrees and degrees.pop() != degree:
        raise ValueError("generator degree does not match degree=%d" % degree)
    if degree < 1:
        raise ValueError("degree must be positive, got %d" % degree)

    elems = [Perm.identity(degree)]
    found = set(elems)
    for g in elems:  # grows as it goes, so elements are multiplied in the order they are found
        for h in gens:
            prod = g * h
            if prod not in found:
                if len(elems) >= size_cap:
                    raise CapacityError("closure exceeded cap of %d elements" % size_cap)
                found.add(prod)
                elems.append(prod)
    return _group_from_perms(elems)


def centralizer_in_sym(perms, degree=None):
    """Centralizer of a set of permutations inside the ambient symmetric group.

    Enumerates the whole symmetric group, so degree is capped at 8, and
    raises CapacityError before building the table of a centralizer with more
    than CLOSURE_CAP elements.  Returns (FiniteGroup, GroupEmbedding).
    """
    perms = [p if isinstance(p, Perm) else Perm(p) for p in perms]
    degrees = {p.degree for p in perms}
    if len(degrees) > 1:
        raise ValueError("permutations act on different alphabets: degrees %s" % sorted(degrees))
    if degree is None:
        if not degrees:
            raise ValueError("degree is required when no permutations are given")
        degree = degrees.pop()
    elif degrees and degrees.pop() != degree:
        raise ValueError("permutation degree does not match degree=%d" % degree)
    if degree < 1:
        raise ValueError("degree must be positive, got %d" % degree)
    if degree > CENTRALIZER_DEGREE_CAP:
        raise CapacityError(
            "full enumeration of S_%d is capped at degree %d" % (degree, CENTRALIZER_DEGREE_CAP)
        )

    fixed = [np.array(p.images) for p in perms]
    commuting = []
    for cand in itertools.permutations(range(degree)):
        c = np.array(cand)
        if all(np.array_equal(c[f], f[c]) for f in fixed):
            commuting.append(Perm(cand))
    if len(commuting) > CLOSURE_CAP:
        raise CapacityError("centralizer of order %d exceeds the cap of %d elements" % (len(commuting), CLOSURE_CAP))
    # lexicographic enumeration starts at the identity
    return _group_from_perms(commuting)


def normal_subgroups(group: FiniteGroup):
    """All normal subgroups, sorted by size then by element indices.

    Every normal subgroup is a union of conjugacy classes, and a normal subgroup closed with a whole
    class C is normal again.  That closure is the closure with the normal subgroup <C> C generates,
    so a walk from {e} closing each subgroup with each distinct <C> outside it meets just these.
    """
    if group.order > NORMAL_SUBGROUP_ORDER_CAP:
        raise CapacityError("normal subgroup scan capped at order %d, got %d" % (NORMAL_SUBGROUP_ORDER_CAP, group.order))
    # the class of a is its conjugates (g a) g^-1 over all g, one O(order) gather per element
    classes = {tuple(np.unique(group.table[group.table[:, a], group.inverse]).tolist()) for a in range(group.order)}
    closures = sorted({group.subgroup_closure(cls) for cls in classes}, key=lambda s: (len(s), sorted(s)))
    subgroups = [frozenset({0})]
    found = set(subgroups)
    for sub in subgroups:  # grows as it goes: each subgroup is a smaller one closed with one more <C>
        for closed in closures:
            if not closed <= sub:
                bigger = group.subgroup_closure(sub | closed)
                if bigger not in found:
                    found.add(bigger)
                    subgroups.append(bigger)
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def quotient(group: FiniteGroup, normal):
    """Quotient G/H with its projection.

    Returns (FiniteGroup, projection tuple mapping element index to coset
    index).  Cosets are numbered and named by their least elements, in
    ascending order, so the coset of the identity is element 0.  Raises
    ValueError if the subset is not a normal subgroup.
    """
    sub = frozenset(int(a) for a in normal)
    if 0 not in sub:
        raise ValueError("a subgroup must contain the identity")
    if group.subgroup_closure(sub) != sub:
        raise ValueError("subset is not closed under multiplication")
    inside = np.isin(np.arange(group.order), list(sub))
    fails = np.zeros(group.order, dtype=bool)
    least = np.arange(group.order)  # the least element of the coset gH, at g
    for h in sub:
        fails |= ~inside[group.table[group.table[:, h], group.inverse]]  # (g h) g^-1 at g
        np.minimum(least, group.table[:, h], out=least)
    if fails.any():
        raise ValueError("subgroup is not normal (fails at element %d)" % fails.argmax())
    reps = np.flatnonzero(least == np.arange(group.order))
    coset_of = np.searchsorted(reps, least)
    names = tuple("[%s]" % group.element_names[r] for r in reps)
    return FiniteGroup(names, coset_of[group.table[np.ix_(reps, reps)]]), tuple(coset_of.tolist())
