import itertools
import time

import numpy as np
import pytest

from mobiuslab.errors import CapacityError
from mobiuslab.morse import block_product
from mobiuslab.permgrp import (
    FiniteGroup,
    Perm,
    _group_from_perms,
    centralizer_in_sym,
    closure,
    cyclic_group,
    normal_subgroups,
    quotient,
    symmetric_group,
    trivial_group,
)
from mobiuslab.subst import Substitution, group_cover


def test_perm_composition_convention():
    # (p*q)(a) = p(q(a))
    p = Perm((1, 2, 0))
    q = Perm((1, 0, 2))
    pq = p * q
    for a in range(3):
        assert pq(a) == p(q(a))
    assert (p * p.inverse()).is_identity


def test_perm_basics():
    e = Perm.identity(4)
    assert e.is_identity and e.degree == 4 and e.order() == 1
    t = Perm.from_cycles(3, (0, 1))
    assert t.images == (1, 0, 2)
    assert t.order() == 2
    c = Perm.from_cycles(4, (0, 1, 2), (3,))
    assert c.order() == 3
    assert Perm.from_cycles(6, (0, 1), (2, 3, 4)).order() == 6


def test_cycle_string():
    assert Perm.identity(3).cycle_string() == "e"
    assert Perm.from_cycles(3, (0, 1)).cycle_string() == "(0 1)"
    assert Perm.from_cycles(3, (1, 2)).cycle_string(("a", "b", "c")) == "(b c)"
    assert Perm.from_cycles(4, (0, 2), (1, 3)).cycle_string() == "(0 2)(1 3)"


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((0, 3))
    p = Perm((1, 0))
    q = Perm((1, 2, 0))
    with pytest.raises(ValueError):
        p * q


def test_cycles_with_points_outside_the_degree_or_repeated_are_refused():
    with pytest.raises(ValueError, match="^cycle point 5 is outside a permutation of degree 3$"):
        Perm.from_cycles(3, (0, 5))
    with pytest.raises(ValueError, match="^cycle point -1 is outside a permutation of degree 3$"):
        Perm.from_cycles(3, (-1, 0))
    with pytest.raises(ValueError, match="^cycle point 0 is repeated in a permutation of degree 3$"):
        Perm.from_cycles(3, (0, 0))
    with pytest.raises(ValueError, match="^cycle point 1 is repeated in a permutation of degree 4$"):
        Perm.from_cycles(4, (0, 1), (1, 2))


def test_closure_examples():
    g, emb = closure([Perm.from_cycles(2, (0, 1))])
    assert g.order == 2
    g, emb = closure([Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (1, 2))])
    assert g.order == 6
    assert emb.images[0].is_identity
    g, _ = closure([], degree=5)
    assert g.order == 1


def test_closure_is_homomorphism():
    gens = [Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (0, 1, 2, 3))]
    g, emb = closure(gens)
    assert g.order == 24
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.integers(0, g.order, size=2)
        assert emb.images[g.mul(int(a), int(b))] == emb.images[int(a)] * emb.images[int(b)]
    g.check()


def test_closure_subgroup_orders_divide():
    # Lagrange on random generated subgroups of S_4
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        gens = [Perm(tuple(map(int, rng.permutation(4)))) for _ in range(k)]
        g, _ = closure(gens)
        assert 24 % g.order == 0


def test_closure_caps_and_mixed_degree():
    with pytest.raises(ValueError):
        closure([Perm((1, 0)), Perm((1, 2, 0))])
    big = [Perm.from_cycles(8, (0, 1)), Perm.from_cycles(8, tuple(range(8)))]
    with pytest.raises(CapacityError):
        closure(big, size_cap=1000)
    g, _ = closure([])
    assert g.order == 1


def test_finite_group_validation():
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), [[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), [[1, 0], [0, 1]])  # 0 not the identity
    z3 = cyclic_group(3)
    z3.check()
    assert z3.is_abelian
    assert z3.mul(1, 2) == 0 and z3.inv(1) == 2
    assert z3.product([1, 1, 1]) == 0
    assert z3.product([]) == 0


# a loop: a latin square with identity 0, where 2 * 3 = 0 but 3 * 2 = 1
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def test_latin_loop_without_two_sided_inverses_is_refused():
    with pytest.raises(ValueError, match="^element 2 has no two-sided inverse$"):
        FiniteGroup(tuple("01234"), LOOP5)


def test_latin_checks_span_every_block_of_rows():
    """1500 rows are checked about 700 at a time; break the last block only."""
    m = 1500
    cyclic = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    assert cyclic_group(m).inverse.tolist() == [(-a) % m for a in range(m)]
    rows = cyclic.copy()
    rows[1499, 3] = rows[1499, 4]
    columns = cyclic.copy()
    columns[1400, [5, 6]] = columns[1400, [6, 5]]
    names = tuple(map(str, range(m)))
    with pytest.raises(ValueError, match="^rows must be permutations$"):
        FiniteGroup(names, rows)
    with pytest.raises(ValueError, match="^columns must be permutations$"):
        FiniteGroup(names, columns)


def test_symmetric_groups():
    for r, order in ((1, 1), (2, 2), (3, 6), (4, 24)):
        g, emb = symmetric_group(r)
        assert g.order == order
        assert emb.images[0].is_identity
    s3, _ = symmetric_group(3)
    assert not s3.is_abelian
    with pytest.raises(CapacityError):
        symmetric_group(7)


def test_subgroup_closure():
    s3, emb = symmetric_group(3)
    assert s3.subgroup_closure({0}) == frozenset({0})
    three_cycle = next(i for i, p in enumerate(emb.images) if p.order() == 3)
    sub = s3.subgroup_closure({three_cycle})
    assert len(sub) == 3
    assert s3.subgroup_closure(sub | {1}) == frozenset(range(6))


def test_centralizer_examples():
    g, _ = centralizer_in_sym([Perm.from_cycles(2, (0, 1))])
    assert g.order == 2
    g, _ = centralizer_in_sym([Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (1, 2))])
    assert g.order == 1
    g, _ = centralizer_in_sym([], degree=3)
    assert g.order == 6
    # centralizer of a full cycle is the cyclic group it generates
    g, _ = centralizer_in_sym([Perm.from_cycles(5, tuple(range(5)))])
    assert g.order == 5
    with pytest.raises(CapacityError):
        centralizer_in_sym([], degree=9)


@pytest.mark.parametrize("perms, degree", [([], 8), ([Perm.identity(8)], None)], ids=["no_constraint", "identity"])
def test_a_centralizer_past_the_closure_cap_is_refused_before_its_table(perms, degree):
    # all 40,320 permutations of degree 8 commute; their table would take 6.5 GB
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="centralizer of order 40320 exceeds the cap of 10000 elements"):
        centralizer_in_sym(perms, degree=degree)
    assert time.perf_counter() - start < 5


def test_centralizer_really_commutes():
    sigma = [Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (2, 3))]
    g, emb = centralizer_in_sym(sigma)
    for p in emb.images:
        for s in sigma:
            assert p * s == s * p
    assert g.order == 4


def test_normal_subgroups():
    s3, _ = symmetric_group(3)
    sizes = [len(h) for h in normal_subgroups(s3)]
    assert sizes == [1, 3, 6]
    assert [len(h) for h in normal_subgroups(cyclic_group(4))] == [1, 2, 4]
    assert [len(h) for h in normal_subgroups(trivial_group())] == [1]
    s4, _ = symmetric_group(4)
    assert [len(h) for h in normal_subgroups(s4)] == [1, 4, 12, 24]
    s6, _ = symmetric_group(6)
    assert [len(h) for h in normal_subgroups(s6)] == [1, 360, 720]


def normal_subgroups_by_class_walk(group):
    """The walk from {e} that closes each normal subgroup with each conjugacy class outside it."""
    classes = sorted({tuple(sorted({group.mul(group.mul(g, a), group.inv(g)) for g in range(group.order)}))
                      for a in range(group.order)})
    subgroups, found = [frozenset({0})], {frozenset({0})}
    for sub in subgroups:
        for cls in classes:
            if cls[0] not in sub:
                bigger = group.subgroup_closure(sub.union(cls))
                if bigger not in found:
                    found.add(bigger)
                    subgroups.append(bigger)
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("group", [symmetric_group(d)[0] for d in (3, 4, 5)] + [cyclic_group(n) for n in (1, 2, 6, 12, 30, 36)])
def test_normal_subgroups_match_the_class_walk(group):
    assert normal_subgroups(group) == normal_subgroups_by_class_walk(group)


def test_normal_subgroups_close_each_class_once_and_walk_the_distinct_closures(monkeypatch):
    """Z_360 has 360 classes and 24 subgroups: one closure per class, then at most one per (subgroup, <C>) pair."""
    group, calls = cyclic_group(360), []
    closure = FiniteGroup.subgroup_closure
    monkeypatch.setattr(FiniteGroup, "subgroup_closure", lambda self, subset: calls.append(1) or closure(self, subset))
    assert len(normal_subgroups(group)) == 24
    assert len(calls) <= 360 + 24 * 24
    calls.clear()
    normal_subgroups_by_class_walk(group)
    assert len(calls) > 24 * 300  # the class walk closes each subgroup with nearly every class


def test_quotient():
    s3, emb = symmetric_group(3)
    a3 = next(h for h in normal_subgroups(s3) if len(h) == 3)
    q, proj = quotient(s3, a3)
    assert q.order == 2
    # projection is a homomorphism
    for a in range(6):
        for b in range(6):
            assert proj[s3.mul(a, b)] == q.mul(proj[a], proj[b])
    assert proj[0] == 0

    transposition = next(i for i, p in enumerate(emb.images) if p.order() == 2)
    with pytest.raises(ValueError):
        quotient(s3, s3.subgroup_closure({transposition}))  # index-3 non-normal
    three_cycle = next(i for i, p in enumerate(emb.images) if p.order() == 3)
    with pytest.raises(ValueError):
        quotient(s3, frozenset({0, three_cycle}))  # not closed


def test_quotient_of_cyclic():
    z6 = cyclic_group(6)
    h = z6.subgroup_closure({3})
    q, proj = quotient(z6, h)
    assert q.order == 3
    assert [proj[a] for a in range(6)] == [proj[a % 3] for a in range(6)]


def product_table_by_lookup(perms):
    """Reference: one Perm per product, looked up by its images."""
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[a * b] for b in perms] for a in perms], dtype=np.int32)


def test_product_table_matches_lookup_for_symmetric_groups():
    for degree in range(1, 7):
        group, emb = symmetric_group(degree)
        assert np.array_equal(group.table, product_table_by_lookup(emb.images))


def test_product_table_matches_lookup_for_covers():
    herning = Substitution.from_words({"a": "aabaa", "b": "bcabb", "c": "cbccc"})
    # 16 letters, past the degree where degree**degree still fits in int64:
    # columns identity, a 16-cycle and a reflection generate the dihedral group
    r = 16
    columns = [list(range(r)), [(a + 1) % r for a in range(r)], [(-a) % r for a in range(r)]]
    dihedral = Substitution([[col[a] for col in columns] for a in range(r)], [chr(65 + a) for a in range(r)])
    for sub, order in ((herning, 6), (dihedral, 2 * r)):
        cover = group_cover(sub)
        assert cover.group.order == order
        assert np.array_equal(cover.group.table, product_table_by_lookup(cover.embedding.images))


def test_product_table_needs_closed_perms():
    with pytest.raises(ValueError, match="not closed"):
        _group_from_perms([Perm((0, 1, 2)), Perm((1, 2, 0))])


def test_element_indices_outside_the_group_are_refused():
    z6 = cyclic_group(6)
    with pytest.raises(ValueError, match="^element index -1 is outside a group of order 6$"):
        z6.subgroup_closure({-1})
    with pytest.raises(ValueError, match="^element index 7 is outside a group of order 6$"):
        quotient(z6, [0, 7])
    assert (z6.product([5, 4]), z6.mul(5, 4), z6.inv(5)) == (3, 3, 1)


@pytest.mark.parametrize("call, index", [
    (lambda z6: z6.product([-1]), -1),
    (lambda z6: z6.product([1, 7, 2]), 7),
    (lambda z6: z6.mul(-1, 2), -1),
    (lambda z6: z6.mul(6, 0), 6),
    (lambda z6: z6.mul(0, 6), 6),
    (lambda z6: z6.inv(-1), -1),
    (lambda z6: z6.inv(6), 6),
    (lambda z6: block_product(z6, (0, 7), (0, 1)), 7),
], ids=["product_negative", "product_past_order", "mul_negative", "mul_left_past_order", "mul_right_past_order",
        "inv_negative", "inv_past_order", "block_product"])
def test_mul_inv_and_product_refuse_indices_outside_the_group(call, index):
    with pytest.raises(ValueError, match="^element index %d is outside a group of order 6$" % index):
        call(cyclic_group(6))


def test_closure_refuses_degree_zero():
    with pytest.raises(ValueError, match="^degree must be positive, got 0$"):
        closure([], degree=0)


# Brute-force references in pure Python: one mul call, or one lookup in the table's rows, per product.


def subgroup_closure_by_mul(group, subset):
    elems = {0}
    frontier = list({int(a) for a in subset})
    elems.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(elems)


def subgroups_by_mul(group):
    """Every subgroup: each one found, with the generators it was found from, is closed with one
    element g of each coset gH outside it, since <H, g> = <H, gh>.  Products are read off the
    table's rows as Python lists: a mul call per product would take seconds at order 120."""
    rows = group.table.tolist()
    generators = {frozenset({0}): []}
    walk = [frozenset({0})]
    for sub in walk:
        covered = set(sub)
        for g in range(group.order):
            if g not in covered:
                covered.update(rows[g][h] for h in sub)
                gens = generators[sub] + [g]
                bigger, seen = [0], {0}  # every word in gens: a walk from e, one product per (element, generator)
                for a in bigger:
                    for c in (rows[a][b] for b in gens):
                        if c not in seen:
                            seen.add(c)
                            bigger.append(c)
                if frozenset(bigger) not in generators:
                    generators[frozenset(bigger)] = gens
                    walk.append(frozenset(bigger))
    return set(generators)


def nonnormal_witness_by_mul(group, sub):
    return next((g for g in range(group.order) if any(group.mul(group.mul(g, h), group.inv(g)) not in sub for h in sub)),
                None)


def quotient_by_mul(group, sub):
    """(table, names, projection) of G/H, cosets numbered in the order a scan from 0 meets them."""
    coset_of = [-1] * group.order
    reps = []
    for g in range(group.order):
        if coset_of[g] < 0:
            members = sorted(group.mul(g, h) for h in sub)
            reps.append(members[0])
            for member in members:
                coset_of[member] = len(reps) - 1
    table = [[coset_of[group.mul(a, b)] for b in reps] for a in reps]
    return table, tuple("[%s]" % group.element_names[r] for r in reps), tuple(coset_of)


HERNING = Substitution.from_words({"a": "aabaa", "b": "bcabb", "c": "cbccc"})


def reference_groups():
    s3, _ = symmetric_group(3)
    s4, _ = symmetric_group(4)
    s5, _ = symmetric_group(5)
    dihedral8, _ = closure([Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (0, 2))])
    # GL(3, 2) of order 168, the symmetries of the Fano plane with lines {i, i + 1, i + 3} mod 7
    fano, _ = closure([Perm.from_cycles(7, tuple(range(7))), Perm.from_cycles(7, (2, 4), (5, 6))])
    cube = FiniteGroup([str(a) for a in range(8)], np.bitwise_xor.outer(np.arange(8), np.arange(8)))  # (Z_2)^3
    return {"S3": s3, "S4": s4, "S5": s5, "Z12": cyclic_group(12), "Z30": cyclic_group(30), "Z2^3": cube,
            "D8": dihedral8, "GL32": fano, "herning": group_cover(HERNING).group}


def seeded_closures():
    """Closures of seeded random generator sets of degree 2 to 7, those of order at most 168."""
    rng = np.random.default_rng(27)
    for degree in range(2, 8):
        for _ in range(8):
            gens = [Perm(rng.permutation(degree)) for _ in range(int(rng.integers(1, 4)))]
            try:
                yield closure(gens, degree=degree, size_cap=168)[0]
            except CapacityError:
                continue


@pytest.mark.parametrize("name", ["S4", "Z12", "herning"])
def test_subgroup_closure_matches_the_mul_walk(name):
    group = reference_groups()[name]
    for size in (1, 2):
        for subset in itertools.combinations(range(group.order), size):
            assert group.subgroup_closure(subset) == subgroup_closure_by_mul(group, subset), subset


def assert_normal_subgroups_and_quotients_match_the_mul_loops(group):
    subgroups = subgroups_by_mul(group)
    normals = [sub for sub in subgroups if nonnormal_witness_by_mul(group, sub) is None]
    assert normal_subgroups(group) == sorted(normals, key=lambda s: (len(s), sorted(s)))
    for sub in subgroups:
        witness = nonnormal_witness_by_mul(group, sub)
        if witness is not None:
            with pytest.raises(ValueError, match=r"^subgroup is not normal \(fails at element %d\)$" % witness):
                quotient(group, sub)
            continue
        q, projection = quotient(group, sub)
        table, names, reference_projection = quotient_by_mul(group, sub)
        assert q.table.tolist() == table and q.element_names == names and projection == reference_projection


@pytest.mark.parametrize("name", ["S3", "S4", "S5", "Z12", "Z30", "Z2^3", "D8", "GL32", "herning"])
def test_normal_subgroups_and_quotients_match_the_mul_loops(name):
    assert_normal_subgroups_and_quotients_match_the_mul_loops(reference_groups()[name])


def test_normal_subgroups_and_quotients_match_the_mul_loops_on_seeded_closures():
    orders = []
    for group in seeded_closures():
        assert_normal_subgroups_and_quotients_match_the_mul_loops(group)
        orders.append(group.order)
    assert len(set(orders)) >= 8 and max(orders) >= 120, orders


def test_closure_tables_match_lookup_for_random_generators():
    rng = np.random.default_rng(26)
    orders = set()
    for degree in range(1, 8):
        for _ in range(12):
            gens = [Perm(rng.permutation(degree)) for _ in range(int(rng.integers(0, 4)))]
            try:
                group, emb = closure(gens, degree=degree, size_cap=120)
            except CapacityError:
                continue
            orders.add(group.order)
            assert np.array_equal(group.table, product_table_by_lookup(emb.images)), gens
    assert len(orders) >= 8


def test_s7_table_matches_perm_products_on_sampled_pairs():
    group, emb = closure([Perm.from_cycles(7, tuple(range(7))), Perm.from_cycles(7, (0, 1))])
    assert group.order == 5040
    index = {p: i for i, p in enumerate(emb.images)}
    rng = np.random.default_rng(7)
    for a, b in rng.integers(0, group.order, size=(2000, 2)).tolist():
        assert group.table[a, b] == index[emb.images[a] * emb.images[b]]
    assert [emb.images[a] * emb.images[int(group.inverse[a])] for a in range(0, 5040, 97)] == [Perm.identity(7)] * 52
