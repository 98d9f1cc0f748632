import numpy as np
import pytest

from mobiuslab.morse import morse_prefix
from mobiuslab.permgrp import Perm
from mobiuslab.subst import (
    Substitution,
    analyze,
    column_maps,
    factor_map,
    factor_stream,
    fixed_point,
    fixed_point_stream,
    group_cover,
    language,
    letter_map_image,
    quotient_substitution,
    skeleton_index,
)
from mobiuslab.permgrp import normal_subgroups

TM = Substitution.from_words({"0": "01", "1": "10"})
HERNING = Substitution.from_words({"a": "aabaa", "b": "bcabb", "c": "cbccc"})
RS4 = Substitution.from_words({"a": "ab", "b": "ac", "c": "db", "d": "dc"})


def test_construction_validation():
    with pytest.raises(ValueError):
        Substitution(((0, 1), (0,)), ("a", "b"))
    with pytest.raises(ValueError):
        Substitution(((0, 2), (1, 0)), ("a", "b"))
    with pytest.raises(ValueError):
        Substitution(((0, 1), (1, 0)), ("a", "a"))
    with pytest.raises(ValueError):
        Substitution(((0,), (1,)), ("a", "b"))
    with pytest.raises(ValueError):
        Substitution(((0, 1), (1, 0)), ("a", "b"), seed=2)
    with pytest.raises(ValueError):
        Substitution.from_words({"ab": "abab"})


def test_apply_and_incidence():
    assert TM.apply([0]).tolist() == [0, 1]
    assert TM.apply([0, 1]).tolist() == [0, 1, 1, 0]
    assert TM.incidence().tolist() == [[1, 1], [1, 1]]
    assert HERNING.incidence()[0].tolist() == [4, 1, 0]  # aabaa counts
    assert TM.word_string([0, 1, 1]) == "011"


def test_thue_morse_fixed_point():
    assert TM.word_string(fixed_point(TM, 16)) == "0110100110010110"
    # prefix property: theta(x) begins with x
    x = fixed_point(TM, 500)
    assert np.array_equal(TM.apply(x)[:500], x)


def test_herning_fixed_point_prefix():
    assert HERNING.word_string(fixed_point(HERNING, 5)) == "aabaa"


def test_fixed_point_needs_fixed_seed():
    sub = Substitution.from_words({"a": "ba", "b": "ab"})
    with pytest.raises(ValueError):
        fixed_point(sub, 8)
    # seed letter other than 0 (the period-doubling rule seeded at 1)
    sub2 = Substitution(((1, 1), (1, 0)), ("0", "1"), seed=1)
    assert sub2.word_string(fixed_point(sub2, 8)) == "10111010"


def test_analyze_reports():
    rep = analyze(TM)
    assert rep.primitive and rep.primitivity_power == 1
    rep = analyze(HERNING)
    assert rep.primitive
    rep = analyze(RS4)
    assert rep.primitive and rep.primitivity_power == 3
    assert rep.power_for_identity_column is None  # not bijective
    chain = Substitution(((0, 1), (1, 0), (2, 2)), ("a", "b", "c"))
    assert not analyze(chain).primitive


def test_column_maps():
    cm = column_maps(TM)
    assert cm.bijective
    assert cm.maps[0] == (0, 1) and cm.maps[1] == (1, 0)
    cm = column_maps(HERNING)
    assert cm.bijective
    names = ("a", "b", "c")
    assert [p.cycle_string(names) for p in cm.perms] == ["e", "(b c)", "(a b)", "e", "e"]
    assert not column_maps(RS4).bijective


def test_group_cover_herning():
    cover = group_cover(HERNING)
    assert cover.group.order == 6
    assert cover.block == (0, 1, 2, 0, 0)
    assert cover.group.element_names[0] == "e"
    # factor map of the cover word is the base fixed point
    word = morse_prefix(cover.morse_spec(), 2000)
    assert np.array_equal(factor_map(cover, word), fixed_point(HERNING, 2000))


def test_group_cover_rejections():
    with pytest.raises(ValueError):
        group_cover(RS4)  # not bijective
    shifted = Substitution(((1, 0), (0, 1)), ("a", "b"))
    with pytest.raises(ValueError):
        group_cover(shifted)  # column 0 is not the identity


def test_factor_stream():
    cover = group_cover(TM)
    fs = factor_stream(cover, cover.stream())
    assert np.array_equal(fs.prefix(256), fixed_point(TM, 256))


def test_random_bijective_covers():
    rng = np.random.default_rng(19)
    for _ in range(25):
        r = int(rng.integers(2, 5))
        lam = int(rng.integers(2, 5))
        while True:
            cols = [np.arange(r)] + [rng.permutation(r) for _ in range(lam - 1)]
            if any(np.any(c != np.arange(r)) for c in cols[1:]):
                break
        rows = tuple(tuple(int(cols[i][a]) for i in range(lam)) for a in range(r))
        sub = Substitution(rows, tuple("abcd"[:r]))
        cover = group_cover(sub)
        n = 400
        assert np.array_equal(
            factor_map(cover, morse_prefix(cover.morse_spec(), n)), fixed_point(sub, n)
        )


def test_skeleton_index():
    assert skeleton_index(2, 3, 5) == -5
    assert skeleton_index(2, 3, 8) == 0
    assert skeleton_index(3, 2, 10) == -1
    # always in (-lam^t, 0]
    for k in range(50):
        v = skeleton_index(2, 4, k)
        assert -16 < v <= 0
        assert (k + v) % 16 == 0
    for lam in (2, 3, 7):
        for t in range(12):
            for k in (0, 1, 5, 63, 64, 65, 999, 3**10, 2**40 + 3):
                assert skeleton_index(lam, t, k) == -(k % lam**t)
    with pytest.raises(ValueError):
        skeleton_index(1, 3, 5)
    with pytest.raises(ValueError):
        skeleton_index(2, -1, 5)
    with pytest.raises(ValueError):
        skeleton_index(2, 3, -5)


def test_language_counts():
    assert language(TM, 1).count == 2
    assert language(TM, 2).count == 4
    assert language(TM, 3).count == 6
    assert language(TM, 4).count == 10
    scan = language(TM, 2)
    assert frozenset({(0, 1), (1, 0), (0, 0), (1, 1)}) == scan.blocks


def test_language_stabilizes():
    # doubling the horizon discovers nothing new
    for k in (2, 3, 5):
        base = language(HERNING, k)
        again = language(HERNING, k, horizon=2 * base.horizon)
        assert base.blocks == again.blocks


def test_letter_map_image():
    eta = Perm((1, 0))
    image, ok = letter_map_image(TM, eta, 64)
    assert ok
    # flipping letters of TM gives the shifted fixed point over the language
    assert image.tolist() == [1 - v for v in fixed_point(TM, 64)]

    with pytest.raises(ValueError):
        letter_map_image(HERNING, Perm((1, 0, 2)), 64)  # does not commute


def test_quotient_substitution():
    cover = group_cover(HERNING)
    subs = normal_subgroups(cover.group)
    a3 = next(h for h in subs if len(h) == 3)
    qgroup, qblock, proj = quotient_substitution(cover, a3)
    assert qgroup.order == 2
    assert qblock == tuple(proj[b] for b in cover.block)
    assert qblock[0] == 0


def test_quotient_substitution_takes_a_group_and_a_block():
    cover = group_cover(HERNING)
    for normal in normal_subgroups(cover.group):
        qgroup, qblock, proj = quotient_substitution((cover.group, cover.block), normal)
        expected = quotient_substitution(cover, normal)
        assert (qgroup.table.tolist(), qgroup.element_names, qblock, proj) == (
            expected[0].table.tolist(), expected[0].element_names, expected[1], expected[2])
    qgroup, qblock, proj = quotient_substitution((cover.group, cover.block), range(6))
    assert (qgroup.order, qblock, proj) == (1, (0,) * 5, (0,) * 6)
    with pytest.raises(ValueError, match="not normal"):
        quotient_substitution((cover.group, cover.block), cover.group.subgroup_closure({1}))
