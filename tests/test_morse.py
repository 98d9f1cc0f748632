import numpy as np
import pytest

from mobiuslab.morse import (
    MorseSpec,
    block_product,
    blocks_from_cocycle,
    cocycle_values,
    hat_stream,
    hat_word,
    kakutani_spec,
    morse_prefix,
    morse_stream,
    toeplitz_check,
    toeplitz_stage,
)
from mobiuslab.permgrp import cyclic_group, symmetric_group
from mobiuslab.streams import periodic_stream
from mobiuslab.subst import Substitution, fixed_point, group_cover

Z2 = cyclic_group(2)
TM_SPEC = MorseSpec(Z2, (), (0, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        MorseSpec(Z2, (), (1, 0))  # must start at identity
    with pytest.raises(ValueError):
        MorseSpec(Z2, (), (0,))  # too short
    with pytest.raises(ValueError):
        MorseSpec(Z2, ((0, 2),), (0, 1))  # entry outside group
    spec = MorseSpec(Z2, ((0, 0), (0, 1)), (0, 1, 1))
    assert spec.block(0) == (0, 0)
    assert spec.block(1) == (0, 1)
    assert spec.block(5) == (0, 1, 1)
    assert spec.lam(0) == 2 and spec.lam(2) == 3
    assert spec.n(0) == 1 and spec.n(2) == 4 and spec.n(3) == 12
    assert not spec.is_degenerate
    assert MorseSpec(Z2, (), (0, 0)).is_degenerate


def test_block_product():
    # (B x C)[j*|B|+i] = B[i] C[j]
    assert block_product(Z2, (0, 1), (0, 1)) == (0, 1, 1, 0)
    assert block_product(Z2, (0, 1), (0, 1, 1)) == (0, 1, 1, 0, 1, 0)
    s3, _ = symmetric_group(3)
    b = (0, 1)
    c = (0, 2)
    prod = block_product(s3, b, c)
    for j in range(2):
        for i in range(2):
            assert prod[j * 2 + i] == s3.mul(b[i], c[j])


def test_thue_morse_prefix():
    assert morse_prefix(TM_SPEC, 16).tolist() == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]


def test_partial_products_are_prefixes():
    spec = MorseSpec(Z2, ((0, 1), (0, 0, 1)), (0, 1))
    word = morse_prefix(spec, spec.n(4))
    for t in range(1, 5):
        c_t = word[: spec.n(t)]
        again = morse_prefix(spec, spec.n(t))
        assert np.array_equal(c_t, again)


def test_morse_equals_cover_stream():
    tm = Substitution.from_words({"0": "01", "1": "10"})
    cover = group_cover(tm)
    assert np.array_equal(morse_prefix(cover.morse_spec(), 512), fixed_point(tm, 512))


def test_hat_word():
    tm = fixed_point(Substitution.from_words({"0": "01", "1": "10"}), 16)
    assert hat_word(Z2, tm).tolist() == [1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1]
    with pytest.raises(ValueError):
        hat_word(Z2, [])
    assert hat_word(Z2, [0]).tolist() == []


def test_hat_invariant_under_right_translation():
    s3, _ = symmetric_group(3)
    rng = np.random.default_rng(23)
    word = rng.integers(0, 6, size=200)
    for g in range(6):
        shifted = s3.table[word, g]  # y'[n] = y[n] * g
        assert np.array_equal(hat_word(s3, word), hat_word(s3, shifted))


def test_hat_stream():
    stream = morse_stream(TM_SPEC)
    hs = hat_stream(Z2, stream)
    assert hs.prefix(15).tolist() == [1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1]
    assert hs.alphabet_size == 2


def test_hat_stream_refuses_the_last_int64_position():
    """hat(y)[2^63 - 1] needs y[2^63], which no int64 position reaches."""
    hs = hat_stream(Z2, morse_stream(TM_SPEC))
    last = (1 << 63) - 1
    for read in (lambda: hs.at([5, last]), lambda: hs.block(last, 1)):
        with pytest.raises(ValueError, match="position %d .* int64 limit %d" % (last, last)):
            read()
    assert hs.at([last - 1]).tolist() == [(bin(last).count("1") - bin(last - 1).count("1")) % 2]


def test_toeplitz_stages_of_hat():
    # stage values are hat(c_t) on residues 0..n_t-2, the hole sits at n_t-1
    stage1 = toeplitz_stage(TM_SPEC, 1)
    assert (stage1.n, stage1.values, stage1.hole_residue) == (2, (1,), 1)
    stage2 = toeplitz_stage(TM_SPEC, 2)
    assert (stage2.n, stage2.values, stage2.hole_residue) == (4, (1, 0, 1), 3)
    stage3 = toeplitz_stage(TM_SPEC, 3)
    assert stage3.values == (1, 0, 1, 1, 1, 0, 1)

    hat = hat_word(Z2, morse_prefix(TM_SPEC, 257))
    for t in (1, 2, 3, 4):
        stage = toeplitz_stage(TM_SPEC, t)
        for i, v in enumerate(stage.values):
            positions = np.arange(i, 256, stage.n)
            assert np.all(hat[positions] == v)
    assert cocycle_values(TM_SPEC, 3) == stage3.values


def test_stage_consistency_across_levels():
    spec = MorseSpec(Z2, ((0, 1, 1),), (0, 1))
    for t in (1, 2, 3):
        small = toeplitz_stage(spec, t)
        big = toeplitz_stage(spec, t + 1)
        for i, v in enumerate(small.values):
            for j in range(big.n // small.n):
                pos = i + j * small.n
                if pos < big.n - 1:
                    assert big.values[pos] == v


def test_blocks_from_cocycle_round_trip():
    spec = MorseSpec(Z2, ((0, 1), (0, 0, 1), (0, 1, 1)), (0, 1))
    stages = [cocycle_values(spec, t) for t in range(1, 6)]
    lambdas = [spec.lam(t) for t in range(5)]
    blocks = blocks_from_cocycle(Z2, stages, lambdas)
    assert blocks == [spec.block(t) for t in range(5)]


def test_blocks_from_cocycle_random_round_trips():
    rng = np.random.default_rng(31)
    for group in (cyclic_group(2), cyclic_group(3)):
        for _ in range(30):
            depth = 6
            head = []
            for _ in range(depth):
                lam = int(rng.integers(2, 4))
                head.append((0,) + tuple(int(v) for v in rng.integers(0, group.order, size=lam - 1)))
            spec = MorseSpec(group, tuple(head), (0, 1 % group.order))
            stages = [cocycle_values(spec, t) for t in range(1, depth + 1)]
            lambdas = [spec.lam(t) for t in range(depth)]
            assert blocks_from_cocycle(group, stages, lambdas) == list(spec.head)


def test_blocks_from_cocycle_validation():
    spec = MorseSpec(Z2, ((0, 1),), (0, 1))
    stages = [cocycle_values(spec, t) for t in range(1, 4)]
    with pytest.raises(ValueError):
        blocks_from_cocycle(Z2, stages, [2, 2])  # one lambda short
    with pytest.raises(ValueError):
        blocks_from_cocycle(Z2, [stages[0], stages[1][:2], stages[2]], [2, 2, 2])
    # cross-stage contradiction is named with its position
    bad = [stages[0], (1, 1, 1), stages[2]]
    with pytest.raises(ValueError) as err:
        blocks_from_cocycle(Z2, bad, [2, 2, 2])
    assert "position" in str(err.value)


def test_kakutani_spec():
    spec = kakutani_spec((1, 0))
    assert spec.block(0) == (0, 1)
    assert spec.block(1) == (0, 0)
    assert spec.block(7) == (0, 1)
    assert morse_prefix(spec, 4).tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        kakutani_spec((2,))


def test_toeplitz_check_on_hat_tm():
    stream = hat_stream(Z2, morse_stream(TM_SPEC))
    got = toeplitz_check(stream, [0, 1, 2, 3, 4, 7], [2] * 12)
    assert got == [(0, 1), (1, 2), (2, 1), (3, 3), (4, 1), (7, 4)]


def test_toeplitz_check_rejects_non_toeplitz():
    # Thue-Morse itself is not Toeplitz at position 0
    stream = morse_stream(TM_SPEC)
    got = toeplitz_check(stream, [0], [2] * 8)
    assert got == [(0, None)]
    # but a periodic word is, everywhere
    per = periodic_stream([0, 1, 1])
    got = toeplitz_check(per, [0, 1, 2], [3] * 4)
    assert got == [(0, 1), (1, 1), (2, 1)]


def test_toeplitz_check_word_too_short():
    with pytest.raises(ValueError):
        toeplitz_check([0, 1] * 10, [0], [2] * 8)
