import time

import numpy as np
import pytest

from mobiuslab.errors import UndefinedPointError
from mobiuslab.morse import MorseSpec, hat_stream, morse_stream
from mobiuslab.odometer import (
    OdometerSpec,
    VeechSpec,
    _psi_run,
    _tau_at,
    morse_cocycle_eval,
    rs_extension_stages,
    tower_index,
    translate,
    veech_conditions,
    veech_stream,
    veech_tau,
)
from mobiuslab.permgrp import cyclic_group

Z2 = cyclic_group(2)
DYADIC = OdometerSpec(tail=2)


def test_spec_validation():
    with pytest.raises(ValueError):
        OdometerSpec(tail=1)
    with pytest.raises(ValueError):
        OdometerSpec(head=(2, 1), tail=3)
    spec = OdometerSpec(head=(2, 3), tail=5)
    assert spec.lam(0) == 2 and spec.lam(1) == 3 and spec.lam(7) == 5
    assert spec.n(0) == 1 and spec.n(2) == 6 and spec.n(3) == 30


def test_digits():
    p = DYADIC.point(11)
    assert p.digits(5) == (1, 1, 0, 1, 0)
    assert p.digit(0) == 1 and p.digit(3) == 1
    mixed = OdometerSpec(head=(2, 3), tail=4)
    q = mixed.point(17)  # 17 = 1 + 2*2 + 6*2
    assert q.digits(3) == (1, 2, 2)
    # negative and mixed-base points: digits agree with digit(t) one stage at a time
    for spec in (DYADIC, mixed, OdometerSpec((3, 5), 2)):
        for value in (-1, -2, -17, -12345, -(2**70) + 3, 0, 5, 2**70 - 9):
            p = spec.point(value)
            assert p.digits(40) == tuple(p.digit(t) for t in range(40)), (spec, value)
    # linear in the stage count: 4000 digits of a 4000-bit point well under a second
    spec = OdometerSpec((3, 5), 2)
    p = spec.point(2**4000 - 7)
    start = time.perf_counter()
    digits = p.digits(4000)
    assert time.perf_counter() - start < 1.0
    assert spec.from_digits(digits).value == p.value
    assert [digits[t] for t in (0, 1, 2, 999, 3997, 3998, 3999)] == [p.digit(t) for t in (0, 1, 2, 999, 3997, 3998, 3999)]


def test_all_top_point():
    top = DYADIC.all_top()
    assert top.value == -1
    assert top.is_all_top
    assert top.digits(6) == (1, 1, 1, 1, 1, 1)
    mixed = OdometerSpec(head=(3,), tail=2)
    assert mixed.all_top().digits(4) == (2, 1, 1, 1)


def test_from_digits():
    assert DYADIC.from_digits((1, 1, 0, 1)).value == 11
    assert DYADIC.from_digits((1, 1), top_tail=True).value == -1
    assert DYADIC.from_digits((0, 1), top_tail=True).value == -2
    mixed = OdometerSpec(head=(2, 3), tail=4)
    assert mixed.from_digits((1, 2, 2)).value == 17
    with pytest.raises(ValueError):
        DYADIC.from_digits((2,))


def test_translate_carries():
    assert translate(DYADIC.point(0)).digits(4) == (1, 0, 0, 0)
    assert translate(DYADIC.point(3)).digits(4) == (0, 0, 1, 0)
    assert translate(DYADIC.all_top()).value == 0
    assert translate(DYADIC.point(5), steps=3).value == 8
    assert translate(DYADIC.point(5), steps=-6).value == -1


def test_tower_index():
    p = DYADIC.point(11)
    for t in range(6):
        assert tower_index(p, t) == 11 % (2**t)
    # the all-top point sits at the top of every tower
    top = DYADIC.all_top()
    for t in range(1, 6):
        assert tower_index(top, t) == 2**t - 1


def test_veech_tau_trailing_ones():
    for n in range(1, 2**12):
        expected = len(bin(n)) - len(bin(n).rstrip("1")) + 1
        assert veech_tau(DYADIC.point(n)) == expected
    with pytest.raises(UndefinedPointError):
        veech_tau(DYADIC.all_top())


def test_veech_tau_far_past_ten_thousand_stages():
    start = time.perf_counter()
    assert veech_tau(DYADIC.point(2**10001 - 1)) == 10002
    assert veech_tau(DYADIC.point(-(2**10001) - 1)) == 10002  # ...1 0 1^10001: the trailing ones are top
    assert time.perf_counter() - start < 1


def test_morse_cocycle_eval_matches_hat():
    spec = MorseSpec(Z2, (), (0, 1))
    hat = hat_stream(Z2, morse_stream(spec)).prefix(300)
    for n in range(300):
        assert morse_cocycle_eval(spec, DYADIC.point(n)) == hat[n]
    with pytest.raises(UndefinedPointError):
        morse_cocycle_eval(spec, DYADIC.all_top())


def test_veech_stream_equals_hat_tm():
    vspec = VeechSpec(DYADIC, Z2, psi_tail=(1, 0))
    vs = veech_stream(vspec)
    hat = hat_stream(Z2, morse_stream(MorseSpec(Z2, (), (0, 1))))
    assert np.array_equal(vs.prefix(4096), hat.prefix(4096))


def test_veech_stream_offsets():
    vspec = VeechSpec(DYADIC, Z2, psi_tail=(1, 0))
    base = veech_stream(vspec).prefix(64)
    shifted = veech_stream(vspec, start=10).prefix(54)
    assert np.array_equal(base[10:], shifted)
    # an orbit through the all-top point is rejected
    with pytest.raises(UndefinedPointError):
        veech_stream(vspec, start=-3).prefix(5)


TAU_SPECS = [OdometerSpec(tail=2), OdometerSpec(tail=3), OdometerSpec(head=(2, 5, 3), tail=2)]


def psi_at(vspec, values):
    """Psi(tau(v)) at an int64 array, by _tau_at and a lookup."""
    return [vspec.psi(t) for t in _tau_at(vspec.odometer, values).tolist()]


@pytest.mark.parametrize("spec", TAU_SPECS, ids=["base2", "base3", "head253"])
@pytest.mark.parametrize("start", [0, 7, -50])
def test_tau_run_matches_tau_at(spec, start):
    """The Veech run (_psi_run) equals Psi of _tau_at, point by point."""
    # nonnegative runs end on n_t - 1, the one point whose last stage is t;
    # the negative run stops at -2, one short of -theta
    count = spec.n(7 if spec.tail == 3 else 11) - start if start >= 0 else 49
    values = np.arange(start, start + count, dtype=np.int64)
    vspec = VeechSpec(spec, cyclic_group(3), psi_head=(2,), psi_tail=(1, 0))
    got = _psi_run(vspec, start, count)
    assert got.dtype == np.int32 and got.tolist() == psi_at(vspec, values)
    stream = veech_stream(vspec, start=start)
    assert np.array_equal(stream.prefix(count), veech_stream(vspec, start=start).at(np.arange(count)))


# one Psi value per stage up to 64, so a tau off by any amount reads another value
DISTINCT_PSI = dict(psi_head=tuple(range(1, 60)), psi_tail=(60, 61, 62, 63, 64, 65))


@pytest.mark.parametrize("tail", [2, 3, 10, 1 << 40, 1 << 64])
@pytest.mark.parametrize("head", [(), (3, 2, 7)], ids=["nohead", "head327"])
def test_psi_run_matches_tau_at_on_random_runs(tail, head):
    spec = OdometerSpec(head=head, tail=tail)
    vspec = VeechSpec(spec, cyclic_group(67), **DISTINCT_PSI)
    rng = np.random.default_rng(tail % 1000 + len(head))
    runs = [(0, 5000), (-5000, 4999), (-(1 << 63), 3000), ((1 << 63) - 3000, 3000)]
    for t in range(1, 64):  # runs across n_t - 1 and up to -n_t - 1, where tau reaches t + 1
        n_t = spec.n(t)
        if n_t < 1 << 62:
            runs += [(max(0, n_t - 1000), 2000), (-n_t - 1001, min(1001, n_t + 999))]
    for _ in range(40):
        start = int(rng.integers(-(1 << 63), (1 << 63) - 1, dtype=np.int64)) >> int(rng.integers(0, 63))
        count = int(rng.integers(0, 3000))
        runs.append((start, count) if not start <= -1 < start + count else (start + count + 1, count))
    for start, count in runs:
        count = min(count, (1 << 63) - start)
        values = np.arange(start, start + count, dtype=np.int64)
        assert _psi_run(vspec, start, count).tolist() == psi_at(vspec, values), (start, count)


@pytest.mark.parametrize("tail", [2, 3, 10, 1 << 40, 1 << 64])
@pytest.mark.parametrize("head", [(), (3, 2, 7)], ids=["nohead", "head327"])
def test_stepped_psi_run_matches_tau_at(tail, head):
    """A run at every step-th point equals _tau_at there, for steps that share factors with the bases or not."""
    spec = OdometerSpec(head=head, tail=tail)
    vspec = VeechSpec(spec, cyclic_group(67), **DISTINCT_PSI)
    rng = np.random.default_rng(tail % 1000 + len(head) + 7)
    steps = [2, 3, 6, 7, 12, 42, 1000, 1 << 20, 3 ** 30] + [spec.n(t) for t in range(1, 6)]
    steps += [int(v) for v in rng.integers(2, 1 << 40, 6)]
    for step in (step for step in steps if step * 3001 < 1 << 62):
        # from 0, ending at -step, keeping -1 at index 1500, passing over it, and from a random point
        starts = [0, -step * 3000, -1 - step * 1500, -2 - step * 1500, int(rng.integers(-(1 << 61), 1 << 61))]
        for start, count in ((start, 3000) for start in starts):
            values = start + step * np.arange(count, dtype=np.int64)
            if np.any(values == -1):
                with pytest.raises(UndefinedPointError):
                    _psi_run(vspec, start, count, step)
                continue
            assert _psi_run(vspec, start, count, step).tolist() == psi_at(vspec, values), (step, start, count)


def test_a_stepped_veech_run_refuses_only_a_kept_all_top_point():
    """From -4 at step 4 the run keeps -4 and 0 and passes over -theta; at step 3 it keeps -1 and is refused."""
    stream = veech_stream(VeechSpec(DYADIC, Z2, psi_tail=(0, 1)), start=-4)
    assert stream.block(0, 2, 4).tolist() == stream.at([0, 4]).tolist() == [0, 0]
    with pytest.raises(UndefinedPointError):
        stream.block(0, 2, 3)
    with pytest.raises(UndefinedPointError):
        stream.at([0, 3])


INT64_EDGES = [(1 << 63) - 1, -(1 << 63), -2, -(1 << 62) - 1]


def tau_points(spec, rng):
    """Random int64 points, points with many trailing top digits, and the int64 edges."""
    points = list(rng.integers(-(1 << 63), (1 << 63) - 1, 500, dtype=np.int64, endpoint=True))
    for t in range(1, 64):
        n_t = spec.n(t)
        if n_t > 1 << 62:
            break
        points += [n_t - 1, -n_t - 1, int(rng.integers(1, (1 << 63) // n_t)) * n_t - 1]
    return np.array([p for p in points + INT64_EDGES if p != -1], dtype=np.int64)


@pytest.mark.parametrize("spec", TAU_SPECS, ids=["base2", "base3", "head253"])
def test_tau_at_matches_veech_tau_on_all_of_int64(spec):
    values = tau_points(spec, np.random.default_rng(2015))
    assert _tau_at(spec, values).tolist() == [veech_tau(spec.point(int(v))) for v in values]
    vspec = VeechSpec(spec, cyclic_group(3), psi_head=(2,), psi_tail=(1, 0))
    for start in INT64_EDGES[1:]:  # orbits from far negative points
        assert veech_stream(vspec, start=start).at([0]).tolist() == [vspec.psi(veech_tau(spec.point(start)))]
    with pytest.raises(UndefinedPointError):
        _tau_at(spec, np.array([5, -1], dtype=np.int64))


@pytest.mark.parametrize("base", [(1 << 63) - 1, 1 << 63, 10**30])
def test_tau_at_with_a_base_beyond_int64(base):
    spec = OdometerSpec(tail=base)
    values = np.array(INT64_EDGES + [0, 5, -7, (1 << 62) + 3], dtype=np.int64)
    assert _tau_at(spec, values).tolist() == [veech_tau(spec.point(int(v))) for v in values]


@pytest.mark.parametrize("spec", TAU_SPECS, ids=["base2", "base3", "head253"])
def test_tau_run_through_minus_one_is_undefined(spec):
    vspec = VeechSpec(spec, cyclic_group(3), psi_head=(2,), psi_tail=(1, 0))
    assert _psi_run(vspec, -50, 0).shape == (0,)
    for start, count in ((-50, 50), (-1, 1), (-3, 10)):
        with pytest.raises(UndefinedPointError):
            _psi_run(vspec, start, count)


def test_veech_psi_head_tail():
    vspec = VeechSpec(DYADIC, cyclic_group(3), psi_head=(2,), psi_tail=(1, 0))
    assert [vspec.psi(t) for t in (1, 2, 3, 4, 5)] == [2, 1, 0, 1, 0]
    with pytest.raises(ValueError):
        vspec.psi(0)
    with pytest.raises(ValueError):
        VeechSpec(DYADIC, Z2, psi_tail=())
    with pytest.raises(ValueError):
        VeechSpec(DYADIC, Z2, psi_tail=(2,))


def test_veech_conditions():
    good = VeechSpec(DYADIC, Z2, psi_tail=(1, 0))
    rep = veech_conditions(good, 64)
    assert rep.all_hold
    assert rep.no_limit and rep.values_generate and rep.differences_generate and rep.blocks_recur

    constant = VeechSpec(DYADIC, Z2, psi_tail=(0,))
    rep = veech_conditions(constant, 64)
    assert not rep.all_hold
    assert not rep.values_generate

    # eventually constant head: tail half has a single value, limit exists
    settled = VeechSpec(DYADIC, Z2, psi_head=(1, 0, 1), psi_tail=(1,))
    rep = veech_conditions(settled, 64)
    assert not rep.no_limit

    with pytest.raises(ValueError):
        veech_conditions(good, 4)


def test_rs_extension_zero_choices():
    stages, stream = rs_extension_stages([0] * 8, max_level=6)
    assert stream.prefix(16).tolist() == [0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0]
    by_t = {s.t: s for s in stages}
    assert by_t[1].newly_filled == ()
    assert by_t[2].newly_filled == (0, 2)
    assert by_t[3].newly_filled == (1, 5)
    assert by_t[4].newly_filled == (3, 11)
    # the two exceptional levels of each stage stay undefined
    assert 1 in by_t[2].undefined_levels and 3 in by_t[2].undefined_levels
    assert set(by_t[2].defined_levels) == {0, 2}


def test_rs_extension_choice_one():
    stages, one = rs_extension_stages([1] * 8, max_level=6)
    _, zero = rs_extension_stages([0] * 8, max_level=6)
    a = one.prefix(64)
    b = zero.prefix(64)
    assert not np.array_equal(a, b)
    by_t = {s.t: s for s in stages}
    # choice 1 swaps the pair written into the two fresh levels
    assert by_t[2].values[0] == 1 and by_t[2].values[2] == 0


def test_rs_extension_reads_far_positions_from_the_stage_table():
    """Stage 12 defines every level below 2^10, and the cocycle repeats it with period 2^12."""
    rng = np.random.default_rng(43)
    for _ in range(5):
        choices = [int(v) for v in rng.integers(0, 2, size=int(rng.integers(0, 14)))]
        stages, stream = rs_extension_stages(choices, max_level=12, tail_choice=int(rng.integers(0, 2)))
        table = np.array(stages[-1].values[: 1 << 10])
        assert np.all(table >= 0)
        assert stream.prefix(1 << 10).tolist() == table.tolist()
        for base in (1 << 12, 1 << 40, (1 << 62) + (1 << 30), (1 << 63) - (1 << 12)):
            assert stream.block(base, 1 << 10).tolist() == table.tolist()
            positions = base + rng.integers(0, 1 << 10, size=50)
            assert stream.at(positions).tolist() == table[positions - base].tolist()
    assert rs_extension_stages([1], 2)[1].at([(1 << 63) - 1]).tolist() == [0]  # 63 ones: the tail choice


def test_rs_extension_stage_consistency():
    rng = np.random.default_rng(41)
    for _ in range(10):
        choices = [int(v) for v in rng.integers(0, 2, size=9)]
        stages, stream = rs_extension_stages(choices, max_level=8)
        word = stream.prefix(200)
        for stage in stages:
            n = 2**stage.t
            for level, value in enumerate(stage.values):
                if value < 0:
                    continue
                positions = np.arange(level, 200, n)
                assert np.all(word[positions] == value)
