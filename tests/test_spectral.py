import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mobiuslab.arith import LIMIT_CAP
from mobiuslab.cli import build_system
from mobiuslab.morse import MorseSpec, hat_stream, morse_stream
from mobiuslab.permgrp import cyclic_group
from mobiuslab.specfile import parse_spec
from mobiuslab.spectral import (
    _FFT_EXACT,
    _FFT_MIN,
    _LEAF,
    GRID_CAP,
    Observable,
    _exact_correlation,
    atom_mass,
    autocorrelation,
    linear_combination,
    make_block_indicator,
    make_symbol_table,
    make_walsh,
    periodogram,
    wiener_average,
)
from mobiuslab.streams import INT64_MAX, DigitReader, SymbolStream, periodic_stream, word_stream
from mobiuslab.subst import Substitution, factor_stream, fixed_point_stream

Z2 = cyclic_group(2)
TM = fixed_point_stream(Substitution(((0, 1), (1, 0)), ("0", "1")))
PD = hat_stream(Z2, morse_stream(MorseSpec(Z2, (), (0, 1))))
WIDE_STEP = 17  # past 16, the widest step Observable.indices once read as a run


def test_evaluate_returns_fresh_memory():
    # sarnak_series weights the evaluated vector in place
    observables = (
        make_walsh((0,)),
        make_walsh((0, 2)),
        make_block_indicator((0, 1), 1, 2),
        make_symbol_table({0: 1.0, 1: -1.0}, 2),
    )
    for obs in observables:
        v = obs.evaluate(TM, 1, 256)
        assert not np.shares_memory(v, TM.prefix(256 + 1 + obs.span))
        assert not np.shares_memory(v, TM.block(1, 256))
        assert not np.shares_memory(v, obs.values)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(window=(), alphabet_size=2, values=[1.0])
    with pytest.raises(ValueError):
        Observable(window=(2, 1), alphabet_size=2, values=[1.0] * 4)
    with pytest.raises(ValueError):
        Observable(window=(-1, 0), alphabet_size=2, values=[1.0] * 4)
    with pytest.raises(ValueError):
        Observable(window=(0,), alphabet_size=2, values=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Observable(window=tuple(range(30)), alphabet_size=3, values=[])
    obs = Observable(window=(0, 3), alphabet_size=2, values=[0, 1, 2, 3])
    assert obs.span == 4
    with pytest.raises(ValueError):
        obs.values[0] = 5.0


def test_value_mixed_radix():
    obs = Observable(window=(0, 1), alphabet_size=3, values=np.arange(9))
    # most significant offset first: (a, b) -> 3a + b
    assert obs.value((2, 1)) == 7
    assert obs.value((0, 2)) == 2
    with pytest.raises(ValueError):
        obs.value((3, 0))
    with pytest.raises(ValueError):
        obs.value((1,))


def test_evaluate_matches_value():
    rng = np.random.default_rng(7)
    word = word_stream(rng.integers(0, 3, size=400))
    obs = Observable(window=(0, 2, 5), alphabet_size=3, values=rng.normal(size=27))
    v = obs.evaluate(word, 10, 50)
    prefix = word.prefix(400)
    for i in range(50):
        k = 10 + i
        assert v[i] == obs.value((prefix[k], prefix[k + 2], prefix[k + 5]))
    positions = rng.integers(0, 300, size=40)
    at = obs.evaluate_at(word, positions)
    direct = np.array([obs.value(prefix[p + np.array(obs.window)]) for p in positions])
    assert np.array_equal(at, direct)
    with pytest.raises(ValueError):
        obs.evaluate_at(word, [-1])


def test_walsh():
    w = make_walsh((0, 2))
    assert w.name == "walsh{0,2}" and w.zero_mean
    assert w.value((1, 0)) == -1.0 and w.value((1, 1)) == 1.0
    const = make_walsh(())
    assert const.name == "walsh{}" and not const.zero_mean
    assert const.value((0,)) == const.value((1,)) == 1.0


def per_entry_table(window, alphabet_size, fn):
    """The table built one entry at a time, in the mixed radix of the window."""
    values = np.empty(alphabet_size ** len(window), dtype=np.complex128)
    for i, symbols in enumerate(itertools.product(range(alphabet_size), repeat=len(window))):
        values[i] = fn(symbols)
    return values


@pytest.mark.parametrize("coords", [(), (0,), (3,), (0, 2), (1, 2, 5), tuple(range(10)), (0, 3, 4, 7, 9, 12, 20, 31, 40)])
def test_walsh_table_matches_a_per_entry_build(coords):
    obs = make_walsh(coords)
    window = coords or (0,)
    fn = (lambda symbols: (-1.0) ** sum(symbols)) if coords else (lambda symbols: 1.0)
    want = per_entry_table(window, 2, fn)
    assert obs.window == window and obs.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("block, offset, alphabet_size", [
    ((0,), 0, 2), ((1,), 4, 3), ((0, 1), 1, 2), ((2, 0, 1), 0, 3), ((1, 0, 1, 1, 0, 0, 1, 0, 1, 1), 2, 2),
    ((5, 0, 3, 5, 1, 2), 0, 6),
])
def test_indicator_table_matches_a_per_entry_build(block, offset, alphabet_size):
    obs = make_block_indicator(block, offset, alphabet_size)
    window = tuple(range(offset, offset + len(block)))
    want = per_entry_table(window, alphabet_size, lambda symbols: 1.0 if symbols == block else 0.0)
    assert obs.window == window and obs.values.tobytes() == want.tobytes()


def test_tables_beyond_the_cap_are_refused_with_one_message():
    message = "window of 25 symbols over 2 letters needs 33554432 table entries (cap 16777216)"
    for build in (lambda: make_walsh(range(25)), lambda: make_block_indicator((0,) * 25),
                  lambda: Observable(tuple(range(25)), 2, np.zeros(1))):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_indicator_frequency():
    ind = make_block_indicator((0, 1))
    assert ind.name == "indicator[01@0]"
    assert ind.value((0, 1)) == 1.0 and ind.value((1, 0)) == 0.0
    freq = np.mean(ind.evaluate(TM, 0, 1 << 16)).real
    assert abs(freq - 1.0 / 3.0) < 1e-3
    off = make_block_indicator((1,), offset=4, alphabet_size=3)
    assert off.window == (4,)
    with pytest.raises(ValueError):
        make_block_indicator(())
    with pytest.raises(ValueError):
        make_block_indicator((2,), alphabet_size=2)


def test_symbol_table():
    obs = make_symbol_table({0: 1.0, 1: -0.5, 2: -0.5})
    assert obs.alphabet_size == 3 and obs.zero_mean
    assert obs.value((1,)) == -0.5
    with pytest.raises(ValueError):
        make_symbol_table({0: 1.0, 2: 2.0})  # symbol 1 missing
    with pytest.raises(ValueError):
        make_symbol_table({3: 1.0}, alphabet_size=2)
    seq = make_symbol_table([1.0, 2.0])
    assert seq.alphabet_size == 2 and not seq.zero_mean


def test_linear_combination():
    w0 = make_walsh((0,))
    ind = make_block_indicator((0, 1))
    combo = linear_combination([(0.5, w0), (2.0, ind)])
    assert combo.window == (0, 1)
    assert combo.value((0, 1)) == 2.5
    assert combo.value((1, 1)) == -0.5
    with pytest.raises(ValueError):
        linear_combination([])
    with pytest.raises(ValueError):
        linear_combination([(1.0, w0), (1.0, make_symbol_table([1, 2, 3]))])


def per_entry_combination(terms):
    """The combination table by the per-entry rule: Python's complex sum over the terms, in order."""
    terms = [(complex(c), obs) for c, obs in terms]
    window = tuple(sorted({w for _, obs in terms for w in obs.window}))
    slots = {w: i for i, w in enumerate(window)}

    def fn(symbols):
        total = 0.0 + 0.0j
        for coeff, obs in terms:
            total += coeff * obs.value(tuple(symbols[slots[w]] for w in obs.window))
        return total

    return per_entry_table(window, terms[0][1].alphabet_size, fn)


@pytest.mark.parametrize("alphabet_size", [2, 3])
def test_linear_combination_table_matches_the_per_entry_rule(alphabet_size):
    """Random complex terms over windows with gaps; magnitudes over ten decades, so any other rounding shows."""
    rng = np.random.default_rng(alphabet_size)
    for _ in range(60):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            window = tuple(sorted(set(rng.integers(0, 7, size=int(rng.integers(1, 4))).tolist())))
            size = alphabet_size ** len(window)
            values = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.integers(-5, 5, size=size)
            coeff = complex(rng.normal(), rng.normal()) if rng.random() < 0.8 else float(rng.normal())
            terms.append((coeff, Observable(window, alphabet_size, values)))
        combo = linear_combination(terms)
        assert combo.window == tuple(sorted({w for _, obs in terms for w in obs.window}))
        assert combo.values.tobytes() == per_entry_combination(terms).tobytes()
    gaps = [(0.5 - 2j, make_walsh((1, 6))), (3.0, make_symbol_table([0.1, -0.2 + 1j], name="t")),
            (1j, make_block_indicator((1, 0), offset=3))]
    if alphabet_size == 2:
        assert linear_combination(gaps).values.tobytes() == per_entry_combination(gaps).tobytes()


def test_autocorrelation_basics():
    w0 = make_walsh((0,))
    est = autocorrelation(TM, w0, 1 << 14, 32)
    assert est.values[0].real == pytest.approx(1.0)
    assert est.values[0].imag == 0.0
    assert np.all(np.abs(est.values) <= est.values[0].real + 1e-12)
    with pytest.raises(ValueError):
        autocorrelation(TM, w0, 100, 32)  # N < 4L
    with pytest.raises(ValueError):
        autocorrelation(TM, w0, 100, -1)
    with pytest.raises(ValueError, match=str(LIMIT_CAP)):
        autocorrelation(TM, w0, LIMIT_CAP + 1, 32)


def test_tm_autocorrelation_recursion():
    # gamma(0)=1, gamma(1)=-1/3, gamma(2n)=gamma(n),
    # gamma(2n+1)=-(gamma(n)+gamma(n+1))/2
    est = autocorrelation(TM, make_walsh((0,)), 1 << 18, 64)
    exact = {0: 1.0, 1: -1.0 / 3.0}

    def gamma(n):
        if n not in exact:
            exact[n] = (
                gamma(n // 2)
                if n % 2 == 0
                else -(gamma(n // 2) + gamma(n // 2 + 1)) / 2
            )
        return exact[n]

    for n in range(65):
        assert abs(est.values[n].real - gamma(n)) < 1e-3
        assert est.values[n].imag == 0.0


def test_periodogram_mean_and_sign():
    w0 = make_walsh((0,))
    for stream in (TM, PD):
        est = autocorrelation(stream, w0, 1 << 16, 64)
        spec = periodogram(est, 256)
        assert np.all(spec >= 0.0)
        # grid finer than the lag range: the DC residue holds only gamma-hat(0)
        assert spec.mean() == pytest.approx(est.values[0].real, abs=1e-9)
    with pytest.raises(ValueError):
        periodogram(est, 0)


def test_periodogram_refuses_a_grid_beyond_the_cap():
    est = autocorrelation(TM, make_walsh((0,)), 1024, 4)
    with pytest.raises(ValueError, match="grid size %d is beyond the cap %d" % (GRID_CAP + 1, GRID_CAP)):
        periodogram(est, GRID_CAP + 1)


def test_periodogram_dyadic_peaks():
    est = autocorrelation(PD, make_walsh((0,)), 1 << 18, 64)
    spec = periodogram(est, 16)
    # largest mass at frequency 1/2, then at 0, 1/4, 3/4
    assert np.argmax(spec) == 8
    dyadic = spec[[0, 4, 8, 12]]
    odd = spec[1::2]
    assert dyadic.min() > 3 * odd.max()


def test_atom_mass():
    w0 = make_walsh((0,))
    ones = periodic_stream([1])
    assert atom_mass(ones, w0, (0, 1), 4096) == pytest.approx(1.0)
    assert atom_mass(PD, w0, (0, 1), 1 << 16) == pytest.approx(1.0 / 9.0, abs=1e-3)
    assert atom_mass(PD, w0, (1, 4), 1 << 16) == pytest.approx(1.0 / 9.0, abs=1e-3)
    # balanced prefix: the mean of the shifted Thue-Morse signs vanishes
    assert atom_mass(TM, w0, (0, 1), 1 << 16) == 0.0
    with pytest.raises(ValueError):
        atom_mass(PD, w0, (1, 0), 64)
    with pytest.raises(ValueError):
        atom_mass(PD, w0, (0, 128), 64)


def unread_stream():
    """A stream whose first read fails the test, so a refusal that comes too late fails at once."""

    def read(key):
        raise AssertionError("read at %r before the statistic was refused" % (key,))

    return SymbolStream(read, name="unread", alphabet_size=2)


@pytest.mark.parametrize("n, frequency", [
    (LIMIT_CAP + 1, (0, 1)),
    (1 << 40, (1, 3)),
    (1 << 40, (1, 1 << 40)),
], ids=["cap_plus_one", "q_3", "q_2_40"])
def test_atom_mass_refuses_n_beyond_the_cap_before_reading(n, frequency):
    with pytest.raises(ValueError, match="^N = %d is beyond the sample-size cap %d$" % (n, LIMIT_CAP)):
        atom_mass(unread_stream(), make_walsh((0,)), frequency, n)


def test_atom_mass_reads_up_to_the_int64_reach():
    """v(0..N-1) over a window ending at offset w reads as far as N - 1 + w."""
    assert atom_mass(TM, make_walsh((INT64_MAX - 3,)), (0, 1), 4) == 0.0  # positions 2^63 - 4 .. 2^63 - 1
    message = "^the observable window at N = 4 reads position %d, beyond the int64 limit %d$" % (INT64_MAX + 1, INT64_MAX)
    with pytest.raises(ValueError, match=message):
        atom_mass(unread_stream(), make_walsh((INT64_MAX - 2,)), (0, 1), 4)


def test_autocorrelation_refuses_a_window_past_int64():
    """N + L + span - 2 = 2^63 + 1: the reach rule names it before any read."""
    far = make_walsh(((1 << 63) - 66,))
    with pytest.raises(ValueError, match="^the observable window at N = 64 reads position %d, beyond the int64 limit"
                       % ((1 << 63) + 1)):
        autocorrelation(TM, far, 64, 4)


def test_evaluate_at_refuses_positions_outside_int64():
    w0 = make_walsh((0,))
    for positions in ([1 << 63], [5, 1 << 64]):
        with pytest.raises(ValueError, match="positions must not pass the int64 limit %d" % INT64_MAX):
            w0.evaluate_at(TM, positions)
    with pytest.raises(ValueError, match="positions must be nonnegative"):
        w0.evaluate_at(TM, [3, -1])


def test_reads_whose_window_passes_int64_are_refused_before_any_offset():
    """max(position) + span - 1 past 2^63 - 1 is named as such, not as a wrapped negative position."""
    limit = "beyond the int64 limit %d$" % INT64_MAX
    with pytest.raises(ValueError, match="^window at position %d reads position %d, %s" % (INT64_MAX - 1, INT64_MAX + 4, limit)):
        make_walsh((5,)).evaluate_at(unread_stream(), [3, INT64_MAX - 1])
    with pytest.raises(ValueError, match="^window at position %d reads position %d, %s" % (INT64_MAX - 3, INT64_MAX + 2, limit)):
        make_walsh((0, 5)).evaluate(unread_stream(), INT64_MAX - 4, 2)
    for step in (3, WIDE_STEP, 1 << 12):  # row copies, and positions past radix >> 7
        start = INT64_MAX - 1 - 99 * step  # the 100th window ends at 2^63 - 1
        assert make_walsh((0, 1)).evaluate(TM, start, 100, step).shape == (100,)
        with pytest.raises(ValueError, match="^window at position %d reads position %d, %s" % (INT64_MAX, INT64_MAX + 1, limit)):
            make_walsh((0, 1)).evaluate(unread_stream(), start + 1, 100, step)
    with pytest.raises(ValueError, match="^read out of range: start=0 count=4 step=0$"):
        make_walsh((0,)).evaluate(unread_stream(), 0, 4, 0)


def test_a_stream_over_more_letters_than_the_table_is_refused_before_reading():
    """A 3-letter Veech stream under a 2-letter table: one message with both sizes, from every read.

    Unrefused, symbols (0, 2) would read the entry of (1, 0).  A table over
    at least the stream's letters reads it.
    """
    from mobiuslab.experiment import sarnak_series

    stream = build_system(parse_spec('veech v3 base 3 group Zn(3) psi "2" repeat "10"\n'), "v3").stream
    read_block, read_at = stream.block, stream.at

    def refuse(*args):
        raise AssertionError("read before the alphabet was checked")

    stream.block = stream.at = refuse
    obs = make_walsh((0, 1))
    with pytest.raises(ValueError, match="^stream 'v3' has an alphabet of size 3, the observable one of size 2$"):
        autocorrelation(stream, obs, 64, 4)
    for read in (lambda: sarnak_series(stream, obs, None, (64,)), lambda: obs.indices(stream, 0, 5, WIDE_STEP),
                 lambda: obs.evaluate_at(stream, [0, 5])):
        with pytest.raises(ValueError, match="alphabet of size 3, the observable one of size 2$"):
            read()
    stream.block, stream.at = read_block, read_at
    for letters in (3, 4):
        wide = Observable(window=(0, 1), alphabet_size=letters, values=np.arange(letters * letters))
        assert np.array_equal(wide.evaluate(stream, 0, 64), wide.evaluate_at(stream, np.arange(64)))


SPEC_KINDS = "".join([
    'substitution h on {a, b, c} {\n  a -> "aabaa";\n  b -> "bcabb";\n  c -> "cbccc";\n}\n',
    "morse hc over cover-of h\n",
    'morse kak over Zn(4) blocks ["01", "02", repeat "0123"]\n',
    'rs rs1 pattern "1*10"\n',
    'veech v base 2 group Z2 psi repeat "10"\n',
])


def _kind_stream(kind):
    """The stream of a system kind and the last position it can read; hat reads its source one further on."""
    doc = parse_spec(SPEC_KINDS)
    if kind == "hat":
        return hat_stream(Z2, morse_stream(MorseSpec(Z2, (), (0, 1)))), INT64_MAX - 1
    if kind == "factor":
        cover = build_system(doc, "h").cover
        return factor_stream(cover, cover.stream()), INT64_MAX
    name = {"substitution": "h", "cover": "hc", "morse": "kak", "rs": "rs1", "veech": "v"}[kind]
    return build_system(doc, name).stream, INT64_MAX


@pytest.mark.parametrize("kind", ["substitution", "cover", "morse", "rs", "veech", "hat", "factor"])
def test_strided_reads_equal_positional_reads(kind):
    """evaluate(start, count, step) is evaluate_at on start + step k, value for value, at every step.

    511..513 straddle radix >> 7 of the first digit level of Thue-Morse and
    kak (2^16) and 609..611 that of Herning and its cover (5^7), where a
    digit reader turns from row copies to positions; 32 and 33 straddle the
    widest step PatternReader reads whole.
    """
    stream, top = _kind_stream(kind)
    rng = np.random.default_rng(5)
    size = stream.alphabet_size
    obs = Observable(window=(0, 3), alphabet_size=size, values=rng.normal(size=size * size) + 1j * rng.normal(size=size * size))
    count = 100
    for step in (1, 2, 16, WIDE_STEP, 32, 33, 64, 511, 512, 513, 609, 610, 611, 1024, 10 ** 5):
        near_top = top - (obs.span - 1) - step * (count - 1)  # the last window ends at top
        for start in (0, 5, (1 << 40) + 3, near_top):
            want = obs.evaluate_at(stream, start + step * np.arange(count, dtype=np.int64))
            got = obs.evaluate(stream, start, count, step)
            assert got.dtype == np.complex128 and np.array_equal(got, want), (step, start)


@pytest.mark.parametrize("kind", ["substitution", "cover", "morse", "rs", "veech", "hat", "factor"])
def test_indices_are_fresh_int32_that_evaluate_looks_up(kind):
    """The sums scale indices in place into classes, so no later read may see that."""
    stream, _ = _kind_stream(kind)
    size = stream.alphabet_size
    for window in ((0,), (0, 3)):
        obs = Observable(window=window, alphabet_size=size, values=np.arange(size ** len(window)) * (1 - 1j))
        for step in (1, 3, WIDE_STEP, 1 << 12):
            idx = obs.indices(stream, 7, 300, step)
            assert idx.dtype == np.int32
            assert np.array_equal(obs.values[idx], obs.evaluate(stream, 7, 300, step))
            want = idx.copy()
            idx *= 3
            assert np.array_equal(obs.indices(stream, 7, 300, step), want), (window, step)


def test_strided_reads_use_runs_up_to_the_bound_and_positions_above_it():
    """indices hands the reader one stepped slice per window offset at every step.

    A digit reader copies rows while a first-level row keeps at least 128
    symbols (step <= radix >> 7) and reads the kept positions above that,
    so its first read at level 0 is positional only past the bound.
    """
    reader = DigitReader(0, (), np.array([[0, 1], [1, 0]], dtype=np.int32))  # Thue-Morse
    radix = reader._level(0)[0]
    keys, levels, at = [], [], reader._at
    reader._at = lambda q, top, j: levels.append((j, len(q))) or at(q, top, j)
    stream = SymbolStream(lambda key: keys.append(key) or reader(key), name="tm", alphabet_size=2)
    w = make_walsh((0, 2))
    for step in (16, WIDE_STEP, radix >> 7, (radix >> 7) + 1):
        keys.clear(), levels.clear()
        got = w.evaluate(stream, 7, 50, step)
        assert np.array_equal(got, w.evaluate_at(TM, 7 + step * np.arange(50)))
        assert keys == [slice(7 + off, 7 + off + step * 49 + 1, step) for off in w.window]
        assert levels.count((0, 50)) == (2 if step > radix >> 7 else 0), step
    keys.clear()
    for step in (1, 3, WIDE_STEP):
        empty = w.evaluate(stream, INT64_MAX, 0, step)  # no read, and no block of negative length
        assert empty.shape == (0,) and empty.dtype == np.complex128
    assert keys == []


ATOM_BITS = """
from mobiuslab.spectral import atom_mass, make_symbol_table
from mobiuslab.subst import Substitution, fixed_point_stream

tm = fixed_point_stream(Substitution(((0, 1), (1, 0)), ("0", "1")))
obs = make_symbol_table({0: 0.3, 1: -0.7})
print(*(atom_mass(tm, obs, f, 1 << 22).hex() for f in ((1, 3), (1, 2), (0, 1))))
"""


def test_atom_mass_bits_do_not_depend_on_blas_threads():
    """A float table at N = 2^22 in children under 1 and 2 BLAS threads prints equal bits.

    The values are within 1e-12 of those the whole-vector np.dot gave;
    0.04 is the exact mass at 0/1 (the mean is 0.3 - 0.7 over a balanced prefix).
    """
    src = str(pathlib.Path(__file__).parent.parent / "src")
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", ATOM_BITS], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    (out,) = outs
    got = [float.fromhex(v) for v in out.split()]
    assert got == pytest.approx([0.0004459496649892093, 1.4997597826661215e-34, 0.03999999999926385], abs=1e-12)
    assert got[2] == pytest.approx(0.04, rel=1e-15)


@pytest.mark.parametrize("n", [100, 3 * _LEAF + 17, 70001])
def test_atom_mass_sums_like_one_gathered_vector(n):
    """atom_mass is |(1/N) sum|^2 of the whole-vector reduction of values[idx] * phases, bit for bit.

    The phases are e(-n p/q) at n mod q, and the sum is np.add.reduceat's
    over v(0..N-1) gathered from one prefix.  The tables are an integer
    Walsh table, an integer table and a complex float table over two
    offsets; the integer tables at 0/1 and 0/5 have integer products.
    """
    rng = np.random.default_rng(2025)
    abc = fixed_point_stream(Substitution.from_words({"a": "abb", "b": "bac", "c": "cca"}))
    cases = (
        (TM, make_walsh((0, 1))),
        (abc, make_symbol_table({0: 1, 1: -2, 2: 3})),
        (abc, Observable(window=(0, 2), alphabet_size=3, values=rng.normal(size=9) + 1j * rng.normal(size=9))),
    )
    for stream, obs in cases:
        prefix = stream.prefix(n + obs.span)
        idx = np.zeros(n, dtype=np.int64)
        for off in obs.window:
            idx = idx * obs.alphabet_size + prefix[off : off + n]
        for p, q in ((0, 1), (0, 5), (1, 2), (1, 3), (2, 7), (5, 64), (3, 100)):
            phases = np.exp(-2j * np.pi * p * np.arange(q) / q)
            (total,) = np.cumsum(np.add.reduceat(obs.values[idx] * phases[np.arange(n) % q], (0,)))
            want = float(abs(complex(total) / n) ** 2)  # as atom_mass divides: a Python complex
            assert atom_mass(stream, obs, (p, q), n).hex() == want.hex(), (obs.name, p, q)


def reference_sums(stream, obs, n, lags):
    """sum_{k<N} v(k+n) conj(v(k)) for n = 0..L in int64, by the real and imaginary parts' correlations."""
    v = obs.evaluate(stream, 0, n + lags)
    a, b = v.real.astype(np.int64), v.imag.astype(np.int64)
    assert np.array_equal(a + 1j * b, v)

    def corr(x, y):  # sum_k x(k) y(k + n)
        return np.correlate(y, x[:n], "valid")

    return corr(a, a) + corr(b, b), corr(a, b) - corr(b, a)


def test_autocorrelation_is_exact_for_gaussian_integer_tables():
    """The FFT pieces round to the int64 sums, for N not a multiple of the piece and L up to N/4.

    The table is drawn after N and L, inside the exact regime at the call's
    own M = max(_FFT_MIN, 2 (L + 1)): parts up to 17000 keep max|v|^2 below
    the rounding bound at _FFT_MIN, and each doubling of M halves them.
    Such a table past the bound at its M takes the float path (next test).
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def observables(top):
        gaussian = st.builds(complex, st.integers(-top, top), st.integers(-top, top))
        return st.one_of(
            st.sets(st.integers(0, 5), max_size=3).map(make_walsh),
            st.builds(make_block_indicator, st.lists(st.integers(0, 1), min_size=1, max_size=3), st.integers(0, 3)),
            st.lists(gaussian, min_size=2, max_size=2).map(make_symbol_table),
            st.builds(lambda c, d: linear_combination([(c, make_walsh((0, 2))), (d, make_block_indicator((1,), 1))]),
                      st.builds(complex, st.integers(-99, 99), st.integers(-99, 99)), st.integers(-99, 99)),
        )

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(stream=st.sampled_from([TM, PD]), data=st.data())
    def check(stream, data):
        n = data.draw(st.integers(1, 40000), label="N")
        lags = data.draw(st.integers(0, n // 4), label="L")
        size = max(_FFT_MIN, 1 << (2 * lags + 1).bit_length())  # the M whose bound decides the path
        obs = data.draw(observables(17000 * _FFT_MIN // size), label="obs")
        assert _exact_correlation(obs.values, size)
        want = np.empty(lags + 1, dtype=np.complex128)
        want.real, want.imag = reference_sums(stream, obs, n, lags)
        want /= n
        got = autocorrelation(stream, obs, n, lags).values
        assert got.tobytes() == want.tobytes()

    check()


def test_a_table_exact_at_the_least_fft_size_sums_floats_at_a_larger_one(monkeypatch):
    """Parts up to 17000 pass the bound at _FFT_MIN, but 16922j fails it at M = 2^15 (L = 8192).

    So that call takes the float path, as designed, and is within
    1e-9 max|v|^2 of the exact sums.
    """
    from mobiuslab import spectral

    obs, n, lags = make_symbol_table([0, 16922j]), 32768, 8192
    assert _exact_correlation(obs.values, _FFT_MIN) and not _exact_correlation(obs.values, 1 << 15)
    groups, exact_correlation = [], spectral._exact_correlation
    monkeypatch.setattr(spectral, "_exact_correlation", lambda *args: groups.append(exact_correlation(*args)) or groups[-1])
    got = autocorrelation(TM, obs, n, lags).values
    assert groups == [0]
    re, im = reference_sums(TM, obs, n, lags)
    assert np.max(np.abs(got - (re + 1j * im) / n)) <= 1e-9 * 16922 ** 2


@pytest.mark.parametrize("table", [{0: 1 << 20, 1: -(1 << 19) + 3j}, {0: 24800, 1: 1}, {0: 0.3, 1: -0.7}],
                         ids=["large_gaussian", "past_the_bound", "float"])
def test_autocorrelation_outside_the_rounding_bound_sums_floats(table):
    """A table past the bound (or not of integers) keeps float piece sums, within 1e-9 max|v|^2 of the exact ones."""
    obs = make_symbol_table(table)
    assert not _exact_correlation(obs.values, _FFT_MIN)  # nor at any larger size: the bound grows with M
    top = max(abs(v) ** 2 for v in table.values())
    for n, lags in ((40000, 100), (50001, 12500)):
        got = autocorrelation(TM, obs, n, lags).values
        if all(complex(v).real.is_integer() and complex(v).imag.is_integer() for v in table.values()):
            re, im = reference_sums(TM, obs, n, lags)
            want = (re + 1j * im) / n
        else:
            v = obs.evaluate(TM, 0, n + lags)
            want = np.array([np.sum(v[k : k + n] * v[:n].conj()) / n for k in range(lags + 1)])
        assert np.max(np.abs(got - want)) <= 1e-9 * top


def test_exact_correlation_bound():
    """Gaussian integers pass while 16 eps log2(M) M max|v|^2 < 1/2; anything else never does."""
    eps = np.finfo(np.float64).eps
    for size in (_FFT_MIN, 1 << 20):
        top = int(0.5 / (16 * eps * np.log2(size) * size))
        below, above = int(np.sqrt(top)), int(np.sqrt(top)) + 1
        assert _exact_correlation(np.array([below, 1j]), size)
        assert not _exact_correlation(np.array([above, 1j]), size)
    for values in ([0.5, 1], [1, 1 + 0.5j], [np.nan, 1], [np.inf, 1]):
        assert not _exact_correlation(np.array(values, dtype=np.complex128), _FFT_MIN)


@pytest.mark.parametrize("size", [_FFT_EXACT, _FFT_MIN, 1 << 17, 1 << 26])
def test_exact_correlation_group_is_the_largest_k_within_the_bound(size):
    """K pieces share an inverse FFT while (16 log2(M) + 2 (K - 1)) eps K M max|v|^2 < 1/2: K holds, K + 1 fails.

    At K = 1 that is the one-piece bound, so the tables that round exactly are the same.
    """
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(size)
    edge = int(np.sqrt(0.5 / (16 * eps * np.log2(size) * size)))  # the largest |v| one piece allows
    tops = [1, 2, 5, 100, 3000, 17000, edge - 1, edge, edge + 1, *rng.integers(1, 2 * edge, 40)]
    for top in tops:
        values = np.array([int(top), 1j, -1])
        group = _exact_correlation(values, size)
        t = float(np.max(values.real ** 2 + values.imag ** 2))

        def holds(k):
            return (16 * np.log2(size) + 2 * (k - 1)) * eps * k * size * t < 0.5

        assert (group > 0) == (16 * eps * np.log2(size) * size * t < 0.5)
        assert group == 0 or holds(group)
        assert group == LIMIT_CAP or not holds(group + 1)
    assert _exact_correlation(np.zeros(2), size) == LIMIT_CAP  # any number of pieces of zeros


def reference_float_autocorrelation(stream, obs, n, max_lag):
    """gamma-hat by one rfft, rfft and irfft per piece at M = max(2^14, 2 (L + 1)), summed as floats in piece order."""
    lags = max_lag + 1
    size = max(1 << 14, 1 << (2 * lags - 1).bit_length())
    piece = size - max_lag
    has_imag = bool(np.any(obs.values.imag))
    sums = np.zeros((2, lags))
    for lo in range(0, n, piece):
        count = min(piece, n - lo)
        v = obs.evaluate(stream, lo, count + max_lag)
        fa, ga = np.conj(np.fft.rfft(v.real[:count], size)), np.fft.rfft(v.real, size)
        if has_imag:
            fb, gb = np.conj(np.fft.rfft(v.imag[:count], size)), np.fft.rfft(v.imag, size)
            products = (fa * ga + fb * gb, fa * gb - fb * ga)
        else:
            products = (fa * ga,)
        for row, product in zip(sums, products):
            row += np.fft.irfft(product, size)[:lags]
    values = np.empty(lags, dtype=np.complex128)
    values.real, values.imag = sums
    values /= n
    return values


@pytest.mark.parametrize("table", [{0: 0.3, 1: -0.7}, {0: 0.25 - 1.5j, 1: -0.7 + 0.1j}, {0: 24800, 1: 1},
                                   {0: 1 << 20, 1: -(1 << 19) + 3j}, {0: np.nan, 1: 1}],
                         ids=["float", "complex_float", "past_the_bound", "large_gaussian", "nan"])
def test_float_tables_keep_the_one_piece_bits(table):
    """Tables that do not round exactly give the per-piece loop's bits, over several pieces and L up to N/4.

    L = 9000 and 25000 take M = 2^15 and 2^16, above _FFT_MIN.
    """
    obs = make_symbol_table(table)
    for stream, n, lags in ((TM, 50001, 0), (PD, 70000, 100), (TM, 65537, 4000), (PD, 100000, 9000),
                            (TM, 100000, 25000), (PD, 16383, 1)):
        got = autocorrelation(stream, obs, n, lags).values
        assert got.tobytes() == reference_float_autocorrelation(stream, obs, n, lags).tobytes()


@pytest.mark.parametrize("table, group, calls", [
    ({0: 1, 1: -1}, None, ((150001, 0), (150001, 255), (100003, 2047), (30001, 1))),
    ({0: 20000, 1: -3 + 7j}, 6, ((53253, 0), (75903, 300), (33833, 2047))),
    ({0: 20000, 1: 5j}, 1, ((30001, 4500), (33000, 8191))),
], ids=["whole_call", "few", "one"])
def test_exact_tables_round_across_groups_and_batches(table, group, calls):
    """Gaussian-integer tables equal the int64 sums when N spans several batches and groups of K pieces.

    Every N leaves a short last piece.  The whole call is one group for a
    +-1 table.  With 6 pieces to a group, not a multiple of the 4-piece
    batches of M = 2^12, batches stop at group ends; at L >= 4096 (M = 2^14,
    one piece a batch) a table near the one-piece bound has K = 1.
    """
    obs = make_symbol_table(table)
    for n, lags in calls:
        size = max(_FFT_EXACT, 1 << (2 * lags + 1).bit_length())
        pieces = -(-n // (size - lags))
        assert _exact_correlation(obs.values, max(_FFT_MIN, size))
        assert _exact_correlation(obs.values, size) == group if group else _exact_correlation(obs.values, size) >= pieces
        assert pieces > 2 * (group or 1) and n % (size - lags)
        for stream in (TM, PD):
            want = np.empty(lags + 1, dtype=np.complex128)
            want.real, want.imag = reference_sums(stream, obs, n, lags)
            want /= n
            assert autocorrelation(stream, obs, n, lags).values.tobytes() == want.tobytes()


CORR_BYTES = """
import sys
from mobiuslab import cli

for command in (["corr", "--lags", "64"], ["spectrum", "--lags", "64", "--grid", "64"]):
    assert cli.main([command[0], sys.argv[1], "--observable", "tf", "--n", "1048576", *command[1:]]) == 0
"""


def test_autocorrelation_bytes_do_not_depend_on_blas_threads(tmp_path):
    """corr and spectrum of a float table print equal bytes in children under 1 and 2 BLAS threads."""
    spec = tmp_path / "tf.spec"
    spec.write_text('substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\n'
                    "observable tf = table {0: 0.3, 1: -0.7}\n")
    src = str(pathlib.Path(__file__).parent.parent / "src")
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", CORR_BYTES, str(spec)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    (out,) = outs
    lines = out.splitlines()
    assert lines[0] == "lag,real,imag" and len(lines) == 1 + 65 + 1 + 64 and lines[66] == "k,value"
    # gamma(0) = (0.3^2 + 0.7^2) / 2 over a balanced prefix
    assert float(lines[1].split(",")[1]) == pytest.approx(0.29, rel=1e-12)


def test_the_cli_does_not_load_numpy_fft():
    src = str(pathlib.Path(__file__).parent.parent / "src")
    probe = "import sys, mobiuslab.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.fft')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

def test_wiener_average():
    w0 = make_walsh((0,))
    est_tm = autocorrelation(TM, w0, 1 << 16, 64)
    est_pd = autocorrelation(PD, w0, 1 << 16, 64)
    assert wiener_average(est_tm) == pytest.approx(np.mean(np.abs(est_tm.values) ** 2))
    # point masses keep the average bounded away from zero
    assert wiener_average(est_pd) > 5 * wiener_average(est_tm)
    assert wiener_average(est_pd) > 3 * 1.0 / 81.0
