import tracemalloc

import numpy as np
import pytest

from mobiuslab import arith, morse, streams, subst
from mobiuslab.arith import pattern_parity
from mobiuslab.cli import build_system
from mobiuslab.odometer import OdometerSpec, VeechSpec, rs_extension_stages, veech_stream, veech_tau
from mobiuslab.permgrp import cyclic_group
from mobiuslab.specfile import parse_spec
from mobiuslab.streams import LEVEL_MAX, LEVEL_MIN, SymbolStream, periodic_stream, word_stream


def test_prefix_and_block_reads():
    keys = []

    def read(key):
        keys.append(key)
        return np.arange(key.start, key.stop) % 3

    s = SymbolStream(read, name="mod3", alphabet_size=3)
    assert s.prefix(5).tolist() == [0, 1, 2, 0, 1]
    assert s.block(3, 4).tolist() == [0, 1, 2, 0]
    assert s.prefix(200).tolist() == list(np.arange(200) % 3)
    assert keys == [slice(0, 5), slice(3, 7), slice(0, 200)]  # each read is one reader call


def test_iterator_and_block_independence():
    s = periodic_stream([1, 0, 2], alphabet_size=3)
    it = iter(s)
    assert [next(it) for _ in range(4)] == [1, 0, 2, 1]
    assert s.position == 4
    assert s.block(0, 3).tolist() == [1, 0, 2]
    assert s.position == 4  # block reads leave the cursor alone
    assert next(it) == 0


def test_take():
    s = periodic_stream([0, 1])
    assert s.take(5) == [0, 1, 0, 1, 0]


def test_word_stream():
    w = word_stream([0, 1, 1, 0], letters=("a", "b"))
    assert w.prefix(4).tolist() == [0, 1, 1, 0]
    assert w.letters == ("a", "b")
    with pytest.raises(ValueError):
        w.prefix(5)
    with pytest.raises(ValueError):
        w.block(2, 3)


def test_periodic_stream():
    s = periodic_stream([2, 0, 1])
    assert s.prefix(7).tolist() == [2, 0, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError):
        periodic_stream([])


def test_negative_reads_rejected():
    s = periodic_stream([0, 1])
    with pytest.raises(ValueError):
        s.prefix(-1)
    with pytest.raises(ValueError):
        s.block(-1, 2)


def test_at_refuses_positions_outside_int64():
    """A position past 2^63 - 1 is a ValueError, like a negative one, not numpy's OverflowError."""
    s = subst.fixed_point_stream(subst.Substitution.from_words({"0": "01", "1": "10"}))
    assert s.at([(1 << 63) - 1]).tolist() == [1]  # 63 ones: odd popcount
    for positions in ([1 << 63], [0, 1 << 64]):
        with pytest.raises(ValueError, match="positions must not pass the int64 limit %d" % ((1 << 63) - 1)):
            s.at(positions)
    with pytest.raises(ValueError, match="positions must be nonnegative"):
        s.at([-1])


# ---------------------------------------------------------------------------
# positional reads: at() against the prefix and against the digit definitions

TM_SUB = subst.Substitution.from_words({"0": "01", "1": "10"})
# columns: the identity, the transposition (a b) and the 3-cycle a -> b -> c;
# every letter starts its own row, and the fixed point starts at the last one
ABC_SUB = subst.Substitution.from_words({"a": "abb", "b": "bac", "c": "cca"}, seed="c")
ABC_COVER = subst.group_cover(ABC_SUB)
KAKUTANI = morse.kakutani_spec([0, 1, 1, 0])
# mixed block lengths over Z/3; the head product (36^6) spans several levels
LONG_HEAD = morse.MorseSpec(cyclic_group(3), ((0, 1), (0, 2, 1), (0, 0), (0, 1, 1)) * 6, (0, 2))
VEECH = VeechSpec(OdometerSpec(tail=3), cyclic_group(2), psi_head=(0, 1), psi_tail=(1, 0, 0))
RS_PATTERN = "1*1"


def least_power(lam, r):
    """The radix of a digit level: the least power of lam with r L >= LEVEL_MIN."""
    L = 1
    while r * L < LEVEL_MIN:
        L *= lam
    return L


def first_level(spec):
    """The radix of a Morse spec's first digit level: blocks until the table has LEVEL_MIN entries."""
    L, t = 1, 0
    while spec.group.order * L < LEVEL_MIN:
        L *= spec.lam(t)
        t += 1
    return L


def base_digits(n, base):
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


def substitution_symbol(sub, n):
    """x[n] = sigma_{d_0}(sigma_{d_1}(... sigma_{d_m}(seed))), base-lam digits."""
    a = sub.seed
    for d in reversed(base_digits(n, sub.lam)):
        a = sub.rows[a][d]
    return a


def morse_symbol(spec, n):
    """x[n] = b^0[d_0] b^1[d_1] ... in the mixed radix of the block lengths."""
    g, t = 0, 0
    while n:
        n, d = divmod(n, spec.lam(t))
        g = spec.group.mul(g, spec.block(t)[d])
        t += 1
    return g


def veech_symbol(vspec, n):
    return vspec.psi(veech_tau(vspec.odometer.point(n)))


def rs_stream():
    text = 'rs rs1 pattern "%s"\n' % RS_PATTERN
    return build_system(parse_spec(text), "rs1").stream


# name, stream factory, digit-level radix L, x[n] from the digits of n
SYSTEMS = [
    ("thue_morse", lambda: subst.fixed_point_stream(TM_SUB), least_power(2, 2),
     lambda n: bin(n).count("1") % 2),
    ("abc", lambda: subst.fixed_point_stream(ABC_SUB), least_power(3, 3),
     lambda n: substitution_symbol(ABC_SUB, n)),
    ("abc_cover", ABC_COVER.stream, first_level(ABC_COVER.morse_spec()),
     lambda n: morse_symbol(ABC_COVER.morse_spec(), n)),
    ("kakutani", lambda: morse.morse_stream(KAKUTANI), first_level(KAKUTANI),
     lambda n: morse_symbol(KAKUTANI, n)),
    ("rs", rs_stream, least_power(2, 2), lambda n: pattern_parity(n, RS_PATTERN)),
    ("veech", lambda: veech_stream(VEECH), least_power(3, 2), lambda n: veech_symbol(VEECH, n)),
    ("long_head", lambda: morse.morse_stream(LONG_HEAD), first_level(LONG_HEAD),
     lambda n: morse_symbol(LONG_HEAD, n)),
]
IDS = [s[0] for s in SYSTEMS]

TM_WORD = subst.fixed_point(TM_SUB, 64)
PERIOD = (2, 0, 1, 1)
# streams over a finite word, or read through another stream
COMPOSED = [
    ("word", lambda: word_stream(TM_WORD), 32, lambda n: bin(n).count("1") % 2),
    ("periodic", lambda: periodic_stream(PERIOD, alphabet_size=3), 5, lambda n: PERIOD[n % 4]),
    ("hat_kakutani", lambda: morse.hat_stream(cyclic_group(2), morse.morse_stream(KAKUTANI)), first_level(KAKUTANI),
     lambda n: (morse_symbol(KAKUTANI, n + 1) - morse_symbol(KAKUTANI, n)) % 2),
    ("abc_factor", lambda: subst.factor_stream(ABC_COVER, ABC_COVER.stream()), first_level(ABC_COVER.morse_spec()),
     lambda n: substitution_symbol(ABC_SUB, n)),
]


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS, ids=IDS)
def test_at_matches_prefix_across_the_first_level(name, make, L, symbol):
    positions = np.array([0, 1, 2, 3, L - 2, L - 1, L, L + 1, 5, L // 2, 7 * L // 3], dtype=np.int64)
    stream = make()
    want = make().prefix(int(positions.max()) + 1)[positions]
    got = stream.at(positions)
    assert got.dtype == np.int32
    assert got.tolist() == want.tolist()
    assert stream.at(positions[::-1]).tolist() == want[::-1].tolist()  # order-free


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS, ids=IDS)
def test_at_matches_digit_definition_on_deep_levels(name, make, L, symbol):
    positions = [L * L - 1, L * L, L * L + 1, L * L * L + 5]
    positions += [(1 << 40) + k for k in range(-3, 17)]
    positions += [(1 << 62) - 1 + k for k in (-2, -1, 0)]
    got = make().at(positions)
    assert got.tolist() == [symbol(n) for n in positions]


def test_veech_at_reads_the_last_point_of_each_tower():
    """n_t - 1 is the one point of its size whose tau is above t."""
    stream = veech_stream(VEECH)
    for t in range(1, 39):
        n = 3**t - 1
        assert stream.at([n]).tolist() == [veech_symbol(VEECH, n)]
        assert stream.at([n - 1, n]).tolist() == [veech_symbol(VEECH, n - 1), veech_symbol(VEECH, n)]


def test_at_on_many_levels_matches_prefix():
    """With a tiny level radix every read crosses several levels."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    long_head = morse.MorseSpec(cyclic_group(3), ((0, 1), (0, 2, 1), (0, 0), (0, 1, 1)), (0, 2))
    makers = [
        lambda: subst.fixed_point_stream(TM_SUB),
        lambda: subst.fixed_point_stream(ABC_SUB),
        ABC_COVER.stream,
        lambda: morse.morse_stream(KAKUTANI),
        lambda: morse.morse_stream(long_head),
    ]
    horizon = 1 << 14
    prefixes = [make().prefix(horizon) for make in makers]

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        level_min=st.integers(1, 40),
        level_max=st.integers(1, 120),
        positions=st.lists(st.integers(0, horizon - 1), min_size=1, max_size=50),
    )
    def check(level_min, level_max, positions):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "LEVEL_MIN", level_min)
            mp.setattr(streams, "LEVEL_MAX", level_max)
            for make, prefix in zip(makers, prefixes):
                assert make().at(positions).tolist() == prefix[positions].tolist()

    check()


@pytest.mark.parametrize("head, first", [
    ((), 20000),
    (((0, 1, 1),), 3 * 20000),
    (((0,) + (1,) * 20000,), 20001),
], ids=["tail", "narrow_head", "wide_head"])
def test_a_step_too_wide_to_multiply_is_a_level_of_its_own(head, first):
    """A 20,000-symbol block times another would pass LEVEL_MAX, so every level holds at most one of them."""
    spec = morse.MorseSpec(cyclic_group(2), head, (0, 1) * 10000)
    stream = morse.morse_stream(spec)
    positions = [0, 19999, 20000, 123456789, 1 << 40, (1 << 62) + 5]
    assert stream.at(positions).tolist() == [morse_symbol(spec, n) for n in positions]
    levels = stream._read._levels
    assert [radix for radix, _ in levels] == [first] + [20000] * (len(levels) - 1)
    assert max(table.size for _, table in levels) <= LEVEL_MAX


def test_head_longer_than_a_level_is_split():
    """A head whose product outgrows LEVEL_MIN spans several levels, never one huge table."""
    spec = morse.kakutani_spec([1, 0] * 20)  # n_h = 2^40
    n = (1 << 45) + 12345
    assert morse.morse_stream(spec).at([n, 3, 1 << 39]).tolist() == [
        morse_symbol(spec, n), morse_symbol(spec, 3), morse_symbol(spec, 1 << 39)
    ]


@pytest.mark.parametrize("spec, head_levels", [
    (ABC_COVER.morse_spec(), 0),
    (morse.MorseSpec(cyclic_group(2), (), (0, 1)), 0),
    (LONG_HEAD, 2),
], ids=["abc_cover", "thue_morse", "long_head"])
def test_levels_past_the_head_are_one_array(spec, head_levels):
    """The repeated tail level is held once, however many levels a far read crosses."""
    stream = morse.morse_stream(spec)
    assert stream.at([(1 << 62) + 5]).tolist() == [morse_symbol(spec, (1 << 62) + 5)]
    tables = [table for _, table in stream._read._levels]
    assert len(tables) >= head_levels + 2
    # each level is a C-ordered int32 copy, not a view of the product it came from
    assert all(t.dtype == np.int32 and t.flags.c_contiguous and t.flags.owndata for t in tables)
    assert all(table is tables[head_levels] for table in tables[head_levels:])
    assert len({id(table) for table in tables}) == head_levels + 1


def test_at_tables_are_built_on_first_read():
    # theta(b) does not start with b: the stream binds, the first read fails
    sub = subst.Substitution.from_words({"a": "ab", "b": "aa"}, seed="b")
    stream = subst.fixed_point_stream(sub)
    for _ in range(2):
        with pytest.raises(ValueError, match="no one-sided fixed point"):
            stream.at([0])


def test_at_without_a_reader_gathers_from_the_prefix():
    s = periodic_stream([2, 0, 1])
    assert s.at([7, 0, 5]).tolist() == [0, 2, 1]
    assert s.at([]).tolist() == []
    with pytest.raises(ValueError):
        s.at([3, -1])
    w = word_stream([0, 1, 1, 0])
    with pytest.raises(ValueError):
        w.at([4])
    with pytest.raises(ValueError):
        subst.fixed_point_stream(TM_SUB).at([-2])


# ---------------------------------------------------------------------------
# runs: prefix(), block() and iteration read through the same reader as at()


def run_starts(L):
    return [0, L - 1, L, L + 1, 7 * L // 3, L * L, (1 << 40) + 5, (1 << 40) + 6, (1 << 63) - 70]


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS, ids=IDS)
def test_runs_match_the_digit_definition(name, make, L, symbol):
    stream = make()
    for start in run_starts(L):
        for count in (0, 1, 70):
            got = stream.block(start, count)
            assert got.dtype == np.int32 and got.shape == (count,)
            assert got.tolist() == [symbol(n) for n in range(start, start + count)], (start, count)
    assert stream.prefix(0).shape == (0,)
    with pytest.raises(ValueError):
        stream.block((1 << 63) - 69, 70)  # the last position would pass int64


# independent prefixes: the substitution and Morse builders, and the scalar
# definitions of the RS and Veech symbols on a shorter horizon
REFERENCES = {
    "thue_morse": lambda n: subst.fixed_point(TM_SUB, n),
    "abc": lambda n: subst.fixed_point(ABC_SUB, n),
    "abc_cover": lambda n: morse.morse_prefix(ABC_COVER.morse_spec(), n),
    "kakutani": lambda n: morse.morse_prefix(KAKUTANI, n),
    "long_head": lambda n: morse.morse_prefix(LONG_HEAD, n),
    "rs": lambda n: np.array([pattern_parity(k, RS_PATTERN) for k in range(n)]),
    "veech": lambda n: np.array([veech_symbol(VEECH, k) for k in range(n)]),
}


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS, ids=IDS)
def test_long_runs_match_an_independent_prefix(name, make, L, symbol):
    if name == "rs":
        L = 1 << 12  # scalar reads are slow; runs from 0 to 10L/3 still cross many powers of two
    horizon = 10 * L // 3 + 2
    want = REFERENCES[name](horizon)
    stream = make()
    assert stream.prefix(horizon).tolist() == want.tolist()
    for start, count in ((0, L + 1), (L - 1, 2 * L + 3), (L + 1, L - 2), (7 * L // 3, L + 2), (5, 0)):
        assert stream.block(start, count).tolist() == want[start : start + count].tolist(), (start, count)


def test_runs_on_many_levels_match_the_builders():
    """With a tiny level radix the rows of a run come from reads through several levels."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("thue_morse", "abc", "abc_cover", "kakutani", "long_head")
    makers = [make for name, make, _, _ in SYSTEMS if name in names]
    horizon = 1 << 14
    prefixes = [REFERENCES[name](horizon) for name in names]

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(level_min=st.integers(1, 40), level_max=st.integers(1, 120), start=st.integers(0, horizon),
                      count=st.integers(0, 300))
    def check(level_min, level_max, start, count):
        count = min(count, horizon - start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "LEVEL_MIN", level_min)
            mp.setattr(streams, "LEVEL_MAX", level_max)
            for make, prefix in zip(makers, prefixes):
                assert make().block(start, count).tolist() == prefix[start : start + count].tolist()

    check()


# stepped runs: the streams above, a Morse stream whose first level (256 wide)
# is gathered row by row rather than copied, an RS pattern past 64 characters
# (the reader's early return) and the RS extension
Z700 = morse.MorseSpec(cyclic_group(700), (), (0, 1))
STEPPED = [(name, make, L) for name, make, L, _ in SYSTEMS + COMPOSED] + [
    ("z700", lambda: morse.morse_stream(Z700), first_level(Z700)),
    ("rs65", lambda: SymbolStream(arith.PatternReader("1" + "*" * 63 + "1"), alphabet_size=2), 1 << 16),
    ("rs_extension", lambda: rs_extension_stages([1, 0, 1], max_level=4)[1], 1 << 16),
]


@pytest.mark.parametrize("name,make,L", STEPPED, ids=[s[0] for s in STEPPED])
def test_a_stepped_block_is_every_step_th_symbol_of_its_run(name, make, L):
    """block(start, count, step) equals block(start, step (count - 1) + 1)[::step] for steps 1..16."""
    stream = make()
    reach = len(TM_WORD) if name == "word" else 1 << 63
    starts = [0, 1, L - 1, L, L + 1, 7 * L // 3, (1 << 40) - L // 2, (1 << 40) + 3]
    for step in range(1, 17):
        many_rows = 3 * L // step + 5  # crosses three rows or more
        for start in starts:
            for count in (0, 1, 2, 37, many_rows):
                stop = start + step * (count - 1) + 1 if count else start
                if stop > reach:
                    continue
                got = stream.block(start, count, step)
                assert got.dtype == np.int32 and got.shape == (count,), (start, count, step)
                want = stream.block(start, stop - start)[::step]
                assert got.tolist() == want.tolist(), (start, count, step)
    with pytest.raises(ValueError):
        stream.block((1 << 63) - 32, 3, 16)  # its last position would pass int64


def test_a_stepped_digit_read_holds_only_the_symbols_it_keeps():
    """Thue-Morse at step 16: the kept 2^15 symbols (128 KiB), not a run of 2^19 (2 MiB)."""
    stream = subst.fixed_point_stream(TM_SUB)
    step, count, start = 16, 1 << 15, (1 << 40) + 3
    stream.block(0, 1)  # builds the digit levels
    tracemalloc.start()
    try:
        got = stream.block(start, count, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [bin(n).count("1") % 2 for n in range(start, start + step * count, step)]
    assert peak < step * count * 4 // 8, peak


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS + COMPOSED, ids=IDS + [c[0] for c in COMPOSED])
def test_writing_into_a_read_changes_no_later_read(name, make, L, symbol):
    """Every read is a fresh writable array, so writing into it touches no table or source."""
    stream = make()
    want = [symbol(n) for n in range(8)]
    for read in (lambda: stream.block(0, 8), lambda: stream.prefix(8), lambda: stream.at(np.arange(8))):
        got = read()
        got[:] = -1
        assert stream.block(0, 8).tolist() == want
        assert stream.prefix(8).tolist() == want
        assert stream.at(np.arange(8)).tolist() == want
    assert stream.block(L - 4, 8).tolist() == [symbol(n) for n in range(L - 4, L + 4)]


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS, ids=IDS)
def test_iterating_a_reader_backed_stream(name, make, L, symbol):
    stream = make()
    it = iter(stream)
    assert [next(it) for _ in range(10)] == [symbol(n) for n in range(10)]
    assert stream.position == 10
    assert stream.block(0, 3).tolist() == [symbol(n) for n in range(3)]
    assert next(it) == symbol(10)


def test_cli_streams_call_no_builder(monkeypatch):
    """Every system kind the CLI binds reads runs, positions and iteration through its reader.

    The first positional argument of SymbolStream.__init__ is wrapped with a
    pass-through counter, the way perfbench/child.py times stream reads, and
    the prefix builders fail.
    """
    text = "".join([
        'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\n',
        'substitution h on {a, b, c} {\n  a -> "aabaa";\n  b -> "bcabb";\n  c -> "cbccc";\n}\n',
        "morse hc over cover-of h\n",
        'morse kak over Zn(4) blocks ["01", "02", repeat "0123"]\n',
        'rs rs1 pattern "%s"\n' % RS_PATTERN,
        'veech v base 2 group Z2 psi repeat "10"\n',
    ])
    reads = {}
    init = SymbolStream.__init__

    def counting_init(stream, read, *args, **kwargs):
        def counted(key):
            reads[stream.name] = reads.get(stream.name, 0) + 1
            return read(key)

        init(stream, counted, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a prefix builder was called")

    monkeypatch.setattr(SymbolStream, "__init__", counting_init)
    monkeypatch.setattr(subst, "fixed_point", refuse)
    monkeypatch.setattr(morse, "morse_prefix", refuse)
    monkeypatch.setattr(arith, "pattern_parities", refuse)
    doc = parse_spec(text)
    assert not isinstance(doc, list), doc
    assert reads == {}  # binding reads nothing
    # x[n] from the digits of n, by system kind
    symbols = {
        "substitution": substitution_symbol,
        "morse": morse_symbol,
        "rs": lambda pattern, n: pattern_parity(n, pattern),
        "veech": veech_symbol,
    }
    positions = [0, 5, (1 << 40) + 3, (1 << 62) + 7]
    for name in doc.bound:
        bound = build_system(doc, name)
        stream = bound.stream

        def symbol(n):
            return symbols[bound.kind](bound.definition, n)

        prefix = [symbol(n) for n in range(100)]
        assert stream.prefix(100).tolist() == prefix, name
        assert stream.block(70000, 50).tolist() == [symbol(n) for n in range(70000, 70050)], name
        assert stream.at(positions).tolist() == [symbol(n) for n in positions], name
        assert [next(stream) for _ in range(5)] == prefix[:5]
        assert reads[name] == 8  # prefix, block, at and five steps, one reader call each
    assert set(reads) == {"tm", "h", "hc", "kak", "rs1", "v"}
