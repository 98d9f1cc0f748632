import numpy as np
import pytest

from mobiuslab import morse, subst
from mobiuslab.arith import pattern_parity
from mobiuslab.cli import build_system
from mobiuslab.odometer import OdometerSpec, VeechSpec, veech_stream, veech_tau
from mobiuslab.permgrp import cyclic_group
from mobiuslab.specfile import parse_spec
from mobiuslab.streams import LEVEL_MIN, SymbolStream, periodic_stream, word_stream


def test_prefix_and_block_reads():
    calls = []

    def build(n):
        calls.append(n)
        return np.arange(n) % 3

    s = SymbolStream(build, name="mod3", alphabet_size=3)
    assert s.prefix(5).tolist() == [0, 1, 2, 0, 1]
    assert s.block(3, 4).tolist() == [0, 1, 2, 0]
    # both reads served by one build thanks to padding
    assert len(calls) == 1
    assert s.prefix(200).tolist() == list(np.arange(200) % 3)
    assert len(calls) == 2


def test_prefix_is_read_only():
    s = periodic_stream([0, 1])
    p = s.prefix(4)
    with pytest.raises(ValueError):
        p[0] = 9


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


def test_inconsistent_build_detected():
    state = {"flip": False}

    def build(n):
        out = np.zeros(n, dtype=np.int32)
        if state["flip"]:
            out[0] = 1
        return out

    s = SymbolStream(build, name="liar")
    s.prefix(10)
    state["flip"] = True
    with pytest.raises(ValueError):
        s.prefix(1000)


def test_short_build_detected():
    s = SymbolStream(lambda n: np.zeros(3, dtype=np.int32), name="stubby")
    with pytest.raises(ValueError):
        s.prefix(10)


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


# ---------------------------------------------------------------------------
# positional reads: at() against the prefix and against the digit definitions

TM_SUB = subst.Substitution.from_words({"0": "01", "1": "10"})
# columns: the identity, the transposition (a b) and the 3-cycle a -> b -> c;
# every letter starts its own row, and the fixed point starts at the last one
ABC_SUB = subst.Substitution.from_words({"a": "abb", "b": "bac", "c": "cca"}, seed="c")
ABC_COVER = subst.group_cover(ABC_SUB)
KAKUTANI = morse.kakutani_spec([0, 1, 1, 0])
VEECH = VeechSpec(OdometerSpec(tail=3), cyclic_group(2), psi_head=(0, 1), psi_tail=(1, 0, 0))
RS_PATTERN = "1*1"


def least_power(lam):
    """The radix of a digit level: the least power of lam >= LEVEL_MIN."""
    L = 1
    while L < LEVEL_MIN:
        L *= lam
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
    ("thue_morse", lambda: subst.fixed_point_stream(TM_SUB), least_power(2),
     lambda n: bin(n).count("1") % 2),
    ("abc", lambda: subst.fixed_point_stream(ABC_SUB), least_power(3),
     lambda n: substitution_symbol(ABC_SUB, n)),
    ("abc_cover", ABC_COVER.stream, least_power(3),
     lambda n: morse_symbol(ABC_COVER.morse_spec(), n)),
    ("kakutani", lambda: morse.morse_stream(KAKUTANI), KAKUTANI.n(4) * least_power(2),
     lambda n: morse_symbol(KAKUTANI, n)),
    ("rs", rs_stream, least_power(2), lambda n: pattern_parity(n, RS_PATTERN)),
    ("veech", lambda: veech_stream(VEECH), least_power(3), lambda n: veech_symbol(VEECH, n)),
]
IDS = [s[0] for s in SYSTEMS]


@pytest.mark.parametrize("name,make,L,symbol", SYSTEMS, ids=IDS)
def test_at_matches_prefix_across_the_first_level(name, make, L, symbol):
    positions = np.array([0, 1, 2, 3, L - 2, L - 1, L, L + 1, 5, L // 2, 7 * L // 3], dtype=np.int64)
    stream = make()
    want = make().prefix(int(positions.max()) + 1)[positions]
    got = stream.at(positions)
    assert got.dtype == np.int32
    assert got.tolist() == want.tolist()
    assert stream.at(positions[::-1]).tolist() == want[::-1].tolist()  # order-free
    assert len(stream._prefix) == 0  # at() built no prefix


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
        positions=st.lists(st.integers(0, horizon - 1), min_size=1, max_size=50),
    )
    def check(level_min, positions):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subst, "LEVEL_MIN", level_min)
            mp.setattr(morse, "LEVEL_MIN", level_min)
            for make, prefix in zip(makers, prefixes):
                assert make().at(positions).tolist() == prefix[positions].tolist()

    check()


def test_head_longer_than_a_level_is_split():
    """A head whose product outgrows LEVEL_MIN spans several levels, never one huge table."""
    spec = morse.kakutani_spec([1, 0] * 20)  # n_h = 2^40
    n = (1 << 45) + 12345
    assert morse.morse_stream(spec).at([n, 3, 1 << 39]).tolist() == [
        morse_symbol(spec, n), morse_symbol(spec, 3), morse_symbol(spec, 1 << 39)
    ]


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
