import json
import pathlib

import numpy as np
import pytest

from mobiuslab.arith import LIMIT_CAP, weight_table
from mobiuslab.experiment import (
    ExperimentConfig,
    _format_number,
    block_sweep,
    csv_bytes,
    kbsz_series,
    pow2_checkpoints,
    report_csv,
    report_json,
    run_config,
    run_experiment,
    sarnak_series,
)
from mobiuslab.spectral import Observable, make_symbol_table, make_walsh
from mobiuslab.specfile import parse_spec
from mobiuslab.spectral import _LEAF, make_block_indicator
from mobiuslab.streams import SymbolStream, periodic_stream, word_stream
from mobiuslab.subst import Substitution, fixed_point_stream

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"
TM = fixed_point_stream(Substitution(((0, 1), (1, 0)), ("0", "1")), name="thue_morse")
W0 = make_walsh((0,))


def test_pow2_checkpoints():
    assert pow2_checkpoints(1) == (1,)
    assert pow2_checkpoints(16) == (1, 2, 4, 8, 16)
    assert pow2_checkpoints(20) == (1, 2, 4, 8, 16, 20)
    with pytest.raises(ValueError):
        pow2_checkpoints(0)


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        sarnak_series(TM, W0, None, ())
    with pytest.raises(ValueError):
        sarnak_series(TM, W0, None, (0, 4))
    with pytest.raises(ValueError):
        sarnak_series(TM, W0, None, (4, 4, 8))


def test_sarnak_matches_direct_sum():
    mu = weight_table("moebius", 600)
    rep = sarnak_series(TM, W0, mu, (1, 7, 100, 600))
    v = W0.evaluate(TM, 1, 600)
    for m, got in zip(rep.checkpoints, rep.values):
        direct = np.dot(v[:m], mu.values[1 : m + 1]) / m
        assert got == pytest.approx(direct, abs=1e-15)
    assert rep.weight == "moebius" and rep.system == "thue_morse"
    assert rep.final == rep.values[-1]


def test_sarnak_unweighted():
    rep = sarnak_series(TM, W0, None, (4096,))
    v = W0.evaluate(TM, 1, 4096)
    assert rep.final == pytest.approx(np.mean(v), abs=1e-15)
    assert rep.weight == "none"


def test_weight_table_too_short():
    mu = weight_table("moebius", 100)
    with pytest.raises(ValueError):
        sarnak_series(TM, W0, mu, (1, 200))


def test_kbsz_periodic_is_one():
    # odd dilations preserve parity, so the periodic word gives exactly 1
    stream = periodic_stream([0, 1], name="alternating")
    rep = kbsz_series(stream, W0, 3, 5, pow2_checkpoints(4096))
    assert all(v == 1.0 + 0.0j for v in rep.values)
    assert rep.primes == (3, 5) and rep.weight is None
    with pytest.raises(ValueError):
        kbsz_series(stream, W0, 0, 5, (16,))


def test_kbsz_matches_direct_sum():
    rep = kbsz_series(TM, W0, 3, 5, (1, 10, 1000))
    prefix = TM.prefix(5 * 1000 + 1)
    signs = 1.0 - 2.0 * prefix
    for m, got in zip(rep.checkpoints, rep.values):
        n = np.arange(1, m + 1)
        direct = np.mean(signs[3 * n] * signs[5 * n])
        assert got == pytest.approx(direct, abs=1e-15)


def test_block_sweep_partition():
    reports = block_sweep(TM, 2, None, (2048,))
    assert sorted(reports) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # indicators of the length-2 blocks partition every position
    total = sum(rep.final for rep in reports.values())
    assert total == 1.0 + 0.0j
    with pytest.raises(ValueError):
        block_sweep(TM, 0, None, (64,))


def test_block_sweep_refuses_n_beyond_the_cap_before_reading():
    def read(key):
        raise AssertionError("read at %r before the sweep was refused" % (key,))

    with pytest.raises(ValueError, match="^N = %d is beyond the sample-size cap %d$" % (LIMIT_CAP + 1, LIMIT_CAP)):
        block_sweep(SymbolStream(read, alphabet_size=2), 2, None, (64, LIMIT_CAP + 1))


def test_block_sweep_refuses_a_short_weight_table_before_reading():
    def read(key):
        raise AssertionError("read at %r before the sweep was refused" % (key,))

    with pytest.raises(ValueError, match="^weight table reaches 63, need 64$"):
        block_sweep(SymbolStream(read, alphabet_size=2), 2, weight_table("moebius", 63), (8, 64))


@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("n", [1000, _LEAF - 1, _LEAF, 2 * _LEAF + 3])
def test_block_sweep_matches_a_whole_prefix_scan(k, n):
    """Blocks collected a run at a time are those of every window starting at 0..N.

    The word ends in the only 1, so one block appears in the last window
    alone, and a read past that window fails.
    """
    late = word_stream([0] * (n + k - 1) + [1], alphabet_size=2)
    for stream, weights in ((TM, None), (late, None), (TM, weight_table("moebius", n))):
        windows = np.lib.stride_tricks.sliding_window_view(stream.prefix(n + k), k)
        blocks = sorted(map(tuple, np.unique(windows, axis=0).tolist()))
        got = block_sweep(stream, k, weights, pow2_checkpoints(n))
        assert list(got) == blocks
        for block in blocks:
            want = sarnak_series(stream, make_block_indicator(block, 0, 2), weights, pow2_checkpoints(n))
            assert report_json(got[block]) == report_json(want)


def joined_csv(header, rows):
    """The CSV text joined whole, one str per line."""
    lines = [header] + [",".join(["%d" % first] + [_format_number(v) for v in numbers]) for first, *numbers in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


SPECIAL_VALUES = (-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 1 / 3, -1e300)


@pytest.mark.parametrize("count", [0, 1, 3 * (1 << 16) + 5])
def test_csv_bytes_equal_the_whole_join(count):
    """One % template per piece writes the bytes of one _format_number per value, in 2- and 3-column rows."""
    for width, header in ((2, "k,value"), (3, "N,real,imag")):
        rng = np.random.default_rng(count)
        values = rng.normal(size=(count, width - 1)) * 10.0 ** rng.integers(-20, 20, size=(count, width - 1))
        rows = [(k, *map(float, numbers)) for k, numbers in enumerate(values)]
        # each special value in each column, near the start and across the first piece's end
        for k, v in enumerate(SPECIAL_VALUES * (width - 1)):
            for at in (k, (1 << 16) - 4 + k):
                if at < count:
                    column = 1 + k % (width - 1)
                    rows[at] = rows[at][:column] + (v,) + rows[at][column + 1:]
        got = csv_bytes(header, iter(rows))
        assert got == joined_csv(header, rows)
        if count > 1:  # row 0 holds -0.0, written as 0, and row 1 nan
            lines = got.split(b"\n")
            assert lines[1].split(b",")[1] == b"0" and b"nan" in lines[2].split(b",")


def test_report_csv_matches_golden():
    mu = weight_table("moebius", 1 << 20)
    rep = sarnak_series(TM, W0, mu, pow2_checkpoints(1 << 20))
    assert report_csv(rep) == (GOLDEN / "sarnak_tm_moebius_pow2.csv").read_bytes()


def test_final_values_match_golden():
    mu = weight_table("moebius", 1 << 20)
    rep = sarnak_series(TM, W0, mu, (1 << 20,))
    frozen = json.loads((GOLDEN / "sarnak_tm_moebius.json").read_text())
    assert rep.final.real == frozen["value"] and rep.final.imag == 0.0

    kb = kbsz_series(TM, W0, 3, 5, (1 << 18,))
    frozen = json.loads((GOLDEN / "kbsz_tm_3_5.json").read_text())
    assert kb.final.real == frozen["value"] and kb.final.imag == 0.0


def test_report_json_shape():
    rep = kbsz_series(TM, W0, 3, 5, (16, 64))
    payload = json.loads(report_json(rep))
    assert payload["metadata"] == {
        "system": "thue_morse",
        "observable": "walsh{0}",
        "weight": None,
        "r": 3,
        "s": 5,
    }
    assert [row["N"] for row in payload["rows"]] == [16, 64]
    assert payload["rows"][1]["real"] == rep.final.real


def test_run_experiment_writes_files(tmp_path):
    config = ExperimentConfig(
        name="demo",
        stream=TM,
        observable=W0,
        sample_size=512,
        weight=weight_table("liouville", 512),
    )
    report, paths = run_experiment(config, tmp_path)
    assert [p.name for p in paths] == ["demo.csv", "demo.json"]
    assert paths[0].read_bytes() == report_csv(report)
    assert paths[1].read_bytes() == report_json(report)
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        run_experiment(config, tmp_path / "refused", formats=("csv", "yaml"))
    assert not (tmp_path / "refused").exists()


def test_resolved_checkpoints():
    config = ExperimentConfig(name="x", stream=TM, observable=W0, sample_size=20)
    assert config.checkpoints == (1, 2, 4, 8, 16, 20)
    with pytest.raises(ValueError, match="checkpoint 32 beyond sample size 20"):
        ExperimentConfig(name="x", stream=TM, observable=W0, sample_size=20, checkpoints=(8, 32))


def test_config_requires_distinct_primes():
    for pair in ((4, 5), (3, 3), (1, 2)):
        with pytest.raises(ValueError):
            ExperimentConfig(
                name="x", stream=TM, observable=W0, sample_size=16, kbsz=pair
            )
    ok = ExperimentConfig(name="x", stream=TM, observable=W0, sample_size=16, kbsz=(3, 5))
    assert ok.kbsz == (3, 5)


def test_float_products_rerun_to_same_bytes():
    # float products make the summation order visible; the order is fixed
    obs = make_symbol_table({0: 0.1, 1: -0.7})
    mu = weight_table("moebius", 1 << 15)
    config = ExperimentConfig(
        name="float_run",
        stream=TM,
        observable=obs,
        sample_size=1 << 15,
        weight=mu,
    )
    assert report_csv(run_config(config)) == report_csv(run_config(config))

    kb = [report_csv(kbsz_series(TM, obs, 3, 5, pow2_checkpoints(1 << 15))) for _ in range(2)]
    assert kb[0] == kb[1]


def test_integer_partial_sums_are_exact():
    # checkpoints on both sides of 4096 and one far from any power of two
    checkpoints = (1, 4095, 4096, 4097, 12293)
    mu = weight_table("moebius", checkpoints[-1])
    rep = sarnak_series(TM, W0, mu, checkpoints)
    bits = TM.prefix(checkpoints[-1] + 1).tolist()
    exact, n = 0, 0
    for m, got in zip(checkpoints, rep.values):
        while n < m:
            n += 1
            exact += (1 - 2 * bits[n]) * int(mu.values[n])
        assert got.imag == 0.0
        assert got.real == exact / m


def test_kbsz_blocks_sum_like_one_gathered_vector():
    """Reading the products a piece at a time leaves every float sum unchanged.

    The reference is the whole-vector form: gather v(rn) and v(sn) from one
    prefix and reduce once with np.add.reduceat and np.cumsum.  N spans
    several pieces and a ragged tail, the table is float-valued and complex,
    and the window has two offsets.
    """
    from mobiuslab.spectral import Observable

    rng = np.random.default_rng(11)
    sub = Substitution.from_words({"a": "abb", "b": "bac", "c": "cca"})
    obs = Observable(window=(0, 2), alphabet_size=3, values=rng.normal(size=9) + 1j * rng.normal(size=9))
    n = 3 * _LEAF + 17
    checkpoints = pow2_checkpoints(n)
    r, s = 7, 3
    prefix = fixed_point_stream(sub).prefix(r * n + obs.span)
    idx = np.arange(1, n + 1)

    def gathered(positions):
        return obs.values[prefix[positions] * 3 + prefix[positions + 2]]

    products = gathered(r * idx) * np.conj(gathered(s * idx))
    sums = np.cumsum(np.add.reduceat(products, (0,) + checkpoints[:-1]))
    want = tuple(complex(c) / m for c, m in zip(sums, checkpoints))
    assert kbsz_series(fixed_point_stream(sub), obs, r, s, checkpoints).values == want


def _hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("weight", [None, "moebius", "liouville"])
@pytest.mark.parametrize("table", ["complex", "real"])
def test_float_sarnak_sums_like_one_gathered_vector(weight, table):
    """A float-table Sarnak sum is the whole-vector reduction of values[idx] * w, bit for bit.

    The reference gathers v(1..N) from one prefix, weights it in one
    product and reduces once with np.add.reduceat and np.cumsum.  N spans
    three pieces of _LEAF and a ragged tail; the pow2 segments are summed in
    pieces below and above 2^14 values, and the ragged checkpoints cut
    pieces short.
    """
    from mobiuslab.spectral import Observable

    rng = np.random.default_rng(25)
    n = 3 * _LEAF + 17
    if table == "complex":
        stream = fixed_point_stream(Substitution.from_words({"a": "abb", "b": "bac", "c": "cca"}))
        values = (rng.normal(size=9) + 1j * rng.normal(size=9)) * 10.0 ** rng.integers(-6, 7, size=9)
        obs = Observable(window=(0, 2), alphabet_size=3, values=values)
    else:
        stream, obs = TM, make_symbol_table({0: 0.1, 1: -0.7})
    prefix = stream.prefix(n + obs.span + 1)
    positions = np.arange(1, n + 1)
    idx = np.zeros(n, dtype=np.int64)
    for off in obs.window:
        idx = idx * obs.alphabet_size + prefix[positions + off]
    weights = None if weight is None else weight_table(weight, n)
    x = obs.values[idx] if weights is None else obs.values[idx] * weights.values[1 : n + 1]
    ragged = (1, 2, 3, 100, (1 << 14) + 3, _LEAF + 1, 2 * _LEAF - 5, n)
    for checkpoints in (pow2_checkpoints(n), ragged):
        sums = np.cumsum(np.add.reduceat(x, (0,) + checkpoints[:-1]))
        want = [complex(c) / m for c, m in zip(sums, checkpoints)]
        assert _hex(sarnak_series(stream, obs, weights, checkpoints).values) == _hex(want)


def test_pieces_sum_in_numpys_order():
    """The reduction replays np.cumsum(np.add.reduceat(x, starts)) bit for bit.

    The replay copies numpy's pairwise split, so a numpy whose split moves
    fails here instead of moving report bytes.  Magnitudes span 16 decades,
    so any other order changes some bits; the all -0.0 vector pins the signs
    of zero sums.
    """
    from mobiuslab.spectral import _LEAF, _partial_sums

    rng = np.random.default_rng(2024)
    lengths = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1]
    lengths += [(1 << k) + d for k in range(16, 21) for d in (-1, 1)] + [(1 << 22) + 5]
    for n in lengths:
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-8, 8, size=n)
        ragged = tuple(sorted({1, n, *rng.integers(1, n + 1, size=6).tolist()}))
        vectors = [x, np.full(n, complex(-0.0, -0.0))] if n in (9, _LEAF + 1, (1 << 17) + 1) else [x]
        for v in vectors:
            for checkpoints in (pow2_checkpoints(n), ragged):
                calls = []

                def fill(lo, hi):
                    calls.append(hi - lo)
                    return v[lo:hi].copy()

                got = _partial_sums(fill, checkpoints)
                want = np.cumsum(np.add.reduceat(v, (0,) + checkpoints[:-1]))
                assert _hex(got) == _hex(want), (n, checkpoints)
                assert max(calls) <= _LEAF and sum(calls) == n


def test_kbsz_reads_positions_without_a_prefix():
    """No read is s N long: each strided run returns at most _LEAF + span symbols.

    Every value comes from a strided run, at (3, 5) and at (17, 19), and no
    read builds a prefix.
    """
    stream = fixed_point_stream(Substitution(((0, 1), (1, 0)), ("0", "1")))
    block, lengths = stream.block, []

    def refuse(*args):
        raise AssertionError("kbsz built a prefix")

    def recorded(start, count, step=1):
        lengths.append(count)
        return block(start, count, step)

    stream.prefix, stream.block = refuse, recorded
    frozen = json.loads((GOLDEN / "kbsz_tm_3_5.json").read_text())
    final = kbsz_series(stream, W0, 3, 5, (1 << 18,)).final
    assert final.real == frozen["value"] and final.imag == 0.0
    assert lengths and max(lengths) <= _LEAF + W0.span
    lengths.clear()
    r, s, n = 17, 19, 1 << 12
    # Thue-Morse is popcount parity, so the final is a direct sum
    want = sum((-1) ** (bin(r * k).count("1") + bin(s * k).count("1")) for k in range(1, n + 1)) / n
    assert kbsz_series(stream, W0, r, s, (n,)).final == want
    assert lengths and max(lengths) <= _LEAF + W0.span


def _signed_integer_table(rng, size, zero_share):
    """Small Gaussian integers; a share of the parts are zeros, mostly -0.0."""
    parts = rng.integers(-3, 4, size=(2, size)).astype(np.float64)
    zero = rng.random((2, size)) < zero_share
    parts[zero] = np.where(rng.random(int(zero.sum())) < 0.8, -0.0, 0.0)
    table = np.empty(size, dtype=np.complex128)
    table.real, table.imag = parts
    return table


def test_class_counts_sum_to_the_float_reductions_bytes(monkeypatch):
    """Every series on an integer table is counted, and its sums equal the float reduction's bits.

    Each call of the count path is checked against _partial_sums over
    the class table at the classes and over the float products, by float
    hex.  The tables hold -0.0 and +0.0 parts, the checkpoints have
    one-position segments, where a -0.0 total shows, and the KBSZ steps lie
    on both sides of 16.
    """
    from mobiuslab import experiment, spectral
    from mobiuslab.spectral import Observable

    partial, counted = spectral._partial_sums, []

    def refuse(fill, checkpoints):
        raise AssertionError("an integer table fell back to the float reduction")

    def checked(left, values, right, members):
        sums = spectral._class_sums(left, values, right, members)
        width = max((len(factors) for factors, _ in members if factors is not None), default=1)
        for got, (factors, checkpoints) in zip(sums, members, strict=True):
            table = (np.repeat(values, width) if factors is None
                     else (values[:, None] * np.conjugate(factors)).reshape(-1))
            assert len(table) == len(values) * width

            def classes(lo, hi):
                return left(lo, hi) if width == 1 else left(lo, hi) * width + right(lo, hi)

            def fill(lo, hi, factors=factors):
                if factors is None:
                    return values[left(lo, hi)]
                return values[left(lo, hi)] * np.conjugate(factors[right(lo, hi)])

            assert _hex(got) == _hex(partial(lambda lo, hi: table[classes(lo, hi)], checkpoints))
            assert _hex(got) == _hex(partial(fill, checkpoints))
            counted.append(got)
        return sums

    monkeypatch.setattr(spectral, "_partial_sums", refuse)
    monkeypatch.setattr(experiment, "_class_sums", checked)
    rng = np.random.default_rng(22)
    abc = fixed_point_stream(Substitution.from_words({"a": "abb", "b": "bac", "c": "cca"}))
    n = 2 * _LEAF + 3
    mu, lam = weight_table("moebius", n), weight_table("liouville", n)
    ragged = (1, 2, 3, 5, 6, 7, 100, 101, _LEAF, _LEAF + 1, n)
    negative_zeros = 0
    for trial in range(12):
        stream, letters, window = (TM, 2, (0, 1)) if trial % 2 else (abc, 3, (0, 2))
        table = _signed_integer_table(rng, letters ** len(window), (0.3, 0.9, 1.0)[trial % 3])
        obs = Observable(window=window, alphabet_size=letters, values=table)
        checkpoints = ragged if trial % 4 < 2 else pow2_checkpoints(n)
        reports = [sarnak_series(stream, obs, weights, checkpoints) for weights in (None, mu, lam)]
        reports += [kbsz_series(stream, obs, r, s, checkpoints) for r, s in ((2, 3), (3, 17), (23, 19))]
        negative_zeros += sum(np.signbit(v.real) + np.signbit(v.imag) for rep in reports for v in rep.values if v == 0)
    assert len(counted) == 12 * 6
    assert negative_zeros > 0


@pytest.mark.parametrize("case, counted", [
    ("at the bound, N 2", True),
    ("at the bound, N 1", True),
    ("one past the bound", False),
    ("one class past _LEAF", False),
    ("not integral", False),
    ("nan", False),
    ("inf", False),
])
def test_class_sums_count_only_exact_tables(monkeypatch, case, counted):
    """The gate: at most _LEAF classes, integral products, N max|part| <= 2^53.

    Either path gives the float reduction's bytes.
    """
    from mobiuslab import spectral

    top, n, size = {
        "at the bound, N 2": (2.0 ** 52, 2, 5),
        "at the bound, N 1": (2.0 ** 53, 1, 5),
        "one past the bound": (float((2 ** 53 + 1) // 3), 3, 5),  # 3 top = 2^53 + 1
        "one class past _LEAF": (1.0, 7, _LEAF + 1),
        "not integral": (0.5, 7, 5),
        "nan": (float("nan"), 7, 5),
        "inf": (float("inf"), 7, 5),
    }[case]
    table = np.array([complex(-0.0, 1.0), complex(2.0, -0.0), -3.0] + [0.0] * (size - 4) + [complex(-1.0, top)])
    cls = np.full(n, size - 1, dtype=np.int32)  # the first three products hold top: at N <= 3 the sum is N top
    cls[3:] = np.arange(n - 3) % size
    checkpoints = tuple(range(1, n + 1))
    partial, ran, built = spectral._partial_sums, [], []

    def recorded(fill, points):
        ran.append("float")
        return partial(fill, points)

    class Recorded(np.ndarray):  # records each class table the gate reads
        def tolist(self):
            built.append(len(self))
            return super().tolist()

    monkeypatch.setattr(spectral, "_partial_sums", recorded)
    (got,) = spectral._class_sums(lambda lo, hi: cls[lo:hi].copy(), table.view(Recorded), None, [(None, checkpoints)])
    assert ran == ([] if counted else ["float"])
    assert built == ([] if size > _LEAF else [size])
    assert _hex(got) == _hex(partial(lambda lo, hi: table[cls[lo:hi]], checkpoints))


def test_series_gate_follows_the_sample_size(monkeypatch):
    """A 1e15 table is counted up to N = 9 (9e15 <= 2^53) and summed as floats from N = 10."""
    from mobiuslab import spectral

    partial, ran = spectral._partial_sums, []
    monkeypatch.setattr(spectral, "_partial_sums", lambda fill, points: ran.append(points[-1]) or partial(fill, points))
    huge = make_symbol_table({0: 1e15, 1: -3})
    for n in (9, 10):
        sarnak_series(TM, huge, weight_table("moebius", n), pow2_checkpoints(n))
    kbsz_series(TM, make_symbol_table({0: 1, 1: 0.5}), 3, 5, (4,))
    assert ran == [10, 4]


SYSTEMS = parse_spec(
    'substitution abc on {a, b, c} {\n  a -> "abb";\n  b -> "bac";\n  c -> "cca";\n}\n'
    'morse cov over cover-of abc\nrs rsd pattern "1*10"\n').bound


def _grouped_equal_alone(stream, obs, members):
    """_sarnak_reports of the members equal each member's sarnak_series, float hex and JSON bytes."""
    from mobiuslab.experiment import _sarnak_reports

    for got, (weights, points) in zip(_sarnak_reports(stream, obs, members), members, strict=True):
        want = sarnak_series(stream, obs, weights, points)
        assert _hex(got.values) == _hex(want.values) and report_json(got) == report_json(want), (weights, points)


def test_grouped_sums_equal_each_sum_alone_and_count_once(monkeypatch):
    """None, mu and lambda members, pow2 and ragged checkpoints, different N; lambda's table ends before mu's.

    The tables hold -0.0 parts, the reals of both signs: an unweighted
    product is the table value itself.  Every member is counted, and the
    group reads each piece of the stream once.
    """
    from mobiuslab import spectral
    from mobiuslab.experiment import _sarnak_reports

    def refuse(fill, checkpoints):
        raise AssertionError("an integer table fell back to the float reduction")

    monkeypatch.setattr(spectral, "_partial_sums", refuse)
    n = 2 * _LEAF + 3
    mu, lam = weight_table("moebius", n), weight_table("liouville", _LEAF + 7)
    ragged = (1, 2, 3, 5, 6, 7, 100, 101, _LEAF, _LEAF + 1, n)
    members = [(None, pow2_checkpoints(n)), (mu, ragged), (lam, pow2_checkpoints(_LEAF + 7)), (mu, (4, 999)),
               (None, (1, 2, 777)), (lam, ragged[:8])]
    rng = np.random.default_rng(30)
    signed = Observable(window=(0,), alphabet_size=2, values=[complex(-2, -0.0), complex(3, -0.0)])
    for obs in (signed, W0, Observable(window=(0, 1), alphabet_size=2, values=_signed_integer_table(rng, 4, 0.6))):
        for kinds in ((None,), (mu,), (lam,), (mu, lam), (None, mu, lam)):
            _grouped_equal_alone(TM, obs, [m for m in members if m[0] in kinds])
    assert "-0.0" in report_json(_sarnak_reports(TM, signed, members[:2])[0]).decode()
    reads, block = [], TM.block
    monkeypatch.setattr(TM, "block", lambda start, count, step=1: reads.append((start, count)) or block(start, count, step))
    _sarnak_reports(TM, W0, [(mu, pow2_checkpoints(n)), (lam, pow2_checkpoints(_LEAF + 7))])
    assert sorted(reads) == reads and sum(count for _, count in reads) == n  # each of n = 1..N read once
    assert all(a + c == b for (a, c), (b, _) in zip(reads, reads[1:])) and reads[0][0] == 1


def test_grouped_members_keep_their_own_gate(monkeypatch):
    """1e15 passes 2^53 / N at N = 9 and fails at N = 10; a float table fails at any N.  Each failing member
    is summed alone by the float reduction, the others are counted, and every report is the sum's alone."""
    from mobiuslab import spectral
    from mobiuslab.experiment import _sarnak_reports

    partial, ran = spectral._partial_sums, []
    monkeypatch.setattr(spectral, "_partial_sums", lambda fill, points: ran.append(points[-1]) or partial(fill, points))
    mu, lam = weight_table("moebius", 12), weight_table("liouville", 12)
    huge, half = make_symbol_table({0: 1e15, 1: -3}), make_symbol_table({0: 0.5, 1: -1.25})
    members = [(mu, pow2_checkpoints(9)), (lam, (3, 10)), (None, (2, 9)), (mu, (1, 12))]
    for obs, floats in ((huge, [10, 12]), (half, [9, 10, 9, 12])):
        ran.clear()
        _sarnak_reports(TM, obs, members)
        assert ran == floats, obs
        _grouped_equal_alone(TM, obs, members)


def test_grouped_sums_past_leaf_joint_classes_split_by_member(monkeypatch):
    """A 2^14-entry Walsh table under none, mu and lambda has 2^16 joint classes: the unweighted member is still
    counted over its 2^14, each weighted one is summed as floats, and every report is the sum's alone.  Lambda's
    table ends before mu's."""
    from mobiuslab import spectral
    from mobiuslab.experiment import _sarnak_reports

    partial, ran = spectral._partial_sums, []
    monkeypatch.setattr(spectral, "_partial_sums", lambda fill, points: ran.append(points[-1]) or partial(fill, points))
    obs = make_walsh(range(14))
    assert len(obs.values) <= _LEAF < 3 * len(obs.values)
    mu, lam = weight_table("moebius", 3000), weight_table("liouville", 2000)
    members = [(None, pow2_checkpoints(2500)), (mu, (1, 5, 999, 3000)), (lam, pow2_checkpoints(2000))]
    _sarnak_reports(TM, obs, members)
    assert ran == [3000, 2000]
    _grouped_equal_alone(TM, obs, members)


@pytest.mark.parametrize("system", ["thue_morse", "cov", "rsd"])
def test_block_sweep_equals_each_indicator_sum(system):
    """Weighted and unweighted sweeps, pow2 and given checkpoints, on a substitution, a cover and an RS stream."""
    stream = TM if system == "thue_morse" else SYSTEMS[system].stream
    letters = stream.alphabet_size or 2
    n = 3000
    for k in (1, 3):
        windows = np.lib.stride_tricks.sliding_window_view(stream.prefix(n + k), k)
        blocks = sorted(map(tuple, np.unique(windows, axis=0).tolist()))
        for weights in (None, weight_table("moebius", n), weight_table("liouville", n)):
            for points in (pow2_checkpoints(n), (1, 2, 5, 1000, 2999, n)):
                got = block_sweep(stream, k, weights, points, letters)
                assert list(got) == blocks
                for block in blocks:
                    want = sarnak_series(stream, make_block_indicator(block, 0, letters), weights, points)
                    assert _hex(got[block].values) == _hex(want.values) and report_json(got[block]) == report_json(want)


def test_block_sweep_past_leaf_classes_equals_the_float_sums():
    """At k = 14 a weighted indicator has 3 2^14 > _LEAF classes, so sarnak_series sums it as floats."""
    n = 1500
    got = block_sweep(TM, 14, weight_table("liouville", n), (7, n))
    assert len(got) > 10
    for block, report in got.items():
        want = sarnak_series(TM, make_block_indicator(block, 0, 2), weight_table("liouville", n), (7, n))
        assert _hex(report.values) == _hex(want.values) and report_json(report) == report_json(want)


def test_block_sweep_reads_do_not_grow_with_the_blocks():
    """Thue-Morse has 10 blocks of length 4 and a random word all 16: the sweeps make the same stream reads."""
    n, k = 3 * _LEAF, 4
    rng = np.random.default_rng(4)
    reads = []
    for stream in (TM, word_stream(rng.integers(0, 2, n + k), alphabet_size=2)):
        calls, block = [], stream.block
        stream.block = lambda start, count, step=1, block=block, calls=calls: calls.append((start, count)) or block(
            start, count, step)
        reads.append((len(block_sweep(stream, k, weight_table("moebius", n), pow2_checkpoints(n))), calls))
    (tm_blocks, tm_calls), (word_blocks, word_calls) = reads
    assert (tm_blocks, word_blocks) == (10, 16)
    assert tm_calls == word_calls and sum(count for _, count in tm_calls) == k * (n + 1)
