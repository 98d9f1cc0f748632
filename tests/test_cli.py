import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from mobiuslab import arith, cli, morse, subst
from mobiuslab.arith import LIMIT_CAP, pattern_parity, weight_table
from mobiuslab.binding import BindingError
from mobiuslab.cli import main
from mobiuslab.experiment import _format_number
from mobiuslab.spectral import GRID_CAP
from mobiuslab.streams import SymbolStream

REPO = pathlib.Path(__file__).parent.parent
SPECS = REPO / "specs"
GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"
TM_SPEC = str(SPECS / "thue_morse.spec")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen(capsys):
    code, out, err = run(capsys, "gen", TM_SPEC, "--system", "tm", "--n", "16")
    assert (code, out, err) == (0, "0110100110010110\n", "")


def test_gen_infers_unique_system(capsys):
    code, out, _ = run(capsys, "gen", str(SPECS / "herning.spec"), "--system", "herning", "--n", "5")
    assert code == 0 and out == "aabaa\n"


def test_cover(capsys):
    code, out, err = run(capsys, "cover", str(SPECS / "herning.spec"), "--system", "herning")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "|G| = 6"
    assert lines[1] == "block = 0 1 2 0 0"
    assert lines[2:] == [
        "column 0: e",
        "column 1: (b c)",
        "column 2: (a b)",
        "column 3: e",
        "column 4: e",
    ]


def test_hat(capsys):
    code, out, _ = run(capsys, "hat", TM_SPEC, "--system", "tm", "--n", "15")
    assert code == 0 and out == "101110101011101\n"


ZN = 'morse m over Zn(1000) blocks [repeat "%s"]\n'


@pytest.mark.parametrize("block, command", [
    ("0a", ["gen", "--n", "16"]),
    ("01", ["hat", "--n", "8"]),
    ("01", ["blocks", "--t", "3"]),
], ids=["gen", "hat", "blocks"])
def test_symbols_without_a_digit_exit_two(capsys, tmp_path, block, command):
    """x[15] = 4 * 10 = 40 has no base-36 digit; x-hat[3] = -1 = 999 neither."""
    (tmp_path / "z.spec").write_text(ZN % block)
    code, out, err = run(capsys, command[0], str(tmp_path / "z.spec"), *command[1:])
    assert code == 2 and err.startswith("error: symbol ") and "base-36" in err
    assert out == ""  # blocks spells every stage before it prints one


def test_gen_spells_every_letter(capsys, tmp_path):
    (tmp_path / "ab.spec").write_text('substitution s on {é, Z} {\n  é -> "éZ";\n  Z -> "Zé";\n}\n')
    code, out, err = run(capsys, "gen", str(tmp_path / "ab.spec"), "--n", "8")
    assert (code, out, err) == (0, "éZZéZééZ\n", "")
    code, out, err = run(capsys, "hat", str(tmp_path / "ab.spec"), "--n", "7")
    assert (code, out, err) == (0, "1011101\n", "")


@pytest.mark.parametrize("piece", [1, 3, 8, 1000])
def test_gen_and_hat_print_the_same_text_in_any_pieces(capsys, monkeypatch, tmp_path, piece):
    """gen and hat spell their output a piece at a time; the text is the whole word's."""
    monkeypatch.setattr(cli, "_PIECE", piece)
    for spec, system, n in ((TM_SPEC, "tm", 29), (str(SPECS / "herning.spec"), "herning", 31)):
        bound = cli.build_system(cli.load_document(spec), system)
        want = cli.render_word(bound.stream.prefix(n), bound.letters)
        assert run(capsys, "gen", spec, "--system", system, "--n", str(n)) == (0, want + "\n", "")
        want = cli.render_word(morse.hat_word(cli.system_group(bound), bound.stream.prefix(n + 1)))
        assert run(capsys, "hat", spec, "--system", system, "--n", str(n)) == (0, want + "\n", "")
    # x[15] = 40 has no digit: the piece that holds it fails, and nothing is printed
    (tmp_path / "z.spec").write_text(ZN % "0a")
    code, out, err = run(capsys, "gen", str(tmp_path / "z.spec"), "--n", "16")
    assert (code, out) == (2, "") and "base-36" in err


def test_skeleton(capsys):
    code, out, _ = run(capsys, "skeleton", "--lam", "2", "--t", "3", "--k", "5")
    assert code == 0 and out == "-5\n"
    code, out, _ = run(capsys, "skeleton", "--lam", "2", "--t", "3", "--k", "8")
    assert code == 0 and out == "0\n"


def test_blocks(capsys):
    code, out, _ = run(capsys, "blocks", str(SPECS / "herning.spec"), "--system", "herning", "--t", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t=1 |word|=5 aabaa"
    assert lines[1].startswith("t=2 |word|=25 aabaaaabaabcabb")


@pytest.mark.parametrize("system", ["herning", "herning_cover"])
def test_blocks_refuses_a_negative_t_after_loading_the_system(capsys, system):
    spec = str(SPECS / "herning.spec")
    assert run(capsys, "blocks", spec, "--system", system, "--t", "-3") == (
        2, "", "error: --t must be nonnegative, got -3\n")
    assert run(capsys, "blocks", spec, "--system", system, "--t", "0") == (0, "", "")
    code, _, err = run(capsys, "blocks", spec, "--system", "nope", "--t", "-3")
    assert code == 2 and err.startswith("error: unknown system 'nope'")


@pytest.mark.parametrize("command", [["corr"], ["sarnak", "--n", "64"], ["kbsz", "--n", "64", "--primes", "3,5"]])
def test_a_table_giving_one_symbol_twice_exits_two(capsys, tmp_path, command):
    (tmp_path / "t.spec").write_text(
        'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\nobservable t = table {0: 1, 1: 2, 01: 5}\n'
    )
    assert run(capsys, command[0], str(tmp_path / "t.spec"), "--observable", "t", *command[1:]) == (
        2, "", "error: observable 't' gives one symbol twice, as '1' and as '01'\n")


def test_corr_header(capsys):
    code, out, _ = run(
        capsys, "corr", TM_SPEC, "--system", "tm", "--observable", "w0",
        "--n", "4096", "--lags", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lag,real,imag"
    assert lines[1] == "0,1,0"
    assert len(lines) == 6


def test_spectrum_header(capsys):
    code, out, _ = run(
        capsys, "spectrum", TM_SPEC, "--system", "tm", "--observable", "w0",
        "--n", "8192", "--lags", "32", "--grid", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 9


def test_sarnak_final(capsys):
    code, out, _ = run(
        capsys, "sarnak", TM_SPEC, "--system", "tm", "--observable", "w0", "--n", "1024",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "final = 0.00390625 + 0i at N = 1024"
    assert lines[1] == "N,real,imag"
    assert lines[-1] == "1024,0.00390625,0"


def test_kbsz_final(capsys):
    code, out, _ = run(
        capsys, "kbsz", TM_SPEC, "--observable", "w0", "--n", "1024", "--primes", "3,5",
    )
    assert code == 0
    assert out.splitlines()[0] == "final = 0.328125 + 0i at N = 1024"


def test_kbsz_rejects_bad_primes(capsys):
    code, _, err = run(
        capsys, "kbsz", TM_SPEC, "--observable", "w0", "--n", "64", "--primes", "4,5",
    )
    assert code == 2 and err.startswith("error:")


def test_kbsz_prime_beyond_primality_bound_exits_two(capsys):
    code, _, err = run(
        capsys, "kbsz", TM_SPEC, "--observable", "w0", "--n", "64", "--primes", "3,%d" % 10**30,
    )
    assert code == 2 and err.startswith("error:") and "not decided" in err


@pytest.mark.parametrize("s", [100000000000031, 18446744073709551557])
def test_kbsz_positions_beyond_int64_exit_two(capsys, s):
    code, out, err = run(
        capsys, "kbsz", TM_SPEC, "--observable", "w0", "--n", "1048576", "--primes", "3,%d" % s,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "(3, %d)" % s in err and str((1 << 63) - 1) in err


def run_limited(*argv, cwd=None, python=("-m", "mobiuslab.cli")):
    """The CLI (or python with other arguments) in a child process under a 1.2 GB address-space limit.

    The limit is set in the child only, so this process is unaffected; an
    allocation the limit refuses ends the child in a MemoryError traceback.
    """
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1200 << 20, 1200 << 20))

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *python, *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=300, cwd=cwd,
    )


COMPOSED_FAR_READS = """
import numpy as np
from mobiuslab import morse, subst
from mobiuslab.permgrp import cyclic_group

z2 = cyclic_group(2)
tm = morse.morse_stream(morse.MorseSpec(z2, (), (0, 1)))
herning = subst.Substitution.from_words({"a": "aabaa", "b": "bcabb", "c": "cbccc"})
cover = subst.group_cover(herning)
base = subst.fixed_point_stream(herning)
hat = morse.hat_stream(z2, tm)
factor = subst.factor_stream(cover, cover.stream())
positions = np.array([(1 << 40) + k for k in range(-3, 17)] + [(1 << 63) - 70], dtype=np.int64)

def popcount_parity(n):
    return bin(int(n)).count("1") % 2

want = [morse.hat_word(z2, tm.block(int(p), 2))[0] for p in positions]
assert want == [(popcount_parity(p + 1) - popcount_parity(p)) % 2 for p in positions]
assert hat.at(positions).tolist() == want
assert hat.at([1 << 40]).tolist() == want[3:4]
assert hat.block(1 << 40, 70).tolist() == morse.hat_word(z2, tm.block(1 << 40, 71)).tolist()

want = subst.factor_map(cover, cover.stream().at(positions)).tolist()
assert want == base.at(positions).tolist()
assert factor.at(positions).tolist() == want
assert factor.at([1 << 40]).tolist() == want[3:4]
assert factor.block(1 << 40, 70).tolist() == base.block(1 << 40, 70).tolist()
print("ok")
"""


def test_composed_streams_read_far_positions():
    """hat and factor streams read their source at the positions asked, not a prefix up to them."""
    proc = run_limited(python=("-c", COMPOSED_FAR_READS))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_kbsz_memory_grows_with_n_not_with_the_dilation():
    """s * N is about 10^9 here; the positions are read without a prefix."""
    proc = run_limited("kbsz", TM_SPEC, "--observable", "w0", "--n", "1024", "--primes", "3,1000003")
    assert proc.returncode == 0, proc.stderr
    # Thue-Morse is popcount parity, so the final is a direct sum
    want = sum((-1) ** (bin(3 * n).count("1") + bin(1000003 * n).count("1")) for n in range(1, 1025)) / 1024
    assert want == -0.009765625
    assert proc.stdout.splitlines()[0] == "final = -0.009765625 + 0i at N = 1024"


@pytest.mark.parametrize("command", [
    ["kbsz", "--primes", "3,5"],
    ["sarnak", "--weight", "none"],
], ids=["kbsz", "sarnak_unweighted"])
def test_unweighted_sums_beyond_the_cap_exit_two(command):
    """N = 2^27 is refused before any N-long vector is allocated.

    Run under a 1.2 GB address-space limit, where an N-long products vector
    would not fit.
    """
    proc = run_limited(command[0], TM_SPEC, "--observable", "w0", "--n", "134217728", *command[1:])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and str(LIMIT_CAP) in proc.stderr


@pytest.mark.parametrize("command", [
    ["kbsz", "--primes", "3,5"],
    ["sarnak", "--weight", "moebius"],
], ids=["kbsz", "sarnak_moebius"])
def test_sums_at_the_cap_run_in_flat_memory(command):
    """N = 2^26 runs under a 1.2 GB address-space limit: no N-long complex vector is held."""
    proc = run_limited(command[0], TM_SPEC, "--observable", "w0", "--n", str(LIMIT_CAP), *command[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].endswith(" at N = %d" % LIMIT_CAP)
    assert proc.stdout.splitlines()[-1].startswith("%d," % LIMIT_CAP)


# VmHWM is the child's own peak RSS; ru_maxrss would also hold the peak of the process that started it
needs_vmhwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                 reason="no /proc/self/status to read VmHWM from")

STEPPED_READS = """
import numpy as np
from mobiuslab.cli import build_system
from mobiuslab.morse import MorseSpec, hat_stream, morse_stream
from mobiuslab.permgrp import cyclic_group
from mobiuslab.specfile import parse_spec
from mobiuslab.subst import factor_stream

doc = parse_spec('''substitution h on {a, b, c} { a -> "aabaa"; b -> "bcabb"; c -> "cbccc"; }
morse hc over cover-of h
morse kak over Zn(4) blocks ["01", "02", repeat "0123"]
rs rs1 pattern "1*10"
veech v base 2 group Z2 psi repeat "10"
''')
z2, cover = cyclic_group(2), build_system(doc, "h").cover
streams = {kind: build_system(doc, name).stream for kind, name in
           (("substitution", "h"), ("cover", "hc"), ("morse", "kak"), ("rs", "rs1"), ("veech", "v"))}
streams.update(hat=hat_stream(z2, morse_stream(MorseSpec(z2, (), (0, 1)))), factor=factor_stream(cover, cover.stream()))
start, count = (1 << 40) + 3, 1 << 15

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as fh:
        return [int(line.split()[1]) for line in fh if line.startswith("VmHWM:")][0]

for stream in streams.values():  # every table the reads below need
    stream.at([start, start + 10 ** 5 * count])
base = peak_kib()
for kind, stream in streams.items():
    for step in (17, 64, 1024, 10 ** 4, 10 ** 5):
        got = stream.block(start, count, step)
        assert np.array_equal(got, stream.at(start + step * np.arange(count, dtype=np.int64))), (kind, step)
print(base, peak_kib())
"""


@needs_vmhwm
def test_stepped_reads_hold_what_they_keep():
    """block(start, 2^15, step) equals the positions it keeps on every system kind, at steps up to 10^5.

    No reader holds the whole run it steps through: 10^5 * 2^15 int32 would
    be 13 GB, and the child's peak stays within 32 MiB of its peak after
    the digit tables are built.
    """
    proc = run_limited(python=("-c", STEPPED_READS))
    assert proc.returncode == 0, proc.stderr
    base, peak = map(int, proc.stdout.split())
    assert peak - base < 32 << 10, (base, peak)


HAT_PEAK = """
import sys
from mobiuslab import cli

letters = [chr(0x4E00 + i) for i in range(int(sys.argv[1]))]
rules = "".join('  %s -> "%s%s";\\n' % (c, c, letters[(i + 1) % len(letters)]) for i, c in enumerate(letters))
with open("wide.spec", "w", encoding="utf-8") as fh:
    fh.write("substitution wide on {%s} {\\n%s}\\n" % (", ".join(letters), rules))
code = cli.main(["hat", "wide.spec", "--n", "8"])
with open("/proc/self/status", encoding="ascii") as fh:
    print(code, [int(line.split()[1]) for line in fh if line.startswith("VmHWM:")][0])
"""


@needs_vmhwm
def test_hat_refuses_z_r_above_the_closure_cap(tmp_path):
    """A 10,001-letter substitution would need a 10,001^2 Z/r table (400 MB); it is refused before it is built."""
    proc = run_limited("10001", python=("-c", HAT_PEAK), cwd=str(tmp_path))
    assert proc.stderr == "error: hat over Z/10001 is beyond the group cap 10000\n", proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 2 and peak_kib < 200 << 10, peak_kib


@needs_vmhwm
@pytest.mark.parametrize("letters", [37, 10000])
def test_hat_refuses_an_unprintable_z_r_before_building_it(tmp_path, monkeypatch, capsys, letters):
    """Z/r above 36 has no base-36 digit for r - 1; at 10,000 letters the table would be 400 MB."""
    proc = run_limited(str(letters), python=("-c", HAT_PEAK), cwd=str(tmp_path))
    assert proc.stderr == "error: symbol %d has no letter or base-36 digit to print\n" % (letters - 1), proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 2 and peak_kib < 200 << 10, peak_kib
    monkeypatch.setattr(cli, "cyclic_group", lambda r: pytest.fail("Z/%d built before the refusal" % r))
    assert run(capsys, "hat", str(tmp_path / "wide.spec"), "--n", "1")[0] == 2


PEAK_AT_N = """
import os, sys
from mobiuslab import cli

code = cli.main([*sys.argv[2:], "--n", sys.argv[1], "--out", os.devnull])
with open("/proc/self/status", encoding="ascii") as fh:
    print(code, [int(line.split()[1]) for line in fh if line.startswith("VmHWM:")][0])
"""


@pytest.mark.parametrize("command", [
    ["kbsz", "--primes", "3,5"],
    ["sarnak", "--weight", "none"],
    ["corr", "--lags", "256"],
], ids=["kbsz", "sarnak_unweighted", "corr"])
@needs_vmhwm
def test_peak_memory_does_not_grow_with_n(command):
    """The peak RSS (VmHWM, KiB) of a sum at N = 2^24 is within 4 MiB of that at 2^20."""
    peaks = []
    for n in (1 << 20, 1 << 24):
        proc = run_limited(str(n), command[0], TM_SPEC, "--observable", "w0", *command[1:],
                           python=("-c", PEAK_AT_N))
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= 4 << 10, peaks


FAR_SYSTEMS = """substitution tm on {0, 1} {
  0 -> "01";
  1 -> "10";
}
rs rs11 pattern "11"
veech vtm base 2 group Z2 psi repeat "10"
morse kak over Z2 blocks ["00", "01", "00", repeat "01"]
observable far = walsh {100000000000}
"""
FAR_EXPERIMENTS = (("e_tm", "tm", "moebius"), ("e_rs", "rs11", "none"), ("e_v", "vtm", "liouville"),
                   ("e_kak", "kak", "moebius"))
# Thue-Morse is popcount parity and RS11 counts 11 windows; the Veech symbol
# is Psi(tau), tau one more than the trailing ones; the Morse symbol is the
# sum of b^t[digit t], which is bit 1 plus the bits from 3 up
FAR_SYMBOLS = {
    "tm": lambda n: bin(n).count("1") % 2,
    "rs11": lambda n: pattern_parity(n, "11"),
    "vtm": lambda n: (len(bin(n)) - len(bin(n).rstrip("1")) + 1) % 2,
    "kak": lambda n: ((n >> 1) + bin(n >> 3).count("1")) % 2,
}


def test_far_windows_read_only_the_window(tmp_path):
    """A window 10^11 ahead of N = 64 reads 64 symbols there, for every kind of system."""
    text = FAR_SYSTEMS + "".join(
        "experiment %s { system: %s; observable: far; weight: %s; N: 64; }\n" % e for e in FAR_EXPERIMENTS
    )
    (tmp_path / "far.spec").write_text(text)
    proc = run_limited("run", "far.spec", "--out", "out", cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name, system, weight in FAR_EXPERIMENTS:
        w = weight_table(weight, 64) if weight != "none" else None
        total = sum((-1) ** FAR_SYMBOLS[system](n + 10**11) * (w[n] if w else 1) for n in range(1, 65))
        want = "experiment %s: final = %s + 0i" % (name, _format_number(total / 64))
        assert want in proc.stdout, (want, proc.stdout)


SPARSE_SPEC = 'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\nobservable w = walsh {0, 1000000000}\n'


@pytest.mark.parametrize("command", [
    ["sarnak", "--weight", "none"],
    ["kbsz", "--primes", "3,5"],
    ["corr", "--lags", "64"],
], ids=["sarnak_unweighted", "kbsz", "corr"])
def test_sparse_windows_stay_bounded(tmp_path, command):
    """A window {0, 10^9} reads short runs at both offsets, never the 10^9 symbols (4 GB of int32) between them."""
    (tmp_path / "sparse.spec").write_text(SPARSE_SPEC)
    proc = run_limited(command[0], "sparse.spec", "--observable", "w", "--n", "65536", *command[1:],
                       cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    if command[0] == "sarnak":
        # Thue-Morse is popcount parity, so the product at n is (-1)^(parity of n + parity of n + 10^9)
        total = sum((-1) ** (bin(n).count("1") + bin(n + 10**9).count("1")) for n in range(1, 65537))
        assert total / 65536 == 0.078125
        assert proc.stdout.splitlines()[0] == "final = %s + 0i at N = 65536" % _format_number(total / 65536)


def test_morse_over_a_large_group_reads_in_small_tables(tmp_path):
    """Zn(10000) has a 400 MB table; the digit levels add a few MiB, not order x 2^16 entries."""
    (tmp_path / "z.spec").write_text('morse m over Zn(10000) blocks [repeat "01"]\nobservable one = indicator "1" at 0\n')
    proc = run_limited("sarnak", "z.spec", "--observable", "one", "--n", "65536", "--weight", "none",
                       cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # x[n] is the popcount of n in Z/10000, so the symbol is 1 at n = 2^0, ..., 2^16
    assert proc.stdout.splitlines()[0] == "final = %s + 0i at N = 65536" % _format_number(17 / 65536)


def test_morse_stages_over_a_large_group_gather_only_block_columns(tmp_path):
    """A stage of 2^20 symbols over Zn(1000) multiplies by the block's columns, not by all 1000."""
    (tmp_path / "z.spec").write_text('morse z over Zn(1000) blocks [repeat "00"]\n')
    proc = run_limited("blocks", "z.spec", "--t", "20", cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "t=20 n=1048576 hole=1048575 values=" + "0" * 1048575


@pytest.mark.parametrize("command", [
    ["gen", TM_SPEC, "--n", "10000000000"],
    ["hat", TM_SPEC, "--n", "10000000000"],
], ids=["gen", "hat"])
def test_symbol_counts_beyond_the_cap_exit_two(command):
    proc = run_limited(*command)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and str(LIMIT_CAP) in proc.stderr


def test_morse_stages_beyond_2_20_exit_two():
    proc = run_limited("blocks", str(SPECS / "herning.spec"), "--system", "herning_cover", "--t", "40")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: Toeplitz stage at t=9 exceeds 2^20 symbols\n"  # 5^9 > 2^20


def test_power_words_beyond_2_20_are_refused_before_any_is_printed():
    """t = 1..20 would print 2 MiB of Thue-Morse before t = 21 (2^21 symbols) is refused."""
    proc = run_limited("blocks", TM_SPEC, "--t", "21")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: power word at t=21 exceeds 2^20 symbols\n")


def test_skeleton_with_a_huge_t_answers_at_once():
    """lam^t for t = 10^11 would need 20 GB; it is never formed in full."""
    proc = run_limited("skeleton", "--lam", "3", "--t", "100000000000", "--k", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-5\n", "")


def test_power_words_beyond_2_20_are_refused_before_they_are_built(tmp_path):
    """Under the address-space limit: building the t=2 word of 20,000-letter rules would need 3 GB."""
    (tmp_path / "long.spec").write_text(
        'substitution s on {a, b} {\n  a -> "%s";\n  b -> "%s";\n}\n' % ("ab" * 10000, "ba" * 10000)
    )
    proc = run_limited("blocks", "long.spec", "--t", "2", cwd=str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: power word at t=2 exceeds 2^20 symbols\n"


LONG_RULES = {
    "subst": 'substitution s on {a, b} {\n  a -> "%s";\n  b -> "%s";\n}\nobservable f = table {a: 1, b: -1}\n'
             % ("ab" * 10000, "ba" * 10000),
    "morse": 'morse m over Z2 blocks [repeat "%s"]\nobservable f = walsh {0, 1}\n' % ("0110" * 5000),
}
# x[20000 q + i] = x[q] + b[i] mod 2: b[i] = i mod 2 for the substitution
# (a -> abab..., b -> baba...), the bits of 0110... for the Morse block
LONG_BLOCK = {"subst": lambda i: i % 2, "morse": lambda i: (0, 1, 1, 0)[i % 4]}


@functools.lru_cache(maxsize=None)
def long_symbols(kind, count):
    out = []
    for n in range(count):
        total = 0
        while n:
            n, i = divmod(n, 20000)
            total += LONG_BLOCK[kind](i)
        out.append(total % 2)
    return out


def long_rule_lines(kind, command, n):
    """The lines a call on LONG_RULES[kind] prints, from the digits of each position."""
    x = long_symbols(kind, 5 * n + 2)
    hat = "".join(str((b - a) % 2) for a, b in zip(x, x[1:]))
    v = [1 - 2 * a for a in x] if kind == "subst" else [(-1) ** (a + b) for a, b in zip(x, x[1:])]
    if command == "gen":
        return ["".join(("ab" if kind == "subst" else "01")[a] for a in x[:n])]
    if command == "hat":
        return [hat[:n]]
    if command == "blocks" and kind == "subst":
        return ["t=1 |word|=20000 " + "ab" * 10000]
    if command == "blocks":
        return ["t=1 n=20000 hole=19999 values=" + hat[:19999]]
    if command == "corr":
        return ["lag,real,imag"] + [
            "%d,%s,0" % (lag, _format_number(sum(v[k + lag] * v[k] for k in range(n)) / n)) for lag in range(5)
        ]
    if command == "sarnak":
        total = sum(v[k] for k in range(1, n + 1))
    else:
        total = sum(v[3 * k] * v[5 * k] for k in range(1, n + 1))
    return ["final = %s + 0i at N = %d" % (_format_number(total / n), n)]


@pytest.mark.parametrize("command, argv", [
    ("gen", ["--n", "50000"]),
    ("hat", ["--n", "50000"]),
    ("blocks", ["--t", "1"]),
    ("sarnak", ["--observable", "f", "--n", "50000", "--weight", "none"]),
    ("kbsz", ["--observable", "f", "--n", "50000", "--primes", "3,5"]),
    ("corr", ["--observable", "f", "--n", "50000", "--lags", "4"]),
], ids=["gen", "hat", "blocks", "sarnak", "kbsz", "corr"])
@pytest.mark.parametrize("kind", ["subst", "morse"])
def test_long_rules_read_in_bounded_levels(tmp_path, kind, command, argv):
    """Run under the address-space limit: two 20,000-symbol steps multiplied would be a 3 GiB level.

    Each step stays a level of its own, so every call reads through tables of 40,000 entries.
    """
    (tmp_path / "long.spec").write_text(LONG_RULES[kind])
    proc = run_limited(command, "long.spec", *argv, cwd=str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    want = long_rule_lines(kind, command, int(argv[argv.index("--n") + 1]) if "--n" in argv else 20000)
    assert proc.stdout.splitlines()[: len(want)] == want


COCYCLE_READS = """
from mobiuslab.morse import hat_stream, kakutani_spec, morse_stream
from mobiuslab.odometer import OdometerSpec, morse_cocycle_eval

spec, dyadic = kakutani_spec([1, 0, 1]), OdometerSpec(tail=2)
hat = hat_stream(spec.group, morse_stream(spec))

def x(n):  # blocks 01, 00, then 01 forever: every bit of n but bit 1
    return (bin(n).count("1") - (n >> 1 & 1)) % 2

for v in (2**27 - 1, 2**34 - 1, -2, -5, -2**20 - 3, -2**40 + 7):
    bits = bin(v % 2**70)
    residue = v % 2 ** (len(bits) - len(bits.rstrip("1")) + 1)  # the first stage past the trailing ones
    got = morse_cocycle_eval(spec, dyadic.point(v))
    assert got == hat.at([residue])[0] == (x(residue + 1) - x(residue)) % 2, v
try:
    morse_cocycle_eval(spec, dyadic.point(2**64 - 1))
except ValueError as exc:
    assert "int64 limit" in str(exc), exc
else:
    raise AssertionError("the residue of 2^64 - 1 is 2^64 - 1")
print("ok")
"""


def test_cocycle_reads_the_hat_at_its_residue_in_bounded_memory():
    """Points up to 2^34 - 1 read one hat symbol, not a prefix of n_t symbols (64 GiB at 2^34 - 1)."""
    proc = run_limited(python=("-c", COCYCLE_READS))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


FAR_FLAGS = 'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\nobservable far = walsh {%d}\n'


@pytest.mark.parametrize("command", [
    ["sarnak", "--n", "64"],
    ["sarnak", "--n", "64", "--weight", "none"],
    ["corr", "--n", "64", "--lags", "4"],
    ["spectrum", "--n", "64", "--lags", "4"],
], ids=["sarnak", "sarnak_unweighted", "corr", "spectrum"])
@pytest.mark.parametrize("offset", [10**20, (1 << 63) - 8])
def test_sums_beyond_int64_exit_two(tmp_path, command, offset):
    """Run under the address-space limit: a read past the rule would try to build the window."""
    (tmp_path / "far.spec").write_text(FAR_FLAGS % offset)
    proc = run_limited(command[0], "far.spec", "--observable", "far", *command[1:], cwd=str(tmp_path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: the observable window at N = 64 reads position ")
    assert "beyond the int64 limit %d" % ((1 << 63) - 1) in proc.stderr


def test_autocorrelation_reach_counts_the_lags(tmp_path):
    """N + span - 1 fits in int64 here, but lags up to L read L - 1 positions further."""
    (tmp_path / "far.spec").write_text(FAR_FLAGS % ((1 << 63) - 66))
    proc = run_limited("sarnak", "far.spec", "--observable", "far", "--n", "64", cwd=str(tmp_path))
    assert proc.returncode == 0 and proc.stdout.startswith("final = "), proc.stderr
    for command in ("corr", "spectrum"):
        proc = run_limited(command, "far.spec", "--observable", "far", "--n", "64", "--lags", "4",
                           cwd=str(tmp_path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "reads position %d, beyond the int64 limit" % ((1 << 63) + 1) in proc.stderr


@pytest.mark.parametrize("command", ["sarnak", "kbsz", "corr", "spectrum"])
def test_n_beyond_the_cap_is_named_before_the_int64_reach(capsys, tmp_path, command):
    """N above the cap and a window past int64: every statistic names the cap first."""
    (tmp_path / "far.spec").write_text(FAR_FLAGS % 9223372036854775000)
    code, out, err = run(capsys, command, str(tmp_path / "far.spec"), "--observable", "far", "--n", str(LIMIT_CAP + 1))
    assert (code, out, err) == (2, "", "error: N = %d is beyond the sample-size cap %d\n" % (LIMIT_CAP + 1, LIMIT_CAP))


@pytest.mark.parametrize("offset, weight, last", [
    (10**20, "moebius", 10**20 + 64),
    ((1 << 63) - 8, "none", (1 << 63) + 56),
])
def test_sums_beyond_int64_in_a_spec_exit_one(tmp_path, offset, weight, last):
    experiment = "experiment e { system: tm; observable: far; weight: %s; N: 64; }\n" % weight
    (tmp_path / "far.spec").write_text(FAR_FLAGS % offset + experiment)
    proc = run_limited("run", "far.spec", "--out", "out", cwd=str(tmp_path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(
        "error: line 6, column 1: the observable window at N = 64 reads position %d, beyond the int64 limit" % last
    )
    assert not (tmp_path / "out").exists()


def test_sarnak_writes_file(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    code, _, _ = run(
        capsys, "sarnak", TM_SPEC, "--system", "tm", "--observable", "w0",
        "--n", "256", "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["metadata"]["weight"] == "moebius"
    assert payload["rows"][-1]["N"] == 256


def test_run_matches_golden_csv(capsys, tmp_path):
    code, out, err = run(capsys, "run", TM_SPEC, "--out", str(tmp_path))
    assert code == 0 and err == ""
    produced = tmp_path / "sarnak_tm_moebius.csv"
    assert produced.read_bytes() == (GOLDEN / "sarnak_tm_moebius_pow2.csv").read_bytes()
    assert (tmp_path / "kbsz_tm_3_5.json").exists()
    assert "experiment sarnak_tm_moebius: final = 0.000138282775879" in out


# The files whose experiments the flags can declare: every valid file that has one
VALID_SPECS = [spec for spec in [SPECS / "thue_morse.spec", *sorted((REPO / "tests/fixtures/specs/valid").glob("*.spec"))]
               if "\nexperiment " in spec.read_text()]


@pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda p: str(p.relative_to(REPO)))
def test_flags_and_a_declaration_write_the_same_reports(capsys, tmp_path, spec):
    """sarnak or kbsz given the fields of a file's experiment write the CSV and JSON bytes run writes for it."""
    assert run(capsys, "run", str(spec), "--out", str(tmp_path))[:3:2] == (0, "")
    for decl in cli.load_document(str(spec)).experiments():
        checkpoints = decl.checkpoints if decl.checkpoints == "pow2" else ",".join(map(str, decl.checkpoints))
        argv = [str(spec), "--system", decl.system, "--observable", decl.observable,
                "--n", str(decl.sample_size), "--checkpoints", checkpoints]
        if decl.kbsz is None:
            argv = ["sarnak", *argv, "--weight", decl.weight]
        else:
            argv = ["kbsz", *argv, "--primes", "%d,%d" % decl.kbsz]
        for fmt in ("csv", "json"):
            out = tmp_path / ("flags." + fmt)
            assert run(capsys, *argv, "--format", fmt, "--out", str(out))[:3:2] == (0, "")
            assert out.read_bytes() == (tmp_path / ("%s.%s" % (decl.name, fmt))).read_bytes(), (decl.name, fmt)


@pytest.mark.parametrize("command", [
    ["sarnak", "--observable", "w0", "--n", "4096"],
    ["kbsz", "--observable", "w0", "--n", "4096"],
    ["corr", "--observable", "w0"],
    ["spectrum", "--observable", "w0"],
    ["run"],
], ids=lambda c: c[0])
def test_an_unwritable_out_is_refused_before_the_work(capsys, tmp_path, monkeypatch, command):
    """An --out open or mkdir would refuse exits 2 with their message, before any sieve or stream read.

    The report file of sarnak, kbsz, corr and spectrum must not be a
    directory or sit in a missing one; run's report directory must not be a
    file or sit under one.
    """
    def refuse(*args):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "weight_table", refuse)
    monkeypatch.setattr(SymbolStream, "_get", refuse)
    afile = tmp_path / "afile"
    afile.write_text("")
    cases = ((tmp_path / "nodir" / "x.json", "[Errno 2] No such file or directory"),
             (tmp_path, "[Errno 21] Is a directory"))
    if command[0] == "run":
        cases = ((afile, "[Errno 17] File exists"), (afile / "sub", "[Errno 20] Not a directory"))
    for out, message in cases:
        code, stdout, err = run(capsys, command[0], TM_SPEC, *command[1:], "--out", str(out))
        assert (code, stdout, err) == (2, "", "error: %s: %r\n" % (message, str(out)))
    assert afile.read_text() == ""


def test_bad_spec_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text('substitution tm on {0, 1} {\n  0 "01";\n}\n')
    code, out, err = run(capsys, "gen", str(bad))
    assert code == 1 and out == ""
    assert "error: line 2, column 5" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "gen", str(SPECS / "missing.spec"))
    assert code == 2 and err.startswith("error:")


def test_unknown_system_exits_two(capsys):
    code, _, err = run(capsys, "gen", TM_SPEC, "--system", "nope")
    assert code == 2
    assert err == "error: unknown system 'nope' (have: tm)\n"


def test_veech_and_rs_systems(capsys):
    spec = str(SPECS / "veech_rs.spec")
    code, out, _ = run(capsys, "gen", spec, "--system", "vtm", "--n", "15")
    assert code == 0 and out == "101110101011101\n"
    code, out, _ = run(capsys, "gen", spec, "--system", "rs11", "--n", "16")
    assert code == 0 and out == "0001001000011101\n"


def count_sieves(monkeypatch):
    """The reaches (kind -> N) of each sieve cli runs from now on, in order."""
    calls = []
    sieve = cli.weight_table

    def counting(reaches):
        calls.append(dict(reaches))
        return sieve(reaches)

    monkeypatch.setattr(cli, "weight_table", counting)
    return calls


REUSE_SYSTEMS = """substitution tm on {0, 1} {
  0 -> "01";
  1 -> "10";
}
observable w0 = walsh {0}
"""

REUSE_EXPERIMENTS = (("mu_a", "moebius", 5000), ("lam", "liouville", 5000), ("mu_b", "moebius", 5000))


def reuse_experiment(name, weight, n=5000, fields=""):
    return "experiment %s {\n  system: tm;\n  observable: w0;\n  weight: %s;\n  N: %d;\n%s}\n" % (
        name, weight, n, fields)


# One sweep per file, on the first weighted use, sieves every kind to the
# widest reach any Sarnak sum of that kind declares: N under pow2, else the
# last checkpoint
DESCENDING = (("mu_5000", "moebius", 5000), ("lam_5000", "liouville", 5000), ("mu_3000", "moebius", 3000),
              ("lam_1000", "liouville", 1000), ("mu_1000", "moebius", 1000))
ASCENDING = (("mu_1000", "moebius", 1000), ("mu_3000", "moebius", 3000), ("lam_2000", "liouville", 2000),
             ("mu_3000b", "moebius", 3000), ("mu_5000", "moebius", 5000))
DOUBLING = (("mu_500", "moebius", 500), ("lam_1000", "liouville", 1000), ("mu_1000", "moebius", 1000),
            ("lam_2000", "liouville", 2000), ("mu_2000", "moebius", 2000), ("mu_4000", "moebius", 4000))
CUT_SHORT = (("mu_2000", "moebius", 2000), ("mu_cut", "moebius", 6000, "  checkpoints: [10, 100, 3000];\n"),
             ("lam_cut", "liouville", 6000, "  checkpoints: [7, 2500];\n"), ("mu_1000", "moebius", 1000))
KBSZ_WIDEST = (("mu_1000", "moebius", 1000), ("kbsz_mu", "moebius", 9000, "  kbsz: (3, 5);\n"),
               ("mu_3000", "moebius", 3000))


def test_run_sieves_each_weight_once_per_file(capsys, tmp_path, monkeypatch):
    calls = count_sieves(monkeypatch)
    for label, experiments, sieves in (
        ("three", REUSE_EXPERIMENTS, [{"moebius": 5000, "liouville": 5000}]),
        ("descending", DESCENDING, [{"moebius": 5000, "liouville": 5000}]),
        ("ascending", ASCENDING, [{"moebius": 5000, "liouville": 2000}]),
        ("doubling", DOUBLING, [{"moebius": 4000, "liouville": 2000}]),
        ("cut_short", CUT_SHORT, [{"moebius": 3000, "liouville": 2500}]),
        ("kbsz_widest", KBSZ_WIDEST, [{"moebius": 3000}]),
    ):
        spec = tmp_path / (label + ".spec")
        spec.write_text(REUSE_SYSTEMS + "".join(reuse_experiment(*e) for e in experiments))
        calls.clear()
        code, _, err = run(capsys, "run", str(spec), "--out", str(tmp_path / label))
        assert (code, err) == (0, "")
        assert calls == sieves, label

        for name, *fields in experiments:
            alone = tmp_path / (name + ".spec")
            alone.write_text(REUSE_SYSTEMS + reuse_experiment(name, *fields))
            code, _, _ = run(capsys, "run", str(alone), "--out", str(tmp_path / "alone"))
            assert code == 0
            for ext in (".csv", ".json"):
                solo = (tmp_path / "alone" / (name + ext)).read_bytes()
                assert (tmp_path / label / (name + ext)).read_bytes() == solo, (label, name)


PEAK_OF_CALL = """
import sys
from mobiuslab import cli

code = cli.main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(code, [int(line.split()[1]) for line in fh if line.startswith("VmHWM:")][0])
"""
RUN_WIDE = ("run", "wide.spec", "--out", "out")


@needs_vmhwm
def test_run_keeps_one_observable_table_alive(tmp_path):
    """Two experiments over a 24-coordinate Walsh table (256 MiB): the first is freed before the second is built."""
    (tmp_path / "wide.spec").write_text(
        REUSE_SYSTEMS.replace("walsh {0}", "walsh {%s}" % ", ".join(map(str, range(24))))
        + "".join("experiment %s { system: tm; observable: w0; weight: none; N: 1024; }\n" % name for name in "ab")
    )
    proc = run_limited(*RUN_WIDE, python=("-c", PEAK_OF_CALL), cwd=str(tmp_path))
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and lines[:2] == ["experiment a: final = 0.6640625 + 0i -> out/a.csv, out/a.json",
                                                   "experiment b: final = 0.6640625 + 0i -> out/b.csv, out/b.json"], proc
    code, peak_kib = map(int, lines[2].split())
    assert code == 0 and peak_kib < 450 << 10, peak_kib


@needs_vmhwm
@pytest.mark.parametrize("command", [["gen", "--n", "16"], ["cover"]], ids=["gen", "cover"])
def test_parsing_a_wide_walsh_observable_builds_no_table(tmp_path, command):
    """A file whose experiment reads a 24-coordinate Walsh table (256 MiB): commands that never run it stay small."""
    (tmp_path / "wide.spec").write_text(
        REUSE_SYSTEMS.replace("walsh {0}", "walsh {%s}" % ", ".join(map(str, range(24))))
        + "experiment a { system: tm; observable: w0; weight: none; N: 1024; }\n"
    )
    proc = run_limited(command[0], "wide.spec", *command[1:], python=("-c", PEAK_OF_CALL), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0 and peak_kib < 64 << 10, peak_kib


def test_run_binds_a_repeated_observable_once(capsys, tmp_path, monkeypatch):
    """Consecutive experiments over one (observable, system) pair share its table; another pair rebinds.

    Parsing builds no Walsh table, so two experiments over one walsh {0, 1}
    build it once, and a, b, c, d over w01, w01, w0, w01 build w01 twice.
    """
    from mobiuslab import spectral

    built, make_walsh = [], spectral.make_walsh
    monkeypatch.setattr(spectral, "make_walsh", lambda coords, name=None: built.append(name) or make_walsh(coords, name))
    experiment = "experiment e%d { system: tm; observable: %s; weight: none; N: 64; }\n"
    for label, observables, builds in (("two", "w01 w01", ["w01"]), ("four", "w01 w01 w0 w01", ["w01", "w0", "w01"])):
        spec = tmp_path / (label + ".spec")
        spec.write_text(REUSE_SYSTEMS + "observable w01 = walsh {0, 1}\n"
                        + "".join(experiment % (i, o) for i, o in enumerate(observables.split())))
        built.clear()
        code, _, err = run(capsys, "run", str(spec), "--out", str(tmp_path / label))
        assert (code, err) == (0, "")
        assert built == builds, label


# What a weighted run may hold above the same run unweighted: the packed weight states, N/4 bytes, and one sieve
# block, whose int32 smooth parts and four byte arrays take 4 bytes a position, with 512 KiB of slack.
def weight_cost_bound_kib(n):
    return (n // 4 + 4 * arith._BLOCK) // 1024 + 512


def peak_of_run(tmp_path, experiments):
    """The VmHWM (KiB) of run over REUSE_SYSTEMS and the (name, weight, N) experiments."""
    (tmp_path / "wide.spec").write_text(REUSE_SYSTEMS + "".join(
        "experiment %s { system: tm; observable: w0; weight: %s; N: %d; }\n" % e for e in experiments))
    proc = run_limited(*RUN_WIDE, python=("-c", PEAK_OF_CALL), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    return peak_kib


@needs_vmhwm
def test_run_keeps_one_weight_table_per_kind_alive(tmp_path):
    """Six Moebius sums reaching up from 2^22 - 5 read one 1 MiB array of packed states, as one sum does."""
    reaches = range((1 << 22) - 5, (1 << 22) + 1)
    peaks = [peak_of_run(tmp_path, [("e%d" % i, weight, n) for i, n in enumerate(reaches)])
             for weight in ("none", "moebius")]
    assert peaks[1] - peaks[0] <= weight_cost_bound_kib(1 << 22), peaks  # a copy per sum adds 5 MiB


@needs_vmhwm
def test_one_sweep_holds_one_packed_array_for_both_kinds(tmp_path):
    """mu and lambda sums at 2^22 hold one 1 MiB array, and sarnak's mu at 2^26 one 16 MiB array, under 1.2 GB."""
    peaks = [peak_of_run(tmp_path, [(kind[:3], kind if weighted else "none", 1 << 22)
                                    for kind in ("moebius", "liouville")]) for weighted in (False, True)]
    assert peaks[1] - peaks[0] <= weight_cost_bound_kib(1 << 22), peaks  # an int8 table of a kind adds 4 MiB
    peaks = []
    for weight in ("none", "moebius"):
        proc = run_limited("sarnak", TM_SPEC, "--observable", "w0", "--n", str(LIMIT_CAP), "--weight", weight,
                           "--out", str(tmp_path / "out.csv"), python=("-c", PEAK_OF_CALL))
        assert proc.returncode == 0, proc.stderr
        code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0
        peaks.append(peak_kib)
    assert peaks[1] - peaks[0] <= weight_cost_bound_kib(LIMIT_CAP), peaks  # a second array adds 16 MiB


def test_run_refuses_an_unknown_format_before_it_sieves_or_writes(capsys, tmp_path, monkeypatch):
    calls = count_sieves(monkeypatch)
    for formats, message in (("csv,yaml", "unknown format 'yaml'"), ("csv,csv", "format 'csv' is given twice")):
        code, out, err = run(capsys, "run", TM_SPEC, "--out", str(tmp_path / "out"), "--format", formats)
        assert (code, out, err) == (2, "", "error: %s\n" % message)
        assert calls == [] and not (tmp_path / "out").exists()


def test_spectrum_refuses_a_grid_below_one_before_the_autocorrelation(capsys, monkeypatch):
    def failing(*args):
        raise AssertionError("autocorrelation ran before the grid was checked")

    monkeypatch.setattr(cli._spectral, "autocorrelation", failing)
    for grid, message in (
        ("0", "grid size must be positive, got 0"),
        ("-3", "grid size must be positive, got -3"),
        (str(GRID_CAP + 1), "grid size %d is beyond the cap %d" % (GRID_CAP + 1, GRID_CAP)),
        ("1099511627776", "grid size 1099511627776 is beyond the cap %d" % GRID_CAP),
    ):
        code, out, err = run(capsys, "spectrum", TM_SPEC, "--observable", "w0", "--n", "1024", "--grid", grid)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_kbsz_reads_veech_positions_up_to_the_int64_reach(capsys, tmp_path):
    """tau at 2^63 - 1 counts 63 trailing top digits; no stage length is formed."""
    spec = tmp_path / "v.spec"
    spec.write_text('veech v base 2 group Z2 psi repeat "10"\nobservable far = walsh {9223372036854775804}\n')
    code, out, err = run(capsys, "kbsz", str(spec), "--observable", "far", "--n", "1", "--primes", "2,3")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "final = -1 + 0i at N = 1"


@pytest.mark.parametrize("n, checkpoints, message", [
    (LIMIT_CAP, "0", "checkpoints must be positive, got (0,)"),
    (LIMIT_CAP, "5,3", "checkpoints must be strictly ascending, got (5, 3)"),
    (LIMIT_CAP, "1,%d" % (LIMIT_CAP + 1), "N = %d is beyond the sample-size cap %d" % (LIMIT_CAP + 1, LIMIT_CAP)),
    (0, "pow2", "N must be positive, got 0"),
    (10**12, "100", "N = 1000000000000 is beyond the sample-size cap %d" % LIMIT_CAP),
], ids=["zero", "descending", "beyond_cap", "no_samples", "n_beyond_cap"])
def test_bad_checkpoints_are_refused_before_the_sieve(capsys, monkeypatch, n, checkpoints, message):
    calls = count_sieves(monkeypatch)
    code, out, err = run(capsys, "sarnak", TM_SPEC, "--observable", "w0", "--n", str(n),
                         "--checkpoints", checkpoints)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert calls == []


def test_sieves_reach_the_last_checkpoint(capsys, tmp_path, monkeypatch):
    """A sum at checkpoints 10, 100 reads 100 weights, whatever N is."""
    calls = count_sieves(monkeypatch)
    argv = ["sarnak", TM_SPEC, "--observable", "w0", "--checkpoints", "10,100"]
    far = run(capsys, *argv, "--n", str(LIMIT_CAP))
    assert calls == [{"moebius": 100}]
    assert far[0] == 0 and far == run(capsys, *argv, "--n", "100")
    spec = tmp_path / "few.spec"
    spec.write_text(REUSE_SYSTEMS + "experiment e { system: tm; observable: w0; weight: liouville; N: 5000; "
                    "checkpoints: [10, 100]; }\n")
    assert run(capsys, "run", str(spec), "--out", str(tmp_path / "out"))[0] == 0
    assert calls[2:] == [{"liouville": 100}]


HERNING = """substitution h on {a, b, c} {
  a -> "aabaa";
  b -> "bcabb";
  c -> "cbccc";
}
morse hc over cover-of h
"""
AB = 'substitution s on {a, b} {\n  a -> "ab";\n  b -> "ba";\n}\nobservable t = table {a: 1, b: -1}\n'


@pytest.mark.parametrize("text, line, column, fragment", [
    (HERNING + "observable t = table {9: 1}\nexperiment e { system: hc; observable: t; N: 16; }\n",
     8, 1, "symbol '9' is outside system 'hc'"),
    (HERNING + "observable w = walsh {0}\nexperiment e { system: hc; observable: w; N: 16; }\n",
     8, 1, "binary alphabet"),
    (HERNING + 'veech v base 2 group cover-of h psi repeat "9"\n', 7, 1, "psi repeat block symbol '9'"),
    ('substitution s on {a, b} {\n  a -> "ba";\n  b -> "ab";\n}\n', 1, 1, "no letter fixed at position 0"),
    (AB + "experiment e { system: s; observable: t; N: %d; }\n" % (LIMIT_CAP + 1), 6, 1, str(LIMIT_CAP)),
    (AB + "experiment e { system: s; observable: t; N: 1048576; kbsz: (3, 100000000000031); }\n",
     6, 1, "beyond the int64 limit"),
    (AB + "experiment e { system: s; observable: t; weight: moebius; N: 1000000000000; checkpoints: [100]; }\n",
     6, 1, "N = 1000000000000 is beyond the sample-size cap %d" % LIMIT_CAP),
], ids=["cover_table_key", "cover_walsh", "cover_psi", "no_fixed_letter", "n_above_cap", "kbsz_reach",
        "n_above_cap_few_checkpoints"])
def test_spec_errors_found_while_binding_exit_one(capsys, tmp_path, text, line, column, fragment):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    code, out, err = run(capsys, "run", str(spec), "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith("error: line %d, column %d: " % (line, column)) and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("number", ["1e999", "-1e999"])
@pytest.mark.parametrize("command", [
    ["run", "--out", "OUT"],
    ["sarnak", "--observable", "big", "--weight", "moebius", "--n", "100"],
    ["kbsz", "--observable", "big", "--n", "100", "--primes", "3,5"],
])
def test_a_table_value_past_the_float_range_exits_one(capsys, tmp_path, number, command):
    spec = tmp_path / "big.spec"
    spec.write_text(AB + "observable big = table {a: %s, b: 1}\n" % number)
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in command]
    code, out, err = run(capsys, argv[0], str(spec), *argv[1:])
    assert (code, out) == (1, "") and not (tmp_path / "out").exists()
    column = 29 if number.startswith("-") else 28  # the number, after any minus sign
    assert err.startswith("error: line 6, column %d: number '%s' is too large for a float\n" % (column, number))
    assert "nan" not in err and "Warning" not in err


@pytest.mark.parametrize("observable", ['indicator "01" at 0', 'indicator "ab" at 0', "table {0: 1, 1: -1}"])
def test_symbol_indices_and_letters_bind_alike(capsys, tmp_path, observable):
    spec = tmp_path / "ab.spec"
    spec.write_text(AB + "observable o = %s\n" % observable)
    code, out, err = run(capsys, "sarnak", str(spec), "--observable", "o", "--n", "64")
    assert (code, err) == (0, "") and out.startswith("final = ")


COVER_EXPERIMENTS = (
    ("cov_mu", "weight: moebius; N: 4096;"),
    ("cov_lam", "weight: liouville; N: 4096; checkpoints: [100, 4096];"),
    ("cov_kbsz", "N: 1024; kbsz: (3, 5);"),
)
COVER_TABLE = "observable f = table {0: 1, 1: -1, 2: 0, 3: 1, 4: -1, 5: 0}\n"


def cover_experiment(name, fields):
    return "experiment %s { system: hc; observable: f; %s }\n" % (name, fields)


def test_run_closes_each_cover_once_per_file(capsys, tmp_path, monkeypatch):
    calls = []
    close = subst.closure

    def counting(*args, **kwargs):
        calls.append(args)
        return close(*args, **kwargs)

    monkeypatch.setattr(subst, "closure", counting)
    spec = tmp_path / "three.spec"
    spec.write_text(HERNING + COVER_TABLE + "".join(cover_experiment(*e) for e in COVER_EXPERIMENTS))
    code, _, err = run(capsys, "run", str(spec), "--out", str(tmp_path / "all"))
    assert (code, err) == (0, "")
    assert len(calls) == 1
    # cover reads the closure that binding the cover-of system made
    code, out, _ = run(capsys, "cover", str(spec), "--system", "h")
    assert code == 0 and out.startswith("|G| = 6\n")
    assert len(calls) == 2

    for name, fields in COVER_EXPERIMENTS:
        alone = tmp_path / (name + ".spec")
        alone.write_text(HERNING + COVER_TABLE + cover_experiment(name, fields))
        code, _, _ = run(capsys, "run", str(alone), "--out", str(tmp_path / name))
        assert code == 0
        for ext in (".csv", ".json"):
            solo = (tmp_path / name / (name + ext)).read_bytes()
            assert (tmp_path / "all" / (name + ext)).read_bytes() == solo


def test_build_system_gives_every_caller_the_bound_stream():
    """A stream keeps only its digit tables, so every experiment of a file shares it."""
    doc = cli.load_document(TM_SPEC)
    first, second = cli.build_system(doc, "tm"), cli.build_system(doc, "tm")
    assert first is second is doc.bound["tm"]
    assert first.stream.name == "tm" and first.stream.prefix(8).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
    with pytest.raises(BindingError, match="unknown system 'nope' \\(have: tm\\)"):
        cli.build_system(doc, "nope")


def test_benchmark_hooks_trace_a_run(tmp_path):
    """perfbench/child.py wraps names in the package from outside; a rename must fail here."""
    (tmp_path / "tm.spec").write_text(
        'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\nobservable w0 = walsh {0}\n'
        "experiment s { system: tm; observable: w0; weight: moebius; N: 1024; }\n"
        "experiment k { system: tm; observable: w0; weight: none; N: 1024; kbsz: (3, 5); }\n"
    )
    sidecar = tmp_path / "sidecar.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), str(sidecar), "spans",
         "run", str(tmp_path / "tm.spec"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(sidecar.read_text())["spans"]
    assert spans
    names = {span[0] for span in spans}
    assert {"specfile.parse", "cli.bind", "streams.build.subst", "experiment.report"} <= names, names


# One rule or block 2^20 + 2 symbols long, so blocks refuses its first stage before printing any.
LONG = (1 << 20) + 2
TMP_FILES = {
    "long_subst.spec": 'substitution s on {a, b} {\n  a -> "%s";\n  b -> "%s";\n}\n' % ("ab" * (LONG // 2), "ba" * (LONG // 2)),
    "long_morse.spec": 'morse m over Z2 blocks [repeat "%s"]\n' % ("01" * (LONG // 2)),
    "afile": "",
}
HERNING_SPEC = str(SPECS / "herning.spec")
REFUSALS = {
    "gen_negative_n": (["gen", TM_SPEC, "--n", "-1"], "--n must be nonnegative, got -1"),
    "hat_negative_n": (["hat", TM_SPEC, "--n", "-1"], "--n must be nonnegative, got -1"),
    "gen_n_past_cap": (["gen", TM_SPEC, "--n", str(LIMIT_CAP + 1)],
                       "--n %d is beyond the symbol cap %d" % (LIMIT_CAP + 1, LIMIT_CAP)),
    "hat_n_past_cap": (["hat", TM_SPEC, "--n", str(LIMIT_CAP + 1)],
                       "--n %d is beyond the symbol cap %d" % (LIMIT_CAP + 1, LIMIT_CAP)),
    "unknown_observable": (["corr", TM_SPEC, "--observable", "nope"], "unknown observable 'nope' (have: ind01, w0)"),
    "cover_of_morse": (["cover", HERNING_SPEC, "--system", "herning_cover"],
                       "cover needs a substitution system, 'herning_cover' is not one"),
    "blocks_of_rs": (["blocks", str(SPECS / "veech_rs.spec"), "--system", "rs11"],
                     "blocks needs a substitution or morse system, 'rs11' is neither"),
    "blocks_long_power_word": (["blocks", "{tmp}/long_subst.spec", "--t", "1"], "power word at t=1 exceeds 2^20 symbols"),
    "blocks_long_stage": (["blocks", "{tmp}/long_morse.spec", "--t", "1"], "Toeplitz stage at t=1 exceeds 2^20 symbols"),
    "bad_checkpoints": (["sarnak", TM_SPEC, "--observable", "w0", "--n", "64", "--checkpoints", "1,x"],
                        "checkpoints must be 'pow2' or comma-separated integers, got '1,x'"),
    "one_prime": (["kbsz", TM_SPEC, "--observable", "w0", "--n", "64", "--primes", "3"], "--primes expects R,S, got '3'"),
    "run_without_experiments": (["run", HERNING_SPEC, "--out", "{tmp}/out"], "no experiment declarations in %s" % HERNING_SPEC),
    "two_systems_no_system": (["gen", str(SPECS / "veech_rs.spec")], "--system is required when the file declares 2 systems"),
    "out_under_a_file": (["sarnak", TM_SPEC, "--observable", "w0", "--n", "64", "--out", "{tmp}/afile/x.csv"],
                         "[Errno 20] Not a directory: '{tmp}/afile/x.csv'"),
}


@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_flag_and_system_refusals_exit_two(capsys, tmp_path, argv, message):
    """Each refusal exits 2 with its message on stderr and prints nothing on stdout."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    for name, text in TMP_FILES.items():
        if any(name in a for a in argv):
            (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message.format(tmp=tmp_path))
    assert not (tmp_path / "out").exists()
