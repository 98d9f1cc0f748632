"""Print one hash per mobiuslab CLI call, to compare two source trees byte for byte.

Each call runs mobiuslab.cli.main in this process with a fresh output
directory.  Its hash covers the exit code, stdout, stderr and the name and
bytes of every file the call wrote, with the output directory's path
replaced by OUT.  An exception that escapes main counts as exit 1, with its
type and message as stderr.  The calls are:

- run over specs/*.spec and tests/fixtures/specs/valid/*.spec;
- gen, hat, blocks and cover for every system of those files;
- corr, spectrum, sarnak (Moebius JSON, Liouville CSV) and kbsz (primes 3,7,
  5,2, 13,17 and 19,23, which a digit stream reads as row copies; 37,1031,
  where RS reads positions past its whole-run bound of 32 and a digit
  stream past its bound of a row keeping 128 symbols) for every system and
  observable of the file, at N = 100000;
- a fixed list of refusals (see refusals()): N one past the sample-size cap,
  a window past int64 (from far.spec, which the sweep writes to a
  temporary directory, printed as FAR), both at once, bad lags and N for
  corr, a checkpoint past the cap and a prime pair past int64; calls with
  two faults at once, whose message shows which check comes first; and run
  with --out at a file and at a path under a file;
- run over reaches.spec (written beside far.spec, printed as REACHES),
  whose weighted experiments reach down and then up, and over rising.spec
  (printed as RISING), whose weighted reaches only go up, for both kinds,
  and which holds a checkpoint list ending below its N and a kbsz
  experiment that declares weight: moebius; and over edges.spec (printed
  as EDGES), whose reaches cross sieve octaves and blocks: Moebius at
  3 * 2^19 + 12345, Liouville at 2^19 + 1 and a Moebius sum whose
  checkpoints end at 2^20 + 7;
- corr and spectrum over GAUSS (written beside far.spec), whose observable
  gauss the sweep binds to the Gaussian-integer table GAUSS_TABLE (the spec
  language has no complex numbers), corr on gauss at --lags 2047, 2048 and
  8191 (FFT sizes 2^12, 2^13 and 2^14 for exact tables) and corr on
  Thue-Morse with --lags N/4: these pin the exact integer correlation path;
  corr and spectrum on the TABLES observables half and huge (see below)
  pin the float path;
- sarnak (Moebius JSON, Liouville CSV, unweighted) and kbsz (3,7 and
  19,23) on gauss and on the TABLES observables (printed as TABLES): half,
  a table that is not integral, and huge, whose products pass 2^53 / N, so
  their sums take the float reduction where the integer tables take the
  class counts; then run over TABLES, whose experiments put huge at N = 9
  (9e15 is below 2^53) and N = 10 (above), and sum a table with a negative
  value at checkpoints [3, 4, 5, 9], where a KBSZ sum at (3, 7) writes
  -0.0 to its JSON report;
- run over DIGITS (written beside far.spec), whose RS patterns have
  lengths 2, 4 (with '*'), 17, 18, 63, 64 and 65 and whose Veech systems
  have a psi head, base 3, base 2^40 and a base beyond int64, with one
  experiment per system, and kbsz (3,7, 19,23 and 37,1031) and corr on
  each of those systems.  All at N = 3 * 2^16 + 5,
  so the runs cross 2^16-position blocks;
- run and gen over every tests/fixtures/specs/malformed/*.spec, and run
  over the LEX specs (see LEX_SPECS; written beside far.spec, printed as
  LEX:name): a form feed, '\u00b2' as a name, an unterminated string in
  the middle of a line, the number 1.2.3, a CRLF file and a file without a
  final newline.  Each of these exits 1 with its rendered diagnostics on
  stderr.  The CLI reads a spec with universal newlines, so the CRLF file
  reaches the parser with LF line ends.

Spec files named on the command line join the list.  Systems and
observables are found with a regex over the declarations, not through the
library, so both trees get the same calls.  Run from the repository root,
once with each tree's src on PYTHONPATH, and diff the two outputs:

    PYTHONPATH=src python tools/cli_sweep.py [extra.spec ...] > after.txt

tools/compare_sweeps.py REV does this, and the same for the other sweeps,
against the src of the git revision REV.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import re
import shutil
import sys
import tempfile
import traceback

from mobiuslab import cli
from mobiuslab.cli import main
from mobiuslab.spectral import make_symbol_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
N = "100000"
TM_SPEC = "specs/thue_morse.spec"
TM_HEAD = 'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\n'
FAR_SPEC = TM_HEAD + "observable far = walsh {9223372036854775000}\n"
TM_W0 = TM_HEAD + "observable w0 = walsh {0}\n"
REACHES_SPEC = TM_W0 + "".join(
    "experiment %s { system: tm; observable: w0; weight: %s; N: %d; }\n" % e for e in (
        ("mu_wide", "moebius", 65536), ("mu_narrow", "moebius", 1000), ("lam_narrow", "liouville", 4096),
        ("mu_wider", "moebius", 100000), ("lam_wide", "liouville", 100000), ("mu_mid", "moebius", 70000))
)
RISING_SPEC = TM_W0 + "".join(
    "experiment %s { system: tm; observable: w0; weight: %s; N: %d;%s }\n" % e for e in (
        ("mu_low", "moebius", 1000, ""), ("lam_low", "liouville", 2048, ""), ("mu_mid", "moebius", 4096, ""),
        ("lam_high", "liouville", 70000, ""), ("kbsz_mu", "moebius", 100000, " kbsz: (3, 5);"),
        ("mu_cut", "moebius", 100000, " checkpoints: [10, 1000, 65536];"))
)
EDGES_SPEC = TM_W0 + "".join(
    "experiment %s { system: tm; observable: w0; weight: %s; N: %d;%s }\n" % e for e in (
        ("mu_far", "moebius", 3 * 2**19 + 12345, ""), ("lam_edge", "liouville", 2**19 + 1, ""),
        ("mu_cut", "moebius", 3 * 2**19 + 12345, " checkpoints: [1000, 524288, 524289, 1048583];"))
)
GAUSS_SPEC = TM_HEAD + "observable gauss = table {0: 1, 1: 1}\n"
GAUSS_TABLE = {0: 2 - 1j, 1: -1 + 3j}
TABLES_SPEC = TM_HEAD + (
    "observable half = table {0: 0.5, 1: -1.25}\n"
    "observable huge = table {0: 1e15, 1: -3}\n"
    "observable neg = table {0: 0, 1: -1}\n") + "".join(
    "experiment %s { system: tm; observable: %s; weight: %s; N: %d;%s }\n" % e for e in (
        ("huge_at_bound", "huge", "moebius", 9, ""), ("huge_past_bound", "huge", "moebius", 10, ""),
        ("neg_mu", "neg", "moebius", 9, " checkpoints: [3, 4, 5, 9];"),
        ("neg_kbsz", "neg", "none", 9, " checkpoints: [3, 4, 5, 9]; kbsz: (3, 7);"))
)
DIGIT_SYSTEMS = {  # system -> the observable the sweep reads it with
    'rs r2 pattern "10"': "w01",
    'rs r4 pattern "1*11"': "w01",
    'rs r17 pattern "1*1*1*1*1*1*1*1*0"': "w01",
    'rs r18 pattern "11***************1"': "w01",
    'rs r63 pattern "%s"' % ("1" * 63): "w01",
    'rs r64 pattern "%s"' % ("1" + "*" * 62 + "1"): "w01",
    'rs r65 pattern "%s"' % ("1" * 65): "w01",
    'veech vhead base 2 group Zn(5) psi "4302" repeat "01"': "t5",
    'veech v3 base 3 group Z2 psi repeat "10"': "w01",
    'veech v40 base %d group Zn(3) psi "2" repeat "10"' % 2**40: "t3",
    'veech vbig base %d group Z2 psi repeat "10"' % (2**64 + 1): "w01",
}
DIGITS_N = 3 * 2**16 + 5
DIGITS_SPEC = "".join(system + "\n" for system in DIGIT_SYSTEMS) + (
    "observable w01 = walsh {0, 1}\n"
    "observable t3 = table {0: 1, 1: -2, 2: 3}\n"
    "observable t5 = table {0: 2, 1: -1, 2: 0, 3: 1, 4: -3}\n") + "".join(
    "experiment e_%s { system: %s; observable: %s; N: %d; }\n" % (system.split()[1], system.split()[1], obs, DIGITS_N)
    for system, obs in DIGIT_SYSTEMS.items())
LEX_SPECS = {
    "form_feed": TM_HEAD + "observable\fw0 = walsh {0}\n",
    "superscript_name": TM_HEAD + "observable \u00b2 = walsh {0}\n",
    "open_string": 'substitution tm on {0, 1} {\n  0 -> "01;  # no closing quote\n  1 -> "10";\n}\n',
    "two_points": TM_HEAD + "observable t = table {0: 1.2.3, 1: 1}\n",
    "crlf": (TM_W0 + "observable bad = walsh {0, x}\n").replace("\n", "\r\n"),
    "no_final_newline": TM_HEAD + "observable w = walsh {",
}
BEYOND_CAP = "67108865"  # arith.LIMIT_CAP + 1
SYSTEM = re.compile(r"^\s*(?:substitution|morse|rs|veech)\s+(\w+)", re.M)
OBSERVABLE = re.compile(r"^\s*observable\s+(\w+)", re.M)


def calls(spec):
    """The argument lists for one spec file; "OUT" stands for the output directory."""
    text = pathlib.Path(spec).read_text(encoding="utf-8")
    yield ["run", spec, "--out", "OUT"]
    systems, observables = SYSTEM.findall(text), OBSERVABLE.findall(text)
    for system in systems:
        on = [spec, "--system", system]
        yield ["gen", *on, "--n", "1000"]
        yield ["hat", *on, "--n", "1000"]
        yield ["blocks", *on]
        yield ["cover", *on]
        for obs in observables:
            on = [spec, "--system", system, "--observable", obs]
            yield ["corr", *on, "--n", N, "--out", "OUT/corr.csv"]
            yield ["spectrum", *on, "--n", N, "--out", "OUT/spectrum.csv"]
            yield ["sarnak", *on, "--n", N, "--weight", "moebius", "--format", "json", "--out", "OUT/mu.json"]
            yield ["sarnak", *on, "--n", N, "--weight", "liouville", "--format", "csv", "--out", "OUT/lambda.csv"]
            for primes in ("3,7", "5,2", "13,17", "19,23", "37,1031"):
                yield ["kbsz", *on, "--n", N, "--primes", primes]


def bind_gaussian(bind):
    """bind, except that an observable named gauss gets GAUSS_TABLE."""

    def bind_observable(doc, name, bound):
        return make_symbol_table(GAUSS_TABLE, name=name) if name == "gauss" else bind(doc, name, bound)

    return bind_observable


def correlations(gauss, tables):
    """The corr and spectrum calls that pin the exact and the float correlation paths.

    gauss (the path of GAUSS_SPEC) holds a Gaussian-integer table, read at the
    default L and at L on both sides of the FFT sizes 2^12 and 2^14;
    Thue-Morse is read at L = N/4; tables (the path of TABLES_SPEC) holds
    half (not integral) and huge (past the bound), which take the float path.
    """
    yield ["corr", gauss, "--observable", "gauss", "--n", N, "--out", "OUT/corr.csv"]
    yield ["spectrum", gauss, "--observable", "gauss", "--n", N, "--out", "OUT/spectrum.csv"]
    yield ["corr", TM_SPEC, "--observable", "w0", "--n", N, "--lags", str(int(N) // 4), "--out", "OUT/corr.csv"]
    for lags in ("2047", "2048", "8191"):
        yield ["corr", gauss, "--observable", "gauss", "--n", N, "--lags", lags, "--out", "OUT/corr.csv"]
    for obs in ("half", "huge"):
        yield ["corr", tables, "--observable", obs, "--n", N, "--out", "OUT/corr.csv"]
        yield ["spectrum", tables, "--observable", obs, "--n", N, "--out", "OUT/spectrum.csv"]


def table_sums(spec, observable):
    """The sarnak and kbsz calls on one observable of spec."""
    on = [spec, "--observable", observable, "--n", N]
    yield ["sarnak", *on, "--weight", "moebius", "--format", "json", "--out", "OUT/mu.json"]
    yield ["sarnak", *on, "--weight", "liouville", "--format", "csv", "--out", "OUT/lambda.csv"]
    yield ["sarnak", *on, "--weight", "none", "--format", "json", "--out", "OUT/none.json"]
    for primes in ("3,7", "19,23"):
        yield ["kbsz", *on, "--primes", primes, "--format", "json", "--out", "OUT/kbsz.json"]


def digit_reads(digits):
    """The kbsz and corr calls on each system of DIGITS_SPEC (digits: its path)."""
    for system, obs in DIGIT_SYSTEMS.items():
        on = [digits, "--system", system.split()[1], "--observable", obs, "--n", str(DIGITS_N)]
        yield ["kbsz", *on, "--primes", "3,7"]
        yield ["kbsz", *on, "--primes", "19,23"]
        yield ["kbsz", *on, "--primes", "37,1031"]
        yield ["corr", *on, "--out", "OUT/corr.csv"]


def refusals(far):
    """The refusal calls; far is the path of the file holding FAR_SPEC."""
    for cmd in ("corr", "spectrum", "sarnak", "kbsz"):
        n = [] if cmd in ("corr", "spectrum") else ["--n", N]
        yield [cmd, TM_SPEC, "--observable", "w0", "--n", BEYOND_CAP]
        yield [cmd, far, "--observable", "far", *n]
        yield [cmd, far, "--observable", "far", "--n", BEYOND_CAP]
    yield ["corr", TM_SPEC, "--observable", "w0", "--lags", "-1"]
    yield ["corr", TM_SPEC, "--observable", "w0", "--n", "0"]
    yield ["sarnak", TM_SPEC, "--observable", "w0", "--n", "67108864", "--checkpoints", "1," + BEYOND_CAP]
    yield ["kbsz", TM_SPEC, "--observable", "w0", "--n", N, "--primes", "4611686018427387847,3"]
    # two faults at once: system, observable, checkpoint text, run rules, --out (kbsz reads --primes first)
    for cmd in ("sarnak", "kbsz"):
        yield [cmd, TM_SPEC, "--system", "nope", "--observable", "nope", "--n", N]
        yield [cmd, TM_SPEC, "--observable", "nope", "--n", N, "--checkpoints", "1,x"]
        yield [cmd, TM_SPEC, "--observable", "w0", "--n", "0", "--checkpoints", "x"]
        yield [cmd, TM_SPEC, "--observable", "w0", "--n", "0", "--out", "OUT"]
    yield ["kbsz", TM_SPEC, "--system", "nope", "--observable", "w0", "--n", N, "--primes", "3"]
    yield ["run", TM_SPEC, "--out", TM_SPEC]
    yield ["run", TM_SPEC, "--out", TM_SPEC + "/sub"]


def digest(argv) -> str:
    """Hash of one call's exit code, stdout, stderr and written files."""
    out_dir = tempfile.mkdtemp(prefix="cli_sweep_")
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([out_dir + arg[3:] if arg.split("/")[0] == "OUT" else arg for arg in argv])
            except SystemExit as exc:  # argparse refusals
                code = exc.code
            except Exception as exc:
                code = 1
                err.write("".join(traceback.format_exception_only(type(exc), exc)))
        h = hashlib.sha256()
        for part in (str(code), out.getvalue(), err.getvalue()):
            h.update(part.replace(out_dir, "OUT").encode("utf-8") + b"\0")
        for path in sorted(pathlib.Path(out_dir).rglob("*")):
            if path.is_file():
                h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
        return "%s exit=%s" % (h.hexdigest()[:16], code)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main_sweep(extra) -> int:
    extra = [os.path.abspath(spec) for spec in extra]
    os.chdir(ROOT)
    cli.bind_observable = bind_gaussian(cli.bind_observable)
    specs = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("specs/*.spec"))
    specs += sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("tests/fixtures/specs/valid/*.spec"))
    for spec in specs + extra:
        for argv in calls(spec):
            print("%s  %s" % (digest(argv), " ".join(argv)), flush=True)
    for spec in sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("tests/fixtures/specs/malformed/*.spec")):
        for argv in (["run", spec, "--out", "OUT"], ["gen", spec, "--n", "1000"]):
            print("%s  %s" % (digest(argv), " ".join(argv)), flush=True)
    far_dir = tempfile.mkdtemp(prefix="cli_sweep_far_")
    try:
        texts = {"FAR": FAR_SPEC, "GAUSS": GAUSS_SPEC, "REACHES": REACHES_SPEC, "RISING": RISING_SPEC,
                 "EDGES": EDGES_SPEC, "TABLES": TABLES_SPEC, "DIGITS": DIGITS_SPEC}
        texts.update(("LEX:" + name, text) for name, text in LEX_SPECS.items())
        paths = {label: os.path.join(far_dir, label.lower().replace(":", "_") + ".spec") for label in texts}
        for label, text in texts.items():
            pathlib.Path(paths[label]).write_bytes(text.encode("utf-8"))
        runs = [label for label in texts if label not in ("FAR", "GAUSS")]
        sums = [(paths["GAUSS"], "gauss"), (paths["TABLES"], "half"), (paths["TABLES"], "huge")]
        for argv in [*refusals(paths["FAR"]), *correlations(paths["GAUSS"], paths["TABLES"]),
                     *(argv for spec, obs in sums for argv in table_sums(spec, obs)), *digit_reads(paths["DIGITS"]),
                     *(["run", paths[label], "--out", "OUT"] for label in runs)]:
            line = " ".join(argv)
            for label, path in paths.items():
                line = line.replace(path, label)
            print("%s  %s" % (digest(argv), line), flush=True)
    finally:
        shutil.rmtree(far_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_sweep(sys.argv[1:]))
