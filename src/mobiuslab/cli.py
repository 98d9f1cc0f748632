"""Command line front end.

Subcommands operate on a spec file (see specfile) plus flags:

    gen FILE        print the first --n symbols of a system
    cover FILE      group cover of a substitution: order, block, columns
    hat FILE        print the difference sequence y[n+1] y[n]^{-1}
    skeleton        periodic-position index: --lam, --t, --k
    blocks FILE     substitution power words or Toeplitz stages up to --t
    spectrum FILE   periodogram of an observable along a system
    corr FILE       autocorrelation values up to --lags
    sarnak FILE     weighted averages (1/N) sum f(T^n x) w(n) at checkpoints
    kbsz FILE       bilinear averages for a prime pair --primes R,S
    run FILE        execute every experiment declaration in the file

Exit status: 0 on success, 1 when the spec file has diagnostics (every
declaration binds and every experiment's limits are checked while the file
is parsed, so these carry a line and column), 2 on other errors: names and
values given by flags (--system, --observable, --n, --primes), capacity
limits and I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import itertools
import os
import pathlib
import stat
import sys

import numpy as np

from . import binding as _binding
from . import experiment as _experiment
from . import morse as _morse
from . import spectral as _spectral
from . import subst as _subst
from .arith import LIMIT_CAP, weight_tables as weight_table  # the one name cli sieves through
from .binding import BASE36, BindingError, BoundSystem
from .errors import CapacityError
from .experiment import _format_number
from .permgrp import CLOSURE_CAP, FiniteGroup, cyclic_group
from .specfile import WEIGHT_NAMES, ExperimentDecl, SpecDocument, parse_spec


def load_document(path: str) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    result = parse_spec(text)
    if isinstance(result, list):
        raise DiagnosticFailure(result)
    return result


class DiagnosticFailure(Exception):
    def __init__(self, diagnostics):
        super().__init__("%d diagnostics" % len(diagnostics))
        self.diagnostics = diagnostics


def build_system(doc: SpecDocument, name: str) -> BoundSystem:
    """The document's bound system, with the stream every experiment shares."""
    bound = doc.bound.get(name)
    if bound is None:
        known = ", ".join(sorted(doc.bound)) or "none declared"
        raise BindingError("unknown system %r (have: %s)" % (name, known))
    return bound


def system_group(bound: BoundSystem) -> FiniteGroup:
    """Group used by hat: declared group, or Z/r with letter a as residue a, capped as Zn(n) is.

    hat prints Z/r in base 36, so r above 36 is refused before the r^2 table is built.
    """
    if bound.group is not None:
        return bound.group
    if bound.alphabet_size > CLOSURE_CAP:  # the table has r^2 entries
        raise BindingError("hat over Z/%d is beyond the group cap %d" % (bound.alphabet_size, CLOSURE_CAP))
    _check_printable(bound.alphabet_size - 1)
    return cyclic_group(bound.alphabet_size)


def bind_observable(doc: SpecDocument, name: str, bound: BoundSystem) -> "_spectral.Observable":
    decl = doc.observables().get(name)
    if decl is None:
        known = ", ".join(sorted(doc.observables())) or "none declared"
        raise BindingError("unknown observable %r (have: %s)" % (name, known))
    return _binding.bind_observable(decl, bound)


def _check_printable(top: int, letters=BASE36) -> None:
    if top >= len(letters):
        raise BindingError("symbol %d has no letter or base-36 digit to print" % top)


def render_word(word, letters=BASE36) -> str:
    """The word spelt with the single character letters[v] for each symbol v, in one lookup."""
    word = np.asarray(word)
    _check_printable(int(word.max(initial=0)), letters)
    return np.array(list(letters), dtype="<U1")[word].tobytes().decode("utf-32-le")


# ---------------------------------------------------------------------------
# subcommands


# Symbols per piece that gen and hat read and spell at once; only the
# one-character-a-symbol text of each piece is kept until it is printed.
_PIECE = 1 << 20


def _symbol_count(args) -> int:
    """--n of gen and hat, which print that many symbols."""
    if args.n < 0:
        raise BindingError("--n must be nonnegative, got %d" % args.n)
    if args.n > LIMIT_CAP:
        raise BindingError("--n %d is beyond the symbol cap %d" % (args.n, LIMIT_CAP))
    return args.n


def _print_pieces(read, count: int, letters=BASE36) -> None:
    """Print the count symbols read(lo, k) gives for k at lo, spelt a piece at a time.

    The text is printed once, after every piece is spelt, so an error leaves
    stdout empty.
    """
    print("".join(render_word(read(lo, min(_PIECE, count - lo)), letters) for lo in range(0, count, _PIECE)))


def _cmd_gen(args) -> int:
    _, bound = _load_system(args)
    _print_pieces(bound.stream.block, _symbol_count(args), bound.letters or BASE36)
    return 0


def _cmd_hat(args) -> int:
    _, bound = _load_system(args)
    _print_pieces(_morse.hat_stream(system_group(bound), bound.stream).block, _symbol_count(args))
    return 0


def _cmd_cover(args) -> int:
    _, bound = _load_system(args)
    if bound.kind != "substitution":
        raise BindingError("cover needs a substitution system, %r is not one" % bound.name)
    cover = bound.cover
    print("|G| = %d" % cover.group.order)
    print("block = %s" % " ".join(str(b) for b in cover.block))
    for i, b in enumerate(cover.block):
        print("column %d: %s" % (i, cover.group.element_names[b]))
    return 0


def _cmd_skeleton(args) -> int:
    print(_subst.skeleton_index(args.lam, args.t, args.k))
    return 0


def _cmd_blocks(args) -> int:
    """theta^t(seed) is the fixed point's first lambda^t symbols, c-hat_t the hat of the Morse sequence's first n_t.

    Every length is checked before a symbol is read, and every line spelt before one is printed.
    """
    _, bound = _load_system(args)
    if args.t < 0:
        raise BindingError("--t must be nonnegative, got %d" % args.t)
    if bound.kind not in ("substitution", "morse"):
        raise BindingError("blocks needs a substitution or morse system, %r is neither" % bound.name)
    spec, words, lengths = bound.definition, bound.kind == "substitution", [1]
    for t in range(1, args.t + 1):
        lengths.append(lengths[-1] * (spec.lam if words else spec.lam(t - 1)))
        if lengths[-1] > 1 << 20:
            raise BindingError("%s at t=%d exceeds 2^20 symbols" % ("power word" if words else "Toeplitz stage", t))
    lines = []
    for t, n in enumerate(lengths[1:], start=1):
        word = bound.stream.prefix(n)
        if words:
            lines.append("t=%d |word|=%d %s\n" % (t, n, render_word(word, spec.letters)))
        else:
            values = render_word(_morse.hat_word(spec.group, word))
            lines.append("t=%d n=%d hole=%d values=%s\n" % (t, n, n - 1, values))
    sys.stdout.write("".join(lines))
    return 0


def _autocorrelation(args) -> "_spectral.AutocorrelationEstimate":
    bound, obs = _load_observable(args)
    _check_out(args.out)
    return _spectral.autocorrelation(bound.stream, obs, args.n, args.lags)


def _cmd_corr(args) -> int:
    est = _autocorrelation(args)
    _emit(_experiment.csv_bytes("lag,real,imag", ((lag, v.real, v.imag) for lag, v in enumerate(est.values))), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    _spectral.check_grid(args.grid)  # before the autocorrelation is computed
    spec = _spectral.periodogram(_autocorrelation(args), args.grid)
    _emit(_experiment.csv_bytes("k,value", ((k, float(v)) for k, v in enumerate(spec))), args.out)
    return 0


def _parse_checkpoints(text: str):
    if text == "pow2":
        return text
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise BindingError("checkpoints must be 'pow2' or comma-separated integers, got %r" % text) from None


def _experiment_config(decl, bound: BoundSystem, obs, experiments, tables, out=None) -> "_experiment.ExperimentConfig":
    """decl's config: built (checking every run rule), then out checked, then weighted from tables.

    On the first weighted use, one sweep sieves every kind the Sarnak sums in experiments weight by, each to
    its widest reach (N under pow2, else the last checkpoint), into one packed array of weight states that
    every kind's table reads; each sum reads its own first N, as mu(n) and lambda(n) ignore the reach.
    """
    config = _experiment.ExperimentConfig(decl.name, bound.stream, obs, decl.sample_size, kbsz=decl.kbsz,
                                          checkpoints=None if decl.checkpoints == "pow2" else decl.checkpoints)
    _check_out(out)
    if config.kbsz is not None or decl.weight == "none":
        return config
    if not tables:
        reaches = sorted((e.weight, e.sample_size if e.checkpoints == "pow2" else e.checkpoints[-1])
                         for e in experiments if e.weight != "none" and e.kbsz is None)
        tables.update(weight_table(dict(reaches)))  # ascending, so each kind keeps its widest reach
    return dataclasses.replace(config, weight=tables[decl.weight])


def _final(report) -> str:
    return "final = %s + %si" % (_format_number(report.final.real), _format_number(report.final.imag))


def _cmd_series(args, weight: str, kbsz=None) -> int:
    """sarnak and kbsz: the one experiment the flags declare, configured as run configures each of a file's."""
    bound, obs = _load_observable(args)
    decl = ExperimentDecl(args.name, bound.name, obs.name, weight, args.n, _parse_checkpoints(args.checkpoints), kbsz)
    report = _experiment.run_config(_experiment_config(decl, bound, obs, (decl,), {}, args.out))
    print("%s at N = %d" % (_final(report), report.checkpoints[-1]))
    _emit(_experiment.REPORTS[args.format](report), args.out)
    return 0


def _cmd_sarnak(args) -> int:
    return _cmd_series(args, args.weight)


def _cmd_kbsz(args) -> int:
    try:
        r, s = (int(p) for p in args.primes.split(","))
    except ValueError:
        raise BindingError("--primes expects R,S, got %r" % args.primes) from None
    return _cmd_series(args, "none", (r, s))


def _cmd_run(args) -> int:
    doc = load_document(args.spec)
    experiments = doc.experiments()
    if not experiments:
        raise BindingError("no experiment declarations in %s" % args.spec)
    formats = _experiment.check_formats(args.format.split(","))
    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)  # as run_experiment would, before any sieve
    tables = {}  # weight kind -> its one table, all kinds sieved at once to their widest reaches in the file
    pair = obs = None  # the last experiment's (observable, system) and its bound observable
    # each run of consecutive Sarnak experiments over one pair is counted at once; a KBSZ experiment runs alone
    for _, decls in itertools.groupby(experiments, lambda e: (e.observable, e.system) if e.kbsz is None else e.name):
        group = []  # dropped before the next pair's observable table is built
        for decl in decls:
            bound = build_system(doc, decl.system)
            if pair != (decl.observable, decl.system):
                obs = None  # the last pair's table is freed before this one is built
                pair, obs = (decl.observable, decl.system), bind_observable(doc, decl.observable, bound)
            group.append(_experiment_config(decl, bound, obs, experiments, tables))
        if len(group) == 1:
            results = [_experiment.run_experiment(group[0], args.out, formats)]
        else:
            reports = _experiment._sarnak_reports(group[0].stream, obs, [(c.weight, c.checkpoints) for c in group])
            results = (_experiment._write_reports(r, c.name, args.out, formats) for r, c in zip(reports, group))
        for name, (report, paths) in zip([c.name for c in group], results):  # each written, then its line printed
            print("experiment %s: %s -> %s" % (name, _final(report), ", ".join(str(p) for p in paths)))
    return 0


def _check_out(out: str | None) -> None:
    """Raise, before any sieve or sum, the OSError _emit would meet: out is a directory, or its parent is not one."""
    if not out:
        return
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(out) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def _emit(data: bytes, out: str | None):
    """Write an ASCII report to the file out, or to stdout when out is empty."""
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
        print("wrote %s" % out)
    else:
        sys.stdout.write(data.decode("ascii"))


def _load_system(args) -> tuple:
    """(document, bound system) of args.spec: --system, or the file's only system."""
    doc = load_document(args.spec)
    systems = doc.systems()
    if not args.system and len(systems) != 1:
        raise BindingError("--system is required when the file declares %d systems" % len(systems))
    return doc, build_system(doc, args.system or next(iter(systems)))


def _load_observable(args) -> tuple:
    """(bound system, bound --observable) of args.spec, for corr, spectrum, sarnak and kbsz."""
    doc, bound = _load_system(args)
    return bound, bind_observable(doc, args.observable, bound)


def _add_spec_args(p, observable=False):
    p.add_argument("spec", help="spec file path")
    p.add_argument("--system", help="system name (optional when the file has exactly one)")
    if observable:
        p.add_argument("--observable", required=True, help="observable name from the spec file")


_WORKERS_HELP = "accepted for compatibility; has no effect (sums run on one thread)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mobiuslab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print the first --n symbols of a system")
    _add_spec_args(p)
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("cover", help="group cover of a substitution")
    _add_spec_args(p)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("hat", help="difference sequence y[n+1] y[n]^{-1}")
    _add_spec_args(p)
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(fn=_cmd_hat)

    p = sub.add_parser("skeleton", help="index of the position k inside the level-t skeleton")
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_skeleton)

    p = sub.add_parser("blocks", help="substitution power words or Toeplitz stages")
    _add_spec_args(p)
    p.add_argument("--t", type=int, default=4)
    p.set_defaults(fn=_cmd_blocks)

    p = sub.add_parser("corr", help="autocorrelation estimates up to --lags")
    _add_spec_args(p, observable=True)
    p.add_argument("--n", type=int, default=1 << 16)
    p.add_argument("--lags", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_corr)

    p = sub.add_parser("spectrum", help="periodogram on a uniform frequency grid")
    _add_spec_args(p, observable=True)
    p.add_argument("--n", type=int, default=1 << 16)
    p.add_argument("--lags", type=int, default=256)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_spectrum)

    for cmd, fn in (("sarnak", _cmd_sarnak), ("kbsz", _cmd_kbsz)):
        p = sub.add_parser(cmd, help="%s averages at checkpoints" % cmd)
        _add_spec_args(p, observable=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--checkpoints", default="pow2")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--name", default="", help="accepted for compatibility; has no effect (no output carries it)")
        p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
        if cmd == "sarnak":
            p.add_argument("--weight", choices=WEIGHT_NAMES, default="moebius")
        else:
            p.add_argument("--primes", default="3,5")
        p.set_defaults(fn=fn)

    p = sub.add_parser("run", help="execute every experiment declaration in a file")
    p.add_argument("spec", help="spec file path")
    p.add_argument("--out", default=".")
    p.add_argument("--format", default="csv,json", help="comma list of csv,json")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DiagnosticFailure as exc:
        for d in exc.diagnostics:
            print(d.render(), file=sys.stderr)
        return 1
    except (ValueError, CapacityError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
