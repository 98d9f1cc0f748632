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

Exit status: 0 on success, 1 when the spec file has diagnostics, 2 on
runtime errors (bad references, capacity limits, I/O).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import experiment as _experiment
from . import morse as _morse
from . import odometer as _odometer
from . import spectral as _spectral
from . import subst as _subst
from .arith import DigitPattern, pattern_parities, pattern_parities_at, weight_table
from .errors import CapacityError, UndefinedPointError
from .experiment import _format_number
from .permgrp import FiniteGroup, cyclic_group, symmetric_group
from .specfile import (
    MorseDecl,
    ObservableDecl,
    RsDecl,
    SpecDocument,
    SubstitutionDecl,
    VeechDecl,
    parse_spec,
)
from .streams import SymbolStream

_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


class BindingError(ValueError):
    """A spec document parsed cleanly but a reference or value cannot bind."""


@dataclass(frozen=True)
class BoundSystem:
    name: str
    kind: str  # "substitution" | "morse" | "rs" | "veech"
    stream: SymbolStream
    alphabet_size: int
    letters: tuple | None = None  # substitution letter names, else None
    group: FiniteGroup | None = None
    substitution: object = None


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


def build_substitution(decl: SubstitutionDecl) -> "_subst.Substitution":
    images = dict(decl.rules)
    index = {c: a for a, c in enumerate(decl.letters)}
    rows = tuple(tuple(index[c] for c in images[letter]) for letter in decl.letters)
    seeds = [a for a, row in enumerate(rows) if row[0] == a]
    if not seeds:
        raise BindingError("substitution %r has no letter fixed at position 0, so no one-sided fixed point" % decl.name)
    return _subst.Substitution(rows, decl.letters, seed=seeds[0])


def build_group(expr, systems: dict):
    """Group of a group expression; returns (group, cover or None)."""
    if expr.kind == "Z2":
        return cyclic_group(2), None
    if expr.kind == "Zn":
        return cyclic_group(expr.param), None
    if expr.kind == "Sym":
        return symmetric_group(expr.param)[0], None
    decl = systems.get(expr.param)
    if not isinstance(decl, SubstitutionDecl):
        raise BindingError("cover-of needs a substitution, got %r" % expr.param)
    cover = _subst.group_cover(build_substitution(decl))
    return cover.group, cover


def _symbols(word: str) -> tuple:
    return tuple(int(c, 36) for c in word)


def _morse_spec(decl: MorseDecl, systems: dict):
    """(group, MorseSpec) of a morse declaration; cover systems inherit their block."""
    group, cover = build_group(decl.group, systems)
    if cover is not None:
        return group, cover.morse_spec()
    return group, _morse.MorseSpec(group, tuple(_symbols(b) for b in decl.blocks), _symbols(decl.tail))


def _get_decl(doc: SpecDocument, name: str):
    systems = doc.systems()
    decl = systems.get(name)
    if decl is None:
        known = ", ".join(sorted(systems)) or "none declared"
        raise BindingError("unknown system %r (have: %s)" % (name, known))
    return decl


def build_system(doc: SpecDocument, name: str) -> BoundSystem:
    systems = doc.systems()
    decl = _get_decl(doc, name)
    if isinstance(decl, SubstitutionDecl):
        sub = build_substitution(decl)
        return BoundSystem(
            name=name,
            kind="substitution",
            stream=_subst.fixed_point_stream(sub, name=name),
            alphabet_size=sub.r,
            letters=sub.letters,
            substitution=sub,
        )
    if isinstance(decl, MorseDecl):
        group, spec = _morse_spec(decl, systems)
        stream = _morse.morse_stream(spec, name=name)
        return BoundSystem(name, "morse", stream, group.order, group=group)
    if isinstance(decl, RsDecl):
        pattern = DigitPattern(decl.pattern)
        stream = SymbolStream(
            lambda n: pattern_parities(n, pattern),
            name=name,
            alphabet_size=2,
            read=lambda positions: pattern_parities_at(positions, pattern),
        )
        return BoundSystem(name, "rs", stream, 2, group=cyclic_group(2))
    if isinstance(decl, VeechDecl):
        group, _ = build_group(decl.group, systems)
        vspec = _odometer.VeechSpec(
            _odometer.OdometerSpec(tail=decl.base),
            group,
            psi_head=_symbols(decl.psi_head),
            psi_tail=_symbols(decl.psi_tail),
        )
        stream = _odometer.veech_stream(vspec, name=name)
        return BoundSystem(name, "veech", stream, group.order, group=group)
    raise BindingError("cannot build a stream for %r" % name)


def system_group(bound: BoundSystem) -> FiniteGroup:
    """Group used by hat: declared group, or Z/r with letter a as residue a."""
    if bound.group is not None:
        return bound.group
    return cyclic_group(bound.alphabet_size)


def resolve_symbol(bound: BoundSystem, key: str) -> int:
    if bound.letters is not None and key in bound.letters:
        return bound.letters.index(key)
    if all(c in _BASE36 for c in key.lower()) and len(key) >= 1:
        try:
            idx = int(key, 36) if len(key) == 1 else int(key, 10)
        except ValueError:
            idx = -1
        if 0 <= idx < bound.alphabet_size:
            return idx
    raise BindingError("symbol %r is outside system %r" % (key, bound.name))


def bind_observable(doc: SpecDocument, name: str, bound: BoundSystem) -> "_spectral.Observable":
    decl = doc.observables().get(name)
    if decl is None:
        known = ", ".join(sorted(doc.observables())) or "none declared"
        raise BindingError("unknown observable %r (have: %s)" % (name, known))
    return _bind_observable_decl(decl, bound)


def _bind_observable_decl(decl: ObservableDecl, bound: BoundSystem) -> "_spectral.Observable":
    if decl.kind == "walsh":
        if bound.alphabet_size != 2:
            raise BindingError(
                "walsh observables need a binary alphabet, system %r has %d symbols"
                % (bound.name, bound.alphabet_size)
            )
        return _spectral.make_walsh(decl.coords, name=decl.name)
    if decl.kind == "indicator":
        block = tuple(resolve_symbol(bound, c) for c in decl.block)
        return _spectral.make_block_indicator(block, decl.offset, bound.alphabet_size, name=decl.name)
    values = {resolve_symbol(bound, key): value for key, value in decl.entries}
    return _spectral.make_symbol_table(values, bound.alphabet_size, name=decl.name)


def render_word(bound: BoundSystem, word) -> str:
    if bound.letters is not None:
        return "".join(bound.letters[int(v)] for v in word)
    return "".join(_BASE36[int(v)] for v in word)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    doc = load_document(args.spec)
    bound = build_system(doc, _pick_system(doc, args))
    print(render_word(bound, bound.stream.prefix(args.n)))
    return 0


def _cmd_hat(args) -> int:
    doc = load_document(args.spec)
    bound = build_system(doc, _pick_system(doc, args))
    group = system_group(bound)
    word = _morse.hat_word(group, bound.stream.prefix(args.n + 1))
    print("".join(_BASE36[int(v)] for v in word))
    return 0


def _cmd_cover(args) -> int:
    doc = load_document(args.spec)
    name = _pick_system(doc, args)
    decl = _get_decl(doc, name)
    if not isinstance(decl, SubstitutionDecl):
        raise BindingError("cover needs a substitution system, %r is not one" % name)
    cover = _subst.group_cover(build_substitution(decl))
    print("|G| = %d" % cover.group.order)
    print("block = %s" % " ".join(str(b) for b in cover.block))
    for i, b in enumerate(cover.block):
        print("column %d: %s" % (i, cover.group.element_names[b]))
    return 0


def _cmd_skeleton(args) -> int:
    print(_subst.skeleton_index(args.lam, args.t, args.k))
    return 0


def _cmd_blocks(args) -> int:
    doc = load_document(args.spec)
    name = _pick_system(doc, args)
    decl = _get_decl(doc, name)
    if isinstance(decl, SubstitutionDecl):
        sub = build_substitution(decl)
        word = np.array([sub.seed], dtype=np.int32)
        for t in range(1, args.t + 1):
            word = sub.apply(word)
            if len(word) > 1 << 20:
                raise BindingError("power word at t=%d exceeds 2^20 symbols" % t)
            print("t=%d |word|=%d %s" % (t, len(word), sub.word_string(word)))
        return 0
    if isinstance(decl, MorseDecl):
        _, spec = _morse_spec(decl, doc.systems())
        for t in range(1, args.t + 1):
            stage = _morse.toeplitz_stage(spec, t)
            values = "".join(_BASE36[v] for v in stage.values)
            print("t=%d n=%d hole=%d values=%s" % (t, stage.n, stage.hole_residue, values))
        return 0
    raise BindingError("blocks needs a substitution or morse system, %r is neither" % name)


def _cmd_corr(args) -> int:
    doc = load_document(args.spec)
    bound = build_system(doc, _pick_system(doc, args))
    obs = bind_observable(doc, args.observable, bound)
    est = _spectral.autocorrelation(bound.stream, obs, args.n, args.lags)
    lines = ["lag,real,imag"]
    for lag, v in enumerate(est.values):
        lines.append("%d,%s,%s" % (lag, _format_number(v.real), _format_number(v.imag)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_spectrum(args) -> int:
    doc = load_document(args.spec)
    bound = build_system(doc, _pick_system(doc, args))
    obs = bind_observable(doc, args.observable, bound)
    est = _spectral.autocorrelation(bound.stream, obs, args.n, args.lags)
    spec = _spectral.periodogram(est, args.grid)
    lines = ["k,value"]
    for k, v in enumerate(spec):
        lines.append("%d,%s" % (k, _format_number(float(v))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_checkpoints(text: str):
    if text == "pow2":
        return None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise BindingError("checkpoints must be 'pow2' or comma-separated integers, got %r" % text) from None


def _series_config(args, kbsz=None) -> "_experiment.ExperimentConfig":
    doc = load_document(args.spec)
    bound = build_system(doc, _pick_system(doc, args))
    obs = bind_observable(doc, args.observable, bound)
    weight = None
    if kbsz is None and args.weight != "none":
        weight = weight_table(args.weight, args.n)
    return _experiment.ExperimentConfig(
        name=args.name or ("%s_%s" % (bound.name, obs.name or "obs")),
        stream=bound.stream,
        observable=obs,
        sample_size=args.n,
        weight=weight,
        checkpoints=_parse_checkpoints(args.checkpoints),
        kbsz=kbsz,
    )


def _report_out(report, args) -> int:
    final = report.final
    print("final = %s + %si at N = %d" % (_format_number(final.real), _format_number(final.imag), report.checkpoints[-1]))
    if args.out:
        data = _experiment.report_csv(report) if args.format == "csv" else _experiment.report_json(report)
        with open(args.out, "wb") as fh:
            fh.write(data)
        print("wrote %s" % args.out)
    else:
        text = _experiment.report_csv(report) if args.format == "csv" else _experiment.report_json(report)
        sys.stdout.write(text.decode("ascii"))
    return 0


def _cmd_sarnak(args) -> int:
    config = _series_config(args)
    return _report_out(_experiment.run_config(config), args)


def _cmd_kbsz(args) -> int:
    try:
        r, s = (int(p) for p in args.primes.split(","))
    except ValueError:
        raise BindingError("--primes expects R,S, got %r" % args.primes) from None
    config = _series_config(args, kbsz=(r, s))
    return _report_out(_experiment.run_config(config), args)


def _cmd_run(args) -> int:
    doc = load_document(args.spec)
    experiments = doc.experiments()
    if not experiments:
        raise BindingError("no experiment declarations in %s" % args.spec)
    tables = {}  # (kind, N) -> WeightTable: each pair is sieved once per file
    for decl in experiments:
        bound = build_system(doc, decl.system)
        obs = bind_observable(doc, decl.observable, bound)
        weight = None
        if decl.kbsz is None and decl.weight != "none":
            key = (decl.weight, decl.sample_size)
            if key not in tables:
                tables[key] = weight_table(*key)
            weight = tables[key]
        config = _experiment.ExperimentConfig(
            name=decl.name,
            stream=bound.stream,
            observable=obs,
            sample_size=decl.sample_size,
            weight=weight,
            checkpoints=None if decl.checkpoints == "pow2" else decl.checkpoints,
            kbsz=decl.kbsz,
        )
        report, paths = _experiment.run_experiment(config, args.out, formats=tuple(args.format.split(",")))
        final = report.final
        print(
            "experiment %s: final = %s + %si -> %s"
            % (decl.name, _format_number(final.real), _format_number(final.imag), ", ".join(str(p) for p in paths))
        )
    return 0


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print("wrote %s" % out)
    else:
        sys.stdout.write(text)


def _pick_system(doc: SpecDocument, args) -> str:
    if args.system:
        return args.system
    systems = doc.systems()
    if len(systems) == 1:
        return next(iter(systems))
    raise BindingError("--system is required when the file declares %d systems" % len(systems))


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
        p.add_argument("--name", default="")
        p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
        if cmd == "sarnak":
            p.add_argument("--weight", choices=("moebius", "liouville", "none"), default="moebius")
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
    except (BindingError, ValueError, CapacityError, UndefinedPointError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
