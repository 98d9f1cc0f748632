"""Seeded workload generation: spec files plus the CLI calls that run them.

Shapes are fixed per workload; the seed picks only contents (the columns of
a bijective substitution, table observable values, an RS pattern, a Veech
psi word), and every choice costs the same, so run time does not depend on
the seed.  The program under test receives only the generated spec text and
the command lines below.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

LOG2_N = 22  # Sarnak and KBSZ sample size, and the digit-system averages
LOG2_N_SPECTRAL = 20  # corr and spectrum sample size
LAGS = 256
GRID = 512

NAMES = ("sarnak_seq", "kbsz_dilated", "digit_spectral")

S3 = tuple(itertools.permutations(range(3)))
LETTERS = ("a", "b", "c")
# Every pattern has exactly three literal characters, so pattern_parities
# does the same work whichever one the seed picks.
RS_PATTERNS = ("110", "111", "1*10", "1*11", "11*0", "11*1")
PSI_WORDS = tuple("".join(w) for w in itertools.product("01", repeat=4) if len(set(w)) == 2)

TM_SPEC = """substitution tm on {0, 1} {
  0 -> "01";
  1 -> "10";
}
"""


def compose(p, q):
    """(p q)(a) = p(q(a)) for permutations given as image tuples."""
    return tuple(p[b] for b in q)


def _generated_order(gens) -> int:
    seen = {(0, 1, 2)}
    frontier = list(seen)
    while frontier:
        frontier = [h for h in {compose(g, s) for g in frontier for s in gens} if h not in seen]
        seen.update(frontier)
    return len(seen)


# Column pairs (sigma_1, sigma_2) that generate all of S_3, so the cover
# always runs over six letters.
S3_GENERATING_PAIRS = tuple((p, q) for p in S3 for q in S3 if _generated_order((p, q)) == 6)


@dataclass(frozen=True)
class Experiment:
    """One `experiment` declaration; kbsz is (r, s) or None for a Sarnak sum."""

    name: str
    system: str
    observable: str
    weight: str
    kbsz: tuple | None = None


@dataclass(frozen=True)
class Invocation:
    """One CLI call; "{spec}", "{out}" and "{workers}" in args are filled in by the runner."""

    args: tuple
    outputs: tuple  # report file names it writes into {out}


@dataclass(frozen=True)
class Contents:
    """Everything the seed decides; the oracle works from this alone."""

    columns: tuple  # (sigma_0 = id, sigma_1, sigma_2), each a tuple of images
    sub_values: tuple  # table value of letters a, b, c
    cover_values: tuple  # table value of cover element indices 0..5
    rs_pattern: str
    psi: str


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    n_spectral: int
    contents: Contents
    spec_text: str
    experiments: tuple
    invocations: tuple  # of Invocation
    workers: int  # --workers of the timed `run` calls


def draw_contents(seed: int) -> Contents:
    rng = random.Random(seed)
    sigma1, sigma2 = rng.choice(S3_GENERATING_PAIRS)
    nonzero = [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]
    sub_values = rng.choice(nonzero)
    cover_values = tuple(rng.choice((-1, 0, 1)) for _ in range(6))
    if not any(cover_values):
        cover_values = (1,) + cover_values[1:]
    return Contents(
        columns=((0, 1, 2), sigma1, sigma2),
        sub_values=sub_values,
        cover_values=cover_values,
        rs_pattern=rng.choice(RS_PATTERNS),
        psi=rng.choice(PSI_WORDS),
    )


def _substitution_spec(columns) -> str:
    rules = "".join(
        '  %s -> "%s";\n' % (LETTERS[a], "".join(LETTERS[col[a]] for col in columns)) for a in range(3)
    )
    return "substitution sub on {a, b, c} {\n%s}\n" % rules


def _table(keys, values) -> str:
    return "{%s}" % ", ".join("%s: %d" % (k, v) for k, v in zip(keys, values))


def _experiment_spec(exp: Experiment, n: int) -> str:
    lines = [
        "experiment %s {" % exp.name,
        "  system: %s;" % exp.system,
        "  observable: %s;" % exp.observable,
        "  weight: %s;" % exp.weight,
        "  N: %d;" % n,
        "  checkpoints: pow2;",
    ]
    if exp.kbsz:
        lines.append("  kbsz: (%d, %d);" % exp.kbsz)
    return "\n".join(lines + ["}"]) + "\n"


def _symbolic_spec(c: Contents) -> str:
    return "\n".join([
        TM_SPEC,
        _substitution_spec(c.columns),
        "morse cov over cover-of sub\n",
        "observable w0 = walsh {0}",
        "observable fsub = table %s" % _table(LETTERS, c.sub_values),
        "observable fcov = table %s\n" % _table(range(6), c.cover_values),
    ])


def generate(name: str, seed: int, log2_n: int = LOG2_N, log2_n_spectral: int = LOG2_N_SPECTRAL) -> Workload:
    """Build workload `name` for `seed`; the sizes are lowered only by the smoke test."""
    c = draw_contents(seed)
    n, n_spectral = 1 << log2_n, 1 << log2_n_spectral
    if name == "sarnak_seq":
        # The cover experiment comes first so that its closure is bound during set-up.
        experiments = (
            Experiment("cov_liouville", "cov", "fcov", "liouville"),
            Experiment("tm_moebius", "tm", "w0", "moebius"),
            Experiment("tm_liouville", "tm", "w0", "liouville"),
            Experiment("sub_moebius", "sub", "fsub", "moebius"),
        )
        head, workers = _symbolic_spec(c), 1
    elif name == "kbsz_dilated":
        experiments = (
            Experiment("cov_kbsz_3_5", "cov", "fcov", "none", (3, 5)),
            Experiment("tm_kbsz_3_5", "tm", "w0", "none", (3, 5)),
            Experiment("sub_kbsz_2_7", "sub", "fsub", "none", (2, 7)),
        )
        head, workers = _symbolic_spec(c), 2
    elif name == "digit_spectral":
        experiments = (
            Experiment("rsd_mean", "rsd", "w0", "none"),
            Experiment("vtau_mean", "vtau", "w0", "none"),
        )
        head = "\n".join([
            'rs rsd pattern "%s"' % c.rs_pattern,
            'veech vtau base 2 group Z2 psi repeat "%s"' % c.psi,
            "observable w0 = walsh {0}\n",
        ])
        workers = 1
    else:
        raise ValueError("unknown workload %r (expected one of %s)" % (name, ", ".join(NAMES)))
    spec_text = head + "\n" + "\n".join(_experiment_spec(e, n) for e in experiments)
    reports = tuple(e.name + ext for e in experiments for ext in (".csv", ".json"))
    invocations = [Invocation(("run", "{spec}", "--out", "{out}", "--workers", "{workers}"), reports)]
    if name == "digit_spectral":
        for system in ("rsd", "vtau"):
            common = ("{spec}", "--system", system, "--observable", "w0", "--n", str(n_spectral), "--lags", str(LAGS))
            for cmd, extra in (("corr", ()), ("spectrum", ("--grid", str(GRID)))):
                out = "%s_%s.csv" % (system, cmd)
                invocations.append(Invocation((cmd, *common, *extra, "--out", "{out}/" + out), (out,)))
    return Workload(name, n, n_spectral, c, spec_text, experiments, tuple(invocations), workers)


def golden_spec() -> str:
    """The Thue-Morse experiments behind tests/fixtures/golden/."""
    return "\n".join([
        TM_SPEC,
        "observable w0 = walsh {0}\n",
        _experiment_spec(Experiment("sarnak_tm_moebius", "tm", "w0", "moebius"), 1 << 20),
        _experiment_spec(Experiment("kbsz_tm_3_5", "tm", "w0", "none", (3, 5)), 1 << 18),
    ])
