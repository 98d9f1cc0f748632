"""Print one hash per 1,000 spec texts, over what parse_spec returns for each.

The hash of a block covers repr(parse_spec(text)) for each of its texts: the
declarations of a document that parses and validates, or every diagnostic
with its message, line, column and excerpt.  A call that raises counts as
the exception's type and message.  The 60,000 texts are drawn from seeded
generators, so both trees see the same ones:

- EDITS texts: a spec from specs/*.spec, tests/fixtures/specs/*/*.spec or
  the command line, with 1 to 3 random edits, each one character inserted,
  deleted or replaced, or one keyword or punctuation token inserted;
- SOUP texts: keywords, punctuation, names, numbers and quoted words in
  random order, joined by blanks and line ends;
- CHARS texts: random characters, among them CR, form feed, '²' and
  'é';
- DECLS texts: whole declarations of the EDITS sources, 1 to 8 of them in
  random order, some given twice, and in half the texts two tokens of one
  declaration swapped.  Many of these parse to a nonempty document, so
  they reach the validator's binding checks.

After the blocks, one line per part counts its texts that parsed to a
nonempty document and so reached binding.

Each line names the part and the range of its block, so a moved line says
which generator found the difference.  Run from the repository root, once
with each tree's src on PYTHONPATH, and diff the two outputs:

    PYTHONPATH=src python tools/spec_sweep.py [extra.spec ...] > after.txt

tools/compare_sweeps.py REV does this, with the other sweeps, against the
src of the git revision REV.
"""

import collections
import hashlib
import pathlib
import random
import re
import sys

from mobiuslab import specfile
from mobiuslab.specfile import parse_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCK = 1000
EDITS, SOUP, CHARS, DECLS = 20000, 15000, 15000, 10000
KEYWORDS = (
    "substitution", "morse", "rs", "veech", "observable", "experiment", "on", "over", "blocks", "repeat",
    "pattern", "base", "group", "psi", "walsh", "indicator", "table", "at", "system", "weight", "N",
    "checkpoints", "kbsz", "pow2", "moebius", "liouville", "none", "Z2", "Zn", "Sym", "cover", "of",
)
PUNCT = ("{", "}", "[", "]", "(", ")", ",", ";", ":", "=", "->", "-")
NAMES = ("a", "b", "tm", "w", "x_1", "été")
NUMBERS = ("0", "1", "2", "3", "5", "6", "01", "1.5", "1e3", "2.5e-1", "1.2.3", "99999999999999999999")
STRINGS = ('"01"', '"10"', '""', '"a"', '"0*1"', '"012"')
SEPARATORS = (" ", " ", " ", "", "\n", "\t")
CHARSET = "abcxyz019 _\t\n\r\f\"#{}[](),;:=->.eE+²é" + "".join(PUNCT)
DECLARATION = re.compile(r"^(?=(?:substitution|morse|rs|veech|observable|experiment)\b)", re.M)
TOKEN = re.compile(r'"[^"\n]*"|->|[^\s"{}\[\](),;:=-]+|\S')


def edited(rng, text) -> str:
    """text with 1 to 3 random character or keyword edits."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        op = rng.randrange(4)
        if op == 0:
            text = text[:at] + rng.choice(CHARSET) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + 1:]
        elif op == 2:
            text = text[:at] + rng.choice(CHARSET) + text[at + 1:]
        else:
            text = text[:at] + " %s " % rng.choice(KEYWORDS + PUNCT) + text[at:]
    return text


def soup(rng) -> str:
    words = []
    for _ in range(rng.randint(0, 40)):
        words.append(rng.choice(rng.choice((KEYWORDS, KEYWORDS, PUNCT, PUNCT, NAMES, NUMBERS, STRINGS))))
        words.append(rng.choice(SEPARATORS))
    return "".join(words)


def chars(rng) -> str:
    return "".join(rng.choice(CHARSET) for _ in range(rng.randint(0, 80)))


def declarations(sources) -> list:
    """Every whole declaration of the sources, without comments."""
    decls = (re.sub(r"#[^\n]*", "", chunk).strip() for text in sources for chunk in DECLARATION.split(text))
    return [decl for decl in decls if DECLARATION.match(decl)]


def assembled(rng, decls) -> str:
    """1 to 8 whole declarations in random order, some twice, two tokens of one swapped in half the texts."""
    chosen = rng.sample(decls, rng.randint(1, 8))
    chosen += rng.sample(chosen, rng.randint(0, min(2, len(chosen))))
    rng.shuffle(chosen)
    if rng.random() < 0.5:
        i = rng.randrange(len(chosen))
        tokens = TOKEN.findall(chosen[i])
        a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[a], tokens[b] = tokens[b], tokens[a]
        chosen[i] = " ".join(tokens)
    return "\n\n".join(chosen)


def texts(sources):
    """(part, text) for every text of the sweep, in order."""
    rng = random.Random(20150705)
    for _ in range(EDITS):
        yield "edits", edited(rng, rng.choice(sources))
    for _ in range(SOUP):
        yield "soup", soup(rng)
    for _ in range(CHARS):
        yield "chars", chars(rng)
    decls = declarations(sources)
    for _ in range(DECLS):
        yield "decls", assembled(rng, decls)


def outcome(text) -> str:
    try:
        return repr(parse_spec(text))
    except Exception as exc:  # a parser that raises is reported, and the sweep goes on
        return "raised %s: %s" % (type(exc).__name__, exc)


def main(extra) -> int:
    paths = sorted(ROOT.glob("specs/*.spec")) + sorted(ROOT.glob("tests/fixtures/specs/*/*.spec"))
    paths += [pathlib.Path(spec) for spec in extra]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    validate, bound = specfile._Validator.run, []

    def counted(validator):  # parse_spec validates, and so binds, a text that parsed
        bound.append(bool(validator.declarations))
        return validate(validator)

    specfile._Validator.run = counted
    h, total, binding = hashlib.sha256(), collections.Counter(), collections.Counter()
    for i, (part, text) in enumerate(texts(sources)):
        bound.clear()
        h.update(outcome(text).encode("utf-8") + b"\0")
        total[part] += 1
        binding[part] += any(bound)
        if (i + 1) % BLOCK == 0:
            print("%s %05d-%05d %s" % (part, i + 1 - BLOCK, i, h.hexdigest()[:16]))
            h = hashlib.sha256()
    for part in total:
        print("%s: %d of %d texts parse to a nonempty document and reach binding" % (part, binding[part], total[part]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
