import pathlib
import re
import time

import pytest

from mobiuslab import binding, specfile
from mobiuslab.specfile import (
    Diagnostic,
    ExperimentDecl,
    GroupExpr,
    MorseDecl,
    ObservableDecl,
    SpecDocument,
    SubstitutionDecl,
    parse_spec,
    print_spec,
)

SPECS = pathlib.Path(__file__).parent / "fixtures" / "specs"
VALID = sorted((SPECS / "valid").glob("*.spec"))
MALFORMED = SPECS / "malformed"


def parse_ok(text):
    result = parse_spec(text)
    assert isinstance(result, SpecDocument), [d.render() for d in result]
    return result


def parse_bad(text):
    result = parse_spec(text)
    assert isinstance(result, list) and result
    return result


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_valid_corpus_round_trips(path):
    doc = parse_ok(path.read_text())
    printed = print_spec(doc)
    again = parse_ok(printed)
    assert again == doc
    # canonical output is a fixed point of the printer
    assert print_spec(again) == printed


def test_spans_do_not_affect_equality():
    text = VALID[0].read_text()
    shifted = "# pushed down\n\n\n" + text
    assert parse_ok(text) == parse_ok(shifted)


def test_document_accessors():
    doc = parse_ok((SPECS / "valid" / "thue_morse.spec").read_text())
    assert set(doc.systems()) == {"tm"}
    assert set(doc.observables()) == {"w0", "ind01"}
    assert [e.name for e in doc.experiments()] == ["sarnak_tm_moebius", "kbsz_tm_3_5"]
    tm = doc.systems()["tm"]
    assert isinstance(tm, SubstitutionDecl)
    assert tm.letters == ("0", "1")
    assert tm.rules == (("0", "01"), ("1", "10"))


def test_experiment_defaults():
    doc = parse_ok(
        'rs r pattern "11"\n'
        "observable w = walsh {0}\n"
        "experiment e { system: r; observable: w; N: 64; }\n"
    )
    exp = doc.experiments()[0]
    assert exp.weight == "none"
    assert exp.checkpoints == "pow2"
    assert exp.kbsz is None


def test_group_expressions():
    doc = parse_ok(
        'morse a over Z2 blocks [repeat "01"]\n'
        'morse b over Zn(6) blocks [repeat "013"]\n'
        'morse c over Sym(3) blocks [repeat "02"]\n'
        "substitution h on {a, b} {\n"
        '  a -> "ab";\n  b -> "ba";\n'
        "}\n"
        "morse d over cover-of h\n"
    )
    groups = {name: decl.group for name, decl in doc.systems().items() if isinstance(decl, MorseDecl)}
    assert groups["a"] == GroupExpr("Z2")
    assert groups["b"] == GroupExpr("Zn", 6)
    assert groups["c"] == GroupExpr("Sym", 3)
    assert groups["d"] == GroupExpr("cover", "h")
    # the cover variant carries no blocks clause and prints without one
    assert doc.systems()["d"].tail == ""
    assert "morse d over cover-of h" in print_spec(doc)


def test_cover_with_blocks_rejected():
    diags = parse_bad(
        "substitution h on {a, b} {\n"
        '  a -> "ab";\n  b -> "ba";\n'
        "}\n"
        'morse d over cover-of h blocks [repeat "01"]\n'
    )
    assert "cover" in diags[0].message


def test_morse_without_blocks_rejected():
    diags = parse_bad("morse d over Z2\n")
    assert any("blocks" in d.message for d in diags)


def test_block_symbol_validation():
    diags = parse_bad('morse a over Z2 blocks [repeat "10"]\n')
    assert any("identity" in d.message for d in diags)
    diags = parse_bad('morse a over Z2 blocks [repeat "02"]\n')
    assert any("outside the group" in d.message for d in diags)


def expect_one(name, line, column, fragment):
    text = (MALFORMED / name).read_text()
    diags = parse_bad(text)
    assert len(diags) == 1, [d.render() for d in diags]
    d = diags[0]
    assert d.severity == "error"
    assert (d.line, d.column) == (line, column)
    assert fragment in d.message
    assert d.excerpt.strip()
    assert d.excerpt in text.splitlines()[d.line - 1] or d.excerpt == text.splitlines()[d.line - 1]
    return d


def test_missing_arrow():
    d = expect_one("missing_arrow.spec", 2, 5, "expected '->'")
    assert '"01"' in d.excerpt or "01" in d.excerpt


def test_unknown_letter():
    d = expect_one("unknown_letter.spec", 2, 8, "unknown letter 'c'")
    assert '"ac"' in d.excerpt


def test_unterminated_string():
    expect_one("unterminated_string.spec", 1, 14, "unterminated string")


def test_duplicate_names():
    d = expect_one("duplicate_names.spec", 2, 1, "duplicate name 'r'")
    assert "line 1, column 1" in d.message


def test_row_length_mismatch():
    d = expect_one("length_mismatch.spec", 3, 8, "has length 3, others have 2")
    assert '"bab"' in d.excerpt


@pytest.mark.parametrize("rules, line, column, message", [
    ('  a -> "ab";\n  a -> "ba";\n', 3, 8, "letter 'a' has more than one rule"),
    ('  a -> "ab";\n', 1, 1, "missing rules for letters b"),
    ('  a -> "ab";\n  b -> "bc";\n', 3, 8, "rule for 'b' uses unknown letter 'c'"),
    ('  a -> "ab";\n  b -> "b";\n', 3, 8, "rule for 'b' has length 1, others have 2"),
    ('  a -> "ab";\n  c -> "ba";\n', 3, 3, "unknown letter 'c' (alphabet is {a, b})"),
], ids=["duplicate_rule", "missing_rule", "unknown_image_letter", "length", "unknown_rule_letter"])
def test_substitution_rule_diagnostics(rules, line, column, message):
    (d,) = parse_bad("substitution bad on {a, b} {\n%s}\n" % rules)
    assert (d.line, d.column, d.message) == (line, column, message)


def test_a_wide_alphabet_parses_in_linear_time():
    """12,000 letters with rules of length 2: each check builds its letter set once (9 s when it scanned lists)."""
    letters = [chr(0x4E00 + i) for i in range(12000)]
    rules = "".join('  %s -> "%s%s";\n' % (c, c, letters[(i + 1) % len(letters)]) for i, c in enumerate(letters))
    start = time.perf_counter()
    doc = parse_ok("substitution big on {%s} {\n%s}\n" % (", ".join(letters), rules))
    assert time.perf_counter() - start < 4.0
    assert doc.bound["big"].alphabet_size == 12000


def test_dangling_references():
    diags = parse_bad((MALFORMED / "dangling_reference.spec").read_text())
    messages = "\n".join(d.message for d in diags)
    assert "unknown system 'ghost'" in messages
    assert "unknown observable 'w'" in messages


def test_nonprime_kbsz():
    diags = parse_bad((MALFORMED / "nonprime_kbsz.spec").read_text())
    assert len(diags) == 1
    assert "distinct primes" in diags[0].message
    assert "(4, 5)" in diags[0].message


KBSZ_TEMPLATE = """substitution tm on {0, 1} {
  0 -> "01";
  1 -> "10";
}
observable w = walsh {0}
experiment e {
  system: tm;
  observable: w;
  N: 16;
  kbsz: (3, %d);
}
"""


def test_kbsz_large_prime_parses():
    doc = parse_ok(KBSZ_TEMPLATE % (10**14 + 31))
    assert doc.experiments()[0].kbsz == (3, 10**14 + 31)


def test_kbsz_beyond_primality_bound_is_located():
    diags = parse_bad(KBSZ_TEMPLATE % 10**30)
    assert len(diags) == 1
    d = diags[0]
    assert d.severity == "error"
    assert (d.line, d.column) == (6, 1)
    assert "not decided" in d.message and "(3, %d)" % 10**30 in d.message


def test_recovery_collects_multiple_errors():
    # two broken declarations, both reported, one diagnostic each
    text = (
        "substitution one on {a} {\n"
        "  a -> ;\n"
        "}\n"
        "substitution two on {b} {\n"
        '  b "b";\n'
        "}\n"
        'rs three pattern "11"\n'
    )
    diags = parse_bad(text)
    assert len(diags) == 2
    assert (diags[0].line, diags[1].line) == (2, 5)
    assert all(isinstance(d, Diagnostic) for d in diags)


GROUP_WORDS = "Z2, Zn(k), Sym(r), cover-of NAME"
FIELDS = "system, observable, weight, N, checkpoints, kbsz"


@pytest.mark.parametrize("text, expected", [
    ('substitution s on {0, 1} {\n  0 -> "01";\n', [("unterminated substitution body", 3, 1)]),
    ('morse m over 3 blocks [repeat "01"]\n', [("expected a group (%s), found '3'" % GROUP_WORDS, 1, 14)]),
    ('morse m over Q8 blocks [repeat "01"]\n', [("unknown group 'Q8' (expected %s)" % GROUP_WORDS, 1, 14)]),
    ('morse m over Z2 blocks ["01" "01"]\n', [("expected ',' or 'repeat', found '01'", 1, 30)]),
    ("observable w = 3\n", [("expected walsh, indicator, or table, found '3'", 1, 16)]),
    ("observable w = cosine {0}\n",
     [("unknown observable kind 'cosine' (expected walsh, indicator, or table)", 1, 16)]),
    ("experiment e {\n  system: s;\n", [("unterminated experiment body", 3, 1)]),
    ("experiment e { weight: mu; }\n", [("weight must be one of moebius, liouville, none, found 'mu'", 1, 24)]),
    ("morse m over cover-of nope\n", [("cover-of refers to unknown system 'nope'", 1, 14)]),
    # the reserved name is refused unread, so parsing resumes at it as a declaration keyword
    ("substitution experiment on {0} {}\n",
     [("'experiment' is a reserved keyword", 1, 14), ("unknown experiment field '0' (expected one of %s)" % FIELDS, 1, 29)]),
], ids=["cut_substitution", "group_not_a_word", "unknown_group", "block_without_comma", "observable_not_a_word",
        "unknown_observable_kind", "cut_experiment", "unknown_weight", "cover_of_unknown", "reserved_name"])
def test_rare_diagnostics_are_located(text, expected):
    assert [(d.message, d.line, d.column) for d in parse_bad(text)] == expected


def test_all_or_nothing():
    text = 'rs good pattern "11"\nrs bad pattern "00"\n'
    result = parse_spec(text)
    assert isinstance(result, list)


def test_observable_forms():
    doc = parse_ok(
        "substitution tm on {0, 1} {\n"
        '  0 -> "01";\n  1 -> "10";\n'
        "}\n"
        "observable a = walsh {}\n"
        "observable b = walsh {0, 2}\n"
        'observable c = indicator "01" at 3\n'
        "observable d = table {0: 0.5, 1: -0.5}\n"
    )
    obs = doc.observables()
    assert obs["a"].kind == "walsh" and obs["a"].coords == ()
    assert obs["b"].coords == (0, 2)
    assert obs["c"].kind == "indicator" and obs["c"].block == "01" and obs["c"].offset == 3
    assert obs["d"].kind == "table" and dict(obs["d"].entries) == {"0": 0.5, "1": -0.5}


def test_table_float_printing():
    doc = parse_ok("morse m over Z2 blocks [repeat \"01\"]\nobservable t = table {0: 1, 1: -0.25}\n")
    printed = print_spec(doc)
    assert "0: 1," in printed and "-0.25" in printed
    assert parse_ok(printed) == doc


def test_experiment_field_checks():
    base = (
        'rs r pattern "11"\n'
        "observable w = walsh {0}\n"
    )
    diags = parse_bad(base + "experiment e { observable: w; N: 4; }\n")
    assert any("system" in d.message for d in diags)
    diags = parse_bad(base + "experiment e { system: r; observable: w; N: 0; }\n")
    assert any("N" in d.message for d in diags)
    diags = parse_bad(
        base + "experiment e { system: r; observable: w; N: 8; checkpoints: [4, 2]; }\n"
    )
    assert any("ascending" in d.message for d in diags)
    diags = parse_bad(
        base + "experiment e { system: r; observable: w; N: 8; N: 16; }\n"
    )
    assert any("duplicate" in d.message for d in diags)


def test_walsh_binding_checked_for_known_alphabets():
    diags = parse_bad(
        "substitution h on {a, b, c} {\n"
        '  a -> "ab";\n  b -> "ca";\n  c -> "bc";\n'
        "}\n"
        "observable w = walsh {0}\n"
        "experiment e { system: h; observable: w; N: 4; }\n"
    )
    assert any("walsh" in d.message and "binary" in d.message for d in diags)


def test_diagnostic_render_format():
    diags = parse_bad('rs r pattern "00"\n')
    rendered = diags[0].render()
    assert rendered.startswith("error: line 1, column ")
    assert "\n  " in rendered


@pytest.mark.parametrize("text", [
    'rs r pattern "11"\nobservable w = walsh {0}\nexperiment e { system: r; observable: w; N: ²; }\n',
    'rs r pattern "11"\nobservable t = table {0: 1, ²: -1}\n',
    'rs r pattern "11"\nobservable w = walsh {٣}\n',
], ids=["superscript_N", "superscript_key", "arabic_indic_coordinate"])
def test_non_ascii_digits_are_diagnosed(text):
    diags = parse_bad(text)
    assert len(diags) == 1
    line = text.splitlines()[diags[0].line - 1]
    assert line[diags[0].column - 1] in "²٣"


@pytest.mark.parametrize("text, column, message", [
    ('substitution "" on {a} {}', 14, "expected a substitution name, found ''"),
    ('rs r pattern "11"\nobservable w = walsh {0}\nexperiment e { system: ""; }', 24, "expected a declared name, found ''"),
    ('observable t = table { "": 1 }', 24, "expected a symbol key, found ''"),
    ('morse m over Zn("") blocks [repeat "0"]', 17, "expected the Zn parameter, found ''"),
    ("substitution", 13, "expected a substitution name, found 'end of input'"),
    ("observable t = table {", 23, "expected a symbol key, found 'end of input'"),
], ids=["substitution_name", "experiment_system", "table_key", "zn_parameter", "name_at_end", "key_at_end"])
def test_an_empty_string_is_found_as_itself_not_as_the_end(text, column, message):
    diags = parse_bad(text)
    assert len(diags) == 1
    assert (diags[0].line, diags[0].column) == (text.count("\n") + 1, column)
    assert diags[0].message == message


def test_integer_too_long_to_convert_is_diagnosed():
    diags = parse_bad('rs r pattern "11"\nobservable w = walsh {0}\nexperiment e { system: r; observable: w; N: %s; }\n'
                      % ("1" * 5000))
    assert len(diags) == 1 and (diags[0].line, diags[0].column) == (3, 45)
    assert "too long" in diags[0].message


TM_HEAD = 'substitution tm on {0, 1} {\n  0 -> "01";\n  1 -> "10";\n}\n'
TM = SubstitutionDecl("tm", ("0", "1"), (("0", "01"), ("1", "10")))


def tm_and(*args, **kwargs):
    return SpecDocument((TM, ObservableDecl(*args, **kwargs)))


@pytest.mark.parametrize("text, expected", [
    (TM_HEAD + "observable t = table {0: 1e+5, 1: -2.5E-1}\n",
     tm_and("t", "table", entries=(("0", 100000.0), ("1", -0.25)))),
    (TM_HEAD + "observable t = table {0: 1.2.3, 1: 1}\n", (5, 26, "malformed number '1.2.3'")),
    (TM_HEAD + "observable t = table {0: 1, 1: -1e999}\n", (5, 33, "number '-1e999' is too large for a float")),
    (TM_HEAD + "observable \u00b2 = walsh {0}\n", (5, 12, "unexpected character '\u00b2'")),
    (TM_HEAD + "observable\fw = walsh {0}\n", (5, 11, "unexpected character '\\x0c'")),
    (TM_HEAD + "observable\u00a0w = walsh {0}\n", (5, 11, "unexpected character '\\xa0'")),
    (TM_HEAD + "observable 12abc = walsh {0}\n", (5, 12, "expected an observable name, found '12'")),
    ('rs r pattern "11', (1, 14, "unterminated string")),
    ((TM_HEAD + "observable w = walsh {0}  # first\n").replace("\n", "\r\n"), tm_and("w", "walsh", coords=(0,))),
    (TM_HEAD + "observable caf\u00e9 = walsh {0}\n", tm_and("caf\u00e9", "walsh", coords=(0,))),
    (TM_HEAD + "observable w = walsh {0, \u0663}\n", (5, 26, "unexpected character '\u0663'")),
    (TM_HEAD + "observable w = walsh {", (5, 23, "expected a window coordinate, found 'end of input'")),
    (TM_HEAD + 'observable i = indicator "0#1" at 0\n', tm_and("i", "indicator", block="0#1", offset=0)),
    (TM_HEAD + 'observable i = indicator "01"# at 9 "x\n  at 0\n', tm_and("i", "indicator", block="01", offset=0)),
], ids=["exponents", "two_points", "past_float_range", "superscript_name", "form_feed", "no_break_space",
        "digits_then_letters", "unterminated_string", "crlf", "accented_letter", "arabic_indic_digit", "end_inside_walsh",
        "hash_in_word", "hash_after_word"])
def test_lexer_rules(text, expected):
    """A document, or one diagnostic (line, column, message) excerpting its line."""
    result = parse_spec(text)
    if isinstance(expected, SpecDocument):
        assert result == expected, result
        return
    (d,) = result
    assert (d.line, d.column, d.message) == expected
    assert d.excerpt == text.split("\n")[d.line - 1]
AB = 'substitution s on {a, b} {\n  a -> "ab";\n  b -> "ba";\n}\n'


def test_letters_and_indices_name_the_same_symbols():
    doc = parse_ok(
        AB
        + 'observable i = indicator "01" at 0\n'
        + 'observable j = indicator "ab" at 0\n'
        + "observable t = table {0: 1, 1: -1}\n"
        + "observable u = table {a: 1, b: -1}\n"
        + "".join("experiment %s { system: s; observable: %s; N: 16; }\n" % (o, o) for o in "ijtu")
    )
    assert set(doc.bound) == {"s"}


@pytest.mark.parametrize("system, entries, first, second", [
    (TM_HEAD, "0: 1, 0: 2, 1: 3", "0", "0"),
    (TM_HEAD, "0: 1, 1: 2, 01: 5", "1", "01"),
    (AB, "a: 1, 0: 2", "a", "0"),
], ids=["same_key", "leading_zero", "letter_and_index"])
def test_a_table_giving_one_symbol_twice_is_located_at_each_experiment(system, entries, first, second):
    name = system.split()[1]
    diags = parse_bad(
        system + "observable t = table {%s}\n" % entries
        + "experiment e { system: %s; observable: t; N: 4; }\n" % name
        + "experiment f { system: %s; observable: t; N: 8; }\n" % name
    )
    message = "observable 't' gives one symbol twice, as %r and as %r" % (first, second)
    assert [(d.message, d.line, d.column) for d in diags] == [(message, 6, 1), (message, 7, 1)]


def test_parsed_documents_keep_their_bound_systems():
    doc = parse_ok((SPECS / "valid" / "herning.spec").read_text())
    assert {name: b.kind for name, b in doc.bound.items()} == {"herning": "substitution", "herning_cover": "morse"}
    assert doc.bound["herning_cover"].alphabet_size == 6
    assert {name: b.stream.name for name, b in doc.bound.items()} == {"herning": "herning", "herning_cover": "herning_cover"}
    assert doc.bound["herning_cover"].stream.alphabet_size == 6


def test_group_expression_limits():
    diags = parse_bad('morse m over Zn(10001) blocks [repeat "01"]\n')
    assert (diags[0].line, diags[0].column) == (1, 14) and "10000" in diags[0].message
    diags = parse_bad('morse m over Sym(7) blocks [repeat "01"]\n')
    assert (diags[0].line, diags[0].column) == (1, 14)
    diags = parse_bad('rs r pattern "11"\nmorse m over cover-of r\n')
    assert (diags[0].line, diags[0].column) == (2, 14) and "needs a substitution" in diags[0].message


def test_each_group_expression_is_built_once_per_document(monkeypatch):
    built, build = [], binding.cyclic_group

    def counting(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(binding, "cyclic_group", counting)
    doc = parse_ok('morse a over Zn(50) blocks [repeat "01"]\nveech b base 3 group Zn( 50 ) psi repeat "12"\n')
    assert built == [50]
    assert doc.bound["a"].group is doc.bound["b"].group


def test_a_group_that_fails_to_build_is_located_at_each_use():
    diags = parse_bad('morse a over Sym(7) blocks [repeat "01"]\nmorse b over Sym(7) blocks [repeat "01"]\n')
    assert [(d.line, d.column) for d in diags] == [(1, 14), (2, 14)]


PAIRS_SPEC = """substitution tm on {0, 1} {
  0 -> "01";
  1 -> "10";
}
rs r pattern "11"
observable w0 = walsh {0}
observable w1 = walsh {0, 1}
experiment a { system: tm; observable: w1; N: 64; }
experiment b { system: r; observable: w0; N: 64; }
experiment c { system: tm; observable: w0; weight: moebius; N: 64; }
experiment d { system: tm; observable: w1; N: 32; }
experiment e { system: r; observable: w0; N: 16; kbsz: (3, 5); }
experiment f { system: tm; observable: w0; N: 8; }
"""


def test_parsing_builds_no_walsh_or_indicator_table(monkeypatch):
    """Experiments are checked from their observables' declarations; only run builds a table."""
    from mobiuslab import spectral

    built = []

    def counting(make):
        return lambda *args, **kwargs: built.append(args) or make(*args, **kwargs)

    for maker in ("make_walsh", "make_block_indicator"):
        monkeypatch.setattr(spectral, maker, counting(getattr(spectral, maker)))
    doc = parse_ok(PAIRS_SPEC + 'observable i1 = indicator "1" at 3\n'
                   "experiment g { system: tm; observable: i1; N: 64; kbsz: (3, 5); }\n"
                   "observable wide = walsh {%s}\n"
                   "experiment h { system: tm; observable: wide; N: 64; }\n" % ", ".join(map(str, range(24))))
    assert built == [] and len(doc.experiments()) == 8


def test_each_experiment_over_a_failing_pair_is_located_at_its_own_line():
    herning = (SPECS / "valid" / "herning.spec").read_text()
    top = len(herning.splitlines())
    diags = parse_bad(herning + "observable w = walsh {0}\n"
                      "experiment e1 { system: herning; observable: w; N: 64; }\n"
                      "experiment ok { system: herning; observable: first_a; N: 64; }\n"
                      "experiment e2 { system: herning; observable: w; N: 32; }\n")
    assert [(d.line, d.column) for d in diags] == [(top + 2, 1), (top + 4, 1)]
    assert all(d.message == diags[0].message and "binary" in d.message for d in diags)


def declarations(text):
    """The declarations text parses to, before any is bound."""
    lines = text.split("\n")
    return specfile._Parser(specfile._tokenize(lines), lines).parse_document()


def test_binding_refuses_a_declaration_at_its_rule_or_group():
    """build_substitution and build_group, called directly, carry the span of the rule or group at fault."""
    for a, b, span, message in (("ab", "bab", (3, 8), "rule for 'b' has length 3, others have 2"),
                                ("ab", "bc", (3, 8), "rule for 'b' uses unknown letter 'c'"),
                                ("ba", "ab", (1, 1), "substitution 's' has no letter fixed at position 0")):
        (decl,) = declarations('substitution s on {a, b} {\n  a -> "%s";\n  b -> "%s";\n}\n' % (a, b))
        with pytest.raises(binding.BindingError, match=re.escape(message)) as caught:
            binding.build_substitution(decl)
        assert (caught.value.span.line, caught.value.span.column) == span
    decls = declarations('rs r pattern "11"\nmorse m over cover-of r\nmorse z over Zn(1)\nmorse y over cover-of x\n'
                         'substitution s on {a, b} {\n  a -> "ba";\n  b -> "ab";\n}\nmorse c over cover-of s\n')
    systems = {d.name: d for d in decls}
    for decl, message in ((decls[1], "cover-of needs a substitution, 'r' is not one"),
                          (decls[2], "Zn needs 2 <= n <= 10000, got 1"),
                          (decls[3], "cover-of refers to unknown system 'x'")):
        with pytest.raises(binding.BindingError, match=re.escape(message)) as caught:
            binding.build_group(decl.group, systems, {})
        assert caught.value.span == decl.group.span and caught.value.span.line == decls.index(decl) + 1
    with pytest.raises(binding.BindingError) as caught:  # s failed to bind: its own refusal is located at it
        binding.build_group(decls[5].group, systems, {})
    assert caught.value.span is None


def test_cover_of_a_substitution_that_fails_to_bind_is_reported_once():
    diags = parse_bad('substitution s on {a, b} {\n  a -> "ba";\n  b -> "ab";\n}\nmorse m over cover-of s\n')
    assert len(diags) == 1 and "no letter fixed" in diags[0].message


# -- properties ------------------------------------------------------------

LETTER_POOL = "abcxyz0123"
SMALL_GROUPS = (("Z2", 2), ("Zn(3)", 3), ("Zn(4)", 4), ("Sym(1)", 1), ("Sym(3)", 6))
PRIME_PAIRS = ((2, 3), (3, 5), (5, 7), (7, 3))
WEIGHTS = ("moebius", "liouville", "none")


def documents(st):
    """Valid documents over small groups, with experiments whose observables bind."""

    def word(draw, order, length):
        return "0" + "".join("0123456789"[draw(st.integers(0, order - 1))] for _ in range(length - 1))

    @st.composite
    def build(draw):
        chunks, systems = [], []  # systems: (name, table keys or None for indicator "0")
        for i in range(draw(st.integers(1, 2))):
            r = draw(st.integers(2, 3))
            letters = draw(st.lists(st.sampled_from(LETTER_POOL), min_size=r, max_size=r, unique=True))
            columns = [list(range(r))] + [draw(st.permutations(range(r))) for _ in range(draw(st.integers(1, 2)))]
            rules = "".join('  %s -> "%s";\n' % (letters[a], "".join(letters[c[a]] for c in columns)) for a in range(r))
            chunks.append("substitution s%d on {%s} {\n%s}" % (i, ", ".join(letters), rules))
            systems.append(("s%d" % i, letters))
            if any(list(c) != list(range(r)) for c in columns[1:]) and draw(st.booleans()):
                chunks.append("morse c%d over cover-of s%d" % (i, i))
                systems.append(("c%d" % i, None))
        for i in range(draw(st.integers(0, 2))):
            group, order = draw(st.sampled_from(SMALL_GROUPS))
            head = ['"%s", ' % word(draw, order, draw(st.integers(2, 3))) for _ in range(draw(st.integers(0, 2)))]
            chunks.append('morse m%d over %s blocks [%srepeat "%s"]' % (i, group, "".join(head), word(draw, order, 2)))
            systems.append(("m%d" % i, [str(k) for k in range(order)]))
        if draw(st.booleans()):
            pattern = "1" + draw(st.text("1*", max_size=3)) + draw(st.sampled_from("01"))
            chunks.append('rs r pattern "%s"' % pattern)
            systems.append(("r", ["0", "1"]))
        if draw(st.booleans()):
            group, order = draw(st.sampled_from(SMALL_GROUPS))
            psi = "".join(str(draw(st.integers(0, order - 1))) for _ in range(draw(st.integers(1, 3))))
            chunks.append('veech v base %d group %s psi repeat "%s"' % (draw(st.integers(2, 4)), group, psi))
            systems.append(("v", [str(k) for k in range(order)]))
        for i in range(draw(st.integers(0, 3))):
            name, keys = draw(st.sampled_from(systems))
            if keys is None or draw(st.booleans()):
                chunks.append('observable o%d = indicator "0" at %d' % (i, draw(st.integers(0, 3))))
            elif len(keys) == 2 and draw(st.booleans()):
                coords = sorted(draw(st.sets(st.integers(0, 5), max_size=3)))
                chunks.append("observable o%d = walsh {%s}" % (i, ", ".join(map(str, coords))))
            else:
                values = [draw(st.floats(-1e6, 1e6, allow_nan=False)) for _ in keys]
                chunks.append("observable o%d = table {%s}" % (i, ", ".join("%s: %r" % kv for kv in zip(keys, values))))
            n = draw(st.integers(1, 1 << 20))
            fields = ["system: %s" % name, "observable: o%d" % i, "weight: %s" % draw(st.sampled_from(WEIGHTS)), "N: %d" % n]
            if draw(st.booleans()):
                points = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=4)) | {n})
                fields.append("checkpoints: [%s]" % ", ".join(map(str, points)))
            if draw(st.booleans()):
                fields.append("kbsz: (%d, %d)" % draw(st.sampled_from(PRIME_PAIRS)))
            chunks.append("experiment e%d { %s; }" % (i, "; ".join(fields)))
        text = "\n".join(chunks) + "\n"
        doc = parse_spec(text)
        assert isinstance(doc, SpecDocument), (text, [d.render() for d in doc])
        return doc

    return build()


def test_generated_documents_round_trip():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(doc=documents(hypothesis.strategies))
    def check(doc):
        assert parse_spec(print_spec(doc)) == doc

    check()


SEED_TEXTS = [p.read_text() for p in VALID + sorted(MALFORMED.glob("*.spec"))]
TOKEN = re.compile(r'"[^"\n]*"|[0-9]+|[A-Za-z_]+|\s+|.')
# str.isdigit() holds for each, and int() accepts only the Arabic-Indic three
UNICODE_DIGITS = ("\u00b2", "\u00b3", "\u2460", "\u0663")
SPLICES = ("\u212a", '"', "-", "->", "{", "}", "(", ")", ";", ":", ",", "#", "\n", "9",
           "Zn(", "Sym(", "cover-of ", "walsh {", "table {", "indicator ", "kbsz: (", "N: ", "99999999999")


def mutated_texts(st):
    """Arbitrary text, and valid or malformed spec files with a few tokens edited.

    An edit replaces a token, numbers more often than the rest, by a
    non-ASCII digit, a splice, another token of the file, nothing, or
    arbitrary text.
    """

    @st.composite
    def build(draw):
        tokens = TOKEN.findall(draw(st.sampled_from(SEED_TEXTS)))
        numbers = [i for i, t in enumerate(tokens) if t.isdigit()]
        for _ in range(draw(st.integers(1, 4))):
            pool = numbers if numbers and draw(st.booleans()) else range(len(tokens))
            i = draw(st.sampled_from(pool))
            tokens[i] = draw(st.one_of(
                st.sampled_from(UNICODE_DIGITS), st.sampled_from(SPLICES), st.sampled_from(tokens), st.just(""),
                st.text(max_size=3),
            ))
        return "".join(tokens)

    return st.one_of(build(), st.text(max_size=200))


def test_parse_never_raises():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(text=mutated_texts(hypothesis.strategies))
    def check(text):
        result = parse_spec(text)
        if isinstance(result, SpecDocument):
            return
        assert result
        lines = text.count("\n") + 1
        for d in result:
            assert 1 <= d.line <= lines + 1 and d.column >= 1, d.render()

    check()
