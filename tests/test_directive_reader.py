"""One directive reader for the .pdfa and guide formats.

`parse_pdfa` and `guide_from_spec` share one line reader. The two parsers
it replaced are kept below as oracles: on writer output, composition
products, stock and random guides, and every mutated file the oracles
accept, the reader must give equal (`==`) automata, apart from the
tightenings listed in TIGHTENINGS. Mutated files must otherwise parse or
fail with a package error whose message starts with `source:line`, and the
CLI must answer each kind of failure with exit status 2 and a JSON error.
"""

import json
import random
import re
import time
from fractions import Fraction
from typing import Optional

import pytest

from pdfalearn.automata import GuideAutomaton, Pdfa, materialize_compose, quotient
from pdfalearn.cli import main
from pdfalearn.errors import AllZeroError, NondeterministicSpecError, ParseFailureError, PdfaError
from pdfalearn.fileio import format_pdfa, guide_from_spec, parse_pdfa, save_guide_spec
from pdfalearn.pipeline import chain_guide, digit_guide
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Alphabet, Distribution, QuantizationPartitioner, TopP

# --- oracles: the two parsers the reader replaced ---


def _oracle_parse_number(text: str):
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ParseFailureError(f"bad rational {text!r}") from None
    try:
        if "." not in text and "e" not in text and "E" not in text:
            return int(text)
        return float(text)
    except ValueError:
        raise ParseFailureError(f"bad number {text!r}") from None


def oracle_parse_pdfa(text: str, source: str = "<string>") -> Pdfa:
    symbols: tuple[str, ...] = ()
    terminal = "$"
    n_states = None
    initial = 0
    alphabet = None
    dists: list[dict[str, object]] = []
    trans: list[dict[str, object]] = []
    current = None

    def fail(lineno, message):
        raise ParseFailureError(f"{source}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "alphabet":
            symbols = tuple(parts[1:])
        elif kind == "terminal":
            if len(parts) != 2:
                fail(lineno, "terminal takes one name")
            terminal = parts[1]
        elif kind == "states":
            n_states = int(parts[1])
        elif kind == "initial":
            initial = int(parts[1])
        elif kind == "state":
            current = int(parts[1])
            while len(dists) <= current:
                dists.append({})
                trans.append({})
        elif kind == "dist":
            if current is None or len(parts) != 3:
                fail(lineno, "dist outside a state or malformed")
            dists[current][parts[1]] = _oracle_parse_number(parts[2])
        elif kind == "trans":
            if current is None or len(parts) != 3:
                fail(lineno, "trans outside a state or malformed")
            trans[current][parts[1]] = None if parts[2] == "UNDEF" else int(parts[2])
        else:
            fail(lineno, f"unknown directive {kind!r}")
    if not symbols or n_states is None:
        raise ParseFailureError(f"{source}: missing alphabet or states directive")
    if len(dists) != n_states:
        raise ParseFailureError(f"{source}: saw {len(dists)} states, expected {n_states}")
    try:
        alphabet = Alphabet(symbols, terminal)
        built_dists = tuple(Distribution.from_map(alphabet, d) for d in dists)
        built_trans = tuple(
            tuple(t.get(name) for name in symbols) for t in trans
        )
        return Pdfa(alphabet, built_dists, built_trans, initial)
    except ParseFailureError:
        raise
    except (ValueError, KeyError, PdfaError) as exc:
        raise ParseFailureError(f"{source}: {exc}") from exc


def oracle_guide_from_spec(text: str) -> GuideAutomaton:
    alphabet: Optional[Alphabet] = None
    terminal = "$"
    n_states = None
    initial = 0
    allows: dict[int, list[str]] = {}
    edges: dict[tuple[int, int], int] = {}
    symbols: tuple[str, ...] = ()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "alphabet":
                symbols = tuple(parts[1:])
            elif kind == "terminal":
                terminal = parts[1]
            elif kind == "states":
                n_states = int(parts[1])
            elif kind == "initial":
                initial = int(parts[1])
            elif kind == "state":
                current = int(parts[1])
                allows.setdefault(current, [])
            elif kind == "allow":
                if current is None:
                    raise ParseFailureError(f"line {lineno}: allow before any state")
                allows[current].extend(parts[1:])
            elif kind == "trans":
                alphabet = alphabet or Alphabet(symbols, terminal)
                src, name, dst = int(parts[1]), parts[2], int(parts[3])
                key = (src, alphabet.index(name))
                if key in edges:
                    raise NondeterministicSpecError(
                        f"line {lineno}: duplicate transition for state {src} symbol {name!r}"
                    )
                edges[key] = dst
            else:
                raise ParseFailureError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseFailureError(f"line {lineno}: {exc}") from None
    if not symbols or n_states is None:
        raise ParseFailureError("guide needs `alphabet` and `states` directives")
    alphabet = alphabet or Alphabet(symbols, terminal)
    m = alphabet.size
    dead = n_states  # implicit sink for unspecified transitions
    masks = []
    delta = []
    for q in range(n_states):
        mask = [0] * (m + 1)
        for name in allows.get(q, []):
            idx = m if name == alphabet.terminal else alphabet.index(name)
            mask[idx] = 1
        masks.append(tuple(mask))
        delta.append(tuple(edges.get((q, s), dead) for s in range(m)))
    used_dead = any(dead in row for row in delta)
    if used_dead:
        masks.append(tuple([0] * (m + 1)))
        delta.append(tuple(dead for _ in range(m)))
    return GuideAutomaton(alphabet, tuple(masks), tuple(delta), initial)


# --- corpus ---

ABC = Alphabet(("a", "b", "c"))
F = Fraction


def _dist(*probs):
    return Distribution(ABC, probs)


# Six states over a, b, c: exact rationals and floats, UNDEF transitions, a
# zero-probability transition kept in the structure, and an unreachable state 5.
BASE_PDFA = Pdfa(
    ABC,
    (
        _dist(F(1, 2), F(1, 4), 0, F(1, 4)),
        _dist(0.3, 0.0, 0.6, 0.1),
        _dist(0.0, 0.5, 0.5, 0.0),
        _dist(F(1, 3), F(1, 3), 0, F(1, 3)),
        _dist(0.0, 0.0, 0.0, 1.0),
        _dist(0.25, 0.25, 0.25, 0.25),
    ),
    ((1, 2, None), (1, None, 3), (4, 3, 2), (0, 4, None), (None, None, None), (5, 0, 4)),
)

# A guide as written by hand: transitions inside and after the state bodies,
# and unspecified transitions that fall into the implicit dead state.
BASE_GUIDE = """\
# guide v1
alphabet a b c
terminal $
states 4
initial 0
state 0
allow a b
trans 0 a 1
trans 0 b 2
state 1
allow c $
trans 1 c 3
state 2
allow a
state 3
allow $
trans 2 a 2
trans 2 c 3
"""


def random_guide(alphabet: Alphabet, n: int, seed: int) -> GuideAutomaton:
    rng = random.Random(seed)
    m = alphabet.size
    masks = tuple(tuple(int(rng.random() < 0.7) for _ in range(m + 1)) for _ in range(n))
    delta = tuple(tuple(rng.randrange(n) for _ in range(m)) for _ in range(n))
    return GuideAutomaton(alphabet, masks, delta, rng.randrange(n))


def random_guide_spec(alphabet: Alphabet, n: int, seed: int) -> str:
    """A hand-style spec: some transitions left out, the rest in random order."""
    rng = random.Random(seed)
    slots = (*alphabet.symbols, alphabet.terminal)
    lines = ["alphabet " + " ".join(alphabet.symbols), f"states {n}", f"initial {rng.randrange(n)}"]
    for q in range(n):
        lines.append(f"state {q}")
        lines.append("allow " + " ".join(name for name in slots if rng.random() < 0.5))
    edges = [f"trans {q} {name} {rng.randrange(n)}" for q in range(n) for name in alphabet.symbols
             if rng.random() < 0.7]
    rng.shuffle(edges)
    return "\n".join(lines + edges) + "\n"


def assert_same_pdfa(text: str):
    new, old = parse_pdfa(text), oracle_parse_pdfa(text)
    assert new == old
    assert format_pdfa(new) == format_pdfa(old)  # the same int/float/Fraction entries


# --- differential checks on well-formed files ---


def test_writer_output_parses_as_before(
    loop_pdfa, loop_pdfa_top2, merged_pair_pdfa, merged_pair_quotient_pdfa, sync_model_pdfa
):
    corpus = [loop_pdfa, loop_pdfa_top2, merged_pair_pdfa, merged_pair_quotient_pdfa, sync_model_pdfa]
    corpus.append(BASE_PDFA)
    for shape in ((5, 2, 0.0), (12, 3, 0.5), (30, 4, 0.9), (60, 6, 0.7)):
        for seed in range(12):
            pdfa = random_pdfa(GenSpec(*shape, seed=seed))
            corpus += [pdfa, quotient(pdfa, QuantizationPartitioner(2))]
    assert len(corpus) >= 48 + 5
    for pdfa in corpus:
        text = format_pdfa(pdfa)
        assert parse_pdfa(text) == pdfa
        assert_same_pdfa(text)


def test_composition_products_parse_as_before():
    products = 0
    for seed in range(40):
        pdfa = random_pdfa(GenSpec(8, 3, 0.3, seed=seed))
        guide = random_guide(pdfa.alphabet, 3, seed)
        try:
            product = materialize_compose(pdfa, guide, TopP(0.9) if seed % 2 else None)
        except AllZeroError:
            continue
        products += 1
        assert_same_pdfa(format_pdfa(product))
    assert products >= 20


def test_guides_parse_as_before():
    words = Alphabet(("The", "man", "woman", "trained", "art", "medicine"))
    guides = [digit_guide(), chain_guide(words, [["The"], ["man", "woman"], ["trained"], ["art"]])]
    guides += [random_guide(Alphabet(tuple("abcd")[:m]), n, seed)
               for m in (1, 2, 4) for n in (1, 3, 7) for seed in range(3)]
    texts = [save_guide_spec(g) for g in guides] + [BASE_GUIDE]
    texts += [random_guide_spec(ABC, n, seed) for n in (1, 2, 5) for seed in range(6)]
    for guide in guides:
        assert guide_from_spec(save_guide_spec(guide)) == guide
    for text in texts:
        assert guide_from_spec(text) == oracle_guide_from_spec(text)


# --- fuzz: token swaps, deletions and duplicated lines ---

PDFA_MUTANTS = 20_000
GUIDE_MUTANTS = 10_000


def _words(lines, lineno):
    return lines[lineno - 1].split() if lineno else []


def _header_line_follows(lines, lineno, detail):
    return any(_words(lines, i)[:1] in (["alphabet"], ["states"]) for i in range(lineno + 1, len(lines) + 1))


def _trans_source_out_of_range(lines, lineno, detail):
    words = _words(lines, lineno)
    return words[0] == "trans" and words[1] == re.match(r"state (\S+) is", detail).group(1)


# Files the oracles accepted that now fail: per format, the name of each
# tightening, the pattern of the reader's message after `source:line: `, and
# a check on the file's lines, the failing line number and the message, or None.
TIGHTENINGS_BOTH = [
    # the oracles read `states`, `initial` and `state` up to their first argument
    ("extra arguments", r"`(terminal|states|initial|state)` takes one argument", None),
    # the oracles let a later header line redefine what earlier lines were read
    # against; the reader checks each index against `states` as it reads it
    ("header line after the body", r"`(alphabet|terminal|states|initial)` after the header", None),
    ("header line after the body", r"the header needs `alphabet` and `states` lines", _header_line_follows),
]
TIGHTENINGS = {
    "pdfa": TIGHTENINGS_BOTH + [
        # the .pdfa oracle dropped a `trans` line whose symbol is not in the alphabet
        ("trans names no symbol", r"unknown symbol '.*'",
         lambda lines, lineno, detail: _words(lines, lineno)[0] == "trans"),
    ],
    "guide": TIGHTENINGS_BOTH + [
        ("line-less state", r"state \d+ has no `state` line", None),
        ("trans source out of range", r"state -?\d+ is out of range for `states -?\d+`", _trans_source_out_of_range),
    ],
}


def mutate(text: str, rng: random.Random) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.choice((1, 1, 2))):
        op = rng.randrange(4)
        tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if op == 0 and tokens:  # swap two tokens anywhere in the file
            (i, j), (k, n) = rng.sample(tokens, 2)
            lines[i][j], lines[k][n] = lines[k][n], lines[i][j]
        elif op == 1 and tokens:  # delete a token
            i, j = rng.choice(tokens)
            del lines[i][j]
        elif op == 2:  # delete a line
            del lines[rng.randrange(len(lines))]
        else:  # duplicate a line in place
            i = rng.randrange(len(lines))
            lines.insert(i, list(lines[i]))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def failure_class(fmt: str, exc: PdfaError) -> tuple[str, str, str]:
    """Format, error type and message with names and numbers blanked out."""
    detail = str(exc).split(": ", 1)[1]
    return fmt, type(exc).__name__, re.sub(r"'[^']*'|-?\d+(\.\d+)?(e-?\d+)?", "#", detail)


def tightening(fmt: str, text: str, exc: PdfaError) -> Optional[str]:
    """The listed tightening that explains why the reader rejects `text`, if any."""
    match = re.match(r"[^:]*:(\d+): (.*)", str(exc))
    lineno, detail = int(match.group(1)), match.group(2)
    for name, pattern, check in TIGHTENINGS[fmt]:
        if re.fullmatch(pattern, detail) and (check is None or check(text.splitlines(), lineno, detail)):
            return name
    return None


def run_fuzz(fmt: str, base: str, count: int, seed: int):
    new_parse = parse_pdfa if fmt == "pdfa" else guide_from_spec
    old_parse = oracle_parse_pdfa if fmt == "pdfa" else oracle_guide_from_spec
    source = f"mutant.{fmt}"
    rng = random.Random(seed)
    stats = {"accepted": 0, "rejected": 0, "tightened": {}}
    representatives = {}
    for _ in range(count):
        text = mutate(base, rng)
        try:
            old = old_parse(text)
        except Exception:  # the oracles leak ValueError, IndexError, ... as well
            old = None
        try:
            new = new_parse(text, source)
        except (ParseFailureError, NondeterministicSpecError) as exc:
            assert re.match(rf"{re.escape(source)}:\d+: ", str(exc)), str(exc)
            stats["rejected"] += 1
            representatives.setdefault(failure_class(fmt, exc), text)
            if old is not None:
                reason = tightening(fmt, text, exc)
                assert reason, f"{exc} on a file the old parser accepted:\n{text}"
                stats["tightened"][reason] = stats["tightened"].get(reason, 0) + 1
            continue
        stats["accepted"] += 1
        assert old is not None, f"accepted a file the old parser rejected:\n{text}"
        assert new == old
        if fmt == "pdfa":
            assert format_pdfa(new) == format_pdfa(old)
    return stats, representatives


@pytest.fixture(scope="module")
def fuzz_runs():
    start = time.perf_counter()
    runs = {
        "pdfa": run_fuzz("pdfa", format_pdfa(BASE_PDFA), PDFA_MUTANTS, seed=1),
        "guide": run_fuzz("guide", BASE_GUIDE, GUIDE_MUTANTS, seed=2),
    }
    print(f"fuzz: {PDFA_MUTANTS + GUIDE_MUTANTS} mutants in {time.perf_counter() - start:.2f} s")
    return runs


def test_mutants_parse_as_before_or_fail_with_source_and_line(fuzz_runs):
    for fmt, (stats, representatives) in fuzz_runs.items():
        print(fmt, stats, f"{len(representatives)} failure classes")
        # both outcomes are common, so neither side of the comparison is vacuous
        assert stats["accepted"] > 500 and stats["rejected"] > 500
    assert "line-less state" in fuzz_runs["guide"][0]["tightened"]


def test_cli_answers_every_failure_class_with_a_json_error(fuzz_runs, tmp_path, capsys):
    target = tmp_path / "base.pdfa"
    target.write_text(format_pdfa(BASE_PDFA))
    for (fmt, error, _), text in sorted(fuzz_runs["pdfa"][1].items()) + sorted(fuzz_runs["guide"][1].items()):
        path = tmp_path / f"mutant.{fmt}"
        path.write_text(text)
        if fmt == "pdfa":
            rc = main(["quotient", "--target", str(path)])
        else:
            rc = main(["sample", "--target", str(target), "--guide", str(path), "-n", "3"])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["error"] == error
        assert err["detail"].startswith(f"{path}:")


# --- the tightenings and the motivating failures, one by one ---

GUIDE_HEAD = "alphabet a b\nstates 2\ninitial 0\nstate 0\nallow a\nstate 1\nallow $\n"
PDFA_HEAD = "alphabet a\nstates 1\ninitial 0\n"
PDFA_STATE = "state 0\ndist a 0.5\ndist $ 0.5\ntrans a 0\n"


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("alphabet a\nterminal $ x\nstates 1\n" + PDFA_STATE, 2, "`terminal` takes one argument"),
        ("alphabet a\nstates 1 2\n" + PDFA_STATE, 2, "`states` takes one argument"),
        ("alphabet a\nstates 1\ninitial 0 0\n" + PDFA_STATE, 3, "`initial` takes one argument"),
        (PDFA_HEAD + "state 0 0\ndist a 1\n", 4, "`state` takes one argument"),
        ("alphabet a\nstates x\n" + PDFA_STATE, 2, "bad integer 'x'"),
        (PDFA_HEAD + "state -1\n", 4, "state -1 is out of range for `states 1`"),
        (PDFA_HEAD + "state 0\ntrans a x\n", 5, "bad integer 'x'"),
        (PDFA_HEAD + "state 0\ntrans a 1\n", 5, "state 1 is out of range for `states 1`"),
        (PDFA_HEAD + "state 0\ntrans $ 0\n", 5, "unknown symbol '$'"),
        (PDFA_HEAD + "state 0\ndist a nope\n", 5, "bad number 'nope'"),
        (PDFA_HEAD + "state 0\ndist a 1/0\n", 5, "bad number '1/0'"),
        (PDFA_HEAD + "initial 0\n" + PDFA_STATE + "alphabet b\n", 9, "`alphabet` after the header"),
        (PDFA_HEAD + "state 0\ndist a 1\n", 4, "state 0 gives positive probability to a symbol without a transition"),
        (PDFA_HEAD + "state 0\ndist a 0.5\n", 4, "probabilities sum to 0.5, not 1"),
        ("alphabet a\nstates 2\n" + PDFA_STATE, 6, "state 1 has no `state` line"),
        ("states 1\n" + PDFA_STATE, 2, "the header needs `alphabet` and `states` lines"),
        ("", 0, "the header needs `alphabet` and `states` lines"),
    ],
)
def test_pdfa_failures_name_source_and_line(text, line, detail):
    with pytest.raises(ParseFailureError) as info:
        parse_pdfa(text, "t.pdfa")
    assert str(info.value) == f"t.pdfa:{line}: {detail}"


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("alphabet a b\nstates 2\nstate 0\nallow a\n", 4, "state 1 has no `state` line"),
        (GUIDE_HEAD + "trans 2 a 0\n", 8, "state 2 is out of range for `states 2`"),
        (GUIDE_HEAD + "trans 0 a 2\n", 8, "state 2 is out of range for `states 2`"),
        (GUIDE_HEAD + "trans 0 a\n", 8, "expected `trans SOURCE SYMBOL TARGET`"),
        (GUIDE_HEAD + "trans 0 $ 1\n", 8, "unknown symbol '$'"),
        (GUIDE_HEAD + "allow c\n", 8, "unknown symbol 'c'"),
        ("alphabet a a\nstates 1\nstate 0\n", 1, "alphabet symbols must be unique"),
        ("alphabet a\nterminal $ $\nstates 1\nstate 0\n", 2, "`terminal` takes one argument"),
        ("alphabet a\nstates 1 1\nstate 0\n", 2, "`states` takes one argument"),
        ("alphabet a\nstates 1\ninitial 0 1\nstate 0\n", 3, "`initial` takes one argument"),
        ("alphabet a\nstates 1\ninitial 1\nstate 0\n", 3, "state 1 is out of range for `states 1`"),
        ("alphabet a\nstates 1\nstate 0 extra\n", 3, "`state` takes one argument"),
        ("alphabet a\nstates 1\nallow a\n", 3, "`allow` outside a state"),
    ],
)
def test_guide_failures_name_source_and_line(text, line, detail):
    with pytest.raises(ParseFailureError) as info:
        guide_from_spec(text, "t.guide")
    assert str(info.value) == f"t.guide:{line}: {detail}"


def test_duplicate_guide_transition_names_source_and_line():
    with pytest.raises(NondeterministicSpecError, match=r"^t\.guide:9: a second transition for 0 'a'$"):
        guide_from_spec(GUIDE_HEAD + "trans 0 a 1\ntrans 0 a 0\n", "t.guide")


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("pdfa", "alphabet a\nstates 1\nstate 99999999999\ndist a 1\n"),
        ("pdfa", "alphabet a\nstates 99999999999\nstate 0\ndist $ 1\n"),
        ("guide", "alphabet a\nstates 1\nstate 99999999999\nallow a\n"),
        ("guide", "alphabet a\nstates 99999999999\nstate 0\nallow a\n"),
    ],
)
def test_huge_state_indices_fail_at_once(fmt, text):
    parse = parse_pdfa if fmt == "pdfa" else guide_from_spec
    start = time.perf_counter()
    with pytest.raises(ParseFailureError, match=r"^t:\d+: state \d+ (is out of range|has no `state` line)"):
        parse(text, "t")
    assert time.perf_counter() - start < 0.5  # nothing is sized by the declared count


@pytest.mark.parametrize(
    "command, pdfa_text, guide_text",
    [
        ("quotient", "alphabet a\nstates x\n" + PDFA_STATE, None),
        ("quotient", PDFA_HEAD + "state -1\n", None),
        ("quotient", PDFA_HEAD + "state 0\ntrans a x\n", None),
        ("sample", PDFA_HEAD + PDFA_STATE, "alphabet a a\nstates 1\nstate 0\n"),
        ("sample", PDFA_HEAD + PDFA_STATE, "alphabet a\nstates 1\nstate 0\ntrans 0 a 1\n"),
    ],
)
def test_cli_reports_malformed_files_as_json(tmp_path, capsys, command, pdfa_text, guide_text):
    target = tmp_path / "t.pdfa"
    target.write_text(pdfa_text)
    argv = [command, "--target", str(target)]
    bad = target
    if guide_text is not None:
        bad = tmp_path / "g.guide"
        bad.write_text(guide_text)
        argv += ["--guide", str(bad), "-n", "3"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseFailureError"
    assert re.match(rf"{re.escape(str(bad))}:\d+: ", err["detail"])
