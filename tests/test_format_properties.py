"""Round trips of the text formats on generated automata, guides and symbol maps.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples. The explicit examples pin the features the
generators must cover: exact rationals, floats, UNDEF transitions and
unreachable states.
"""

import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfalearn.automata import GuideAutomaton, Pdfa
from pdfalearn.fileio import format_pdfa, guide_from_spec, parse_pdfa, save_guide_spec
from pdfalearn.lmbridge import SymbolMap, load_symbol_map, save_symbol_map
from pdfalearn.simplex import Alphabet, Distribution

FIXED = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# a name is one word; a symbol map line that starts with `#` is a comment
NAMES = st.text(st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace()),
                min_size=1, max_size=4).filter(lambda name: name != "$" and not name.startswith("#"))


@st.composite
def alphabets(draw):
    names = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    return Alphabet(tuple(names[1:]), draw(st.sampled_from(("$", names[0]))))


@st.composite
def distributions(draw, alphabet):
    slots = alphabet.size + 1
    kind = draw(st.sampled_from(("fraction", "float", "mixed")))
    if kind == "float":
        weights = draw(st.lists(st.floats(0, 1), min_size=slots, max_size=slots).filter(any))
        return Distribution(alphabet, [w / sum(weights) for w in weights])
    weights = draw(st.lists(st.integers(0, 9), min_size=slots, max_size=slots).filter(any))
    total = sum(weights)
    if kind == "fraction":
        return Distribution(alphabet, [Fraction(w, total) for w in weights])
    # ints for zeros, floats and rationals elsewhere
    return Distribution(alphabet, [0 if w == 0 else Fraction(w, total) if i % 2 else w / total
                                   for i, w in enumerate(weights)])


@st.composite
def pdfas(draw):
    alphabet = draw(alphabets())
    n = draw(st.integers(1, 5))
    dists = [draw(distributions(alphabet)) for _ in range(n)]
    targets = st.integers(0, n - 1)
    trans = tuple(
        tuple(draw(targets if s in dist.support() else st.none() | targets) for s in range(alphabet.size))
        for dist in dists
    )
    return Pdfa(alphabet, tuple(dists), trans, draw(targets))


@st.composite
def guides(draw):
    alphabet = draw(alphabets())
    n = draw(st.integers(1, 5))
    m = alphabet.size
    masks = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=m + 1, max_size=m + 1))) for _ in range(n))
    delta = tuple(tuple(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))) for _ in range(n))
    return GuideAutomaton(alphabet, masks, delta, draw(st.integers(0, n - 1)))


SYMBOL_MAPS = st.lists(
    st.tuples(
        NAMES,
        st.text(st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)), max_size=5),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(tuple),
    ),
    min_size=1, max_size=6, unique_by=lambda entry: entry[0],
).map(lambda entries: SymbolMap(tuple(entries)))

AB = Alphabet(("a", "b"))
# state 2 is unreachable; states 0 and 1 mix rationals, floats and an int
MIXED = Pdfa(
    AB,
    (
        Distribution(AB, (Fraction(1, 3), 0.5, Fraction(1, 6))),
        Distribution(AB, (0, 0.25, 0.75)),
        Distribution(AB, (Fraction(1, 2), Fraction(1, 2), 0)),
    ),
    ((1, 0), (None, 1), (2, 0)),
)


@FIXED
@given(pdfas())
@example(MIXED)
def test_pdfa_text_round_trip(pdfa):
    text = format_pdfa(pdfa)
    back = parse_pdfa(text)
    assert back == pdfa
    assert format_pdfa(back) == text  # entries keep their int, float or Fraction type


@FIXED
@given(guides())
@example(GuideAutomaton(AB, ((1, 0, 0), (0, 0, 1), (0, 0, 0)), ((0, 0), (2, 2), (2, 1)), 0))  # 1, 2 unreachable
def test_guide_spec_round_trip(guide):
    assert guide_from_spec(save_guide_spec(guide)) == guide


@FIXED
@given(SYMBOL_MAPS)
@example(SymbolMap((("dot", ".", (13,)), ("ab", "", (2, 3)), ("é", "é x", (0,)))))
def test_symbol_map_file_round_trip(smap):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.tsv")
        save_symbol_map(smap, path)
        assert load_symbol_map(path) == smap
