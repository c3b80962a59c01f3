"""Every random walk draws through `Distribution.draw` or its CDF rows.

The earlier implementations (a float array and `Generator.choice` per step,
or a cumulative table with its last column forced to 1) are kept here as
oracles: seeded samples, PAC walks and counterexample sequences must be
`==` to theirs.
"""

from fractions import Fraction

import numpy as np
import pytest

from pdfalearn.automata import LanguageModel, Pdfa, PdfaLanguageModel, compose, materialize_compose
from pdfalearn.equivcheck import Counterexample
from pdfalearn.errors import ParseFailureError
from pdfalearn.learner import learn
from pdfalearn.pipeline import (
    DOT_NAMES,
    SampledString,
    _bin_counts,
    _values_and_lengths,
    compare_distributions,
    digit_guide,
    digit_indices,
    guided_sample,
    parse_float_value,
)
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Alphabet, Distribution, QuantizationPartitioner, TopR
from pdfalearn.teacher import PacParams, PacTeacher

ABC = Alphabet(("a", "b", "c"))
DIGITS = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
KAPPA = QuantizationPartitioner(10)


# --- the earlier implementations ---

def choice_draw(dist: Distribution, rng) -> int:
    probs = np.asarray([float(p) for p in dist.probs])
    return int(rng.choice(len(probs), p=probs / probs.sum()))


def oracle_generic_sample(model: LanguageModel, n: int, max_len: int, seed: int) -> list[SampledString]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        u = ()
        truncated = True
        while len(u) < max_len:
            dist = model.next(u)
            s = choice_draw(dist, rng)
            if s == dist.alphabet.terminal_index:
                truncated = False
                break
            u = u + (s,)
        out.append(SampledString(u, truncated))
    return out


def oracle_sample_pdfa(pdfa: Pdfa, n: int, max_len: int, seed: int) -> list[SampledString]:
    rng = np.random.default_rng(seed)
    m = pdfa.alphabet.size
    cum = np.empty((pdfa.n_states, m + 1))
    for q, dist in enumerate(pdfa.dists):
        row = np.asarray([float(p) for p in dist.probs])
        cum[q] = np.cumsum(row / row.sum())
    cum[:, -1] = 1.0
    succ = np.asarray([[t if t is not None else 0 for t in row] for row in pdfa.trans], dtype=np.int64)
    states = np.full(n, pdfa.initial, dtype=np.int64)
    active = np.arange(n)
    symbols = [[] for _ in range(n)]
    truncated = np.ones(n, dtype=bool)
    for _ in range(max_len):
        if active.size == 0:
            break
        draws = rng.random(active.size)
        picked = (draws[:, None] < cum[states[active]]).argmax(axis=1)
        finished = picked == m
        for idx, s in zip(active[~finished], picked[~finished]):
            symbols[idx].append(int(s))
        truncated[active[finished]] = False
        keep = ~finished
        states[active[keep]] = succ[states[active[keep]], picked[keep]]
        active = active[keep]
    return [SampledString(tuple(syms), bool(trunc)) for syms, trunc in zip(symbols, truncated)]


class ChoicePacTeacher(PacTeacher):
    """PacTeacher with its earlier walk: one `Generator.choice` per step."""

    def _walk(self, hypothesis: Pdfa) -> tuple:
        q = hypothesis.initial
        u = ()
        term = hypothesis.alphabet.terminal_index
        while len(u) < self.params.max_len:
            s = choice_draw(hypothesis.dists[q], self._rng)
            if s == term:
                return u
            u = u + (s,)
            q = hypothesis.trans[q][s]
        return u


def oracle_parse_value(symbols, alphabet: Alphabet) -> float:
    digits = digit_indices(alphabet)
    value = 0.0
    scale = 0.1
    for pos, s in enumerate(symbols):
        if digits[s] is None:
            if pos == 0 and alphabet.symbols[s] in DOT_NAMES:
                continue
            raise ParseFailureError(
                f"symbol {alphabet.symbols[s]!r} is not a digit in {alphabet.format(symbols)!r}"
            )
        value += digits[s] * scale
        scale /= 10
    return value


# --- corpus ---

def d(*probs):
    return Distribution(ABC, probs)


def mixed_pdfa() -> Pdfa:
    """Fraction, float and int entries, zeros, and a terminal-only state."""
    return Pdfa(
        ABC,
        (
            d(Fraction(1, 3), Fraction(1, 6), 0, Fraction(1, 2)),
            d(0.1, 0.2, 0.3, 0.4),
            d(0, 1, 0, 0),
            d(0, 0, 0, 1),
            d(Fraction(1, 7), 0.25, 0, 1 - Fraction(1, 7) - 0.25),
        ),
        ((1, 2, None), (4, 0, 3), (None, 4, None), (None, None, None), (0, 1, None)),
    )


def digit_composite(seed: int) -> Pdfa:
    base = random_pdfa(GenSpec(n=20, m=11, theta=0.0, seed=seed), alphabet=DIGITS)
    return materialize_compose(base, digit_guide(), TopR(6))


CORPUS = {
    "mixed": mixed_pdfa,
    "terminal-only": lambda: Pdfa(ABC, (d(0, 0, 0, 1),), ((None, None, None),)),
    "random-sparse": lambda: random_pdfa(GenSpec(n=30, m=4, theta=0.6, seed=3)),
    "random-dense": lambda: random_pdfa(GenSpec(n=50, m=10, theta=0.0, seed=8)),
    "digits": lambda: digit_composite(4),
}


class Opaque(LanguageModel):
    """Hides a PDFA behind the generic model interface."""

    def __init__(self, pdfa: Pdfa):
        self.alphabet = pdfa.alphabet
        self._lm = PdfaLanguageModel(pdfa)

    def next(self, u):
        return self._lm.next(u)


# --- draws ---

def test_draw_matches_generator_choice_index_for_index():
    gen = np.random.default_rng(17)
    alphabet = Alphabet(tuple(f"s{i}" for i in range(12)))
    dists = []
    for _ in range(200):
        k = int(gen.integers(1, alphabet.size + 1))
        w = gen.random(alphabet.size + 1) * (gen.random(alphabet.size + 1) < 0.6)
        w[int(gen.integers(0, k))] += 0.01  # at least one positive entry
        dists.append(Distribution(alphabet, (w / w.sum()).tolist()))
    dists.append(Distribution(alphabet, [Fraction(1, 13)] * 13))
    dists.append(Distribution(alphabet, [0] * 12 + [1]))
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    picks = [dists[i % len(dists)] for i in range(10_000)]
    assert [dist.draw(a) for dist in picks] == [choice_draw(dist, b) for dist in picks]
    assert a.random() == b.random()  # both consumed the same stream


class Fixed:
    """A generator stand-in whose `random()` returns the given values."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_a_draw_on_a_cdf_step_takes_the_next_positive_symbol():
    # `choice` searches its CDF with side="right": u equal to a step picks
    # the symbol after it, and a zero-probability symbol is never picked
    dist, rng = d(0.5, 0, 0.5, 0), Fixed(0.0, 0.25, 0.5, 0.75)
    assert [dist.draw(rng) for _ in range(4)] == [0, 0, 2, 2]


def test_cdf_is_computed_once_and_ends_at_one():
    dist = d(Fraction(1, 3), 0, Fraction(1, 6), Fraction(1, 2))
    cdf = dist.cdf()
    assert dist.cdf() is cdf
    assert cdf[-1] == 1.0 and cdf[0] == cdf[1]


# --- samples ---

@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("max_len", [1, 4, 25])
def test_batched_sampler_matches_the_earlier_one(name, max_len):
    pdfa = CORPUS[name]()
    for seed in (0, 1, 7):
        got = guided_sample(pdfa.language_model(), 500, max_len=max_len, seed=seed)
        assert got == oracle_sample_pdfa(pdfa, 500, max_len, seed)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("max_len", [1, 4, 25])
def test_generic_sampler_matches_the_earlier_one(name, max_len):
    model = Opaque(CORPUS[name]())
    for seed in (0, 3):
        assert guided_sample(model, 200, max_len=max_len, seed=seed) == oracle_generic_sample(
            model, 200, max_len, seed
        )


def test_on_demand_composition_matches_the_earlier_sampler():
    base = random_pdfa(GenSpec(n=20, m=11, theta=0.0, seed=4), alphabet=DIGITS)
    model = compose(PdfaLanguageModel(base), digit_guide(), TopR(6))
    for seed in (0, 1, 2):
        assert guided_sample(model, 300, max_len=25, seed=seed) == oracle_generic_sample(model, 300, 25, seed)


def test_batched_sampler_over_many_digit_models():
    for seed in range(10):
        pdfa = digit_composite(seed)
        got = guided_sample(pdfa.language_model(), 2000, max_len=25, seed=seed)
        assert got == oracle_sample_pdfa(pdfa, 2000, 25, seed)


# --- PAC walks ---

def recorded_run(teacher_cls, model, seed):
    teacher = teacher_cls(model, KAPPA, PacParams(epsilon=0.05, delta=0.05, max_len=30), seed=seed)
    ces: list[Counterexample] = []
    eq = teacher.eq

    def recording_eq(hypothesis, partitioner=None):
        ce = eq(hypothesis, partitioner)
        ces.append(ce)
        return ce

    teacher.eq = recording_eq
    learned = learn(teacher, KAPPA)
    return learned, ces, (teacher.mq_count, teacher.eq_count, teacher.model_query_count)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pac_counterexamples_over_a_composed_model_match_the_earlier_walk(seed):
    base = random_pdfa(GenSpec(n=12, m=11, theta=0.3, seed=seed), alphabet=DIGITS)
    model = compose(PdfaLanguageModel(base), digit_guide(), TopR(6))
    learned, ces, counts = recorded_run(PacTeacher, model, seed)
    learned_ref, ces_ref, counts_ref = recorded_run(ChoicePacTeacher, model, seed)
    assert ces == ces_ref and counts == counts_ref
    assert learned == learned_ref
    assert len(ces) > 1 and ces[-1] is None


def test_pac_walks_match_the_earlier_walk():
    pdfa = mixed_pdfa()
    params = PacParams(max_len=6)
    new = PacTeacher(pdfa.language_model(), KAPPA, params, seed=9)
    old = ChoicePacTeacher(pdfa.language_model(), KAPPA, params, seed=9)
    assert [new._walk(pdfa) for _ in range(2000)] == [old._walk(pdfa) for _ in range(2000)]


# --- values ---

def test_values_match_the_scalar_parser_bit_for_bit():
    for seed in range(5):
        samples = guided_sample(digit_composite(seed).language_model(), 3000, max_len=25, seed=seed)
        values, lengths, truncated = _values_and_lengths(samples, DIGITS)
        completed = [s for s in samples if not s.truncated]
        assert values == [oracle_parse_value(s.symbols, DIGITS) for s in completed]
        assert all(type(v) is float for v in values)
        assert lengths == [len(s) for s in completed]
        assert truncated == len(samples) - len(completed)


def oracle_bin_counts(values, bins):
    counts = [0] * bins
    for v in values:
        counts[min(int(v * bins), bins - 1)] += 1
    return counts


@pytest.mark.parametrize("bins", [10, 7])
def test_report_bins_match_the_scalar_binning(bins):
    target = digit_composite(1)
    samples = guided_sample(target.language_model(), 3000, max_len=25, seed=1)
    other = guided_sample(target.language_model(), 2000, max_len=25, seed=2)
    two = compare_distributions(samples, DIGITS, other=other, bins=bins)
    assert two.observed == oracle_bin_counts(two.values, bins)
    scale = len(two.values) / len(_values_and_lengths(other, DIGITS)[0])
    assert two.expected == [c * scale for c in oracle_bin_counts(_values_and_lengths(other, DIGITS)[0], bins)]
    if bins == 10:
        exact = compare_distributions(samples, DIGITS, model=target, bins=bins, max_len=25)
        assert exact.observed == oracle_bin_counts(exact.values, bins)
        assert all(type(c) is int for c in exact.observed)
    edges = [0.0, 0.1, 0.5, 1 - 1e-17, 1.0]  # a value that rounds up to 1.0 stays in the top bin
    assert _bin_counts(edges, bins).tolist() == oracle_bin_counts(edges, bins)


@pytest.mark.parametrize(
    "names",
    [
        [],
        ["dot"],
        ["dot", "9"],
        ["0", "0", "1"],
        ["dot"] + ["7"] * 40,
        ["3"] * 18,
        ["dot"] + ["0"] * 9 + list("123456789"),  # small values keep the last bits of each scale
    ],
)
def test_parse_float_value_matches_the_scalar_parser(names):
    u = DIGITS.string(names)
    assert parse_float_value(u, DIGITS) == oracle_parse_value(u, DIGITS)


def test_the_first_non_digit_in_sample_order_is_reported():
    samples = [
        SampledString(DIGITS.string(s), t)
        for s, t in [
            (["dot", "1"], False),
            ([], False),
            (["2", "dot", "dot"], True),  # truncated walks are not parsed
            (["dot", "4", "dot"], False),
            (["dot", "dot"], False),
        ]
    ]
    with pytest.raises(ParseFailureError) as new:
        _values_and_lengths(samples, DIGITS)
    with pytest.raises(ParseFailureError) as old:
        [oracle_parse_value(s.symbols, DIGITS) for s in samples if not s.truncated]
    assert str(new.value) == str(old.value) == "symbol 'dot' is not a digit in 'dot4dot'"
