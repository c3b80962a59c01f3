"""Sampling, fidelity statistics, and guide specifications."""

import numpy as np
import pytest

import pdfalearn.automata
from pdfalearn.automata import (
    GuideAutomaton,
    Pdfa,
    PdfaLanguageModel,
    compose,
    materialize_compose,
    next_dist,
    termination_mass,
    walk,
)
from pdfalearn.errors import (
    AllZeroError,
    NondeterministicSpecError,
    ParseFailureError,
    UndefinedStartError,
)
from pdfalearn.fileio import guide_from_spec, save_guide_spec
from pdfalearn.pipeline import (
    SampledString,
    analytic_length_pmf,
    analytic_value_bins,
    chain_guide,
    compare_distributions,
    digit_guide,
    guided_sample,
    parse_float_value,
)
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Alphabet, Distribution, TopR


# --- guided sampling ---

def test_first_symbol_frequency_matches_model(loop_pdfa):
    samples = guided_sample(loop_pdfa.language_model(), n=10_000, max_len=200, seed=1)
    first_a = sum(1 for s in samples if s.symbols[:1] == (0,))
    # binomial 3-sigma band around 0.3
    assert abs(first_a / 10_000 - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 10_000)
    assert all(not s.truncated for s in samples)  # termination mass is 1


def test_truncated_branch_never_completes(loop_pdfa_top2):
    samples = guided_sample(loop_pdfa_top2.language_model(), n=2_000, max_len=60, seed=2)
    completed = [s for s in samples if not s.truncated]
    assert completed and all(s.symbols[0] == 0 for s in completed)
    assert any(s.truncated for s in samples)


def test_empty_sample_list():
    from pdfalearn.automata import Pdfa
    from pdfalearn.simplex import Distribution

    one = Alphabet(("a",))
    pdfa = Pdfa(one, (Distribution.from_map(one, {"$": 1}),), ((None,),))
    assert guided_sample(pdfa.language_model(), 0) == []


def test_sampling_determinism(loop_pdfa):
    a = guided_sample(loop_pdfa.language_model(), 50, max_len=30, seed=9)
    b = guided_sample(loop_pdfa.language_model(), 50, max_len=30, seed=9)
    assert a == b


def test_undefined_start_raises(sync_model_pdfa, ab_alphabet):
    from pdfalearn.automata import GuideAutomaton

    dead = GuideAutomaton(ab_alphabet, masks=((0, 0, 0),), delta=((0, 0),))
    comp = compose(sync_model_pdfa.language_model(), dead)
    with pytest.raises(UndefinedStartError):
        guided_sample(comp, 10)


def test_generic_model_sampling_agrees_with_materialized(sync_model_pdfa, sync_guide):
    comp = compose(sync_model_pdfa.language_model(), sync_guide, TopR(2))
    samples = guided_sample(comp, 200, max_len=40, seed=3)
    assert all(s.symbols[:1] in ((0,), ()) for s in samples)  # b masked at the start


def test_sampling_into_a_dead_state_is_a_package_error(ab_alphabet):
    loop = Pdfa(ab_alphabet, (Distribution(ab_alphabet, (0.5, 0.25, 0.25)),), ((0, 0),))
    # "a" is the only move allowed, and it leads to a state that allows nothing
    guide = GuideAutomaton(ab_alphabet, masks=((1, 0, 0), (0, 0, 0)), delta=((1, 1), (1, 1)))
    with pytest.raises(AllZeroError):
        guided_sample(compose(loop.language_model(), guide), 3)


def test_composition_normalises_once_per_product_state(monkeypatch):
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    base = random_pdfa(GenSpec(n=20, m=11, theta=0.0, seed=1), alphabet=digits)
    product = materialize_compose(base, digit_guide(), TopR(6))
    calls = []
    real = pdfalearn.automata.apply_sampling

    def counting(strategy, dist):
        calls.append(dist)
        return real(strategy, dist)

    monkeypatch.setattr(pdfalearn.automata, "apply_sampling", counting)
    comp = compose(PdfaLanguageModel(base), digit_guide(), TopR(6))
    samples = guided_sample(comp, 1000, max_len=25, seed=1)
    assert 0 < len(calls) <= product.n_states
    for s in samples:
        for j in range(len(s.symbols) + 1):
            assert comp.next(s.symbols[:j]) == next_dist(product, s.symbols[:j])


# --- value parsing ---

def test_parse_float_values():
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    assert parse_float_value(digits.string(["dot", "5", "3"]), digits) == pytest.approx(0.53)
    assert parse_float_value((), digits) == 0.0
    with pytest.raises(ParseFailureError):
        parse_float_value(digits.string(["5", "dot"]), digits)


# --- comparison statistics ---

def _fake_samples(values, alphabet):
    out = []
    for v in values:
        digits = f"{v:.3f}".split(".")[1].rstrip("0") or "0"
        out.append(SampledString(alphabet.string(["dot"] + list(digits)), False))
    return out


def test_identical_samples_score_perfectly():
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    samples = _fake_samples([0.1, 0.25, 0.4, 0.55, 0.7, 0.85], digits)
    report = compare_distributions(samples, digits, other=list(samples), bins=10)
    assert report.chi2[0] == 0
    assert report.chi2[2] == 1.0


def test_divergent_samples_rejected():
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    uniform = _fake_samples([i / 100 for i in range(100)] * 5, digits)
    point = _fake_samples([0.5] * 500, digits)
    report = compare_distributions(uniform, digits, other=point, bins=10)
    assert report.chi2[2] < 1e-6


def test_chi2_calibration_against_analytic_law():
    """Samples from a model tested against its own exact law: the p-value
    should clear 0.01 in at least 95 of 100 seeded runs."""
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    base = random_pdfa(GenSpec(n=12, m=11, theta=0.0, seed=42), alphabet=digits)
    target = materialize_compose(base, digit_guide(), TopR(6))
    assert termination_mass(target)[0] > 0.5
    passes = 0
    for seed in range(100):
        samples = guided_sample(target.language_model(), 10_000, max_len=25, seed=seed)
        report = compare_distributions(samples, digits, model=target, bins=10, max_len=25)
        if report.chi2[2] > 0.01:
            passes += 1
    assert passes >= 95


def test_analytic_laws_match_empirical_frequencies():
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    base = random_pdfa(GenSpec(n=8, m=11, theta=0.0, seed=7), alphabet=digits)
    target = materialize_compose(base, digit_guide(), TopR(6))
    bins = analytic_value_bins(target, 10, max_len=25)
    pmf = analytic_length_pmf(target, max_len=25)
    assert sum(bins) == pytest.approx(1.0, abs=1e-9)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-9)
    samples = guided_sample(target.language_model(), 40_000, max_len=25, seed=0)
    values = [parse_float_value(s.symbols, digits) for s in samples if not s.truncated]
    lengths = [len(s) for s in samples if not s.truncated]
    emp_bin2 = sum(1 for v in values if 0.2 <= v < 0.3) / len(values)
    assert emp_bin2 == pytest.approx(bins[2], abs=0.02)
    emp_len2 = sum(1 for l in lengths if l == 2) / len(lengths)
    assert emp_len2 == pytest.approx(pmf[2], abs=0.02)


# --- guides ---

def test_digit_guide_shape():
    g = digit_guide()
    a = g.alphabet
    dot = a.index("dot")
    five = a.index("5")
    assert g.masks[0][dot] == 1 and g.masks[0][a.terminal_index] == 0
    assert g.masks[1][five] == 1 and g.masks[1][a.terminal_index] == 0
    assert g.masks[2][five] == 1 and g.masks[2][a.terminal_index] == 1
    # dot then digits walks to the self-looping acceptance state
    assert g.delta[0][dot] == 1
    assert g.delta[1][five] == 2
    assert g.delta[2][five] == 2


def test_guide_spec_round_trip():
    g = digit_guide()
    text = save_guide_spec(g)
    h = guide_from_spec(text)
    assert h.masks == g.masks
    assert h.delta == g.delta
    assert h.alphabet == g.alphabet


def test_guide_from_spec_rejects_duplicates():
    text = "\n".join(
        ["alphabet a b", "states 1", "initial 0", "state 0", "allow a",
         "trans 0 a 0", "trans 0 a 0"]
    )
    with pytest.raises(NondeterministicSpecError):
        guide_from_spec(text)


def test_empty_language_guide_never_terminates(sync_model_pdfa, ab_alphabet):
    text = "\n".join(
        ["alphabet a b", "states 1", "initial 0", "state 0", "allow a b",
         "trans 0 a 0", "trans 0 b 0"]
    )
    guide = guide_from_spec(text)
    product = materialize_compose(sync_model_pdfa, guide)
    assert termination_mass(product)[0] == pytest.approx(0.0, abs=1e-9)


def test_chain_guide_accepts_its_phrase():
    words = Alphabet(("The", "man", "woman", "trained", "art", "medicine"))
    guide = chain_guide(
        words,
        [["The"], ["man", "woman"], ["trained"], ["art", "medicine"]],
    )
    state = guide.initial
    for name in ("The", "man", "trained", "medicine"):
        s = words.index(name)
        assert guide.masks[state][s] == 1
        state = guide.delta[state][s]
    assert guide.masks[state][words.terminal_index] == 1
    # termination is forbidden before the end
    assert guide.masks[guide.initial][words.terminal_index] == 0
