"""Distributions, normalization, sampling strategies, and partitioners."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfalearn.errors import AllZeroError
from pdfalearn.simplex import (
    Alphabet,
    Distribution,
    ExactPartitioner,
    QuantizationPartitioner,
    TopKPartitioner,
    TopP,
    TopR,
    ZERO_CLASS,
    apply_sampling,
    normalize,
)

AB = Alphabet(("a", "b"))


def d(m, alphabet=AB):
    return Distribution.from_map(alphabet, m)


# --- alphabet and distribution invariants ---

def test_alphabet_rejects_duplicates_and_terminal_clash():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "$"))
    with pytest.raises(ValueError):
        Alphabet(())


def test_distribution_validates_sum_and_sign():
    with pytest.raises(ValueError):
        Distribution(AB, (0.5, 0.4, 0.2))
    with pytest.raises(ValueError):
        Distribution(AB, (1.2, -0.2, 0.0))


def test_distribution_rejects_nan():
    nan = float("nan")
    with pytest.raises(ValueError):
        Distribution(AB, (nan, 1.0, 0.0))
    with pytest.raises(ValueError):
        Distribution(AB, (nan, nan, nan))


def test_support_excludes_terminal():
    assert d({"a": 0.6, "b": 0.0, "$": 0.4}).support() == {0}
    assert d({"$": 1}).support() == frozenset()
    assert d({"a": 0.3, "b": 0.7, "$": 0}).support() == {0, 1}


# --- normalize ---

def test_normalize_masked_weights():
    out = normalize(AB, {"a": 0.7, "$": 0.1, "b": 0})
    assert out.prob(0) == pytest.approx(7 / 8, abs=1e-12)
    assert out.terminal_prob == pytest.approx(1 / 8, abs=1e-12)
    assert out.prob(1) == 0


def test_normalize_rational_weights_stay_exact():
    out = normalize(AB, {"a": Fraction(7, 10), "$": Fraction(1, 10)})
    assert out.prob(0) == Fraction(7, 8)
    assert out.terminal_prob == Fraction(1, 8)


def test_normalize_identity_and_all_zero():
    assert normalize(AB, {"a": 1}).prob(0) == 1.0
    with pytest.raises(AllZeroError):
        normalize(AB, {"a": 0, "b": 0, "$": 0})


# --- sampling strategies ---

def test_top2_drops_smallest_entry_and_renormalizes():
    out = apply_sampling(TopR(2), d({"a": 0.4, "b": 0.4, "$": 0.2}))
    assert out.prob(0) == 0.5
    assert out.prob(1) == 0.5
    assert out.terminal_prob == 0.0


def test_top2_keeps_terminal_when_it_ranks():
    masked = normalize(AB, {"a": Fraction(3, 10), "$": Fraction(5, 10)})
    out = apply_sampling(TopR(2), masked)
    assert out.terminal_prob == Fraction(5, 8)
    assert out.prob(0) == Fraction(3, 8)


def test_top1_identity_on_point_mass():
    out = apply_sampling(TopR(1), d({"a": 1}))
    assert out.prob(0) == 1.0


def test_top_p_includes_boundary_item():
    out = apply_sampling(TopP(0.9), d({"a": 0.5, "b": 0.4, "$": 0.1}))
    assert out.support() == {0, 1}
    assert out.terminal_prob == 0.0
    # cumulative reaches exactly p with the second item; third is dropped
    assert out.prob(0) == 0.5 / 0.9


def test_top_p_one_keeps_everything():
    src = d({"a": 0.5, "b": 0.4, "$": 0.1})
    assert apply_sampling(TopP(1.0), src) == src


def test_identity_strategy_is_none():
    src = d({"a": 0.5, "b": 0.4, "$": 0.1})
    assert apply_sampling(None, src) is src


def random_dists(min_m=1, max_m=5):
    def build(draw):
        m = draw(st.integers(min_m, max_m))
        alphabet = Alphabet(tuple(f"s{i}" for i in range(m)))
        weights = draw(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=m + 1, max_size=m + 1).filter(
                lambda w: sum(w) > 1e-6
            )
        )
        return normalize(alphabet, weights)

    return st.composite(build)()


@given(random_dists(), st.integers(1, 6))
def test_top_r_sums_to_one_and_shrinks_support(dist, r):
    out = apply_sampling(TopR(r), dist)
    assert abs(sum(out.probs) - 1) <= 1e-9
    assert out.support() <= dist.support()


@given(random_dists(), st.floats(0.05, 1.0))
def test_top_p_sums_to_one_and_shrinks_support(dist, p):
    out = apply_sampling(TopP(p), dist)
    assert abs(sum(out.probs) - 1) <= 1e-9
    assert out.support() <= dist.support()


# --- partitioners ---

def test_quantization_bins_merge_nearby_vectors():
    e = QuantizationPartitioner(10)
    assert e.label(d({"a": 0.31, "b": 0.69, "$": 0})) == e.label(d({"a": 0.39, "b": 0.61, "$": 0}))


def test_quantization_zero_bin_forces_support_split():
    e = QuantizationPartitioner(10)
    assert e.label(d({"a": 0.05, "b": 0.95})) != e.label(d({"a": 0, "b": 1}))


def test_exact_labels_agree_on_equal_vectors():
    e = ExactPartitioner()
    assert e.label(d({"a": 0.1, "b": 0, "$": 0.9})) == e.label(d({"a": 0.1, "b": 0, "$": 0.9}))
    assert e.label(d({"a": 0.1, "b": 0, "$": 0.9})) != e.label(d({"a": 0.2, "b": 0.7, "$": 0.1}))


def test_labels_never_equal_zero_class():
    for e in (ExactPartitioner(), QuantizationPartitioner(5), TopKPartitioner(2)):
        assert e.label(d({"a": 1})) != ZERO_CLASS


@given(random_dists(), random_dists(), st.integers(1, 20))
def test_quantization_label_equality_implies_support_equality(d1, d2, kappa):
    if d1.alphabet != d2.alphabet:
        return
    e = QuantizationPartitioner(kappa)
    if e.label(d1) == e.label(d2):
        assert d1.support() == d2.support()


@given(random_dists(), random_dists(), st.integers(1, 4))
def test_topk_label_equality_implies_support_equality(d1, d2, r):
    if d1.alphabet != d2.alphabet:
        return
    e = TopKPartitioner(r)
    if e.label(d1) == e.label(d2):
        assert d1.support() == d2.support()


@settings(max_examples=200)
@given(random_dists(), random_dists(), st.integers(1, 12), st.integers(2, 5))
def test_quantization_refines_monotonically(d1, d2, kappa, c):
    """Equal labels at kappa' = c * kappa imply equal labels at kappa."""
    if d1.alphabet != d2.alphabet:
        return
    coarse = QuantizationPartitioner(kappa)
    fine = QuantizationPartitioner(c * kappa)
    if fine.label(d1) == fine.label(d2):
        assert coarse.label(d1) == coarse.label(d2)


# --- the label memo on each distribution ---

class CountingQuantization(QuantizationPartitioner):
    def __init__(self, kappa):
        super().__init__(kappa)
        self.calls = 0

    def label(self, dist):
        self.calls += 1
        return super().label(dist)


# equal partitioners that are distinct objects, and ones whose labels differ
MEMO_PARTITIONERS = (
    ExactPartitioner(),
    QuantizationPartitioner(3),
    QuantizationPartitioner(10),
    QuantizationPartitioner(10),
    TopKPartitioner(1),
    TopKPartitioner(2),
)


@settings(max_examples=200)
@given(random_dists(), st.lists(st.integers(0, len(MEMO_PARTITIONERS) - 1), min_size=1, max_size=12))
def test_memoised_label_equals_the_partitioners_label(dist, order):
    """Partitioners alternate on one distribution: a stale label would show."""
    for i in order:
        p = MEMO_PARTITIONERS[i]
        assert dist.label(p) == p.label(dist)


def test_memoised_label_is_computed_once_per_partitioner_in_turn():
    dist = d({"a": 0.31, "b": 0.69, "$": 0})
    p, q = CountingQuantization(10), CountingQuantization(3)
    assert [dist.label(p) for _ in range(3)] == [(3, 6, -1)] * 3
    assert p.calls == 1
    assert dist.label(q) == (0, 2, -1) and q.calls == 1
    assert dist.label(p) == (3, 6, -1) and p.calls == 2
