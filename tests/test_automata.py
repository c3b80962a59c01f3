"""PDFA evaluation, termination mass, congruence partitions, quotients, composition."""

import collections
import random
import re
from fractions import Fraction

import pytest

from pdfalearn.automata import (
    CongruenceMode,
    Pdfa,
    compose,
    congruence_partition,
    is_defined,
    isomorphic,
    label_at,
    materialize_compose,
    next_dist,
    prefix_prob,
    quotient,
    string_prob,
    termination_mass,
    trim,
    walk,
)
from pdfalearn.automata import GuideAutomaton
from pdfalearn.errors import AllZeroError, AlphabetMismatchError, UnknownSymbolError
from pdfalearn.lmbridge import identity_symbol_map, pdfa_token_model, symbol_model
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Alphabet, Distribution, ExactPartitioner, TopR
from pdfalearn.teacher import exact_teacher, filter_teacher

EXACT = ExactPartitioner()


# --- walk / next_dist ---

def test_walk_follows_structural_zero_loops(loop_pdfa, ab_alphabet):
    assert walk(loop_pdfa, ab_alphabet.string("ab")) == 1
    assert walk(loop_pdfa, ()) == 0


def test_walk_hits_undef_on_missing_transition(ab_alphabet):
    hyp = Pdfa(
        ab_alphabet,
        (Distribution.from_map(ab_alphabet, {"a": 0.5, "$": 0.5}),),
        ((0, None),),
    )
    assert walk(hyp, ab_alphabet.string("ba")) is None
    assert next_dist(hyp, ab_alphabet.string("b")) is None


def test_walk_rejects_unknown_symbols(loop_pdfa):
    with pytest.raises(UnknownSymbolError):
        walk(loop_pdfa, (7,))


@pytest.mark.parametrize("u", [(1, 7), (1, 0, -1), (1, 2, 0)])
def test_unknown_symbol_after_a_missing_transition_raises(ab_alphabet, u):
    """The walk dies at the missing `b` transition; the symbol after it is still checked."""
    partial = Pdfa(ab_alphabet, (Distribution.from_map(ab_alphabet, {"a": 0.5, "$": 0.5}),), ((0, None),))
    for ask in (lambda u: walk(partial, u), lambda u: next_dist(partial, u),
                exact_teacher(partial, EXACT).mq, filter_teacher(partial, EXACT).mq):
        with pytest.raises(UnknownSymbolError):
            ask(u)
    assert walk(partial, (1, 0)) is None
    assert exact_teacher(partial, EXACT).mq((1, 0)) is None
    assert filter_teacher(partial, EXACT).mq((1, 0)) is None


@pytest.mark.parametrize("u", [(5,), (-1,), (1, 2), (0, 0, -3), (0, 1, 5)])
def test_support_views_reject_unknown_symbols_like_walk(loop_pdfa, ab_alphabet, u):
    # the support-following views used to report these strings as undefined,
    # (0, 1, 5) even after its known prefix (0, 1) left the support
    everything = GuideAutomaton(ab_alphabet, ((1, 1, 1),), ((0, 0),))
    tokens = symbol_model(pdfa_token_model(loop_pdfa), identity_symbol_map(ab_alphabet), ab_alphabet)
    for lm in (
        loop_pdfa.language_model(),
        compose(loop_pdfa.language_model(), everything),
        tokens,
        compose(tokens, everything),
    ):
        for ask in (lm.next, lambda u: is_defined(lm, u), lambda u: label_at(lm, EXACT, u)):
            with pytest.raises(UnknownSymbolError):
                ask(u)
        # a known symbol outside the support is still undefined, not an error
        assert lm.next((0, 1)) is None
    for teacher in (filter_teacher(loop_pdfa, EXACT), exact_teacher(loop_pdfa, EXACT)):
        with pytest.raises(UnknownSymbolError):
            teacher.mq(u)


def test_next_dist_figure_values(loop_pdfa, ab_alphabet):
    assert next_dist(loop_pdfa, ab_alphabet.string("a")).as_map() == {"a": 0.6, "b": 0.0, "$": 0.4}
    assert next_dist(loop_pdfa, ()).as_map() == {"a": 0.3, "b": 0.7, "$": 0.0}


# --- prefix/string probability and definedness ---

def test_prefix_prob_values(loop_pdfa, ab_alphabet):
    lm = loop_pdfa.language_model()
    assert prefix_prob(lm, ab_alphabet.string("ab")) == 0
    assert prefix_prob(lm, ()) == 1
    assert prefix_prob(lm, ab_alphabet.string("ba")) == pytest.approx(0.28, abs=1e-12)


def test_string_prob_values(loop_pdfa, ab_alphabet):
    lm = loop_pdfa.language_model()
    assert string_prob(lm, ab_alphabet.string("b")) == pytest.approx(0.14, abs=1e-12)
    assert string_prob(lm, ()) == 0
    assert string_prob(lm, ab_alphabet.string("a")) == pytest.approx(0.12, abs=1e-12)


def test_is_defined_follows_supports(loop_pdfa, merged_pair_pdfa, ab_alphabet):
    lm = loop_pdfa.language_model()
    assert not is_defined(lm, ab_alphabet.string("ab"))
    assert is_defined(lm, ())
    mp = merged_pair_pdfa.language_model()
    assert is_defined(mp, ab_alphabet.string("a"))
    assert not is_defined(mp, ab_alphabet.string("ab"))


# --- termination mass ---

def test_termination_mass_full_vs_truncated(loop_pdfa, loop_pdfa_top2):
    assert termination_mass(loop_pdfa)[0] == pytest.approx(1.0, abs=1e-9)
    assert termination_mass(loop_pdfa_top2)[0] == pytest.approx(0.3, abs=1e-9)


def test_termination_mass_trivial_state():
    one = Alphabet(("a",))
    pdfa = Pdfa(one, (Distribution.from_map(one, {"$": 1}),), ((None,),))
    assert termination_mass(pdfa)[0] == pytest.approx(1.0, abs=1e-12)


# --- congruence partitions ---

def test_partition_merges_zero_separated_twins(merged_pair_pdfa):
    part = congruence_partition(merged_pair_pdfa, EXACT, CongruenceMode.SUPPORT)
    assert part.blocks == ((0, 1), (2,))
    assert part.zero_states == ()


def test_partition_total_mode_separates_all_three(merged_pair_pdfa):
    part = congruence_partition(merged_pair_pdfa, EXACT, CongruenceMode.ALL)
    assert part.num_blocks == 3


def test_partition_of_synchronized_product(sync_model_pdfa, sync_guide):
    product = materialize_compose(sync_model_pdfa, sync_guide, TopR(2))
    part = congruence_partition(product, EXACT, CongruenceMode.SUPPORT)
    assert part.num_blocks == 3
    assert part.zero_states == ()
    sizes = sorted(len(b) for b in part.blocks)
    assert sizes == [1, 1, 2]


def test_partition_support_never_coarser_than_total(loop_pdfa, merged_pair_pdfa):
    for pdfa in (loop_pdfa, merged_pair_pdfa):
        new = congruence_partition(pdfa, EXACT, CongruenceMode.SUPPORT).num_blocks
        old = congruence_partition(pdfa, EXACT, CongruenceMode.ALL).num_blocks
        assert new <= old


def test_partition_blocks_are_closed_under_support_successors():
    """Same block implies same successor block on every common support symbol."""
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import QuantizationPartitioner

    for seed in range(20):
        pdfa = random_pdfa(GenSpec(n=12, m=3, theta=0.5, seed=seed))
        part = congruence_partition(pdfa, QuantizationPartitioner(4), CongruenceMode.SUPPORT)
        for block in part.blocks:
            rep = block[0]
            for q in block[1:]:
                assert pdfa.dists[q].support() == pdfa.dists[rep].support()
                for s in pdfa.dists[rep].support():
                    assert (
                        part.block_of[pdfa.trans[q][s]] == part.block_of[pdfa.trans[rep][s]]
                    )


def test_termination_mass_bounds_and_certain_termination():
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import Distribution as D

    for seed in range(10):
        pdfa = random_pdfa(GenSpec(n=15, m=3, theta=0.4, seed=seed))
        masses = termination_mass(pdfa)
        assert all(-1e-12 <= x <= 1 + 1e-12 for x in masses)
    # every state terminates with positive probability -> mass 1 everywhere
    ab = Alphabet(("a", "b"))
    certain = Pdfa(
        ab,
        (
            D.from_map(ab, {"a": 0.5, "b": 0.3, "$": 0.2}),
            D.from_map(ab, {"a": 0.1, "b": 0.8, "$": 0.1}),
        ),
        ((1, 0), (0, 1)),
    )
    assert all(abs(x - 1) <= 1e-9 for x in termination_mass(certain))


# --- quotients ---

def test_quotient_collapses_defined_behavior(merged_pair_pdfa, ab_alphabet):
    # the only positively reachable behavior is the a-loop; one class remains
    q = quotient(merged_pair_pdfa, EXACT)
    assert q.n_states == 1
    assert q.dists[0].as_map() == {"a": 0.1, "b": 0.0, "$": 0.9}
    assert q.trans[0] == (0, None)


def test_quotient_of_already_minimal_is_isomorphic(loop_pdfa):
    q = quotient(loop_pdfa, EXACT)
    assert q.n_states == 3
    lm_a, lm_b = loop_pdfa.language_model(), q.language_model()
    # exhaustive agreement on defined strings up to length 6
    stack = [()]
    while stack:
        u = stack.pop()
        da, db = lm_a.next(u), lm_b.next(u)
        assert (da is None) == (db is None)
        if da is not None:
            assert da.probs == db.probs
            if len(u) < 6:
                stack.extend(u + (s,) for s in da.support())


def test_quotient_preserves_defined_behavior_on_random_instances():
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import QuantizationPartitioner

    part = QuantizationPartitioner(6)
    for seed in range(6):
        pdfa = random_pdfa(GenSpec(12, 3, 0.5, seed=seed))
        q = quotient(pdfa, part)
        lm_a, lm_b = pdfa.language_model(), q.language_model()
        stack = [()]
        while stack:
            u = stack.pop()
            da, db = lm_a.next(u), lm_b.next(u)
            assert (da is None) == (db is None)
            if da is not None:
                assert part.label(da) == part.label(db)
                if len(u) < 6:
                    stack.extend(u + (s,) for s in da.support())


def test_quotient_idempotent(merged_pair_pdfa, loop_pdfa):
    for pdfa in (merged_pair_pdfa, loop_pdfa):
        q1 = quotient(pdfa, EXACT)
        q2 = quotient(q1, EXACT)
        assert isomorphic(q1, q2)


def test_trim_drops_unreachable_states(ab_alphabet):
    d0 = Distribution.from_map(ab_alphabet, {"a": 1})
    pdfa = Pdfa(ab_alphabet, (d0, d0), ((0, None), (1, None)))
    assert trim(pdfa).n_states == 1


# --- composition ---

def test_compose_matches_synchronization_figure(sync_model_pdfa, sync_guide):
    comp = compose(sync_model_pdfa.language_model(), sync_guide, TopR(2))
    at_root = comp.next(())
    assert at_root.prob(0) == Fraction(7, 8)
    assert at_root.terminal_prob == Fraction(1, 8)
    assert at_root.prob(1) == 0
    at_a = comp.next((0,))
    assert at_a.prob(0) == Fraction(7, 9)
    assert at_a.prob(1) == Fraction(2, 9)
    assert at_a.terminal_prob == 0
    # b is masked at the start, so "b" is undefined in the composite
    assert comp.next((1,)) is None


def test_compose_all_ones_mask_is_identity(loop_pdfa, ab_alphabet):
    permissive = GuideAutomaton(ab_alphabet, masks=((1, 1, 1),), delta=((0, 0),))
    comp = compose(loop_pdfa.language_model(), permissive, None)
    for text in ("", "a", "b", "ba", "bb", "aa"):
        u = ab_alphabet.string(text)
        inner = loop_pdfa.language_model().next(u)
        got = comp.next(u)
        if inner is None:
            assert got is None
        else:
            assert got.probs == inner.probs


def test_compose_rejects_alphabet_mismatch(loop_pdfa):
    other = Alphabet(("x",))
    g = GuideAutomaton(other, masks=((1, 1),), delta=((0,),))
    with pytest.raises(AlphabetMismatchError):
        compose(loop_pdfa.language_model(), g)


def test_materialize_matches_on_demand(sync_model_pdfa, sync_guide):
    product = materialize_compose(sync_model_pdfa, sync_guide, TopR(2))
    assert product.n_states == 4
    comp = compose(sync_model_pdfa.language_model(), sync_guide, TopR(2))
    lm = product.language_model()
    stack = [()]
    seen = 0
    while stack:
        u = stack.pop()
        da, db = comp.next(u), lm.next(u)
        assert (da is None) == (db is None)
        if da is not None:
            assert da.probs == db.probs
            seen += 1
            if len(u) < 6:
                stack.extend(u + (s,) for s in da.support())
    assert seen > 4


def test_materialize_dead_start_raises(sync_model_pdfa, ab_alphabet):
    dead = GuideAutomaton(ab_alphabet, masks=((0, 0, 0),), delta=((0, 0),))
    with pytest.raises(AllZeroError):
        materialize_compose(sync_model_pdfa, dead)


def test_sampling_commutes_with_composition(sync_model_pdfa, sync_guide):
    """Applying top-2 pointwise after an identity-composition matches direct top-2."""
    direct = compose(sync_model_pdfa.language_model(), sync_guide, TopR(2))
    unsampled = compose(sync_model_pdfa.language_model(), sync_guide, None)
    stack = [()]
    while stack:
        u = stack.pop()
        dd = direct.next(u)
        if dd is None:
            continue
        from pdfalearn.simplex import apply_sampling

        assert apply_sampling(TopR(2), unsampled.next(u)).probs == dd.probs
        if len(u) < 6:
            stack.extend(u + (s,) for s in dd.support())


# --- hypothesis validation against the per-entry loop it replaced ---


def oracle_validate(alphabet, dists, trans, initial=0):
    """`Pdfa.__post_init__` before its set tests: one check per (state, symbol)."""
    n = len(dists)
    if len(trans) != n:
        raise ValueError("dists and trans disagree on state count")
    if not 0 <= initial < n:
        raise ValueError("initial state out of range")
    m = alphabet.size
    for q, (dist, row) in enumerate(zip(dists, trans)):
        if dist.alphabet != alphabet:
            raise AlphabetMismatchError(f"state {q} distribution has a different alphabet")
        if len(row) != m:
            raise ValueError(f"state {q} transition row has wrong arity")
        for s, target in enumerate(row):
            if target is not None and not 0 <= target < n:
                raise ValueError(f"transition ({q},{s}) target {target} out of range")
            if target is None and s in dist.support():
                raise ValueError(
                    f"state {q} gives positive probability to symbol {s} but has no transition"
                )


def outcome(make, *args):
    try:
        make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def validation_mutants(rng, pdfa, count):
    """Copies of `pdfa`'s parts with one to three faults, or harmless changes."""
    n, m = pdfa.n_states, pdfa.alphabet.size
    # equal to the alphabet but another object, and one of the same size that differs
    same = Alphabet(tuple(pdfa.alphabet.symbols))
    other = Alphabet(tuple(f"x{i}" for i in range(m)))
    for _ in range(count):
        dists, trans = list(pdfa.dists), [list(row) for row in pdfa.trans]
        initial, states = pdfa.initial, n
        for _ in range(rng.randint(1, 3)):
            q = rng.randrange(n)
            s = rng.randrange(len(trans[q]))  # a row keeps at least one entry
            kind = rng.choices(range(7), weights=(3, 3, 2, 1, 1, 1, 0.3))[0]
            if kind == 0:  # out of range, or negative
                trans[q][s] = rng.choice([n, n + 7, -1, -n])
            elif kind == 1:  # None, on a support symbol if there is one
                support = [t for t in sorted(dists[q].support()) if t < len(trans[q])]
                trans[q][rng.choice(support) if support else s] = None
            elif kind == 2:  # None off the support, or another valid target
                trans[q][s] = rng.choice([None, rng.randrange(n)])
            elif kind == 3:
                trans[q] = trans[q][:-1] if len(trans[q]) > 1 and rng.random() < 0.5 else trans[q] + [0]
            elif kind == 4:
                dists[q] = Distribution(rng.choice([same, other]), dists[q].probs)
            elif kind == 5:
                initial = rng.choice([n, -1, rng.randrange(n)])
            else:  # one row too few
                states = n - 1
        yield pdfa.alphabet, tuple(dists), tuple(map(tuple, trans[:states])), initial


def test_validation_reports_what_the_per_entry_loop_reports(loop_pdfa, merged_pair_pdfa):
    rng = random.Random(7)
    seen = collections.Counter()
    bases = [loop_pdfa, merged_pair_pdfa] + [
        random_pdfa(GenSpec(n=12, m=4, theta=theta, seed=seed)) for seed in range(3) for theta in (0.3, 0.9)
    ]
    for pdfa in bases:
        for args in validation_mutants(rng, pdfa, 400):
            expected = outcome(oracle_validate, *args)
            assert outcome(Pdfa, *args) == expected, args
            seen[expected and re.sub(r"[0-9-]+", "#", expected[1])] += 1
    assert seen[None] > 100
    assert len(seen) == 7, seen  # each of the six checks fails somewhere, and some mutants pass


# --- appending states and replacing rows ---


def test_extended_equals_the_constructor_or_raises_its_error(loop_pdfa, merged_pair_pdfa):
    """`extended` on a valid automaton of the first k states, against the
    constructor on the same fields: the rows it is not given stay the base's."""
    rng = random.Random(11)
    seen = collections.Counter()
    bases = [loop_pdfa, merged_pair_pdfa] + [
        random_pdfa(GenSpec(n=12, m=4, theta=theta, seed=seed)) for seed in range(3) for theta in (0.3, 0.9)
    ]
    for pdfa in bases:
        m = pdfa.alphabet.size
        for alphabet, dists, trans, _ in validation_mutants(rng, pdfa, 300):
            k = rng.randint(1, len(dists))
            loops = tuple(tuple(q if s in d.support() else None for s in range(m)) for q, d in enumerate(dists[:k]))
            if outcome(Pdfa, alphabet, dists[:k], loops) is not None:
                continue  # a base state's distribution has another alphabet
            base = Pdfa(alphabet, dists[:k], loops)
            replaced = {q: trans[q] for q in range(min(k, len(trans))) if rng.random() < 0.5}
            rows = trans[k:]
            fields = tuple(replaced.get(q, loops[q]) for q in range(k)) + rows
            expected = outcome(Pdfa, alphabet, dists, fields)
            assert outcome(base.extended, dists[k:], rows, replaced) == expected
            if expected is None:
                grown = base.extended(dists[k:], rows, replaced)
                assert grown == Pdfa(alphabet, dists, fields)
                assert all(grown.trans[q] is base.trans[q] for q in range(k) if q not in replaced)
            seen[expected and re.sub(r"[0-9-]+", "#", expected[1])] += 1
    assert seen[None] > 100
    assert len(seen) == 6, seen  # every row check fails somewhere, as does the state count


def test_extended_names_the_constructors_fault(loop_pdfa, ab_alphabet):
    d = loop_pdfa.dists[2]
    with pytest.raises(ValueError, match=r"^dists and trans disagree on state count$"):
        loop_pdfa.extended([d, d], [(3, 3)], {})  # the second new state has no row
    with pytest.raises(ValueError, match=r"^transition \(1,0\) target 3 out of range$"):
        loop_pdfa.extended([], [], {1: (3, 1)})
    with pytest.raises(ValueError, match=r"^state 3 gives positive probability to symbol 1 but has no transition$"):
        loop_pdfa.extended([d], [(3, None)], {0: (1, 2)})
    with pytest.raises(ValueError, match=r"^replaced state 3 out of range$"):
        loop_pdfa.extended([d], [(3, 3)], {3: (3, 3)})
    grown = loop_pdfa.extended([d], [(3, 3)], {2: (3, 3)})
    assert grown == Pdfa(ab_alphabet, loop_pdfa.dists + (d,), ((1, 2), (1, 1), (3, 3), (3, 3)))
    assert grown.trans[0] is loop_pdfa.trans[0] and grown.trans[1] is loop_pdfa.trans[1]
