"""One canonical state numbering: trim's BFS.

`trim` numbers the reachable states in shortlex order of their shortest
access strings. `quotient`, `isomorphic` and the random instances rely on
that order instead of working it out again. The constructions they replaced
are kept below as oracles, and on a seeded corpus the new code must give
exactly (`==`) their results: the same automata, the same verdicts, the
same counterexample prefixes and errors, and the same model queries.
"""

import collections

import numpy as np
import pytest

from pdfalearn.automata import (
    EMPTY,
    CongruenceMode,
    GuideAutomaton,
    LanguageModel,
    Pdfa,
    congruence_partition,
    is_defined,
    isomorphic,
    label_at,
    materialize_compose,
    quotient,
    reachable_states,
    trim,
)
from pdfalearn.equivcheck import shortest_defined_ce_prefix
from pdfalearn.errors import AllZeroError, NotACounterexampleError
from pdfalearn.randgen import GenSpec, assign_distributions, random_dfa, random_pdfa
from pdfalearn.simplex import (
    Alphabet,
    Distribution,
    ExactPartitioner,
    QuantizationPartitioner,
    TopKPartitioner,
    TopP,
    TopR,
    ZERO_CLASS,
)

PARTITIONERS = (
    ExactPartitioner(),
    QuantizationPartitioner(2),
    QuantizationPartitioner(10),
    TopKPartitioner(1),
    TopKPartitioner(3),
)
SHAPES = ((6, 2, 0.0), (12, 3, 0.5), (25, 4, 0.9), (40, 6, 0.7))
SEEDS = range(12)


# --- oracles: the constructions that re-derived the BFS order ---


def oracle_quotient(pdfa, partitioner):
    sub = trim(pdfa, positive_only=True)
    part = congruence_partition(sub, partitioner, CongruenceMode.SUPPORT)
    access = {sub.initial: EMPTY}
    queue = collections.deque([sub.initial])
    while queue:
        q = queue.popleft()
        for s in sorted(sub.dists[q].support()):
            t = sub.trans[q][s]
            if t is not None and t not in access:
                access[t] = access[q] + (s,)
                queue.append(t)
    reps = {}
    for b, states in enumerate(part.blocks):
        reps[b] = min(states, key=lambda q: (len(access[q]), access[q]))
    order = sorted(range(part.num_blocks), key=lambda b: (len(access[reps[b]]), access[reps[b]]))
    new_index = {b: i for i, b in enumerate(order)}
    dists = []
    trans = []
    for b in order:
        rep = reps[b]
        dist = sub.dists[rep]
        dists.append(dist)
        row = []
        for s in range(sub.alphabet.size):
            if s in dist.support():
                row.append(new_index[part.block_of[sub.trans[rep][s]]])
            else:
                row.append(None)
        trans.append(tuple(row))
    return Pdfa(sub.alphabet, tuple(dists), tuple(trans), new_index[part.block_of[sub.initial]])


def oracle_isomorphic(a, b):
    if a.alphabet != b.alphabet:
        return False
    a, b = trim(a), trim(b)
    if a.n_states != b.n_states:
        return False
    pairing = {a.initial: b.initial}
    queue = collections.deque([(a.initial, b.initial)])
    while queue:
        qa, qb = queue.popleft()
        if a.dists[qa] != b.dists[qb]:
            return False
        for s in range(a.alphabet.size):
            ta, tb = a.trans[qa][s], b.trans[qb][s]
            if (ta is None) != (tb is None):
                return False
            if ta is None:
                continue
            if ta in pairing:
                if pairing[ta] != tb:
                    return False
            else:
                if tb in pairing.values():
                    return False
                pairing[ta] = tb
                queue.append((ta, tb))
    return True


def oracle_random_dfa(n, m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, n, size=(n, m))
    seen = [False] * n
    seen[0] = True
    order = [0]
    head = 0
    while head < len(order):
        q = order[head]
        head += 1
        for s in range(m):
            t = int(raw[q][s])
            if not seen[t]:
                seen[t] = True
                order.append(t)
    remap = {old: new for new, old in enumerate(order)}
    return tuple(tuple(remap[int(raw[q][s])] for s in range(m)) for q in order)


def oracle_random_pdfa(spec):
    structure = oracle_random_dfa(spec.n, spec.m, np.random.SeedSequence([spec.seed, 0]))
    pdfa = assign_distributions(structure, spec.theta, np.random.SeedSequence([spec.seed, 1]))
    return trim(pdfa)


def oracle_shortest_defined_ce_prefix(model, hypothesis, partitioner, gamma):
    gamma = tuple(gamma)
    hyp_lm = hypothesis.language_model()
    if not is_defined(hyp_lm, gamma):
        raise NotACounterexampleError("counterexample is undefined in the hypothesis")
    if label_at(model, partitioner, gamma) == label_at(hyp_lm, partitioner, gamma):
        raise NotACounterexampleError("string does not distinguish model and hypothesis")
    for j in range(len(gamma) + 1):
        p = gamma[:j]
        model_label = label_at(model, partitioner, p)
        if model_label != label_at(hyp_lm, partitioner, p):
            if model_label is ZERO_CLASS:
                raise NotACounterexampleError(
                    "first disagreement is model-undefined; supports were inconsistent earlier"
                )
            return p
    raise NotACounterexampleError("no disagreeing prefix found")


# --- corpus ---


def corpus():
    for n, m, theta in SHAPES:
        for seed in SEEDS:
            yield random_pdfa(GenSpec(n, m, theta, seed=seed))


def chain(n, seed=0):
    """`a` advances (the last state loops), `b` resets; only the last state differs."""
    alphabet = Alphabet(("a", "b"))
    rng = np.random.default_rng(seed)

    def draw():
        w = 1.0 - rng.random(3)
        return Distribution(alphabet, tuple(float(x) for x in w / w.sum()))

    body, last = draw(), draw()
    return Pdfa(alphabet, (body,) * (n - 1) + (last,), tuple((min(q + 1, n - 1), 0) for q in range(n)))


def permuted(pdfa, seed, extra=0):
    """A copy with states shuffled, plus `extra` unreachable states."""
    rng = np.random.default_rng(seed)
    n = pdfa.n_states
    perm = [int(x) for x in rng.permutation(n + extra)]  # old state -> new state
    dists = [None] * (n + extra)
    trans = [None] * (n + extra)
    for q in range(n + extra):
        old = q if q < n else int(rng.integers(0, n))
        dists[perm[q]] = pdfa.dists[old]
        trans[perm[q]] = tuple(None if t is None else perm[t] for t in pdfa.trans[old])
    return Pdfa(pdfa.alphabet, tuple(dists), tuple(trans), perm[pdfa.initial])


def random_guide(alphabet, seed, n=3):
    rng = np.random.default_rng(seed)
    m = alphabet.size
    masks = [tuple(int(v) for v in (rng.random(m + 1) < 0.7)) for _ in range(n)]
    delta = [tuple(int(t) for t in rng.integers(0, n, size=m)) for _ in range(n)]
    return GuideAutomaton(alphabet, tuple(masks), tuple(delta))


def products():
    for seed in range(30):
        base = random_pdfa(GenSpec(15, 3, 0.3, seed=seed))
        guide = random_guide(base.alphabet, seed)
        for strategy in (None, TopR(2), TopP(0.8)):
            try:
                yield materialize_compose(base, guide, strategy)
            except AllZeroError:
                continue


# --- random instances ---


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 1), (7, 2), (50, 5), (300, 3), (500, 20)])
def test_random_dfa_matches_oracle(n, m):
    for seed in range(20):
        assert random_dfa(n, m, seed) == oracle_random_dfa(n, m, seed)


def test_random_pdfa_matches_trimmed_oracle():
    for n, m, theta in SHAPES + ((200, 10, 0.9),):
        for seed in SEEDS:
            spec = GenSpec(n, m, theta, seed=seed)
            got = random_pdfa(spec)
            assert got == oracle_random_pdfa(spec)
            assert got == trim(got)


def test_reachable_states_on_a_raw_table():
    table = [[2, None], [0, 1], [None, 2], [3, 0]]
    assert reachable_states(table) == [0, 2]
    assert reachable_states(table, initial=3) == [3, 0, 2]
    assert reachable_states(table, initial=1) == [1, 0, 2]
    assert reachable_states(table, initial=1, supports=[{0}, {1}, set(), set()]) == [1]
    assert reachable_states(table, initial=1, supports=[{0}, {1, 0}, set(), set()]) == [1, 0, 2]


# --- quotient ---


@pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.name)
def test_quotient_matches_oracle_on_random_instances(partitioner):
    for pdfa in corpus():
        assert quotient(pdfa, partitioner) == oracle_quotient(pdfa, partitioner)


@pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.name)
def test_quotient_matches_oracle_on_permuted_instances(partitioner):
    for i, pdfa in enumerate(corpus()):
        if i % 3 == 0:
            shuffled = permuted(pdfa, i, extra=i % 4)
            got = quotient(shuffled, partitioner)
            assert got == oracle_quotient(shuffled, partitioner)
            assert got == quotient(pdfa, partitioner)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 300])
def test_quotient_matches_oracle_on_chains(n):
    for partitioner in PARTITIONERS:
        pdfa = chain(n, seed=n)
        assert quotient(pdfa, partitioner) == oracle_quotient(pdfa, partitioner)
    assert quotient(chain(n), ExactPartitioner()).n_states == n


@pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.name)
def test_quotient_matches_oracle_on_composed_products(partitioner):
    count = 0
    for product in products():
        assert quotient(product, partitioner) == oracle_quotient(product, partitioner)
        count += 1
    assert count >= 30


# --- isomorphism ---


def perturbed(pdfa, seed):
    """Change one transition target or one distribution of a reachable state."""
    rng = np.random.default_rng(seed)
    trans = [list(row) for row in pdfa.trans]
    dists = list(pdfa.dists)
    q = int(rng.integers(0, pdfa.n_states))
    if rng.random() < 0.5:
        s = int(rng.integers(0, pdfa.alphabet.size))
        if trans[q][s] is not None:
            trans[q][s] = int(rng.integers(0, pdfa.n_states))
    else:
        fits = [d for d in dists if all(trans[q][s] is not None for s in d.support())]
        dists[q] = fits[int(rng.integers(0, len(fits)))]
    return Pdfa(pdfa.alphabet, tuple(dists), tuple(tuple(r) for r in trans), pdfa.initial)


def isomorphism_pairs():
    instances = list(corpus()) + list(products()) + [chain(n, seed=n) for n in (2, 9, 40)]
    for i, a in enumerate(instances):
        yield a, a
        yield a, permuted(a, i)
        yield a, permuted(a, i, extra=3)
        yield a, permuted(perturbed(a, i), i + 1)
        yield a, perturbed(a, i + 7)
        yield a, instances[(i + 1) % len(instances)]
        yield a, quotient(a, ExactPartitioner())
        yield a, trim(a, positive_only=True)


def test_isomorphic_matches_oracle():
    verdicts = collections.Counter()
    for a, b in isomorphism_pairs():
        got = isomorphic(a, b)
        assert got == oracle_isomorphic(a, b)
        assert got == isomorphic(b, a)
        verdicts[got] += 1
    assert verdicts[True] > 300 and verdicts[False] > 300


def test_isomorphic_rejects_other_alphabets(loop_pdfa):
    other = Alphabet(("x", "y"))
    renamed = Pdfa(
        other,
        tuple(Distribution(other, d.probs) for d in loop_pdfa.dists),
        loop_pdfa.trans,
    )
    assert not isomorphic(loop_pdfa, renamed)
    assert not oracle_isomorphic(loop_pdfa, renamed)


def test_isomorphic_on_a_large_permuted_copy():
    big = random_pdfa(GenSpec(6000, 10, 0.9, seed=3))
    assert big.n_states >= 5000
    shuffled = permuted(big, 11, extra=50)
    assert isomorphic(big, shuffled)
    assert not isomorphic(big, permuted(perturbed(big, 5), 11))
    swapped = list(shuffled.trans)
    swapped[shuffled.initial] = tuple(reversed(swapped[shuffled.initial]))
    assert not isomorphic(
        big, Pdfa(big.alphabet, shuffled.dists, tuple(swapped), shuffled.initial)
    )


# --- counterexample prefixes ---


class HoledModel(LanguageModel):
    """A PDFA's model that is undefined at a few chosen strings; logs every query."""

    def __init__(self, pdfa, holes):
        self.inner = pdfa.language_model()
        self.alphabet = pdfa.alphabet
        self.holes = holes
        self.log = []

    def next(self, u):
        self.log.append(tuple(u))
        return None if tuple(u) in self.holes else self.inner.next(u)


def outcome(reduce, model, hypothesis, partitioner, gamma):
    try:
        return "ok", reduce(model, hypothesis, partitioner, gamma), model.log
    except NotACounterexampleError as exc:
        return "error", str(exc), model.log


def defined_walk(pdfa, rng, length):
    """A random string that follows the supports of pdfa, plus perhaps one stray symbol."""
    q, u = pdfa.initial, []
    for _ in range(length):
        support = sorted(pdfa.dists[q].support())
        if not support:
            break
        s = support[int(rng.integers(0, len(support)))]
        u.append(s)
        q = pdfa.trans[q][s]
    if rng.random() < 0.15:
        u.insert(int(rng.integers(0, len(u) + 1)), int(rng.integers(0, pdfa.alphabet.size)))
    return tuple(u)


@pytest.mark.parametrize("partitioner", PARTITIONERS[:3], ids=lambda p: p.name)
def test_shortest_defined_ce_prefix_matches_oracle(partitioner):
    kinds = collections.Counter()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        hypothesis = random_pdfa(GenSpec(8, 3, 0.4, seed=seed))
        target = random_pdfa(GenSpec(8, 3, 0.4, seed=seed + 1000)) if seed % 3 else hypothesis
        for _ in range(8):
            gamma = defined_walk(hypothesis, rng, int(rng.integers(0, 30)))
            holes = {gamma[:j] for j in range(len(gamma) + 1) if rng.random() < 0.1}
            got = outcome(shortest_defined_ce_prefix, HoledModel(target, holes), hypothesis, partitioner, gamma)
            want = outcome(oracle_shortest_defined_ce_prefix, HoledModel(target, holes), hypothesis, partitioner, gamma)
            assert got == want
            kinds[got[1] if got[0] == "error" else "ok"] += 1
    assert kinds["ok"] > 50
    assert kinds["counterexample is undefined in the hypothesis"] > 0
    assert kinds["string does not distinguish model and hypothesis"] > 0
    assert kinds["first disagreement is model-undefined; supports were inconsistent earlier"] > 0


def test_shortest_defined_ce_prefix_on_a_long_chain_counterexample():
    target, hypothesis = chain(600, seed=1), chain(399, seed=1)
    gamma = (0,) * 500
    got = outcome(shortest_defined_ce_prefix, HoledModel(target, set()), hypothesis, ExactPartitioner(), gamma)
    want = outcome(oracle_shortest_defined_ce_prefix, HoledModel(target, set()), hypothesis, ExactPartitioner(), gamma)
    assert got == want
    assert got[:2] == ("ok", (0,) * 398)
