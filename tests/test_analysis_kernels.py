"""Analysis kernels checked against the loops they replaced.

`congruence_partition` refines by splitters over each state's inverted
probed edges (Valmari and Lehtinen's method for partial automata);
`termination_mass` and the exact value and length laws read one list of
support edges (`SupportEdges`). The loops they replaced are kept below as
oracles: two generations of Moore refinement for the partitions, and the
per-state loops for the masses and laws. On a seeded corpus, the automata
of acceptance criteria 2, 4 and 5, chains of up to 2,000 states with and
without missing transitions, and analyze's screened 16k-state instance, the
kernels must give exactly (`==`) the oracles' results: the same partitions,
quotients, masses, laws and errors.
"""

import collections
import time
from fractions import Fraction

import numpy as np
import pytest

from pdfalearn.automata import (
    CongruenceMode,
    GuideAutomaton,
    Pdfa,
    StatePartition,
    congruence_partition,
    materialize_compose,
    quotient,
    reachable_states,
    termination_mass,
    trim,
)
from pdfalearn.equivcheck import hk_equiv
from pdfalearn.errors import AllZeroError, NonConvergenceError, ParseFailureError
from pdfalearn.pipeline import analytic_length_pmf, analytic_value_bins, digit_guide, digit_indices
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import (
    Alphabet,
    Distribution,
    ExactPartitioner,
    QuantizationPartitioner,
    TopKPartitioner,
    TopP,
    TopR,
)

PARTITIONERS = (
    ExactPartitioner(),
    QuantizationPartitioner(2),
    QuantizationPartitioner(10),
    TopKPartitioner(1),
    TopKPartitioner(3),
)
MODES = (CongruenceMode.SUPPORT, CongruenceMode.ALL)
SHAPES = ((6, 2, 0.0), (12, 3, 0.5), (25, 4, 0.9), (40, 6, 0.7))
SEEDS = range(15)
DIGITS = Alphabet(("dot",) + tuple(str(d) for d in range(10)))


# --- oracles: the loops the kernels replaced ---


def oracle_congruence_partition(pdfa, partitioner, mode=CongruenceMode.SUPPORT):
    reach = reachable_states(pdfa.trans, pdfa.initial)
    labels = {}
    block = {}
    for q in reach:
        lab = partitioner.label(pdfa.dists[q])
        block[q] = labels.setdefault(lab, len(labels))

    m = pdfa.alphabet.size
    while True:
        signatures = {}
        for q in reach:
            if mode is CongruenceMode.SUPPORT:
                probe = sorted(pdfa.dists[q].support())
            else:
                probe = range(m)
            sig = (block[q],) + tuple(
                -1 if pdfa.trans[q][s] is None else block[pdfa.trans[q][s]] for s in probe
            )
            signatures[q] = sig
        fresh = {}
        new_block = {q: fresh.setdefault(signatures[q], len(fresh)) for q in reach}
        if len(fresh) == len(set(block.values())):
            break
        block = new_block

    members = collections.defaultdict(list)
    for q in reach:
        members[block[q]].append(q)
    ordered = sorted(members.values(), key=min)
    final = {}
    for i, states in enumerate(ordered):
        for q in states:
            final[q] = i
    block_of = tuple(final.get(q) for q in range(pdfa.n_states))
    return StatePartition(block_of, tuple(tuple(sorted(s)) for s in ordered))


def oracle_moore_partition(pdfa, partitioner, mode=CongruenceMode.SUPPORT):
    """Moore refinement from one successor list per state, built before the rounds."""
    reach = sorted(reachable_states(pdfa.trans, pdfa.initial))
    n = pdfa.n_states
    unset = [None] * n + [-1]  # unreachable states have no block, the sink's is -1
    block = unset[:]
    labels = {}
    # each reachable state probes itself, then its successor on each probed
    # symbol; a missing transition leads to state n, the sink
    probes = []
    for q in reach:
        row = pdfa.trans[q]
        symbols = sorted(pdfa.dists[q].support()) if mode is CongruenceMode.SUPPORT else range(len(row))
        probes.append((q, *(n if row[s] is None else row[s] for s in symbols)))
        block[q] = labels.setdefault(partitioner.label(pdfa.dists[q]), len(labels))
    count = len(labels)
    while True:
        # signatures start with the own block, so rounds only split blocks;
        # ascending visits number fresh blocks by their smallest member
        fresh = {}
        new_block = unset[:]
        for probe in probes:
            new_block[probe[0]] = fresh.setdefault(tuple(map(block.__getitem__, probe)), len(fresh))
        block = new_block
        if len(fresh) == count:
            break
        count = len(fresh)
    blocks = [[] for _ in range(count)]
    for q in reach:
        blocks[block[q]].append(q)
    return StatePartition(tuple(block[:n]), tuple(map(tuple, blocks)))


def oracle_quotient(pdfa, partitioner, partition=oracle_congruence_partition):
    sub = trim(pdfa, positive_only=True)
    part = partition(sub, partitioner, CongruenceMode.SUPPORT)
    dists = []
    trans = []
    for states in part.blocks:
        dist = sub.dists[states[0]]
        dists.append(dist)
        support = dist.support()
        trans.append(tuple(part.block_of[t] if s in support else None for s, t in enumerate(sub.trans[states[0]])))
    return Pdfa(sub.alphabet, tuple(dists), tuple(trans), 0)


def oracle_termination_mass(pdfa, tol=1e-12, max_iter=10**6):
    n = pdfa.n_states
    base = [float(d.terminal_prob) for d in pdfa.dists]
    edges = []
    for q in range(n):
        row = []
        dist = pdfa.dists[q]
        for s in dist.support():
            row.append((float(dist.prob(s)), pdfa.trans[q][s]))
        edges.append(row)
    x = [0.0] * n
    for _ in range(max_iter):
        delta = 0.0
        new = [0.0] * n
        for q in range(n):
            v = base[q]
            for p, t in edges[q]:
                v += p * x[t]
            new[q] = v
            delta = max(delta, abs(v - x[q]))
        x = new
        if delta < tol:
            return x
    raise NonConvergenceError(delta, max_iter)


def oracle_completion_table(pdfa, max_len):
    n = pdfa.n_states
    table = [[0.0] * n]
    for _ in range(max_len):
        prev = table[-1]
        row = []
        for q in range(n):
            dist = pdfa.dists[q]
            v = float(dist.terminal_prob)
            for s in dist.support():
                v += float(dist.prob(s)) * prev[pdfa.trans[q][s]]
            row.append(v)
        table.append(row)
    return table


def _bin_index(value, bins):
    return min(int(value * bins), bins - 1)


def oracle_analytic_value_bins(pdfa, bins, max_len):
    depth_needed = None
    for k in range(1, 7):
        if (10**k) % bins == 0:
            depth_needed = k
            break
    if depth_needed is None:
        raise ValueError(f"{bins} equal-width bins do not align with a decimal digit grid")
    digits = digit_indices(pdfa.alphabet)
    completes = oracle_completion_table(pdfa, max_len)
    masses = [0.0] * bins
    total = 0.0
    frontier = {(pdfa.initial, 0, ()): 1.0}
    while frontier:
        grown = collections.defaultdict(float)
        for (q, depth, prefix), mass in frontier.items():
            dist = pdfa.dists[q]
            if len(prefix) >= depth_needed:
                value = sum(d * 10.0 ** -(i + 1) for i, d in enumerate(prefix))
                p = mass * completes[max_len - depth][q]
                masses[_bin_index(value, bins)] += p
                total += p
                continue
            if depth >= max_len:
                continue
            if dist.terminal_prob > 0:
                value = sum(d * 10.0 ** -(i + 1) for i, d in enumerate(prefix))
                p = mass * float(dist.terminal_prob)
                masses[_bin_index(value, bins)] += p
                total += p
            for s in dist.support():
                d = digits[s]
                if d is None:
                    if prefix:
                        raise ParseFailureError(
                            f"non-digit symbol {pdfa.alphabet.symbols[s]!r} after digits"
                        )
                    nxt = prefix
                else:
                    nxt = prefix + (d,)
                grown[(pdfa.trans[q][s], depth + 1, nxt)] += mass * float(dist.prob(s))
        frontier = grown
    if total <= 0:
        raise AllZeroError("model never completes within max_len")
    return [m / total for m in masses]


def oracle_analytic_length_pmf(pdfa, max_len):
    n = pdfa.n_states
    alive = [0.0] * n
    alive[pdfa.initial] = 1.0
    pmf = []
    for _ in range(max_len):
        done = 0.0
        nxt = [0.0] * n
        for q, mass in enumerate(alive):
            if mass == 0:
                continue
            dist = pdfa.dists[q]
            done += mass * float(dist.terminal_prob)
            for s in dist.support():
                nxt[pdfa.trans[q][s]] += mass * float(dist.prob(s))
        pmf.append(done)
        alive = nxt
    total = sum(pmf)
    if total <= 0:
        raise AllZeroError("model never completes within max_len")
    return [p / total for p in pmf]


def outcome(f, *args):
    """f's result, or the type and message of the error it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the error itself is part of what must match
        return type(exc), str(exc)


# --- corpus ---


def with_unreachable(pdfa, seed, extra):
    """A copy with states shuffled and `extra` unreachable states added."""
    rng = np.random.default_rng(seed)
    n = pdfa.n_states
    perm = [int(x) for x in rng.permutation(n + extra)]
    dists = [None] * (n + extra)
    trans = [None] * (n + extra)
    for q in range(n + extra):
        old = q if q < n else int(rng.integers(0, n))
        dists[perm[q]] = pdfa.dists[old]
        trans[perm[q]] = tuple(None if t is None else perm[t] for t in pdfa.trans[old])
    return Pdfa(pdfa.alphabet, tuple(dists), tuple(trans), perm[pdfa.initial])


def random_instances():
    for n, m, theta in SHAPES:
        for seed in SEEDS:
            pdfa = random_pdfa(GenSpec(n, m, theta, seed=seed))
            yield pdfa
            yield trim(pdfa, positive_only=True)
            yield with_unreachable(pdfa, seed, extra=1 + seed % 4)


def chain(n, seed=0):
    """`a` advances (the last state loops), `b` resets; only the last state differs."""
    alphabet = Alphabet(("a", "b"))
    rng = np.random.default_rng(seed)

    def draw():
        w = 1.0 - rng.random(3)
        return Distribution(alphabet, tuple(float(x) for x in w / w.sum()))

    body, last = draw(), draw()
    return Pdfa(alphabet, (body,) * (n - 1) + (last,), tuple((min(q + 1, n - 1), 0) for q in range(n)))


def holey_chain(n, seed=0):
    """`chain` where b has probability 0 at each state q % 3 != 0 but the last, and
    no transition at q % 3 == 1: ALL mode sends those to its sink."""
    alphabet = Alphabet(("a", "b"))
    rng = np.random.default_rng(seed)

    def draw(b):
        w = 1.0 - rng.random(3)
        w[1] *= b
        return Distribution(alphabet, tuple(float(x) for x in w / w.sum()))

    full, no_b, last = draw(1), draw(0), draw(1)
    dists = tuple(full if q % 3 == 0 else no_b for q in range(n - 1)) + (last,)
    trans = tuple((min(q + 1, n - 1), None if q % 3 == 1 and q < n - 1 else 0) for q in range(n))
    return Pdfa(alphabet, dists, trans)


def ring(n):
    """One distribution without b; `a` goes round the ring, `b` leads to 0 from
    every state but the last, which has no b-transition."""
    alphabet = Alphabet(("a", "b"))
    dist = Distribution.from_map(alphabet, {"a": 0.5, "$": 0.5})
    return Pdfa(alphabet, (dist,) * n, tuple(((q + 1) % n, None if q == n - 1 else 0) for q in range(n)))


def inflate(pdfa, rng, copies=2):
    """Each state `copies` times, each transition to a random copy of its target."""
    m = pdfa.alphabet.size
    dists = tuple(d for d in pdfa.dists for _ in range(copies))
    trans = tuple(
        tuple(row[s] * copies + int(rng.integers(copies)) for s in range(m))
        for row in pdfa.trans
        for _ in range(copies)
    )
    return trim(Pdfa(pdfa.alphabet, dists, trans, pdfa.initial * copies))


def acceptance_instances(request):
    """The automata that acceptance criteria 2, 4 and 5 partition, built as there."""
    yield request.getfixturevalue("merged_pair_pdfa")
    sync = (request.getfixturevalue("sync_model_pdfa"), request.getfixturevalue("sync_guide"))
    yield materialize_compose(*sync, TopR(2))
    for i in range(100):
        yield random_pdfa(GenSpec(n=5 + (i * 7) % 26, m=2 + i % 4, theta=(i % 10) / 10, seed=1000 + i))
    rng = np.random.default_rng(5150)
    for i in range(100):
        if i % 2 == 0:
            yield inflate(random_pdfa(GenSpec(n=2 + i % 3, m=2, theta=0.3, seed=i)), rng)
        else:
            yield random_pdfa(GenSpec(n=2 + i % 7, m=2, theta=0.6, seed=i))
        yield random_pdfa(GenSpec(n=4, m=2, theta=0.4, seed=4000 + i))


def random_guide(alphabet, seed, n=3):
    rng = np.random.default_rng(seed)
    m = alphabet.size
    masks = [tuple(int(v) for v in (rng.random(m + 1) < 0.7)) for _ in range(n)]
    delta = [tuple(int(t) for t in rng.integers(0, n, size=m)) for _ in range(n)]
    return GuideAutomaton(alphabet, tuple(masks), tuple(delta))


def digit_composites():
    """Digit models under the stock digit guide and under random guides."""
    for seed in range(20):
        base = random_pdfa(GenSpec(6 + seed % 9, 11, (0.0, 0.3, 0.6)[seed % 3], seed=seed), alphabet=DIGITS)
        guides = (digit_guide(), random_guide(DIGITS, seed))
        for guide, strategy in zip(guides * 2, (TopR(6), TopP(0.9), None, TopR(3))):
            try:
                yield materialize_compose(base, guide, strategy)
            except AllZeroError:
                continue


def rational_fixtures(request):
    names = ("loop_pdfa", "loop_pdfa_top2", "merged_pair_pdfa", "merged_pair_quotient_pdfa", "sync_model_pdfa")
    pdfas = [request.getfixturevalue(name) for name in names]
    sync = materialize_compose(request.getfixturevalue("sync_model_pdfa"), request.getfixturevalue("sync_guide"))
    return pdfas + [sync]


# --- congruence partitions and quotients ---


def assert_partitions_match(
    pdfa, partitioners=PARTITIONERS, oracles=(oracle_moore_partition, oracle_congruence_partition)
):
    """Both modes give the oracles' partitions, and the quotient the oracle's automaton."""
    for partitioner in partitioners:
        for mode in MODES:
            got = congruence_partition(pdfa, partitioner, mode)
            for oracle in oracles:
                assert got == oracle(pdfa, partitioner, mode), (oracle.__name__, partitioner, mode)
        assert quotient(pdfa, partitioner) == oracle_quotient(pdfa, partitioner, oracles[-1])


@pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.name)
def test_partition_matches_oracle_on_random_instances(partitioner):
    unreachable = 0
    for pdfa in random_instances():
        assert_partitions_match(pdfa, (partitioner,))
        unreachable += congruence_partition(pdfa, partitioner).block_of.count(None)
    assert unreachable > 0


def test_partition_matches_oracle_on_rational_fixtures(request):
    for pdfa in rational_fixtures(request):
        assert_partitions_match(pdfa)


def test_partition_matches_oracle_on_digit_composites():
    count = 0
    for pdfa in digit_composites():
        assert_partitions_match(pdfa)
        count += 1
    assert count >= 40


def test_partition_matches_oracle_on_acceptance_instances(request):
    count = 0
    for pdfa in acceptance_instances(request):
        assert_partitions_match(pdfa)
        count += 1
    assert count == 302


def test_all_mode_tells_a_missing_transition_from_a_loop():
    # twins on their supports; only q1 keeps a zero-probability b-transition
    ab = Alphabet(("a", "b"))
    dist = Distribution.from_map(ab, {"a": 0.5, "$": 0.5})
    pdfa = Pdfa(ab, (dist, dist), ((1, None), (0, 1)))
    for mode, blocks in ((CongruenceMode.SUPPORT, 1), (CongruenceMode.ALL, 2)):
        got = congruence_partition(pdfa, ExactPartitioner(), mode)
        assert got == oracle_congruence_partition(pdfa, ExactPartitioner(), mode)
        assert got == oracle_moore_partition(pdfa, ExactPartitioner(), mode)
        assert got.num_blocks == blocks


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 2000])
def test_partition_matches_oracle_on_chains(n):
    # full supports: both modes probe every symbol, and Moore refinement takes n rounds
    pdfa = chain(n, seed=n)
    got = congruence_partition(pdfa, ExactPartitioner())
    assert got == oracle_moore_partition(pdfa, ExactPartitioner())
    assert got.num_blocks == n
    quant = QuantizationPartitioner(2)
    assert quotient(pdfa, quant) == oracle_quotient(pdfa, quant, oracle_moore_partition)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 301])
def test_partition_matches_oracle_on_chains_with_missing_transitions(n):
    # ALL mode sends every third state's b to its sink; a-suffixes still tell all n apart
    pdfa = holey_chain(n, seed=n)
    assert_partitions_match(pdfa, oracles=(oracle_moore_partition,))
    for mode in MODES:
        assert congruence_partition(pdfa, ExactPartitioner(), mode).num_blocks == n


@pytest.mark.parametrize("n", [1, 2, 30, 300])
def test_all_mode_sink_splits_what_support_mode_merges(n):
    # on supports the ring is one state; only the sink tells its states apart
    pdfa = ring(n)
    for mode, blocks in ((CongruenceMode.SUPPORT, 1), (CongruenceMode.ALL, n)):
        got = congruence_partition(pdfa, ExactPartitioner(), mode)
        assert got == oracle_moore_partition(pdfa, ExactPartitioner(), mode)
        assert got.num_blocks == blocks


def test_partition_matches_oracle_on_the_screened_16k_instance():
    # analyze's set-up for seed 1: the first of two candidates with a quarter
    # of its states positively reachable
    for j in range(2):
        big = random_pdfa(GenSpec(16_000, 10, 0.9, seed=1000 + j))
        if 4 * trim(big, positive_only=True).n_states >= 16_000:
            break
    else:
        pytest.fail("neither candidate passes the screening")
    quant = QuantizationPartitioner(10)
    for mode in MODES:
        assert congruence_partition(big, quant, mode) == oracle_moore_partition(big, quant, mode)
    assert quotient(big, quant) == oracle_quotient(big, quant, oracle_moore_partition)


def test_ten_thousand_state_chain_quotients_within_the_deadline():
    # Moore refinement needs one O(n*m) round per state here: over a minute
    pdfa = chain(10_000)
    start = time.perf_counter()
    reduced = quotient(pdfa, ExactPartitioner())
    elapsed = time.perf_counter() - start
    assert reduced.n_states == 10_000
    assert hk_equiv(pdfa, reduced, ExactPartitioner()) is None
    assert elapsed < 20, f"{elapsed:.1f} s"


# --- termination mass and the exact laws ---


def test_termination_mass_matches_oracle(request):
    instances = list(random_instances()) + list(digit_composites()) + rational_fixtures(request)
    for pdfa in instances:
        assert termination_mass(pdfa) == oracle_termination_mass(pdfa)
    assert termination_mass(chain(1000)) == oracle_termination_mass(chain(1000))


@pytest.mark.parametrize("max_iter", [1, 2, 5])
def test_termination_mass_nonconvergence_matches_oracle(loop_pdfa, max_iter):
    for pdfa in (loop_pdfa, chain(40)):
        with pytest.raises(NonConvergenceError) as got:
            termination_mass(pdfa, max_iter=max_iter)
        with pytest.raises(NonConvergenceError) as want:
            oracle_termination_mass(pdfa, max_iter=max_iter)
        assert (got.value.residual, got.value.iterations) == (want.value.residual, want.value.iterations)
        assert str(got.value) == str(want.value)


def test_termination_mass_without_iterations_reports_nonconvergence(loop_pdfa):
    # the replaced loop raised UnboundLocalError here
    with pytest.raises(NonConvergenceError) as err:
        termination_mass(loop_pdfa, max_iter=0)
    assert err.value.iterations == 0


def test_exact_laws_match_oracle_on_digit_composites():
    laws = collections.Counter()
    for pdfa in digit_composites():
        for max_len in (1, 4, 25):
            for bins in (10, 3, 1000):
                got = outcome(analytic_value_bins, pdfa, bins, max_len)
                assert got == outcome(oracle_analytic_value_bins, pdfa, bins, max_len)
                laws[got[0].__name__ if isinstance(got, tuple) else "bins"] += 1
            got = outcome(analytic_length_pmf, pdfa, max_len)
            assert got == outcome(oracle_analytic_length_pmf, pdfa, max_len)
    # every path is taken: laws, parse failures, misaligned bins (ValueError)
    # and models that never complete in time (AllZeroError)
    assert laws["bins"] > 100 and laws["ParseFailureError"] > 10
    assert laws["ValueError"] > 50 and laws["AllZeroError"] > 50


def test_exact_laws_match_oracle_on_random_and_rational_instances(request):
    digits_alphabet = [
        random_pdfa(GenSpec(n, 11, theta, seed=seed), alphabet=DIGITS)
        for n, _, theta in SHAPES
        for seed in SEEDS
    ]
    instances = list(random_instances()) + rational_fixtures(request) + digits_alphabet
    for pdfa in instances:
        for max_len in (3, 30):
            assert outcome(analytic_value_bins, pdfa, 10, max_len) == outcome(
                oracle_analytic_value_bins, pdfa, 10, max_len
            )
            assert outcome(analytic_length_pmf, pdfa, max_len) == outcome(
                oracle_analytic_length_pmf, pdfa, max_len
            )


def test_exact_laws_read_rational_probabilities_as_floats(sync_model_pdfa):
    assert all(isinstance(p, Fraction) for d in sync_model_pdfa.dists for p in d.probs)
    pmf = analytic_length_pmf(sync_model_pdfa, 12)
    assert all(isinstance(p, float) for p in pmf)
    assert pmf == oracle_analytic_length_pmf(sync_model_pdfa, 12)
