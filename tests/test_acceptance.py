"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is part of the normal pytest run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from pdfalearn.automata import (
    CongruenceMode,
    Pdfa,
    compose,
    congruence_partition,
    is_defined,
    label_at,
    materialize_compose,
    quotient,
    termination_mass,
    trim,
)
from pdfalearn.bench import median_mq_by, sweep
from pdfalearn.equivcheck import hk_equiv, shortest_defined_ce_prefix
from pdfalearn.errors import NotACounterexampleError
from pdfalearn.learner import LearnerConfig, LearnerMode, LearnerMonitor, learn
from pdfalearn.lmbridge import (
    SymbolMap,
    TokenModelServer,
    load_symbol_map,
    pdfa_token_model,
    remote_token_model,
    save_symbol_map,
    symbol_model,
)
from pdfalearn.pipeline import compare_distributions, digit_guide, guided_sample
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import (
    Alphabet,
    Distribution,
    ExactPartitioner,
    QuantizationPartitioner,
    TopR,
    ZERO_CLASS,
)
from pdfalearn.teacher import PacParams, exact_teacher, pac_teacher

EXACT = ExactPartitioner()


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_figure_exactness(loop_pdfa, loop_pdfa_top2, sync_model_pdfa, sync_guide):
    t0 = time.perf_counter()
    mass_full = termination_mass(loop_pdfa)[0]
    mass_cut = termination_mass(loop_pdfa_top2)[0]
    ok_mass = abs(mass_full - 1.0) <= 1e-9 and abs(mass_cut - 0.3) <= 1e-9

    comp = compose(sync_model_pdfa.language_model(), sync_guide, TopR(2))
    at_root = comp.next(())
    at_a = comp.next((0,))
    at_ab = comp.next((0, 1))
    at_aba = comp.next((0, 1, 0))
    ok_comp = (
        at_root.prob(0) == Fraction(7, 8)
        and at_root.terminal_prob == Fraction(1, 8)
        and at_a.prob(0) == Fraction(7, 9)
        and at_a.prob(1) == Fraction(2, 9)
        and at_ab.prob(0) == Fraction(3, 8)
        and at_ab.terminal_prob == Fraction(5, 8)
        and at_aba.prob(0) == Fraction(3, 8)
        and at_aba.terminal_prob == Fraction(5, 8)
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        ok_mass and ok_comp and elapsed < 1.0,
        f"termination masses ({mass_full:.12f}, {mass_cut:.12f}), six rational "
        f"composite probabilities exact, {elapsed:.3f}s",
    )


def test_criterion_2_quotient_block_counts(merged_pair_pdfa, sync_model_pdfa, sync_guide):
    old = congruence_partition(merged_pair_pdfa, EXACT, CongruenceMode.ALL)
    new = congruence_partition(merged_pair_pdfa, EXACT, CongruenceMode.SUPPORT)
    product = materialize_compose(sync_model_pdfa, sync_guide, TopR(2))
    prod_part = congruence_partition(product, EXACT, CongruenceMode.SUPPORT)
    ok = (
        old.num_blocks == 3
        and new.num_blocks == 2
        and len(new.zero_states) == 0
        and prod_part.num_blocks == 3
    )
    report(
        2,
        ok,
        f"twin automaton: {old.num_blocks} blocks (all-symbol) / {new.num_blocks} non-zero "
        f"(support); synchronized product: {prod_part.num_blocks} non-zero blocks",
    )


def test_criterion_3_learning_round_trip():
    t0 = time.perf_counter()
    kappa = QuantizationPartitioner(10)
    params = [
        (n, m, theta) for n in (20, 50, 100) for m in (5, 10) for theta in (0.0, 0.5, 0.9)
    ]
    passed = 0
    total = 50
    for i in range(total):
        n, m, theta = params[i % len(params)]
        target = random_pdfa(GenSpec(n=n, m=m, theta=theta, seed=i))
        teacher = exact_teacher(target, kappa)
        learned = learn(teacher, kappa)
        q = quotient(target, kappa)
        if learned.n_states == q.n_states and hk_equiv(learned, q, kappa) is None:
            passed += 1
    elapsed = time.perf_counter() - t0
    report(3, passed == total and elapsed < 60, f"{passed}/{total} round trips, {elapsed:.1f}s")


def test_criterion_4_class_count_bound():
    kappa = QuantizationPartitioner(10)
    held = 0
    total = 100
    for i in range(total):
        n = 5 + (i * 7) % 26
        m = 2 + i % 4
        theta = (i % 10) / 10
        pdfa = random_pdfa(GenSpec(n=n, m=m, theta=theta, seed=1000 + i))
        e = kappa if i % 2 else EXACT
        new = congruence_partition(pdfa, e, CongruenceMode.SUPPORT)
        old = congruence_partition(pdfa, e, CongruenceMode.ALL)
        # the zero class of strings exists iff some positively reachable
        # state omits a symbol from its support
        pos = trim(pdfa, positive_only=True)
        zero_exists = any(len(d.support()) < pdfa.alphabet.size for d in pos.dists)
        total_new = new.num_blocks + (1 if zero_exists else 0)
        if new.num_blocks <= old.num_blocks and total_new <= old.num_blocks + 1:
            held += 1
    report(4, held == total, f"{held}/{total} instances satisfy both bounds")


def _rooted_prefix_classes(pdfa: Pdfa, depth: int) -> list[int]:
    """Classes of states under exact equality of all rooted prefix
    probabilities up to the given depth (the ratio characterization)."""
    n, m = pdfa.n_states, pdfa.alphabet.size
    dist_matrix = np.asarray([[float(p) for p in d.probs[:m]] for d in pdfa.dists])
    trans = np.asarray([[t if t is not None else 0 for t in row] for row in pdfa.trans])
    probs = np.ones((n, 1))
    states = np.tile(np.arange(n)[:, None], (1, 1))
    signatures = [tuple() for _ in range(n)]
    for _ in range(depth):
        step = dist_matrix[states]  # (n, words, m)
        probs = (probs[:, :, None] * step).reshape(n, -1)
        states = np.stack([trans[states, s] for s in range(m)], axis=2).reshape(n, -1)
        for q in range(n):
            signatures[q] = signatures[q] + tuple(probs[q])
    interned: dict = {}
    return [interned.setdefault(sig, len(interned)) for sig in signatures]


def test_criterion_5_characterization_and_prefix_witness():
    rng = np.random.default_rng(5150)
    agree = 0
    witness_ok = 0
    total = 100
    injected_total = 0
    for i in range(total):
        # characterization agreement: ratio oracle vs refinement partition,
        # on instances of at most 8 states (duplicated states give the
        # oracle genuinely equivalent pairs to find)
        if i % 2 == 0:
            base = random_pdfa(GenSpec(n=2 + i % 3, m=2, theta=0.3 + 0.3 * (i % 2), seed=i))
            pdfa = _inflate(base, copies=2, rng=rng)
        else:
            pdfa = random_pdfa(GenSpec(n=2 + i % 7, m=2, theta=0.3 + 0.3 * (i % 2), seed=i))
        assert pdfa.n_states <= 8
        oracle = _rooted_prefix_classes(pdfa, min(2 * pdfa.n_states, 12))
        part = congruence_partition(pdfa, EXACT, CongruenceMode.SUPPORT)
        same = all(
            (oracle[p] == oracle[q]) == (part.block_of[p] == part.block_of[q])
            for p in range(pdfa.n_states)
            for q in range(p + 1, pdfa.n_states)
        )
        if same:
            agree += 1

        # prefix-witness existence for every injected counterexample
        model = random_pdfa(GenSpec(n=6, m=2, theta=0.4, seed=3000 + i)).language_model()
        hyp = quotient(random_pdfa(GenSpec(n=4, m=2, theta=0.4, seed=4000 + i)), EXACT)
        hyp_lm = hyp.language_model()
        all_ok = True
        injected = 0
        stack = [()]
        while stack:
            u = stack.pop()
            if label_at(hyp_lm, EXACT, u) is ZERO_CLASS:
                continue
            if label_at(model, EXACT, u) != label_at(hyp_lm, EXACT, u):
                injected += 1
                try:
                    p = shortest_defined_ce_prefix(model, hyp, EXACT, u)
                except NotACounterexampleError:
                    all_ok = False
                    continue
                if label_at(model, EXACT, p) is ZERO_CLASS:
                    all_ok = False
                for k in range(len(p)):
                    if label_at(model, EXACT, p[:k]) != label_at(hyp_lm, EXACT, p[:k]):
                        all_ok = False
            if len(u) < 5:
                stack.extend(u + (s,) for s in range(2))
        injected_total += injected
        if all_ok:
            witness_ok += 1
    report(
        5,
        agree == total and witness_ok == total,
        f"characterization agreement {agree}/{total}; prefix witnesses {witness_ok}/{total} "
        f"({injected_total} injected counterexamples)",
    )


def _inflate(pdfa: Pdfa, copies: int, rng) -> Pdfa:
    """Duplicate every state; copies behave identically (rooted-equivalent)."""
    n = pdfa.n_states
    m = pdfa.alphabet.size
    dists = tuple(pdfa.dists[q] for q in range(n) for _ in range(copies))
    trans = []
    for q in range(n):
        for _ in range(copies):
            row = []
            for s in range(m):
                t = pdfa.trans[q][s]
                row.append(t * copies + int(rng.integers(copies)))
            trans.append(tuple(row))
    return trim(Pdfa(pdfa.alphabet, dists, tuple(trans), pdfa.initial * copies))


def test_criterion_6_benchmark_trend():
    t0 = time.perf_counter()
    kappa = QuantizationPartitioner(10)
    records = sweep(
        ns=[50, 100, 200], thetas=[0.95], m=10, partitioner=kappa, seeds=range(10)
    )
    failures = [r for r in records if r.error]
    med = median_mq_by(records, key=lambda r: r.n)
    ordering = all(
        med[(n, "omit-zero")] <= med[(n, "qnt-filter")] <= med[(n, "qnt-standard")]
        for n in (50, 100, 200)
    )
    factor = med[(200, "omit-zero")] <= 0.5 * med[(200, "qnt-standard")]
    verified = all(r.verified for r in records if not r.error)
    elapsed = time.perf_counter() - t0
    lines = ", ".join(
        f"n={n}: {med[(n, 'omit-zero')]}/{med[(n, 'qnt-filter')]}/{med[(n, 'qnt-standard')]}"
        for n in (50, 100, 200)
    )
    report(
        6,
        not failures and ordering and factor and verified and elapsed < 600,
        f"median mq (omit/filter/standard) {lines}; {elapsed:.1f}s",
    )


def test_criterion_7_invariant_fuzzing():
    t0 = time.perf_counter()
    kappa = QuantizationPartitioner(10)
    events = 0
    runs = 0
    violations = []
    seed = 0
    while events < 100_000:
        n = 8 + (seed * 5) % 28
        m = 2 + seed % 4
        theta = (seed % 9) / 10
        target = random_pdfa(GenSpec(n=n, m=m, theta=theta, seed=7000 + seed))
        lm = target.language_model()
        monitor = LearnerMonitor(is_defined_fn=lambda u, lm=lm: is_defined(lm, u))
        mode = LearnerMode.OMIT_ZERO if seed % 3 else LearnerMode.QNT_STANDARD
        teacher = exact_teacher(target, kappa)
        learn(teacher, kappa, LearnerConfig(mode=mode, monitor=monitor))
        events += monitor.events
        violations.extend(monitor.violations)
        runs += 1
        seed += 1
    elapsed = time.perf_counter() - t0
    report(
        7,
        events >= 100_000 and not violations,
        f"{events} checked learner steps across {runs} runs, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def _digit_instance(seed: int):
    """Random digit model composed with the dot-digits guide, screened so the
    composite terminates with high probability."""
    digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
    candidate = seed
    while True:
        base = random_pdfa(GenSpec(n=20, m=11, theta=0.0, seed=candidate), alphabet=digits)
        target = materialize_compose(base, digit_guide(), TopR(6))
        if termination_mass(target)[0] > 0.9:
            return digits, target
        candidate += 1000


def test_criterion_8_guided_sampling_fidelity():
    t0 = time.perf_counter()
    good = 0
    details = []
    for seed in range(10):
        digits, target = _digit_instance(seed)
        teacher = exact_teacher(target, EXACT)
        learned = learn(teacher, EXACT)
        samples = guided_sample(learned.language_model(), 10_000, max_len=25, seed=seed)
        rep = compare_distributions(samples, digits, model=target, bins=10, max_len=25)
        chi_p = rep.chi2[2]
        ks_p = rep.ks_lengths[1]
        details.append(f"{chi_p:.3f}/{ks_p:.3f}")
        if chi_p > 0.01 and ks_p > 0.01:
            good += 1
    elapsed = time.perf_counter() - t0
    report(
        8,
        good >= 9 and elapsed < 120,
        f"{good}/10 seeds pass chi2+KS(lengths) at 0.01 [{', '.join(details)}]; {elapsed:.1f}s",
    )


def _hermetic_setup():
    """Symbol-level target and its prefix-free token expansion."""
    symbols = Alphabet(("x", "y"))
    s = Pdfa(
        symbols,
        (
            Distribution.from_map(symbols, {"x": 0.5, "y": 0.3, "$": 0.2}),
            Distribution.from_map(symbols, {"x": 0.4, "y": 0.0, "$": 0.6}),
        ),
        ((1, 0), (1, 0)),
    )
    # tokens: x -> (2, 3), y -> (4,); main states interleave with the
    # mid-states reached after x's first token
    toks = Alphabet(("tA", "tB", "tC"))
    token_pdfa = Pdfa(
        toks,
        (
            Distribution.from_map(toks, {"tA": 0.5, "tC": 0.3, "$": 0.2}),  # main s0
            Distribution.from_map(toks, {"tB": 1.0}),  # mid s0 (x started)
            Distribution.from_map(toks, {"tA": 0.4, "$": 0.6}),  # main s1
            Distribution.from_map(toks, {"tB": 1.0}),  # mid s1
        ),
        (
            (1, 0, 0),  # main s0: tA -> mid0; tB, tC structural (tC = y loop)
            (1, 2, 1),  # mid0: tB -> main s1
            (3, 2, 0),  # main s1: tA -> mid1; tC/0 -> main s0
            (3, 2, 3),  # mid1: tB -> main s1
        ),
    )
    smap = SymbolMap((("x", "xx", (2, 3)), ("y", "y", (4,))))
    return symbols, s, token_pdfa, smap


def test_criterion_9_hermetic_llm_pipeline(tmp_path):
    symbols, s, token_pdfa, smap = _hermetic_setup()
    fixture = tmp_path / "symbols.tsv"
    save_symbol_map(smap, fixture)
    smap_loaded = load_symbol_map(fixture)

    tm = pdfa_token_model(token_pdfa, token_ids=[2, 3, 4])
    # sanity: the bridged model is extensionally the symbol-level target
    bridged = symbol_model(tm, smap_loaded, symbols)
    ref = s.language_model()
    stack = [()]
    while stack:
        u = stack.pop()
        got, want = bridged.next(u), ref.next(u)
        assert (got is None) == (want is None)
        if want is not None:
            for k in range(len(want.probs)):
                assert abs(got.probs[k] - float(want.probs[k])) < 1e-9
            if len(u) < 6:
                stack.extend(u + (sym,) for sym in want.support())

    with TokenModelServer(tm) as server, remote_token_model(server.url, bos=tm.bos, eos=tm.eos) as remote:
        model = symbol_model(remote, smap_loaded, symbols)
        teacher = pac_teacher(
            model, EXACT, PacParams(epsilon=0.02, delta=0.02, max_len=30), seed=13
        )
        learned_remote = learn(teacher, EXACT)
    learned_direct = learn(exact_teacher(s, EXACT), EXACT)
    same = hk_equiv(learned_remote, learned_direct, EXACT) is None
    report(
        9,
        same and learned_remote.n_states == learned_direct.n_states == 2,
        f"remote-pipeline result ({learned_remote.n_states} states) matches direct "
        f"symbol-level learning ({learned_direct.n_states} states)",
    )
