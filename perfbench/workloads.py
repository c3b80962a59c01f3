"""The benchmark's workloads: inputs made from a seed, a fixed batch, output checks.

Each workload has `setup(seed, tracer, workdir) -> env`, `batch(env, tracer, b)`
and `close(env)`. A batch builds its wrappers from the tracer it is given,
so one set-up serves untraced and traced batches alike. Why each workload
and size was chosen is in README.md next to this file.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pdfalearn.automata import (
    GuideAutomaton,
    Pdfa,
    PdfaLanguageModel,
    compose,
    isomorphic,
    materialize_compose,
    quotient,
    termination_mass,
    trim,
)
from pdfalearn.equivcheck import HkStats, hk_equiv
from pdfalearn.fileio import load_pdfa, save_pdfa
from pdfalearn.learner import LearnerConfig, LearnerMode, learn
from pdfalearn.lmbridge import SymbolMap, pdfa_token_model, remote_token_model, symbol_model
from pdfalearn.pipeline import compare_distributions, digit_guide, guided_sample
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import (
    Alphabet,
    Distribution,
    ExactPartitioner,
    QuantizationPartitioner,
    TopP,
    TopR,
)
from pdfalearn.teacher import PacParams, exact_teacher, filter_teacher, pac_teacher

from tracing import NullTracer, TracedLanguageModel, TracedTeacher, TracedTokenModel, counting_partitioner

perf = time.perf_counter
NULL_TRACER = NullTracer()
EXACT = ExactPartitioner()
QUANT10 = QuantizationPartitioner(10)
MODES = ("omit-zero", "qnt-filter", "qnt-standard")


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Batch:
    """Outcome of one batch: check time, operations attempted and failed, exact counts."""

    verify_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @contextmanager
    def op(self, what: str):
        """One learning run, quotient or report; if it raises, it counts as failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation is recorded and the batch goes on
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    @contextmanager
    def verifying(self):
        start = perf()
        try:
            yield
        finally:
            self.verify_s += perf() - start

    def count(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + value


def partitioner_for(base, tracer):
    return counting_partitioner(base, tracer) if tracer.enabled else base


def traced_learn(tracer, teacher, partitioner, config=None):
    if tracer.enabled:
        teacher = TracedTeacher(teacher, tracer)
    return tracer.call("learner.learn", learn, teacher, partitioner, config)


def traced_hk(tracer, a, b, partitioner):
    stats = HkStats()
    ce = tracer.call("equivcheck.hk_equiv", hk_equiv, a, b, partitioner, stats=stats)
    tracer.add("equivcheck.pairs_visited", stats.pairs_visited)
    return ce


def chain_pdfa(n: int, seed: int) -> Pdfa:
    """`a` advances (the last state loops), `b` resets, only the last state differs.

    States are told apart only by the suffix a^k that reaches the last
    state, so the minimal automaton has all n states. The seed draws the
    two full-support distributions.
    """
    alphabet = Alphabet(("a", "b"))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))

    def draw():
        w = 1.0 - rng.random(3)
        return Distribution(alphabet, tuple(float(x) for x in w / w.sum()))

    body, last = draw(), draw()
    dists = (body,) * (n - 1) + (last,)
    trans = tuple((min(q + 1, n - 1), 0) for q in range(n))
    return Pdfa(alphabet, dists, trans)


def teacher_for(mode: str, target: Pdfa, partitioner):
    """The teacher and learner mode of the paper's three configurations.

    Built from the teachers' public constructors rather than taken from
    `pdfalearn.bench`, so that restructuring that module leaves the
    benchmark unchanged.
    """
    if mode == "omit-zero":
        return exact_teacher(target, partitioner), LearnerMode.OMIT_ZERO
    if mode == "qnt-filter":
        return filter_teacher(target, partitioner), LearnerMode.QNT_STANDARD
    return exact_teacher(target, partitioner), LearnerMode.QNT_STANDARD


def learn_and_verify(b, tracer, mode, target, reference, partitioner, label):
    """Learn `target` in `mode` and check the result against its quotient `reference`.

    Returns the MQ count, or None when the run failed. qnt-standard also
    tells states apart by what follows zero-probability transitions, so its
    result can be larger than the quotient; only its own quotient has to
    match the reference's size.
    """
    with b.op(f"{label} {mode}"):
        teacher, learner_mode = teacher_for(mode, target, partitioner)
        learned = traced_learn(tracer, teacher, partitioner, LearnerConfig(mode=learner_mode))
        b.count("mq", teacher.mq_count)
        b.count("eq", teacher.eq_count)
        with b.verifying():
            check(reference is not None, "no reference quotient")
            check(traced_hk(tracer, learned, reference, partitioner) is None, "not equivalent to the quotient")
            if mode == "qnt-standard":
                learned = tracer.call("automata.quotient", quotient, learned, partitioner)
            check(
                learned.n_states == reference.n_states,
                f"{learned.n_states} states, the quotient has {reference.n_states}",
            )
        return teacher.mq_count


class LearnRandom:
    """The paper's experiment: random instances learned in all three modes."""

    name = "learn-random"
    n, m, theta = 200, 10, 0.9
    band = (70, 90)
    instances = 10
    candidates = 40

    def setup(self, seed, tracer, workdir):
        # theta = 0.9 leaves between 1 and ~100 states with positive
        # probability; the band fixes the size the learner works on. About
        # 40% of instances fall in it, and drawing a fixed pool keeps the
        # set-up time from depending on the seed.
        in_band = []
        for j in itertools.count():
            if j >= self.candidates and len(in_band) >= self.instances:
                return in_band[: self.instances]
            if j >= 100 * self.candidates:
                raise RuntimeError("too few instances in the size band")
            spec = GenSpec(n=self.n, m=self.m, theta=self.theta, seed=seed * 100_000 + j)
            target = tracer.call("randgen.random_pdfa", random_pdfa, spec)
            if self.band[0] <= quotient(target, QUANT10).n_states <= self.band[1]:
                in_band.append(target)

    def batch(self, targets, tracer, b):
        part = partitioner_for(QUANT10, tracer)
        per_mode = {mode: [] for mode in MODES}
        for i, target in enumerate(targets):
            reference = None
            with b.op(f"quotient {i}"), b.verifying():
                reference = tracer.call("automata.quotient", quotient, target, part)
            for mode in MODES:
                mq = learn_and_verify(b, tracer, mode, target, reference, part, f"instance {i}")
                if mq is not None:
                    per_mode[mode].append(mq)
        with b.op("mode ordering"):
            med = [statistics.median(v) for v in per_mode.values()]
            check(med[0] <= med[1] <= med[2], f"median MQs per mode {med} break criterion 6")

    def close(self, env):
        pass


class LearnChain:
    """Learning with depth: a chain whose states differ only by long suffixes."""

    name = "learn-chain"
    n = 50

    def setup(self, seed, tracer, workdir):
        chain = chain_pdfa(self.n, seed)
        # screened like the other workloads' inputs: if the two drawn
        # distributions coincided, the chain would collapse to one state
        if quotient(chain, EXACT).n_states != self.n:
            raise RuntimeError("the chain's two distributions coincide")
        return chain

    def batch(self, chain, tracer, b):
        part = partitioner_for(EXACT, tracer)
        reference = None
        with b.op("quotient"), b.verifying():
            reference = tracer.call("automata.quotient", quotient, chain, part)
            check(reference.n_states == self.n, f"chain quotient has {reference.n_states} states")
        for mode in ("omit-zero", "qnt-standard"):
            learn_and_verify(b, tracer, mode, chain, reference, part, "chain")

    def close(self, env):
        pass


REMOTE_SYMBOLS = Alphabet(("p", "q", "r"))
REMOTE_MAP = SymbolMap((("p", "p", (2,)), ("q", "q", (3, 4)), ("r", "r", (5, 2))))


def remote_guide(depth: int) -> GuideAutomaton:
    """Stage i < depth allows p, q, r; stage `depth` allows only termination.

    The last state is the dead state that masked-out symbols lead to.
    """
    m = REMOTE_SYMBOLS.size
    masks = [(1,) * m + (0,)] * depth + [(0,) * m + (1,), (0,) * (m + 1)]
    dead = depth + 1
    delta = [(i + 1,) * m for i in range(depth)] + [(dead,) * m, (dead,) * m]
    return GuideAutomaton(REMOTE_SYMBOLS, tuple(masks), tuple(delta))


class ModelServer:
    """The served token models, in a process of their own (see server.py)."""

    def __init__(self, paths):
        src = str(Path(sys.modules["pdfalearn"].__file__).resolve().parent.parent)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server.py")), src, *map(str, paths)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            words = self.proc.stdout.readline().split()
            if words[:1] != ["ready"]:
                raise RuntimeError("model server did not start")
            self.url = words[1]
        except BaseException:
            self.stop()
            raise

    def _ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def use(self, index: int):
        if self._ask(f"use {index}").strip() != "ok":
            raise RuntimeError("model server did not switch models")

    def stats(self) -> dict:
        return json.loads(self._ask("stats"))

    def stop(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class RemoteEnv:
    models: list
    seeds: list
    server: ModelServer


class LearnRemote:
    """The paper's premise: every model query goes over HTTP to a served model."""

    name = "learn-remote"
    n, tokens = 40, 4
    instances = 40
    params = PacParams(epsilon=0.05, delta=0.05, max_len=30)
    # strings of at most two symbols: per-seed request counts of one random
    # model vary tenfold, so a batch needs many small models to keep the
    # total steady between seeds
    guide = remote_guide(2)
    strategy = TopP(0.9)

    def setup(self, seed, tracer, workdir):
        # client and server share one CPU: every request hands control from
        # one to the other, and a hand-off to another CPU waits for it to
        # wake, which on a shared host varies more than the work itself
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        models, seeds, paths = [], [], []
        for i in range(self.instances):
            spec = GenSpec(n=self.n, m=self.tokens, theta=0.0, seed=seed * 1000 + i)
            model = tracer.call("randgen.random_pdfa", random_pdfa, spec)
            path = Path(workdir) / f"tokens{i}.pdfa"
            save_pdfa(model, path)
            models.append(model)
            seeds.append(spec.seed)
            paths.append(path)
        server = ModelServer(paths)
        try:
            remote_token_model(server.url).next_tokens(())  # warm-up request
        except BaseException:
            server.stop()
            raise
        return RemoteEnv(models, seeds, server)

    def _learn(self, tm, seed, tracer, part):
        model = symbol_model(tm, REMOTE_MAP, REMOTE_SYMBOLS)
        if tracer.enabled:
            model = TracedLanguageModel(model, tracer, "lmbridge.symbol_next")
        model = tracer.call("automata.compose", compose, model, self.guide, self.strategy)
        if tracer.enabled:
            model = TracedLanguageModel(model, tracer, "automata.model_next")
        teacher = pac_teacher(model, part, self.params, seed=seed)
        return traced_learn(tracer, teacher, part), teacher

    def batch(self, env, tracer, b):
        part = partitioner_for(QUANT10, tracer)
        before = env.server.stats()
        for i, (tokens, seed) in enumerate(zip(env.models, env.seeds)):
            env.server.use(i)
            with b.op(f"remote instance {i}"):
                client = remote_token_model(env.server.url)
                tm = TracedTokenModel(client, tracer) if tracer.enabled else client
                try:
                    learned, teacher = self._learn(tm, seed, tracer, part)
                finally:
                    tracer.add("lmbridge.client_requests", client.request_count)
                b.count("mq", teacher.mq_count)
                b.count("eq", teacher.eq_count)
                tracer.add("teacher.model_queries", teacher.model_query_count)
                with b.verifying():
                    expected, local = self._learn(pdfa_token_model(tokens), seed, NULL_TRACER, part)
                    check(isomorphic(learned, expected), "differs from the in-process result")
                    check(
                        (teacher.mq_count, teacher.eq_count) == (local.mq_count, local.eq_count),
                        "query counts differ from the in-process run",
                    )
        after = env.server.stats()
        b.count("model_requests", after["requests"] - before["requests"])
        tracer.add("lmbridge.server_s", after["model_s"] - before["model_s"])

    def close(self, env):
        env.server.stop()


@dataclass
class AnalyzeEnv:
    big_path: Path
    chain: Pdfa
    digits: Alphabet
    digit_bases: list
    seed: int


class Analyze:
    """The quotient / sample / compare path, with no learning."""

    name = "analyze"
    big_n = 16_000
    chain_n = 1000
    digit_models = 10
    samples = 10_000
    compose_samples = 1000
    max_len = 25

    def setup(self, seed, tracer, workdir):
        # at theta = 0.9 about one instance in four has almost no states with
        # positive probability; of a fixed pair of candidates the first with
        # a quarter of its states positively reachable is kept, so set-up
        # does the same work for every seed
        big = None
        for j in itertools.count():
            if j >= 2 and big is not None:
                break
            if j >= 100:
                raise RuntimeError("no instance with a large positive part")
            spec = GenSpec(n=self.big_n, m=10, theta=0.9, seed=seed * 1000 + j)
            candidate = tracer.call("randgen.random_pdfa", random_pdfa, spec)
            if big is None and 4 * trim(candidate, positive_only=True).n_states >= self.big_n:
                big = candidate
        big_path = Path(workdir) / "big.pdfa"
        save_pdfa(big, big_path)
        digits = Alphabet(("dot",) + tuple(str(d) for d in range(10)))
        guide = digit_guide()
        bases = []
        for i in range(self.digit_models):
            # screened as in acceptance criterion 8: the composite must
            # terminate with probability above 0.9
            for j in range(100):
                spec = GenSpec(n=20, m=11, theta=0.0, seed=seed * 1000 + i + 100_000 * j)
                base = tracer.call("randgen.random_pdfa", random_pdfa, spec, alphabet=digits)
                if termination_mass(materialize_compose(base, guide, TopR(6)))[0] > 0.9:
                    bases.append(base)
                    break
            else:
                raise RuntimeError("no digit model passes the screening")
        return AnalyzeEnv(big_path, chain_pdfa(self.chain_n, seed), digits, bases, seed)

    def batch(self, env, tracer, b):
        part = partitioner_for(QUANT10, tracer)
        exact = partitioner_for(EXACT, tracer)
        guide = digit_guide()
        with b.op("load + quotient"):
            big = tracer.call("fileio.load_pdfa", load_pdfa, env.big_path)
            reduced = tracer.call("automata.quotient", quotient, big, part)
            with b.verifying():
                check(traced_hk(tracer, big, reduced, part) is None, "quotient differs from its input")
        with b.op("chain quotient"):
            reduced = tracer.call("automata.quotient", quotient, env.chain, exact)
            with b.verifying():
                check(reduced.n_states == self.chain_n, f"chain quotient has {reduced.n_states} states")
                check(traced_hk(tracer, env.chain, reduced, exact) is None, "chain quotient differs from its input")
        first_target = None
        for i, base in enumerate(env.digit_bases):
            with b.op(f"report {i}"):
                target = tracer.call("automata.materialize_compose", materialize_compose, base, guide, TopR(6))
                if first_target is None:
                    first_target = target
                mass = tracer.call("automata.termination_mass", termination_mass, target)[0]
                drawn = self._sample(tracer, target.language_model(), self.samples, env.seed * 100 + i)
                report = tracer.call(
                    "pipeline.compare_distributions",
                    compare_distributions,
                    drawn,
                    env.digits,
                    model=target,
                    bins=10,
                    max_len=self.max_len,
                )
                with b.verifying():
                    check(mass > 0.9, f"termination mass {mass} below the screening bound")
                    completed = report.n_samples - report.truncated
                    check(sum(report.observed) == completed, "observed bins do not sum to the completed samples")
        with b.op("compose sample"):
            model = tracer.call("automata.compose", compose, PdfaLanguageModel(env.digit_bases[0]), guide, TopR(6))
            if tracer.enabled:
                model = TracedLanguageModel(model, tracer, "automata.model_next")
            drawn = self._sample(tracer, model, self.compose_samples, env.seed)
            with b.verifying():
                check(first_target is not None, "no materialized reference")
                exact_lm = first_target.language_model()
                check(
                    all(exact_lm.next(s.symbols) is not None for s in drawn),
                    "on-demand composition sampled a string the materialized product does not define",
                )

    def _sample(self, tracer, model, n, seed):
        drawn = tracer.call("pipeline.guided_sample", guided_sample, model, n, max_len=self.max_len, seed=seed)
        tracer.add("pipeline.strings", len(drawn))
        tracer.add("pipeline.truncated", sum(s.truncated for s in drawn))
        return drawn

    def close(self, env):
        pass


WORKLOADS = {w.name: w for w in (LearnRandom(), LearnChain(), LearnRemote(), Analyze())}
