"""Benchmark drivers: per-run records and parameter sweeps.

The primary metric is the number of membership queries; wall time is
recorded but never asserted, since it is hardware-bound.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .automata import Pdfa, quotient
from .equivcheck import hk_equiv
from .errors import ParseFailureError, PdfaError
from .learner import LearnerConfig, LearnerMode, learn
from .randgen import GenSpec, random_pdfa
from .simplex import (
    ExactPartitioner,
    Partitioner,
    QuantizationPartitioner,
    TopKPartitioner,
)
from .teacher import Teacher, exact_teacher, filter_teacher

logger = logging.getLogger(__name__)

MODES = ("omit-zero", "qnt-filter", "qnt-standard")


def parse_partitioner(spec: str) -> Partitioner:
    """Parse `exact`, `quant:K`, or `topk:R`."""
    if spec == "exact":
        return ExactPartitioner()
    kind, _, arg = spec.partition(":")
    try:
        if kind == "quant":
            return QuantizationPartitioner(int(arg))
        if kind == "topk":
            return TopKPartitioner(int(arg))
    except ValueError:
        pass
    raise ParseFailureError(f"bad equivalence spec {spec!r} (want exact|quant:K|topk:R)")


@dataclass
class BenchRecord:
    n: int
    m: int
    theta: float
    kappa: str
    mode: str
    seed: int
    mq_count: int
    eq_count: int
    ce_count: int
    learned_states: int
    wall_ms: float
    verified: bool
    error: str = ""

    HEADER = "#n\tm\ttheta\tequiv\tmode\tseed\tmq_count\teq_count\tce_count\tlearned_states\twall_ms\tverified\terror"

    def to_row(self) -> str:
        return "\t".join(
            str(x)
            for x in (
                self.n,
                self.m,
                self.theta,
                self.kappa,
                self.mode,
                self.seed,
                self.mq_count,
                self.eq_count,
                self.ce_count,
                self.learned_states,
                f"{self.wall_ms:.3f}",
                int(self.verified),
                self.error,
            )
        )


def teacher_for_mode(target: Pdfa, partitioner: Partitioner, mode: str):
    if mode == "omit-zero":
        return exact_teacher(target, partitioner), LearnerMode.OMIT_ZERO
    if mode == "qnt-filter":
        return filter_teacher(target, partitioner), LearnerMode.QNT_STANDARD
    if mode == "qnt-standard":
        return exact_teacher(target, partitioner), LearnerMode.QNT_STANDARD
    raise ValueError(f"unknown mode {mode!r}")


def learning_run(
    teacher: Teacher, learner_mode: LearnerMode, partitioner: Partitioner, reference: Optional[Pdfa] = None, *,
    n: Optional[int], theta: float, mode: str, seed: int,
) -> tuple[Pdfa, BenchRecord]:
    """Learn from a built teacher: the learned automaton and the run's record.

    `wall_ms` times `learn` alone. With a reference automaton, `verified`
    says whether the learned one is equivalent to it modulo the
    partitioner, a check left out of `wall_ms`. `n` None records the
    learned state count. A PdfaError from `learn` is raised again, the
    record of the failed run as its `record`.
    """
    learned = failure = None
    t0 = time.perf_counter()
    try:
        learned = learn(teacher, partitioner, LearnerConfig(mode=learner_mode))
    except PdfaError as exc:
        failure = exc
    wall_ms = (time.perf_counter() - t0) * 1000
    learned_states = learned.n_states if learned is not None else 0
    verified = learned is not None and reference is not None and hk_equiv(learned, reference, partitioner) is None
    record = BenchRecord(
        n=learned_states if n is None else n,
        m=teacher.alphabet.size,
        theta=theta,
        kappa=partitioner.name,
        mode=mode,
        seed=seed,
        mq_count=teacher.mq_count,
        eq_count=teacher.eq_count,
        ce_count=max(teacher.eq_count - 1, 0),
        learned_states=learned_states,
        wall_ms=wall_ms,
        verified=verified,
    )
    if failure is not None:
        failure.record = record
        raise failure
    return learned, record


def run_learning(
    target: Pdfa, partitioner: Partitioner, mode: str, spec: GenSpec, reference: Optional[Pdfa] = None
) -> BenchRecord:
    """One sweep run, verified against `reference`, the target's quotient
    unless given; a failure is recorded in `error`, not raised."""
    teacher, learner_mode = teacher_for_mode(target, partitioner, mode)
    if reference is None:
        reference = quotient(target, partitioner)
    try:
        return learning_run(
            teacher, learner_mode, partitioner, reference, n=spec.n, theta=spec.theta, mode=mode, seed=spec.seed
        )[1]
    except PdfaError as exc:
        exc.record.error = f"{type(exc).__name__}: {exc}"
        logger.warning("run failed (mode=%s seed=%s): %s", mode, spec.seed, exc.record.error)
        return exc.record


def sweep(
    ns: Iterable[int],
    thetas: Iterable[float],
    m: int,
    partitioner: Partitioner,
    seeds: Iterable[int],
) -> list[BenchRecord]:
    """Cross product of sizes, densities, seeds, and algorithm modes."""
    records = []
    for n in ns:
        for theta in thetas:
            for seed in seeds:
                spec = GenSpec(n=n, m=m, theta=theta, seed=seed)
                target = random_pdfa(spec)
                reference = quotient(target, partitioner)
                records.extend(run_learning(target, partitioner, mode, spec, reference) for mode in MODES)
    return records


def median_mq_by(records: list[BenchRecord], key=lambda r: r.n) -> dict:
    """Median mq_count per (key, mode) over successful runs."""
    groups: dict = {}
    for r in records:
        if r.error:
            continue
        groups.setdefault((key(r), r.mode), []).append(r.mq_count)
    return {k: statistics.median(v) for k, v in groups.items()}


def format_records(records: list[BenchRecord]) -> str:
    lines = [BenchRecord.HEADER]
    lines.extend(r.to_row() for r in records)
    return "\n".join(lines) + "\n"


def format_medians(records: list[BenchRecord], key=lambda r: r.n, key_name: str = "n") -> str:
    med = median_mq_by(records, key)
    keys = sorted({k for k, _ in med})
    lines = ["#" + key_name + "\t" + "\t".join(MODES)]
    for k in keys:
        row = [str(k)] + [str(med.get((k, mode), "")) for mode in MODES]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
