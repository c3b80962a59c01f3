"""Benchmark drivers: per-run records and parameter sweeps.

The primary metric is the number of membership queries; wall time is
recorded but never asserted, since it is hardware-bound.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass
from typing import Iterable

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
from .teacher import exact_teacher, filter_teacher

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


def run_learning(
    target: Pdfa,
    partitioner: Partitioner,
    mode: str,
    spec: GenSpec,
    verify: bool = True,
) -> BenchRecord:
    """One learning run; failures are recorded, not raised."""
    teacher, learner_mode = teacher_for_mode(target, partitioner, mode)
    t0 = time.perf_counter()
    error = ""
    learned_states = 0
    verified = False
    try:
        learned = learn(teacher, partitioner, LearnerConfig(mode=learner_mode))
        learned_states = learned.n_states
        if verify:
            verified = hk_equiv(learned, quotient(target, partitioner), partitioner) is None
    except PdfaError as exc:
        error = f"{type(exc).__name__}: {exc}"
        logger.warning("run failed (mode=%s seed=%s): %s", mode, spec.seed, error)
    wall_ms = (time.perf_counter() - t0) * 1000
    return BenchRecord(
        n=spec.n,
        m=spec.m,
        theta=spec.theta,
        kappa=getattr(partitioner, "name", "?"),
        mode=mode,
        seed=spec.seed,
        mq_count=teacher.mq_count,
        eq_count=teacher.eq_count,
        ce_count=max(teacher.eq_count - 1, 0),
        learned_states=learned_states,
        wall_ms=wall_ms,
        verified=verified,
        error=error,
    )


def sweep(
    ns: Iterable[int],
    thetas: Iterable[float],
    m: int,
    partitioner: Partitioner,
    seeds: Iterable[int],
    modes: Iterable[str] = MODES,
    verify: bool = True,
) -> list[BenchRecord]:
    """Cross product of sizes, densities, seeds, and algorithm modes."""
    records = []
    for n in ns:
        for theta in thetas:
            for seed in seeds:
                spec = GenSpec(n=n, m=m, theta=theta, seed=seed)
                target = random_pdfa(spec)
                for mode in modes:
                    records.append(run_learning(target, partitioner, mode, spec, verify))
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
