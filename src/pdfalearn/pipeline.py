"""Guided generation pipeline: sampling, fidelity statistics, stock guides.

Sampling walks a language model ancestrally until the termination symbol is
drawn or a length cap is hit. The statistics compare sampled value/length
distributions either against a second sample or against the exact
distribution of a finite model, using Pearson chi-squared over equal-width
value bins and Kolmogorov-Smirnov tests.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats
from scipy.special import gammaincc

from .automata import GuideAutomaton, LanguageModel, Pdfa, PdfaLanguageModel, String, SupportEdges
from .errors import AllZeroError, ParseFailureError, UndefinedStartError
from .fileio import guide_from_spec
from .simplex import Alphabet

DOT_NAMES = frozenset({"dot", "."})


@dataclass(frozen=True)
class SampledString:
    symbols: String
    truncated: bool

    def __len__(self):
        return len(self.symbols)


def guided_sample(model: LanguageModel, n: int, max_len: int = 50, seed: int = 0) -> list[SampledString]:
    """Draw n independent ancestral samples; walks at max_len are truncated.

    Deterministic per (seed, n, max_len). Explicit automata take a batched
    path that steps all pending walks at once; other models are stepped
    through their cursors. A walk into an undefined state is an AllZeroError.
    """
    if n < 0 or max_len < 1:
        raise ValueError("need n >= 0 and max_len >= 1")
    if n == 0:
        return []
    if model.dist(model.start()) is None:
        raise UndefinedStartError("model is undefined at the empty string")
    if isinstance(model, PdfaLanguageModel):
        return _sample_pdfa(model.pdfa, n, max_len, seed)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cursor, u = model.start(), []
        truncated = True
        while len(u) < max_len:
            dist = model.dist(cursor)
            if dist is None:  # a guide can lead a sampled step into a dead state
                raise AllZeroError(f"model is undefined after the sampled prefix {tuple(u)}")
            s = dist.draw(rng)
            if s == dist.alphabet.terminal_index:
                truncated = False
                break
            u.append(s)
            cursor = model.step(cursor, s)
        out.append(SampledString(tuple(u), truncated))
    return out


def _sample_pdfa(pdfa: Pdfa, n: int, max_len: int, seed: int) -> list[SampledString]:
    rng = np.random.default_rng(seed)
    m = pdfa.alphabet.size
    cdf = np.asarray([dist.cdf() for dist in pdfa.dists])
    succ = np.asarray(
        [[t if t is not None else 0 for t in row] for row in pdfa.trans], dtype=np.int64
    )
    states = np.full(n, pdfa.initial, dtype=np.int64)
    active = np.arange(n)
    # walk i's symbols fill row i up to lengths[i]; walks still active at
    # max_len are the truncated ones
    picks = np.zeros((n, max_len), dtype=np.min_scalar_type(m))
    lengths = np.full(n, max_len)
    for step in range(max_len):
        if active.size == 0:
            break
        draws = rng.random(active.size)
        picked = (draws[:, None] < cdf[states[active]]).argmax(axis=1)
        finished = picked == m
        lengths[active[finished]] = step
        keep = ~finished
        active, picked = active[keep], picked[keep]
        picks[active, step] = picked
        states[active] = succ[states[active], picked]
    truncated = np.zeros(n, dtype=bool)
    truncated[active] = True
    return [
        SampledString(tuple(row[:k]), trunc)
        for row, k, trunc in zip(picks.tolist(), lengths.tolist(), truncated.tolist())
    ]


def digit_indices(alphabet: Alphabet) -> list[Optional[int]]:
    """Per-symbol digit value, None for non-digit symbols."""
    out = []
    for name in alphabet.symbols:
        if len(name) == 1 and name.isdigit():
            out.append(int(name))
        else:
            out.append(None)
    return out


def parse_float_value(symbols: String, alphabet: Alphabet) -> float:
    """Interpret a sampled digit string as the fraction 0.d1d2...

    A single leading dot-like symbol is allowed; any other non-digit symbol
    is a parse failure.
    """
    return _parse_values([symbols], alphabet)[0]


def _parse_values(strings: list[String], alphabet: Alphabet) -> list[float]:
    """parse_float_value of each string, with numpy over all strings at once.

    Digit j of every string adds at once, in order of j, with the scale a
    left-to-right loop reaches there (0.1, then /10 per digit), so each value
    is the float that loop produces. The first non-digit symbol, in string
    order, is the one reported.
    """
    table = digit_indices(alphabet)
    dots = {s for s, name in enumerate(alphabet.symbols) if name in DOT_NAMES}
    bodies = [u[1:] if u and u[0] in dots else u for u in strings]
    lengths = np.fromiter(map(len, bodies), dtype=np.intp, count=len(bodies))
    flat = np.fromiter(itertools.chain.from_iterable(bodies), dtype=np.intp, count=int(lengths.sum()))
    row = np.repeat(np.arange(len(bodies)), lengths)
    digit = np.asarray([-1 if d is None else d for d in table])[flat]
    bad = np.flatnonzero(digit < 0)
    if bad.size:
        at = int(bad[0])
        raise ParseFailureError(
            f"symbol {alphabet.symbols[int(flat[at])]!r} is not a digit"
            f" in {alphabet.format(strings[int(row[at])])!r}"
        )
    # row i of `grid` holds string i's digits, padded with zeros, which add nothing
    grid = np.zeros((len(bodies), int(lengths.max(initial=0))))
    grid[row, np.arange(flat.size) - (np.cumsum(lengths) - lengths)[row]] = digit
    values = np.zeros(len(bodies))
    scale = 0.1
    for column in grid.T:
        values += column * scale
        scale /= 10
    return values.tolist()


@dataclass
class SampleReport:
    """Counts and test statistics for one comparison."""

    n_samples: int
    values: list[float]
    lengths: list[int]
    truncated: int
    bins: int
    observed: list[int]
    expected: list[float]
    chi2: tuple[float, int, float]
    ks_values: Optional[tuple[float, float]]
    ks_lengths: Optional[tuple[float, float]]

    def to_table(self) -> str:
        lines = ["#bin\tobserved\texpected"]
        for i, (o, e) in enumerate(zip(self.observed, self.expected)):
            lines.append(f"{i}\t{o}\t{e:.6f}")
        stat, dof, p = self.chi2
        lines.append(f"#chi2\t{stat:.6f}\tdof={dof}\tpvalue={p:.6g}")
        if self.ks_values is not None:
            lines.append(f"#ks_values\t{self.ks_values[0]:.6f}\tpvalue={self.ks_values[1]:.6g}")
        if self.ks_lengths is not None:
            lines.append(f"#ks_lengths\t{self.ks_lengths[0]:.6f}\tpvalue={self.ks_lengths[1]:.6g}")
        return "\n".join(lines)


def _bin_index(value: float, bins: int) -> int:
    return min(int(value * bins), bins - 1)


def _bin_counts(values, bins: int) -> np.ndarray:
    """How many values fall in each bin, the bin of each value as _bin_index's."""
    index = np.minimum((np.asarray(values, dtype=float) * bins).astype(int), bins - 1)
    return np.bincount(index, minlength=bins)


def _chi2_pvalue(stat: float, dof: int) -> float:
    if dof <= 0:
        return 1.0
    return float(gammaincc(dof / 2.0, stat / 2.0))


def _chi2_against_expected(observed: Sequence[int], expected: Sequence[float]) -> tuple[float, int, float]:
    stat = 0.0
    dof = -1
    for o, e in zip(observed, expected):
        if e <= 0:
            if o > 0:
                return math.inf, max(dof, 1), 0.0
            continue
        stat += (o - e) ** 2 / e
        dof += 1
    return stat, max(dof, 0), _chi2_pvalue(stat, max(dof, 0))


def _chi2_two_sample(counts_a: Sequence[int], counts_b: Sequence[int]) -> tuple[float, int, float]:
    total_a, total_b = sum(counts_a), sum(counts_b)
    stat = 0.0
    dof = -1
    for a, b in zip(counts_a, counts_b):
        pooled = a + b
        if pooled == 0:
            continue
        ea = total_a * pooled / (total_a + total_b)
        eb = total_b * pooled / (total_a + total_b)
        stat += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
        dof += 1
    return stat, max(dof, 0), _chi2_pvalue(stat, max(dof, 0))


def _values_and_lengths(samples: list[SampledString], alphabet: Alphabet):
    completed = [s.symbols for s in samples if not s.truncated]
    return _parse_values(completed, alphabet), list(map(len, completed)), len(samples) - len(completed)


def compare_distributions(
    samples: list[SampledString],
    alphabet: Alphabet,
    other: Optional[list[SampledString]] = None,
    model: Optional[Pdfa] = None,
    bins: int = 10,
    max_len: int = 50,
) -> SampleReport:
    """Compare sampled values/lengths against a second sample or a model.

    Truncated walks are excluded from the value and length statistics and
    reported separately. With a model, expected bin masses and the length
    law are computed exactly, conditioned on completion within max_len.
    """
    if not samples:
        raise ValueError("need at least one sample")
    if (other is None) == (model is None):
        raise ValueError("pass exactly one of `other` or `model`")
    values, lengths, truncated = _values_and_lengths(samples, alphabet)
    observed = _bin_counts(values, bins).tolist()

    if model is not None:
        probs = analytic_value_bins(model, bins, max_len)
        expected = [p * len(values) for p in probs]
        chi2 = _chi2_against_expected(observed, expected)
        length_pmf = analytic_length_pmf(model, max_len)
        # value KS uses a finer decimal grid so the CDF error stays far
        # below the statistic's noise floor
        fine = 1000
        ks_vals = _ks_against_binned(values, analytic_value_bins(model, fine, max_len), fine)
        ks_lens = _ks_against_pmf(lengths, length_pmf)
    else:
        values_b, lengths_b, _ = _values_and_lengths(other, alphabet)
        counts_b = _bin_counts(values_b, bins).tolist()
        chi2 = _chi2_two_sample(observed, counts_b)
        scale = len(values) / max(len(values_b), 1)
        expected = [c * scale for c in counts_b]
        ks_vals = _ks_two_sample(values, values_b)
        ks_lens = _ks_two_sample(lengths, lengths_b)
    return SampleReport(
        n_samples=len(samples),
        values=values,
        lengths=lengths,
        truncated=truncated,
        bins=bins,
        observed=observed,
        expected=expected,
        chi2=chi2,
        ks_values=ks_vals,
        ks_lengths=ks_lens,
    )


def _ks_two_sample(a, b):
    if not a or not b:
        return None
    res = stats.ks_2samp(a, b, mode="asymp")
    return float(res.statistic), float(res.pvalue)


def _ks_discrete(ecdf: np.ndarray, cdf: np.ndarray, n: int):
    """KS distance between two right-continuous CDFs sampled at the atoms.

    Both arrays are evaluated at the same support points, which sidesteps
    the tie inflation a continuous-data KS suffers on discrete samples; the
    p-value comes from the asymptotic Kolmogorov law (conservative here).
    """
    stat = float(np.max(np.abs(ecdf - cdf)))
    pvalue = float(stats.kstwobign.sf(stat * math.sqrt(n)))
    return stat, min(pvalue, 1.0)


def _ks_against_binned(values, bin_probs, bins):
    if not values:
        return None
    n = len(values)
    return _ks_discrete(np.cumsum(_bin_counts(values, bins)) / n, np.cumsum(bin_probs), n)


def _ks_against_pmf(lengths, pmf):
    if not lengths:
        return None
    n = len(lengths)
    counts = np.bincount(np.clip(lengths, 0, len(pmf) - 1), minlength=len(pmf))
    return _ks_discrete(np.cumsum(counts) / n, np.cumsum(pmf), n)


# ---------------------------------------------------------------------------
# Exact value/length laws of a finite model
# ---------------------------------------------------------------------------

def digits_deciding_bin(bins: int) -> Optional[int]:
    """The fewest digits k <= 6 that decide each of `bins` equal-width bins (10^k % bins == 0), or None."""
    return next((k for k in range(1, 7) if (10**k) % bins == 0), None)


def analytic_value_bins(pdfa: Pdfa, bins: int, max_len: int) -> list[float]:
    """Exact bin masses of parsed values, conditioned on completion.

    Bin edges must align with a decimal grid (`digits_deciding_bin`), so a bounded
    digit prefix decides every bin. AllZeroError if nothing completes within max_len.
    """
    depth_needed = digits_deciding_bin(bins)
    if depth_needed is None:
        raise ValueError(f"{bins} equal-width bins do not align with a decimal digit grid")
    digits = digit_indices(pdfa.alphabet)
    support = SupportEdges(pdfa)
    # completes[j][q]: probability of drawing the terminal within j draws from q
    completes = [[0.0] * pdfa.n_states]
    for _ in range(max_len):
        completes.append(support.completion_step(completes[-1])[0])
    masses = [0.0] * bins
    total = 0.0
    # frontier over (state, depth, digit prefix); dot-like symbols are allowed
    # before the first digit and contribute nothing to the value
    frontier = {(pdfa.initial, 0, ()): 1.0}
    while frontier:
        grown: dict = collections.defaultdict(float)
        for (q, depth, prefix), mass in frontier.items():
            # a decided prefix adds the mass that completes in time and stops;
            # any other adds the mass that terminates here and grows
            decided = len(prefix) >= depth_needed
            if not decided and depth >= max_len:
                continue
            value = sum(d * 10.0 ** -(i + 1) for i, d in enumerate(prefix))
            p = mass * (completes[max_len - depth][q] if decided else support.terminal[q])
            masses[_bin_index(value, bins)] += p
            total += p
            if decided:
                continue
            for s, prob, t in support.edges[q]:
                d = digits[s]
                if d is None:
                    if prefix:
                        raise ParseFailureError(
                            f"non-digit symbol {pdfa.alphabet.symbols[s]!r} after digits"
                        )
                    nxt = prefix
                else:
                    nxt = prefix + (d,)
                grown[(t, depth + 1, nxt)] += mass * prob
        frontier = grown
    if total <= 0:
        raise AllZeroError("model never completes within max_len")
    return [m / total for m in masses]


def analytic_length_pmf(pdfa: Pdfa, max_len: int) -> list[float]:
    """Exact law of completed lengths (0..max_len-1), conditioned on completion (AllZeroError if none)."""
    n = pdfa.n_states
    support = SupportEdges(pdfa)
    alive = [0.0] * n
    alive[pdfa.initial] = 1.0
    pmf = []
    for _ in range(max_len):
        done = 0.0
        nxt = [0.0] * n
        for mass, terminal, edges in zip(alive, support.terminal, support.edges):
            if mass == 0:
                continue
            done += mass * terminal
            for _, p, t in edges:
                nxt[t] += mass * p
        pmf.append(done)
        alive = nxt
    total = sum(pmf)
    if total <= 0:
        raise AllZeroError("model never completes within max_len")
    return [p / total for p in pmf]


# ---------------------------------------------------------------------------
# Stock guides
# ---------------------------------------------------------------------------

def digit_guide() -> GuideAutomaton:
    """Dot, then at least one digit, termination only after a digit."""
    names = ("dot",) + tuple(str(d) for d in range(10))
    spec = [
        "alphabet " + " ".join(names),
        "states 3",
        "initial 0",
        "state 0",
        "allow dot",
        "state 1",
        "allow " + " ".join(str(d) for d in range(10)),
        "state 2",
        "allow " + " ".join(str(d) for d in range(10)) + " $",
        "trans 0 dot 1",
    ]
    for d in range(10):
        spec.append(f"trans 1 {d} 2")
        spec.append(f"trans 2 {d} 2")
    return guide_from_spec("\n".join(spec))


def chain_guide(alphabet: Alphabet, stages: list[list[str]]) -> GuideAutomaton:
    """Linear guide: stage i allows its listed symbols, termination at the end."""
    lines = [
        "alphabet " + " ".join(alphabet.symbols),
        f"terminal {alphabet.terminal}",
        f"states {len(stages) + 1}",
        "initial 0",
    ]
    for i, stage in enumerate(stages):
        lines.append(f"state {i}")
        lines.append("allow " + " ".join(stage))
        for name in stage:
            lines.append(f"trans {i} {name} {i + 1}")
    lines.append(f"state {len(stages)}")
    lines.append(f"allow {alphabet.terminal}")
    return guide_from_spec("\n".join(lines))
