"""Next-symbol distributions, simplex equivalences, and sampling strategies.

A distribution assigns probability to every alphabet symbol plus a reserved
termination marker. Equivalences ("partitioners") map distributions to
hashable class labels; every implementation guarantees that equal labels
imply equal supports, so undefinedness propagates consistently through the
congruence machinery built on top.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import AllZeroError, UnknownSymbolError

Number = Union[int, float, Fraction]
ClassId = Hashable

SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol names with a reserved termination marker.

    Symbols are addressed by dense index 0..m-1 everywhere in the package;
    the terminal occupies slot m in probability vectors and masks.
    """

    symbols: tuple[str, ...]
    terminal: str = "$"

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be unique")
        if self.terminal in self.symbols:
            raise ValueError("terminal marker must not be a symbol")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def terminal_index(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self.symbols.index(name)
        except ValueError:
            raise UnknownSymbolError(f"unknown symbol {name!r}") from None

    def string(self, text: Iterable[str]) -> tuple[int, ...]:
        """Convert an iterable of symbol names (e.g. 'ab') to index form."""
        return tuple(self.index(c) for c in text)

    def format(self, u: Sequence[int]) -> str:
        return "".join(self.symbols[i] for i in u) if u else "λ"


def _check_index(alphabet: Alphabet, i: int):
    if not 0 <= i < alphabet.size:
        raise UnknownSymbolError(f"symbol index {i} out of range for |Σ|={alphabet.size}")


class Distribution:
    """Immutable probability vector over Σ ∪ {terminal} (terminal last).

    Entries may be floats or exact Fractions; mixing is allowed so that
    worked examples with rational probabilities stay exact.
    """

    __slots__ = ("alphabet", "probs", "_support", "_cdf", "_label")

    def __init__(self, alphabet: Alphabet, probs: Sequence[Number]):
        probs = tuple(probs)
        if len(probs) != alphabet.size + 1:
            raise ValueError(f"expected {alphabet.size + 1} entries, got {len(probs)}")
        if any(not p >= 0 for p in probs):  # written so that NaN fails it
            raise ValueError("probabilities must be nonnegative")
        total = sum(probs)
        if not abs(total - 1) <= SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_support", frozenset(i for i in range(alphabet.size) if probs[i] > 0))
        object.__setattr__(self, "_cdf", None)
        object.__setattr__(self, "_label", None)

    def __setattr__(self, *_):
        raise AttributeError("Distribution is immutable")

    @classmethod
    def from_map(cls, alphabet: Alphabet, entries: Mapping[str, Number]) -> "Distribution":
        """Build from a name->probability map; missing names default to 0."""
        probs = [0] * (alphabet.size + 1)
        for name, p in entries.items():
            idx = alphabet.terminal_index if name == alphabet.terminal else alphabet.index(name)
            probs[idx] = p
        return cls(alphabet, probs)

    def prob(self, symbol: int) -> Number:
        _check_index(self.alphabet, symbol)
        return self.probs[symbol]

    @property
    def terminal_prob(self) -> Number:
        return self.probs[-1]

    def support(self) -> frozenset[int]:
        """Symbols with positive probability; the terminal never counts."""
        return self._support

    def support_with_terminal(self) -> frozenset[int]:
        if self.probs[-1] > 0:
            return self._support | {self.alphabet.terminal_index}
        return self._support

    def cdf(self) -> list[float]:
        """Cumulative float probabilities, terminal last; the last entry is 1.0.

        Computed once, on first use, with the arithmetic of numpy's
        `Generator.choice(len(p), p=p / p.sum())`, so that `draw` picks the
        index `choice` would pick from the same generator state.
        """
        if self._cdf is None:
            p = np.asarray([float(x) for x in self.probs])
            cdf = (p / p.sum()).cumsum()
            cdf /= cdf[-1]
            object.__setattr__(self, "_cdf", cdf.tolist())
        return self._cdf

    def draw(self, rng: np.random.Generator) -> int:
        """One categorical draw (terminal = m) from one `rng.random()` value."""
        return bisect_right(self.cdf(), rng.random())

    def label(self, partitioner: "Partitioner") -> ClassId:
        """`partitioner.label(self)`, kept until another partitioner object asks."""
        memo = self._label  # read once, so a concurrent caller's label is never returned
        if memo is None or memo[0] is not partitioner:
            memo = (partitioner, partitioner.label(self))
            object.__setattr__(self, "_label", memo)
        return memo[1]

    def as_map(self) -> dict[str, Number]:
        out = {name: p for name, p in zip(self.alphabet.symbols, self.probs)}
        out[self.alphabet.terminal] = self.probs[-1]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self.alphabet == other.alphabet
            and self.probs == other.probs
        )

    def __hash__(self):
        return hash((self.alphabet, self.probs))

    def __repr__(self):
        parts = [f"{n}:{p}" for n, p in self.as_map().items()]
        return "Distribution({%s})" % ", ".join(parts)


def normalize(alphabet: Alphabet, weights) -> Distribution:
    """Divide nonnegative weights by their sum.

    Accepts a full-length sequence (terminal last) or a name->weight map.
    Raises AllZeroError when every weight is zero, which callers treat as a
    dead (undefined) state.
    """
    if isinstance(weights, Mapping):
        vec = [0] * (alphabet.size + 1)
        for name, w in weights.items():
            idx = alphabet.terminal_index if name == alphabet.terminal else alphabet.index(name)
            vec[idx] = w
    else:
        vec = list(weights)
        if len(vec) != alphabet.size + 1:
            raise ValueError(f"expected {alphabet.size + 1} weights, got {len(vec)}")
    if any(w < 0 for w in vec):
        raise ValueError("weights must be nonnegative")
    total = sum(vec)
    if total == 0:
        raise AllZeroError("all weights are zero")
    return Distribution(alphabet, tuple(w / total for w in vec))


# ---------------------------------------------------------------------------
# Sampling strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopR:
    """Keep the r most likely entries of Σ ∪ {terminal}, renormalize."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")


@dataclass(frozen=True)
class TopP:
    """Keep the smallest high-probability prefix with cumulative mass >= p."""

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0, 1]")


SamplingStrategy = Union[TopR, TopP, None]


def _ranked_indices(dist: Distribution) -> list[int]:
    # Descending probability; ties by ascending symbol index, terminal last.
    term = dist.alphabet.terminal_index
    return sorted(range(len(dist.probs)), key=lambda i: (-dist.probs[i], i == term, i))


def apply_sampling(strategy: SamplingStrategy, dist: Distribution) -> Distribution:
    """Apply a support-shrinking sampling strategy; None is the identity."""
    if strategy is None:
        return dist
    order = _ranked_indices(dist)
    if isinstance(strategy, TopR):
        keep = set(order[: strategy.r])
    elif isinstance(strategy, TopP):
        keep = set()
        cum = 0
        for i in order:
            keep.add(i)
            cum += dist.probs[i]
            if cum >= strategy.p:
                break
    else:
        raise TypeError(f"unknown sampling strategy {strategy!r}")
    weights = tuple(p if i in keep else 0 for i, p in enumerate(dist.probs))
    return normalize(dist.alphabet, weights)


# ---------------------------------------------------------------------------
# Partitioners (equivalences on the simplex)
# ---------------------------------------------------------------------------

class _ZeroClass:
    """Reserved label for undefined strings; never produced for a distribution."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"


ZERO_CLASS = _ZeroClass()


class Partitioner:
    """Equivalence on distributions, exposed as a deterministic labeling.

    Implementations must guarantee: equal labels imply equal supports.
    """

    name: str = "abstract"

    def label(self, dist: Distribution) -> ClassId:
        raise NotImplementedError


class ExactPartitioner(Partitioner):
    """Distributions are equivalent iff their probability vectors are equal."""

    name = "exact"

    def label(self, dist: Distribution) -> ClassId:
        return dist.probs

    def __repr__(self):
        return "ExactPartitioner()"

    def __eq__(self, other):
        return isinstance(other, ExactPartitioner)

    def __hash__(self):
        return hash("exact")


class QuantizationPartitioner(Partitioner):
    """Per-coordinate bin index with a reserved bin for exact zeros.

    Probability 0 maps to the reserved bin (represented as -1) so that
    0 < p < 1/kappa and p = 0 never collide; this is what keeps equal
    labels support-equal.
    """

    def __init__(self, kappa: int):
        if kappa < 1:
            raise ValueError("kappa must be >= 1")
        self.kappa = kappa
        self.name = f"quant:{kappa}"

    def _bin(self, p: Number) -> int:
        if p == 0:
            return -1
        return min(int(p * self.kappa), self.kappa - 1)

    def label(self, dist: Distribution) -> ClassId:
        return tuple(self._bin(p) for p in dist.probs)

    def __repr__(self):
        return f"QuantizationPartitioner({self.kappa})"

    def __eq__(self, other):
        return isinstance(other, QuantizationPartitioner) and other.kappa == self.kappa

    def __hash__(self):
        return hash(("quant", self.kappa))


class TopKPartitioner(Partitioner):
    """Label = (support set, rank-ordered top-r entries of Σ ∪ {terminal})."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        self.name = f"topk:{r}"

    def label(self, dist: Distribution) -> ClassId:
        ranked = tuple(_ranked_indices(dist)[: self.r])
        return (dist.support_with_terminal(), ranked)

    def __repr__(self):
        return f"TopKPartitioner({self.r})"

    def __eq__(self, other):
        return isinstance(other, TopKPartitioner) and other.r == self.r

    def __hash__(self):
        return hash(("topk", self.r))
