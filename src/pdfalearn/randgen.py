"""Random PDFA benchmark instances with controllable zero-probability density."""

from __future__ import annotations

import string as _string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .automata import Pdfa, reachable_states
from .simplex import Alphabet, Distribution


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one benchmark instance family."""

    n: int
    m: int
    theta: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not 0 <= self.theta < 1:
            raise ValueError("theta must lie in [0, 1)")


def default_symbols(m: int) -> tuple[str, ...]:
    if m <= 26:
        return tuple(_string.ascii_lowercase[:m])
    return tuple(f"s{i}" for i in range(m))


def random_dfa(n: int, m: int, seed) -> tuple[tuple[int, ...], ...]:
    """Uniformly random total transition map on n states, trimmed from state 0.

    The reachable part is renumbered in BFS order; its size is at most n and
    concentrates near n for reasonable m.
    """
    raw = np.random.default_rng(seed).integers(0, n, size=(n, m)).tolist()
    order = reachable_states(raw)
    remap = {old: new for new, old in enumerate(order)}
    return tuple(tuple(remap[t] for t in raw[q]) for q in order)


def assign_distributions(
    dfa: tuple[tuple[int, ...], ...], theta: float, seed, alphabet: Optional[Alphabet] = None
) -> Pdfa:
    """Attach a random distribution over Σ ∪ {terminal} to every state.

    Each of the m+1 entries is zeroed independently with probability theta;
    if all die, one survivor is revived uniformly. Surviving entries get
    i.i.d. uniform (0, 1] weights and are normalized. Transitions on zeroed
    symbols stay in the structure.
    """
    n = len(dfa)
    m = len(dfa[0]) if n else 0
    if alphabet is None:
        alphabet = Alphabet(default_symbols(m))
    if alphabet.size != m:
        raise ValueError("alphabet size does not match the transition structure")
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(n):
        alive = rng.random(m + 1) >= theta
        if not alive.any():
            alive[rng.integers(0, m + 1)] = True
        weights = np.where(alive, 1.0 - rng.random(m + 1), 0.0)
        probs = weights / weights.sum()
        dists.append(Distribution(alphabet, tuple(float(p) for p in probs)))
    return Pdfa(alphabet, tuple(dists), dfa)


def random_pdfa(spec: GenSpec, alphabet: Optional[Alphabet] = None) -> Pdfa:
    """Full benchmark instance: random structure plus random distributions.

    random_dfa already trims and BFS-numbers the structure, so the result
    is what `trim` would return.
    """
    structure = random_dfa(spec.n, spec.m, np.random.SeedSequence([spec.seed, 0]))
    return assign_distributions(structure, spec.theta, np.random.SeedSequence([spec.seed, 1]), alphabet)
