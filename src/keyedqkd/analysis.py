"""Information-theoretic utilities and experiment aggregation: binary entropy,
capacities, confidence intervals, basis-count sweeps, net key rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .qubits import (
    BasisAlphabet,
    keyless_error,
    optimal_fixed_basis,
    require_integer,
    require_real,
)

# Conservative fixed-basis eavesdropper error figure for the two-basis
# alphabet; the exact optimum is (2 - sqrt(2))/4 ~ 0.1464.
CONSERVATIVE_EVE_ERROR = 0.15

# Keyless sweep rows stop here by a convention that test_keyless_cap pins.
KEYLESS_MAX_BASES = 2 ** 16


def h2(p: float) -> float:
    """Binary entropy in bits, with h2(0) = h2(1) = 0 by continuity."""
    p = require_real(p, "probability")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class RateWindow:
    """Feasible code-rate interval (lower, upper).

    lower = 1 - h2(0.15) is the floor that keeps the rate above a fixed-basis
    eavesdropper's capacity; upper = 1 - h2(p_c) is the user channel capacity.
    """

    lower: float
    upper: float

    @property
    def nonempty(self) -> bool:
        return self.upper > self.lower


def rate_window(p_c: float) -> RateWindow:
    p_c = require_real(p_c, "channel error rate")
    if not 0.0 <= p_c < 0.5:
        raise ValueError(f"channel error rate must lie in [0, 0.5), got {p_c}")
    return RateWindow(lower=1.0 - h2(CONSERVATIVE_EVE_ERROR), upper=1.0 - h2(p_c))


def eve_capacity(alphabet: BasisAlphabet) -> float:
    """Capacity of the best fixed-basis eavesdropper channel: 1 - h2(e*)."""
    _, err = optimal_fixed_basis(alphabet)
    return 1.0 - h2(err)


@dataclass(frozen=True)
class SweepRow:
    m: int
    e_key_granted: float
    e_keyless: float | None
    phi_star: float


def sweep_m(m_values: Iterable[int], include_keyless: bool = True) -> list[SweepRow]:
    """Eavesdropper error rates versus basis count.

    e_key_granted is the optimal fixed-basis error when selectors are granted
    after measurement; e_keyless is the never-revealed-key discrimination
    error, capped by convention at m = KEYLESS_MAX_BASES = 2^16.
    """
    rows = []
    for m in m_values:
        alphabet = BasisAlphabet(m)
        basis, granted = optimal_fixed_basis(alphabet)
        keyless = None
        if include_keyless:
            if alphabet.m > KEYLESS_MAX_BASES:
                raise ValueError(f"keyless rows are capped at m = {KEYLESS_MAX_BASES}")
            keyless = keyless_error(alphabet)
        rows.append(SweepRow(alphabet.m, granted, keyless, basis.phi))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    """CSV rendering with header m,e_key_granted,e_keyless,phi_star."""
    lines = ["m,e_key_granted,e_keyless,phi_star"]
    for row in rows:
        keyless = "" if row.e_keyless is None else f"{row.e_keyless:.9g}"
        lines.append(f"{row.m},{row.e_key_granted:.9g},{keyless},{row.phi_star:.9g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConfidenceInterval:
    """Normal-approximation binomial interval at four standard errors."""

    estimate: float
    half_width: float

    @property
    def lo(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def hi(self) -> float:
        return min(1.0, self.estimate + self.half_width)

    def covers(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def binomial_ci(successes: int, trials: int) -> ConfidenceInterval:
    successes = require_integer(successes, "successes")
    trials = require_integer(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range [0, {trials}]")
    p = successes / trials
    return ConfidenceInterval(p, 4.0 * math.sqrt(p * (1.0 - p) / trials))


def net_key_rate(outcome, n: int) -> float:
    """Net generated key bits per transmitted qubit (negative on abort)."""
    n = require_integer(n, "qubit count")
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    return outcome.ledger.net / n
