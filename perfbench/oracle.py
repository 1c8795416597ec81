"""Output checks that do not use asymtail's own distribution code.

The comparison carrier of a bound query is s_m times a sum of n iid
standardized Bernoulli laws, so its atoms and masses have a closed form:
with k successes the sum sits at s_m (k / sqrt(pq) - n sqrt(p/q)) with
binomial mass.  Every tail bound must dominate that exact tail, and
`b_opt` must be at least as small as a brute-force minimum of its own
objective on a dense grid.
"""
from __future__ import annotations

import math

import numpy as np

BOUND_MEMBERS = ("b_opt", "lc", "lin_lc", "hoeffding", "normal_dom")
TAIL_RTOL = 1e-12     # a bound may undershoot the exact tail by this much
BOPT_RTOL = 1e-9      # b_opt may exceed the brute-force minimum by this much
BRUTE_POINTS = 4096   # t-grid size of the brute-force b_opt minimum
BRUTE_CHUNK = 256


def s_m_of(coeffs: np.ndarray, m: float) -> float:
    """The (2m)-power mean of the coefficients."""
    return float(np.mean(coeffs ** (2.0 * m)) ** (1.0 / (2.0 * m)))


class Carrier:
    """Exact law of s_m * (sum of n iid bs(p)), in log space."""

    def __init__(self, p: float, n: int, s_m: float):
        q = 1.0 - p
        k = np.arange(n + 1)
        self.atoms = s_m * (k / math.sqrt(p * q) - n * math.sqrt(p / q))
        log_choose = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                               for j in range(n + 1)])
        self.log_mass = log_choose + k * math.log(p) + (n - k) * math.log(q)
        self.log_tail = np.logaddexp.accumulate(self.log_mass[::-1])[::-1]

    def tail(self, x: float) -> float:
        """P(S >= x), leaving out an atom within 1e-9 of x.

        Dropping such an atom makes the tail smaller, so the check can
        only be lenient when x sits on the lattice up to roundoff.
        """
        k = int(np.searchsorted(self.atoms, x + 1e-9 * max(1.0, abs(x)), side="left"))
        return math.exp(self.log_tail[k]) if k < len(self.atoms) else 0.0

    def b_opt_brute(self, x: float) -> float:
        """min over a dense t-grid below x of E (S - t)_+^3 / (x - t)^3."""
        lo = self.atoms[0] - 10.0 * (self.atoms[-1] - self.atoms[0])
        t = np.concatenate((np.linspace(lo, x, BRUTE_POINTS, endpoint=False),
                            self.atoms[self.atoms < x]))
        mass = np.exp(self.log_mass)
        best = 1.0
        for i in range(0, len(t), BRUTE_CHUNK):  # chunks keep the oracle's memory small
            tc = t[i:i + BRUTE_CHUNK]
            num = (np.clip(self.atoms[None, :] - tc[:, None], 0.0, None) ** 3) @ mass
            best = min(best, float(np.min(num / (x - tc) ** 3)))
        return best


def check_report(carrier: Carrier, rep, x: float, brute: bool) -> str | None:
    """None when the report is valid, else a short reason."""
    exact = carrier.tail(x)
    for name in BOUND_MEMBERS:
        v = getattr(rep, name)
        if v is None and name == "normal_dom":
            continue
        if not (isinstance(v, float) and math.isfinite(v)):
            return f"{name}_not_finite"
        if v > 1.0 or v < exact * (1.0 - TAIL_RTOL):
            return f"{name}_outside_[tail,1]"
    if brute and rep.b_opt > carrier.b_opt_brute(x) * (1.0 + BOPT_RTOL):
        return "b_opt_above_brute_min"
    return None
