"""One-sided Clopper-Pearson lower limits, with numpy and `math` only.

The lower limit for k successes in n trials at confidence 1 - alpha >= 1/2
is the largest p with P(Bin(n, p) >= k) <= alpha, the alpha-quantile of
Beta(k, n - k + 1).  `cp_lower` sums the binomial tail over a window of
terms that starts from Loader's saddle-point pmf, with a bound on the
sum's rounding error, and takes Halley steps in logit(p); the limit is
rounded down by that bound, so it never lies above the exact quantile.
k = 1 and k = n have closed forms, rounded down the same way.

`verifier.beta_dist.ppf` is the entry point; it imports this module on
its first call, so the processes that run no Monte Carlo check never
load it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_U = 2.0 ** -53          # unit roundoff
# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) for n = 1..15
_STIRLERR = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_CP_MAXITER = 100


def _stirlerr(n: int) -> float:
    """The error of Stirling's formula for log(n!), n >= 1."""
    if n <= 15:
        return _STIRLERR[n - 1]
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x / m) + m - x, summed as a series where x is near m."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) - d
    v = d / (x + m)
    s = d * v
    term = 2.0 * x * v
    v2 = v * v
    j = 3
    while True:
        term *= v2
        nxt = s + term / j
        if nxt == s:
            return s
        s = nxt
        j += 2


class _BinomTail:
    """log P(Bin(n, a) >= k) for a fixed 1 < k < n, as a function of a.

    The tail is pmf(k) (1 + t_1 + t_2 + ...), with t_i the product of the
    first i term ratios (n - j) a / ((j + 1) b), j = k, k + 1, ...  pmf(k)
    comes from Loader's saddle-point form (stirlerr and bd0; C. Loader,
    Fast and Accurate Computation of Binomial Probabilities, 2000), whose
    error does not grow with n as an lgamma difference's does.  The sum
    runs over a window of about ten standard deviations past k and bounds
    the terms beyond it by a geometric series.
    """

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.stirlerr = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
        self.base = np.empty(0)

    def _ratios(self, w: int) -> np.ndarray:
        """(n - k - j) / (k + 1 + j) for j < w."""
        if w > len(self.base):
            nk, k1 = self.n - self.k, self.k + 1
            self.base = np.arange(nk, nk - w, -1.0) / np.arange(k1, k1 + w, 1.0)
        return self.base[:w]

    def __call__(self, a: float, b: float):
        """(log tail, its derivative in log(a / b), weighted mean term index,
        bound on the log tail's absolute error), for b = 1 - a up to
        rounding; None when the terms rise from k, where the tail is
        at least 1/2."""
        k, n = self.k, self.n
        c = a / b
        if (n - k) / (k + 1) * c > 1.0 + 1e-9:
            return None          # k is below the mode, so at most the median
        b1, b2 = _bd0(k, n * a), _bd0(n - k, n * b)
        lp = self.stirlerr - b1 - b2 - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n)
        sd = math.sqrt(n * a * b)
        z = (k - n * a) / sd     # terms fall below e^-46 past about (sqrt(z^2 + 92) - z) sd
        reach = 92.0 / (math.sqrt(z * z + 92.0) + z) if z > 0.0 else math.sqrt(z * z + 92.0) - z
        w = int(min(n - k, reach * sd + 32.0))
        while True:
            t = self._ratios(w) * c
            np.multiply.accumulate(t, out=t)
            if w == n - k:
                trunc = 0.0
                break
            rho = (n - k - w) / (k + 1 + w) * c   # the ratios fall, so rho bounds the rest
            trunc = t.item(-1) * rho / (1.0 - rho) if rho < 1.0 else math.inf
            if trunc < 1e-3 * _U:
                break
            w = min(n - k, 2 * w)
        s = 1.0 + float(t.sum())
        slope = k * b / s
        # the mean term index, from slope = k - n a + m1 (it only sizes the
        # error bound and the Halley correction, so its cancellation is harmless)
        m1 = max(0.0, slope - k + n * a)
        log_s = math.log(s)
        # relative error 5u per ratio, so 5u i on term i; the pairwise sum;
        # Loader's terms, with n a rounded; the logs and the final sums
        err = (_U * (5.0 * m1 + 8.0 * (b1 + b2) + 16.0 * abs(k - n * a) + 8.0 * abs(lp) + 2.0 * log_s
                     + math.log2(w + 1.0) + 70.0) + trunc / s)
        return lp + log_s, slope, m1, err


@functools.lru_cache(maxsize=16)
def _upper_normal_quantile(alpha: float) -> float:
    """z with Q(z) = alpha for 0 < alpha <= 1/2: Abramowitz & Stegun
    26.2.23, then two Halley steps on erfc."""
    t = math.sqrt(-2.0 * math.log(alpha))
    z = t - ((2.515517 + t * (0.802853 + t * 0.010328))
             / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))))
    for _ in range(2):
        step = ((0.5 * math.erfc(z / math.sqrt(2.0)) - alpha)
                / (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)))
        z += step / (1.0 - 0.5 * z * step)
    return z


def _cp_start(k: int, n: int, alpha: float) -> float:
    """The limit from Paulson's cube-root normal approximation to the F
    quantile: the limit is k / (k + (n - k + 1) F), F ~ F(2(n - k + 1), 2k)."""
    z = _upper_normal_quantile(alpha)
    ga, gb = 2.0 / (18.0 * (n - k + 1)), 2.0 / (18.0 * k)
    qa = (1.0 - gb) ** 2 - z * z * gb
    qb = (1.0 - ga) * (1.0 - gb)
    qc = (1.0 - ga) ** 2 - z * z * ga
    disc = qb * qb - qa * qc
    if qa <= 0.0 or disc < 0.0:
        return k / (n + 1.0)
    f = ((qb + math.sqrt(disc)) / qa) ** 3
    return min(max(k / (k + (n - k + 1) * f), 1e-300), 1.0 - _U)


def cp_lower(k: int, n: int, alpha: float) -> float:
    """A p whose P(Bin(n, p) >= k) is certified <= alpha, within about 1e-13
    relative of the exact limit, for 1 <= k <= n and 0 < alpha <= 1/2.

    k = 1 and k = n have closed forms.  Otherwise Halley steps in
    logit(p) solve log P(Bin(n, p) >= k) = log(alpha) - 2.5 err, err the
    evaluation's error bound, and p is accepted once the computed log
    tail lies in [log(alpha) - 4 err, log(alpha) - err].  The tail's log
    is concave in logit(p), so a Newton step from a nearby point stays at
    or below its tangent's target and is accepted without another
    evaluation, stepped down one ulp for its rounding.  Where the steps
    stall at float resolution, the largest p certified so far is returned.
    """
    if k == 1:   # 1 - (1 - p)^n = alpha
        return -math.expm1(math.log1p(-alpha) / n) * (1.0 - 12.0 * _U)
    if k == n:   # p^n = alpha
        y = math.log(alpha) / n
        return math.exp(y) * (1.0 - (4.0 * abs(y) + 6.0) * _U)
    tail, target = _BinomTail(k, n), math.log(alpha)
    p = _cp_start(k, n, alpha)
    lo, hi = 0.0, 1.0     # largest p certified below alpha, smallest p not
    f_lo = f_hi = 0.0
    for _ in range(_CP_MAXITER):
        q = 1.0 - p
        res = tail(p, q)
        if res is None:   # the tail is >= 1/2
            hi, f_hi = p, 0.0
            p = 0.5 * (lo + hi)
            continue
        g, slope, m1, err = res
        # h <= -err certifies the limit; Halley aims at f = h + 2.5 err = 0
        h = g - target
        f = h + 2.5 * err
        if abs(f) <= 1.5 * err:
            return p
        # h is concave in logit(p), with derivatives slope and -curv
        curv = slope * (p + m1)
        step = -f / slope
        if abs(f) < 1e-3 and abs(step) < 1e-3 and curv * step * step <= max(err, 1e-13 * slope / q):
            # Newton lands at or below its tangent's target, and short of
            # it by at most curv step^2 / 2, so by 1e-13 in log p or one
            # err; step down past the rounding of the step
            e = math.exp(step)
            return math.nextafter(p + p * q * math.expm1(step) / (q + p * e), 0.0)
        if f < 0.0:
            lo, f_lo = p, f
        else:
            hi, f_hi = p, f
        den = 1.0 + 0.5 * f * curv / (slope * slope)
        if den > 0.5:
            step /= den
        step = max(-20.0, min(20.0, step))
        e = math.exp(step)
        nxt = p + p * q * math.expm1(step) / (q + p * e)
        if not lo < nxt < hi:
            nxt = lo - (hi - lo) * f_lo / (f_hi - f_lo) if f_lo < 0.0 < f_hi else 0.5 * (lo + hi)
        nxt = min(max(nxt, math.nextafter(lo, 1.0)), math.nextafter(hi, 0.0))
        if not lo < nxt < hi:   # no float left between the two sides
            return lo
        p = nxt
    raise RuntimeError(f"Clopper-Pearson limit for k={k}, n={n}, alpha={alpha!r} did not converge")
