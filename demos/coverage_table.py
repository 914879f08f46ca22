"""How much of the paper's theorem the bump certificate reaches.

By the paper's theorem the bump exp(1/(x^4 - 1)) gives a frame at every
irrational alpha*beta < 1 with alpha < 2, so every NotCertified verdict
below is a false negative.  The 60 draws are fixed: for each alpha*beta
band, alpha*beta uniform on the band and then alpha uniform on (0.3, 1.9),
from one default_rng(7) stream, keeping the first twelve of irrational
class.  Each draw is certified at extent 16.  The table gives, per band, the
certified count, the wall time and why the others failed, so a change that
moves verdicts or scan time can show the table before and after.

Run:  python3 demos/coverage_table.py
"""

import time
from collections import Counter

import numpy as np

from gaborcert import certify, lattice, window

BANDS = [(0.50, 0.70), (0.70, 0.80), (0.80, 0.90), (0.90, 0.95), (0.95, 0.99)]
DRAWS_PER_BAND = 12
EXTENT = 16


def coverage_draws() -> list:
    """The lattices of each band, in BANDS order."""
    rng = np.random.default_rng(7)
    bands = []
    for lo, hi in BANDS:
        draws = []
        while len(draws) < DRAWS_PER_BAND:
            density = rng.uniform(lo, hi)
            alpha = rng.uniform(0.3, 1.9)
            params = lattice.lattice_params(alpha, density / alpha)
            if not params.rational_class.is_rational:
                draws.append(params)
        bands.append(draws)
    return bands


def band_verdicts(draws: list) -> tuple:
    """(certified count, Counter of the other reasons, wall seconds)."""
    start = time.perf_counter()
    certs = [certify.certify_frame(params, window.bump(),
                                   certify.CertifyConfig(extent=EXTENT))
             for params in draws]
    seconds = time.perf_counter() - start
    return (sum(cert.certified for cert in certs),
            Counter(cert.reason for cert in certs if not cert.certified),
            seconds)


def main():
    print(f"{'alpha*beta':<12}{'certified':>10}{'time':>10}   why the others fail")
    total, total_s = 0, 0.0
    for (lo, hi), draws in zip(BANDS, coverage_draws()):
        certified, reasons, seconds = band_verdicts(draws)
        total, total_s = total + certified, total_s + seconds
        why = "; ".join(f"{n} x {reason}" for reason, n in reasons.most_common())
        print(f"{lo:.2f}-{hi:.2f}   {certified:>4} of {len(draws)}"
              f"{seconds:>8.2f} s   {why}")
    print(f"{'total':<12}{total:>4} of {DRAWS_PER_BAND * len(BANDS)}"
          f"{total_s:>8.2f} s")


if __name__ == "__main__":
    main()
