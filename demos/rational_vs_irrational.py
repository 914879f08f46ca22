"""Contrast rational and irrational lattice densities on the same windows.

Two stories side by side:

  * The odd bump x * exp(1/(x^2 - 1)) at density alpha*beta = 1/2 is the
    classic non-frame configuration.  Finite sections cannot *prove* the
    failure, but the trend is unmistakable: refine the truncation and the
    smallest singular value keeps halving.  At irrational density the same
    diagnostic flattens out.
  * At rational density p/q the determinant scan degenerates to a periodic
    problem: count the zeros Z of |det M_x| on one structure gap J, and a
    zero-free subinterval of length |J|/(Z+1) plus a denominator threshold
    (Z+1)/(alpha |J|) summarize what the machinery can still say.

Run:  python3 demos/rational_vs_irrational.py
"""

import math

from gaborcert import certify, framebound, lattice, window


def finite_section_trend():
    w = window.odd_bump()
    print("finite-section sigma_min_inf for the odd bump window")
    print(f"{'extent':>8} {'beta = 1/2':>14} {'beta = 1/sqrt2':>16}")
    p_rat = lattice.lattice_params(1.0, 0.5)
    p_irr = lattice.lattice_params(1.0, 1.0 / math.sqrt(2.0))
    for extent in (8, 16, 32, 64):
        # rational leg: refine the x grid with the extent so the x -> 0
        # failure mechanism stays resolved
        dec = framebound.estimate_bounds(p_rat, w, extent,
                                         4 * extent).sigma_min_inf
        sta = framebound.estimate_bounds(p_irr, w, extent, 16).sigma_min_inf
        print(f"{extent:>8} {dec:>14.6e} {sta:>16.6e}")
    print("left column: keeps halving (non-frame signature);"
          " right column: flat\n")


def rational_report():
    # characteristic window at density exactly 2/3
    params = lattice.lattice_params(0.6, 10.0 / 9.0)
    w = window.characteristic()
    print(f"rational analysis at alpha*beta = "
          f"{params.rational_class.label()}")
    ratios = certify.forbidden_ratios(params, w)
    print(f"forbidden ratios up to the block size bound: "
          f"{[str(r) for r in ratios]}")
    # 2/3 is itself forbidden, so the separation guard must be disabled
    # explicitly to look at this density at all
    report = certify.rational_analysis(
        params, w, samples=2048, config=certify.CertifyConfig(delta_sep=0.0))
    j_lo, j_hi = report.interval
    print(f"structure gap J = ({j_lo:.6f}, {j_hi:.6f}), "
          f"zero count Z = {report.zero_count}")
    print(f"zero-free subinterval: {report.certified_subinterval}")
    print(f"denominator threshold (Z+1)/(alpha|J|) = "
          f"{report.denominator_threshold:.6f}")
    print(f"min |det| over a full period grid: "
          f"{report.min_abs_det_period:.6f} -> frame supported: "
          f"{report.frame_supported}\n")

    # the same window family where the certificate simply refuses
    for alpha, beta, wname, w2 in [(1.0, 0.5, "odd bump", window.odd_bump()),
                                   (1.2, 0.5, "characteristic",
                                    window.characteristic())]:
        cert = certify.certify_frame(lattice.lattice_params(alpha, beta), w2)
        print(f"certify {wname} at alpha={alpha}, beta={beta}: "
              f"{cert.verdict} ({cert.reason})")


if __name__ == "__main__":
    finite_section_trend()
    rational_report()
