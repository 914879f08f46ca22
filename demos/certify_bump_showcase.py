"""Walk through a full positive frame certification, step by step.

The showcase pair: the smooth bump window g(x) = exp(1/(x^4 - 1)) on (-1, 1)
on the lattice alpha = 1, beta = 1/sqrt(2).  The density alpha*beta is a
quadratic irrational, the window is bounded with bounded reciprocal on every
shrunken core, and the machinery below turns those facts into a quantitative
certificate:

  1. scan the determinant of the anchor submatrix M_x over x in (0, alpha),
  2. find an interval I where |det M_x| stays above a floor delta,
  3. decompose the (truncated) Ron-Shen matrix into anchor blocks that land
     back in I, glued by separator rows, and bound every block's smallest
     singular value,
  4. cross-check against an independent finite-section truncation.

Run:  python3 demos/certify_bump_showcase.py
"""

import math

import numpy as np

from gaborcert import certify, framebound, lattice, window

ALPHA = 1.0
BETA = 1.0 / math.sqrt(2.0)


def main():
    w = window.bump()
    params = lattice.LatticeParams(ALPHA, BETA)
    print(f"window: bump on ({w.support_lo:g}, {w.support_hi:g}), "
          f"peak {window.sup_norm(w):.6f}")
    print(f"lattice: alpha={ALPHA:g}, beta={BETA:.12f}, "
          f"density={params.density:.12f} ({params.rational_class.label()})")

    # Step 1: the combinatorial structure of M_x changes only at finitely
    # many breakpoints; between them det(M_x) is analytic.
    bps = lattice.structure_breakpoints(params, w)
    print(f"\n{len(bps)} structure breakpoints partition (0, {ALPHA:g})")
    profile = certify.scan_determinant(params, w, samples_per_gap=32)
    print(f"determinant sampled at {len(profile.x_samples)} Chebyshev nodes; "
          f"|det| ranges {profile.abs_det.min():.3e} .. {profile.abs_det.max():.3e}")

    # Step 2: the certified interval and its determinant floor.
    found = certify.find_certified_interval(profile, delta_floor=1e-8)
    print(f"\ncertified interval I = ({found.lo:.6f}, {found.hi:.6f}), "
          f"delta = {found.delta:.6f}")

    # Step 3: block decomposition anchored inside I.
    mid = 0.5 * (found.lo + found.hi)
    decomp = certify.build_block_decomposition(params, w, mid, extent=32,
                                               interval=(found.lo, found.hi))
    sizes = [b.size for b in decomp.blocks]
    print(f"decomposition at x = {mid:.6f}: {len(decomp.blocks)} blocks "
          f"(sizes {min(sizes)}..{max(sizes)}), "
          f"{len(decomp.discarded_rows)} rows discarded")
    sigma, refused = decomp.sigma_min
    print(f"smallest block singular value: {sigma:.6f}; "
          f"{'no block' if refused is None else 'a block'} at rounding level")

    composite = certify.assemble_composite(params, w, decomp)
    det = complex(np.linalg.det(composite))
    prod = 1.0 + 0j
    for b in decomp.blocks:
        prod *= complex(np.linalg.det(b.matrix))
    print(f"block determinant law: |det(composite) - prod(blocks)| / |prod| "
          f"= {abs(det - prod) / abs(prod):.2e}")

    # Step 4: the one-call pipeline, plus the independent truncation check.
    cert = certify.certify_frame(params, w)
    print(f"\ncertify_frame verdict: {cert.verdict}")
    G = framebound.truncated_G(params, w, mid, extent=32)
    sigma = float(np.linalg.svd(G, compute_uv=False)[-1])
    print(f"finite-section sigma_min at x = {mid:.4f}: {sigma:.6f} "
          f">= block bound {cert.block_sigma_min:.6f}")
    print(f"row-count estimate of the upper frame bound (not a bound): "
          f"{framebound.upper_bound_rowsum(params, w):.6f}")


if __name__ == "__main__":
    main()
