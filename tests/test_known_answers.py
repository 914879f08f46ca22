"""Known answers: lattices whose verdict is settled by theory, and the
lattices whose verdict must not move.

Non-frames by construction.  Let g be piecewise linear with knots on c + hZ.
The hats on c + hZ form a partition of unity under shifts by h, so
sum_j g(t + jh) = sum_k g(c + kh) for every t.  At beta = p/h with an
integer p >= 2, every row of the Ron-Shen matrix M_x then annihilates the
bounded vector c_m = exp(2 pi i m / p), so M_x has no lower bound at any x
and G(g; alpha, p/h) is no frame for any alpha (Ron and Shen, Duke Math. J.
89, 1997; the hat at integer beta is Groechenig's B-spline obstruction,
J. Fourier Anal. Appl. 20, 2014).  With h a power of 2 the knots and beta
are exact doubles, and the true reciprocal of the double beta is h/p, so
the family stays exact at p = 3 too.  No such lattice may be Certified, at
any amplitude of the window: the determinant floor is absolute, so a large
amplitude lifts |det M_x| over it, and only the rounding margin on the
decomposition's blocks (linalg.stack_sigma_min) refuses them.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborcert import certify, cli, lattice, window

SRC = Path(__file__).resolve().parents[1] / "src"
# the scan's cost grows with the anchor-block size bound ceil(pK / (1 - alpha
# beta)) + 1; draws above this one are drawn again, which keeps the module
# to a few seconds and every h, K and p in it
SIZE_CAP = 30
N_DRAWS = 300


def _draws(n, seed=2026):
    """n seeded non-frames (window, params, extent): knot spacing h in
    {2, 1, 1/2, 1/4}, K = 2..8 knot intervals centred on 0 with interior
    values uniform on (0.05, 1), beta = p/h for p in {2, 3, 4}, alpha*beta
    uniform on (0.05, 0.95) and of irrational class (alpha < Kh then holds),
    amplitude 2^0 to 2^20, extent 16 or 32."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        h = float(rng.choice([2.0, 1.0, 0.5, 0.25]))
        k = int(rng.integers(2, 9))
        p = int(rng.integers(2, 5))
        density = float(rng.uniform(0.05, 0.95))
        amplitude = 2.0 ** int(rng.integers(0, 21))
        extent = int(rng.choice([16, 32]))
        values = rng.uniform(0.05, 1.0, k - 1)
        params = lattice.LatticeParams(density / (p / h), p / h)
        xs = h * (np.arange(k + 1) - k / 2)
        w = window.sampled(xs, amplitude * np.concatenate(([0.0], values, [0.0])))
        if (params.rational_class.is_rational
                or lattice.size_bound(params, w) > SIZE_CAP):
            continue
        assert params.alpha < w.support_length
        out.append((w, params, extent))
    return out


@pytest.fixture(scope="module")
def draws():
    return _draws(N_DRAWS)


def test_generated_non_frames_are_never_certified(draws):
    assert len(draws) == N_DRAWS
    reasons = {}
    for w, params, extent in draws:
        cert = certify.certify_frame(params, w, certify.CertifyConfig(extent=extent))
        assert not cert.certified, (w.grid_vals.real.tolist(), params.alpha,
                                    params.beta, extent)
        reason = cert.reason.split(":")[0]
        reasons[reason] = reasons.get(reason, 0) + 1
        if reason == "block singular to working precision":
            assert cert.block_sigma_min is None and cert.delta is not None
    # most fail the determinant floor; the margin refuses the rest, which the
    # floor alone would have certified
    assert set(reasons) == {"no determinant floor found",
                            "block singular to working precision"}


def _amplitude(w):
    return float(np.abs(w.grid_vals).max())


def test_scan_of_generated_non_frames_writes_no_certified_row(tmp_path, draws):
    """scan over three alpha per window, at the window's own beta, for the
    first eight draws at amplitude 2^16 and above."""
    loud = [d for d in draws if _amplitude(d[0]) >= 2.0 ** 16][:8]
    rows = []
    for i, (w, params, extent) in enumerate(loud):
        path, out = tmp_path / f"w{i}.csv", tmp_path / f"s{i}.csv"
        path.write_text(window.sampled_to_csv(w))
        inv_size = 1.0 / lattice.size_bound(params, w)
        alphas = [params.alpha * f for f in (1.0 - inv_size, 1.0, 1.0 + inv_size)]
        assert cli.main(["scan", "--window", str(path), "--alpha-grid",
                         ",".join(map(repr, alphas)), "--beta", repr(params.beta),
                         "--extent", str(extent), "--out", str(out)]) == 0
        rows += out.read_text().splitlines()[1:]
    verdicts = [row.split(",")[2] for row in rows]
    assert len(verdicts) == 24 and "Certified" not in verdicts
    assert "NotCertified" in verdicts


def _certify_process(tmp_path, *args):
    """(exit code, certificate) of `python -m gaborcert.cli certify`."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "certify",
                           *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout)


def test_hat_csv_repro_is_not_certified(tmp_path):
    """The hat x100 on (-1, 1) at beta = 2: delta 4.9e-7 passes the floor,
    and its blocks' sigma is at rounding level."""
    (tmp_path / "hat.csv").write_text("x,re,im\n-1,0,0\n0,100,0\n1,0,0\n")
    rc, cert = _certify_process(tmp_path, "--window", "hat.csv", "--alpha",
                                "0.3903198224722208", "--beta", "2")
    assert rc == 2 and cert["verdict"] == "NotCertified"
    assert cert["block_sigma_min"] is None
    assert cert["delta"] > 1e-8 and cert["interval"] is not None
    assert cert["n_blocks"] >= 1
    head, sigma, tol = _refusal(cert["reason"])
    assert head == "block singular to working precision"
    assert 0.0 <= sigma <= 2.0 * tol


def _refusal(reason):
    """(head, sigma, tolerance) of a refused block's reason."""
    head, rest = reason.split(": sigma ")
    sigma, tol = rest.split(" against tolerance ")
    return head, float(sigma), float(tol)


@pytest.mark.parametrize("alpha", [0.3903198224722208, 0.2718281828459045,
                                   0.4142135623730951])
def test_hat_at_scale_one_with_a_tiny_floor_is_not_certified(alpha):
    """A floor of 1e-300 lets the hat's determinant pass at scale 1; the
    margin refuses its blocks."""
    hat = window.sampled([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    cert = certify.certify_frame(lattice.LatticeParams(alpha, 2.0), hat,
                                 certify.CertifyConfig(delta_floor=1e-300))
    assert not cert.certified and cert.block_sigma_min is None


def test_polybump_with_one_ill_conditioned_block_is_refused():
    """polybump(0, 100) at (50.123, 0.019731), extent 16: one 178x178 anchor
    block with sigma_min about 1e-21 of its sigma_max, below what a float
    SVD can resolve, so the margin refuses it.  It is probably a frame (an
    exact factorisation of the block would tell); the float evidence backs
    nothing, so it stays NotCertified until such a certificate exists."""
    params = lattice.LatticeParams(50.123, 0.019731)
    cert = certify.certify_frame(params, cli.parse_window("polybump:0:100"),
                                 certify.CertifyConfig(extent=16))
    assert cert.verdict == "not_certified" and cert.block_sigma_min is None
    assert cert.n_blocks == 1 and cert.interval_lo is not None
    _, sigma, tol = _refusal(cert.reason)
    assert sigma < 1e-14 < tol


@pytest.mark.parametrize("extent, sigma", [(16, 0.17686582769498949),
                                           (32, 0.17686582769498949),
                                           (1024, 0.1670610561518731)])
def test_flagship_keeps_its_certificate(extent, sigma):
    """The bump at (1, 1/sqrt 2): its blocks clear the margin by orders of
    magnitude, and block_sigma_min is the Jacobi SVD's (recorded from it)
    to within 1e-9 relative."""
    params = lattice.LatticeParams(1.0, 1.0 / math.sqrt(2.0))
    cert = certify.certify_frame(params, window.bump(),
                                 certify.CertifyConfig(extent=extent))
    assert cert.certified and cert.reason is None
    assert cert.block_sigma_min == pytest.approx(sigma, rel=1e-9)
