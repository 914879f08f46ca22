"""CLI contract: exit codes, artifact formats, config layering, determinism."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gaborcert import certify, cli, framebound, lattice, randwin, window

BETA_IRR = "0.70710678"     # close to 1/sqrt(2), still irrational-class


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# exit codes

def test_certify_exit_zero_on_frame(tmp_path):
    out = tmp_path / "c.json"
    code = run(["certify", "--window", "bump", "--alpha", "1.0",
                "--beta", BETA_IRR, "--extent", "8", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "Certified"


def test_certify_exit_two_on_wide_alpha(capsys):
    code = run(["certify", "--window", "char", "--alpha", "1.2",
                "--beta", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NotCertified"


def test_certify_exit_two_on_rational_class(capsys):
    code = run(["certify", "--window", "oddbump", "--alpha", "1.0",
                "--beta", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reason"] == "rational density class"


def test_certify_exit_two_on_density_ge_one(capsys):
    code = run(["certify", "--window", "bump", "--alpha", "2.0",
                "--beta", "0.7"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reason"] == ("requires alpha*beta < 1 and 1/beta - alpha > 0, "
                             "got 1.4 and -0.5714285714285714")


# alpha = fl(1/beta): alpha*beta rounds below 1 while 1/beta - alpha is 0
EDGE_PAIR = ["--alpha", "0.5223730547138972", "--beta", "1.9143407014890885"]


def test_certify_exit_two_on_the_edge_pair(capsys):
    # the report passed it, then epsilon returned 0: "error: eps must be
    # positive", exit 1
    code = run(["certify", *EDGE_PAIR])
    out = capsys.readouterr()
    assert code == 2 and out.err == ""
    doc = json.loads(out.out)
    assert doc["hypothesis_report"]["density_lt_one"] is False
    # the reason names the failing number: alpha*beta rounds below 1 and
    # "density alpha*beta >= 1" did not say what failed
    assert doc["reason"] == ("requires alpha*beta < 1 and 1/beta - alpha > 0, "
                             "got 0.9999999999999999 and 0.0")


def test_certify_density_ge_one_is_certify_frames_certificate(capsys):
    # the CLI built its own certificate, with a one-key report
    assert run(["certify", "--alpha", "1.2", "--beta", "0.9"]) == 2
    doc = json.loads(capsys.readouterr().out)
    want = certify.certify_frame(lattice.LatticeParams(1.2, 0.9), window.bump())
    assert doc["hypothesis_report"] == want.hypothesis_report
    assert (doc["reason"], doc["extent"]) == (want.reason, 32)


def test_certify_huge_density_exits_two(capsys):
    assert run(["certify", "--alpha", "1e12", "--beta", "0.1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["hypothesis_report"]["density_lt_one"] is False


@pytest.mark.parametrize("subcommand", ["framebounds", "breakpoints"])
@pytest.mark.parametrize("lattice_args", [["--alpha", "1.2", "--beta", "0.9"],
                                          EDGE_PAIR], ids=["1.2-0.9", "edge"])
def test_sections_at_density_ge_one_exit_one(capsys, subcommand, lattice_args):
    assert run([subcommand, *lattice_args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: requires alpha*beta < 1 and 1/beta - alpha > 0")


def test_exit_one_on_bad_window():
    assert run(["certify", "--window", "nosuch", "--alpha", "1.0",
                "--beta", "0.5"]) == 1


def test_exit_one_on_missing_required():
    assert run(["certify", "--window", "bump"]) == 1


def test_exit_one_on_bad_subcommand():
    assert run(["frobnicate"]) == 1


# the options each subcommand reads; nothing else parses
OPTIONS = {
    "certify": {"config", "out", "window", "alpha", "beta", "seed", "extent",
                "samples_per_gap", "delta_floor", "det_profile"},
    "scan": {"config", "out", "window", "alpha", "beta", "seed", "workers",
             "alpha_grid", "beta_grid", "extent", "samples_per_gap",
             "delta_floor"},
    "framebounds": {"config", "out", "window", "alpha", "beta", "extent",
                    "x_grid_size"},
    "breakpoints": {"config", "out", "window", "alpha", "beta"},
    "random-window": {"config", "out", "seed", "dt", "quadrature_n",
                      "component_var"},
    "fourier-decay": {"config", "out", "window", "xi_max", "n_xi"},
}


@pytest.mark.parametrize("subcommand", sorted(OPTIONS))
def test_subcommand_declares_only_the_options_it_reads(subcommand):
    args = cli.build_parser().parse_args([subcommand])
    assert set(vars(args)) - {"subcommand", "func"} == OPTIONS[subcommand]


@pytest.mark.parametrize("argv", [
    ["certify", "--alpha", "1.0", "--beta", BETA_IRR, "--workers", "2"],
    ["framebounds", "--alpha", "1.0", "--beta", "0.5", "--seed", "1"],
    ["breakpoints", "--alpha", "0.7", "--beta", "1.0", "--workers", "2"],
    ["random-window", "--alpha", "1", "--dt", "0.0078125",
     "--quadrature-n", "64"],
    ["random-window", "--window", "bump", "--dt", "0.0078125",
     "--quadrature-n", "64"],
    ["fourier-decay", "--beta", "0.5", "--xi-max", "40", "--n-xi", "60"],
    ["fourier-decay", "--seed", "1", "--xi-max", "40", "--n-xi", "60"],
], ids=["certify-workers", "framebounds-seed", "breakpoints-workers",
        "random-window-alpha", "random-window-window", "fourier-decay-beta",
        "fourier-decay-seed"])
def test_unread_option_exits_one(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_defaults_come_from_the_library():
    parse = cli.build_parser().parse_args
    args = parse(["certify"])
    cfg = certify.CertifyConfig()
    assert (args.extent, args.samples_per_gap, args.delta_floor) == (
        cfg.extent, cfg.samples_per_gap, cfg.delta_floor)
    args = parse(["random-window"])
    assert (args.dt, args.quadrature_n) == (randwin.DEFAULT_DT,
                                            randwin.DEFAULT_QUADRATURE_N)


# ---------------------------------------------------------------------------
# certificate JSON

def test_certificate_fields(tmp_path):
    out = tmp_path / "c.json"
    run(["certify", "--window", "gevrey:3", "--alpha", "1.0",
         "--beta", BETA_IRR, "--extent", "8", "--seed", "5",
         "--out", str(out)])
    doc = json.loads(out.read_text())
    assert set(doc) >= {"verdict", "interval", "delta", "block_sigma_min",
                        "log10_det_best", "floor_shortfall_log10",
                        "extent", "hypothesis_report", "params", "window",
                        "tool_version", "seed"}
    assert doc["seed"] == 5
    assert doc["extent"] == 8
    assert doc["params"]["rational_class"] == "irrational"
    assert doc["window"] == {"kind": "gevrey", "support_lo": -1,
                             "support_hi": 1, "order": 3}
    assert doc["interval"]["lo"] < doc["interval"]["hi"]
    # 17-significant-digit floats survive the round trip losslessly
    assert doc["delta"] == float(cli.fmt(doc["delta"]))


def test_certify_det_profile(tmp_path):
    prof = tmp_path / "p.csv"
    run(["certify", "--window", "char", "--alpha", "0.7", "--beta",
        "0.70710678", "--extent", "8", "--out", str(tmp_path / "c.json"),
        "--det-profile", str(prof)])
    lines = prof.read_text().strip().split("\n")
    assert lines[0] == "x,abs_det,fingerprint_id"
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)
    assert all(0 < x < 0.7 for x in xs)


def _assert_profile_matches_det_oracle(prof, w, alpha, beta):
    """Each row's abs_det within 1e-12 relative of np.linalg.det on the dense
    anchor block at its x, and 0 exactly where the oracle is 0."""
    params = lattice.LatticeParams(alpha, beta)
    rows = [line.split(",") for line in prof.read_text().split()[1:]]
    got = np.array([float(r[1]) for r in rows])
    oracle = np.array([abs(np.linalg.det(lattice.build_Mx(
        params, w, lattice.anchor_block(params, w, float(r[0]))))) for r in rows])
    zero = oracle == 0
    assert np.array_equal(got == 0, zero)
    assert np.all(np.abs(got - oracle)[~zero] <= 1e-12 * oracle[~zero])


def test_certify_det_profile_flagship_bytes(tmp_path):
    """Flagship profile CSV, pinned from the banded scan once it passed the
    determinant oracle, and again once the bump was read at |x|; x and the
    fingerprint ids are the bytes of the sample-by-sample scan."""
    prof = tmp_path / "p.csv"
    assert run(["certify", "--window", "bump", "--alpha", "1.0", "--beta",
                BETA_IRR, "--out", str(tmp_path / "c.json"),
                "--det-profile", str(prof)]) == 0
    _assert_profile_matches_det_oracle(prof, window.bump(), 1.0, float(BETA_IRR))
    assert hashlib.sha256(prof.read_bytes()).hexdigest() == (
        "35cb8235cadaa557cb40892e25a5b597ba571c7bc168d974986eab1e26dbb790")


def test_certify_det_profile_many_gaps_bytes(tmp_path):
    """gevrey:2 at alpha*beta ~ 0.95: 70 gaps sharing 49 structures, so the
    fingerprint ids repeat across gaps; 484 samples hold an underflowed
    entry and |det| exactly 0.  Pinned once it passed the oracle, and again
    once gevrey was read at |x|."""
    prof = tmp_path / "p.csv"
    assert run(["certify", "--window", "gevrey:2", "--alpha", "1.3",
                "--beta", "0.73076923", "--extent", "16",
                "--out", str(tmp_path / "c.json"),
                "--det-profile", str(prof)]) == 2
    lines = prof.read_text().strip().split("\n")[1:]
    assert len(lines) == 70 * 32
    assert len({l.split(",")[2] for l in lines}) == 49
    _assert_profile_matches_det_oracle(prof, window.gevrey(2), 1.3, 0.73076923)
    assert sum(float(l.split(",")[1]) == 0 for l in lines) == 484
    assert hashlib.sha256(prof.read_bytes()).hexdigest() == (
        "6a3ba7d7401fe30b7a56b7eeebd5bce99c1bdf6f7b51e70ecbeaf75ec2b52d95")


def test_certify_det_profile_sampled_window_bytes(tmp_path):
    """Complex Brownian window read back from its CSV; pinned once it passed
    the oracle."""
    win, prof = tmp_path / "w.csv", tmp_path / "p.csv"
    assert run(["random-window", "--seed", "3", "--dt", "0.00390625",
                "--quadrature-n", "256", "--out", str(win)]) == 0
    assert run(["certify", "--window", str(win), "--alpha", "0.8",
                "--beta", "0.70710678118654757",
                "--out", str(tmp_path / "c.json"),
                "--det-profile", str(prof)]) == 0
    _assert_profile_matches_det_oracle(prof, window.sampled_from_csv(win), 0.8,
                                       0.70710678118654757)
    assert hashlib.sha256(prof.read_bytes()).hexdigest() == (
        "8f04e7fb2821658d4fda0b44426e17488fa53ae2cf441c7d2b23e65429203b78")


def test_certificate_reports_how_far_the_scan_fell_short(tmp_path):
    """floor_shortfall_log10 is the number of decades the floor must drop
    for a run of 3 samples to reach it: <= 0 on a certified window, and on
    a miss a floor that much lower (plus 0.01 decade) finds an interval."""
    out = tmp_path / "c.json"
    base = ["--window", "gevrey:2", "--alpha", "1.3", "--beta", "0.73076923",
            "--extent", "16", "--out", str(out)]
    assert run(["certify", *base]) == 2
    miss = json.loads(out.read_text())
    assert miss["reason"] == "no determinant floor found"
    short = miss["floor_shortfall_log10"]
    assert short > 0 and short >= -8 - miss["log10_det_best"] - 1e-9
    floor = 10.0 ** (-8 - short - 0.01)
    run(["certify", *base, "--delta-floor", repr(floor)])
    found = json.loads(out.read_text())
    assert found["interval"] is not None and found["delta"] >= floor
    assert found["log10_det_best"] == miss["log10_det_best"]
    assert found["floor_shortfall_log10"] == pytest.approx(-0.01, abs=1e-9)

    assert run(["certify", "--window", "bump", "--alpha", "1.0", "--beta",
                BETA_IRR, "--extent", "8", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["floor_shortfall_log10"] <= 0
    assert cert["log10_det_best"] >= math.log10(cert["delta"])


def test_certify_det_profile_near_critical_under_2gib_cap(tmp_path):
    """Bump at alpha*beta = 0.9979999: 1,003 gaps of anchor blocks 498 to 998
    wide, 998 structures.  Fingerprints of s*s Python bools held 4.3 GiB of
    tuple slots, and under this 2 GiB cap the run died with a MemoryError."""
    prof = tmp_path / "p.csv"
    # one BLAS thread, so the cap measures the run and not BLAS start-up
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "certify",
                           "--window", "bump", "--alpha", "1.0", "--beta",
                           "0.9979999", "--extent", "16", "--det-profile", str(prof)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    lines = prof.read_text().splitlines()
    assert len(lines) == 1 + 1003 * 32
    # ids count the structures in order of first appearance
    first = list(dict.fromkeys(int(line.rsplit(",", 1)[1]) for line in lines[1:]))
    assert first == list(range(998))


@pytest.mark.parametrize("alpha, beta, key", [
    ("1.2", "0.9", "density_lt_one"),
    ("2.5", "0.3", "alpha_lt_support"),
])
def test_certify_det_profile_header_only_on_failed_hypothesis(
        tmp_path, capsys, alpha, beta, key):
    prof = tmp_path / "p.csv"
    code = run(["certify", "--alpha", alpha, "--beta", beta,
                "--det-profile", str(prof)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["hypothesis_report"][key] is False
    assert prof.read_text() == "x,abs_det,fingerprint_id\n"
    assert doc["log10_det_best"] is None and doc["floor_shortfall_log10"] is None


# ---------------------------------------------------------------------------
# scan

def test_scan_single_point_matches_certify(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run(["scan", "--window", "bump", "--alpha", "1.0", "--beta", BETA_IRR,
         "--extent", "8", "--out", str(out)])
    header, row = out.read_text().strip().split("\n")
    assert header == "alpha,beta,verdict,delta,sigma_min"
    alpha, beta, verdict, delta, sigma = row.split(",")
    code = run(["certify", "--window", "bump", "--alpha", "1.0",
                "--beta", BETA_IRR, "--extent", "8"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and verdict == "Certified"
    assert float(delta) == doc["delta"]
    assert float(sigma) == doc["block_sigma_min"]


def test_scan_skips_density_ge_one(tmp_path):
    out = tmp_path / "s.csv"
    run(["scan", "--window", "bump", "--alpha-grid", "0.9,1.5",
         "--beta-grid", "0.70710678", "--extent", "8", "--out", str(out)])
    rows = out.read_text().strip().split("\n")[1:]
    assert rows[0].split(",")[2] == "Certified"
    assert rows[1].split(",")[2] == "Skipped"


def test_scan_edge_pair_is_not_certified(tmp_path, capsys):
    # alpha*beta rounds below 1, but the lattice is not subcritical: Skipped
    # by the predicate certify's report reads, as density >= 1 is
    out = tmp_path / "s.csv"
    assert run(["scan", *EDGE_PAIR, "--out", str(out)]) == 0
    row = out.read_text().strip().split("\n")[1]
    assert row.split(",")[2:] == ["Skipped", "", ""]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_scan_workers_below_one_exit_one(tmp_path, capsys, workers):
    # -3 ran serially and exited 0
    out = tmp_path / "s.csv"
    assert run(["scan", "--alpha", "0.9", "--beta", "0.9", "--workers", workers,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --workers: must be >= 1")
    assert not out.exists()


def test_scan_error_rows_keep_five_fields(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run(["scan", "--alpha-grid", "0.5,0.6", "--beta-grid=-1.0",
                "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert rows == ["0.5,-1,Error,,", "0.59999999999999998,-1,Error,,"]
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 2
    assert err[0].startswith("error: alpha=0.5 beta=-1: ")
    assert err[1].startswith("error: alpha=0.59999999999999998 beta=-1: ")


def test_scan_row_major_alpha_outer(tmp_path):
    out = tmp_path / "s.csv"
    run(["scan", "--window", "char", "--alpha-grid", "0.5,0.6",
         "--beta-grid", "1.1,1.2", "--extent", "4", "--out", str(out)])
    rows = [r.split(",")[:2] for r in out.read_text().strip().split("\n")[1:]]
    got = [(float(a), float(b)) for a, b in rows]
    assert got == [(0.5, 1.1), (0.5, 1.2), (0.6, 1.1), (0.6, 1.2)]


def test_scan_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run(["scan", "--window", "bump", "--alpha-grid", "0.9,1.0",
             "--beta-grid", "0.70710678", "--extent", "8", "--seed", "1",
             "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_scan_workers_reproduce_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--window", "char", "--alpha-grid", "0.5,0.6,0.7",
            "--beta-grid", "1.05,1.2", "--extent", "4"]
    run(args + ["--workers", "1", "--out", str(a)])
    run(args + ["--workers", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker process is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("grid, cpus, pool_sizes", [
    ("1.5,1.6,1.7", 8, [3]),    # alpha*beta >= 1: Skipped rows, no certify
    ("1.5", 8, []),
    ("", 8, []),
    ("1.5,1.6,1.7", 2, [2]),
    ("1.5,1.6,1.7", None, [2]),     # no sched_getaffinity: os.cpu_count()
], ids=["three-points", "one-point", "empty", "two-cpus", "cpu-count"])
def test_scan_workers_capped_at_grid_points(tmp_path, monkeypatch, grid, cpus,
                                            pool_sizes):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        _RecordingPool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    out = tmp_path / "s.csv"
    assert run(["scan", f"--alpha-grid={grid}", "--beta-grid", "0.9",
                "--workers", "5000", "--out", str(out)]) == 0
    assert _RecordingPool.sizes == pool_sizes
    alphas = [a for a in grid.split(",") if a]
    assert out.read_text() == "".join(
        f"{row}\n" for row in ["alpha,beta,verdict,delta,sigma_min"]
        + [f"{cli.fmt(float(a))},{cli.fmt(0.9)},Skipped,," for a in alphas])


def _random_window_csv(tmp_path):
    path = tmp_path / "w.csv"
    assert run(["random-window", "--seed", "4", "--dt", "0.00390625",
                "--quadrature-n", "128", "--out", str(path)]) == 0
    return path


def test_scan_parses_a_csv_window_once(tmp_path, monkeypatch):
    path, out = _random_window_csv(tmp_path), tmp_path / "s.csv"
    calls, read = [], window.sampled_from_csv
    monkeypatch.setattr(window, "sampled_from_csv",
                        lambda p: calls.append(p) or read(p))
    assert run(["scan", "--window", str(path), "--alpha-grid",
                "0.5,0.6,0.7,0.8", "--beta-grid", "0.70710678,0.9",
                "--extent", "8", "--out", str(out)]) == 0
    assert calls == [str(path)]
    # recorded when the banded scan replaced the dense one: the verdicts and
    # sigma_min are those of every grid point parsing the CSV on its own, and
    # each delta is within 1e-12 relative of that run's
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d2f7ac43764355c1853b7c08267f8e17d14d881cde8be51b5f1d69c3dddc9328")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_malformed_csv_gives_error_rows(tmp_path, capsys, workers):
    # the parse fails once, and each point that is not skipped reports it
    path, out = tmp_path / "bad.csv", tmp_path / "s.csv"
    path.write_text("x,real,imag\n0.0,1.0,0.0\n")
    assert run(["scan", "--window", str(path), "--alpha-grid", "0.5,2.0,0.7",
                "--beta-grid", "0.9", "--workers", workers,
                "--out", str(out)]) == 0
    assert out.read_text() == ("alpha,beta,verdict,delta,sigma_min\n"
                               "0.5,0.90000000000000002,Error,,\n"
                               "2,0.90000000000000002,Skipped,,\n"
                               "0.69999999999999996,0.90000000000000002,Error,,\n")
    message = (f"{path}:1: expected header x,re,im; "
               "got ['x', 'real', 'imag']")
    assert capsys.readouterr().err == (
        f"error: alpha=0.5 beta=0.90000000000000002: {message}\n"
        f"error: alpha=0.69999999999999996 beta=0.90000000000000002: {message}\n")


def test_scan_unknown_window_fails_only_where_a_point_certifies(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["scan", "--window", "nosuch", "--alpha-grid", "1.5,2.0",
                "--beta-grid", "0.9", "--out", str(out)]) == 0
    assert out.read_text().count("Skipped") == 2
    assert run(["scan", "--window", "nosuch", "--alpha-grid", "1.5,0.5",
                "--beta-grid", "0.9", "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: unknown window 'nosuch'")
    assert not (tmp_path / "t.csv").exists()


def _outcomes(tmp_path, capsys, fresh_parser):
    """(exit code, stdout, stderr, artifact bytes) of certify, framebounds and
    --config calls made back to back in this process."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("extent = 4\nseed = 7\nwindow = char\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("extent = 4\nx_grid_size = 8\n")
    fb = tmp_path / "fb.csv"
    calls = [
        ["certify", "--window", "bump", "--alpha", "1.0", "--beta", BETA_IRR,
         "--extent", "8"],
        ["framebounds", "--window", "char", "--alpha", "0.70710678",
         "--beta", "1.0", "--extent", "8", "--x-grid-size", "8",
         "--out", str(fb)],
        ["certify", "--config", str(cfg), "--alpha", "0.7", "--beta", BETA_IRR],
        ["certify", "--config", str(cfg), "--alpha", "0.7", "--beta", BETA_IRR,
         "--extent", "6", "--window", "bump"],
        ["certify", "--config", str(bad), "--alpha", "0.7", "--beta", "1.1"],
        ["framebounds", "--config", str(bad), "--window", "bump",
         "--alpha", "1.0", "--beta", BETA_IRR],
        ["certify", "--window", "bump", "--alpha", "1.0"],
        ["certify", "--extent", "many"],
    ]
    got = []
    for argv in calls:
        if fresh_parser:
            cli.build_parser.cache_clear()
        code = run(argv)
        out, err = capsys.readouterr()
        got.append((code, out, err, fb.read_bytes() if fb.exists() else None))
        fb.unlink(missing_ok=True)
    return got


def test_cached_parser_answers_like_a_fresh_one(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cached = _outcomes(tmp_path, capsys, fresh_parser=False)
    fresh = _outcomes(tmp_path, capsys, fresh_parser=True)
    assert cached == fresh
    assert [c[0] for c in cached] == [0, 0, 0, 0, 1, 0, 1, 1]


# ---------------------------------------------------------------------------
# other subcommands

def test_breakpoints_csv(tmp_path):
    out = tmp_path / "b.csv"
    run(["breakpoints", "--window", "char", "--alpha", "0.7", "--beta", "1.0",
         "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x"
    got = np.array([float(v) for v in lines[1:]])
    expect = lattice.structure_breakpoints(
        lattice.LatticeParams(0.7, 1.0), window.characteristic())
    assert np.allclose(got, expect, atol=1e-15)


def test_framebounds_artifacts(tmp_path):
    out = tmp_path / "fb.csv"
    run(["framebounds", "--window", "char", "--alpha", "0.70710678",
         "--beta", "1.0", "--extent", "8", "--x-grid-size", "8",
         "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,sigma_min,sigma_max"
    assert len(lines) == 9
    summary = json.loads((tmp_path / "fb.csv.summary.json").read_text())
    assert set(summary) == {"extent", "sigma_min_inf", "sigma_max_sup",
                            "rowsum_bound"}
    assert summary["sigma_min_inf"] == pytest.approx(1.0, abs=1e-12)


def test_random_window_artifacts(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["random-window", "--seed", "3", "--dt", "0.00390625",
                "--quadrature-n", "128", "--out", str(out)]) == 0
    w = window.sampled_from_csv(out)
    assert (w.grid_x[0], w.grid_x[-1]) == (0.0, 1.0)
    sidecar = json.loads((tmp_path / "w.csv.json").read_text())
    assert set(sidecar) == {"seed", "dt", "component_var", "min_abs_core"}
    assert sidecar["seed"] == 3
    assert sidecar["min_abs_core"] > 0.0


def test_random_window_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["random-window", "--seed", "11", "--dt", "0.00390625",
             "--quadrature-n", "128", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_fourier_decay_json(tmp_path):
    out = tmp_path / "f.json"
    assert run(["fourier-decay", "--window", "bump", "--xi-max", "40",
                "--n-xi", "60", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["window"]["kind"] == "bump"
    assert 0.0 < doc["s_hat"] < 2.0
    assert doc["c_hat"] > 0.0


@pytest.mark.parametrize("flags, message", [
    # 1 fitted 200 copies of xi = 1, 0.5 an inverted grid; both exited 0
    (["--xi-max", "1"], "xi_max must be > 1"),
    (["--xi-max", "0.5"], "xi_max must be > 1"),
    # numpy's "invalid value encountered in multiply", twice, then
    # "fewer than 8 usable frequencies"
    (["--xi-max", "inf"], "xi_max must be finite"),
    # numpy's "Number of samples, -1, must be non-negative."
    (["--n-xi", "-1"], "n_xi must be >= 8"),
    (["--n-xi", "7"], "n_xi must be >= 8"),
], ids=["1", "0.5", "xi-max-inf", "n-xi--1", "n-xi-7"])
def test_fourier_decay_xi_max_at_most_one_exits_one(tmp_path, capsys, flags,
                                                    message):
    """Every setting fourier_decay_fit checks before any transform, the
    first of them xi_max <= 1."""
    out = tmp_path / "f.json"
    assert run(["fourier-decay", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# config files

def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = char\nalpha = 1.2\nbeta = 0.5\n")
    assert run(["certify", "--config", str(cfg)]) == 2


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = char\nalpha = 1.2\nbeta = 0.5\nextent = 4\n")
    run(["certify", "--config", str(cfg), "--alpha", "0.7"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["alpha"] == 0.7
    assert doc["extent"] == 4


def test_config_parse_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 1.0\nthis line is wrong\n")
    assert run(["certify", "--config", str(cfg)]) == 1
    assert "bad.cfg:2" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("alpha = 1.0\nbeta = 0.70710678\nextnet = 4\n")
    assert run(["certify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "typo.cfg:3" in err and "'extnet'" in err
    # an option of another subcommand is unknown here too
    cfg.write_text("alpha = 1.0\nbeta = 0.70710678\nx_grid_size = 8\n")
    assert run(["certify", "--config", str(cfg)]) == 1
    assert "'x_grid_size'" in capsys.readouterr().err


def test_config_out_writes_the_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = char\nalpha = 1.2\nbeta = 0.5\nout = c.json\n")
    assert run(["certify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "c.json").read_text())["verdict"] == \
        "NotCertified"
    assert (tmp_path / "c.json.meta.json").exists()


def test_config_seed_reaches_the_certificate(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = char\nalpha = 1.2\nbeta = 0.5\nseed = 5\n")
    run(["certify", "--config", str(cfg)])
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    run(["certify", "--config", str(cfg), "--seed", "6"])
    assert json.loads(capsys.readouterr().out)["seed"] == 6


def test_config_values_are_typed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.0\nbeta = 0.70710678\nextent = many\n")
    assert run(["certify", "--config", str(cfg)]) == 1
    assert "argument --extent: invalid int value: 'many'" in \
        capsys.readouterr().err
    # a negative value and a grid with spaces pass as one token each
    cfg.write_text("window = char\nalpha_grid = 0.5, 0.6\nbeta = -1.0\n")
    assert run(["scan", "--config", str(cfg), "--extent", "4"]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[1:3] == ["0.5,-1,Error,,",
                                     "0.59999999999999998,-1,Error,,"]


def test_config_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nalpha = 0.7  # trailing\nbeta = 1.0\n"
                   "window = char\n")
    parsed = cli.parse_config(cfg, {"alpha", "beta", "window"})
    assert parsed == {"alpha": "0.7", "beta": "1.0", "window": "char"}


def test_meta_sidecar_excluded_from_artifact(tmp_path):
    out = tmp_path / "b.csv"
    run(["breakpoints", "--window", "char", "--alpha", "0.7", "--beta", "1.0",
         "--out", str(out)])
    assert "created_unix" in (tmp_path / "b.csv.meta.json").read_text()
    assert "created" not in out.read_text()


# ---------------------------------------------------------------------------
# window descriptors and the installed entry point

def test_parse_window_reads_each_grammar_once(monkeypatch):
    assert cli.parse_window("gevrey:4").order == 4
    # cli's own name for the module: the real inspect stays untouched
    monkeypatch.setattr(cli, "inspect", types.SimpleNamespace(signature=None))
    assert cli.parse_window("gevrey:5").order == 5
    with pytest.raises(cli.CliError, match="bad window descriptor 'gevrey:4:5'"):
        cli.parse_window("gevrey:4:5")


def test_parse_window_variants():
    assert cli.parse_window("gevrey:4").order == 4
    assert cli.parse_window("char:0:2").support_hi == 2.0
    assert cli.parse_window("polybump").kind == "poly_bump"
    with pytest.raises(cli.CliError):
        cli.parse_window("gevrey")


# (kind, support_lo, support_hi, order, grid_n) of each accepted form,
# recorded before the grammar came from the constructors' signatures
DESCRIPTORS = {
    "bump": ("bump", -1.0, 1.0, None, None),
    "oddbump": ("odd_bump", -1.0, 1.0, None, None),
    "char": ("characteristic", 0.0, 1.0, None, None),
    "char:0:2": ("characteristic", 0.0, 2.0, None, None),
    "char:-0.35:0.35": ("characteristic", -0.35, 0.35, None, None),
    "characteristic:0:1": ("characteristic", 0.0, 1.0, None, None),
    "polybump": ("poly_bump", 0.0, 1.0, None, None),
    "polybump:0:2": ("poly_bump", 0.0, 2.0, None, None),
    "gevrey:2": ("gevrey", -1.0, 1.0, 2, None),
    "win.csv": ("sampled", 0.0, 1.0, None, 65),
}


@pytest.mark.parametrize("spec", DESCRIPTORS)
def test_parse_window_accepted_forms(tmp_path, spec):
    arg = spec
    if spec.endswith(".csv"):
        xs = np.linspace(0.0, 1.0, 65)
        arg = str(tmp_path / spec)
        (tmp_path / spec).write_bytes(window.sampled_to_csv(
            window.sampled(xs, np.sin(np.pi * xs))).encode())
    d = cli.parse_window(arg).descriptor()
    got = (d["kind"], d["support_lo"], d["support_hi"], d.get("order"),
           d.get("grid_n"))
    assert got == DESCRIPTORS[spec]


@pytest.mark.parametrize("spec", ["bump:0:5", "oddbump:zzz", "gevrey",
                                  "gevrey:4:5", "gevrey:1.5", "char:0:1:2"])
def test_malformed_window_descriptor_exits_one(tmp_path, capsys, spec):
    # extra fields used to be dropped: bump:0:5 certified the bump on (-1, 1)
    out = tmp_path / "cert.json"
    assert run(["certify", "--window", spec, "--alpha", "1.0",
                "--beta", BETA_IRR, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["certify", "framebounds", "breakpoints"])
@pytest.mark.parametrize("spec", ["char:-inf:inf", "char:0:inf",
                                  "polybump:-inf:1"])
def test_non_finite_window_support_exits_one(tmp_path, capsys, subcommand, spec):
    # breakpoints and framebounds raised OverflowError in size_bound;
    # certify wrote a certificate with "support_lo": "-inf"
    out = tmp_path / "out"
    assert run([subcommand, "--window", spec, "--alpha", "1.0",
                "--beta", BETA_IRR, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["certify", "framebounds", "breakpoints"])
@pytest.mark.parametrize("alpha, beta", [
    ("inf", "0.5"),         # certify died with an OverflowError traceback
    ("0.5", "1e-320"),      # 1/beta overflows: "cannot convert float NaN ..."
    ("nan", "0.5"),         # "cannot convert NaN to integer ratio"
], ids=["alpha-inf", "beta-tiny", "alpha-nan"])
def test_non_finite_lattice_exits_one(tmp_path, capsys, subcommand, alpha, beta):
    out = tmp_path / "out"
    assert run([subcommand, "--alpha", alpha, "--beta", beta,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"got alpha={float(alpha)!r}, beta={float(beta)!r}" in err
    assert not out.exists()


def test_scan_non_finite_points(tmp_path, capsys):
    # the numbers make the lattice first, as in certify: inf, nan and an
    # overflowing 1/beta become Error rows that name both values
    out = tmp_path / "s.csv"
    assert run(["scan", "--alpha-grid", "inf,nan,0.5", "--beta-grid",
                "0.5,1e-320", "--extent", "4", "--out", str(out)]) == 0
    tiny = cli.fmt(1e-320)
    rows = out.read_text().strip().split("\n")[1:]
    assert [r.split(",")[:3] for r in rows] == [
        ["inf", "0.5", "Error"], ["inf", tiny, "Error"],
        ["nan", "0.5", "Error"], ["nan", tiny, "Error"],
        ["0.5", "0.5", "NotCertified"], ["0.5", tiny, "Error"]]
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 5
    for line, (alpha, beta) in zip(err, [("inf", "0.5"), ("inf", "1e-320"),
                                         ("nan", "0.5"), ("nan", "1e-320"),
                                         ("0.5", "1e-320")]):
        assert line.startswith(f"error: alpha={cli.fmt(float(alpha))} ")
        assert line.endswith(f"got alpha={float(alpha)!r}, "
                             f"beta={float(beta)!r}")


@pytest.mark.parametrize("flags, setting", [
    (["--dt", "inf"], "dt"),          # wrote an identically zero window
    (["--dt", "1"], "dt"),            # no node inside (0, 1): zero window
    (["--dt", "2.5"], "dt"),
    (["--dt", "nan"], "dt"),          # cannot convert float NaN to integer
    (["--dt", "0.3"], "dt"),          # a 4-step path running to t = 1.2
    (["--dt", "5e-324"], "dt"),       # OverflowError traceback
    (["--dt", "1e-300"], "dt"),       # "Maximum allowed dimension exceeded"
    (["--component-var", "-1"], "component_var"),    # math domain error
    (["--component-var", "inf"], "component_var"),
    (["--component-var", "nan"], "component_var"),
    (["--seed", "-1"], "seed"),       # numpy's "key must be positive ..."
    (["--seed", str(2 ** 128)], "seed"),
], ids=["dt-inf", "dt-1", "dt-2.5", "dt-nan", "dt-0.3", "dt-5e-324",
        "dt-1e-300", "var-neg", "var-inf", "var-nan", "seed-neg", "seed-2^128"])
def test_random_window_bad_path_settings_exit_one(tmp_path, capsys, flags,
                                                  setting):
    out = tmp_path / "w.csv"
    argv = ["random-window", "--seed", "1", "--dt", "0.00390625"] + flags
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{setting} must" in err
    assert not out.exists()


def test_sampled_window_from_csv_descriptor(tmp_path):
    xs = np.linspace(0.0, 1.0, 65)
    w = window.sampled(xs, np.sin(np.pi * xs))
    path = tmp_path / "win.csv"
    path.write_bytes(window.sampled_to_csv(w).encode())
    assert run(["breakpoints", "--window", str(path), "--alpha", "0.6",
                "--beta", "1.1", "--out", str(tmp_path / "bp.csv")]) == 0


def test_framebounds_nan_window_row_exits_one(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("x,re,im\n0,0,0\n0.25,0.5,0\n0.5,nan,0\n"
                    "0.75,0.5,0\n1,0,0\n")
    out = tmp_path / "fb.csv"
    assert run(["framebounds", "--window", str(path), "--alpha", "0.6",
                "--beta", "1.1", "--extent", "8", "--x-grid-size", "8",
                "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_framebounds_non_finite_section_exits_one(tmp_path, capsys):
    # the window's values overflow to inf: an error naming x, not NaN sigmas
    out = tmp_path / "fb.csv"
    with np.errstate(over="ignore"):
        assert run(["framebounds", "--window", "polybump:0:1e160",
                    "--alpha", "5e159", "--beta", "1e-160", "--extent", "4",
                    "--x-grid-size", "8", "--out", str(out)]) == 1
    assert "non-finite entry" in capsys.readouterr().err
    assert not out.exists()


def test_header_only_window_csv_exits_one(tmp_path, capsys):
    # an IndexError traceback
    path, out = tmp_path / "empty.csv", tmp_path / "c.json"
    path.write_text("x,re,im\n")
    assert run(["certify", "--window", str(path), "--alpha", "0.5",
                "--beta", "0.5", "--out", str(out)]) == 1
    assert "2 or more" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("x,re,im\n0,0,0\n0.5,1\n1,0,0\n", 3),
    ("x,re,im\n0,0,0\n\n0.5,1,0\n1,0,0\n", 3),
    ("x,re,im\n0,0,0\n0.5,one,0\n1,0,0\n", 3),
    ("", 1),
    ("x,y,z\n0,0,0\n", 1),
], ids=["short-row", "blank-line", "not-a-number", "empty-file", "bad-header"])
def test_malformed_window_csv_exits_one(tmp_path, capsys, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run(["framebounds", "--window", str(path), "--alpha", "0.6",
                "--beta", "1.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("x,re,im\n", "grid_x and grid_vals must be 1-d arrays of equal length, "
                  "2 or more"),
    ("x,re,im\n0,0,0\n0.5,1,0\n0.4,0,0\n", "grid_x must be strictly increasing"),
    ("x,re,im\n0,0,0\n0.5,nan,0\n1,0,0\n", "grid_x and grid_vals must be finite"),
], ids=["header-only", "not-increasing", "nan-value"])
def test_window_csv_that_makes_no_window_names_its_file(tmp_path, capsys, text,
                                                         message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    assert run(["certify", "--window", str(path), "--alpha", "0.3",
                "--beta", "1.2"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_certify_char_at_beta_one_exits_zero():
    # a breakpoint rounding to just below alpha left an ulp-wide last gap,
    # and certify died there with an AssertionError traceback
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "certify",
                           "--window", "char", "--alpha", "0.21239572664639683",
                           "--beta", "1.0"], capture_output=True, text=True)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "Certified"


@pytest.mark.parametrize("spec, k", [("bump", 10_000), ("char", 5_000)])
def test_certify_past_the_lu_budget_exits_two(tmp_path, spec, k):
    # at alpha = 1e-4 the bump's LU window took 1.5 GiB per matrix and the
    # run ended in a MemoryError traceback
    lattice_args = ["--window", spec, "--alpha", "0.0001", "--beta", "5000.0137"]
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "certify",
                           *lattice_args], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    cert = json.loads(proc.stdout)
    assert cert["verdict"] == "NotCertified" and f"k = {k} " in cert["reason"]
    out = tmp_path / "s.csv"
    assert run(["scan", *lattice_args, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",NotCertified,,")


# ---------------------------------------------------------------------------
# cold start: each subcommand loads only the SciPy it runs

_DEFERRED = ("scipy.linalg", "scipy.optimize", "scipy.integrate",
             "concurrent.futures.process")
_SMALL_RANDOM_WINDOW = ["random-window", "--dt", "0.00390625",
                        "--quadrature-n", "256"]


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["breakpoints", "--window", "char", "--alpha", "0.7", "--beta", "1.0"], []),
    (_SMALL_RANDOM_WINDOW, []),
    (["scan", "--window", "char", "--alpha-grid", "0.5,0.6,0.7",
      "--beta-grid", "1.05,1.2", "--extent", "4", "--workers", "1"], []),
    (["certify", "--window", "bump", "--alpha", "1.0", "--beta", BETA_IRR],
     ["scipy.linalg"]),
    (["framebounds", "--window", "bump", "--alpha", "1.0", "--beta", BETA_IRR,
      "--extent", "8", "--x-grid-size", "8"], []),
    (["fourier-decay", "--window", "{rw}"], ["scipy.linalg", "scipy.optimize"]),
], ids=["import", "breakpoints", "random-window", "scan-workers-1", "certify",
        "framebounds", "fourier-decay"])
def test_each_command_loads_only_its_scipy(tmp_path, argv, loaded):
    # a module-level import of any of _DEFERRED costs every command its
    # load time: about 0.65 s and 45 MiB for scipy.linalg and scipy.optimize
    call = "0"
    if argv is not None:
        rw = tmp_path / "rw.csv"
        if "{rw}" in argv:
            assert run(_SMALL_RANDOM_WINDOW + ["--out", str(rw)]) == 0
        argv = [a.format(rw=rw) for a in argv] + ["--out", str(tmp_path / "o")]
        call = f"cli.main({argv!r})"
    code = ("import sys\nfrom gaborcert import cli\n"
            f"print({call}, [m for m in {_DEFERRED!r} if m in sys.modules])\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == f"0 {loaded}\n", proc.stderr


# ---------------------------------------------------------------------------
# random-window through the shared artifact writer; scan --seed

@pytest.mark.parametrize("flags, csv_sha, json_sha", [
    (["--seed", "3", "--dt", "0.00390625", "--quadrature-n", "256"],
     "45c6b9b60d956e8539be4d64240fb3a27a31b610faeb5aef4e5823058d198a7d",
     "4e7a65b492f4f6a9d2911cc2d1a1a64221f00e34ab7389233e57a42491fed515"),
    (["--seed", "5"],
     "2aaa87d30c449a61a9ffc7f9ca0a9284400eb057c9e248ddefb9ddaadbc2b759",
     "7a2728294f995d50c344c0c9e8d908b2bb14e6483313a04f0beb3b66324f4a49"),
], ids=["small", "default"])
def test_random_window_artifact_bytes_pinned(tmp_path, flags, csv_sha, json_sha):
    # digests recorded from the dense-grid synthesis and the file writer
    out = tmp_path / "w.csv"
    assert run(["random-window", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    sidecar = tmp_path / "w.csv.json"
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == json_sha


def test_random_window_empty_out_prints_to_stdout(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["random-window", "--seed", "3", "--dt", "0.00390625",
             "--quadrature-n", "256"]
    assert run(flags + ["--out", ""]) == 0
    printed = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert run(flags + ["--out", "w.csv"]) == 0
    written = (tmp_path / "w.csv").read_bytes() + \
        (tmp_path / "w.csv.json").read_bytes()
    assert printed.encode() == written
    assert printed.startswith("x,re,im\r\n0,0,0\r\n")


def test_sampled_to_csv_returns_text_with_crlf():
    xs = np.linspace(0.0, 1.0, 9)
    w = window.sampled(xs, np.sin(np.pi * xs) + 0.5j * xs)
    text = window.sampled_to_csv(w)
    assert text.startswith("x,re,im\r\n0,0,0\r\n")
    assert text.count("\r\n") == 10 and text.count("\n") == 10


def test_scan_seed_recorded_in_meta(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["scan", "--window", "char", "--alpha", "0.5", "--beta", "1.5",
            "--extent", "4", "--out", str(out)]
    assert run(argv + ["--seed", "42"]) == 0
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["seed"] == 42 and meta["subcommand"] == "scan"
    first = out.read_bytes()
    assert run(argv) == 0
    assert json.loads((tmp_path / "s.csv.meta.json").read_text())["seed"] is None
    assert out.read_bytes() == first       # the seed stays out of the CSV
    assert run(["random-window", "--seed", "3", "--dt", "0.00390625",
                "--quadrature-n", "64", "--out", str(tmp_path / "w.csv")]) == 0
    assert json.loads((tmp_path / "w.csv.meta.json").read_text())["seed"] == 3


# ---------------------------------------------------------------------------
# section columns as one range, separators evaluated together: byte-identity
# pins recorded from the per-row column union and the per-entry separators;
# the CSVs of bump and gevrey re-pinned once the even kinds were read at |x|,
# and every framebounds pin once the sections' singular values came from
# gesdd instead of dgejsv (the sections themselves kept their pins below)

@pytest.mark.parametrize("wspec, alpha, beta, extent, csv_sha, summary_sha", [
    ("bump", "1.3", "0.45", "16",
     "2d273518d71e86b4a5ecd315970c6324096e2577de851a88ccfc447bbdfb5d9b",
     "44d796c18e110b737eed0bd61b6469ec1dc0c41e2a7e67e9c54f1320e90088ee"),
    ("bump", "0.7", "0.45", "16",        # beta*(b-a) < 1: rows without columns
     "768932bdfe8963b1888e7d76234ac4b931950bf260cedf0ac6c22ed8328e7b6f",
     "f1e72a24ac442a4700f5f46671f3af64b3abb83253c3a52125eccf71ae5dca64"),
    ("oddbump", "0.9", "0.6", "32",
     "79959b80d41bd4d89b47e98cbf060e50933447295574e1c34126678916d7f301",
     "ebad7bdf0747d92ab4410cd5d7b291ad8d49042b3c4f545d9d9ed8042d7f6501"),
    ("gevrey:3", "1.1", "0.7", "64",
     "d2ac00778c97c61463cf794fc93d6ecbd69bc96b42b3b75dffcde508e3d8ef67",
     "551838f5bd62dcce724921e5bc05e100f985eafe106b2a0ccbba87e895ad0af0"),
], ids=["bump-16", "bump-16-painless", "oddbump-32", "gevrey3-64"])
def test_framebounds_artifact_bytes_pinned(tmp_path, wspec, alpha, beta,
                                           extent, csv_sha, summary_sha):
    out = tmp_path / "fb.csv"
    assert run(["framebounds", "--window", wspec, "--alpha", alpha,
                "--beta", beta, "--extent", extent, "--x-grid-size", "16",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    summary = tmp_path / "fb.csv.summary.json"
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha


_SECTION_PINS = {      # (window, extent): (CSV sha256, summary sha256)
    ("bump", "16"): ("83834f71a78ca398f8922f4ef732459b19cc8b0975e0ddbaddaf249b7e467fef",
                     "7972adfecdecdd04cee6730baeff1ded78078a93d48d6ef5271e79ddcc45dcb7"),
    ("bump", "32"): ("4e294c939230d3d2a59ce75a5ade8563f61b62e98bafb07d046d422507a8c803",
                     "0b66d9230d85b58a2d85b9f600eebb7e6cfdceb82193aed8aa4b9f62733769c1"),
    ("bump", "64"): ("42f46476500413b7cace257bdb6f0791aab078565c82932e535df6c5039b8b62",
                     "dac019fcebe285493b2062dc784dd98320c521eebf97c0a745336436e9cd014e"),
    ("oddbump", "16"): ("fd3c1110e4baabcecfa9b02d7b7addc40a5721136934b784adad97da26a6da85",
                        "35535632729a14b1f9102aa24f648835bac55d2bb549df1d7350e62415056086"),
    ("oddbump", "32"): ("784cd9451e9223342c6dcd956bcd5de4bbebd5fd8e44bbad8971008df81bef26",
                        "0c4462fca38145e1eeb96b0ad86c0b6fcd0f3af0c8549d8ef92a091ced263de2"),
    ("oddbump", "64"): ("6c9fa56e747bc0602dd48628a3f528226578997155dc0545e69703e160011ae1",
                        "108908294ab2005e91b9119ca9f70ac0abe7bdd86ba5f6d21911944419949a6b"),
    ("gevrey:3", "16"): ("261eeba1835f96a565ab61486bbb8128d1ebbdafd3a939231a26b881f495721e",
                         "a36521bc677e6bfc249917766709bedc058ea78d9c98e726b6a44105b42542aa"),
    ("gevrey:3", "32"): ("9b9ab40d4ad0d99be4e38d9a86a1eef4b839988f17c4e5d655586718ab40cf8c",
                         "d60f300a8333c1c137896161ff88a4e3f981b580d83d1c29d0c092ade08d2114"),
    ("gevrey:3", "64"): ("d0f89b3944150ffc9396f7c31b0f2de9016684b4ec9967eb51fdf449c31b4ebe",
                         "1e1384e4754225571b6b60e99194f641058e8d954b140853e61e9affd4c7a8ae"),
}


@pytest.mark.parametrize("wspec, extent", list(_SECTION_PINS),
                         ids=[f"{w}-{e}" for w, e in _SECTION_PINS])
def test_framebounds_complete_sections_bytes_pinned(tmp_path, wspec, extent):
    # recorded before complete columns became the only section rule,
    # re-recorded for gesdd
    out = tmp_path / "fb.csv"
    assert run(["framebounds", "--window", wspec, "--alpha", "1.1",
                "--beta", "0.6180339887498949", "--extent", extent,
                "--x-grid-size", "16", "--out", str(out)]) == 0
    summary = tmp_path / "fb.csv.summary.json"
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(summary.read_bytes()).hexdigest()) == \
        _SECTION_PINS[wspec, extent]


# the sections themselves at every x of the framebounds runs above, recorded
# while their CSVs still took dgejsv's singular values: column selection and
# entry evaluation stay bit for bit whatever SVD reads them
_SECTION_G_PINS = {    # (window, alpha, beta, extent): sha256 of the sections
    ("bump", "1.3", "0.45", "16"):
        "0af83a41a8f376a28bc48f513f8ee60f027b326b1c07a01470d477cae67a9a0e",
    ("bump", "0.7", "0.45", "16"):
        "557ddaaa7e1aabd499ba1a0e2144fe8ab20b3e9800cad0aebe2e92db54390757",
    ("oddbump", "0.9", "0.6", "32"):
        "790892170234256d4d3b43a3dae2bc26bb1f24c4aa42de2a35b13464de32b784",
    ("gevrey:3", "1.1", "0.7", "64"):
        "4df480a06f1e73628582243ac62031c4e8eb01203f8e6d10819ae4a46f2b2043",
    ("bump", "1.1", "0.6180339887498949", "16"):
        "f6c16a75d7e24d443177f039fd824ce3f22c50b74781cd0f1ef0f00637d7ae39",
    ("bump", "1.1", "0.6180339887498949", "32"):
        "9dd4e6156ea9d5ad0db52fe2c0ff362f49bd260e5e0f209a2d3841e7cc75362d",
    ("bump", "1.1", "0.6180339887498949", "64"):
        "e2faf5f8c2dc3fa6151f46eb162f9fde86df5a17c53a52cdb6409198c3d8714f",
    ("oddbump", "1.1", "0.6180339887498949", "16"):
        "15d6a5e605dbaf66a81e8881f1848c7a15364cda0fd1b5eb5e2990c7d5255359",
    ("oddbump", "1.1", "0.6180339887498949", "32"):
        "6109b0fc836e6020fa47e5959bcc6171c98d2189f7e2c5a390364811fd6413e4",
    ("oddbump", "1.1", "0.6180339887498949", "64"):
        "b5103fcf4fb8dece0c6e280e663dd5948289d3418504f6fda7fa8d3e73ecac9d",
    ("gevrey:3", "1.1", "0.6180339887498949", "16"):
        "d24e8b5b8173bb4976959bf87aa870c2dd414c87bae249b4185b509f462b0192",
    ("gevrey:3", "1.1", "0.6180339887498949", "32"):
        "9afc1bed49b12818a0af947e450b95e95b66701a18978eb48e1fee8545f8ce3a",
    ("gevrey:3", "1.1", "0.6180339887498949", "64"):
        "f84f09bcbf4f849e0f51d5840b23618318cf27fd5d77209fb9f55d1d7cc3e9c1",
}


@pytest.mark.parametrize("wspec, alpha, beta, extent", list(_SECTION_G_PINS),
                         ids=["-".join(k) for k in _SECTION_G_PINS])
def test_framebounds_sections_bytes_pinned(wspec, alpha, beta, extent):
    params = lattice.LatticeParams(float(alpha), float(beta))
    w = cli.parse_window(wspec)
    digest = hashlib.sha256()
    for x in framebound.estimate_bounds(params, w, int(extent), 16).per_x[:, 0]:
        G = framebound.truncated_G(params, w, x, int(extent))
        digest.update(repr((float(x), G.shape)).encode())
        digest.update(G.tobytes())
    assert digest.hexdigest() == _SECTION_G_PINS[wspec, alpha, beta, extent]


@pytest.mark.parametrize("wspec, alpha, beta, sha, sha_before_scan_fields", [
    ("bump", "1.0", "0.70710678118654752",
     "139fe9de9d26a1f8f5e49a6d28ea0881d8cf26e23955cabfd1c8fc78a5cc9121",
     "91abf65531f6342de3a6b8de391d584ae5ad4d78036a157f2afa50464ab91c61"),
    ("gevrey:2", "0.9", "0.61803398874989485",
     "0c7a61ff1bfd8592fcca2d2be2f4466f1dc488d7dd89fb664cb097b42d919d63",
     "879f29187cc8b16ec769e416034bc2aec2599db86c1e33b5d6fdd3456a928fe0"),
], ids=["bump", "gevrey2"])
def test_certify_long_extent_bytes_pinned(tmp_path, wspec, alpha, beta, sha,
                                          sha_before_scan_fields):
    """Without its two scan lines the certificate keeps the bytes it had
    before log10_det_best and floor_shortfall_log10 existed."""
    out = tmp_path / "c.json"
    assert run(["certify", "--window", wspec, "--alpha", alpha, "--beta", beta,
                "--extent", "1024", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
    lines = out.read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith(
        ('"log10_det_best"', '"floor_shortfall_log10"'))]
    assert len(kept) == len(lines) - 2
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == \
        sha_before_scan_fields


# ---------------------------------------------------------------------------
# extent validation

@pytest.mark.parametrize("argv", [
    ["certify", "--alpha", "1.0", "--beta", "0.70710678118654752",
     "--extent", "-3"],
    ["scan", "--alpha", "1.0", "--beta", BETA_IRR, "--extent", "-1"],
    ["framebounds", "--alpha", "1.0", "--beta", BETA_IRR, "--extent", "-1",
     "--x-grid-size", "8"],
], ids=["certify", "scan", "framebounds"])
def test_negative_extent_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    assert "--extent" in capsys.readouterr().err
    assert not out.exists()


def test_framebounds_section_without_complete_column_exits_one(tmp_path,
                                                               capsys):
    out = tmp_path / "fb.csv"
    assert run(["framebounds", "--alpha", "1.0", "--beta", "0.5",
                "--extent", "0", "--x-grid-size", "8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "extent 0" in err
    assert not out.exists()


def test_framebounds_at_a_huge_extent_exits_one():
    """The complete columns come in closed form from four rows' ranges, so
    numpy's refusal of the 1e20-row section comes at once; the trimming
    loops that stepped one column at a time took about a minute."""
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "framebounds",
                           "--window", "bump", "--alpha", "1.0", "--beta", "0.5",
                           "--extent", "100000000000000000000", "--x-grid-size", "8"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


# 2e14 + 1 int64 rows are 1.42 PiB, past the 128 TiB x86-64 user address
# space: numpy's request fails at once under any overcommit policy
HUGE_EXTENT = ["--alpha", "1.0", "--beta", "0.70710678", "--extent",
               "100000000000000"]


def test_allocation_numpy_refuses_exits_one(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["certify", *HUGE_EXTENT, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not out.exists()


def test_allocation_numpy_refuses_is_a_scan_error_row(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["scan", "--alpha-grid", "1.0,1.1", *HUGE_EXTENT[2:],
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "1,0.70710678000000005,Error,,",
        "1.1000000000000001,0.70710678000000005,Error,,"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("Unable to allocate" in e for e in err)


# ---------------------------------------------------------------------------
# determinant floor, samples per gap and quadrature nodes

ROUNDING_NOISE_CASE = ["--window", "bump", "--alpha", "0.62747",
                       "--beta", "1.54268", "--extent", "16"]


@pytest.mark.parametrize("subcommand, via, option, value", [
    ("certify", "flag", "delta_floor", "0"),
    ("certify", "flag", "delta_floor", "-1"),
    ("certify", "flag", "delta_floor", "nan"),
    ("certify", "flag", "delta_floor", "inf"),
    ("certify", "flag", "samples_per_gap", "2"),
    ("certify", "flag", "samples_per_gap", "1"),
    ("certify", "flag", "samples_per_gap", "0"),
    ("certify", "flag", "samples_per_gap", "-1"),
    ("certify", "config", "delta_floor", "0"),
    ("certify", "config", "samples_per_gap", "2"),
    ("scan", "flag", "delta_floor", "0"),
    ("scan", "flag", "samples_per_gap", "2"),
    ("scan", "config", "delta_floor", "-1"),
    ("scan", "config", "samples_per_gap", "0"),
])
def test_unusable_floor_or_samples_exit_one(tmp_path, capsys, subcommand, via,
                                            option, value):
    """A floor <= 0 certified the bump at (0.62747, 1.54268) on a delta of
    7.8e-57, and fewer than 3 samples per gap can never certify."""
    out = tmp_path / "o"
    argv = [subcommand] + ROUNDING_NOISE_CASE + ["--out", str(out)]
    if via == "flag":
        argv += [cli._flag(option), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1", "-1", "2"])
def test_random_window_too_few_quadrature_nodes_exits_one(tmp_path, capsys, n):
    # 0 ended in an IndexError; 1 wrote a one-row CSV that certify rejects;
    # 2 wrote the zero window, both nodes being its forced zero ends
    out = tmp_path / "w.csv"
    assert run(["random-window", "--seed", "1", "--dt", "0.00390625",
                "--quadrature-n", n, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "quadrature_n" in err
    assert not out.exists()
