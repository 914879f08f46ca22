"""CLI contract: exit codes, artifact formats, config layering, determinism."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gaborcert import certify, cli, lattice, randwin, window

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
    assert doc["reason"] == "density alpha*beta >= 1"


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


def test_certify_det_profile_flagship_bytes(tmp_path):
    """Flagship profile CSV, pinned from the sample-by-sample scan."""
    prof = tmp_path / "p.csv"
    assert run(["certify", "--window", "bump", "--alpha", "1.0", "--beta",
                BETA_IRR, "--out", str(tmp_path / "c.json"),
                "--det-profile", str(prof)]) == 0
    assert hashlib.sha256(prof.read_bytes()).hexdigest() == (
        "750962723a3ea547c015c2748e8d6521ec7267818b56f7d644b5e72ec16458b8")


def test_certify_det_profile_many_gaps_bytes(tmp_path):
    """gevrey:2 at alpha*beta ~ 0.95: 70 gaps sharing 49 structures, so the
    fingerprint ids repeat across gaps; pinned from the per-sample scan."""
    prof = tmp_path / "p.csv"
    assert run(["certify", "--window", "gevrey:2", "--alpha", "1.3",
                "--beta", "0.73076923", "--extent", "16",
                "--out", str(tmp_path / "c.json"),
                "--det-profile", str(prof)]) == 2
    lines = prof.read_text().strip().split("\n")[1:]
    assert len(lines) == 70 * 32
    assert len({l.split(",")[2] for l in lines}) == 49
    assert hashlib.sha256(prof.read_bytes()).hexdigest() == (
        "335f22c1a321383bbf34a32d47f5b10c866851dc97ff95a34514819a213a9c26")


def test_certify_det_profile_sampled_window_bytes(tmp_path):
    """Complex Brownian window read back from its CSV; pinned from the
    per-sample scan."""
    win, prof = tmp_path / "w.csv", tmp_path / "p.csv"
    assert run(["random-window", "--seed", "3", "--dt", "0.00390625",
                "--quadrature-n", "256", "--out", str(win)]) == 0
    assert run(["certify", "--window", str(win), "--alpha", "0.8",
                "--beta", "0.70710678118654757",
                "--out", str(tmp_path / "c.json"),
                "--det-profile", str(prof)]) == 0
    assert hashlib.sha256(prof.read_bytes()).hexdigest() == (
        "e59c254da7ea21013192d1dd87e83f27bb44eefaa2fae976ea6c823bb8f7a22b")


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


@pytest.mark.parametrize("grid, pool_sizes", [
    ("1.5,1.6,1.7", [3]),       # alpha*beta >= 1: Skipped rows, no certify
    ("1.5", []),
    ("", []),
], ids=["three-points", "one-point", "empty"])
def test_scan_workers_capped_at_grid_points(tmp_path, monkeypatch, grid,
                                            pool_sizes):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    out = tmp_path / "s.csv"
    assert run(["scan", f"--alpha-grid={grid}", "--beta-grid", "0.9",
                "--workers", "5000", "--out", str(out)]) == 0
    assert _RecordingPool.sizes == pool_sizes
    alphas = [a for a in grid.split(",") if a]
    assert out.read_text() == "".join(
        f"{row}\n" for row in ["alpha,beta,verdict,delta,sigma_min"]
        + [f"{cli.fmt(float(a))},{cli.fmt(0.9)},Skipped,," for a in alphas])


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
        lattice.lattice_params(0.7, 1.0), window.characteristic())
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

def test_parse_window_variants():
    assert cli.parse_window("gevrey:4").order == 4
    assert cli.parse_window("char:0:2").support_hi == 2.0
    assert cli.parse_window("polybump").kind == "poly_bump"
    with pytest.raises(cli.CliError):
        cli.parse_window("gevrey")


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


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gaborcert.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


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
# pins recorded from the per-row column union and the per-entry separators

@pytest.mark.parametrize("wspec, alpha, beta, extent, csv_sha, summary_sha", [
    ("bump", "1.3", "0.45", "16",
     "3c386291226c032013cb07ce27a1e43ab83638a59e333c5a0b798efb4074f776",
     "67ae23fd0b58ebf0812cde90da847ca587e0c2d486a7bef71f9bb977711880ab"),
    ("bump", "0.7", "0.45", "16",        # beta*(b-a) < 1: rows without columns
     "48c99c7c3a1bdacb767040383f45b6b08654f810d6c53a5a989cf4a74b2dd7f3",
     "83a883a07d0150e4eeccc4bbc4b8ae1dcad915bd5979fff2d157417ef3478f7b"),
    ("oddbump", "0.9", "0.6", "32",
     "d252ba15b97a89d88227f29852801259d5376046148f3c43574ec20b7c8e5343",
     "7a14820c566fd1f4b1fd1b3b6c5bb3563f23ffce0aa51069964acbce6ac2f691"),
    ("gevrey:3", "1.1", "0.7", "64",
     "af7fadfee5debe5f5e24bffe3d1fed4e8e236d0301e13c8ec14407d1eb574452",
     "20e66e765226a0a73b59e91e236b5a1830201fa68ff43548a7a9d1ea35cbec6e"),
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


@pytest.mark.parametrize("wspec, alpha, beta, sha", [
    ("bump", "1.0", "0.70710678118654752",
     "91abf65531f6342de3a6b8de391d584ae5ad4d78036a157f2afa50464ab91c61"),
    ("gevrey:2", "0.9", "0.61803398874989485",
     "879f29187cc8b16ec769e416034bc2aec2599db86c1e33b5d6fdd3456a928fe0"),
], ids=["bump", "gevrey2"])
def test_certify_long_extent_bytes_pinned(tmp_path, wspec, alpha, beta, sha):
    out = tmp_path / "c.json"
    assert run(["certify", "--window", wspec, "--alpha", alpha, "--beta", beta,
                "--extent", "1024", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


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


@pytest.mark.parametrize("n", ["0", "1", "-1"])
def test_random_window_too_few_quadrature_nodes_exits_one(tmp_path, capsys, n):
    # 0 ended in an IndexError; 1 wrote a one-row CSV that certify rejects
    out = tmp_path / "w.csv"
    assert run(["random-window", "--seed", "1", "--dt", "0.00390625",
                "--quadrature-n", n, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "quadrature_n" in err
    assert not out.exists()
