"""Command-line front end: certification runs, parameter scans, artifacts.

Subcommands: certify, scan, framebounds, breakpoints, random-window,
fourier-decay.  Outputs are flat CSV/JSON files with 17-significant-digit
floats; identical configuration and seed reproduce them byte for byte.
Timestamps live only in an optional ``.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, certify, framebound, lattice, randwin, window
from .errors import GaborCertError, HypothesisViolated

__all__ = ["main", "parse_window", "parse_config", "json_dumps"]

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 2
EXIT_ERROR = 1


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2), colliding with
        raise CliError(message)  # the NotCertified exit code


# ---------------------------------------------------------------------------
# serialization helpers

def fmt(x: float) -> str:
    """17 significant digits: lossless round-trip for doubles."""
    return format(float(x), ".17g")


def json_dumps(obj, indent: int = 0) -> str:
    """JSON with every float rendered at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {json_dumps(v, indent + 2).lstrip()}'
            for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}" if obj else pad + "{}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(json_dumps(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]" if len(obj) else pad + "[]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj) or math.isinf(obj):
            return pad + json.dumps(str(obj))
        return pad + fmt(obj)
    return pad + json.dumps(obj)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_meta(out_path, args_ns) -> None:
    """Timestamped sidecar so the main artifacts stay deterministic."""
    meta = {"created_unix": time.time(),
            "tool_version": __version__,
            "subcommand": args_ns.subcommand}
    _write_text(str(out_path) + ".meta.json", json_dumps(meta) + "\n")


# ---------------------------------------------------------------------------
# window / config parsing

def parse_window(spec: str) -> window.Window:
    """Window from a CLI descriptor: a named kind, kind:args, or a CSV path.

    Names: bump, oddbump, char[:lo:hi], polybump[:lo:hi], gevrey:N.
    Anything containing a path separator or ending in .csv is read as a
    sampled-window CSV.
    """
    if "/" in spec or spec.endswith(".csv"):
        try:
            return window.sampled_from_csv(spec)
        except OSError as exc:
            raise CliError(f"cannot read window file {spec!r}: {exc}") from exc
    name, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if name == "bump":
            return window.bump()
        if name == "oddbump":
            return window.odd_bump()
        if name in ("char", "characteristic"):
            return window.characteristic(*map(float, parts)) if parts \
                else window.characteristic()
        if name == "polybump":
            return window.poly_bump(*map(float, parts)) if parts \
                else window.poly_bump()
        if name == "gevrey":
            if len(parts) != 1:
                raise CliError("gevrey window needs an order, e.g. gevrey:4")
            return window.gevrey(int(parts[0]))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad window descriptor {spec!r}: {exc}") from exc
    raise CliError(f"unknown window {spec!r} "
                   "(expected bump|oddbump|char|polybump|gevrey:N|<file.csv>)")


def parse_config(path, keys=None) -> dict:
    """``key = value`` lines; '#' comments; errors carry line numbers.

    With ``keys``, a key outside that set is an error.
    """
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise CliError(f"{path}:{ln}: empty key or value")
        key = key.replace("-", "_")
        if keys is not None and key not in keys:
            raise CliError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = value
    return out


def _resolve(args, key: str, default, cast=None):
    """Precedence: command-line flag > config file > default."""
    val = getattr(args, key, None)
    if val is None:
        val = args._config.get(key)
        if val is not None and cast is not None:
            try:
                val = cast(val)
            except ValueError as exc:
                raise CliError(f"config key {key!r}: {exc}") from exc
    if val is None:
        val = default
    return val


def _require(args, key: str, cast=None):
    val = _resolve(args, key, None, cast)
    if val is None:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return val


def _float_list(text: str) -> list:
    try:
        return [float(t) for t in text.replace(" ", "").split(",") if t]
    except ValueError as exc:
        raise CliError(f"bad number list {text!r}: {exc}") from exc


def _certify_config(args) -> certify.CertifyConfig:
    return certify.CertifyConfig(
        samples_per_gap=_resolve(args, "samples_per_gap", 32, int),
        delta_floor=_resolve(args, "delta_floor", 1e-8, float),
        extent=_resolve(args, "extent", 32, int))


# ---------------------------------------------------------------------------
# subcommands

def _certificate_dict(cert: certify.FrameCertificate, alpha: float,
                      beta: float, rc: lattice.RationalClass,
                      w: window.Window, seed) -> dict:
    return {
        "verdict": "Certified" if cert.certified else "NotCertified",
        "reason": cert.reason,
        "interval": (None if cert.interval_lo is None
                     else {"lo": cert.interval_lo, "hi": cert.interval_hi}),
        "delta": cert.delta,
        "block_sigma_min": cert.block_sigma_min,
        "extent": cert.extent,
        "n_blocks": cert.n_blocks,
        "hypothesis_report": cert.hypothesis_report,
        "params": {"alpha": alpha, "beta": beta, "rational_class": rc.label()},
        "window": w.descriptor(),
        "tool_version": __version__,
        "seed": seed,
    }


def _certify_one(wspec: str, alpha: float, beta: float,
                 config: certify.CertifyConfig):
    """(certificate, rational_class); density >= 1 yields a clean negative."""
    w = parse_window(wspec)
    try:
        params = lattice.lattice_params(alpha, beta)
    except HypothesisViolated:
        rc = lattice.classify_ratio(alpha * beta)
        cert = certify.FrameCertificate(
            "not_certified", "density alpha*beta >= 1",
            {"density_lt_one": False}, extent=config.extent)
        return cert, rc, w
    return certify.certify_frame(params, w, config), params.rational_class, w


def cmd_certify(args) -> int:
    alpha = _require(args, "alpha", float)
    beta = _require(args, "beta", float)
    wspec = _resolve(args, "window", "bump")
    config = _certify_config(args)
    cert, rc, w = _certify_one(wspec, alpha, beta, config)
    doc = _certificate_dict(cert, alpha, beta, rc, w, args.seed)
    text = json_dumps(doc) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_meta(args.out, args)
    else:
        sys.stdout.write(text)

    profile_path = _resolve(args, "det_profile", None)
    if profile_path:
        ids, rows = {}, ["x,abs_det,fingerprint_id"]
        # a failed hypothesis leaves no scan and the profile header-only
        if cert.profile is not None:
            profile = cert.profile
            for x, ad, fp in zip(profile.x_samples, profile.abs_det,
                                 profile.fingerprints):
                fid = ids.setdefault(fp, len(ids))
                rows.append(f"{fmt(x)},{fmt(ad)},{fid}")
        _write_text(profile_path, "\n".join(rows) + "\n")
    return EXIT_CERTIFIED if cert.certified else EXIT_NOT_CERTIFIED


def _scan_point(task):
    """One (alpha, beta) grid point; returns (finished CSV row, error message
    or None).

    Top level so ProcessPoolExecutor can pickle it; a per-row failure becomes
    an Error row plus a message and never aborts the sweep.
    """
    wspec, alpha, beta, cfg_kwargs = task
    point = f"{fmt(alpha)},{fmt(beta)}"
    if alpha * beta >= 1.0:
        return f"{point},Skipped,,", None
    try:
        cert, _, _ = _certify_one(wspec, alpha, beta,
                                  certify.CertifyConfig(**cfg_kwargs))
    except (GaborCertError, ValueError) as exc:
        return f"{point},Error,,", f"alpha={fmt(alpha)} beta={fmt(beta)}: {exc}"
    verdict = "Certified" if cert.certified else "NotCertified"
    delta = "" if cert.delta is None else fmt(cert.delta)
    sigma = "" if cert.block_sigma_min is None else fmt(cert.block_sigma_min)
    return f"{point},{verdict},{delta},{sigma}", None


def cmd_scan(args) -> int:
    wspec = _resolve(args, "window", "bump")
    alphas = _resolve(args, "alpha_grid", None)
    betas = _resolve(args, "beta_grid", None)
    alphas = _float_list(alphas) if isinstance(alphas, str) else alphas
    betas = _float_list(betas) if isinstance(betas, str) else betas
    if alphas is None:
        alphas = [_require(args, "alpha", float)]
    if betas is None:
        betas = [_require(args, "beta", float)]
    config = _certify_config(args)
    cfg_kwargs = {"samples_per_gap": config.samples_per_gap,
                  "delta_floor": config.delta_floor, "extent": config.extent}
    tasks = [(wspec, a, b, cfg_kwargs) for a in alphas for b in betas]

    workers = _resolve(args, "workers", 1, int)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_point, tasks))   # ordered assembly
    else:
        results = [_scan_point(t) for t in tasks]
    for _, message in results:
        if message is not None:
            print(f"error: {message}", file=sys.stderr)
    text = ("alpha,beta,verdict,delta,sigma_min\n"
            + "\n".join(row for row, _ in results) + "\n")
    if args.out:
        _write_text(args.out, text)
        _write_meta(args.out, args)
    else:
        sys.stdout.write(text)
    return 0


def cmd_framebounds(args) -> int:
    w = parse_window(_resolve(args, "window", "bump"))
    params = lattice.lattice_params(_require(args, "alpha", float),
                                    _require(args, "beta", float))
    extent = _resolve(args, "extent", 16, int)
    grid = _resolve(args, "x_grid_size", 64, int)
    est = framebound.estimate_bounds(params, w, extent, grid)
    rows = ["x,sigma_min,sigma_max"]
    rows += [f"{fmt(x)},{fmt(smin)},{fmt(smax)}" for x, smin, smax in est.per_x]
    summary = {"extent": est.extent,
               "sigma_min_inf": est.sigma_min_inf,
               "sigma_max_sup": est.sigma_max_sup,
               "rowsum_bound": framebound.upper_bound_rowsum(params, w)}
    if args.out:
        _write_text(args.out, "\n".join(rows) + "\n")
        _write_text(str(args.out) + ".summary.json", json_dumps(summary) + "\n")
        _write_meta(args.out, args)
    else:
        sys.stdout.write("\n".join(rows) + "\n")
        sys.stdout.write(json_dumps(summary) + "\n")
    return 0


def cmd_breakpoints(args) -> int:
    w = parse_window(_resolve(args, "window", "bump"))
    params = lattice.lattice_params(_require(args, "alpha", float),
                                    _require(args, "beta", float))
    bps = lattice.structure_breakpoints(params, w)
    text = "x\n" + "".join(fmt(x) + "\n" for x in bps)
    if args.out:
        _write_text(args.out, text)
        _write_meta(args.out, args)
    else:
        sys.stdout.write(text)
    return 0


def cmd_random_window(args) -> int:
    seed = args.seed if args.seed is not None else _resolve(args, "seed", 0, int)
    dt = _resolve(args, "dt", randwin.DEFAULT_DT, float)
    quad_n = _resolve(args, "quadrature_n", randwin.DEFAULT_QUADRATURE_N, int)
    component_var = _resolve(args, "component_var", 1.0, float)
    path = randwin.sample_path(seed, dt=dt, component_var=component_var)
    w = randwin.synthesize_window(path, randwin.KernelConfig(quadrature_n=quad_n))
    min_abs, _ = randwin.verify_nonvanishing(w)
    out = args.out or "random_window.csv"
    window.sampled_to_csv(w, out)
    sidecar = {"seed": seed, "dt": dt, "component_var": component_var,
               "min_abs_core": min_abs}
    _write_text(str(out) + ".json", json_dumps(sidecar) + "\n")
    _write_meta(out, args)
    return 0


def cmd_fourier_decay(args) -> int:
    wspec = _resolve(args, "window", "bump")
    w = parse_window(wspec)
    xi_max = _resolve(args, "xi_max", 80.0, float)
    n_xi = _resolve(args, "n_xi", 200, int)
    s_hat, c_hat = window.fourier_decay_fit(w, xi_max, n_xi)
    doc = {"window": w.descriptor(), "xi_max": xi_max, "n_xi": n_xi,
           "s_hat": s_hat, "c_hat": c_hat}
    text = json_dumps(doc) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_meta(args.out, args)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p: _Parser) -> None:
    p.add_argument("--window", help="bump|oddbump|char|polybump|gevrey:N|<file.csv>")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--config", help="key = value configuration file")


def build_parser() -> _Parser:
    parser = _Parser(prog="gaborcert",
                     description="Certify the frame property of Gabor systems "
                                 "with compactly supported windows.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("certify", help="JSON frame certificate for one (alpha, beta)")
    _add_common(p)
    p.add_argument("--extent", type=int)
    p.add_argument("--samples-per-gap", dest="samples_per_gap", type=int)
    p.add_argument("--delta-floor", dest="delta_floor", type=float)
    p.add_argument("--det-profile", dest="det_profile",
                   help="also write the determinant profile CSV here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", help="CSV sweep over an (alpha, beta) grid")
    _add_common(p)
    p.add_argument("--alpha-grid", dest="alpha_grid", help="comma-separated alphas")
    p.add_argument("--beta-grid", dest="beta_grid", help="comma-separated betas")
    p.add_argument("--extent", type=int)
    p.add_argument("--samples-per-gap", dest="samples_per_gap", type=int)
    p.add_argument("--delta-floor", dest="delta_floor", type=float)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("framebounds",
                       help="finite-section singular-value extremes")
    _add_common(p)
    p.add_argument("--extent", type=int)
    p.add_argument("--x-grid-size", dest="x_grid_size", type=int)
    p.set_defaults(func=cmd_framebounds)

    p = sub.add_parser("breakpoints", help="structure breakpoints in (0, alpha)")
    _add_common(p)
    p.set_defaults(func=cmd_breakpoints)

    p = sub.add_parser("random-window",
                       help="synthesize a Brownian-integral window")
    _add_common(p)
    p.add_argument("--dt", type=float)
    p.add_argument("--quadrature-n", dest="quadrature_n", type=int)
    p.add_argument("--component-var", dest="component_var", type=float)
    p.set_defaults(func=cmd_random_window)

    p = sub.add_parser("fourier-decay", help="stretched-exponential decay fit")
    _add_common(p)
    p.add_argument("--xi-max", dest="xi_max", type=float)
    p.add_argument("--n-xi", dest="n_xi", type=int)
    p.set_defaults(func=cmd_fourier_decay)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a config file may set any option of the subcommand but --config
        options = set(vars(args)) - {"subcommand", "func", "config"}
        args._config = parse_config(args.config, options) if args.config else {}
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (GaborCertError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
