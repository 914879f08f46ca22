"""Command-line front end: certification runs, parameter scans, artifacts.

Subcommands: certify, scan, framebounds, breakpoints, random-window,
fourier-decay.  Outputs are flat CSV/JSON files with 17-significant-digit
floats; identical configuration and seed reproduce them byte for byte.
Timestamps live only in an optional ``.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

from . import __version__, certify, framebound, lattice, randwin, window
from ._workers import cpus
from .errors import GaborCertError

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


def json_dumps(obj) -> str:
    """JSON with every float rendered at 17 significant digits."""
    def dump(obj, pad: str) -> str:
        if isinstance(obj, dict):
            items = ",\n".join(
                f'{pad}  {json.dumps(str(k))}: {dump(v, pad + "  ").lstrip()}'
                for k, v in obj.items())
            return f"{pad}{{\n{items}\n{pad}}}" if obj else pad + "{}"
        if isinstance(obj, (list, tuple)):
            items = ",\n".join(dump(v, pad + "  ") for v in obj)
            return f"{pad}[\n{items}\n{pad}]" if len(obj) else pad + "[]"
        if isinstance(obj, (float, np.floating)):
            if math.isnan(obj) or math.isinf(obj):
                return pad + json.dumps(str(obj))
            return pad + fmt(obj)
        if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
            return pad + str(int(obj))
        return pad + json.dumps(obj)
    return dump(obj, "")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_meta(out_path, args_ns) -> None:
    """Timestamped sidecar so the main artifacts stay deterministic."""
    meta = {"created_unix": time.time(),
            "tool_version": __version__,
            "subcommand": args_ns.subcommand}
    if "seed" in vars(args_ns):
        meta["seed"] = args_ns.seed
    _write_text(str(out_path) + ".meta.json", json_dumps(meta) + "\n")


# ---------------------------------------------------------------------------
# window / config parsing

#: CLI name of each window kind -> its constructor, whose signature is the
#: grammar: name[:field...], each field cast by its parameter's annotation
_WINDOWS = {"bump": window.bump, "oddbump": window.odd_bump,
            "char": window.characteristic, "characteristic": window.characteristic,
            "polybump": window.poly_bump, "gevrey": window.gevrey}
#: each constructor's signature, read on the first parse of its kind
_grammar = functools.cache(lambda make: inspect.signature(make, eval_str=True))


def parse_window(spec: str) -> window.Window:
    """Window from a CLI descriptor: a named kind, kind:fields, or a CSV path.

    Names: bump, oddbump, char[:lo[:hi]], polybump[:lo[:hi]], gevrey:order.
    Anything containing a path separator or ending in .csv is read as a
    sampled-window CSV.
    """
    if "/" in spec or spec.endswith(".csv"):
        try:
            return window.sampled_from_csv(spec)
        except OSError as exc:
            raise CliError(f"cannot read window file {spec!r}: {exc}") from exc
    name, *fields = spec.split(":")
    if name not in _WINDOWS:
        raise CliError(f"unknown window {spec!r} "
                       f"(expected {'|'.join(_WINDOWS)}|<file.csv>)")
    signature = _grammar(_WINDOWS[name])
    try:
        bound = signature.bind(*fields)
        return _WINDOWS[name](**{key: signature.parameters[key].annotation(value)
                                 for key, value in bound.arguments.items()})
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad window descriptor {spec!r}: {exc}") from exc


def parse_config(path, keys) -> dict:
    """``key = value`` lines; '#' comments; errors carry line numbers; a key
    outside ``keys`` is an error."""
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
        if key not in keys:
            raise CliError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = value
    return out


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"missing required option {_flag(name)}")


def _float_list(text: str) -> list:
    try:
        return [float(t) for t in text.replace(" ", "").split(",") if t]
    except ValueError as exc:
        raise CliError(f"bad number list {text!r}: {exc}") from exc


def _int_at_least(low: int):
    """argparse type: an int >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _certify_config(args) -> certify.CertifyConfig:
    return certify.CertifyConfig(samples_per_gap=args.samples_per_gap,
                                 delta_floor=args.delta_floor,
                                 extent=args.extent)


def _emit(args, text: str, sidecars=()) -> None:
    """The artifact to --out, each (suffix, text) sidecar next to it and the
    .meta.json stamp; without --out, the artifact and sidecars to stdout."""
    if not args.out:
        sys.stdout.write(text + "".join(body for _, body in sidecars))
        return
    _write_text(args.out, text)
    for suffix, body in sidecars:
        _write_text(str(args.out) + suffix, body)
    _write_meta(args.out, args)


# ---------------------------------------------------------------------------
# subcommands

def _certificate_dict(args, cert: certify.FrameCertificate,
                      params: lattice.LatticeParams, w: window.Window) -> dict:
    # the scan's numbers; None when a hypothesis failed before any scan
    scan = cert.profile
    return {
        "verdict": "Certified" if cert.certified else "NotCertified",
        "reason": cert.reason,
        "interval": (None if cert.interval_lo is None
                     else {"lo": cert.interval_lo, "hi": cert.interval_hi}),
        "delta": cert.delta,
        "log10_det_best": None if scan is None else scan.log10_det_best,
        "floor_shortfall_log10": (None if scan is None else
                                  scan.floor_shortfall_log10(args.delta_floor)),
        "block_sigma_min": cert.block_sigma_min,
        "extent": args.extent,
        "n_blocks": cert.n_blocks,
        "hypothesis_report": cert.hypothesis_report,
        "params": {"alpha": args.alpha, "beta": args.beta,
                   "rational_class": params.rational_class.label()},
        "window": w.descriptor(),
        "tool_version": __version__,
        "seed": args.seed,
    }


def _lattice(args) -> tuple[lattice.LatticeParams, window.Window]:
    w = parse_window(args.window)
    _require(args, "alpha", "beta")
    return lattice.LatticeParams(args.alpha, args.beta), w


def cmd_certify(args) -> int:
    params, w = _lattice(args)
    cert = certify.certify_frame(params, w, _certify_config(args))
    _emit(args, json_dumps(_certificate_dict(args, cert, params, w)) + "\n")
    if args.det_profile:
        ids, rows = {}, ["x,abs_det,fingerprint_id"]
        # header only if a failed hypothesis left no scan; one id lookup per gap
        if (p := cert.profile) is not None:
            fids = [ids.setdefault(fp, len(ids)) for fp in p.fingerprints]
            rows += [f"{fmt(x)},{fmt(ad)},{fids[gi]}"
                     for x, ad, gi in zip(p.x_samples, p.abs_det, p.gap_index)]
        _write_text(args.det_profile, "\n".join(rows) + "\n")
    return EXIT_CERTIFIED if cert.certified else EXIT_NOT_CERTIFIED


def _scan_point(task):
    """One (alpha, beta) grid point; returns (finished CSV row, error message
    or None).

    Top level so ProcessPoolExecutor can pickle it; a per-row failure becomes
    an Error row plus a message and never aborts the sweep.  Numbers that
    make no lattice and allocations numpy refuses are an Error; a lattice
    that is not subcritical is Skipped.  w is the parsed window or the
    exception parsing raised, which each point that is not skipped raises.
    """
    w, alpha, beta, config = task
    point = f"{fmt(alpha)},{fmt(beta)}"
    try:
        params = lattice.LatticeParams(alpha, beta)
        if not params.subcritical:
            return f"{point},Skipped,,", None
        if isinstance(w, Exception):
            raise w
        cert = certify.certify_frame(params, w, config)
    except (GaborCertError, MemoryError, ValueError) as exc:
        return f"{point},Error,,", f"alpha={fmt(alpha)} beta={fmt(beta)}: {exc}"
    verdict = "Certified" if cert.certified else "NotCertified"
    delta = "" if cert.delta is None else fmt(cert.delta)
    sigma = "" if cert.block_sigma_min is None else fmt(cert.block_sigma_min)
    return f"{point},{verdict},{delta},{sigma}", None


def cmd_scan(args) -> int:
    # a single --alpha/--beta stands in for a missing grid
    _require(args, *[key for key in ("alpha", "beta")
                     if getattr(args, key + "_grid") is None])
    alphas = [args.alpha] if args.alpha_grid is None else args.alpha_grid
    betas = [args.beta] if args.beta_grid is None else args.beta_grid
    config = _certify_config(args)
    try:
        w = parse_window(args.window)     # once, not per grid point
    except (CliError, ValueError) as exc:
        w = exc
    tasks = [(w, a, b, config) for a in alphas for b in betas]
    # a fork pool starts all its workers at the first submit: no more than
    # the grid points or the CPUs this process may run on
    workers = min(args.workers, len(tasks), cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_point, tasks))   # ordered assembly
    else:
        results = [_scan_point(t) for t in tasks]
    for _, message in results:
        if message is not None:
            print(f"error: {message}", file=sys.stderr)
    _emit(args, "alpha,beta,verdict,delta,sigma_min\n"
          + "".join(row + "\n" for row, _ in results))
    return 0


def cmd_framebounds(args) -> int:
    params, w = _lattice(args)
    est = framebound.estimate_bounds(params, w, args.extent, args.x_grid_size)
    rows = ["x,sigma_min,sigma_max"]
    rows += [f"{fmt(x)},{fmt(smin)},{fmt(smax)}" for x, smin, smax in est.per_x]
    summary = {"extent": args.extent,
               "sigma_min_inf": est.sigma_min_inf,
               "sigma_max_sup": est.sigma_max_sup,
               "rowsum_bound": framebound.upper_bound_rowsum(params, w)}
    _emit(args, "\n".join(rows) + "\n",
          [(".summary.json", json_dumps(summary) + "\n")])
    return 0


def cmd_breakpoints(args) -> int:
    bps = lattice.structure_breakpoints(*_lattice(args))
    _emit(args, "x\n" + "".join(fmt(x) + "\n" for x in bps))
    return 0


def cmd_random_window(args) -> int:
    path = randwin.sample_path(args.seed, dt=args.dt,
                               component_var=args.component_var)
    w = randwin.synthesize_window(path, args.quadrature_n)
    min_abs, _ = randwin.verify_nonvanishing(w)
    sidecar = {"seed": args.seed, "dt": args.dt,
               "component_var": args.component_var, "min_abs_core": min_abs}
    _emit(args, window.sampled_to_csv(w),
          [(".json", json_dumps(sidecar) + "\n")])
    return 0


def cmd_fourier_decay(args) -> int:
    w = parse_window(args.window)
    s_hat, c_hat = window.fourier_decay_fit(w, args.xi_max, args.n_xi)
    doc = {"window": w.descriptor(), "xi_max": args.xi_max,
           "n_xi": args.n_xi, "s_hat": s_hat, "c_hat": c_hat}
    _emit(args, json_dumps(doc) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@functools.cache
def build_parser() -> _Parser:
    """One add_argument per option, with the subcommands that read it; the
    certify/scan defaults are CertifyConfig's.  Built once per process:
    parse_args leaves the parser as it found it."""
    cfg = certify.CertifyConfig()
    parser = _Parser(prog="gaborcert",
                     description="Certify the frame property of Gabor systems "
                                 "with compactly supported windows.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {}
    for name, func, help_ in (
            ("certify", cmd_certify, "JSON frame certificate for one (alpha, beta)"),
            ("scan", cmd_scan, "CSV sweep over an (alpha, beta) grid"),
            ("framebounds", cmd_framebounds, "finite-section singular-value extremes"),
            ("breakpoints", cmd_breakpoints, "structure breakpoints in (0, alpha)"),
            ("random-window", cmd_random_window, "synthesize a Brownian-integral window"),
            ("fourier-decay", cmd_fourier_decay, "stretched-exponential decay fit")):
        commands[name] = sub.add_parser(name, help=help_)
        commands[name].set_defaults(func=func)
        commands[name].add_argument("--config", help="key = value configuration file")

    def add(names, flag, **kwargs):
        for name in names.split():
            commands[name].add_argument(flag, **kwargs)

    lattice_cmds = "certify scan framebounds breakpoints"
    add(lattice_cmds + " fourier-decay", "--out")
    add("random-window", "--out", default="random_window.csv")
    add(lattice_cmds + " fourier-decay", "--window", default="bump",
        help="bump|oddbump|char|polybump|gevrey:N|<file.csv>")
    add(lattice_cmds, "--alpha", type=float)
    add(lattice_cmds, "--beta", type=float)
    add("certify scan", "--seed", type=int)   # scan records it in .meta.json
    add("random-window", "--seed", type=int, default=0)
    add("certify scan", "--extent", type=_int_at_least(0), default=cfg.extent)
    add("framebounds", "--extent", type=_int_at_least(0), default=16)
    add("certify scan", "--samples-per-gap", type=int, default=cfg.samples_per_gap)
    add("certify scan", "--delta-floor", type=float, default=cfg.delta_floor)
    add("certify", "--det-profile", help="also write the determinant profile CSV here")
    add("scan", "--workers", type=_int_at_least(1), default=1)
    add("scan", "--alpha-grid", type=_float_list, help="comma-separated alphas")
    add("scan", "--beta-grid", type=_float_list, help="comma-separated betas")
    add("framebounds", "--x-grid-size", type=int, default=64)
    add("random-window", "--dt", type=float, default=randwin.DEFAULT_DT)
    add("random-window", "--quadrature-n", type=int, default=randwin.DEFAULT_QUADRATURE_N)
    add("random-window", "--component-var", type=float, default=1.0)
    add("fourier-decay", "--xi-max", type=float, default=80.0)
    add("fourier-decay", "--n-xi", type=int, default=200)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            # config pairs re-enter as flags ahead of the user's own, so
            # argparse's last-wins rule gives flag > config > default
            options = set(vars(args)) - {"subcommand", "func", "config"}
            pairs = parse_config(args.config, options)
            at = argv.index(args.subcommand) + 1
            args = parser.parse_args(
                argv[:at] + [f"{_flag(k)}={v}" for k, v in pairs.items()]
                + argv[at:])
        return args.func(args)
    except (CliError, GaborCertError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
