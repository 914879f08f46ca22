"""The settable surface: every defaulted parameter of the public API.

Each default is a value a caller may set.  The set below is the whole of
them, over every function and dataclass named in a gaborcert module's
``__all__``; a change to it is a change to the library's surface.
"""

import importlib
import inspect
import pkgutil

import gaborcert

DEFAULTED = {
    "certify.CertifyConfig.delta_floor",
    "certify.CertifyConfig.extent",
    "certify.CertifyConfig.samples_per_gap",
    "certify.FrameCertificate.block_sigma_min",
    "certify.FrameCertificate.delta",
    "certify.FrameCertificate.interval_hi",
    "certify.FrameCertificate.interval_lo",
    "certify.FrameCertificate.n_blocks",
    "certify.FrameCertificate.profile",
    "certify.certify_frame.config",
    "certify.rational_analysis.delta_floor",
    "certify.rational_analysis.delta_sep",
    "certify.rational_analysis.samples",
    "cli.json_dumps.indent",
    "cli.main.argv",
    "lattice.RationalClass.p",
    "lattice.RationalClass.q",
    "randwin.sample_path.component_var",
    "randwin.sample_path.dt",
    "randwin.synthesize_window.quadrature_n",
    "window.Window.grid_vals",
    "window.Window.grid_x",
    "window.Window.order",
    "window.characteristic.hi",
    "window.characteristic.lo",
    "window.poly_bump.hi",
    "window.poly_bump.lo",
}


def _defaulted():
    found = set()
    for info in pkgutil.iter_modules(gaborcert.__path__):
        module = importlib.import_module(f"gaborcert.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            found.update(f"{info.name}.{name}.{p.name}"
                         for p in inspect.signature(obj).parameters.values()
                         if p.default is not inspect.Parameter.empty)
    return found


def test_defaulted_parameters_are_the_recorded_set():
    found = _defaulted()
    assert found == DEFAULTED, (
        f"added {sorted(found - DEFAULTED)}, removed {sorted(DEFAULTED - found)}: "
        "update DEFAULTED in tests/test_surface.py and argue the new count "
        f"({len(found)}, was {len(DEFAULTED)}) in CHANGES.md")
    assert len(DEFAULTED) == 27


def test_every_error_class_is_exported_from_the_root():
    from gaborcert import BudgetExceeded, errors

    classes = {name: obj for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.GaborCertError)}
    assert "BudgetExceeded" in classes and BudgetExceeded is errors.BudgetExceeded
    assert all(getattr(gaborcert, name, None) is cls for name, cls in classes.items())
