"""daggerkit: exact arithmetic over complete discrete valuation rings.

Finite-truncation computations around dagger-style completions: valuations
and fraction-field arithmetic, Smith forms and lattices, truncated spectral
radii, overconvergent (twisted) monoid series with growth certificates, and
crossed products by affine actions.

Submodules load on first use (PEP 562): ``import daggerkit`` imports none of
them, and reading an exported name imports only its home module.
"""

from importlib import import_module

_EXPORTS = {
    "crossed": ("AffineAction", "BoundednessReport", "CrossedElem", "act",
                "crossed_certify", "crossed_mul", "shift_action",
                "uniform_boundedness_probe"),
    "linalg": ("Lattice", "MatrixV", "ModulePresentation", "SNFResult",
               "kernel_basis", "snf"),
    "monoid": ("BicharacterCocycle", "Cocycle", "MonoidDescriptor",
               "MonoidElem", "TableCocycle", "TrivialCocycle",
               "cocycle_check", "compose", "length_ge1"),
    "ring": ("INFINITY", "PrecisionExhausted", "RingDescriptor", "ScalarElem",
             "arith", "div", "val"),
    "series": ("CertificateEnvelope", "DaggerSeries", "GrowthCertificate",
               "add_scale", "best_certificate", "certify",
               "membership_filtration", "mul", "nc_torus", "series_pow",
               "torus_monomial"),
    "spectral": ("MatrixAlgebraContext", "ProbeReport", "RadiusReport",
                 "SeriesAlgebraContext", "characteristic_polynomial",
                 "lattice_from_elements", "lattice_product",
                 "lgb_closure", "newton_polygon_rho", "pi_multiplicative",
                 "rho1_estimate", "semi_dagger_probe", "star_scale"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in globals(): a later read sees whatever the home module
    # binds then, so a patch of that module and its undo both show through.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
