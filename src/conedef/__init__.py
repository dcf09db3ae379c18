"""conedef: exact calculator for graded deformation spaces of affine
cones over polarized projective varieties, with replay certificates for
the published vanishing argument on anticanonical cones.

All arithmetic is exact and integer first: polynomials hold int
coefficients, the package builds integer matrices, and only reduction to
echelon form makes a Fraction, so no command loads ``fractions``.  Every
rank that enters a dimension count is computed by elimination, never
assumed maximal, with two structural exceptions: a
map with an empty source or target has rank 0 by its shape, and the
level-0 map of the curve's restricted Euler sequence is injective, since
it multiplies sections by nonzero forms.

``_EXPORTS`` maps each defining module to the names exported from it, and
each resolves on first use, so ``import conedef`` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cones": ("CATALOG", "BlownUpPlane", "OutOfScopeError", "ProductPolarization", "RigidityVerdict",
              "Variety", "VeroneseSpace", "pinkham_assembly", "rigidity_verdict", "t1_table", "t2_table"),
    "projective": ("InternalConsistencyError", "OverBudgetError", "RequestError"),
    "delpezzo": ("Certificate", "CertStep", "delpezzo_certificate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return [*globals(), *_HOME]
