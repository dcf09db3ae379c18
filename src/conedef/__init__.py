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

The root defines the three refusals every layer raises and the command
line maps to an exit code: :class:`RequestError` (exit 2),
:class:`OutOfScopeError` (3) and :class:`InternalConsistencyError` (4).
Each module imports them from here, so the command line catches them
without loading an engine module.  ``_EXPORTS`` maps each defining module
to the other names exported from it, and each resolves on first use, so
``import conedef`` loads no module of the package.
"""

from importlib import import_module

__version__ = "0.1.0"


class RequestError(ValueError):
    """A request refused before anything was built: for its form (an empty weight
    window or one whose bounds are not ints, an assembly window without weight
    0, an n, k or q of the monomial model that is not an int, a cohomology
    level outside 0..n or n < 1 for a line bundle on n-space, n outside 1..2 for the
    cotangent chase, a curve degree below 1 for the line's grids or below 2
    for the presentation, n < 2 for the cocycle check, a descriptor field
    out of range or not in plain decimal, a window bound not in plain
    decimal, an int too long to read or print) or, as an
    :class:`~conedef.projective.OverBudgetError`, for its size.  The command line maps it to exit 2."""


class OutOfScopeError(Exception):
    """The request is well-formed but outside what this engine computes."""


class InternalConsistencyError(Exception):
    """Two supposedly equivalent routes disagreed; the result is not
    trustworthy and must not be reported."""


_EXPORTS = {
    "cones": ("CATALOG", "BlownUpPlane", "ProductPolarization", "RigidityVerdict",
              "Variety", "VeroneseSpace", "pinkham_assembly", "rigidity_verdict", "t1_table", "t2_table"),
    "projective": ("OverBudgetError",),
    "delpezzo": ("Certificate", "CertStep", "delpezzo_certificate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_OWN = ("InternalConsistencyError", "OutOfScopeError", "RequestError")  # defined above
__all__ = [*_OWN, *_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return [*globals(), *_HOME]
