"""conedef: exact calculator for graded deformation spaces of affine
cones over polarized projective varieties, with replay certificates for
the published vanishing argument on anticanonical cones.

All arithmetic is exact and integer first: polynomials and matrices hold
ints, and a Fraction only where a caller passes one in, so no command
loads ``fractions``.  Every rank that enters a dimension count is computed
by elimination, never assumed maximal, with two structural exceptions: a
map with an empty source or target has rank 0 by its shape, and the
level-0 map of the curve's restricted Euler sequence is injective, since
it multiplies sections by nonzero forms.
"""

from .cones import (
    CATALOG,
    BlownUpPlane,
    GradedAssembly,
    GradedTable,
    InternalConsistencyError,
    OutOfScopeError,
    ProductPolarization,
    RationalNormalCurve,
    RigidityVerdict,
    SegreQuadric,
    Variety,
    VeroneseSpace,
    pinkham_assembly,
    rigidity_verdict,
    t1_table,
    t2_table,
)
from .projective import OverBudgetError

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "BlownUpPlane",
    "GradedAssembly",
    "GradedTable",
    "InternalConsistencyError",
    "OutOfScopeError",
    "OverBudgetError",
    "ProductPolarization",
    "RationalNormalCurve",
    "RigidityVerdict",
    "SegreQuadric",
    "Variety",
    "VeroneseSpace",
    "pinkham_assembly",
    "rigidity_verdict",
    "t1_table",
    "t2_table",
    "Certificate",
    "CertStep",
    "StepStatus",
    "Verdict",
    "delpezzo_certificate",
    "__version__",
]

# The del Pezzo layer is imported on first use, so a command that never
# asks for a certificate does not pay for loading it.
_DELPEZZO = {"Certificate", "CertStep", "StepStatus", "Verdict", "delpezzo_certificate"}


def __getattr__(name: str):
    if name in _DELPEZZO:
        from . import delpezzo

        return getattr(delpezzo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
