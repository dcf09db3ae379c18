"""conedef: exact calculator for graded deformation spaces of affine
cones over polarized projective varieties, with replay certificates for
the published vanishing argument on anticanonical cones.

All arithmetic is exact (integers and fractions); every rank that enters a
dimension count is computed by elimination, never assumed maximal.
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
from .delpezzo import Certificate, CertStep, StepStatus, Verdict, delpezzo_certificate

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "BlownUpPlane",
    "GradedAssembly",
    "GradedTable",
    "InternalConsistencyError",
    "OutOfScopeError",
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
