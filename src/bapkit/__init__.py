"""Graded seminorm spaces, rank-one schedules, and their certificates.

The package keeps two arithmetic modes side by side: exact rationals for
certificates and floats for quick exploration.  Everything mathematical
lives behind explicit objects (boxes, vectors, seminorm systems,
operators, schedules) that serialize to deterministic JSON.
"""

__version__ = "0.1.0"

from .errors import (
    BapkitError,
    BoxTooSmallError,
    CertificateFailureError,
    ComputationCapError,
    ConfigError,
    ConstructionSoundnessError,
    ContinuousNormError,
    DegenerateInputError,
    DomainError,
    InputError,
    InsufficientDataError,
    LevelError,
    ModeError,
    UnboundedSeminormError,
    ZeroOperatorError,
)
from .scalars import FLOAT, RATIONAL
from .spaces import (
    SingleBox,
    TripleBox,
    TruncatedVector,
    unit_vector,
    vector_from_dense,
    zero_vector,
)
from .seminorms import (
    CustomLevel,
    CustomSeminorms,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    RhoTable,
    SeminormSystem,
    SupPartialSumSeminorms,
    VogtSeminorms,
    seminorm_kernel_basis,
)
from .polyhedral import graded_operator_norm, polyhedral_sup, rank_one_family_constant
from .operators import (
    ComplementDecomposition,
    FiniteRankOperator,
    RankOneSplit,
    ScheduleBlock,
    ScheduledFamily,
    accumulate,
    build_schedule,
    flatten_schedule,
    kernel_filtration,
    rank_one_split,
    scale_and_replicate,
    select_complements,
    smallest_norm_level,
    telescope,
)
from .embedding import (
    BasisCriterionReport,
    BasisSpaceElement,
    EquicontinuityCertificate,
    ReconstructionReport,
    basis_criterion_check,
    certify_equicontinuity,
    element_from_components,
    embed,
    project,
    verify_reconstruction,
)
from .vogt import (
    BapFailureWitness,
    ComparisonReport,
    NormPositivityReport,
    NuclearityCertificate,
    VogtInstance,
    bap_failure_witness,
    comparison_inequality_check,
    norm_positivity_check,
    nuclearity_certificate,
    witness_evidence,
)
from .normability import (
    CauchyFamily,
    DiagnosticVerdict,
    FloorCertificate,
    GeometricForm,
    NormedBasisReport,
    VanishingEvidence,
    basis_sup_norms,
    dv_condition_check,
    injective_extension_test,
    measure_trace,
)
from . import jsonio
