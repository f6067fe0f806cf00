"""Finite fields of characteristic 2, homogeneous sextics and purely
inseparable double planes: square detection, splitting-line certificates,
singular-point classification and the normal-form recognition pipeline."""

from .field import BinaryField, FieldError
from .poly import BinForm, HomPoly, PolyError
from .surfaces import (
    ConfigurationReport,
    SingularityReport,
    SplittingCertificate,
    SurfaceError,
    classify_singularity,
    is_splitting,
    nonreduced_splitting_lines_separable,
    restrict_to_line,
    scan_splitting_lines,
    schroeer_sextic,
    singular_points,
    verify_configuration,
)
from .recognize import (
    LabeledConfiguration,
    RecognitionError,
    RecognitionResult,
    apply_frame,
    label_configuration,
    normal_form_sextic,
    normalize_frame,
    recognize_normal_form,
    recognize_surface,
)

__all__ = [
    "BinaryField",
    "FieldError",
    "BinForm",
    "HomPoly",
    "PolyError",
    "ConfigurationReport",
    "SingularityReport",
    "SplittingCertificate",
    "SurfaceError",
    "classify_singularity",
    "is_splitting",
    "nonreduced_splitting_lines_separable",
    "restrict_to_line",
    "scan_splitting_lines",
    "schroeer_sextic",
    "singular_points",
    "verify_configuration",
    "LabeledConfiguration",
    "RecognitionError",
    "RecognitionResult",
    "apply_frame",
    "label_configuration",
    "normal_form_sextic",
    "normalize_frame",
    "recognize_normal_form",
    "recognize_surface",
]
