"""Finite fields of characteristic 2, homogeneous sextics and purely
inseparable double planes: square detection, splitting-line certificates,
singular-point classification and the normal-form recognition pipeline."""

# perfbench imports these two from the package; every other name is imported
# from its defining module
from .field import BinaryField
from .poly import HomPoly
