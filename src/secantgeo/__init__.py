"""Exact local geometry of projective varieties: second and third
fundamental forms, tangential and secant defects, Gauss fibers, and the
Clifford algebra structure forced on degenerate tangential hypersurfaces.
"""

from .scalars import Scalar
from .linalg import Matrix
from .genericity import CertificationError, certified_value, derive_stream, random_vector

__all__ = [
    "CertificationError",
    "Matrix",
    "Scalar",
    "certified_value",
    "derive_stream",
    "random_vector",
]
