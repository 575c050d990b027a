"""Dense symmetric eigensolver: LAPACK through ``np.linalg.eigh``.

The module name dates from a hand-written cyclic Jacobi solver that this
call replaced; it is kept because the benchmark's set-up probe imports
``reeblab.jacobi.jacobi_eigh`` and its tracer wraps that function.  The
spectral route calls it for operators whose S varies along the orbit; a
constant-S operator is solved mode by mode in ``spectrum``, and this dense
solve is the tests' oracle for that route.  The basis LAPACK returns
inside a degenerate cluster is arbitrary.
``spectrum._disentangle_clusters`` fixes it deterministically in the
clusters that carry the stencil's sawtooth mode; the windings read from
any other cluster do not depend on its basis.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def jacobi_eigh(A):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (w, V) with eigenvalues ascending and orthonormal eigenvector
    columns.  Raises ValueError for a non-square, non-finite or
    nonsymmetric matrix, and NoConvergence if LAPACK fails.
    """
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    bad = int(np.count_nonzero(~np.isfinite(A)))
    if bad:
        raise ValueError(f"matrix has {bad} non-finite entries")
    asym = np.max(np.abs(A - A.T)) if A.size else 0.0
    if asym > 1e-12 * max(1.0, np.linalg.norm(A)):
        raise ValueError(f"matrix is not symmetric (defect {asym:g})")
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc
