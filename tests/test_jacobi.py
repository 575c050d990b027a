import numpy as np
import pytest

from reeblab.errors import NoConvergence
from reeblab.jacobi import jacobi_eigh


def test_small_known_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, v = jacobi_eigh(a)
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    assert np.allclose(a @ v, v @ np.diag(w), atol=1e-12)


def test_diagonal_matrix_untouched():
    a = np.diag([3.0, -1.0, 2.0])
    w, v = jacobi_eigh(a)
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(v.T @ v), np.eye(3), atol=1e-14)


@pytest.mark.parametrize("n,seed", [(24, 0), (64, 1), (129, 2)])
def test_random_symmetric_against_lapack(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    w, v = jacobi_eigh(a)
    w_ref = np.linalg.eigvalsh(a)
    assert np.max(np.abs(w - w_ref)) < 1e-10 * max(1, np.max(np.abs(w_ref)))
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
    assert np.max(np.abs(a @ v - v * w)) < 1e-9


def test_degenerate_eigenvalues():
    # multiplicity-2 spectrum must come out with an orthonormal basis
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
    a = q @ np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 5.0]) @ q.T
    a = 0.5 * (a + a.T)
    w, v = jacobi_eigh(a)
    assert np.allclose(np.sort(w), [1, 1, 2, 2, 2, 5], atol=1e-10)
    assert np.max(np.abs(v.T @ v - np.eye(6))) < 1e-12


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (a + a.T)


def _toeplitz_tridiagonal(n):
    # constant diagonal 2, off-diagonals -1: eigenvalues 2 - 2 cos(k pi/(n+1))
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


# Cases that once broke the numpy Jacobi fallback (equal-diagonal pivots, odd
# n), kept as regression cases for the solver that replaced it.
@pytest.mark.parametrize("a,expected", [
    (np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0]),
    (_toeplitz_tridiagonal(9),
     2.0 - 2.0 * np.cos(np.arange(1, 10) * np.pi / 10)),
    (_random_symmetric(129, 5), None),
], ids=["equal_diagonal_2x2", "constant_diagonal_9", "random_129"])
def test_numpy_fallback_cases(a, expected):
    n = len(a)
    expected = np.linalg.eigvalsh(a) if expected is None else np.sort(expected)
    w, v = jacobi_eigh(a)
    assert np.max(np.abs(w - expected)) < 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
    assert np.max(np.abs(a @ v - v * w)) < 1e-9


def test_rejects_nonfinite():
    a = np.eye(3)
    a[0, 1] = a[1, 0] = np.nan
    a[2, 2] = np.inf
    with pytest.raises(ValueError, match="3 non-finite entries"):
        jacobi_eigh(a)


def test_lapack_failure_is_named(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="Eigenvalues did not converge"):
        jacobi_eigh(np.eye(2))
