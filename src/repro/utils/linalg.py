"""Linear-algebra helpers used by the abstract domains and the monDEQ substrate.

The helpers here are deliberately small and dependency-free (numpy only) so
that the abstract-domain code stays readable:

* :func:`pca_basis` — the PCA basis of an error matrix, used by error
  consolidation (Kopetzki et al. 2017, as adopted in Section 4 of the paper).
* :func:`safe_inverse` / :func:`solve_with_fallback` — robust inversion with
  a diagnostic error when a "proper" CH-Zonotope turns out to be singular.
* :func:`spectral_norm` — ||I - W||_2 used for the FB step-size bound
  0 < alpha < 2m / ||I - W||_2^2.
* :func:`complete_to_basis` — completes a rank-deficient error matrix to a
  full basis, needed when consolidating an element with fewer than ``p``
  error terms (Section 4, "if k <= p, we pick a subset with full rank and
  complete it to a basis").
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ImproperZonotopeError


def pca_basis(error_matrix: np.ndarray, jitter: float = 1e-12) -> np.ndarray:
    """Return an orthonormal basis aligned with the principal directions of
    the columns of ``error_matrix``.

    The basis is the matrix of left singular vectors of the error matrix,
    completed to a full orthonormal basis of R^p.  It is always invertible
    (orthogonal), which is what Theorem 4.1 requires of the new basis.

    Parameters
    ----------
    error_matrix:
        ``(p, k)`` matrix whose columns are the error directions.
    jitter:
        Added to the diagonal before the decomposition when the matrix is
        numerically rank deficient, ensuring a well-defined basis.
    """
    matrix = np.asarray(error_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("error_matrix must be 2-dimensional")
    p = matrix.shape[0]
    if matrix.size == 0 or not np.any(matrix):
        return np.eye(p)
    # With k >= p the economy SVD already yields all p left singular
    # vectors; the full decomposition would additionally build the (k, k)
    # right factor, which is quadratic in the error-term count — ruinous in
    # the tightening phase, where k reaches thousands.  (The batched
    # counterpart applies the identical rule, keeping engine parity.)
    full = matrix.shape[1] < p
    try:
        u, _, _ = np.linalg.svd(matrix, full_matrices=full)
    except np.linalg.LinAlgError:
        u, _, _ = np.linalg.svd(matrix + jitter * np.eye(p, matrix.shape[1]), full_matrices=full)
    return u


def safe_inverse(matrix: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Invert ``matrix``, raising :class:`ImproperZonotopeError` when singular."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ImproperZonotopeError(f"{context} must be square to be inverted")
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise ImproperZonotopeError(f"{context} is singular and cannot be inverted") from exc


def solve_with_fallback(matrix: np.ndarray, rhs: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve ``matrix @ x = rhs``, falling back to least squares if singular.

    The least-squares fallback is only used for *diagnostic* paths (e.g.
    visualisation); soundness-critical code uses :func:`safe_inverse` which
    fails loudly instead.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        solution, _, _, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
        if not np.all(np.isfinite(solution)):
            raise ImproperZonotopeError(f"{context} system could not be solved")
        return solution


def spectral_norm(matrix: np.ndarray) -> float:
    """Return the spectral norm (largest singular value) of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.norm(matrix, ord=2))


def complete_to_basis(columns: np.ndarray, dim: int, tol: float = 1e-10) -> np.ndarray:
    """Return an invertible ``(dim, dim)`` matrix whose leading columns span
    the column space of ``columns``.

    A rank-revealing QR-style procedure: we orthonormalise the given columns,
    then append standard-basis directions orthogonal to the span until the
    basis is complete.  The returned matrix mixes the original (scaled)
    directions with the appended ones, which is exactly what consolidation
    needs when an improper CH-Zonotope has fewer than ``dim`` error terms.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2 or columns.shape[0] != dim:
        raise ValueError(f"columns must have shape ({dim}, k)")
    basis_vectors = []
    for j in range(columns.shape[1]):
        candidate = columns[:, j].astype(float)
        for existing in basis_vectors:
            candidate = candidate - np.dot(existing, candidate) * existing
        norm = np.linalg.norm(candidate)
        if norm > tol:
            basis_vectors.append(candidate / norm)
        if len(basis_vectors) == dim:
            break
    for j in range(dim):
        if len(basis_vectors) == dim:
            break
        candidate = np.zeros(dim)
        candidate[j] = 1.0
        for existing in basis_vectors:
            candidate = candidate - np.dot(existing, candidate) * existing
        norm = np.linalg.norm(candidate)
        if norm > tol:
            basis_vectors.append(candidate / norm)
    return np.column_stack(basis_vectors)


def project_to_psd_cone(matrix: np.ndarray, epsilon: float = 0.0) -> np.ndarray:
    """Project a symmetric matrix onto the cone of PSD matrices.

    Used by the monDEQ substrate when checking / repairing the monotone
    parametrisation numerically.
    """
    symmetric = 0.5 * (matrix + matrix.T)
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    eigenvalues = np.clip(eigenvalues, epsilon, None)
    return (eigenvectors * eigenvalues) @ eigenvectors.T


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Return ||a - b|| / max(1, ||b||), used in convergence diagnostics."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))
