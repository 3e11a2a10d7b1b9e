"""Linear-algebra helpers used by the abstract domains and the monDEQ substrate.

The helpers here are deliberately small and dependency-free (numpy only) so
that the abstract-domain code stays readable:

* :func:`pca_basis` — the PCA basis of an error matrix, used by error
  consolidation (Kopetzki et al. 2017, as adopted in Section 4 of the paper).
* :func:`pooled_gram_basis` / :func:`randomized_range_basis` /
  :func:`shared_pca_basis` — one orthonormal basis for a whole *stack* of
  error matrices, used by the shared-basis consolidation mode of the
  batched engines (a batch shares the model weights, so a pooled basis
  replaces O(batch) per-sample SVDs with one factorisation plus BLAS-3
  projections).  Soundness never depends on the basis choice — Theorem 4.1
  holds for any invertible basis — only precision does.
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


#: ``B * k`` threshold above which :func:`shared_pca_basis` prefers the
#: randomized range finder over the exact pooled Gram: past this point the
#: sketch's single fused einsum (no per-sample Gram accumulation) wins on
#: memory traffic, and the basis quality difference is immaterial because
#: consolidation is sound for any orthonormal basis.
RANDOMIZED_BASIS_THRESHOLD = 1 << 16


def pooled_gram_basis(generator_stack: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the pooled second-moment of a generator stack.

    Accumulates the pooled Gram matrix ``G = sum_i G_i G_i^T`` over the
    ``(B, p, k)`` stack in one einsum and eigendecomposes it — the
    eigenvectors, sorted by descending eigenvalue, are the principal
    directions of the *union* of all samples' error columns.  This is the
    exact shared counterpart of the per-sample PCA basis: for ``B = 1``
    the returned subspaces coincide with :func:`pca_basis` (eigenvectors
    of ``G G^T`` are the left singular vectors of ``G``).

    Cost: one ``O(B p^2 k)`` BLAS pass plus a single ``O(p^3)``
    symmetric eigendecomposition — independent of the batch size where
    the per-sample path pays ``B`` dense SVDs.
    """
    stack = np.asarray(generator_stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("generator_stack must have shape (batch, p, k)")
    p = stack.shape[1]
    if stack.size == 0 or not np.any(stack):
        return np.eye(p)
    gram = np.einsum("bik,bjk->ij", stack, stack)
    gram = 0.5 * (gram + gram.T)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    # eigh orders ascending; consolidation conventions (and pca_basis)
    # put the dominant direction first.
    order = np.argsort(eigenvalues)[::-1]
    return np.ascontiguousarray(eigenvectors[:, order])


def randomized_range_basis(
    generator_stack: np.ndarray, oversample: int = 8, seed: int = 0
) -> np.ndarray:
    """Randomized range-finder basis for a large generator stack.

    Halko–Martinsson–Tropp style sketch of the pooled error matrix
    ``M = [G_1 | ... | G_B]``: the stack is compressed through a seeded
    Gaussian test matrix in a single fused einsum (``Y = M Omega``, with
    ``Omega`` drawn per-sample so the ``(p, B k)`` pooled matrix is never
    materialised), and the sketch's left singular vectors — completed to
    a full orthonormal basis of ``R^p`` by :func:`pca_basis` — become the
    shared consolidation basis.  The seed is fixed so repeated sweeps and
    worker processes derive identical bases.

    Any orthonormal basis yields a *sound* consolidation; the sketch only
    trades a little alignment quality for one pass over the stack, which
    is what the shared-basis mode wants once ``B * k`` gets large.
    """
    stack = np.asarray(generator_stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("generator_stack must have shape (batch, p, k)")
    batch, p, k = stack.shape
    if stack.size == 0 or not np.any(stack):
        return np.eye(p)
    rng = np.random.default_rng(seed)
    width = p + max(0, int(oversample))
    omega = rng.standard_normal((batch, k, width))
    sketch = np.einsum("bpk,bkw->pw", stack, omega)
    return pca_basis(sketch)


def shared_pca_basis(generator_stack: np.ndarray, method: str = "auto") -> np.ndarray:
    """One orthonormal consolidation basis shared by a whole generator stack.

    ``method`` selects the kernel: ``"gram"`` (exact pooled Gram,
    :func:`pooled_gram_basis`), ``"randomized"``
    (:func:`randomized_range_basis`) or ``"auto"`` (the default), which
    uses the exact pooled Gram until the stack's total column count
    ``B * k`` crosses :data:`RANDOMIZED_BASIS_THRESHOLD` and the sketch
    becomes the cheaper route.
    """
    stack = np.asarray(generator_stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("generator_stack must have shape (batch, p, k)")
    if method == "auto":
        total_columns = stack.shape[0] * stack.shape[2]
        method = "randomized" if total_columns > RANDOMIZED_BASIS_THRESHOLD else "gram"
    if method == "gram":
        return pooled_gram_basis(stack)
    if method == "randomized":
        return randomized_range_basis(stack)
    raise ValueError(
        f"method must be one of ('auto', 'gram', 'randomized'), got {method!r}"
    )


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
