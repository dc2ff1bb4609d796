"""Small linear-algebra helpers used throughout the package.

Vectorization convention, fixed package-wide: row-major, i.e.
``vec(|n><m|)`` sits at index ``n*d + m``.  Under this convention
``vec(A X B) = (A kron B^T) vec(X)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Rows formatted per write in :func:`write_csv`.
_CSV_CHUNK_ROWS = 1024

#: Pauli matrices in the computational (sigma_z) basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def hermitize(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Project onto the Hermitian part, (A + A^dag)/2, of a matrix or a stack of them.

    With ``out``, an array of the matrix's shape that does not overlap it, the
    same sum and product are written there, with the same bits and no temporary.
    """
    if out is None:
        return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))
    np.conjugate(matrix.swapaxes(-1, -2), out=out)
    np.add(matrix, out, out=out)
    return np.multiply(0.5, out, out=out)


def herm_defect(matrix: np.ndarray):
    """Largest entrywise deviation from Hermiticity, of a matrix or of each matrix in a stack."""
    return np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def diagonal_stack(diag: np.ndarray) -> np.ndarray:
    """The complex (..., d, d) zero stack with ``diag``, of shape (..., d), on its diagonal."""
    d = diag.shape[-1]
    out = np.zeros(diag.shape + (d,), dtype=complex)
    out[..., np.arange(d), np.arange(d)] = diag
    return out


def frozen(array: np.ndarray) -> np.ndarray:
    """Return a read-only copy of ``array`` (immutability of shared values)."""
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


def kron_chain(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.eye(1, dtype=complex)
    for f in factors:
        f = np.asarray(f)
        # the products np.kron forms, without its generic-rank machinery
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(
            out.shape[0] * f.shape[0], out.shape[1] * f.shape[1]
        )
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly uniform rather
    than QR-convention dependent.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def log_gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """Log-populations of the Gibbs distribution, ln p_n = -beta e_n - ln Z.

    Computed with a max-shift so that arbitrarily large ``beta * energy``
    spans never overflow; ``beta = inf`` gives its limit, 0 on level 0, -inf above.
    """
    energies = np.asarray(energies, dtype=float)
    if beta == np.inf:
        return np.where(np.arange(energies.size) == 0, 0.0, -np.inf)
    shifted = -beta * (energies - energies.min())
    return shifted - np.log(np.exp(shifted).sum())


def xlogx(p: np.ndarray) -> np.ndarray:
    """Elementwise p ln p with the continuous extension 0 ln 0 = 0; a NaN raises ValidationError."""
    p = np.asarray(p, dtype=float)
    if np.isnan(p).any():
        raise ValidationError("p ln p of NaN: the populations or eigenvalues are not finite")
    out = np.zeros_like(p)
    mask = p > 1e-300
    out[mask] = p[mask] * np.log(p[mask])
    return out


def write_csv(path, header: str, columns, row_format: str) -> None:
    """Write equal-length array columns to ``path``, one ``row_format % row`` a line.

    ``header`` is the first line, without its newline.  ``row_format`` is one
    printf-style pattern for a whole row, newline included; ``%.17g`` keeps
    every bit of a double and prints inf, -inf and nan as such.  A column may
    also hold strings, an object array of ``str`` written by a ``%s`` cell,
    for a caller that formats each distinct value once and indexes the
    strings by row (``OptimizationTrace.to_csv``).  Python copies
    of the columns are made a chunk at a time: copies of whole columns would
    raise peak memory well above what the arrays hold.  Each chunk is one
    ``(row_format * rows) % cells`` call on its cells in row order.
    """
    n_cols = len(columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for part in chunk_slices(len(columns[0]), _CSV_CHUNK_ROWS):
            cells = [None] * (n_cols * (part.stop - part.start))
            for j, col in enumerate(columns):
                cells[j::n_cols] = col[part].tolist()
            fh.write((row_format * (part.stop - part.start)) % tuple(cells))


def chunk_slices(n: int, size: int):
    """Consecutive slices of at most ``size`` items that cover ``range(n)``."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))
