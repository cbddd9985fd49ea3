"""Post-hoc analysis: proximity maps, snapshot modal decomposition, envelopes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Embedding:
    """Two-dimensional proximity map from classical multidimensional scaling.

    coordinates : (n, 2), centered; axes ordered by eigenvalue, each axis
                  signed so that its largest-magnitude entry is positive
    eigenvalues : (n,) spectrum of the centered Gram matrix, descending: the
                  min(n, d) squared singular values of the centered (n, d)
                  points, then zeros, which the Gram matrix (of rank at most
                  d) has exactly
    point_ids   : caller-supplied identifiers, one per point
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    point_ids: np.ndarray


def classical_mds(points, target_dim: int = 2, point_ids=None) -> Embedding:
    """Embed points in target_dim dimensions by classical MDS.

    For Euclidean distances between points, classical MDS is PCA of the
    centered points (Gower 1966): with the thin SVD centered = U S V^T, the
    centered Gram matrix is U S^2 U^T, so the coordinates are the leading
    columns of U S.  This needs no n x n matrix.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError("need at least 3 points of equal dimensionality")
    n = x.shape[0]
    u, s, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    k = min(target_dim, len(s))
    coords = np.zeros((n, target_dim))
    coords[:, :k] = u[:, :k] * s[:k]
    # An SVD fixes each axis only up to sign; make the largest-magnitude entry positive.
    largest = coords[np.argmax(np.abs(coords), axis=0), np.arange(target_dim)]
    coords *= np.where(largest < 0, -1.0, 1.0)
    eigenvalues = np.zeros(n)
    eigenvalues[:len(s)] = s**2
    if point_ids is None:
        point_ids = np.arange(n)
    return Embedding(coordinates=coords, eigenvalues=eigenvalues, point_ids=np.asarray(point_ids))


@dataclass
class PodResult:
    """Energy-ranked orthonormal modes of a snapshot ensemble.

    mean_field       : (n,) ensemble average
    modes            : (n, k) orthonormal spatial modes, energy-descending
    coefficients     : (m, k) modal coefficients per snapshot
    energy_fractions : (k,) mode energy / total fluctuation energy, non-increasing
    eigenvalues      : (k,) retained eigenvalues of the temporal correlation
                       matrix fluct @ fluct.T / m
    """

    mean_field: np.ndarray
    modes: np.ndarray
    coefficients: np.ndarray
    energy_fractions: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]

    def reconstruct(self) -> np.ndarray:
        """Snapshots rebuilt from the mean and all retained modes."""
        return self.mean_field[None, :] + self.coefficients @ self.modes.T


def snapshot_pod(snapshots, rel_tol: float = 1e-12) -> PodResult:
    """Proper orthogonal decomposition of an (m, n) snapshot ensemble.

    The ensemble mean is removed and the fluctuations are factored by a thin
    SVD, fluct = U S V^T: the modes are the columns of V, the coefficients
    are U S, and the correlation eigenvalues are S^2 / m.  This replaces the
    snapshot method (Sirovich 1987), which eigendecomposes the m x m
    correlation matrix and so squares the amplitudes: a mode whose amplitude
    lies below about 1e-8 of the leading one loses all its digits in its
    eigenvalue.

    rel_tol is an amplitude ratio: a mode is kept when its singular value
    exceeds rel_tol times the leading one, i.e. when its energy exceeds
    rel_tol**2 of the leading mode's.  Dropped modes then change no snapshot
    by more than rel_tol times the leading amplitude; retaining all of them
    reproduces every snapshot to round-off.
    """
    s = np.asarray(snapshots, dtype=float)
    if s.ndim != 2:
        raise ValueError("snapshots must form an (m, n) matrix of equal-length fields")
    m = s.shape[0]
    if m < 2:
        raise ValueError("need at least 2 snapshots")
    mean = s.mean(axis=0)
    fluct = s - mean
    u, amplitudes, vt = np.linalg.svd(fluct, full_matrices=False)
    # Amplitudes at the round-off scale of the mean subtraction are noise,
    # not modes; the floor follows the snapshot magnitude.
    roundoff = np.finfo(float).eps * np.abs(s).max(initial=0.0) * np.sqrt(s.size)
    scale = amplitudes[0] if amplitudes.size else 0.0
    keep = amplitudes > max(rel_tol * scale, roundoff)
    energies = amplitudes**2
    total = energies.sum()
    return PodResult(
        mean_field=mean,
        modes=vt[keep].T,
        coefficients=u[:, keep] * amplitudes[keep],
        energy_fractions=energies[keep] / total,
        eigenvalues=energies[keep] / m,
    )


@dataclass
class Envelope:
    """Pointwise min/max of best-so-far curves across runs."""

    lower: np.ndarray
    upper: np.ndarray
    best_run_index: int


def learning_envelope(curves) -> Envelope:
    """Envelope of one or more learning curves of equal length.

    The best run attains the global minimum final value; ties break toward
    the run that reached it at the earliest iteration.
    """
    arrays = []
    for c in curves:
        arr = np.asarray(getattr(c, "best_so_far", c), dtype=float)
        if arr.ndim != 1:
            raise ValueError("each curve must be one-dimensional")
        arrays.append(arr)
    if not arrays:
        raise ValueError("need at least one curve")
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("curves must have equal length")
    stack = np.stack(arrays)
    finals = stack[:, -1]
    best_final = finals.min()
    tied = np.flatnonzero(finals == best_final)
    attained = [int(np.argmax(stack[i] == best_final)) for i in tied]
    best = int(tied[int(np.argmin(attained))])
    return Envelope(lower=stack.min(axis=0), upper=stack.max(axis=0), best_run_index=best)
