import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rampopt.analysis import classical_mds, learning_envelope, snapshot_pod


def procrustes_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Residual of the best orthogonal alignment of b onto a (both centered)."""
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(b.T @ a)
    rotation = u @ vt
    return float(np.linalg.norm(b @ rotation - a))


def planted_configuration(rng, n_points: int, ambient: int = 60):
    """Random 2-d point set isometrically embedded in a high-dimensional space."""
    flat = rng.normal(size=(n_points, 2)) * np.array([3.0, 1.0])
    basis, _ = np.linalg.qr(rng.normal(size=(ambient, 2)))
    return flat, flat @ basis.T + rng.normal(size=ambient)[None, :] * 0.0 + 0.7


class TestClassicalMds:
    def test_identical_points_embed_at_origin(self):
        points = np.ones((5, 60))
        emb = classical_mds(points)
        assert np.allclose(emb.coordinates, 0.0, atol=1e-12)

    def test_planted_plane_recovered(self):
        rng = np.random.default_rng(0)
        flat, high = planted_configuration(rng, 40)
        emb = classical_mds(high)
        assert procrustes_residual(flat, emb.coordinates) < 1e-8

    def test_matches_independent_eigensolver(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(25, 60))
        emb = classical_mds(x)
        # Independent route: SVD of the centered data matrix.
        centered = x - x.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = centered @ vt[:2].T
        assert procrustes_residual(oracle, emb.coordinates) < 1e-8
        gram_eigs = (svals**2)[:2]
        assert emb.eigenvalues[:2] == pytest.approx(gram_eigs, rel=1e-9)

    def test_equilateral_triangle_exact(self):
        side = 2.5
        # three points pairwise `side` apart in 60 dimensions
        pts = np.zeros((3, 60))
        pts[1, 0] = side
        pts[2, 0] = side / 2
        pts[2, 1] = side * np.sqrt(3) / 2
        emb = classical_mds(pts)
        d01 = np.linalg.norm(emb.coordinates[0] - emb.coordinates[1])
        d02 = np.linalg.norm(emb.coordinates[0] - emb.coordinates[2])
        d12 = np.linalg.norm(emb.coordinates[1] - emb.coordinates[2])
        for d in (d01, d02, d12):
            assert d == pytest.approx(side, abs=1e-10)

    def test_fewer_than_three_points_rejected(self):
        with pytest.raises(ValueError):
            classical_mds(np.zeros((2, 10)))

    def test_coordinates_are_centered(self):
        rng = np.random.default_rng(2)
        emb = classical_mds(rng.normal(size=(30, 8)))
        assert np.allclose(emb.coordinates.mean(axis=0), 0.0, atol=1e-9)

    def test_embedded_distances_never_exceed_true_distances(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 60))
        emb = classical_mds(x)
        true = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        low = np.linalg.norm(
            emb.coordinates[:, None, :] - emb.coordinates[None, :, :], axis=2
        )
        assert np.all(low <= true + 1e-9)

    def test_relabeling_invariance_up_to_procrustes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 20))
        perm = rng.permutation(15)
        a = classical_mds(x)
        b = classical_mds(x[perm])
        assert procrustes_residual(a.coordinates[perm], b.coordinates) < 1e-8

    def test_spectrum_is_non_negative_and_zero_padded(self):
        # 10 points in 5 dimensions: the centered Gram matrix has rank 5.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 5))
        emb = classical_mds(x)
        assert emb.eigenvalues.shape == (10,)
        assert np.all(emb.eigenvalues[:5] > 0)
        assert np.all(emb.eigenvalues[5:] == 0.0)
        assert np.all(np.diff(emb.eigenvalues) <= 0)
        centered = x - x.mean(axis=0)
        assert emb.eigenvalues.sum() == pytest.approx(np.sum(centered**2), rel=1e-12)

    @pytest.mark.parametrize("n_points, dim", [(40, 60), (200, 60), (30, 3)])
    def test_matches_gram_eigendecomposition(self, n_points, dim):
        rng = np.random.default_rng(n_points + dim)
        x = rng.normal(size=(n_points, dim)) * rng.uniform(0.5, 3.0, size=dim)
        emb = classical_mds(x)
        # Reference: double-centred squared distances, eigendecomposed.
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        centring = np.eye(n_points) - 1.0 / n_points
        evals, evecs = np.linalg.eigh(-0.5 * centring @ d2 @ centring)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        rank = min(n_points - 1, dim)
        assert emb.eigenvalues[:rank] == pytest.approx(evals[:rank], rel=1e-9)
        reference = evecs[:, :2] * np.sqrt(evals[:2])
        sign = np.sign(np.sum(emb.coordinates * reference, axis=0))
        np.testing.assert_allclose(emb.coordinates, reference * sign, rtol=0, atol=1e-8)

    def test_axis_sign_is_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 60))
        emb = classical_mds(x)
        columns = np.arange(2)
        largest = emb.coordinates[np.argmax(np.abs(emb.coordinates), axis=0), columns]
        assert np.all(largest > 0)
        # A reflection of the points flips every singular vector; the map stays.
        np.testing.assert_allclose(classical_mds(-x).coordinates, emb.coordinates,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(classical_mds(x).coordinates, emb.coordinates)

    def test_points_of_lower_dimension_than_the_map(self):
        x = np.arange(5.0)[:, None]
        emb = classical_mds(x)
        assert emb.coordinates.shape == (5, 2)
        np.testing.assert_allclose(np.abs(emb.coordinates[:, 0]), [2, 1, 0, 1, 2], atol=1e-12)
        assert np.all(emb.coordinates[:, 1] == 0.0)


snapshot_sets = arrays(
    np.float64,
    st.tuples(st.integers(3, 12), st.integers(5, 30)),
    elements=st.floats(-10, 10, allow_nan=False, width=32),
)


class TestSnapshotPod:
    def test_identical_snapshots_have_no_modes(self):
        snaps = np.tile(np.linspace(0, 1, 40), (6, 1))
        pod = snapshot_pod(snaps)
        assert pod.n_modes == 0
        assert pod.reconstruct() == pytest.approx(snaps)

    def test_rank_one_ensemble(self):
        rng = np.random.default_rng(0)
        mode = rng.normal(size=50)
        amplitudes = rng.normal(size=8)
        snaps = 2.0 + amplitudes[:, None] * mode[None, :]
        pod = snapshot_pod(snaps)
        assert pod.n_modes == 1
        assert pod.energy_fractions[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_factorization_oracle(self):
        rng = np.random.default_rng(1)
        snaps = rng.normal(size=(5, 40))
        pod = snapshot_pod(snaps)
        fluct = snaps - snaps.mean(axis=0)
        _, svals, vt = np.linalg.svd(fluct, full_matrices=False)
        energies = svals**2 / np.sum(svals**2)
        assert pod.energy_fractions == pytest.approx(energies[: pod.n_modes], abs=1e-10)
        for k in range(pod.n_modes):
            overlap = abs(np.dot(pod.modes[:, k], vt[k]))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    @given(snapshot_sets)
    @settings(max_examples=40)
    def test_core_properties(self, snaps):
        pod = snapshot_pod(snaps)
        k = pod.n_modes
        if k == 0:
            return
        # The correlation-matrix route certifies its invariants down to mode
        # energies ~1e-6 of the leading one; below that, round-off in the
        # small eigenpairs dominates and the tolerances are unattainable.
        assume(pod.eigenvalues[-1] >= 1e-6 * pod.eigenvalues[0])
        gram = pod.modes.T @ pod.modes
        assert np.abs(gram - np.eye(k)).max() < 1e-10
        assert np.all(pod.energy_fractions >= 0)
        assert np.all(np.diff(pod.energy_fractions) <= 1e-15)
        assert pod.energy_fractions.sum() == pytest.approx(1.0, abs=1e-9)
        scale = max(1.0, np.abs(snaps).max())
        assert np.abs(pod.reconstruct() - snaps).max() / scale < 1e-10
        cov = pod.coefficients.T @ pod.coefficients
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 1e-10 * max(1.0, np.abs(cov).max())

    def test_energy_sum_tight_tolerance(self):
        rng = np.random.default_rng(2)
        pod = snapshot_pod(rng.normal(size=(12, 30)))
        assert abs(pod.energy_fractions.sum() - 1.0) < 1e-12

    def test_inconsistent_snapshot_lengths_rejected(self):
        with pytest.raises(ValueError):
            snapshot_pod([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_single_snapshot_rejected(self):
        with pytest.raises(ValueError):
            snapshot_pod(np.ones((1, 10)))


class TestLearningEnvelope:
    def test_single_curve_is_its_own_envelope(self):
        curve = np.array([3.0, 2.0, 2.0, 1.0])
        env = learning_envelope([curve])
        assert np.array_equal(env.lower, curve)
        assert np.array_equal(env.upper, curve)
        assert env.best_run_index == 0

    def test_dominating_curve_is_the_lower_envelope(self):
        a = np.array([3.0, 1.0, 0.5])
        b = np.array([4.0, 2.0, 1.5])
        env = learning_envelope([a, b])
        assert np.array_equal(env.lower, a)
        assert np.array_equal(env.upper, b)
        assert env.best_run_index == 0

    def test_min_envelope_preserves_monotonicity(self):
        rng = np.random.default_rng(0)
        curves = np.minimum.accumulate(rng.normal(size=(6, 50)), axis=1)
        env = learning_envelope(list(curves))
        assert np.all(np.diff(env.lower) <= 1e-15)

    def test_tie_broken_by_earliest_attainment(self):
        late = np.array([5.0, 3.0, 1.0, 1.0])
        early = np.array([5.0, 1.0, 1.0, 1.0])
        env = learning_envelope([late, early])
        assert env.best_run_index == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            learning_envelope([np.zeros(4), np.zeros(5)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            learning_envelope([])
