"""Golden artifacts of a small fixed-seed pipeline run through ``rampopt.cli.main``.

``parametric``, then ``optimize --oracle`` (35 particles x 60 iterations x 2
runs on the default noisy surrogate), then ``analyze``, all at seed 0.  Every
artifact whose bits depend only on this package is pinned by its SHA-256
digest, so a change that moves one output bit fails here.  A change that
moves output bits on purpose updates the digests in the same commit.

The embedding coordinates come from a LAPACK SVD, whose last bits are not
portable; they are checked against stored values with a tolerance, allowing
one sign flip per axis.  Manifests are
compared without their timestamps.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from rampopt.cli import main

PARAMETRIC = ["parametric", "--seed", "0"]
OPTIMIZE = ["optimize", "--seed", "0", "--runs", "2", "--iterations", "60",
            "--particles", "35", "--oracle"]

DIGESTS = {
    "par/study.csv": "810bc54fca833d7bf9890e034566a1c2c6b445f7adeb458aa0418ad39135a657",
    "par/scatter.csv": "659ed082077628f77026366dbdc425b117e10afd58b47f16955504e055e15977",
    "par/best_cases.txt": "29cde6e672a6e5d35bf440b43ad4a863f0ab05a38e76e86b2dc4bd879383ec16",
    "opt/ledger.csv": "96f1afc27b3633d461a111a48efce4a0e682f0a980a50873cd52a8a737d9a051",
    "opt/run0_curve.csv": "aeaf93a0e023df34eb8f24e674d3d2f21763d95609d75ed3b1e23ef724e8b555",
    "opt/run1_curve.csv": "4d66c24bf7cead3071d65fe5d280f351806f5b086b818f83dddae2bc85e8f5c3",
    "opt/run0_best_pattern.txt": "33ff99f258d203e522acaa81fdbc8661a5a374c7fb31b21c0947f6db0952d303",
    "opt/run1_best_pattern.txt": "73b9fab4d1c9281c7afa0beb2550f503c7f71c9f67d2830b443c8715784b9232",
    "opt/envelope.csv": "a4261390bbc302eeb67da06f0fdcd6a043b7a0a7f1640a0d90987f2a03a5e8e6",
    "opt/oracle.txt": "b8638800a08be10bfe030f39e82ca80254eace4e7e91c3a43219cdaceb1b1b7e",
    "ana/envelope.csv": "a4261390bbc302eeb67da06f0fdcd6a043b7a0a7f1640a0d90987f2a03a5e8e6",
    "ana/best_run.txt": "63504f8ac503246da0474d947c5a49ac1b0c7b6857c3b80cbd66ace1dbe79252",
}

MANIFESTS = {
    "par/manifest.json": {
        "command": "parametric",
        "config_digest": "17ed37e6f54013ca4281a924cbf11c392e7f06c01407c3b1275b1787c1c04d9a",
        "master_seed": 0,
        "tool_version": "0.1.0",
        "outputs": ["config.json", "study.csv", "scatter.csv", "best_cases.txt"],
    },
    "opt/manifest.json": {
        "command": "optimize",
        "config_digest": "4b6b73aec8a58125ebdd4030f8ae25e8cd48b63838315e52af44e5cd054b2edc",
        "master_seed": 0,
        "tool_version": "0.1.0",
        "outputs": ["config.json", "run0_curve.csv", "run0_best_pattern.txt",
                    "run1_curve.csv", "run1_best_pattern.txt", "ledger.csv",
                    "envelope.csv", "embedding_best_run.csv", "oracle.txt"],
    },
}

# Both embedding files map the best run's ledger at stride 2: 1050 points.
EMBEDDING_POINTS = 1050
# SHA-256 of the "point_id,fitness" lines, which involve no LAPACK call.
EMBEDDING_IDS_FITNESS = "ac9650e474307ea4231fb08fbd9790944ad08dcc27b464b3826491db709b6cdd"
# (row, gamma1, gamma2) every 150 rows, and the per-axis sums of squares.
EMBEDDING_SAMPLES = [
    (0, -1.1555775777430861, -2.4875128185236277),
    (150, -2.873470598428371, -0.379624417931175),
    (300, -0.9609905618788389, 1.0604424253471911),
    (450, -1.2266106957975582, 1.8817898900556393),
    (600, 0.7896807966955657, 0.16910509631368573),
    (750, 1.8832442082823573, -0.20037567777182502),
    (900, 2.156428144590001, -0.9694512655756485),
]
EMBEDDING_SUMSQ = (3914.566766381392, 1979.3433847496535)
EMBEDDING_TOL = 1e-8


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(PARAMETRIC + ["--out", str(out / "par")]) == 0
    assert main(OPTIMIZE + ["--out", str(out / "opt")]) == 0
    assert main(["analyze", "--run-dir", str(out / "opt"), "--out", str(out / "ana")]) == 0
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_artifact_digest(pipeline, name):
    assert hashlib.sha256((pipeline / name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_manifest_without_timestamps(pipeline, name):
    manifest = json.loads((pipeline / name).read_text())
    for key in ("started_at", "finished_at"):
        assert manifest.pop(key)
    out = str(pipeline / name.split("/")[0])
    argv = (PARAMETRIC if name.startswith("par/") else OPTIMIZE) + ["--out", out]
    assert manifest == {**MANIFESTS[name], "argv": argv}


@pytest.mark.parametrize("name", ["opt/embedding_best_run.csv", "ana/embedding.csv"])
def test_embedding_matches_stored_values(pipeline, name):
    with (pipeline / name).open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == EMBEDDING_POINTS
    ids_fitness = "\n".join(f"{r['point_id']},{r['fitness']}" for r in rows).encode()
    assert hashlib.sha256(ids_fitness).hexdigest() == EMBEDDING_IDS_FITNESS

    gamma = np.array([[float(r["gamma1"]), float(r["gamma2"])] for r in rows])
    expected = np.array([[g1, g2] for _, g1, g2 in EMBEDDING_SAMPLES])
    got = gamma[[i for i, _, _ in EMBEDDING_SAMPLES]]
    sign = np.sign(np.sum(got * expected, axis=0))  # one eigenvector sign per axis
    assert np.all(sign != 0)
    np.testing.assert_allclose(got * sign, expected, rtol=0, atol=EMBEDDING_TOL)
    np.testing.assert_allclose((gamma**2).sum(axis=0), EMBEDDING_SUMSQ, rtol=EMBEDDING_TOL)
