"""Golden digests: the built-in and random-channel reports do not change by a single byte.

Each digest is the SHA-256 of ``render_jsonl(run_sweep(...), with_meta=False)``
for one built-in scenario, sweep seed and Monte Carlo shot count, or for one
``random_scenario``, built as the property suite builds its seeds.  A
change that moves any byte of a deterministic record must update the
digest here and state which fields moved and why.  The digests were taken with numpy
2.4 on x86-64 with OpenBLAS, and they pin the bits of its SkylakeX kernel,
which its dynamic-architecture build picks on a CPU with AVX-512.  Under
another kernel (``OPENBLAS_CORETYPE=Haswell``, as an AVX2-only CPU picks)
or another BLAS build the last bits of the floating-point fields move and
every digest fails, although no check, label or flag changes.
"""
import hashlib

import pytest

from lownoise.report import render_jsonl
from lownoise.scenarios import build_scenario, random_scenario
from lownoise.sweep import run_sweep

DIGESTS = {
    ("three-level", 1, 0): "c5c2e3487f2bfe1ab603ede17d49f97d536142b46e063fa867408308d4755f77",
    ("three-level", 1, 1000): "b5a8db76a26d46f8e89651d062e5a70668506841d4d0f48b80e4dc43aa3e17e7",
    ("three-level", 2, 0): "bc2b9ea558d40d6ea24d0c4860edc067bda6313a120b6bb1c89627adac524abb",
    ("three-level", 2, 1000): "562efdd9daa5c456b9468a0694c6c3462ddd466f8261ef11c5f08a1a267f6505",
    ("three-level", 3, 0): "2b561443563dec8a3ba3de72a25ecd2c2d36c5c331af5d8c25bc5466ec558686",
    ("three-level", 3, 1000): "98a0ba2b3ee5b61126dde1a45a58385fcaea0c2a8fd3728264012520b86fc440",
    ("pauli2", 1, 0): "33ad0f5e3bb82db8982e219a3dd02eeb5f793d8ccc9ea7750ae8b1624a1d2bb3",
    ("pauli2", 1, 1000): "8a5edf3b6ae7e4891e328e143dbaa708249d92c137773c619f13766bf5585d62",
    ("pauli2", 2, 0): "a5a793e41b10b9613be3a720914e927e9092a5c52a807b92c65c086d15e40152",
    ("pauli2", 2, 1000): "03ec827787efe2964462f91ee95a4c22cebc3ca0524df6308fa742d0b4319847",
    ("pauli2", 3, 0): "4546db7fc53effe06e4f6caeab1285144770c925faf95c153770b7d84c92db86",
    ("pauli2", 3, 1000): "8da80e710ab14f3bd851b41ca45dca6ce3f6456a6507f9b0ce01d034c268a7f6",
    ("ancilla-bell", 1, 0): "4bd3fdafe9a0599448e24692ac518f1d81e09bca58806d20d5f72306c894796d",
    ("ancilla-bell", 1, 1000): "8a54f2abf60e959acabc307089f2bd30b3dafe2037c99ab35df3435797793509",
    ("ancilla-bell", 2, 0): "136d07c95a538bbf2deda9191962fc08557ec53a8f4125990bd801a5c841ee83",
    ("ancilla-bell", 2, 1000): "c859fa50b3fba3a72ff2e45c99a4061e72975acdca8c0a2bf7824c9190fe9d81",
    ("ancilla-bell", 3, 0): "395491024e0c264aebf9dc43ac9e2a80ac7f9612dc615c9f638dc359034eacb3",
    ("ancilla-bell", 3, 1000): "fae4928fc3d4b650faa4f3d78d9f13b47949cd1d2e9d860fec9892fe393f2690",
    # 10**8 shots, the monte-carlo workload's draw size
    ("three-level", 1, 10**8): "038985eda8ceada1e2bc52452efd02ac45ab7d23107c8b50133390c669e892eb",
    ("pauli2", 1, 10**8): "4afd85d02da1284cb1aa89988632dac15f2f63510777f063453e4b0348a0e6f2",
    ("ancilla-bell", 1, 10**8): "f7b7f7677c1b572e86e06a1fd655b6ab7b61c112233f7398802431ad6ae01953",
}


@pytest.mark.parametrize("name, seed, shots", sorted(DIGESTS))
def test_report_digest(name, seed, shots):
    text = render_jsonl(run_sweep(build_scenario(name, seed=seed), shots=shots), with_meta=False)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name, seed, shots]


# (N, D, seed) of random_scenario: one jump per parameter, generators on odd seeds,
# uniform direction, default scales; 1,000 shots.  D <= N-1 (K <= N-1, the covariance
# cross-checks run) and D >= N (K > N-1, every row takes the divergent pseudo-inverse)
RANDOM_DIGESTS = {
    (2, 1, 0): "b99fbffb1508d3a1971248391509d2e749a16c3e0082de4c88dab2ac22d536c6",
    (3, 2, 1): "9c19b656cf586636d015a00b2d8da5a2225eda9de7941f78e8fb68b87e93c8f6",
    (4, 3, 2): "da8a1d47f2de6debc8703c4a028ba112f32cbf060bdc307a18370a26f255d276",
    (2, 2, 1): "29bc157a3d5da5ce0b32a864b8cf8f5ea754f60680297c63f25f37f3aa999ef4",
    (3, 4, 0): "9b30f257eeb0061ead8d332d77bd84fb163e669b348fe7bd67c721c053f9788f",
    (5, 5, 1): "56b40bed05c4a6ac86b3b8b3e1137b31e25a7a319778f1fcb8d1608372d2dc0f",
}


@pytest.mark.parametrize("dim, num_params, seed", sorted(RANDOM_DIGESTS))
def test_random_channel_report_digest(dim, num_params, seed):
    text = render_jsonl(run_sweep(random_scenario(dim, num_params, seed), shots=1000), with_meta=False)
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DIGESTS[dim, num_params, seed]
