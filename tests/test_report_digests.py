"""Golden digests: the built-in and random-channel reports do not change by a single byte.

Each digest is the SHA-256 of ``render_jsonl(run_sweep(...), with_meta=False)``
for one built-in scenario, sweep seed and Monte Carlo shot count, or for one
``random_scenario``, built as the property suite builds its seeds.  A
change that moves any byte of a deterministic record must update the
digest here and state which fields moved and why.  The digests were taken with numpy
2.4 on x86-64 with OpenBLAS; another BLAS build may move the last bits of
the floating-point fields.
"""
import hashlib

import pytest

from lownoise.report import render_jsonl
from lownoise.scenarios import build_scenario, random_scenario
from lownoise.sweep import run_sweep

DIGESTS = {
    ("three-level", 1, 0): "d572b0bf67a180665e80b66f9aedb429617127cbdcce444e6a88b3e773624cca",
    ("three-level", 1, 1000): "2be399bce84507055e7cc51d25341b38f84da677eb5cb80b623697afc9e54ed4",
    ("three-level", 2, 0): "39dc5509d758eab24215b62037acc1290fedfd312a91bc0aebfabe49287f4b47",
    ("three-level", 2, 1000): "9dfc6b4605da11be81d5bb1530969e2cebbed333a7a0e1e4943ffe020418d1db",
    ("three-level", 3, 0): "eca2489826f97754b6a12aa935581f16bb3ce981035e26fe4b9360ad50639cf7",
    ("three-level", 3, 1000): "6455b5e1422486a76e00beb2b43d4cb14c6e6c33c72635f2b26266f1dfcdf23b",
    ("pauli2", 1, 0): "e34a6a81c593e49d85d4568b8be31062d5162ee2bd2935c4a95d726b0446bcc5",
    ("pauli2", 1, 1000): "0abb34e5f24a4fd43d04c0c9d2b37b118c2fafffc3a805369595727887c440d7",
    ("pauli2", 2, 0): "3bc6f887d3bd0ef20c73e9c9d905c5059299ab0bd2998741a106f8ed8fa4e1c5",
    ("pauli2", 2, 1000): "83ba9f7ed9d9e294faea64fa44661a7b41c32f47e7460d35fbb5d1cb3a1f28cf",
    ("pauli2", 3, 0): "e659d5dfa7c0cad24130cd352b9aa105493fbb5ad82ca0e738c8362e05b79644",
    ("pauli2", 3, 1000): "eee49ff37eaf99e1af1e5b2e91d8e0c63236ff263a8b504fd600068a7d4295a4",
    ("ancilla-bell", 1, 0): "4bd3fdafe9a0599448e24692ac518f1d81e09bca58806d20d5f72306c894796d",
    ("ancilla-bell", 1, 1000): "8a54f2abf60e959acabc307089f2bd30b3dafe2037c99ab35df3435797793509",
    ("ancilla-bell", 2, 0): "136d07c95a538bbf2deda9191962fc08557ec53a8f4125990bd801a5c841ee83",
    ("ancilla-bell", 2, 1000): "c859fa50b3fba3a72ff2e45c99a4061e72975acdca8c0a2bf7824c9190fe9d81",
    ("ancilla-bell", 3, 0): "395491024e0c264aebf9dc43ac9e2a80ac7f9612dc615c9f638dc359034eacb3",
    ("ancilla-bell", 3, 1000): "fae4928fc3d4b650faa4f3d78d9f13b47949cd1d2e9d860fec9892fe393f2690",
    # 10**8 shots, the monte-carlo workload's draw size
    ("three-level", 1, 10**8): "b577d5b3f6a29b49210fb639ce607111a12b56d480962acce94f90c6b3e82a97",
    ("pauli2", 1, 10**8): "2da6ee9f7758f7eb2a227a3b604b426a59b18fcd1930d1c9f538d4e9ac63b1d7",
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
    (2, 1, 0): "855b723ba865432186f55082381c952f70cdecfd959137df1d3d79ccc818cfc5",
    (3, 2, 1): "7bbf6b55b1c1beab23e02237fb02f5c783eab6d08ac9362b4f4bd7b4660e39d7",
    (4, 3, 2): "54baa31e4a8a3659cdff5da7d37e3e474ed3d1a506b93f0804e8d8c708f76808",
    (2, 2, 1): "46fa16eb8982bc0d036944958cde27188b03b785c2b026bbf8d35935ce21d3e3",
    (3, 4, 0): "e7d35cfe055f710a89d1ad7079df2c0d2c38008048e16b8e68d04623f579461a",
    (5, 5, 1): "f6fe0715eab98cf16db662a89bb3715a32e42f43b6ebbd95e3f65d749c3dd38c",
}


@pytest.mark.parametrize("dim, num_params, seed", sorted(RANDOM_DIGESTS))
def test_random_channel_report_digest(dim, num_params, seed):
    text = render_jsonl(run_sweep(random_scenario(dim, num_params, seed), shots=1000), with_meta=False)
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DIGESTS[dim, num_params, seed]
