"""Golden digests: the built-in and random-channel reports do not change by a single byte.

Each digest is the SHA-256 of ``render_jsonl(run_sweep(...), with_meta=False)``
for one built-in scenario, sweep seed and Monte Carlo shot count, or for one
random-channel sweep built as the property suite builds its channels.  A change
that moves any byte of a deterministic record must update the digest here
and state which fields moved and why.  The digests were taken with numpy
2.4 on x86-64 with OpenBLAS; another BLAS build may move the last bits of
the floating-point fields.
"""
import hashlib

import pytest

from lownoise.report import render_jsonl
from lownoise.scenarios import Scenario, SweepConfig, build_scenario, random_channel, random_input_state
from lownoise.sweep import run_sweep

DIGESTS = {
    ("three-level", 1, 0): "ce721b8cc2ad06cb3dd0cf9e204e124600fed09ec4809061fa9b3634379cffad",
    ("three-level", 1, 1000): "f2c9a88d3bbeb0479ff89c970f50f2d12956f43d8406242b369ecdf3559deb28",
    ("three-level", 2, 0): "d40d12e8144e9cc161369f2946d70311f7d22ff554ae063be01a72da88a25e86",
    ("three-level", 2, 1000): "a3e70c0a3cdafb6b9857bc38fd4b29e783e069414b0648822e41e7ea94c39375",
    ("three-level", 3, 0): "093494ad2f4d6f31a57a4904fd1bebaabb9ac647e5b1f63526074a7b1ced53d1",
    ("three-level", 3, 1000): "8b8e006cdd0454321fee0f9dbcea8506e2a7b538eaea321f41533f4aa110e1f1",
    ("pauli2", 1, 0): "ea64e1bc2345a296c835af4ef13f84dcd756bf13c30b48009a51622f4ae0be7f",
    ("pauli2", 1, 1000): "198b2e8d6b94dc3abd232e4a17a4178d8700cbf844dbdc6f36b413b82679b055",
    ("pauli2", 2, 0): "570ddb3629be65a07cd5af9cd3403faa618644f28d141dae7cee1116a5c84a8e",
    ("pauli2", 2, 1000): "507729166f875d8997017118b9b1ff0c843d26c86111f46ca96a7701c58afcd3",
    ("pauli2", 3, 0): "617cba6cc3d65418f5084795c0da262aaf09b27b2cefb2fad8f15323071eab0e",
    ("pauli2", 3, 1000): "6bbcd82de6744091a35c565d137433a209d5207514c2d5ddcdd631a577f3356a",
    ("ancilla-bell", 1, 0): "439a38cc2172694bb4e14a48494ac0eba0613d0bf0d9a03a4e68a22874122118",
    ("ancilla-bell", 1, 1000): "83fc46eb8996c82f4a6855f8777129c2913aa25185f8b8a0af0f44d6cfea5c89",
    ("ancilla-bell", 2, 0): "fd4aa72e2637975ac6349ff50a4b612723da733aa372f6d122a15c3bfae0141f",
    ("ancilla-bell", 2, 1000): "766fc17e241fafeb4391e8d34739cb100906fb5b6feb75a6441a83f4a23d1caa",
    ("ancilla-bell", 3, 0): "d1c04ec3197ef16de98945badefacd048834c213afa6aa47fd62ec03715a9f04",
    ("ancilla-bell", 3, 1000): "727701d940b86cdfc8780fd5884cc4f81d923a0e5a75aac83669f0426d40af87",
}


@pytest.mark.parametrize("name, seed, shots", sorted(DIGESTS))
def test_report_digest(name, seed, shots):
    text = render_jsonl(run_sweep(build_scenario(name, seed=seed), shots=shots), with_meta=False)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name, seed, shots]


# (N, D, seed): one jump per parameter, generators on odd seeds, uniform direction,
# default scales, 1,000 shots.  D <= N-1 (K <= N-1, the covariance cross-checks
# run) and D >= N (K > N-1, every row takes the divergent pseudo-inverse)
RANDOM_DIGESTS = {
    (2, 1, 0): "85bc11b282235cf35cdd1664b60a339aa4a55b7fd4a8e3f776d098def3382d32",
    (3, 2, 1): "d2d3d46747bfe0307c4efa51900449beda9cc12dd9705b019595679fde184985",
    (4, 3, 2): "988e19d313b5ec639df976abf67924379fbff95dbe7605ec5c94960d96ffb1ea",
    (2, 2, 1): "071f7a806e3a757c8e6041ef863631b0c5f5f6f40ba092903d3da8f2fc61cb53",
    (3, 4, 0): "0cf7506c340eb36cfec2c05387a54fefdda16ae6c26eef2034d2c9b0176bdc82",
    (5, 5, 1): "aef43c02952d449909e8ef9a6e58652b0e8f17def32f24e16fd6406a41948aa4",
}


@pytest.mark.parametrize("dim, num_params, seed", sorted(RANDOM_DIGESTS))
def test_random_channel_report_digest(dim, num_params, seed):
    ch = random_channel(dim, num_params, [1] * num_params, seed, with_hamiltonian=bool(seed % 2))
    sweep = SweepConfig(direction=(1.0 / num_params,) * num_params)
    report = run_sweep(Scenario("random", ch, random_input_state(dim, seed), sweep), shots=1000)
    text = render_jsonl(report, with_meta=False)
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DIGESTS[dim, num_params, seed]
