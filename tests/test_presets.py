import hashlib
import json

import pytest

from gaudual.presets import PRESETS

# sha256 of json.dumps(PRESETS[name](), sort_keys=True): any drift in a
# built-in grid (a spec added, dropped, reordered or changed) changes its hash
GOLDEN = {
    "classical-grid": "9df6382a47561553447653ce7f3101596d16cf1fadcd3f39cebf4edab8c43d8f",
    "fermionic-grid": "be05a6260ffc03a38a2c29e6a26fa857576dc959e3ab3a461970dc36cba00e40",
    "quantum-grid": "28a2de2a35eddd04c5e7e9b03879c94d4a8007029ddcd24afea9eefd4c7cf095",
    "homomorphism-grid": "06b3101f9641b437f3d9d385c503224ced502fc7db5d73e62aebda5394504f9b",
    "mutation-suite": "a5ad28edc9ff40cc4ec27f7712fc8063bc9fe29c61eec8b50c0ecca47f8ab5d5",
    "commutativity-grid": "2470a51dfad7c922e259e8a6f993bdfcb796750842630b301a5241a71d59cf9e",
    "cyclotomic-grid": "07ba5513aeb5e35a7952fe73c0e33cbfdf332fd2c036770b2b87314f3864a85a",
    "neumann": "447efa71a4c2ec068873917dcbbf114c91f3cb60ff4ee44aaa79c26c8fea98cc",
    "lax-algebra": "0b6ebf3b1a1b411a49d977bf59e1ad82b992b68983033d1c43128e30b6ad9062",
    "paper-core": "bfe8945f6a4d745f40f784a796181a4ff19aaac8a38a5286c4164a837010fed8",
}


def test_every_preset_has_a_golden_hash():
    assert set(PRESETS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_matches_its_golden_hash(name):
    text = json.dumps(PRESETS[name](), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
