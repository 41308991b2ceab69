"""The CLI's output on the seeded families of ``golden`` matches the stored digests."""
import json

from golden import GOLDEN, digests


def test_cli_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k)) == []
