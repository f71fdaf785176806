"""The committed golden digest table, recomputed in process."""

import json

import golden


def test_golden_digests_match():
    with open(golden.PATH) as f:
        want = json.load(f)
    got = golden.digests()
    changed = sorted(k for k in want.keys() | got.keys()
                     if want.get(k) != got.get(k))
    assert not changed, f"digests changed: {changed}"
