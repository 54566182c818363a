import json

import pytest

from golden_regen import GOLDEN, digests


def test_golden_outputs_are_unchanged():
    # every verdict, witness, enumeration order and face map of the corpus
    # in golden_regen.py hashes as recorded; an intended change of output
    # rewrites the file with `python tests/golden_regen.py`; pytest.fail, not
    # assert, so that the check also runs under python -O
    want = json.loads(GOLDEN.read_text())
    got = digests()
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    if changed:
        pytest.fail(f"outputs differ from {GOLDEN.name}: {changed}")
