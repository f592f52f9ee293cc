"""Tests of ``tools/families.py``: its draws keep their bytes.  The kernel
digests of ``tests/test_polynomial.py``, the rows that tests and ROADMAP.md
name by degree and round, and the agreement tool's counts all rest on them.
A family or pinned row appended after the old ones leaves every digest as
it is; one inserted before an old one, or a changed draw, moves the old
rows and fails."""

import hashlib

import numpy as np
import pytest

from conftest import families, load_tool

# (seed, index, m) of the disk draws pinned, as fuzz seeds its trials.
DISKS = ((0, 0, 5), (7, 3, 5), (5, 17, 63), (2**64 + 5, 2**32, 199))


def _draws(name):
    """The bytes of one set of draws: the agreement tool's rows of the
    eleven families at every degree and round, the twelve pinned rows at
    every pinned degree, or the disk draws of DISKS."""
    if name == "rows":
        agreement = load_tool("kernel_agreement")
        for degree in agreement.DEGREES:
            for round_ in range(agreement.ROUNDS):
                for family, a, row in families.rows(degree, round_):
                    if family in families.FAMILIES[:11]:
                        yield from (family.encode(), np.float64(a).tobytes(), row.tobytes())
    elif name == "pinned_rows":
        for degree in families.PINNED_DEGREES:
            a, rows = families.pinned_rows(degree)
            yield from (np.float64(a).tobytes(), rows[:12].tobytes())
    else:
        for seed, index, m in DISKS:
            yield families.disk(np.random.default_rng([seed, index]), m).tobytes()


# SHA-256 of each set of draws.
DIGESTS = {
    "rows": "ab4100d7ce6e1602f709a83ad9b845f3d0e9b449c9b51c95e15e3dc9b191a447",
    "pinned_rows": "5900815ecd3abaf83868fe8829b5b0f6f817c7939e7aaa9c400ea413448a587e",
    "disk": "78bb83ae5530ada80d5fd030b4b025ee11c22eb318991ebdd08228943f832d30",
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_draws_keep_their_bytes(name):
    digest = hashlib.sha256()
    for chunk in _draws(name):
        digest.update(chunk)
    assert digest.hexdigest() == DIGESTS[name]
