"""The stock kernels compile to exactly the recorded tokens, AST and schedule.

Cycles alone could hide a changed schedule that happens to time the
same; these digests pin every token's kind, text, value and position,
every AST field and pragma, and every scheduled op's start and end.
"""

from __future__ import annotations

import json

import pytest

from .compile_golden import GOLDEN_PATH, digest, stock_kernels

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)

KERNELS = stock_kernels()


def test_golden_covers_every_stock_kernel():
    assert {key.split("/")[0] for key in GOLDEN} == set(KERNELS)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_compile_matches_golden(name):
    parts = json.loads(json.dumps(digest(name, *KERNELS[name])))
    for part, value in parts.items():
        assert value == GOLDEN[f"{name}/{part}"], f"{name}: {part} differs"
