"""The benchmark's calls into the package still work.

Every workload in `perfbench/workloads.py` is set up on a temporary
directory, and every op of its first round is prepared, run and checked.
A CLI flag or library entry that the benchmark calls but the package no
longer has fails here instead of in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_round_has_no_failed_op(tmp_path, name):
    workload = WORKLOADS[name](0, tmp_path / name)
    workload.setup()
    ops = workload.round(0)
    assert ops
    failed = []
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        try:
            ok = bool(op.check(op.run()))
        except Exception as exc:  # the benchmark counts an escape as a failure
            ok = f"{type(exc).__name__}: {exc}"
        if ok is not True:
            failed.append((op.kind, ok))
    assert failed == []
