"""Acceptance batteries: one test per criterion in senslab.verify.

Each test prints its own pass/fail line (run pytest with -s or check the
captured output on failure) and asserts the battery's verdict.  The heavy
entries stay within their budgets: the parallel-error battery is the
slowest, at about 90 s on a 2-vCPU VM (the whole suite takes about 2 min).
"""
import pytest

from senslab import verify


@pytest.mark.parametrize("number", sorted(verify.CRITERIA), ids=lambda k: f"criterion-{k:02d}")
def test_criterion(number):
    result = verify.run_criterion(number)
    status = "PASS" if result.ok else "FAIL"
    print(f"criterion {result.criterion} ({result.name}): {status} — {result.detail}")
    assert result.ok, f"criterion {result.criterion} ({result.name}): {result.detail}"
