"""Acceptance batteries: one test per criterion in senslab.verify.

Each test prints its own pass/fail line (run pytest with -s or check the
captured output on failure) and asserts the battery's verdict.  Every
battery takes under 1 s on a 2-vCPU VM; the parallel-error battery, which
builds six tables at n = 22, is the slowest at about 0.7 s (the 13 take
about 2.3 s, the whole suite 27-35 s).
"""
import pytest

from senslab import verify


@pytest.mark.parametrize("number", sorted(verify.CRITERIA), ids=lambda k: f"criterion-{k:02d}")
def test_criterion(number):
    result = verify.run_criterion(number)
    status = "PASS" if result.ok else "FAIL"
    print(f"criterion {result.criterion} ({result.name}): {status} — {result.detail}")
    assert result.ok, f"criterion {result.criterion} ({result.name}): {result.detail}"
