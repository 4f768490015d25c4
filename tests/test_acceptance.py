"""Release criteria, one test per criterion; each prints a PASS/FAIL line.

The same checks back the ``distill-lab check`` subcommand; here every
criterion runs against a session-scoped fixture set with the fixed master
seed so a plain ``pytest`` covers the full gate.
"""

import numpy as np
import pytest

from distill_lab import acceptance


@pytest.fixture(scope="module")
def fixtures():
    return acceptance.build_fixtures()


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion, fixtures):
    result = criterion(fixtures)
    print(result.line())
    assert result.passed, result.line()


def test_rank_correlation_against_hand_value():
    # ranks of b are (2, 1, 4, 3, 5): squared rank gaps sum to 4, so
    # rho = 1 - 6 * 4 / (5 * (25 - 1)) = 0.8
    a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    b = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    assert acceptance.rank_correlation(a, b) == pytest.approx(0.8, abs=1e-12)
    assert acceptance.rank_correlation(a, np.exp(b)) == pytest.approx(0.8, abs=1e-12)
    assert acceptance.rank_correlation(a, -a) == pytest.approx(-1.0, abs=1e-12)
