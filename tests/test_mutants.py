"""Mutant table: named defects that the acceptance criteria must reject.

Each row replaces one piece of the program by a plausible wrong version
with `monkeypatch` and runs, at DEFAULT_SEED, the criteria that ought to
reject it; the row passes when at least one of them fails.  A defect that
no criterion rejects stays in the table as a strict xfail whose reason
names the gap, so a criterion that starts to catch it turns the row red
until it becomes an ordinary row.
"""

import numpy as np
import pytest

from recomblab import yule
from recomblab.acceptance import DEFAULT_SEED, get_criterion

# criterion 10 checks only that the log tails steepen, criterion 14 only
# the constant-input limit and two-seed stability: no gate pins 1/chi2_3
LAW_GAP = pytest.mark.xfail(
    strict=True, reason="criteria 10 and 14 pass any mean-one law with a steepening small tail"
)


# mean-one replacements for the limit W = 1/chi2_3 (ROADMAP item 14)
@pytest.mark.parametrize(
    "law, criteria",
    [
        # the discrete Gaussian profile: no small tail at all
        pytest.param(lambda m, rng: np.ones(m), (10,), id="W=1"),
        # the limit of e^-t times the Yule leaf count
        pytest.param(
            lambda m, rng: rng.exponential(1.0, m), (10, 14), id="Exp(1)", marks=LAW_GAP
        ),
        pytest.param(
            lambda m, rng: 2.0 / rng.chisquare(4, m), (10, 14), id="2/chi2_4", marks=LAW_GAP
        ),
        pytest.param(
            lambda m, rng: rng.gamma(4.0, 0.25, m), (10, 14), id="Gamma(4,1/4)", marks=LAW_GAP
        ),
    ],
)
def test_wrong_limit_law_fails_a_criterion(monkeypatch, law, criteria):
    monkeypatch.setattr(yule, "martingale_limit_samples", law)
    results = [get_criterion(number).run(DEFAULT_SEED) for number in criteria]
    assert not all(r.passed for r in results), [r.line for r in results]
