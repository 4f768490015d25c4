"""Release criteria, one test per criterion; each prints a PASS/FAIL line.

The same checks back the ``distill-lab check`` subcommand; here every
criterion runs against a session-scoped fixture set with the fixed master
seed so a plain ``pytest`` covers the full gate.
"""

import numpy as np
import pytest

from distill_lab import acceptance
from distill_lab.config import DEFAULT_MASTER_SEED, ExperimentConfig
from distill_lab.denoiser import Denoiser
from distill_lab.experiments import run_roundtrip_report
from distill_lab.latentops import generate_with_latents_batch, invert


@pytest.fixture(scope="module")
def fixtures():
    return acceptance.build_fixtures(ExperimentConfig())


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion, fixtures):
    result = criterion(fixtures)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_4_is_the_roundtrip_report_worst_error(fixtures):
    # the inline draw/invert/replay loop criterion 4 used before it called
    # run_roundtrip_report, on the same stream
    fx = fixtures
    rng = np.random.default_rng(DEFAULT_MASTER_SEED + 40)
    models = (fx.trained, Denoiser.create(seed=DEFAULT_MASTER_SEED + 41, random_head=True))
    labels = [1 + idx % 2 for idx in range(50)]
    omega, worst = fx.cfg.distill.omega, 0.0
    for d in models:
        points, seqs = [], []
        for label in labels:
            spec = fx.cfg.class_params()[label - 1]
            points.append(np.asarray(spec.mean) + spec.std * rng.standard_normal(2))
            seqs.append(invert(points[-1], label, d, omega, fx.schedule, fx.sub, rng))
        backs = generate_with_latents_batch(seqs, labels, d, omega, fx.schedule, fx.sub)
        worst = max(worst, float(np.max(np.abs(backs - np.array(points)))))
    rng = np.random.default_rng(DEFAULT_MASTER_SEED + 40)
    rows = [row for d in models for row in run_roundtrip_report(fx.cfg, d, rng, 50)]
    assert max(err for _, _, err in rows) == worst
    result = acceptance.criterion_4_inversion_roundtrip(fx)
    assert result.detail == f"max abs err {worst:.2e}"


@pytest.mark.parametrize("criterion, seconds, passed", [
    (acceptance.criterion_1_coefficient_identity, 10.0, False),  # budget 1 s
    (acceptance.criterion_3_zero_at_identity, 1e6, True),  # no budget
])
def test_time_budget_fails_a_criterion_and_keeps_its_detail(criterion, seconds, passed, fixtures,
                                                            monkeypatch):
    on_time = criterion(fixtures)
    clock = iter([0.0, seconds])
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    timed = criterion(fixtures)
    monkeypatch.undo()
    assert on_time.passed
    assert (timed.passed, timed.seconds, timed.detail) == (passed, seconds, on_time.detail)
    assert timed.line().startswith("[PASS]" if passed else "[FAIL]")


def test_rank_correlation_against_hand_value():
    # ranks of b are (2, 1, 4, 3, 5): squared rank gaps sum to 4, so
    # rho = 1 - 6 * 4 / (5 * (25 - 1)) = 0.8
    a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    b = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    assert acceptance.rank_correlation(a, b) == pytest.approx(0.8, abs=1e-12)
    assert acceptance.rank_correlation(a, np.exp(b)) == pytest.approx(0.8, abs=1e-12)
    assert acceptance.rank_correlation(a, -a) == pytest.approx(-1.0, abs=1e-12)
