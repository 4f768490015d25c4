"""The bitwise invariants hold by construction, not because of the kernels
a host picks: a fixed list of invariance tests reruns in a subprocess
under a second OpenBLAS core and under numpy's baseline (pre-AVX2) loops.

The pinned output digests depend on those kernels and are not rerun here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

INVARIANTS = [
    # batch invariance
    "test_denoiser.py::TestEps::test_single_row_equals_batch_one_forward",
    # the parts of a large call do not depend on how many threads run them
    "test_denoiser.py::TestParts::test_parts_do_not_depend_on_the_worker_count",
    # the one forward against its references, and its scratch reuse
    "test_denoiser.py::TestGemmForward::test_output_and_cache_equal_reference",
    "test_denoiser.py::TestGemmForward::test_guided_batch_keeps_the_first_forward",
    "test_denoiser.py::TestPerRowForward::test_eps_equals_reference",
    "test_denoiser.py::TestPerRowForward::test_eps_and_gemm_results_survive_each_other",
    # zero at identity
    "test_distill.py::TestDdsGrad::test_exact_zero_at_identity",
    "test_distill.py::TestPdsGrad::test_exact_zero_at_identity",
    # a job alone equals its batch record
    "test_distill.py::TestOptimizeBatch::test_a_job_alone_equals_its_batch_record[random_model]",
    # invert -> replay
    "test_latentops.py::TestGenerateWithLatents::test_roundtrip_reconstructs_source"
    "[random_model]",
    # sdedit's coarse coefficient columns against the scalar per-step reference
    "test_latentops.py::TestSdedit::test_equals_per_step_reference[0.5-2.0-random_model]",
]

SETTINGS = {
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy_baseline_loops": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

# numpy raises on a baseline feature and warns on one it does not dispatch;
# a core this CPU cannot run ends the process at the first product
PROBE = "import numpy as np; np.ones((64, 64)) @ np.ones((64, 64))"


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_bitwise_invariants_hold_under(setting):
    env = {**os.environ, **SETTINGS[setting]}
    probe = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", PROBE],
                           env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        reason = (probe.stderr.strip().splitlines() or [f"exit code {probe.returncode}"])[-1]
        pytest.skip(f"{setting} rejected on this host: {reason}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / test) for test in INVARIANTS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:]
    assert f"{len(INVARIANTS)} passed" in run.stdout
