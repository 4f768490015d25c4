"""README's "Library use" examples run as written and do what their comments say."""

import re
from pathlib import Path

import numpy as np
import pytest

from distill_lab import eps

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def library_use(tmp_path_factory):
    """The namespace left by running the section's python blocks in order in
    one namespace (the second block reads the first's model and records),
    in a temporary directory, ``__workdir__``, since the second writes a file."""
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    ns = {"__workdir__": tmp_path_factory.mktemp("readme")}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ns["__workdir__"])
        for k, block in enumerate(blocks):
            exec(compile(block, f"README.md Library use block {k + 1}", "exec"), ns)
    return ns


def test_replay_of_the_source_condition_is_the_point(library_use):
    ns = library_use
    assert np.max(np.abs(ns["same"] - ns["x0"])) <= 1e-14


def test_replay_under_class_2_moves_toward_it(library_use):
    ns = library_use
    mean2 = np.asarray(ns["class_params"][1].mean)
    assert np.linalg.norm(ns["edited"] - mean2) < np.linalg.norm(ns["x0"] - mean2)


def test_label_plan_gives_the_raw_label_bits(library_use):
    ns = library_use
    raw = eps(ns["model"], ns["x"], np.array([1, 2]), np.array([400, 10]), 7.5)
    assert ns["e_late"].tobytes() == raw.tobytes()


def test_lockstep_run_is_the_run_alone(library_use):
    alone, together = library_use["alone"], library_use["records"][2]
    for name in ("theta", "x0_tgt", "grad_norm"):
        assert getattr(alone, name).tobytes() == getattr(together, name).tobytes(), name
    assert alone.diverged == together.diverged


def test_one_class_point_has_the_bits_of_a_2_vector_draw(library_use):
    spec = library_use["spec"]
    draw = np.asarray(spec.mean) + spec.std * np.random.default_rng(4).standard_normal(2)
    assert library_use["one"].tobytes() == draw.tobytes()


@pytest.mark.parametrize("name, shape", [
    ("e", (2, 2)),
    ("edits", (2, 2)),
    ("noised", (2, 2)),
    ("samples", (100, 2)),
    ("noise", (2, 2)),
    ("g", (2,)),
    ("z", (1, 2)),
    ("pts", (10, 2)),
])
def test_stated_shapes(library_use, name, shape):
    assert np.shape(library_use[name]) == shape


def test_report_and_sweep_rows(library_use):
    ns = library_use
    assert [len(row) for row in ns["rows"]] == [3] * 20
    assert [ratio for ratio, _ in ns["sweep"]] == pytest.approx(np.arange(10) / 10)
    assert (ns["__workdir__"] / "traj.csv").is_file()
