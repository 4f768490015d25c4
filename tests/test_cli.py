import configparser
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distill_lab
from distill_lab import acceptance, config, denoiser, distill, experiments
from distill_lab.cli import main
from distill_lab.config import load_config
from distill_lab.flatfile import read_flat_file, write_flat_file
from distill_lab.latentops import draw_shared_noise
from distill_lab.errors import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGENCE,
    EXIT_OK,
    ConfigError,
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def fast_config_file(tmp_path_factory):
    """Small budgets so end-to-end command tests stay quick."""
    path = tmp_path_factory.mktemp("cfg") / "fast.ini"
    path.write_text(
        "[training]\n"
        "steps = 300\n"
        "batch_size = 64\n"
        "[dataset]\n"
        "n = 400\n"
        "[distill]\n"
        "steps = 40\n"
        "n_runs = 3\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(fast_config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--config", fast_config_file, "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.schedule.t == 1000
        assert cfg.distill.objectives == ("sds", "dds", "pds")

    def test_file_values_and_cli_overrides(self, fast_config_file):
        cfg = load_config(fast_config_file, master_seed=99, out_dir="elsewhere")
        assert cfg.training.steps == 300
        assert cfg.dataset.seed == 100
        assert cfg.training.seed == 101
        assert cfg.distill.base_seed == 102
        assert cfg.output.dir == "elsewhere"

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nstepz = 10\n")
        with pytest.raises(ConfigError, match="stepz"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sampling]\nomega = 2\n")
        with pytest.raises(ConfigError, match="sampling"):
            load_config(str(path))

    def test_bad_value_rejected_with_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[schedule]\nt = one-thousand\n")
        with pytest.raises(ConfigError, match="schedule.t"):
            load_config(str(path))

    def test_module_preconditions_checked_at_parse_time(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[schedule]\nbeta_start = 0.5\nbeta_end = 0.1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_overlapping_classes_rejected_at_parse_time(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nclass1_mean = -0.1, 0.0\nclass2_mean = 0.1, 0.0\n")
        with pytest.raises(ConfigError, match="overlap"):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")

    def test_pair_values_parse(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text("[dataset]\nclass1_mean = -3.0, 1.0\n")
        cfg = load_config(str(path))
        assert cfg.dataset.class1_mean == (-3.0, 1.0)

    @pytest.mark.parametrize("value", ["run%1", "%(x)s", "100%%"])
    def test_percent_read_literally(self, value, tmp_path):
        path = tmp_path / "pct.ini"
        path.write_text(f"[output]\ndir = {value}\n")
        assert load_config(str(path)).output.dir == value

    def test_section_keeps_the_defaults_it_leaves_out(self, tmp_path):
        # the experiment's training seed, not TrainConfig's own default
        path = tmp_path / "steps.ini"
        path.write_text("[training]\nsteps = 10\n")
        cfg = load_config(str(path))
        assert cfg.training.steps == 10
        assert cfg.training.seed == 9

    def test_retired_knobs_rejected(self, trained_dir, tmp_path, capsys):
        path = tmp_path / "omega.ini"
        path.write_text("[training]\nsample_omega = 2.0\n")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG_ERROR
        assert "sample_omega" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["invert-roundtrip", str(trained_dir / "model.ckpt"), "--tolerance", "1e-6",
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        # the README's ini block names every section and key, each at its default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        parser.read(path)
        assert {name: set(parser[name]) for name in parser.sections()} == {
            name: {f.name for f in dataclasses.fields(cls)} for name, cls in config._SECTIONS.items()
        }
        assert load_config(str(path)) == config.ExperimentConfig()


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        rows = read_csv(trained_dir / "train_log.csv")
        assert rows[0] == ["step", "loss"]
        assert len(rows) == 301

    def test_final_loss_below_initial(self, trained_dir):
        rows = read_csv(trained_dir / "train_log.csv")[1:]
        losses = [float(r[1]) for r in rows]
        assert losses[-1] < losses[0]

    def test_byte_identical_checkpoints(self, fast_config_file, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["train", "--config", fast_config_file, "--out", str(out)]) == EXIT_OK
            blobs.append((out / "model.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nstepz = 10\n")
        assert main(["train", "--config", str(bad)]) == EXIT_CONFIG_ERROR

    def test_divergence_exit_code(self, tmp_path):
        # a step size large enough to overflow the loss itself
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[training]\nlearning_rate = 1e155\nsteps = 50\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == EXIT_DIVERGENCE


class TestInvertRoundtripCommand:
    def test_passes_on_trained_model(self, fast_config_file, trained_dir, tmp_path):
        out = tmp_path / "rt"
        code = main([
            "invert-roundtrip", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(out), "--check", "--k", "10",
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "roundtrip.csv")
        assert rows[0] == ["index", "label", "max_abs_error"]
        assert all(float(r[2]) < 1e-8 for r in rows[1:])

    def test_k_zero_empty_report(self, fast_config_file, trained_dir, tmp_path):
        out = tmp_path / "rt0"
        code = main([
            "invert-roundtrip", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(out), "--k", "0",
        ])
        assert code == EXIT_OK
        assert len(read_csv(out / "roundtrip.csv")) == 1

    def test_divergence_in_inversion_exits_3(self, trained_dir, tmp_path, capsys, monkeypatch):
        # a NaN output bias makes every latent non-finite; the inversion must
        # stop before any replay runs
        d, T = denoiser.load_checkpoint(trained_dir / "model.ckpt")
        d.layers()[-1][1][-1] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        denoiser.save_checkpoint(d, ckpt, T)

        def no_replay(*args, **kwargs):
            raise AssertionError("the replay ran")

        monkeypatch.setattr(experiments, "generate_with_latents_batch", no_replay)
        code = main(["invert-roundtrip", str(ckpt), "--k", "2", "--out", str(tmp_path / "rt")])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: non-finite stochastic latent")
        assert len(err.strip().splitlines()) == 1

    def test_schedule_mismatch_is_config_error(self, trained_dir, tmp_path):
        cfg = tmp_path / "other.ini"
        cfg.write_text("[schedule]\nt = 500\n")
        code = main([
            "invert-roundtrip", str(trained_dir / "model.ckpt"),
            "--config", str(cfg), "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_CONFIG_ERROR


class TestFigure2Command:
    def test_emits_all_files_and_reruns_identically(self, fast_config_file, trained_dir, tmp_path):
        outs = []
        for sub in ("f1", "f2"):
            out = tmp_path / sub
            code = main([
                "figure2", str(trained_dir / "model.ckpt"),
                "--config", fast_config_file, "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out)
        for name in ("fig2_summary.csv", "fig2_endpoints.csv", "fig2_plotdata.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert (outs[0] / "fig2_traj_pds_000.csv").exists()

    def test_summary_recomputable_from_endpoints(self, fast_config_file, trained_dir, tmp_path):
        out = tmp_path / "f3"
        main([
            "figure2", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(out),
        ])
        summary = {r[0]: r for r in read_csv(out / "fig2_summary.csv")[1:]}
        endpoints = read_csv(out / "fig2_endpoints.csv")[1:]
        for objective, row in summary.items():
            disps = [float(e[7]) for e in endpoints if e[0] == objective]
            assert int(row[1]) == len(disps)
            assert float(row[2]) == pytest.approx(np.mean(disps), rel=1e-12)
            dists = [float(e[8]) for e in endpoints if e[0] == objective]
            assert float(row[4]) == pytest.approx(np.mean(np.abs(dists)), rel=1e-12)
        # endpoint rows restate the last row of each trajectory file
        for e in endpoints:
            traj = read_csv(out / f"fig2_traj_{e[0]}_{int(e[1]):03d}.csv")
            assert float(e[5]) == float(traj[-1][3])
            assert float(e[6]) == float(traj[-1][4])

    def test_meta_labels_defaults(self, fast_config_file, trained_dir, tmp_path):
        out = tmp_path / "f4"
        main([
            "figure2", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(out),
        ])
        meta = dict((r[0], r[1]) for r in read_csv(out / "fig2_meta.csv")[1:])
        assert "defaults_origin" in meta
        assert meta["n_runs"] == "3"

    def test_check_flag_fails_on_degenerate_model(self, fast_config_file, tmp_path):
        # an untrained zero-head model moves nothing, so the ordering checks
        # cannot pass and --check must surface that in the exit code
        from distill_lab.denoiser import Denoiser, save_checkpoint

        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(Denoiser.create(seed=0), ckpt, 1000)
        code = main([
            "figure2", str(ckpt),
            "--config", fast_config_file, "--out", str(tmp_path / "zf"), "--check",
        ])
        assert code == EXIT_CHECK_FAILED

    def test_check_flag_sees_divergence_of_an_objective_subset(self, trained_dir, tmp_path):
        # a NaN output bias diverges every run; with one objective there is
        # no ordering to check, but divergence is still a failed check
        d, T = denoiser.load_checkpoint(trained_dir / "model.ckpt")
        d.layers()[-1][1][-1] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        denoiser.save_checkpoint(d, ckpt, T)
        path = tmp_path / "pds.ini"
        path.write_text("[distill]\nobjectives = pds\nn_runs = 2\nsteps = 5\n")
        out = tmp_path / "f"
        code = main(["figure2", str(ckpt), "--config", str(path), "--out", str(out), "--check"])
        assert code == EXIT_CHECK_FAILED
        meta = read_csv(out / "fig2_meta.csv")[1:]
        assert [row for row in meta if row[0].startswith("check_")] == [
            ["check_no_divergence", "fail"]
        ]


class TestSdeditDemoCommand:
    def test_sweep_csv(self, fast_config_file, trained_dir, tmp_path):
        out = tmp_path / "sd"
        code = main([
            "sdedit-demo", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(out), "--points", "20",
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "sdedit_sweep.csv")
        assert rows[0] == ["t0_ratio", "mean_displacement"]
        assert len(rows) == 11
        assert float(rows[1][1]) == 0.0

    def test_single_point_grid(self, fast_config_file, trained_dir, tmp_path):
        out = tmp_path / "sd1"
        code = main([
            "sdedit-demo", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(out),
            "--grid-points", "1", "--points", "5",
        ])
        assert code == EXIT_OK
        rows = read_csv(out / "sdedit_sweep.csv")
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.0

    def test_byte_identical_reruns(self, fast_config_file, trained_dir, tmp_path):
        blobs = {"sweep": [], "roundtrip": []}
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            main([
                "sdedit-demo", str(trained_dir / "model.ckpt"),
                "--config", fast_config_file, "--out", str(out), "--points", "10",
            ])
            main([
                "invert-roundtrip", str(trained_dir / "model.ckpt"),
                "--config", fast_config_file, "--out", str(out), "--k", "3",
            ])
            blobs["sweep"].append((out / "sdedit_sweep.csv").read_bytes())
            blobs["roundtrip"].append((out / "roundtrip.csv").read_bytes())
        assert blobs["sweep"][0] == blobs["sweep"][1]
        assert blobs["roundtrip"][0] == blobs["roundtrip"][1]

    def test_divergence_exits_3_with_one_line(self, fast_config_file, trained_dir, tmp_path, capsys):
        # a NaN output bias makes every prediction non-finite; the sweep must
        # stop instead of writing nan rows
        d, T = denoiser.load_checkpoint(trained_dir / "model.ckpt")
        d.layers()[-1][1][-1] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        denoiser.save_checkpoint(d, ckpt, T)
        code = main([
            "sdedit-demo", str(ckpt),
            "--config", fast_config_file, "--out", str(tmp_path / "sd"), "--points", "5",
        ])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: ")
        assert len(err.strip().splitlines()) == 1


class TestCheckCommand:
    def test_runs_to_completion_and_counts_its_lines(self, fast_config_file, tmp_path, capsys):
        code = main(["check", "--config", fast_config_file, "--out", str(tmp_path / "c")])
        *results, summary = capsys.readouterr().out.strip().splitlines()
        numbers = [re.match(r"\[(PASS|FAIL)\] criterion (\d): ", line) for line in results]
        assert [int(m.group(2)) for m in numbers] == list(range(1, 10))
        passed = sum(m.group(1) == "PASS" for m in numbers)
        assert summary == f"{passed}/9 criteria passed"
        assert code == (EXIT_OK if passed == 9 else EXIT_CHECK_FAILED)


# SHA-256 of every file that train, figure2, invert-roundtrip --k 3 and
# sdedit-demo write at the fast config above (master seed 7). The inference
# outputs must not change by a byte when their evaluation is reorganised.
GOLDEN_SHA256 = {
    "train": {
        "model.ckpt": "aac5fc35565f286b4623b66fc23caf405abca02a1cf99df175b513cbceb06fec",
        "train_log.csv": "f1e552bca08be6edea076a4173a9edf3b56f0d4de1fe074a20106a6f324621aa",
    },
    "figure2": {
        "fig2_endpoints.csv": "f32c9aca588344dfbaf663511a231030f456b64e011977077f78349c9b5b3592",
        "fig2_meta.csv": "5216e5e69e1d8517df9e8d9091fc04c3fb52c3c2794c00182fa34401386b3bfd",
        "fig2_plotdata.csv": "9339c0cad8e5a2c60bde9aeaf62278014396efa466f28bbeceaa27d91bd26339",
        "fig2_summary.csv": "455607cf1add522d418809ec19abd0d3ff76b0309413cf193588102ac14c8cc3",
        "fig2_traj_dds_000.csv": "85c390c2eb99b93cec5cb66f88aeb9c58669d45edc017f0b3f9bfa0bcdea7951",
        "fig2_traj_dds_001.csv": "817669e1b4cd78891d8cb7b90b411f3d08c391208a413a07c114618b1b69af16",
        "fig2_traj_dds_002.csv": "6a9b644d4424a28d1dc6e3fc93e506cf8b5e104f522d1224447e47cc67eda4b5",
        "fig2_traj_pds_000.csv": "3838e2d631809725f7c611fe70aaa0d71b7983ffc7c8283fa1a4e3bfe3115f70",
        "fig2_traj_pds_001.csv": "303c2e659caae6d53ccb210519caf376928ea4abc93e4c4adefdd22f19b2c2a6",
        "fig2_traj_pds_002.csv": "610102736d5e260a79b1ac83edcb6329d1ff93bd3eb70c60d9e88f849c7a1fbd",
        "fig2_traj_sds_000.csv": "ea430f2eed2af4694c883e1082a3148beb7a1708ef495e173fe21d14c3935eef",
        "fig2_traj_sds_001.csv": "afb5971db51b56844119509223963cb56d69753fc4107168c6d13eefc0c935a7",
        "fig2_traj_sds_002.csv": "8aeb8a5f60c4419fc5cdbe40490f5689c768be265e0ae373b28a59dc4302992f",
    },
    "invert-roundtrip": {
        "roundtrip.csv": "ffa922253ab309bc9a1c60c1e8220536d06902035d572b1288e9b36f0f57fd40",
    },
    "sdedit-demo": {
        "sdedit_sweep.csv": "04ef8ca6f59a99ec672cc8f991940acdb180ebbd4d9aa2f38af98348dd64cb97",
    },
}


def sha256_files(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class TestGoldenOutputs:
    def test_outputs_match_recorded_digests(self, fast_config_file, trained_dir, tmp_path):
        trained = sha256_files(trained_dir)
        got = {"train": {name: trained[name] for name in GOLDEN_SHA256["train"]}}
        runs = (("figure2", []), ("invert-roundtrip", ["--k", "3"]), ("sdedit-demo", []))
        for command, flags in runs:
            out = tmp_path / command
            code = main([command, str(trained_dir / "model.ckpt"), "--config", fast_config_file,
                         "--out", str(out), *flags])
            assert code == EXIT_OK
            got[command] = sha256_files(out)
        assert got == GOLDEN_SHA256


BENCH_FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


class TestBenchmarkBytes:
    """At the benchmark's seed and default config, the files its gated
    commands write have the digests in ``perfbench/fixtures/expected.json``,
    which this test only reads."""

    RUNS = {
        "edit": ("figure2",),
        "invert": ("invert-roundtrip", "--k", "50"),
        "batch": ("sdedit-demo", "--points", "4000", "--grid-points", "20"),
    }

    @pytest.mark.parametrize("workload", sorted(RUNS))
    def test_gated_files_equal_the_recorded_digests(self, workload, tmp_path):
        recorded = json.loads((BENCH_FIXTURES / "expected.json").read_text())["outputs"][workload]
        command, *flags = self.RUNS[workload]
        code = main([command, str(BENCH_FIXTURES / "model.ckpt"), *flags,
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == EXIT_OK
        # keys are "<pass step>-<command>/<file name>"
        assert sha256_files(tmp_path) == {key.split("/", 1)[1]: v for key, v in recorded.items()}


class TestCsvWriter:
    def test_files_equal_csv_writer_bytes(self, fast_config_file, trained_dir, tmp_path):
        # every CSV a command writes holds the bytes csv.writer gives for its rows
        runs = (("figure2", []), ("invert-roundtrip", ["--k", "3"]), ("sdedit-demo", []))
        for command, flags in runs:
            code = main([command, str(trained_dir / "model.ckpt"), "--config", fast_config_file,
                         "--out", str(tmp_path), *flags])
            assert code == EXIT_OK
        paths = sorted([trained_dir / "train_log.csv", *tmp_path.glob("*.csv")])
        assert {re.sub(r"_(sds|dds|pds)_\d{3}", "", p.name) for p in paths} == {
            "train_log.csv", "roundtrip.csv", "sdedit_sweep.csv", "fig2_traj.csv",
            "fig2_endpoints.csv", "fig2_summary.csv", "fig2_plotdata.csv", "fig2_meta.csv",
        }
        for path in paths:
            buffer = io.StringIO(newline="")
            csv.writer(buffer).writerows(read_csv(path))
            assert buffer.getvalue().encode("utf-8") == path.read_bytes(), path.name


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the package from where this test imported it
        env = dict(os.environ)
        root = str(Path(distill_lab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "distill_lab.cli", "train", "--config", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert "nope" in proc.stderr


def _rows_per_prediction(omega):
    return 1 if omega in (0.0, 1.0) else 2


class RowCounter:
    """Rows evaluated at the denoiser's entry points, counted through every
    ``distill_lab`` namespace that binds them."""

    RULES = {
        "eps": lambda a: np.asarray(a["x"]).reshape(-1, 2).shape[0]
        * _rows_per_prediction(a["omega"]),
        "cfg_predict_batch": lambda a: a["x_t"].shape[0] * _rows_per_prediction(a["omega"]),
        "loss_and_grad": lambda a: a["x0"].shape[0],
    }

    def __init__(self, monkeypatch):
        self.rows = 0
        self.calls = dict.fromkeys(self.RULES, 0)
        for name, rule in self.RULES.items():
            fn = getattr(denoiser, name)
            wrapped = self._wrap(fn, rule)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("distill_lab"):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, attr, wrapped)

    def _wrap(self, fn, rule):
        sig = inspect.signature(fn)

        def counted(*args, **kwargs):
            self.rows += rule(sig.bind(*args, **kwargs).arguments)
            self.calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return counted


class TestRowCount:
    """Denoiser rows (NFE) per command equal their closed-form counts."""

    def test_figure2_rows(self, fast_config_file, trained_dir, tmp_path, monkeypatch):
        cfg = load_config(fast_config_file)
        assert cfg.distill.omega not in (0.0, 1.0)
        counter = RowCounter(monkeypatch)
        draws = []

        def counted_draw(sub, rng):
            draws.append(sub)
            return draw_shared_noise(sub, rng)

        monkeypatch.setattr(distill, "draw_shared_noise", counted_draw)
        code = main([
            "figure2", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(tmp_path / "f"),
        ])
        assert code == EXIT_OK
        # per step and run: sds one guided row pair, dds two (target and
        # source); pds reads the source row of dds on its seed, grid and source
        assert counter.rows == cfg.distill.steps * cfg.distill.n_runs * (2 + 4 + 2)
        # every objective x run advances in lockstep: one eval per step
        assert counter.calls == {
            "eps": cfg.distill.steps, "cfg_predict_batch": 0, "loss_and_grad": 0,
        }
        # a run's objectives share its seed, so one draw serves all of them
        assert len(draws) == cfg.distill.steps * cfg.distill.n_runs

    def test_invert_roundtrip_rows(self, fast_config_file, trained_dir, tmp_path, monkeypatch):
        cfg = load_config(fast_config_file)
        assert cfg.distill.omega not in (0.0, 1.0)
        s = cfg.build_schedule()
        grid_len = cfg.build_subsequence(s).S
        k = 3
        counter = RowCounter(monkeypatch)
        code = main([
            "invert-roundtrip", str(trained_dir / "model.ckpt"),
            "--config", fast_config_file, "--out", str(tmp_path / "r"), "--k", str(k),
        ])
        assert code == EXIT_OK
        # invert and replay each evaluate one guided row pair per level
        assert counter.rows == k * 4 * grid_len


class TestMalformedInput:
    """Bad configs and checkpoints end with exit code 2 and one stderr line."""

    @staticmethod
    def assert_config_error(argv, capsys):
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1
        return err

    @staticmethod
    def rewrite_checkpoint(src, dst, drop=(), **changes):
        kind, header, payload = read_flat_file(src)
        header = {k: v for k, v in header.items() if k not in drop}
        header.update(changes)
        write_flat_file(dst, kind, header, payload)

    def test_checkpoint_without_arch(self, trained_dir, tmp_path, capsys):
        ckpt = tmp_path / "no_arch.ckpt"
        self.rewrite_checkpoint(trained_dir / "model.ckpt", ckpt, drop=("arch",))
        self.assert_config_error(
            ["invert-roundtrip", str(ckpt), "--k", "1", "--out", str(tmp_path / "o")], capsys
        )

    def test_checkpoint_with_non_integer_header_value(self, trained_dir, tmp_path, capsys):
        ckpt = tmp_path / "bad_t.ckpt"
        self.rewrite_checkpoint(trained_dir / "model.ckpt", ckpt, T="ten")
        self.assert_config_error(
            ["invert-roundtrip", str(ckpt), "--k", "1", "--out", str(tmp_path / "o")], capsys
        )

    def test_checkpoint_with_non_ascii_header(self, trained_dir, tmp_path, capsys):
        ckpt = tmp_path / "latin1.ckpt"
        raw = (trained_dir / "model.ckpt").read_bytes()
        ckpt.write_bytes(raw.replace(b"arch", b"\xe4rch", 1))
        self.assert_config_error(
            ["figure2", str(ckpt), "--out", str(tmp_path / "o")], capsys
        )

    def test_missing_checkpoint(self, tmp_path, capsys):
        self.assert_config_error(
            ["figure2", str(tmp_path / "absent.ckpt"), "--out", str(tmp_path / "o")], capsys
        )

    @pytest.mark.parametrize(
        "section, line",
        [
            ("distill", "lr = nan"),
            ("distill", "omega = nan"),
            ("training", "learning_rate = inf"),
            ("dataset", "class1_mean = -2.0, nan"),
            # values that parse but fail a command's precondition, and unknown names
            ("training", "steps = 0"),
            ("training", "batch_size = 0"),
            ("training", "batch_size = -5"),
            ("training", "t_embed_dim = 3"),
            ("dataset", "n = 3"),
            ("training", "hidden = -4"),
            ("training", "hidden = 0"),
            ("distill", "objectives = sds, sgd"),
            ("distill", "w_mode = linear"),
            ("distill", "optimizer = sgd"),
            ("distill", "base_seed = -3"),
            ("distill", "objectives = sds, sds"),
            # a schedule whose alpha_bar[T] underflows to 0.0
            ("schedule", "t = 2000\nbeta_start = 0.45\nbeta_end = 0.5"),
        ],
    )
    def test_non_finite_float_rejected(self, section, line, tmp_path, capsys):
        path = tmp_path / "nonfinite.ini"
        path.write_text(f"[{section}]\n{line}\n")
        self.assert_config_error(["train", "--config", str(path), "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ("sdedit-demo", "--points", "0"),
            ("sdedit-demo", "--points", "-1"),
            ("sdedit-demo", "--grid-points", "-2"),
            ("invert-roundtrip", "--k", "-3"),
            # a master seed below -1 makes a component seed negative
            ("figure2", "--seed", "-5"),
            ("sdedit-demo", "--seed", "-120"),
        ],
    )
    def test_count_flag_below_bound_rejected(self, flags, trained_dir, tmp_path, capsys):
        command, *rest = flags
        out = tmp_path / "o"
        self.assert_config_error([command, str(trained_dir / "model.ckpt"), *rest,
                                  "--out", str(out)], capsys)
        assert not out.exists()

    def test_out_naming_a_file(self, trained_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        self.assert_config_error(
            ["figure2", str(trained_dir / "model.ckpt"), "--out", str(afile)], capsys
        )
        self.assert_config_error(["train", "--out", str(afile / "sub")], capsys)
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command, name", [
        (["train"], "model.ckpt"),
        (["figure2", "CKPT"], "fig2_summary.csv"),
        (["invert-roundtrip", "CKPT", "--k", "1"], "roundtrip.csv"),
        (["sdedit-demo", "CKPT", "--points", "2", "--grid-points", "1"], "sdedit_sweep.csv"),
    ], ids=["train", "figure2", "invert-roundtrip", "sdedit-demo"])
    def test_output_file_that_cannot_be_written(self, command, name, trained_dir,
                                                fast_config_file, tmp_path, capsys):
        # a directory where the command writes the file: one line, exit 2, no traceback
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        argv = [str(trained_dir / "model.ckpt") if a == "CKPT" else a for a in command]
        err = self.assert_config_error(
            [*argv, "--config", fast_config_file, "--out", str(out)], capsys
        )
        assert err.startswith(f"config error: cannot write {out / name}: ")

    @pytest.fixture()
    def short_schedule(self, tmp_path, capsys):
        """A config with T = 10, which load_config accepts, and a model trained under it."""
        path = tmp_path / "short.ini"
        path.write_text("[schedule]\nt = 10\n[training]\nsteps = 20\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "m")]) == EXIT_OK
        capsys.readouterr()
        return str(path), str(tmp_path / "m" / "model.ckpt")

    def test_sdedit_demo_on_a_short_schedule(self, short_schedule, tmp_path, capsys):
        # the sweep denoises in 20 steps, more than T = 10 has levels
        config, ckpt = short_schedule
        self.assert_config_error(["sdedit-demo", ckpt, "--config", config,
                                  "--out", str(tmp_path / "o")], capsys)

    def test_check_on_a_short_schedule(self, short_schedule, tmp_path, capsys, monkeypatch):
        # criterion 2's stride-5 and stride-10 grids do not fit in T = 10;
        # the command stops before it trains
        monkeypatch.setattr(acceptance, "train", None)
        config, _ = short_schedule
        self.assert_config_error(["check", "--config", config, "--out", str(tmp_path / "o")],
                                 capsys)

    @pytest.fixture()
    def stride_one_config(self, tmp_path):
        """A config with a stride-1 grid, which load_config accepts."""
        path = tmp_path / "stride1.ini"
        path.write_text("[subsequence]\nstride = 1\n")
        return str(path)

    def test_invert_roundtrip_on_a_stride_one_grid(self, stride_one_config, trained_dir,
                                                   tmp_path, capsys, monkeypatch):
        # inversion needs sigma > 0 at the grid's first step; the command
        # stops before it loads the checkpoint
        monkeypatch.setattr("distill_lab.cli.load_checkpoint", None)
        self.assert_config_error(["invert-roundtrip", str(trained_dir / "model.ckpt"),
                                  "--config", stride_one_config, "--out", str(tmp_path / "o")],
                                 capsys)

    def test_check_on_a_stride_one_grid(self, stride_one_config, tmp_path, capsys, monkeypatch):
        # criterion 4 inverts on the configured grid; the command stops before it trains
        monkeypatch.setattr(acceptance, "train", None)
        self.assert_config_error(["check", "--config", stride_one_config,
                                  "--out", str(tmp_path / "o")], capsys)

    @pytest.mark.parametrize("objectives, missing", [("pds", "sds, dds"), ("sds, dds", "pds")])
    def test_check_without_all_three_objectives(self, objectives, missing, trained_dir, tmp_path,
                                                capsys, monkeypatch):
        # criterion 7 compares pds against sds and dds; the command stops
        # before it trains, while figure2 runs any subset
        path = tmp_path / "objectives.ini"
        path.write_text(f"[distill]\nobjectives = {objectives}\nn_runs = 1\nsteps = 5\n")
        monkeypatch.setattr(acceptance, "train", None)
        err = self.assert_config_error(["check", "--config", str(path),
                                        "--out", str(tmp_path / "o")], capsys)
        assert f"leaves out {missing}" in err
        code = main(["figure2", str(trained_dir / "model.ckpt"), "--config", str(path),
                     "--out", str(tmp_path / "f")])
        assert code == EXIT_OK

    def test_figure2_and_sdedit_accept_a_stride_one_grid(self, stride_one_config, trained_dir,
                                                         tmp_path):
        ckpt = str(trained_dir / "model.ckpt")
        for command in (["figure2", ckpt], ["sdedit-demo", ckpt, "--points", "5"]):
            code = main([*command, "--config", stride_one_config, "--out", str(tmp_path / "o")])
            assert code == EXIT_OK

    def test_config_without_section_header(self, tmp_path, capsys):
        path = tmp_path / "flat.ini"
        path.write_text("steps = 10\n")
        self.assert_config_error(["train", "--config", str(path), "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nt = 10\n",
        # a [DEFAULT] key would otherwise set distill.steps through [distill]
        "[DEFAULT]\nsteps = 5\n[distill]\nlr = 0.01\n",
    ])
    def test_default_section_rejected_by_name(self, text, tmp_path, capsys):
        path = tmp_path / "default.ini"
        path.write_text(text)
        err = self.assert_config_error(["train", "--config", str(path),
                                        "--out", str(tmp_path / "o")], capsys)
        assert "[DEFAULT]" in err

    @pytest.mark.parametrize("num_classes, arch", [("1", "12,64,64,2"), ("3", "14,64,64,2")])
    @pytest.mark.parametrize("command", [["figure2"], ["invert-roundtrip", "--k", "1"]])
    def test_checkpoint_with_another_class_count(self, num_classes, arch, command, tmp_path,
                                                 capsys):
        # a well-formed checkpoint whose arch fits its header, for a class
        # count other than the lab's two
        ckpt = tmp_path / "classes.ckpt"
        header = {"arch": arch, "num_classes": num_classes, "t_embed_dim": "8", "T": "1000"}
        size = denoiser.param_count(tuple(int(w) for w in arch.split(",")))
        write_flat_file(ckpt, "checkpoint", header, np.zeros(size))
        err = self.assert_config_error([command[0], str(ckpt), *command[1:],
                                        "--out", str(tmp_path / "o")], capsys)
        assert f"{num_classes} classes" in err


def checkpoint_mutants(raw, seed):
    """Named corruptions of a checkpoint's bytes: (name, bytes, must_reject)."""
    sep = raw.index(b"---\n")
    lines = raw[:sep].splitlines(keepends=True)
    rng = np.random.default_rng(seed)
    out = []
    for off in (0, 1, 20, sep - 1, sep + 2, sep + 4, len(raw) - 8, len(raw) - 1):
        out.append((f"truncate_{off}", raw[:off], True))
    for k in range(len(lines)):
        out.append((f"drop_line_{k}", b"".join(lines[:k] + lines[k + 1 :]) + raw[sep:], True))
    for j in range(12):
        pos = int(rng.integers(0, sep))
        flipped = raw[pos] ^ int(rng.integers(1, 256))
        out.append((f"flip_{j}_at_{pos}", raw[:pos] + bytes([flipped]) + raw[pos + 1 :], False))
    pos = int(rng.integers(0, sep))
    out.append(("non_ascii", raw[:pos] + bytes([raw[pos] | 0x80]) + raw[pos + 1 :], True))
    out.append(("payload_short", raw[:-8], True))
    out.append(("payload_long", raw + np.ones(1).astype("<f8").tobytes(), True))
    return out


class TestCheckpointFuzz:
    """Corrupted checkpoints end with exit 0, 2 or 3 and at most one stderr line."""

    def test_mutants(self, trained_dir, tmp_path, capsys):
        raw = (trained_dir / "model.ckpt").read_bytes()
        kind, header, payload = read_flat_file(trained_dir / "model.ckpt")
        mutants = checkpoint_mutants(raw, seed=5)
        # a payload one float off whose header count agrees with it
        for name, body in (("counted_short", payload[:-1]), ("counted_long", np.append(payload, 0.0))):
            path = tmp_path / f"{name}.src"
            write_flat_file(path, kind, header, body)
            mutants.append((name, path.read_bytes(), True))
        for name, data, must_reject in mutants:
            ckpt = tmp_path / f"{name}.ckpt"
            ckpt.write_bytes(data)
            code = main(["invert-roundtrip", str(ckpt), "--k", "1", "--out", str(tmp_path / name)])
            err = capsys.readouterr().err
            assert code in {EXIT_OK, EXIT_CONFIG_ERROR, EXIT_DIVERGENCE}, (name, code, err)
            assert len(err.splitlines()) <= 1, (name, err)
            if must_reject:
                assert code == EXIT_CONFIG_ERROR, (name, code, err)
