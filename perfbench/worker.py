"""One benchmark process: runs passes of one workload through
``distill_lab.cli.main`` in-process, checks every pass, and prints one JSON
object as the last line of its standard output.

``run.py`` starts it with the package source first on ``PYTHONPATH``. All
load comes from this one process, with no threads beyond BLAS's own.

The first pass warms caches and is checked but not timed. Without
``--trace`` the passes are timed untraced, each followed by a block of the
workload's reference computation. With ``--trace 1`` untraced and
traced passes alternate, so the tracing overhead is measured in the same
process, and the per-layer metrics come from the traced passes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from reference import Reference
from tracer import Tracer

LAYERS = ("schedule", "denoiser", "optim", "latentops", "distill",
          "experiments", "flatfile", "config", "cli")
MIN_TIMED_PASSES = 3
PROBE_BATCHES = ((1, 400), (64, 200), (1024, 20))  # (rows, calls per block)
PROBE_BLOCKS = 5
PROBE_TIMESTEP = 500


def import_cli(src: Path):
    """Import the CLI and make sure it is the copy under ``src``."""
    import distill_lab.cli

    where = Path(distill_lab.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"distill_lab was imported from {where}, not from {src}")
    return distill_lab.cli


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def _time_per_call_us(call, reps: int) -> float:
    call()
    blocks = []
    for _ in range(PROBE_BLOCKS):
        start = time.perf_counter()
        for _ in range(reps):
            call()
        blocks.append((time.perf_counter() - start) / reps)
    return statistics.median(blocks) * 1e6


def probe_denoiser(cfg) -> dict[str, float]:
    """Forward and forward+backward cost per call at fixed batch sizes.

    These are the only function-specific calls of the traced run; a probe
    whose function no longer exists is left out, not failed.
    """
    from distill_lab import denoiser

    model, _ = denoiser.load_checkpoint(wl.FIXTURE)
    s = cfg.build_schedule()
    forward = getattr(denoiser, "cfg_predict_batch", None)
    forward_backward = getattr(denoiser, "loss_and_grad", None)
    rng = np.random.default_rng(0)
    out = {}
    for rows, reps in PROBE_BATCHES:
        x = rng.standard_normal((rows, 2))
        y = rng.integers(1, model.num_classes + 1, size=rows)
        t = rng.integers(1, s.T + 1, size=rows)
        eps = rng.standard_normal((rows, 2))
        if forward is not None:
            out[f"denoiser.fwd_us.b{rows}"] = _time_per_call_us(
                lambda: forward(model, x, 1, PROBE_TIMESTEP, 1.0), reps)
        if forward_backward is not None:
            out[f"denoiser.fwd_bwd_us.b{rows}"] = _time_per_call_us(
                lambda: forward_backward(model, s, x, y, t, eps), reps)
    return out


def probe_roundtrip(cfg, points: int = 4) -> float | None:
    """Worst invert-then-replay error over a few points with the fixture."""
    from distill_lab import latentops
    from distill_lab.denoiser import load_checkpoint

    invert = getattr(latentops, "invert", None)
    replay = getattr(latentops, "generate_with_latents", None)
    if invert is None or replay is None:
        return None
    model, _ = load_checkpoint(wl.FIXTURE)
    s = cfg.build_schedule()
    sub = cfg.build_subsequence(s)
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(points):
        label = 1 + k % 2
        spec = cfg.class_params()[label - 1]
        x0 = np.asarray(spec.mean) + spec.std * rng.standard_normal(2)
        seq = invert(x0, label, model, cfg.distill.omega, s, sub, rng)
        back = replay(seq, label, model, cfg.distill.omega, s, sub)
        worst = max(worst, float(np.max(np.abs(back - x0))))
    return worst


class Bench:
    """Runs and checks passes of one workload. Every pass's outputs must match
    the stored digests at the default seed, else the first good pass's."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        from distill_lab.config import load_config

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.steps = wl.steps_for(workload)
        self.cfg = load_config(None, master_seed=seed)
        expected = wl.load_expected()
        at_default = seed == wl.DEFAULT_SEED
        self.expected_digests = expected["outputs"][workload] if at_default else None
        self.expected_ckpt = expected["train_ckpt_sha256"] if at_default else None
        self.tracer = Tracer()
        self.reference = Reference(wl.REFERENCE_KIND[workload])
        self.last_reference: tuple[float, float] | None = None
        self.records: list[dict] = []
        self.layer_samples: list[dict[str, float]] = []
        self.roundtrip_errs: list[float] = []
        self.ckpt_matches: list[bool] = []

    def run_one(self, traced: bool, timed: bool) -> None:
        pass_dir = self.work / f"p{len(self.records):04d}"
        if traced:
            self.tracer.reset()
            self.tracer.install()
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        try:
            run = wl.run_pass(self.cli.main, self.steps, self.seed, pass_dir)
        finally:
            wall = time.perf_counter() - start_wall
            cpu = time.process_time() - start_cpu
            if traced:
                self.tracer.uninstall()
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "timed": timed}
        if self.last_reference is not None:
            before, self.last_reference = self.last_reference, self.reference.run()
            record["ref_wall_s"] = (before[0] + self.last_reference[0]) / 2
            record["ref_cpu_s"] = (before[1] + self.last_reference[1]) / 2
        check = wl.check_pass(run, self.steps, self.cfg)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self._compare(check)
        if traced:
            self.layer_samples.append(self._layer_sample(run))
        record.update(ok=check.ok, problems=check.problems)
        self.records.append(record)

    def _compare(self, check: wl.PassCheck) -> None:
        if self.expected_digests is None and check.ok:
            self.expected_digests = check.digests
        if self.expected_digests is not None and check.digests != self.expected_digests:
            differ = sorted(k for k in self.expected_digests.keys() | check.digests.keys()
                            if self.expected_digests.get(k) != check.digests.get(k))
            check.problems.append(f"output bytes differ from the expected digests: {differ[:5]}")
        if check.ckpt_digest is not None:
            if self.expected_ckpt is None:
                self.expected_ckpt = check.ckpt_digest
            self.ckpt_matches.append(check.ckpt_digest == self.expected_ckpt)
        if check.roundtrip_max_err is not None:
            self.roundtrip_errs.append(check.roundtrip_max_err)

    def _layer_sample(self, run: wl.PassRun) -> dict[str, float]:
        totals = self.tracer.layer_totals()
        sample = {}
        for layer in LAYERS:
            entry = totals.get(layer, {"entries": 0, "self_s": 0.0})
            sample[f"{layer}.entries"] = entry["entries"]
            sample[f"{layer}.self_s"] = entry["self_s"]
        rows = wl.expected_rows(self.workload, self.cfg)
        entries = sample["denoiser.entries"]
        sample["denoiser.rows"] = rows
        sample["denoiser.rows_per_entry"] = rows / entries if entries else 0.0
        sample["denoiser.ns_per_row"] = sample["denoiser.self_s"] * 1e9 / rows
        sample["cli.bytes_out"] = run.stdout_bytes
        sample["flatfile.bytes"] = self.tracer.file_bytes
        sample["trace.spans"] = len(self.tracer.spans)
        return sample

    def layer_metrics(self) -> dict[str, float]:
        """Per-metric medians over the traced passes, plus the probes."""
        metrics = {name: statistics.median(s[name] for s in self.layer_samples)
                   for name in self.layer_samples[0]}
        untraced = [r["wall_s"] for r in self.records if r["timed"] and not r["traced"]]
        traced = [r["wall_s"] for r in self.records if r["timed"] and r["traced"]]
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        # The fixture a workload loads is verified before any pass runs.
        metrics["flatfile.ckpt_digest_match"] = (
            sum(self.ckpt_matches) / len(self.ckpt_matches) if self.ckpt_matches else 1.0)
        errs = list(self.roundtrip_errs)
        probe = probe_roundtrip(self.cfg)
        if probe is not None:
            errs.append(probe)
        if errs:
            metrics["latentops.roundtrip_max_err"] = max(errs)
        metrics.update(probe_denoiser(self.cfg))
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch folder for outputs")
    parser.add_argument("--src", type=Path, required=True, help="package source folder")
    args = parser.parse_args(argv)

    cli = import_cli(args.src)
    bench = Bench(cli, args.workload, args.seed, args.work)
    bench.run_one(traced=False, timed=False)
    if not args.trace:
        bench.last_reference = bench.reference.run()
    deadline = time.perf_counter() + args.seconds
    timed = 0
    while timed < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        if args.trace:
            bench.run_one(traced=False, timed=True)
            bench.run_one(traced=True, timed=True)
        else:
            bench.run_one(traced=False, timed=True)
        timed += 1

    result = {
        "passes": bench.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        result["layers"] = bench.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
