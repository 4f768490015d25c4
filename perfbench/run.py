"""distill-lab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {edit,invert,batch} --seed N \\
        --seconds S --trace {0,1}

Each run builds the package from ``src/`` (byte-compiles it), verifies the
fixture checkpoint, measures set-up in fresh interpreters, and then runs the
workload's passes in one worker process (``worker.py``), each pass timed
beside a fixed reference block (``reference.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it records the
environment, every per-pass sample and the failure fraction.

Exit code 0 when a result is printed; 2 when the checkout has no package
source or the fixture does not match its digest; 1 when the worker dies.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPS = 3
PROBE_REPS = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    """The package source first on the path; the worker's load is its own
    single process, so the package's optional job threads are switched off.
    BLAS thread settings are passed through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("DISTILL_LAB_THREADS", None)
    return env


def time_setup(seed: int, out: Path, env: dict) -> float:
    """Wall time of a fresh CLI process that sets up and computes nothing."""
    argv = [sys.executable, "-m", "distill_lab.cli", "invert-roundtrip", str(wl.FIXTURE),
            "--k", "0", "--seed", str(seed), "--out", str(out)]
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost ``scipy`` modules in a
    ``python -X importtime`` log (children are printed before parents)."""
    entries = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), int(m.group(1)), m.group(3)))
    total_us = 0
    for k, (depth, cumulative, name) in enumerate(entries):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((e for e in entries[k + 1:] if e[0] < depth), None)
        if parent is None or not (parent[2] == "scipy" or parent[2].startswith("scipy.")):
            total_us += cumulative
    return total_us / 1e6


def setup_breakdown(seed: int, env: dict) -> dict[str, float]:
    """Medians over fresh interpreters of the ``setup.*`` per-layer metrics.

    Each interpreter runs ``setup_probe.py`` under ``-X importtime``, so the
    scipy share and the whole import come from the same process."""
    samples = {"setup.import_s": [], "setup.fixture_s": [], "setup.import_scipy_s": []}
    for _ in range(PROBE_REPS):
        done = subprocess.run([sys.executable, "-X", "importtime", str(HERE / "setup_probe.py"),
                               str(wl.FIXTURE), str(seed)], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        probe = json.loads(done.stdout.splitlines()[-1])
        samples["setup.import_s"].append(probe["import_s"])
        samples["setup.fixture_s"].append(probe["fixture_s"])
        samples["setup.import_scipy_s"].append(scipy_import_s(done.stderr))
    return {name: statistics.median(values) for name, values in samples.items()}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def run_worker(args, work: Path, env: dict) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), "--src", str(SRC)]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="distill-lab benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "distill_lab" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the package source does not compile", file=sys.stderr)
        return 2
    expected = wl.load_expected()
    if wl.sha256_file(wl.FIXTURE) != expected["fixture_sha256"]:
        print(f"error: {wl.FIXTURE} does not match its stored digest", file=sys.stderr)
        return 2

    env = child_env()
    wl.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=wl.WORK))
    try:
        if args.trace:
            setup = setup_breakdown(args.seed, env)
        else:
            setup_times = [time_setup(args.seed, work / "setup", env) for _ in range(SETUP_REPS)]
        result = run_worker(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    failed = sum(not p["ok"] for p in passes)
    timed = [p for p in passes if p["timed"] and not p["traced"]]
    if args.trace:
        metrics = {**setup, **result["layers"]}
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_ref": statistics.median(p["wall_s"] / p["ref_wall_s"] for p in timed),
            "cpu_ref": statistics.median(p["cpu_s"] / p["ref_cpu_s"] for p in timed),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    missing = sorted(units.keys() - metrics.keys())

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        **result["env"],
        "passes": len(passes),
        "timed_passes": len(timed),
        "fail_frac": failed / len(passes),
        "problems": [p["problems"] for p in passes if p["problems"]],
        "absent": missing,
        "wall_s_samples": [p["wall_s"] for p in timed],
        "cpu_s_samples": [p["cpu_s"] for p in timed],
    }
    if not args.trace:
        info["setup_s_samples"] = setup_times
        info["wall_s"] = statistics.median(p["wall_s"] for p in timed)
        info["cpu_s"] = statistics.median(p["cpu_s"] for p in timed)
        info["ref_wall_s_samples"] = [p["ref_wall_s"] for p in timed]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
