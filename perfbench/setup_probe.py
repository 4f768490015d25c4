"""Set-up breakdown in a fresh interpreter: the time to import
``distill_lab.cli``, then the time to build what a command needs before it
computes (config, schedule, grid, checkpoint). Prints one JSON line.

Usage: python3 perfbench/setup_probe.py <checkpoint> <seed>
"""

import json
import sys
import time

start = time.perf_counter()
import distill_lab.cli  # noqa: E402,F401  (the import being timed)

imported = time.perf_counter()
from distill_lab.config import load_config  # noqa: E402
from distill_lab.denoiser import load_checkpoint  # noqa: E402

cfg = load_config(None, master_seed=int(sys.argv[2]))
schedule = cfg.build_schedule()
cfg.build_subsequence(schedule)
load_checkpoint(sys.argv[1])
ready = time.perf_counter()
print(json.dumps({"import_s": imported - start, "fixture_s": ready - imported}))
