"""Write ``fixtures/expected.json``: the fixture's digest, the digest of the
checkpoint ``train`` writes, and the digests of every gated file each
workload writes, all at the default seed.

Run from the root of a checkout, only when an output format is meant to
change:

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    from distill_lab import cli
    from distill_lab.config import load_config

    cfg = load_config(None, master_seed=wl.DEFAULT_SEED)
    record = {"fixture_sha256": wl.sha256_file(wl.FIXTURE), "outputs": {}}
    wl.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=wl.WORK))
    try:
        for workload in wl.WORKLOADS:
            steps = wl.steps_for(workload)
            run = wl.run_pass(cli.main, steps, wl.DEFAULT_SEED, work / workload)
            check = wl.check_pass(run, steps, cfg)
            if not check.ok:
                print(f"{workload}: {check.problems}", file=sys.stderr)
                return 1
            record["outputs"][workload] = check.digests
            if check.ckpt_digest is not None:
                record["train_ckpt_sha256"] = check.ckpt_digest
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
