"""Record the default-seed references used by the output checks.

    python3 perfbench/record_reference.py [workload ...]

Runs the first items of each workload's stream at the default seed, checks
them, and writes ``reference/<workload>.json``: for every item its command
line, its summary fields (exit code, verdict, reason, numeric fields) and the
sha256 of its artifacts.  Record again only when a change is meant to alter
the outputs, and say why in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import workloads   # noqa: E402
from worker import _run_cli   # noqa: E402
from gaborcert import cli     # noqa: E402

# About twice the items one 20-second run completes on a 2-core x86 machine;
# later items are checked by the invariants alone.
REFERENCE_ITEMS = {"certify_critical": 180, "certify_long_extent": 250,
                   "framebounds_sections": 150, "random_windows": 150}


def record(name: str) -> dict:
    workdir = ROOT / ".perfbench-work" / f"record-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = []
        for it in workloads.items(name, workloads.DEFAULT_SEED,
                                  stop=REFERENCE_ITEMS[name]):
            rc, err = _run_cli(cli.main, it.argv + ("--out", it.out))
            if err:
                raise SystemExit(f"item {it.index} failed: {err}")
            out.append({"argv": list(it.argv),
                        "summary": checks.check_item(it, rc, str(workdir)),
                        "digests": checks.digests(it, str(workdir))})
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": name, "seed": workloads.DEFAULT_SEED, "items": out}


def main(names) -> int:
    for name in names or list(workloads.WORKLOADS):
        ref = record(name)
        lines = ",\n".join(json.dumps(i, sort_keys=True) for i in ref["items"])
        text = (f'{{"workload": {json.dumps(name)}, "seed": {ref["seed"]}, '
                f'"items": [\n{lines}\n]}}\n')
        (HERE / "reference" / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: {len(ref['items'])} items recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
