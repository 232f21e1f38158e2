"""Outside-in benchmark of cossu: one workload, one seed, one run.

    python3 perfbench/run.py --workload planted-k5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cossu is imported from its `src/`.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics when --trace is 0 and the per-layer metrics when it is 1.
The run's details (set-up and round times, checks) and, when traced, its
spans are written under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _import_cossu() -> None:
    """Import cossu from the checkout's sources, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "cossu" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cossu sources under {src}")
    sys.path.insert(0, str(src))
    import cossu

    if Path(cossu.__file__).resolve().parent != src / "cossu":
        raise SystemExit(f"perfbench: imported cossu from {cossu.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    _import_cossu()
    import selfcheck
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    selfcheck.check_reference()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, details = workloads.run(
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            OUT / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None,
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1) + "\n")
    for metric, m in result["metrics"].items():
        print(f"{metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
