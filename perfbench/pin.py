"""Print the pinned verdicts of the ``-root`` workloads as JSON.

No independent solver reaches these sizes, so the verdicts were taken from
the program when the benchmark was defined; every run compares against
them.  Each pin also holds the digest of its game file, so a change in the
generated inputs shows as failed ops instead of passing unchecked.

    python3 perfbench/pin.py > perfbench/pinned.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, shape in workloads.LARGE.items():
            if shape["region"]:
                continue
            text = workloads.large_instance_text(name)
            path = Path(tmp) / f"{name}.game"
            path.write_text(text, encoding="utf-8")
            code, out = workloads.solve_call(path, False)()
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            pins[name] = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "verdict": out.strip()}
    print(json.dumps(pins, indent=2))


if __name__ == "__main__":
    main()
