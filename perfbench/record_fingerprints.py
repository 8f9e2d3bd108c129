"""Rewrite fingerprints.json from the default seed's panel units.

    python3 perfbench/record_fingerprints.py

Run it only when a change is meant to alter fixed-seed results, and say so
in the change: the benchmark fails every run whose output differs from the
file. Each panel unit's HRAHA run is recorded twice, through the timed path
and through the quality panel's recording objective, and both must agree.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    from workloads import FINGERPRINTS, WORKLOADS, fingerprint, pinned_outputs

    pins = {}
    run.WORKDIR.mkdir(exist_ok=True)
    work = run.WORKDIR / "record"
    work.mkdir(exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(work, run.DEFAULT_SEED)
            wl.prepare()
            pins[name] = {}
            for i in range(wl.panel):
                unit = wl.unit(i)
                if unit.errors:
                    raise SystemExit(f"{name} unit {i}: {unit.errors}")
                pins[name].update(pinned_outputs(unit))
                quality = fingerprint(wl.quality_run(i)[0])
                if quality != pins[name][f"hraha/{i}"]:
                    raise SystemExit(f"{name} hraha/{i}: quality panel run differs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    FINGERPRINTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, pins.values()))} fingerprints to {FINGERPRINTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
