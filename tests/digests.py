"""Digests of the runs and of the manufactured-solution table, to check that
a change keeps every bit of the results.

For each preset at each configuration of CONFIGS, `run` writes its
outputs into a temporary directory, and the script prints the sha256, to
16 hex digits, of `diagnostics.csv`, of `run_report.json` and of the final
state's field arrays. It reads the fields only through a checkpoint
archive, so the same script runs on trees whose state classes differ. It
ends with the digest of `repr(mms_verify())`.

Run it from the root of a checkout, on each of the two trees to compare:

    PYTHONPATH=src python tests/digests.py

pytest does not collect this file.
"""

import hashlib
import os
import tempfile

import numpy as np

from nlcflow.runner import (PRESETS, RunLog, mms_verify, preset_config, run,
                            save_checkpoint)

# (label, overrides of each preset)
CONFIGS = (
    ("16x16 t_end=5 every=40", dict(nx=16, ny=16, t_end=5.0,
                                    record_every=40)),
    ("32x32 t_end=0.5 every=1", dict(nx=32, ny=32, t_end=0.5,
                                     record_every=1)),
    ("32x48 Ly=1.5 t_end=0.6 every=7", dict(nx=32, ny=48, Ly=1.5,
                                            t_end=0.6, record_every=7)),
)

# the final state's arrays, in the checkpoint archive's names
FIELDS = ("rho", "u", "v", "d1", "d2", "q", "u_prev", "v_prev")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_digests(name: str, overrides: dict) -> dict:
    """The digests of one run of the preset `name` with `overrides`."""
    with tempfile.TemporaryDirectory() as out:
        result = run(preset_config(name, out_dir=out, **overrides))
        out_files = {}
        for fname in ("diagnostics.csv", "run_report.json"):
            with open(os.path.join(out, fname), "rb") as fh:
                out_files[fname] = digest(fh.read())
        path = os.path.join(out, "final.npz")
        save_checkpoint(path, result.final, RunLog())
        with np.load(path) as f:
            fields = digest(b"".join(f[k].tobytes() for k in FIELDS))
    return {**out_files, "fields": fields}


def main() -> None:
    for label, overrides in CONFIGS:
        for name in PRESETS:
            found = run_digests(name, overrides)
            print(f"{name:13s} {label:31s} "
                  + " ".join(f"{k}={v}" for k, v in found.items()))
    print(f"mms_verify {digest(repr(mms_verify()).encode())}")


if __name__ == "__main__":
    main()
