"""nlcflow benchmark: time whole ``run()`` calls of one workload.

    python3 bench/run.py --workload long-gzero-64 --seed 1 --seconds 20 --trace 0

Runs from one process with BLAS/OpenMP pinned to one thread. After one
untimed warm-up run (it fills nlcflow's solver caches and first-call costs),
it repeats ``nlcflow.runner.run`` on the seeded config for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, each a median over the timed
runs except the pooled step percentiles and the process's peak RSS.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics from the traced ones (see ``tracer.py``), plus the tracing overhead;
spans go to ``.bench_out/``.

Every run is checked: it fails if it raises, if a ``report["checks"]`` entry
is false, if the workload's sanity check fails, or if its diagnostics digest
differs from the first run's (all runs share the seed, traced ones too, so
this is also the proof that tracing does not perturb the trajectory). The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import bootstrap

ENV = bootstrap.prepare()

import numpy as np  # noqa: E402

import nlcflow  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_run, digest  # noqa: E402

OUT_DIR = bootstrap.ROOT / ".bench_out"
MIN_ROUNDS = 3


class StepClock:
    """Times each ``runner.step`` call of a run from outside."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __enter__(self):
        self._step = step = nlcflow.runner.step

        def timed_step(*args, **kwargs):
            self.starts.append(time.perf_counter())
            try:
                return step(*args, **kwargs)
            finally:
                self.ends.append(time.perf_counter())
        nlcflow.runner.step = timed_step
        return self

    def __exit__(self, *exc):
        nlcflow.runner.step = self._step


class Session:
    """All runs of one benchmark invocation and their verdicts."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.cfg = wl.make_config(seed)
        self.attempted = 0
        self.failed = 0
        self.first_digest = None

    def run_once(self):
        """One checked ``run()``; returns its timings, or None if it
        failed."""
        self.attempted += 1
        clock = StepClock()
        try:
            with clock:
                t0 = time.perf_counter()
                result = nlcflow.runner.run(
                    self.cfg, write_outputs=False,
                    with_stationary=self.wl.with_stationary)
                t1 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = check_run(self.wl, result, self.cfg, self.wl.steps)
        dig = digest(result)
        if self.first_digest is None:
            self.first_digest = dig
        elif dig != self.first_digest:
            problems.append("diagnostics digest differs from the first run")
        if problems:
            print(f"run {self.attempted} FAILED: {'; '.join(problems)}",
                  file=sys.stderr)
            self.failed += 1
            return None
        setup = clock.starts[0] - t0
        step_s = [e - s for s, e in zip(clock.starts, clock.ends)]
        return {"run_s": t1 - t0, "setup_s": setup,
                "steps_per_s": len(step_s) / (t1 - t0 - setup),
                "step_s": step_s}


def _median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(runs, session) -> dict:
    step_ms = 1e3 * np.concatenate([r["step_s"] for r in runs])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (_median(runs, "run_s"), "s"),
        "setup_s": (_median(runs, "setup_s"), "s"),
        "steps_per_s": (_median(runs, "steps_per_s"), "1/s"),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "fail_frac": (session.failed / session.attempted, "1"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    session = Session(wl, args.seed)
    session.run_once()  # warm-up, checked but not timed

    plain, traced = [], []
    tracer = Tracer()
    t_start = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        timing = session.run_once()
        if timing is not None:
            plain.append(timing)
        if args.trace:
            with tracer.installed(nlcflow):
                timing = session.run_once()
            if timing is not None:
                traced.append(timing)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS \
                and (now - t_start) + (now - t_round) > args.seconds:
            break

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    meta = {"workload": wl.name, "seed": args.seed, "steps": wl.steps,
            "seconds": args.seconds, "env": ENV,
            "config": repr(session.cfg)}
    print(f"# {wl.name} seed={args.seed} steps/run={wl.steps} "
          f"runs={session.attempted} (1 warm-up) "
          f"python={ENV['python']} numpy={ENV['numpy']} "
          f"scipy={ENV['scipy']} cores={ENV['cores']} "
          f"threads={bootstrap.THREADS}")

    correct = session.failed == 0 and bool(plain) \
        and (bool(traced) or not args.trace)
    n_steps = sum(len(r["step_s"]) for r in plain)
    print(f"# {len(plain)} timed untraced runs, {n_steps} steps")
    shown = {}
    if args.trace and traced and plain:
        shown = tracer.per_layer()
        shown["trace.overhead_frac"] = (
            1.0 - _median(traced, "steps_per_s")
            / _median(plain, "steps_per_s"), "1")
        tracer.dump_spans(OUT_DIR / f"spans-{tag}.json")
    elif not args.trace and plain:
        shown = end_to_end(plain, session)
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    shown.pop("fail_frac", None)  # the JSON carries it as failed/attempted
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    meta["runs"] = [{k: v for k, v in r.items() if k != "step_s"}
                    for r in plain]
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump({**meta, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
