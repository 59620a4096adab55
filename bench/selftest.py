"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For each workload (shortened to a few steps) it checks that:

* an untraced run and two traced runs give bitwise-identical diagnostics,
  so tracing does not perturb the trajectory;
* the two traced runs count exactly the same calls, iterations and fills;
* every name the tracer wrapped is restored afterwards;
* each run passes the workload's correctness checks, and each kind of
  check fails on a result that breaks it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import bootstrap

bootstrap.prepare()

import nlcflow  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_run, digest  # noqa: E402

STEPS = 12
MODULES = ("runner", "forcing", "momentum", "director", "stationary", "grid")


def _namespaces():
    return {m: dict(vars(getattr(nlcflow, m))) for m in MODULES}


def _run(wl, cfg):
    return nlcflow.runner.run(cfg, write_outputs=False,
                              with_stationary=wl.with_stationary)


def main() -> int:
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for wl in WORKLOADS.values():
        cfg = wl.make_config(seed=1, steps=STEPS)
        before = _namespaces()
        plain = _run(wl, cfg)
        tracers, traced = [Tracer(), Tracer()], []
        for tr in tracers:
            with tr.installed(nlcflow):
                traced.append(_run(wl, cfg))
        after = _namespaces()

        expect(all(after[m].keys() == before[m].keys()
                   and all(after[m][k] is v for k, v in before[m].items())
                   for m in MODULES),
               f"{wl.name}: every wrapped name restored")
        digests = {digest(r) for r in [plain, *traced]}
        expect(len(digests) == 1,
               f"{wl.name}: traced and untraced diagnostics bitwise equal")
        a, b = tracers
        expect(a.counts == b.counts and a.calls == b.calls,
               f"{wl.name}: traced counts repeat exactly")
        problems = check_run(wl, plain, cfg, STEPS)
        expect(not problems, f"{wl.name}: run passes its checks {problems}")

        # run backwards in time, with a false check, the wrong step count
        # and an unconverged equilibrium: every kind of check must object
        broken = SimpleNamespace(
            records=plain.records[::-1], final=plain.final,
            report={**plain.report, "stationary_residual": 1.0,
                    "checks": {**plain.report["checks"], "div_free": False}})
        expect(len(check_run(wl, broken, cfg, STEPS + 1)) == 3,
               f"{wl.name}: report check, step count and sanity check "
               f"each catch a broken run")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
