"""Outside-in tracing of nlcflow.

``Tracer.installed(nlcflow)`` replaces public names in the package's module
namespaces (``nlcflow.runner.predict_velocity``, ``nlcflow.grid.
pad_with_ghosts``, ``nlcflow.momentum.pcg``, ...) with wrappers that record
spans and counts, and puts every original back on exit. The package source
is untouched: nlcflow looks these names up in its own module globals at call
time, so a wrapper placed there sees every call made through that module.

A span is (name, start, end, parent). Spans stay in memory until
``dump_spans`` writes them. Times are folded into per-layer totals and self
times as each span closes, split by phase: ``setup`` is everything in
``run()`` before its first ``step`` call, ``loop`` everything after.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span that owns each PCG solve site; a solve belongs to its nearest owner
_SITE_OF = {"director.advance": "director", "momentum.predict": "predict",
            "momentum.project": "project", "stationary.solve": "stationary"}

# (module, name) -> span name for the plainly timed call boundaries
_TIMED = (
    ("runner", "advance_density", "density.advance"),
    ("runner", "advance_director", "director.advance"),
    ("runner", "eval_force", "forcing.eval"),
    ("forcing", "eval_force", "forcing.eval"),
    ("runner", "predict_velocity", "momentum.predict"),
    ("momentum", "elastic_force", "momentum.elastic_force"),
    ("runner", "project", "momentum.project"),
    ("runner", "compute_record", "diagnostics.record"),
)
_PCG_CALLERS = ("director", "momentum", "stationary")
_PARSE_CALLERS = ("runner", "forcing")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name id, start, end, parent]
        self._stack: list[list] = []         # [span index, name, child s, phase]
        self._in_loop = False
        self._loop: list | None = None      # frame of the open loop span
        self.total = defaultdict(float)      # (phase, name) -> s
        self.self_time = defaultdict(float)  # (phase, name) -> s
        self.calls = defaultdict(int)        # (phase, name) -> spans
        self.counts = defaultdict(int)       # (phase, counter) -> n
        self.runs = 0

    # -- spans ---------------------------------------------------------------

    @property
    def phase(self) -> str:
        return "loop" if self._in_loop else "setup"

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), name, 0.0, self.phase]
        self._stack.append(frame)
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span = self.spans[frame[0]]
        span[2] = end
        dur = end - span[1]
        key = (frame[3], frame[1])
        self.total[key] += dur
        self.self_time[key] += dur - frame[2]
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
        return wrapper

    def _site(self) -> str:
        for frame in reversed(self._stack):
            site = _SITE_OF.get(frame[1])
            if site is not None:
                return site
        return "other"

    # -- wrappers with more than a span --------------------------------------

    def _run(self, fn):
        def run(*args, **kwargs):
            frame = self._open("runner.run")
            try:
                return fn(*args, **kwargs)
            finally:
                if self._in_loop:
                    self._close(self._loop)
                    self._in_loop, self._loop = False, None
                self._close(frame)
                self.runs += 1
        return run

    def _step(self, fn):
        timed = self._timed("runner.step", fn)

        def step(*args, **kwargs):
            if not self._in_loop:
                # the loop span runs from the first step to run()'s return;
                # its self time is run()'s per-step invariant tracking
                self._in_loop = True
                self._loop = self._open("runner.loop")
            return timed(*args, **kwargs)
        return step

    def _stationary(self, fn):
        timed = self._timed("stationary.solve", fn)

        def solve_stationary(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.counts[(self.phase, "stationary.iterations")] += \
                result.iterations
            return result
        return solve_stationary

    def _pcg(self, fn):
        def pcg(apply_a, b, precond=None, *args, **kwargs):
            site = self._site()
            phase = self.phase
            iters = 0

            def counted_apply(x):
                nonlocal iters
                iters += 1
                return apply_a(x)

            pre = None if precond is None \
                else self._timed("solvers.precond", precond)
            frame = self._open(f"solvers.pcg.{site}")
            try:
                return fn(counted_apply, b, pre, *args, **kwargs)
            finally:
                self._close(frame)
                self.counts[(phase, f"pcg_iters.{site}")] += iters
                self.counts[(phase, f"pcg_solves.{site}")] += 1
                self.counts[(phase, "solvers.apply_calls")] += iters
        return pcg

    def _ghost_fill(self, fn):
        timed = self._timed("grid.ghost_fill", fn)

        def pad_with_ghosts(grid, values, kind, bv):
            if kind == "dirichlet":
                self.counts[(self.phase, "grid.dirichlet_fills")] += 1
            return timed(grid, values, kind, bv)
        return pad_with_ghosts

    def _parse(self, fn):
        def parse_expression(text):
            evaluate = fn(text)

            def counted(xx, yy):
                self.counts[(self.phase, "expressions.evals")] += 1
                return evaluate(xx, yy)
            return counted
        return parse_expression

    # -- install / restore ---------------------------------------------------

    @contextmanager
    def installed(self, nlcflow):
        """Wrap the traced names for the duration of the block, then put
        every original back and verify it is back. A name the package no
        longer has is skipped, so the metrics of a removed layer read 0."""
        targets = [(m, attr, lambda fn, span=span: self._timed(span, fn))
                   for m, attr, span in _TIMED]
        targets += [("runner", "run", self._run),
                    ("runner", "step", self._step),
                    ("runner", "solve_stationary", self._stationary),
                    ("grid", "pad_with_ghosts", self._ghost_fill)]
        targets += [(m, "pcg", self._pcg) for m in _PCG_CALLERS]
        targets += [(m, "parse_expression", self._parse)
                    for m in _PARSE_CALLERS]
        patches = []
        for m, attr, wrap in targets:
            module = getattr(nlcflow, m)
            if hasattr(module, attr):
                patches.append((module, attr, wrap(getattr(module, attr))))
        originals = [(m, attr, getattr(m, attr)) for m, attr, _ in patches]
        try:
            for m, attr, wrapper in patches:
                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, orig in reversed(originals):
                setattr(m, attr, orig)
        for m, attr, orig in originals:
            if getattr(m, attr) is not orig:
                raise RuntimeError(f"{m.__name__}.{attr} was not restored")

    # -- results -------------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}: ``_ms`` is ms per
        coupled step and counts are per step, except ``diagnostics.records``,
        ``stationary.*`` and ``solvers.pcg_ms.stationary`` (per run, since
        they belong to set-up or to the whole run)."""
        steps = self.calls[("loop", "runner.step")]
        runs = self.runs
        if not steps or not runs:
            raise RuntimeError("no traced step to report on")

        def ms(name, table=self.total):
            return 1e3 * table[("loop", name)] / steps

        def per_step(counter):
            return self.counts[("loop", counter)] / steps

        def iters(site, phase="loop"):
            solves = self.counts[(phase, f"pcg_solves.{site}")]
            return self.counts[(phase, f"pcg_iters.{site}")] / solves \
                if solves else 0.0

        out = {
            "runner.step.self_ms": (ms("runner.step", self.self_time), "ms"),
            "runner.loop.self_ms": (ms("runner.loop", self.self_time), "ms"),
            "density.advance_ms": (ms("density.advance"), "ms"),
            "director.advance_ms": (ms("director.advance"), "ms"),
            "director.advance.self_ms":
                (ms("director.advance", self.self_time), "ms"),
            "director.pcg_iters": (iters("director"), "count"),
            "forcing.eval_ms": (ms("forcing.eval"), "ms"),
            "momentum.predict_ms": (ms("momentum.predict"), "ms"),
            "momentum.predict.self_ms":
                (ms("momentum.predict", self.self_time), "ms"),
            "momentum.elastic_force_ms": (ms("momentum.elastic_force"), "ms"),
            "momentum.predict_pcg_iters": (iters("predict"), "count"),
            "momentum.project_ms": (ms("momentum.project"), "ms"),
            "momentum.project_pcg_iters": (iters("project"), "count"),
        }
        for site in ("director", "predict", "project"):
            out[f"solvers.pcg_ms.{site}"] = (ms(f"solvers.pcg.{site}"), "ms")
        out["solvers.pcg_ms.stationary"] = (
            1e3 * self.total[("setup", "solvers.pcg.stationary")] / runs,
            "ms")
        out.update({
            "solvers.precond_ms": (ms("solvers.precond"), "ms"),
            "solvers.precond_calls":
                (self.calls[("loop", "solvers.precond")] / steps, "count"),
            "solvers.apply_calls": (per_step("solvers.apply_calls"), "count"),
            "grid.ghost_fill_ms": (ms("grid.ghost_fill"), "ms"),
            "grid.ghost_fills":
                (self.calls[("loop", "grid.ghost_fill")] / steps, "count"),
            "grid.dirichlet_fills":
                (per_step("grid.dirichlet_fills"), "count"),
            "expressions.evals": (per_step("expressions.evals"), "count"),
            "diagnostics.record_ms": (ms("diagnostics.record"), "ms"),
            "diagnostics.records":
                (self.calls[("loop", "diagnostics.record")] / runs, "count"),
            "stationary.solve_s":
                (self.total[("setup", "stationary.solve")] / runs, "s"),
            "stationary.iterations":
                (self.counts[("setup", "stationary.iterations")] / runs,
                 "count"),
        })
        return out

    def dump_spans(self, path) -> None:
        """Write every recorded span as JSON: a name table and rows of
        [name index, start s, end s, parent row or -1]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
