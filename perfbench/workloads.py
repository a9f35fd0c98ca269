"""The four workloads: set-up, one round of operations, and checks.

Every workload drives the program through its public API only
(``repro.compile``, ``repro.execute``, ``repro.simulate``,
``ExecutionService`` and ``ShardedExecutionService``).  A round runs each
template of the workload's mix once, in the mix's fixed order; runs
always attempt whole rounds.  Checks run between rounds, outside the
timed steps.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
from typing import Any

import numpy as np
import repro
from repro.core.plancache import PlanCache
from repro.runtime import reference_execute
from repro.service import ExecutionService, ServiceConfig, ServiceRequest
from repro.service.shard import ShardedExecutionService

import mixes
import oracles

#: seconds a service request may take before the run gives up on it
RESULT_TIMEOUT = 60.0


class CheckError(AssertionError):
    """An output of the program failed a check."""


def fingerprint(plan) -> str:
    """Content hash of a plan's steps."""
    h = hashlib.sha256()
    for step in plan.steps:
        h.update(str(step).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    """Base class: a seeded mix, a set-up, and rounds of operations.

    A round runs every template of the mix once, in the mix's order, one
    operation at a time: the benchmark is one closed-loop client."""

    name = ""
    #: set-ups per run (the median is reported); cheap set-ups repeat more
    setup_repeats = 5
    #: run on one core: a workload that lives in one process is pinned to
    #: the first core of its affinity mask, so its reference readings are
    #: taken on the core that did the work
    pin = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.mix = mixes.MIXES[self.name](seed)
        self.templates: list[Any] = []
        self.build_seconds = 0.0

    @property
    def specs(self) -> list[mixes.Spec]:
        return self.mix.specs

    def device(self, i: int):
        return mixes.DEVICES[self.specs[i].device]

    # -- set-up --------------------------------------------------------------
    def build_templates(self) -> None:
        t0 = time.perf_counter()
        self.templates = [spec.build() for spec in self.specs]
        self.build_seconds = time.perf_counter() - t0

    def setup(self) -> None:
        """Everything the program needs before the first timed operation."""
        self.build_templates()

    def teardown(self) -> None:
        """Stop what :meth:`setup` started."""

    # -- operations ----------------------------------------------------------
    def op(self, i: int) -> Any:
        """One operation on template ``i``; returns what the checks need."""
        raise NotImplementedError

    def timed(self, i: int) -> tuple[int, bool, float, Any]:
        """Run one operation; (template, succeeded, raw seconds, value or
        the exception)."""
        t0 = time.perf_counter()
        try:
            value = self.op(i)
        except Exception as exc:  # counted as failed, kept for the report
            return i, False, time.perf_counter() - t0, exc
        return i, True, time.perf_counter() - t0, value

    def begin_round(self) -> None:
        """Called before each round's first operation."""

    def check_round(self, results) -> None:
        """Checks on one round's outputs, run outside the timed steps."""

    # -- after the run -------------------------------------------------------
    def plans(self) -> list[tuple[int, Any]]:
        """(template index, compiled template) for every distinct plan."""
        raise NotImplementedError

    def finish(self) -> dict[str, float]:
        """Final checks; returns the deterministic end-to-end metrics."""
        transfer = 0
        sim_ms = 0.0
        for i, compiled in self.plans():
            template, device = self.templates[i], self.device(i)
            acct = oracles.replay(
                compiled.plan, compiled.graph, device.usable_memory_floats, template
            )
            moved = compiled.transfer_floats()
            if acct["h2d"] + acct["d2h"] != moved:
                raise CheckError(f"{self.specs[i].label}: replay moved "
                                 f"{acct['h2d'] + acct['d2h']} != plan {moved}")
            bound = oracles.io_lower_bound(template)
            if moved < bound:
                raise CheckError(f"{self.specs[i].label}: {moved} floats moved "
                                 f"< lower bound {bound}")
            if template.total_data_size() <= device.usable_memory_floats and moved != bound:
                raise CheckError(f"{self.specs[i].label}: in-core template moved "
                                 f"{moved} != lower bound {bound}")
            transfer += moved
            sim_ms += repro.simulate(compiled).total_time * 1e3
        return {"plan_transfer_floats": float(transfer), "sim_time_ms": sim_ms}


class CompileCold(Workload):
    """Distinct templates compiled through a plan cache that misses and fills."""

    name = "compile_cold"
    setup_repeats = 9

    def setup(self) -> None:
        super().setup()
        self.compiled: dict[int, Any] = {}
        self.first_fp: dict[int, str] = {}
        self.cache = PlanCache()

    def begin_round(self):
        self.cache = PlanCache()  # each round fills a fresh cache

    def op(self, i):
        return repro.compile(
            self.templates[i], device=self.device(i), plan_cache=self.cache
        )

    def check_round(self, results):
        for i, ok, _, compiled in results:
            if not ok:
                continue
            fp = fingerprint(compiled.plan)
            if self.first_fp.setdefault(i, fp) != fp:
                raise CheckError(f"{self.specs[i].label}: plan changed between rounds")
            self.compiled[i] = compiled
        if len(self.cache) != sum(ok for _, ok, _, _ in results):
            raise CheckError("plan cache did not fill once per compile")

    def plans(self):
        return sorted(self.compiled.items())


class ServeBase(Workload):
    """Closed-loop compile-mode requests against pre-warmed templates."""

    setup_repeats = 3

    def setup(self) -> None:
        super().setup()
        self.requests = [
            ServiceRequest(template=t, device=self.device(i), label=str(i))
            for i, t in enumerate(self.templates)
        ]
        self.service = self.start_service()
        # Warm-up: fill the plan cache, every template in flight at once.
        tickets = [self.service.submit(req) for req in self.requests]
        for req, ticket in zip(self.requests, tickets):
            resp = ticket.result(timeout=RESULT_TIMEOUT)
            if not resp.ok:
                raise CheckError(f"warm-up of {req.label} failed: {resp.error}")
        self.responses: dict[int, Any] = {}
        self.served_fp: dict[int, set[str]] = {}
        #: per template, the last plan object served and its fingerprint:
        #: in-process hits share one plan object, so it is hashed once;
        #: a sharded response unpickles a new plan, which is hashed and
        #: then let go
        self._last_fp: dict[int, tuple[Any, str]] = {}

    def start_service(self):
        raise NotImplementedError

    def teardown(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            self.service = None

    def op(self, i):
        resp = self.service.submit(self.requests[i]).result(timeout=RESULT_TIMEOUT)
        if not resp.ok:
            raise RuntimeError(f"request {resp.status.value}: {resp.error}")
        return resp

    def _fingerprint(self, i: int, plan) -> str:
        last = self._last_fp.get(i)
        if last is None or last[0] is not plan:
            last = self._last_fp[i] = (plan, fingerprint(plan))
        return last[1]

    def check_round(self, results):
        for i, ok, _, resp in results:
            if not ok:
                continue
            fp = self._fingerprint(i, resp.value.plan)
            self.served_fp.setdefault(i, set()).add(fp)
            self.responses[i] = resp

    def plans(self):
        return [(i, resp.value) for i, resp in sorted(self.responses.items())]

    def finish(self):
        for i, fps in self.served_fp.items():
            want = fingerprint(
                repro.compile(
                    self.templates[i], device=self.device(i), plan_cache=False
                ).plan
            )
            if fps != {want}:
                raise CheckError(f"{self.specs[i].label}: served plan differs "
                                 "from repro.compile of the same template")
        return super().finish()


class ServeWarm(ServeBase):
    name = "serve_warm"

    def start_service(self):
        return ExecutionService(ServiceConfig(workers=2))


class ServeSharded(ServeBase):
    name = "serve_sharded"
    shards = 2
    pin = False  # the shard processes inherit the mask and use every core

    def start_service(self):
        self.cache_dir = os.path.join(self.workdir, f"shard-cache-{os.getpid()}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        config = ServiceConfig(workers=1, shared_cache_dir=self.cache_dir)
        return ShardedExecutionService(config, shards=self.shards)

    def teardown(self) -> None:
        super().teardown()
        if getattr(self, "cache_dir", None):
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class ExecuteOOC(Workload):
    """``repro.execute`` then ``repro.simulate`` of precompiled plans."""

    name = "execute_ooc"

    def setup(self) -> None:
        super().setup()
        self.compiled = [
            repro.compile(t, device=self.device(i), plan_cache=False)
            for i, t in enumerate(self.templates)
        ]
        self.inputs = [spec.inputs(self.seed) for spec in self.specs]
        self.first_outputs: dict[int, dict[str, Any]] = {}

    def op(self, i):
        result = repro.execute(self.compiled[i], self.inputs[i])
        sim = repro.simulate(self.compiled[i])
        return result, sim

    def check_round(self, results):
        for i, ok, _, value in results:
            if not ok:
                continue
            result, sim = value
            moved = self.compiled[i].transfer_floats()
            if result.profile.bytes_transferred() != 4 * moved:
                raise CheckError(f"{self.specs[i].label}: profile moved "
                                 f"{result.profile.bytes_transferred()} B != 4 x {moved}")
            if sim.transfer_floats != moved:
                raise CheckError(f"{self.specs[i].label}: simulate moved "
                                 f"{sim.transfer_floats} != {moved}")
            first = self.first_outputs.setdefault(i, result.outputs)
            for k, v in result.outputs.items():
                if not np.array_equal(v, first[k]):
                    raise CheckError(f"{self.specs[i].label}: {k} changed between rounds")

    def plans(self):
        return list(enumerate(self.compiled))

    def finish(self):
        unsplit_differ, unsplit_total, unsplit_err = [], 0, 0.0
        for i, outputs in self.first_outputs.items():
            label = self.specs[i].label
            # Bitwise against the reference interpreter on the split graph:
            # on the unsplit template the float32 sums of some split
            # convolutions land one ulp away (see CHANGES.md), so that
            # comparison is reported below rather than checked.
            ref = reference_execute(self.compiled[i].graph, self.inputs[i])
            unsplit = reference_execute(self.templates[i], self.inputs[i])
            for k, v in outputs.items():
                unsplit_total += 1
                if k not in unsplit or not np.array_equal(v, unsplit[k]):
                    unsplit_differ.append(f"{label}:{k}")
                    if k in unsplit:
                        err = np.max(np.abs(v.astype(np.float64) - unsplit[k]))
                        unsplit_err = max(unsplit_err, float(err))
            want = oracles.oracle(self.specs[i], self.inputs[i])
            if set(outputs) != set(want) or set(ref) != set(want):
                raise CheckError(f"{label}: outputs {sorted(outputs)} != {sorted(want)}")
            for k, v in outputs.items():
                if not np.array_equal(v, ref[k]):
                    raise CheckError(f"{label}: {k} differs from reference_execute")
                if not oracles.close_to_oracle(v, want[k]):
                    raise CheckError(f"{label}: {k} outside float32 tolerance of oracle")
        print(f"unsplit reference_execute: {len(unsplit_differ)} of {unsplit_total} "
              f"outputs differ bitwise, largest error {unsplit_err:.3g}"
              + (f" ({', '.join(unsplit_differ)})" if unsplit_differ else ""),
              file=sys.stderr)
        return super().finish()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CompileCold, ServeWarm, ServeSharded, ExecuteOOC)
}
