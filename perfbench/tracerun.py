"""The traced run: per-layer metrics from spans around public layer calls.

The named workload runs twice as long as any other part: half of
``--seconds`` untraced, half traced, so the ratio of their throughputs is
the tracing overhead.  Each other workload then runs one short traced
slice, so that every layer is measured on the traffic that exercises it
(the planner on compile_cold, the service on serve_warm, routing and
IPC on serve_sharded, the runtime on execute_ooc).  Call counts come
from a separate short pass under a profile hook, since the hook slows
every call.  Spans are written as Chrome-trace JSON, and a per-layer
table goes to standard error and beside the trace.
"""

from __future__ import annotations

import copy
import os
import sys
import time

import repro
import repro.core.framework as framework_mod
import repro.core.plancache as plancache_mod
import repro.service.service as service_mod
import repro.service.shard as shard_mod
from repro.core import Framework
from repro.runtime import execute_plan_events, reference_execute, simulate_plan_events
from repro.service import ExecutionService, ServiceConfig
from repro.service.ipc import encode_frame

import calib
import driver
from layers import CallCounter, Recorder, patched
from workloads import RESULT_TIMEOUT, WORKLOADS, CheckError, fingerprint

#: seconds of each other workload's traced slice
SLICE_S = 1.5

#: layer calls nested inside one compile, by span name; the rest of the
#: compile (cache lookup and fill, graph copies, candidate selection,
#: metrics) is framework.residual_ms
COMPILE_LAYERS = {
    "splitting.make_feasible": "splitting.make_feasible_ms",
    "columnar.lower": "columnar.lower_ms",
    "scheduling.dfs": "scheduling.dfs_ms",
    "transfers.schedule": "transfers.schedule_ms",
    "plan.validate": "plan.validate_ms",
}


def _instrument(rec: Recorder):
    """Wrappers over the names each layer's callers look up."""
    fw = framework_mod
    wraps = [
        (repro, "compile", rec.wrap("compile", repro.compile)),
        (fw, "make_feasible", rec.wrap("splitting.make_feasible", fw.make_feasible)),
        (fw, "lower_columnar", rec.wrap("columnar.lower", fw.lower_columnar)),
        (fw.COLUMNAR_SCHEDULERS, "dfs",
         rec.wrap("scheduling.dfs", fw.COLUMNAR_SCHEDULERS["dfs"])),
        (fw, "schedule_transfers_columnar",
         rec.wrap("transfers.schedule", fw.schedule_transfers_columnar)),
        (fw, "validate_plan", rec.wrap("plan.validate", fw.validate_plan)),
        (fw, "execute_plan", rec.wrap("executor.execute", fw.execute_plan)),
        (fw, "simulate_plan", rec.wrap("executor.simulate", fw.simulate_plan)),
    ]
    for mod in (fw, service_mod, shard_mod):
        wraps.append((mod, "plan_key", rec.wrap("plancache.plan_key", plancache_mod.plan_key)))
    return patched(wraps)


def _serve_op(workload, rec: Recorder, route: bool):
    """A request op that records admit / wait / service per request."""
    service = workload.service

    def op(i):
        req = workload.requests[i]
        t0 = time.perf_counter()
        if route:
            service.route(req)
        t1 = time.perf_counter()
        ticket = service.submit(req)
        t2 = time.perf_counter()
        resp = ticket.result(timeout=RESULT_TIMEOUT)
        t3 = time.perf_counter()
        if not resp.ok:
            raise RuntimeError(f"request {resp.status.value}: {resp.error}")
        prefix = "shard" if route else "service"
        if route:
            rec.add("shard.route", t0, t1)
        rec.add(f"{prefix}.admit", t1, t2)
        rec.add(f"{prefix}.request", t1, t3, wait=resp.wait_seconds,
                service=resp.service_seconds, admit=t2 - t1)
        return resp

    return op


def _request_split(rec: Recorder, prefix: str) -> dict[str, float]:
    """Mean admit / wait / service / rest of recorded requests, in ms."""
    spans = rec.named(f"{prefix}.request")
    n = len(spans)
    admit = sum(s.args["admit"] * s.scale for s in spans) / n
    wait = sum(s.args["wait"] * s.scale for s in spans) / n
    service = sum(s.args["service"] * s.scale for s in spans) / n
    total = sum(s.seconds for s in spans) / n
    return {"admit": 1e3 * admit, "wait": 1e3 * wait, "service": 1e3 * service,
            "rest": 1e3 * (total - admit - wait - service)}


def _compile_metrics(wl, rec: Recorder) -> dict[str, float]:
    """Layer time per compile; the layers plus the residual add up to the
    compile's own span exactly."""
    compiles = {i: s for i, s in enumerate(rec.spans) if s.name == "compile"}
    totals = dict.fromkeys(COMPILE_LAYERS.values(), 0.0)
    inner = dict.fromkeys(compiles, 0.0)
    for span in rec.spans:
        metric = COMPILE_LAYERS.get(span.name)
        if metric is not None and span.parent in compiles:
            totals[metric] += span.seconds
            inner[span.parent] += span.seconds
    residual = 0.0
    for i, span in compiles.items():
        if span.seconds < inner[i]:
            raise CheckError(f"layer spans exceed their compile by "
                             f"{inner[i] - span.seconds} s")
        residual += span.seconds - inner[i]
    n = len(compiles)
    out = {metric: 1e3 * total / n for metric, total in totals.items()}
    out["framework.residual_ms"] = 1e3 * residual / n
    plans = wl.plans()
    out["splitting.ops_out"] = float(sum(len(c.graph.ops) for _, c in plans))
    out["transfers.plan_steps"] = float(sum(len(c.plan.steps) for _, c in plans))
    out["framework.candidates"] = sum(
        c.metrics["counters"]["compile.candidates"] for _, c in plans
    ) / len(plans)
    return out


def _serve_metrics(wl, rec: Recorder, cal: calib.Calibrator) -> dict[str, float]:
    split = _request_split(rec, "service")
    out = {
        "service.admit_ms": split["admit"],
        "service.queue_wait_ms": split["wait"],
        "service.service_ms": split["service"],
        "service.respond_ms": split["rest"],
        "plancache.plan_key_ms": rec.mean_ms("plancache.plan_key"),
    }
    # A bare warm Framework.compile against the service's own cache.
    first, before = rec.mark(), cal.reading(calib.LONG_REPEATS)
    for i, template in enumerate(wl.templates):
        fw = Framework(wl.device(i), plan_cache=wl.service.plan_cache)
        with rec.span("framework.cache_hit"):
            fw.compile(template)
    rec.scale(first, rec.mark(),
              calib.factor(before, cal.reading(calib.LONG_REPEATS)))
    out["framework.cache_hit_ms"] = rec.mean_ms("framework.cache_hit")
    # Counts under a profile hook, in a service of their own that shares
    # the warm cache (the hook reaches only threads started under it).
    counter = CallCounter({"plan_key": plancache_mod.plan_key,
                           "deepcopy": copy.deepcopy})
    with counter:
        svc = ExecutionService(ServiceConfig(workers=1),
                               plan_cache=wl.service.plan_cache)
        try:
            for req in wl.requests:
                resp = svc.submit(req).result(timeout=RESULT_TIMEOUT)
                if not resp.ok:
                    raise CheckError(f"counted request failed: {resp.error}")
        finally:
            svc.close()
    n = len(wl.requests)
    out["plancache.plan_key_calls_per_request"] = counter.counts["plan_key"] / n
    out["plancache.deepcopies_per_hit"] = counter.counts["deepcopy"] / n
    return out


def _shard_metrics(wl, rec: Recorder) -> dict[str, float]:
    split = _request_split(rec, "shard")
    req_bytes, resp_bytes = [], []
    for i, req in enumerate(wl.requests):
        resp = wl.responses[i]
        req_bytes.append(len(encode_frame({"kind": "submit", "id": 1, "request": req})))
        resp_bytes.append(len(encode_frame({
            "kind": "response", "id": 1, "response": resp.to_dict(),
            "value": resp.value,
        })))
    return {
        "shard.route_ms": rec.mean_ms("shard.route"),
        "shard.admit_ms": split["admit"],
        "shard.queue_wait_ms": split["wait"],
        "shard.service_ms": split["service"],
        "ipc.residual_ms": split["rest"],
        "ipc.request_bytes": sum(req_bytes) / len(req_bytes),
        "ipc.response_bytes": sum(resp_bytes) / len(resp_bytes),
    }


def _runtime_metrics(wl, rec: Recorder, cal: calib.Calibrator) -> dict[str, float]:
    out = {
        "executor.execute_ms": rec.mean_ms("executor.execute"),
        "executor.simulate_ms": rec.mean_ms("executor.simulate"),
    }
    moved = launches = 0
    first, before = rec.mark(), cal.reading(calib.LONG_REPEATS)
    for i, compiled in wl.plans():
        dev, inputs = wl.device(i), wl.inputs[i]
        with rec.span("events.execute"):
            execute_plan_events(compiled.plan, compiled.graph, dev, inputs)
        with rec.span("events.simulate"):
            simulate_plan_events(compiled.plan, compiled.graph, dev)
        with rec.span("runtime.reference"):
            reference_execute(wl.templates[i], inputs)
        result = repro.execute(compiled, inputs)
        moved += result.profile.bytes_transferred()
        launches += repro.simulate(compiled).launches
    rec.scale(first, rec.mark(),
              calib.factor(before, cal.reading(calib.LONG_REPEATS)))
    for name in ("events.execute", "events.simulate", "runtime.reference"):
        out[f"{name}_ms"] = rec.mean_ms(name)
    out["gpusim.bytes_moved"] = float(moved)
    out["gpusim.launches"] = float(launches)
    return out


def _check_plans_untraced(wl) -> None:
    """Plans made under tracing equal plans compiled without it."""
    for i, compiled in wl.plans():
        want = fingerprint(repro.compile(
            wl.templates[i], device=wl.device(i), plan_cache=False
        ).plan)
        if fingerprint(compiled.plan) != want:
            raise CheckError(f"{wl.specs[i].label}: traced plan differs")


def _slice(name: str, seed: int, seconds: float, workdir: str,
           cal: calib.Calibrator, rec: Recorder, main: bool):
    """Set up one workload and run it traced (after an untraced half when
    it is the run's own workload); returns the traced and untraced
    measurements and the workload's per-layer metrics."""
    wl = WORKLOADS[name](seed, workdir)
    plain = None
    try:
        with _instrument(rec):
            _, builds, _ = driver.timed_setups(wl, cal, repeats=1)
        if main:
            plain = driver.measure(wl, seconds, cal)
        if name.startswith("serve"):
            wl.op = _serve_op(wl, rec, route=name == "serve_sharded")
        if name == "serve_warm":
            emitted = wl.service.events.total_emitted
        with _instrument(rec):
            traced_m = driver.measure(wl, seconds, cal, recorder=rec,
                                      min_samples=0 if main else 1)
        if name == "compile_cold":
            metrics = _compile_metrics(wl, rec)
        elif name == "serve_warm":
            metrics = _serve_metrics(wl, rec, cal)
            metrics["obs.events_per_request"] = (
                wl.service.events.total_emitted - emitted
            ) / traced_m.attempted
        elif name == "serve_sharded":
            metrics = _shard_metrics(wl, rec)
        else:
            metrics = _runtime_metrics(wl, rec, cal)
        metrics["templates.build_ms"] = 1e3 * builds[0]
    finally:
        wl.teardown()
    wl.finish()
    if not name.startswith("serve"):  # finish() already checks served plans
        _check_plans_untraced(wl)
    return traced_m, plain, metrics


def traced(name: str, seed: int, seconds: float, workdir: str,
           units: dict[str, str]) -> dict:
    """Run ``name`` traced and every other workload for a slice; returns
    the run's result with the per-layer metrics named in ``units``."""
    mask = os.sched_getaffinity(0)
    metrics: dict[str, float] = {}
    attempted = failed = 0
    correct = True
    recorders = {}
    for other in [name] + [w for w in WORKLOADS if w != name]:
        rec = recorders[other] = Recorder()
        main = other == name
        cores = {min(mask)} if WORKLOADS[other].pin else mask
        os.sched_setaffinity(0, cores)
        try:
            traced_m, plain, m = _slice(
                other, seed, seconds / 2 if main else SLICE_S, workdir,
                calib.Calibrator(cores), rec, main,
            )
        except CheckError as exc:
            print(f"check failed in {other}: {exc}", file=sys.stderr)
            correct = False
            continue
        finally:
            os.sched_setaffinity(0, mask)
        if main:
            attempted = traced_m.attempted + plain.attempted
            failed = traced_m.failed + plain.failed
            m["trace.throughput_ratio"] = traced_m.throughput / plain.throughput
        for key, value in m.items():
            metrics.setdefault(key, value)
    _write(recorders, name, seed, workdir)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"per-layer metrics missing: {missing}", file=sys.stderr)
        correct = False
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }


def _write(recorders: dict[str, Recorder], name: str, seed: int, workdir: str) -> None:
    merged = Recorder()
    tables = []
    for wl_name, rec in recorders.items():
        for span in rec.spans:
            span.args.setdefault("workload", wl_name)
        merged.spans.extend(rec.spans)
        tables.append(f"[{wl_name}]\n{rec.table()}")
    base = os.path.join(workdir, f"trace-{name}-{seed}")
    merged.write(base + ".json")
    table = "\n\n".join(tables)
    with open(base + ".txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table, file=sys.stderr)
    print(f"chrome trace: {base}.json", file=sys.stderr)
