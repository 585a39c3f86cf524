"""Seeded, stdlib-only benchmark for edgex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cube_ladder, k2m_products, nested_products, oracle_sweep, or
``all`` to run the four one after another, each in a child process of its
own so that its ``max_rss_mib`` is its own peak. Run it from the repository
root: it imports edgex from ``src/`` next to this directory and nowhere else.

A run is a closed loop in one single-threaded process: each op (one
``extend_*`` call, one ``explore_bipartite_factor`` call or one blocked-hub
refutation) starts when the previous one has ended and been checked. Every
op of the seeded list runs once per pass, and whole passes repeat while
the ops' reference time (see below) stays near ``--seconds``: with 18,
k2m_products, nested_products and oracle_sweep, whose pass takes 8 to 11
reference seconds, run two passes, and cube_ladder (13 to 17) runs one. An op's time includes
the collection of the cyclic garbage it leaves. Each op has a
deadline enforced with ``ITIMER_REAL`` on this process only. An op fails when
it hits the deadline, raises (``RecursionError``, an ``EdgexError`` or any
other exception), or returns output the independent checker rejects.

Durations in the end-to-end metrics, and the deadlines, are in reference
seconds: wall time scaled by the machine speed measured between ops (see
``speed.py``), so that a shared host's drifting speed does not swamp the
program's own. The raw wall time is printed alongside.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every op runs once untraced and once traced, and the last line
reports per-layer counts and self times (wall seconds) plus the tracing
overhead (traced minus untraced reference time of the same ops). Lines before it list the
metrics with units, every failed op, and (traced) the largest self times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from speed import Speed, scale_now
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.BUILDERS)
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "edges_per_s": "1/s",
    "decisions_per_s": "1/s",
    "ok_frac": "ratio",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "max_rss_mib": "MiB",
}
# per-layer metric -> unit; "<layer>.<function>.calls|self_s" come from spans
PER_LAYER_UNITS = {
    "coloring.exact_list_color.calls": "count",
    "coloring.exact_list_color.self_s": "s",
    "coloring.short_lists": "count",
    "coloring.fastpath_ratio": "ratio",
    "extension.validate_precoloring.calls": "count",
    "extension.validate_precoloring.self_s": "s",
    "graph.distances_from.calls": "count",
    "graph.distances_from.self_s": "s",
    "families.cartesian_product.calls": "count",
    "families.cartesian_product.self_s": "s",
    "coloring.verify_proper.calls": "count",
    "coloring.verify_proper.self_s": "s",
    "extension.reduce_instance.self_s": "s",
    "extension.color_fibers.self_s": "s",
    "extension.extend.self_s": "s",
    "coloring.galvin_list_color.self_s": "s",
    "coloring.konig_color.self_s": "s",
    "oracle.decide_extendable.calls": "count",
    "oracle.decide_extendable.self_s": "s",
    "oracle.explore_bipartite_factor.self_s": "s",
    "oracle.build_blocked_hub_instance.self_s": "s",
    "oracle.check_local_obstruction.self_s": "s",
    "fail.timeout": "count",
    "fail.recursion": "count",
    "fail.edgex": "count",
    "fail.other": "count",
    "fail.wrong": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
FAIL_KINDS = ("timeout", "recursion", "edgex", "other", "wrong")


class OpDeadline(BaseException):
    """Raised from SIGALRM. A BaseException, so ``except Exception`` in the
    library cannot swallow it."""


def _alarm(signum, frame):
    raise OpDeadline


@dataclass
class Record:
    index: int  # position of the op in the list
    kind: str  # "ok" or one of FAIL_KINDS
    wall: float  # seconds
    scale: float  # reference seconds per wall second when the op ran
    detail: str = ""

    @property
    def ref(self):
        return self.wall * self.scale


def import_edgex():
    """A fresh import of edgex from this checkout's src/ directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "edgex" or k.startswith("edgex.")]:
        del sys.modules[key]
    package = importlib.import_module("edgex")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"edgex imported from {package.__file__}, not from {SRC}")
    return package


def setup(workload, seed, per_class=None):
    """Import edgex and build the ops, SETUP_REPEATS times; returns the last
    import, its ops and the median set-up time. Each repeat starts with the
    previous one's import and ops freed, so all repeats start alike."""
    times = []
    for _ in range(SETUP_REPEATS):
        E = ops = None
        gc.collect()
        scale = scale_now()
        start = time.perf_counter()
        E = import_edgex()
        ops = workloads.build(workload, E, seed, per_class)
        times.append((time.perf_counter() - start) * scale)
    return E, ops, statistics.median(times)


def run_op(E, op, index, scale=1.0, tracer=None):
    """Run and check one op; its deadline is ``op.deadline`` reference
    seconds, i.e. ``op.deadline / scale`` wall seconds."""
    detail = ""
    # free the harness's own cyclic garbage (the last check's) untimed, so
    # that the collection after the op below frees only the op's garbage
    gc.collect()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline / scale)
            result = op.call(E)
            kind = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        kind, detail = "timeout", f"no result within {op.deadline} reference s"
    except RecursionError as exc:
        kind, detail = "recursion", str(exc)
    except E.errors.EdgexError as exc:
        kind, detail = "edgex", f"{type(exc).__name__}: {exc}"[:200]
    except Exception as exc:  # a bare library exception is a failed op, not a harness crash
        kind, detail = "other", f"{type(exc).__name__}: {exc}"[:200]
    # the library's recursive closures leave cyclic garbage (search domains,
    # every enumerated matching). Collecting it here, timed, charges its
    # cost to the op that made it and keeps it from piling up into the next
    # op's peak RSS.
    gc.collect()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if kind == "ok":
        try:
            problem = op.check(result)
        except Exception as exc:  # malformed output
            problem = f"checker raised {type(exc).__name__}: {exc}"
        if problem:
            kind, detail = "wrong", problem[:200]
    return Record(index, kind, wall, scale, detail)


def run_passes(E, ops, seconds):
    """Whole passes over the ops, so every run has the same mix: another
    pass starts while its midpoint, judged by the last pass, would still
    fall within ``seconds`` of op time, counted in reference seconds so that
    the number of passes does not depend on the machine's speed."""
    speed = Speed()
    records = []
    measured = 0.0
    while True:
        last = 0.0
        for i, op in enumerate(ops):
            records.append(run_op(E, op, i, speed.scale))
            speed.spent(records[-1].wall)
            last += records[-1].ref
        measured += last
        if measured + last / 2 >= seconds:
            return records


def run_paired(E, ops):
    """Every op once untraced and once traced, back to back. The order
    alternates between ops so that neither side always runs warm."""
    speed = Speed()
    tracer = Tracer()
    untraced, traced = [], []
    for i, op in enumerate(ops):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_now:
                untraced.append(run_op(E, op, i, speed.scale))
            else:
                undo = tracer.install()
                try:
                    traced.append(run_op(E, op, i, speed.scale, tracer))
                finally:
                    undo()
            speed.spent((traced if traced_now else untraced)[-1].wall)
    return untraced, traced, tracer


def end_to_end(ops, records, setup_s):
    """Durations in reference seconds; a failed op is charged its deadline."""
    ok = [r for r in records if r.kind == "ok"]
    wall = sum(r.ref for r in records)
    charged = [r.ref if r.kind == "ok" else ops[r.index].deadline for r in records]
    deciles = statistics.quantiles(charged, n=10) if len(charged) > 1 else charged * 9
    return {
        "setup_s": setup_s,
        "edges_per_s": sum(ops[r.index].edges for r in ok) / wall,
        "decisions_per_s": sum(ops[r.index].decisions for r in ok) / wall,
        "ok_frac": len(ok) / len(records),
        "op_p50_ms": statistics.median(charged) * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced, tracer):
    values = {}
    for name in PER_LAYER_UNITS:
        layer_fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls.get(layer_fn, 0)
        elif stat == "self_s":
            # extension.extend sums the glue of all extend_* entry points
            values[name] = (tracer.self_time("extension.extend")
                            if layer_fn == "extension.extend" else tracer.self_s.get(layer_fn, 0.0))
    values["coloring.short_lists"] = tracer.counters["coloring.short_lists"]
    demand = tracer.calls.get("coloring.demand_list_color", 0)
    values["coloring.fastpath_ratio"] = tracer.calls.get("coloring.galvin_list_color", 0) / demand if demand else 0.0
    for kind in FAIL_KINDS:
        values[f"fail.{kind}"] = sum(1 for r in untraced if r.kind == kind)
    base = sum(r.ref for r in untraced)
    overhead = sum(r.ref for r in traced) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base
    return values


def run_workload(workload, seed, seconds, trace, per_class=None, out=print):
    E, ops, setup_s = setup(workload, seed, per_class)
    # the generated inputs of every op stay alive for the whole run; keep
    # them out of the collections that happen inside ops
    gc.collect()
    gc.freeze()
    if trace:
        untraced, traced, tracer = run_paired(E, ops)
        records = untraced + traced
        metrics, units = per_layer(untraced, traced, tracer), PER_LAYER_UNITS
        for u, t in zip(untraced, traced):
            if u.kind != t.kind:
                out(f"note: {ops[u.index].name} ended {u.kind} untraced, {t.kind} traced")
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:8]
        for name, self_s in top:
            out(f"self {name:<42} {self_s:10.4f} s  {tracer.calls[name]:>8} calls")
    else:
        records = run_passes(E, ops, seconds)
        metrics, units = end_to_end(ops, records, setup_s), END_TO_END_UNITS
    failed = [r for r in records if r.kind != "ok"]
    wall = sum(r.wall for r in records)
    out(f"{workload}: seed {seed}, {len(records)} ops attempted, {len(failed)} failed "
        f"(failed_frac {len(failed) / len(records):.4f}), {len(ops)} distinct ops, "
        f"{wall:.2f} s wall = {sum(r.ref for r in records):.2f} reference s")
    for name, value in metrics.items():
        out(f"  {name:<42} {value:14.6g} {units[name]}")
    seen = set()
    for r in failed:
        if (r.index, r.kind) not in seen:
            seen.add((r.index, r.kind))
            op = ops[r.index]
            out(f"  failed op: workload={workload} op={op.name} size={op.size} seed={op.seed} "
                f"kind={r.kind} detail={r.detail}")
    return {
        "correct": not any(r.kind == "wrong" for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in a child process of its own, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            return None
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgex" / "__init__.py").is_file():
        print(f"edgex sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
        if result is None:
            return 1
    else:
        signal.signal(signal.SIGALRM, _alarm)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
