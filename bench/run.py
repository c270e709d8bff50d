"""Time-to-verdict benchmark for singcert.

    python3 bench/run.py --workload euclid-certify --seed 0 --seconds 30 --trace 0

Runs one workload as a closed loop with a single client: one `run_check`
or `run_sweep` call at a time, each followed by `emit` on its report, in
this one process, with no threads and the BLAS/OpenMP thread variables
pinned to 1. Passes through the workload repeat until `--seconds` would
be exceeded (at least one pass). Every report is checked against the
oracle in `workloads.py`, and the emitted text of every pass must be
byte-identical to the first.

With `--trace 0` the end-to-end metrics are measured with tracing off.
With `--trace 1` untraced and traced passes alternate; the traced passes
give the per-layer metrics (`tracer.py`), their difference gives the
tracing overhead, the emitted text must not change, and each layer must
record calls exactly on the workloads that exercise it.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics,
where metrics are the `end_to_end` (trace 0) or `per_layer` (trace 1)
metrics named in BENCHMARK.json. `--out PATH` also writes every metric,
the per-stage split and the machine facts as JSON. Exit status 2 means
no result: the package source is missing or the harness failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3
SETUP_CODE = """\
import json, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from singcert import pipeline
for doc in json.loads(sys.argv[2]):
    pipeline.load_config(doc)
print(repr(time.perf_counter() - started))
"""


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def measure_setup(configs: list) -> list[float]:
    """Seconds to import singcert.pipeline and load the workload's configs,
    each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(configs)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return times


def machine_facts(pipeline) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "SINGCERT_THREADS": os.environ.get("SINGCERT_THREADS"),
        "thread_pool_size": pipeline.thread_pool_size(),
    }


class Pass:
    """One timed pass through a workload's calls, graded by the oracle."""

    def __init__(self, calls, pipeline, reference):
        outputs = []
        started, cpu_started = time.perf_counter(), time.process_time()
        for call in calls:
            try:
                outputs.append(call.run(pipeline))
            except Exception:  # a raising call fails each of its checks
                outputs.append(traceback.format_exc())
        self.wall = time.perf_counter() - started
        self.cpu = time.process_time() - cpu_started
        self.texts = []
        self.problems = {}   # check label -> what is wrong with it
        self.attempted = 0
        for call, out in zip(calls, outputs):
            labels = call.labels()
            self.attempted += len(labels)
            if isinstance(out, str):
                self.texts.append(None)
                self.problems.update((label, [out]) for label in labels)
                continue
            reports, text = out
            self.texts.append(text)
            if len(reports) != len(labels):
                reports = [None] * len(labels)
            for label, report in zip(labels, reports):
                found = (["no report"] if report is None
                         else workloads.problems(label, report, reference))
                if found:
                    self.problems[label] = found


def run(args) -> dict:
    import tracer
    from singcert import pipeline

    calls = workloads.WORKLOADS[args.workload].calls(args.seed, args.smoke)
    reference = workloads.load_reference()
    setup = measure_setup([call.config for call in calls])
    facts = machine_facts(pipeline)

    untraced, traced, summaries, escaped = [], [], [], []
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        untraced.append(Pass(calls, pipeline, reference))
        if args.trace:
            probe = tracer.Tracer()
            with probe.installed():
                escaped += probe.escaped_bindings()
                traced.append(Pass(calls, pipeline, reference))
            summaries.append(probe.summary())
        lap = time.perf_counter() - lap
        if time.perf_counter() - started + lap > args.seconds:
            break
    passes = untraced + traced

    problems = [f"{label}: {found}" for p in passes
                for label, found in p.problems.items()]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    first = passes[0].texts
    changed = [f"pass {i}: emitted text differs from the first pass"
               for i, p in enumerate(passes) if p.texts != first]

    metrics = {
        "wall_s": statistics.median(p.wall for p in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fail_share": failed / attempted,
    }
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "facts": facts, "setup_runs_s": setup,
              "untraced_walls_s": [p.wall for p in untraced],
              "untraced_cpu_s": [p.cpu for p in untraced]}
    isolation = []
    if args.trace:
        layers = {key: statistics.median(s["layers"][key] for s in summaries)
                  for key in summaries[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced) - metrics["wall_s"])
        labels = [label for call in calls for label in call.labels()]
        checks = summaries[0]["checks"]
        for stage in tracer.STAGES:
            layers[f"stage.{stage}.s"] = statistics.median(
                sum(row[stage] for row in s["checks"]) for s in summaries)
        bypassed = workloads.WORKLOADS[args.workload].bypassed
        for name in sorted(set(tracer.layer_names()) - set(probe.absent)):
            calls_made = summaries[0]["layers"][f"{name}.calls"]
            if (calls_made == 0) != (name in bypassed):
                isolation.append(
                    f"{name}: {calls_made} calls, but the workload "
                    + ("bypasses" if name in bypassed else "exercises")
                    + " this layer")
        isolation += [f"unwrapped binding: {e}" for e in sorted(set(escaped))]
        result["absent_layers"] = probe.absent
        metrics.update(layers)
        result.update(
            traced_walls_s=[p.wall for p in traced],
            stages_by_check=dict(zip(labels, checks)),
            layers_by_stage=summaries[0]["by_stage"],
            isolation_failures=isolation)
    result.update(metrics=metrics, problems=problems + changed,
                  correct=not (problems or changed),
                  attempted=attempted, failed=failed)
    return result


def print_report(result: dict) -> None:
    facts = result["facts"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    print("machine " + json.dumps(facts, sort_keys=True))
    metrics = result["metrics"]
    for name in ("wall_s", "setup_s", "peak_rss_mb", "fail_share"):
        print(f"{name:<12} {metrics[name]:.6g} {unit_of(name)}")
    print(f"checks       {result['attempted']} attempted, "
          f"{result['failed']} failed")
    if result["trace"]:
        from tracer import STAGES, layer_names

        print(f"trace.overhead_s {metrics['trace.overhead_s']:.6g} s")
        print("stage seconds by check (traced pass):")
        print(f"  {'check':<22}" + "".join(f"{s:>12}" for s in STAGES)
              + f"{'total':>12}")
        for label, row in result["stages_by_check"].items():
            print(f"  {label:<22}" + "".join(
                f"{row[s]:12.4f}" for s in STAGES + ("total",)))
        by_stage = result["layers_by_stage"]
        print("layers (median over traced passes; seconds by stage from the "
              "first):")
        print(f"  {'layer':<33}{'calls':>9}{'s':>10}{'self_s':>10}"
              + "".join(f"{s[:11]:>12}" for s in STAGES))
        for name in layer_names():
            cells = [by_stage[s].get(f"{name}.s", 0.0) for s in STAGES]
            print(f"  {name:<33}{metrics[name + '.calls']:9.0f}"
                  f"{metrics[name + '.s']:10.4f}"
                  f"{metrics[name + '.self_s']:10.4f}"
                  + "".join(f"{c:12.4f}" for c in cells))
        for key in ("secondvar.lq_eval.distinct_t",
                    "secondvar.lq_eval.hit_ratio",
                    "geometry.solve_theta.newton_iters",
                    "falsifier.competitors_per_s",
                    "falsifier.arrived_share"):
            print(f"  {key} {metrics[key]:.6g} {unit_of(key)}")
        print("isolation " + ("ok" if not result["isolation_failures"]
                              else "FAILED"))
        if result["absent_layers"]:
            print("absent layers " + " ".join(result["absent_layers"]))
    for line in result["problems"] + result.get("isolation_failures", []):
        print("PROBLEM " + line, file=sys.stderr)


def contract_line(result: dict) -> str:
    """The final JSON line, with the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if entry["unit"] != unit_of(name):
            raise ValueError(f"{name}: BENCHMARK.json unit {entry['unit']}, "
                             f"measured in {unit_of(name)}")
        metrics[name] = {"value": result["metrics"][name],
                         "unit": entry["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's calls at toy sizes")
    parser.add_argument("--out", help="also write the full result as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "singcert" / "__init__.py").is_file():
        print(f"no singcert source under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy is first imported, here and in set-up subprocesses
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
        line = contract_line(result)
    except Exception:
        traceback.print_exc()
        return 2
    print_report(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
