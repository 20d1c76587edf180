"""Benchmark for affmod: four seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --check-repeat --workload NAME|all --seed N

One run builds the workload's inputs, then repeats timed passes for about S
seconds and checks every output against its known answer.  Timings take each
distinct task at its fastest repeat.  Set-up is timed in fresh interpreters
between passes (median of at least five).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
makes the untraced passes, then one pass under the span tracer and one under
cProfile, each on freshly built inputs.

``--workload all`` runs every workload in its own interpreter and prints one
table.  ``--check-repeat`` makes two traced runs with the same seed and fails
unless their exact counts agree.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import subprocess
import sys
import time

from tracing import LAYERS, SpanTracer, profile_summary
from workloads import BENCH_DIR, OUT_DIR, ROOT, SRC, WORKLOADS, child_env

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("tasks_per_s", "1/s"),
              ("task_p50_ms", "ms"), ("task_p99_ms", "ms"), ("peak_rss_mb", "MB")]

# per-layer metric -> span whose call count or (outermost) seconds it reports
SPAN_CALLS = {
    "poly.divide_multi_calls": "poly.divide_multi",
    "degrees.probe_calls": "degrees.probe_nonnegativity",
    "fibers.classify_curve_calls": "fibers.classify_curve",
    "ideals.buchberger_gb_calls": "ideals.buchberger_gb",
    "ideals.normal_form_calls": "ideals.normal_form",
    "parse.parse_poly_calls": "parse.parse_poly",
}
SPAN_SECONDS = {
    "poly.divide_multi_s": "poly.divide_multi",
    "poly.gcd_univariate_s": "poly.gcd_univariate",
    "parse.parse_poly_s": "parse.parse_poly",
    "parse.format_poly_s": "parse.format_poly",
    "ideals.buchberger_gb_s": "ideals.buchberger_gb",
    "ideals.interreduce_s": "ideals.reduce_groebner_basis",
    "ideals.normal_form_s": "ideals.normal_form",
    "ideals.colength_s": "ideals.colength",
    "rings.samuel_check_s": "rings.samuel_check",
    "fibers.classify_curve_s": "fibers.classify_curve",
    "fibers.fiber_poly_s": "fibers.fiber_poly",
    "degrees.probe_elements_s": "degrees.probe_elements",
    "degrees.valuation_degree_s": "degrees.valuation_degree",
    "verifier.fibers_s": "verifier.cmd_fibers",
    "verifier.samuel_s": "verifier.cmd_samuel",
    "verifier.localization_s": "verifier.cmd_localization",
    "verifier.isomorphism_chain_s": "verifier.cmd_takanori",
    "verifier.isomorphism_chain_repaired_s": "verifier.cmd_takanori_repaired",
    "verifier.main_identities_s": "verifier.cmd_main_identities",
    "verifier.degree_probe_s": "verifier.cmd_degree_probe",
    "report.write_s": "report.write_json_lines",
}
COUNTERS = ["ideals.spolys", "ideals.zero_reductions", "ideals.basis_size_max",
            "scalars.coef_bits_max"]
KERNEL_CALLS = ["poly.mul_calls", "poly.pow_calls", "poly.leading_calls",
                "poly.order_key_calls", "scalars.add_calls", "scalars.mul_calls",
                "scalars.inv_calls"]

# name -> (unit, better)
PER_LAYER = {
    **{m: ("count", "lower") for m in list(SPAN_CALLS) + KERNEL_CALLS},
    **{m: ("s", "lower") for m in SPAN_SECONDS},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "ideals.spolys": ("count", "lower"),
    "ideals.zero_reductions": ("count", "lower"),
    "ideals.basis_size_max": ("count", "lower"),
    "ideals.useful_reduction_ratio": ("ratio", "higher"),
    "scalars.coef_bits_max": ("bits", "lower"),
    "cli.import_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
    "unknown_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Layers said to do most of their work on a workload: a traced run fails if
# one of these reads zero there.
MAIN_WORK = {
    "verify-suite": ["verifier.fibers_s", "verifier.samuel_s",
                     "verifier.localization_s", "verifier.isomorphism_chain_s",
                     "verifier.isomorphism_chain_repaired_s",
                     "verifier.main_identities_s", "verifier.degree_probe_s",
                     "report.write_s", "cli.import_s"],
    "scaled-params": ["poly.pow_calls", "poly.mul_calls", "degrees.probe_calls",
                      "degrees.probe_elements_s", "degrees.valuation_degree_s",
                      "poly.gcd_univariate_s", "fibers.classify_curve_calls",
                      "fibers.fiber_poly_s", "rings.samuel_check_s",
                      "ideals.colength_s"],
    "groebner-std": ["poly.leading_calls", "poly.order_key_calls",
                     "poly.divide_multi_calls", "ideals.spolys",
                     "ideals.zero_reductions", "ideals.interreduce_s",
                     "scalars.mul_calls", "scalars.inv_calls", "scalars.self_s"],
    "ideal-queries": ["ideals.normal_form_calls", "parse.parse_poly_calls",
                      "parse.format_poly_s", "ideals.buchberger_gb_calls"],
}

# Exact counts that must repeat across two traced runs with one seed.
REPEAT = COUNTERS + KERNEL_CALLS + list(SPAN_CALLS)

SETUP_RUNS = 5


class SetupTimer:
    """Times fresh interpreters that import the library and build the
    workload's inputs from the seed.  Samples are taken between passes, so
    their median spans the whole run rather than one moment of it."""

    def __init__(self, name: str, seed: int):
        self.out = OUT_DIR / f"setup-{name}.json"
        self.cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup",
                    str(self.out), name, str(seed)]
        self.walls, self.imports = [], []
        self._run()  # untimed warm-up: compiles bytecode

    def _run(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, env=child_env(), check=True,
                       capture_output=True, timeout=170)
        return time.perf_counter() - t0

    def sample(self):
        self.walls.append(self._run())
        self.imports.append(json.loads(self.out.read_text())["import_s"])


def timed_passes(workload, state, seconds: float, between) -> list:
    """Passes until about ``seconds`` of pass time have gone: stop when the
    next pass would likely end more than half a pass after the deadline.
    ``between`` runs after each pass, outside the pass time."""
    passes = []
    while True:
        passes.append(workload.run_pass(state))
        between()
        elapsed = sum(p.seconds for p in passes)
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def fastest_tasks(passes) -> tuple:
    """Each distinct task's fastest time over the passes, and the ids of the
    tasks that completed.  Passes repeat the same tasks, so the fastest repeat
    filters out slowdowns caused by other load on the machine."""
    fastest, completed = {}, set()
    for p in passes:
        for key, seconds, done in p.tasks:
            fastest[key] = min(seconds, fastest.get(key, seconds))
            if done:
                completed.add(key)
    return fastest, completed


def pass_wall(workload, passes) -> float:
    """Time of one pass with every task at its fastest repeat; on a workload
    whose task is a whole invocation, the median completed invocation."""
    fastest, completed = fastest_tasks(passes)
    if workload.wall_is_task:
        return statistics.median([fastest[k] for k in completed] or fastest.values())
    return sum(fastest.values())


def end_to_end(workload, passes, setup_s: float) -> dict:
    fastest, completed = fastest_tasks(passes)
    lat = sorted(fastest[k] for k in completed) or sorted(fastest.values())
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if len(
        lat) > 1 else lat[0]
    decided_per_pass = sum(p.decided for p in passes) / len(passes)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": setup_s,
        "wall_s": pass_wall(workload, passes),
        "tasks_per_s": decided_per_pass / sum(fastest.values()),
        "task_p50_ms": statistics.median(lat) * 1000,
        "task_p99_ms": p99 * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_passes(workload, seed: int):
    """One pass (with its set-up) under the span tracer and one under
    cProfile.  Returns (span summary, profile summary, traced pass, problems)."""
    if not workload.in_process:
        state = workload.build(seed)
        spans = workload.run_pass(state, "spans")
        prof = workload.run_pass(state, "profile")
        return spans.trace, prof.trace, spans, spans.wrong + prof.wrong
    tracer = SpanTracer()
    tracer.install()
    try:
        spans = workload.run_pass(workload.build(seed))
    finally:
        tracer.uninstall()
    tracer.dump(OUT_DIR / f"trace-{workload.name}-seed{seed}.spans.json")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        prof = workload.run_pass(workload.build(seed))
    finally:
        profiler.disable()
    return tracer.summary(), profile_summary(profiler), spans, spans.wrong + prof.wrong


def per_layer(workload, passes, import_s, span_sum, prof_sum, traced) -> dict:
    calls, seconds = span_sum.get("calls", {}), span_sum.get("seconds", {})
    counters = span_sum.get("counters", {})
    kernels, self_s = prof_sum.get("kernels", {}), prof_sum.get("self_s", {})
    attempted = sum(p.attempted for p in passes)
    # one traced pass against the median single untraced pass
    untraced = statistics.median(pass_wall(workload, [p]) for p in passes)
    spolys = counters.get("ideals.spolys", 0)
    useful = counters.get("ideals.reductions", 0) - counters.get(
        "ideals.zero_reductions", 0)
    values = {
        **{m: calls.get(s, 0) for m, s in SPAN_CALLS.items()},
        **{m: seconds.get(s, 0.0) for m, s in SPAN_SECONDS.items()},
        **{m: kernels.get(m, 0) for m in KERNEL_CALLS},
        **{f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS},
        **{m: counters.get(m, 0) for m in COUNTERS},
        "ideals.useful_reduction_ratio": useful / spolys if spolys else 0.0,
        "cli.import_s": import_s,
        "failed_frac": sum(p.failed for p in passes) / attempted,
        "unknown_frac": sum(p.unknown for p in passes) / attempted,
        "trace.overhead_frac": pass_wall(workload, [traced]) / untraced - 1,
    }
    idle = [m for m in MAIN_WORK[workload.name] if not values[m]]
    if idle:
        sys.exit(f"{workload.name}: layers record no work where they should do "
                 f"the most: {idle}")
    return {m: {"value": values[m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    setup = SetupTimer(name, seed)
    state = workload.build(seed)
    setup.sample()
    passes = timed_passes(workload, state, seconds, setup.sample)
    while len(setup.walls) < SETUP_RUNS:
        setup.sample()
    setup_s, import_s = map(statistics.median, (setup.walls, setup.imports))
    e2e = end_to_end(workload, passes, setup_s)  # peak RSS before the checks
    problems = [w for p in passes for w in p.wrong] + workload.check(state)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# {name}  seed={seed}  passes={len(passes)}  distinct tasks="
          f"{len(fastest_tasks(passes)[0])}")
    for metric, m in e2e.items():
        print(f"{metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<40} {failed / attempted:>14.6g} ratio")
    print(f"{'unknown_frac':<40} "
          f"{sum(p.unknown for p in passes) / attempted:>14.6g} ratio")
    if state.get("reference"):
        print(f"reference (ungated): {state['reference']}")
    metrics = e2e
    if trace:
        span_sum, prof_sum, traced, traced_problems = traced_passes(workload, seed)
        problems += traced_problems
        metrics = per_layer(workload, passes, import_s, span_sum, prof_sum, traced)
        for metric, m in metrics.items():
            print(f"{metric:<40} {m['value']:>14.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_child(name, seed, seconds, trace):
    """Run one workload in a fresh interpreter; its stdout and last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        sys.exit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def run_all(seed, seconds, trace) -> int:
    results = {}
    for name in WORKLOADS:
        lines, results[name] = run_child(name, seed, seconds, trace)
        print("\n".join(lines))
        print(f"correct={results[name]['correct']}  attempted="
              f"{results[name]['attempted']}  failed={results[name]['failed']}\n")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def check_repeat(names, seed) -> int:
    """Two traced runs per workload with one seed must give identical counts."""
    status = 0
    for name in names:
        a, b = (run_child(name, seed, 1, True)[1]["metrics"] for _ in range(2))
        diff = {m: (a[m]["value"], b[m]["value"]) for m in REPEAT
                if a[m]["value"] != b[m]["value"]}
        print(f"{name}: {'counts repeat' if not diff else f'counts differ: {diff}'}")
        status |= bool(diff)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "affmod" / "__init__.py").is_file():
        sys.exit(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.check_repeat:
        return check_repeat(names, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
