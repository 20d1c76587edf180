"""Child process of the benchmark: one fresh interpreter per use.

    python3 benchmarks/child.py setup  OUT WORKLOAD SEED
    python3 benchmarks/child.py spans  OUT -- AFFMOD_ARGS...
    python3 benchmarks/child.py profile OUT -- AFFMOD_ARGS...

``setup`` imports the command-line module and builds a workload's inputs from
the seed, as a fresh process must before its first pass, and writes the time
the import took to OUT as ``import_s``.  ``spans`` and ``profile`` run the
``affmod`` command with AFFMOD_ARGS under the span tracer or cProfile and
write the trace summary to OUT.
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def main(argv) -> int:
    mode, out = argv[0], Path(argv[1])
    t0 = time.perf_counter()
    import affmod.cli

    import_s = time.perf_counter() - t0
    import json

    if mode == "setup":
        from workloads import WORKLOADS

        WORKLOADS[argv[2]].build(int(argv[3]))
        out.write_text(json.dumps({"import_s": import_s}))
        return 0

    import cProfile
    import traceback

    from tracing import SpanTracer, merge_summaries, profile_summary

    cli_args = argv[argv.index("--") + 1:]
    result = {}
    tracer = SpanTracer() if mode == "spans" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    if tracer:
        tracer.install()
    else:
        profiler.enable()
    try:
        code = affmod.cli.run(cli_args)
    except Exception:
        traceback.print_exc()  # what the interpreter prints for `affmod`
        code = 1
    finally:
        if tracer:
            tracer.uninstall()
            merge_summaries(result, tracer.summary())
            tracer.dump(out.with_suffix(".spans.json"))
        else:
            profiler.disable()
            merge_summaries(result, profile_summary(profiler))
        out.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
