"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUTDIR

Imports meanreduce, loads the workload's suites and builds every runner or
hull problem (compiling expressions and running the sampled axiom checks).
The reference loop of :mod:`calibrate` runs throughout, as in a benchmark
run, so that the set-up time can be rescaled to reference speed.  Prints
``{"import_s", "build_s", "setup_s", "ref_import_s", "ref_build_s",
"ref_setup_s"}`` as its last line: wall times less the loops, and the same at
reference speed.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    t0 = time.perf_counter()
    import calibrate  # imports numpy, which meanreduce imports first

    with calibrate.SpeedMonitor() as monitor:
        # numpy's import and the monitor's first loop count as import time.
        lead_s = time.perf_counter() - t0
        token = monitor.start()
        import meanreduce  # noqa: F401
        import meanreduce.cli  # noqa: F401
        import meanreduce.suites  # noqa: F401

        imported = monitor.stop(token)
        import workloads

        # Writing the generated suite file is input generation, not set-up.
        bench = workloads.make(workload, seed, outdir)
        token = monitor.start()
        bench.build()
        built = monitor.stop(token)
        time.sleep(3 * monitor.interval)  # the loops after the build
    import_s = lead_s + imported.own_s
    ref_import_s = import_s * calibrate.REFERENCE_LOOP_S / monitor.loop_time(imported)
    ref_build_s = monitor.at_reference_speed(built)
    print(json.dumps({"import_s": import_s, "build_s": built.own_s,
                      "setup_s": import_s + built.own_s, "ref_import_s": ref_import_s,
                      "ref_build_s": ref_build_s, "ref_setup_s": ref_import_s + ref_build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
