"""Time semflow's set-up in a fresh process and print it as JSON.

Usage: python perfbench/probe.py CONFIG COMMAND SEED [--provenance]

Set-up is what a CLI run does before its first solve: importing semflow,
``cli.load_config``, ``cli.build_system``, then ``cli.build_initial`` for
``simulate`` or ``cli.build_probes`` (after ``neutral.build_perturbation`` for
a neutral system) otherwise.  ``--provenance`` adds library versions and the
BLAS thread count, gathered after the timed part.
"""

import ctypes
import json
import os
import platform
import sys
import time


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def provenance():
    import numpy
    import scipy
    import semflow

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "semflow": semflow.__version__,
            "numba_enabled": bool(semflow.NUMBA_ENABLED),
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


def main(argv):
    config, command, seed = argv[0], argv[1], int(argv[2])
    t0 = time.perf_counter()
    from semflow import cli, neutral

    cfg = cli.load_config(config)
    cfg["seed"] = seed
    target = cli.build_system(cfg)
    if command == "simulate":
        cli.build_initial(cfg, target)
    else:
        if isinstance(target, neutral.NeutralSystem):
            neutral.build_perturbation(target)
        cli.build_probes(cfg, target, seed)
    result = {"setup_s": time.perf_counter() - t0}
    if "--provenance" in argv:
        result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
