"""Run one semflow CLI command in this process with spans at the package's
public boundaries, then write the spans and counts to a JSON file.

Usage: python perfbench/traced.py TRACE_OUT RUN_ID semflow-args...

The wrappers live here, not in the package: each one is installed under every
name a caller looks the function up by (``cli`` and ``asymptotics`` import
``perturbed_orbit`` and ``orbit`` by name, ``admissibility`` imports
``invert_io``, ``observation_map`` and ``estimate_io_norm`` by name), so a
call is traced whichever module makes it.  Spans are kept in memory and
written once, when the command returns.
"""

import functools
import json
import os
import sys
import time

# module -> {public function: the per-layer time metric its self time adds to}.
# A function's span is named "<layer>.<function>", the layer being the module
# name without the package prefix or underscore.
SPANNED = {
    "cli": {"load_config": "cli.build_s", "build_system": "cli.build_s",
            "build_initial": "cli.build_s", "build_probes": "cli.build_s",
            "write_csv": "cli.write_s", "write_json": "cli.write_s"},
    "maps": {"observation_map": "maps.observe_s", "invert_io": "maps.solve_s",
             "estimate_io_norm": "maps.io_norm_s", "perturbed_orbit": "maps.orbit_s"},
    "_kernels": {"matrix_volterra_apply": "kernels.matrix_apply_s",
                 "matrix_volterra_solve": "kernels.matrix_solve_s",
                 "delay_volterra_apply": None,
                 "delay_volterra_solve": "kernels.delay_solve_s",
                 "neutral_volterra_apply": "kernels.neutral_apply_s"},
    "semigroups": {"orbit": "semigroups.orbit_s"},
    "admissibility": {"estimate_constants": "admissibility.estimate_s",
                      "check_miyadera_voigt": "admissibility.mv_s"},
    "asymptotics": {"robustness_experiment": "asymptotics.robustness_s",
                    "biinvariance_harness": "asymptotics.harness_s",
                    "cesaro_residual_track": "asymptotics.cesaro_track_s",
                    "check_bounded": "asymptotics.checker_s",
                    "check_strongly_stable": "asymptotics.checker_s",
                    "check_weakly_stable": "asymptotics.checker_s",
                    "check_mean_ergodic": "asymptotics.checker_s",
                    "check_uniformly_ergodic": "asymptotics.checker_s"},
    "neutral": {"build_perturbation": "neutral.build_s"},
}
OBSERVATION_ROW = "translation.observation_row"


def span_name(module, function):
    return f"{module.lstrip('_')}.{function}"


# span name -> per-layer time metric (None: traced for io_applies only)
METRIC_OF = {span_name(m, f): metric for m, fns in SPANNED.items()
             for f, metric in fns.items()}
METRIC_OF[OBSERVATION_ROW] = "translation.observation_row_s"
# F applications: kernel applies made inside these spans count as maps.io_applies
IO_SPANS = {span_name("maps", f) for f in ("invert_io", "estimate_io_norm")}
APPLY_SPANS = {span_name("_kernels", f) for f in SPANNED["_kernels"]
               if f.endswith("_apply")}


class Tracer:
    """Spans as [name, start, end, parent index] plus named counts."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.open = []
        self.counts = {}

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, tally=None):
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_.pop()
            if tally is not None:
                tally(args)
            return result

        return traced

    def counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path):
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                  "run": self.run_id}
                 for i, (n, s, e, p) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": spans, "counts": self.counts}, fh)


def _rebind(original, wrapper):
    """Replace ``original`` under every name any semflow module binds it to."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("semflow"):
            continue
        names = [k for k, v in vars(mod).items() if v is original]
        for k in names:
            setattr(mod, k, wrapper)


def install(tracer):
    from semflow import core, translation

    def rows(args):  # (E, B, C, u, h): one row per time step
        return args[3].shape[0]

    tallies = {
        "write_csv": lambda a: (tracer.add("cli.bytes_written", os.path.getsize(a[0])),
                                tracer.add("cli.csv_values",
                                           len(a[2]) * (len(a[2][0]) if a[2] else 0))),
        "write_json": lambda a: tracer.add("cli.bytes_written", os.path.getsize(a[0])),
        "matrix_volterra_apply": lambda a: tracer.add("kernels.matrix_apply_rows", rows(a)),
        "matrix_volterra_solve": lambda a: tracer.add("kernels.matrix_solve_rows", rows(a)),
    }
    for module, names in SPANNED.items():
        mod = sys.modules[f"semflow.{module}"]
        for name in names:
            fn = getattr(mod, name)
            _rebind(fn, tracer.span(span_name(module, name), fn, tallies.get(name)))
    spec = translation.MeasureSpec
    spec.observation_row = tracer.span(OBSERVATION_ROW, spec.observation_row)
    for cls in (core.Space, core.SupSpace, core.L1Space, core.ProductSpace):
        cls.norm = tracer.counter("core.norm_calls", cls.__dict__["norm"])
    _rebind(core.matexp, tracer.counter("core.matexp_calls", core.matexp))


def main(argv):
    trace_out, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    from semflow import cli

    install(tracer)
    code = cli.main(cli_args)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
