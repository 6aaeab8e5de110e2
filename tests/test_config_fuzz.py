"""Config fuzz: the four benchmark workloads' configs, shrunk as the route
guard shrinks them, with one or two values replaced from a fixed set of
awkward ones, run through ``cli.main`` in process.  Every run must end in
exit 0, 1 or 2 with at most one line on stderr, and no exception may leave
``cli.main``: ``load_config`` refuses a malformed key, and only semflow's
own errors map to an exit code.

The keys that set how large a run is (the grid, ``system.L``,
``system.history_steps``, the counts, ``asymptotics.n_synthetic`` and
``admissibility.horizon``) are left out: a finite but huge value there
asks for more memory or time than a test may take, and no up-front check
refuses it yet."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semflow.cli import main
from test_route_guard import workload

RUNS = [
    ("admissibility", workload("matrix-admissibility", 0.1)),
    ("simulate", workload("translation-simulate", 0.2)),
    ("admissibility", workload("neutral-admissibility", 0.25)),
    ("asymptotics", workload("scalar-asymptotics", 10.0,
                             asymptotics={"tail_window": 2.5, "n_synthetic": 8})),
]
SIZES = {"grid.step", "grid.horizon", "system.L", "system.history_steps", "probes.count",
         "signals.count", "asymptotics.n_synthetic", "admissibility.horizon"}
VALUES = [0, -1, 1e-300, 1e300, 2 ** 63, float("inf"), float("-inf"), float("nan"),
          True, False, None, "x", "values", "identity", "neumann", [], [0.5],
          [[1.0, 2.0], [3.0]], {}]


def paths(value, path=()):
    """The path of every key and list entry under ``value``, outside SIZES."""
    if ".".join(map(str, path[:2])) in SIZES:
        return
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from paths(item, (*path, key))


@st.composite
def mutated(draw):
    """A run's command and its config with one or two values replaced."""
    command, base = draw(st.sampled_from(RUNS))
    cfg = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(paths(cfg))))
        here = cfg
        for key in parents:
            here = here[key]
        here[last] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return command, cfg


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=mutated())
def test_a_mutated_workload_config_exits_0_1_or_2_in_at_most_one_line(run):
    command, cfg = run
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "cfg.json"
        # json.dumps writes inf and nan as the bare tokens that load_config refuses
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(root) / "out")])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()
