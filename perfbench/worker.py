"""Run one workload's operations in a fresh process and report them as JSON.

Started by ``run.py``; not meant to be run by hand. Usage:

    python3 perfbench/worker.py SRC_DIR REQUEST_JSON

REQUEST_JSON names the workload, its inputs (seed, sizes, file paths), the
number of operations in a round, the number of seconds to measure and
whether to trace. The worker repeats whole rounds until that many seconds
have passed (at least one round), and prints one JSON line: the wall time of
each operation, its peak RSS, the outputs of the last round for ``run.py`` to
check, a digest of every round's outputs, and with tracing on, the per-layer
figures of each operation.

Tracing wraps the package's public functions from outside (module attributes,
the two law objects and the loss objects); nothing in ``spsa_dist`` changes.
Every layer figure is a self time: the span's duration minus the part its
wrapped children cover, so the figures of one operation add up to its traced
wall time less the benchmark's own share (reported as ``bench.op``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

K_MAX_SCALAR = 1000


class Tracer:
    """In-memory span aggregator: calls, self time and work items per span
    name, and calls per (caller, callee) edge.

    The wrappers close over their name's counters and the shared stack, so
    a traced call costs a few dictionary and list operations.
    """

    def __init__(self):
        self.stats = {}  # name -> [calls, self_ns, items]
        self.edges = {}  # (caller, callee) -> calls
        self._stack = []

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.edges.clear()
        self._stack.clear()

    def stat(self, name):
        return self.stats.get(name, (0, 0, 0))

    def wrap(self, name, fn, items=None):
        """Return ``fn`` recording a span ``name``; ``items(result)`` counts work."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if stack:
                    caller = stack[-1]
                    caller[1] += elapsed
                    edge = (caller[0], name)
                    edges[edge] = edges.get(edge, 0) + 1
            if items is not None:
                stat[2] += items(return_value)
            return return_value

        return traced


def _loss_points(values):
    return max(1, int(getattr(values, "size", 1)))


def install_tracer(tracer: Tracer, losses) -> None:
    """Wrap each layer's public entry points so calls into them are timed."""
    import spsa_dist
    from spsa_dist import cli, core, experiments, perturbations, streams, theory

    def patch(owner, attr, name, items=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), items))

    patch(streams, "uniform_block", "streams.uniform_block", lambda u: int(u.size))
    patch(experiments, "standard_normal_from_uniform", "core.noise")
    patch(core, "standard_normal_from_uniform", "core.noise")
    for law in (perturbations.BERNOULLI, perturbations.SEGMENTED_UNIFORM):
        patch(law, "deltas_from_uniforms", "perturbations.deltas")
        patch(law, "sample_array", "perturbations.sample_array")
    for loss in losses:
        # LossFunction is a frozen dataclass; the registry hands out this object
        object.__setattr__(
            loss, "evaluator", tracer.wrap("core.loss", loss.evaluator, _loss_points)
        )
    patch(core, "sp_gradient", "core.sp_gradient")
    patch(spsa_dist, "spsa_run", "core.spsa_run")
    patch(experiments, "paired_t_test", "experiments.paired_t_test")
    patch(cli, "run_experiment", "experiments.run_experiment")
    patch(cli, "write_csv", "experiments.write_csv")
    patch(theory, "condition_input_from_problem", "theory")
    patch(theory, "evaluate_condition", "theory")
    patch(cli, "main", "cli.main")


def layer_figures(tracer: Tracer, retained_mb: float) -> dict:
    """Per-layer metrics of one traced operation (times in ms)."""

    def ms(name):
        return tracer.stat(name)[1] / 1e6

    def ns_per(name):
        _, self_ns, items = tracer.stat(name)
        return self_ns / items if items else 0.0

    return {
        "streams.block_calls": tracer.stat("streams.uniform_block")[0],
        "streams.block_ms": ms("streams.uniform_block"),
        "streams.ns_per_word": ns_per("streams.uniform_block"),
        "perturbations.deltas_ms": ms("perturbations.deltas"),
        "perturbations.sample_ms": ms("perturbations.sample_array"),
        "core.noise_ms": ms("core.noise"),
        "core.loss_ms": ms("core.loss"),
        "core.loss_ns_per_point": ns_per("core.loss"),
        "core.sp_gradient_ms": ms("core.sp_gradient"),
        "core.spsa_run_self_ms": ms("core.spsa_run"),
        "experiments.step_self_ms": ms("experiments.run_experiment"),
        "experiments.t_test_ms": ms("experiments.paired_t_test"),
        "experiments.retained_mb": retained_mb,
        "experiments.csv_ms": ms("experiments.write_csv"),
        "theory.ms": ms("theory"),
        "cli.self_ms": ms("cli.main"),
    }


def _cli_operation(argv, csv_path):
    from spsa_dist import cli

    def operation(part):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"spsa-dist {' '.join(argv)} exited with {code}")
        return Path(csv_path).read_text(encoding="utf-8")

    return operation


def _scalar_operation(seed: int, runs_per_part: int):
    import numpy as np

    import spsa_dist as sd
    from spsa_dist.config import bundled_config_text, parse_config

    spec = parse_config(bundled_config_text("quadratic"), source="quadratic").experiment
    laws = (
        ("bernoulli", sd.BERNOULLI, spec.schedule_bern),
        ("segmented_uniform", sd.SEGMENTED_UNIFORM, spec.schedule_su),
    )

    def operation(part):
        out = {}
        for index, (name, dist, schedule) in enumerate(laws):
            finals, evals, diverged = [], [], []
            for run in range(part * runs_per_part, (part + 1) * runs_per_part):
                rng = np.random.default_rng((seed, index, run))
                result = sd.spsa_run(spec.problem, schedule, dist, K_MAX_SCALAR, rng)
                finals.append([float(v) for v in result.trajectory[-1]])
                evals.append(result.n_loss_evals)
                diverged.append(bool(result.diverged))
            out[name] = {"final_theta": finals, "n_loss_evals": evals, "diverged": diverged}
        return json.dumps(out, sort_keys=True) + "\n"

    return operation


def main(argv) -> int:
    src_dir, request_text = argv
    request = json.loads(request_text)
    sys.path.insert(0, src_dir)
    import spsa_dist
    from spsa_dist import core

    package_dir = Path(spsa_dist.__file__).resolve().parent
    if Path(src_dir).resolve() not in package_dir.parents:
        print(f"spsa_dist imported from {package_dir}, not from {src_dir}", file=sys.stderr)
        return 2

    if request["workload"] == "scalar_runs":
        operation = _scalar_operation(request["seed"], request["runs_per_part"])
    else:
        operation = _cli_operation(request["argv"], request["csv"])

    tracer = None
    if request["trace"]:
        tracer = Tracer()
        install_tracer(tracer, [core.get_loss(name) for name in core.registered_losses()])
        operation = tracer.wrap("bench.op", operation)

    # A round is the workload's fixed set of operations (its inputs); the run
    # repeats whole rounds, so every run attempts the same operations.
    times, digests, layers, traced_ns = [], [], [], []
    attempted = failed = 0
    output = None
    began = time.perf_counter()
    while attempted == 0 or time.perf_counter() - began < request["seconds"]:
        parts = []
        for part in range(request["parts"]):
            attempted += 1
            if tracer is not None:
                tracer.reset()
            start = time.perf_counter()
            try:
                parts.append(operation(part))
            except Exception:
                # a failed operation is counted; the run goes on with the next
                traceback.print_exc()
                failed += 1
                continue
            finally:
                times.append(time.perf_counter() - start)
            if tracer is not None:
                layers.append(layer_figures(tracer, request["retained_mb"]))
                traced_ns.append(
                    {
                        "op_ns": sum(stat[1] for stat in tracer.stats.values()),
                        "bench_self_ns": tracer.stat("bench.op")[1],
                    }
                )
        output = "".join(parts)
        digests.append(hashlib.sha256(output.encode()).hexdigest())

    report = {
        "attempted": attempted,
        "failed": failed,
        "op_seconds": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "output": output,
        "layers": layers,
        "traced": traced_ns,
    }
    if tracer is not None:
        report["call_edges"] = [[a, b, n] for (a, b), n in sorted(tracer.edges.items())]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
