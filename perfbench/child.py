"""One cold benchmark process: import qlg2, build a Context, run one job.

Usage: python3 child.py SPEC_JSON OUT_DIR

SPEC_JSON is a job from `workloads.child_spec` plus an optional `"trace":
true`; kind "setup" only imports and exits.  The process writes
OUT_DIR/result.json with CLOCK_MONOTONIC stamps `t_ready` (qlg2 imported,
Context built) and `t_done` (verdict written), and the outputs: the JSON
report (checks) or the CSV table and printed summary (spectrum).  A traced
job also writes the layer metrics and OUT_DIR/spans.bin.

The process measures the host's speed (see `SpeedProbe`) while it imports
qlg2 and builds the Context, and again while the job runs, because
the speed of a shared host drifts by tens of percent within minutes and the
same cold job slows with it.
"""

import contextlib
import json
import os
import signal
import statistics
import sys
import time
from fractions import Fraction


def _probe():
    """Fixed Fraction arithmetic: small big-int gcds and short-lived objects,
    like qlg2's Scalar arithmetic, in a working set of a few kilobytes so
    that the program's own memory use does not slow it."""
    a = Fraction(0)
    for i in range(1, 400):
        a += Fraction(i, i + 7)
    return a


# The probe's typical duration on an idle 2-vCPU Xeon guest; it only sets the
# scale of the normalised time.
PROBE_NOMINAL_S = 1.1e-3
PROBE_PERIOD_S = 0.1


class SpeedProbe:
    """Times `_probe` at `start`, every PROBE_PERIOD_S (SIGALRM) and at `stop`.

    The speed factor in `report()` is the probe's mean duration over its
    nominal duration: 1.0 on an idle host, 1.5 when the host ran the probe
    50% slower.  A measured time divided by the factor is its normalised
    time.  The probe runs in the measured process and thread, so its time is
    subtracted from the measured time first.  Of the probes tried (interpreter loops, big-int multiply/divide,
    random reads of a large list, dict and tuple churn, polynomial gcds over
    Fractions), this one tracked the cold jobs' drift most closely.  It is
    not exact: on a slow host spectrum-60 slows about 1.3 times as steeply
    (in log terms) as the probe, so part of the drift stays in its numbers.
    """

    def __init__(self):
        self.samples = []

    def sample(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def report(self):
        return {"probe_s": sum(self.samples), "samples": len(self.samples),
                "speed_factor":
                    statistics.fmean(self.samples) / PROBE_NOMINAL_S}


def _run_job(spec, out_dir, cli, ctx):
    if spec["kind"] == "checks":
        from qlg2.checks import run_suite

        results = run_suite(spec["checks"], ctx)
        text = cli._render_json(results, ctx, False)
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return None
    v_num, v_den = spec["v"]
    argv = ["spectrum", "--v-num", str(v_num), "--v-den", str(v_den),
            "--shell-max", str(spec["shell_max"]),
            "--csv", os.path.join(out_dir, "table.csv")]
    with open(os.path.join(out_dir, "stdout.txt"), "w",
              encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        return cli.main(argv)


def _trace_metrics(tracer):
    spans = tracer.summary()
    counters = tracer.counters

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {}
    for name, fields in (
            ("pbw.levi_right_split", ("calls", "s", "self_s")),
            ("pbw.AlgebraElement.mul", ("calls", "self_s")),
            ("pbw.normal_form", ("calls", "s")),
            ("parthasarathy.reduce_to_M", ("calls", "self_s")),
            ("parthasarathy.casimir_in_M", ("calls", "s")),
            ("rmatrix.casimir_eigenvalue", ("calls", "s")),
            ("rmatrix.TruncatedRMatrix.build", ("s",)),
            ("rmatrix.quantum_trace_pairing", ("s",)),
            ("modules.ModuleOperator.matmul", ("calls", "s")),
            ("modules.ExteriorModule.rho", ("calls", "s")),
            ("linalg.mmul", ("calls", "s")),
            ("linalg.nullspace", ("calls", "s")),
            ("checks.run_check", ("calls", "self_s")),
            ("cli.main", ("self_s",))):
        for field in fields:
            out[f"{name}.{field}"] = span(name, field)
    for key in ("pbw.levi_right_split.out_terms",
                "pbw.AlgebraElement.mul.out_terms",
                "parthasarathy.reduce_to_M.terms"):
        out[key] = counters.get(key, 0)
    lookups = counters.get("parthasarathy.split_cache.lookups", 0)
    hits = counters.get("parthasarathy.split_cache.hits", 0)
    out["parthasarathy.split_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for stage in ("rmat", "casimir", "casimir_m"):
        out[f"checks.stage.{stage}_s"] = span(f"checks.stage.{stage}",
                                              "excl_stage_s")
    for check_id in ("prop-casimir-clifford", "eq-comm-rel-uqg",
                     "thm-spectral-triple"):
        out[f"checks.check.{check_id}.s"] = span(f"checks.check.{check_id}",
                                                 "excl_stage_s")
    for metric in ("scalar.Scalar.mul", "scalar.Scalar.add",
                   "scalar.Scalar.div", "scalar.Scalar.evaluate",
                   "scalar.KScalar.mul"):
        out[f"{metric}.calls"] = tracer.scalar_calls.get(metric, 0)
    out["scalar.s"] = tracer.scalar_s
    out["scalar.Scalar.mul.repeat_ratio"] = (
        tracer.pair_repeats / tracer.pair_calls if tracer.pair_calls else 0.0)
    out.update(tracer.cache_sizes())
    out["trace.spans"] = len(tracer.name)
    return out


def main():
    spec = json.loads(sys.argv[1])
    out_dir = sys.argv[2]
    setup_probe = SpeedProbe()
    setup_probe.start()
    from qlg2 import cli
    from qlg2.checks import Context

    ctx = Context(seed=spec["seed"])
    setup_probe.stop()
    result = {"t_ready": time.monotonic(), "qlg2_file": cli.__file__,
              "setup_probe": setup_probe.report()}
    if spec["kind"] != "setup":
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer, leftover_wrappers

            tracer = Tracer().install()
        probe = SpeedProbe()
        probe.start()
        try:
            result["exit_code"] = _run_job(spec, out_dir, cli, ctx)
        finally:
            probe.stop()
            result["t_done"] = time.monotonic()
            if tracer is not None:
                tracer.uninstall()
        result["job_probe"] = probe.report()
        if tracer is not None:
            result["leftover_wrappers"] = leftover_wrappers()
            result["layers"] = _trace_metrics(tracer)
            tracer.write_spans(os.path.join(out_dir, "spans.bin"))
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
