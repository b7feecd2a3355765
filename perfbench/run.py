"""Repository benchmark: one command, three workloads, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune-blackbox --seed 1 --seconds 10 --trace 0

Workloads: ``tune-blackbox`` and ``tune-whitebox`` (simulator-only tuning
sessions, see ``tune.py``) and ``spark-jobs`` (the real PySpark jobs, see
``sparkjobs.py``). A run sets up (imports, caches, Spark start and
warm-up), then repeats identical timed passes over the inputs made from
``--seed`` until their timed spans add up to ``--seconds``; a pass is
never cut short. Every pass is checked outside its timed span. The tune
workloads then set up again in fresh processes, and ``setup_s`` is the
median of all set-ups.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced pass and then two traced passes, so
per-pass counts can be compared (one, if a second would run past
``RUN_BUDGET_S``), and reports the per-layer metrics; tracing wraps the program's public functions from outside (see
``tracer.py`` and ``layers.py``). The human-readable report comes first;
the last line of standard output is the JSON result.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tune-blackbox", "tune-whitebox", "spark-jobs")
#: Counts that must repeat exactly in every traced pass.
EQUAL_COUNTS_SUFFIX = ".calls"
SIM_METRICS = ("train_sim_pct", "probes_per_session", "rec_gap_pct", "unsafe_recs", "profile_runs")
#: One BLAS thread: the GP's matrices are at most 64 x 816, where extra
#: threads only spin (on a 4-core host they tripled CPU time and slowed
#: tune-blackbox by 15%) and add noise from other tenants of the host.
BLAS_THREADS = "1"
#: A traced run skips its second traced pass rather than run past this.
RUN_BUDGET_S = 150.0
#: Seconds one repeated set-up may take.
SETUP_RERUN_TIMEOUT_S = 60.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {\"setup_s\": ...} and exit (used for the repeated set-ups)")
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def _load_workload(name: str, seed: int):
    """Import the workload (and through it the program) and build it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    if name == "spark-jobs":
        import sparkjobs

        return sparkjobs.SparkJobs(seed, ROOT / ".bench_build" / "perfbench")
    import tune

    return (tune.TuneBlackbox if name == "tune-blackbox" else tune.TuneWhitebox)(seed)


def _timed_pass(wl, traced: bool, meter, clock):
    t0, spent0 = clock(), meter.spent_s
    res = wl.run_pass(traced, meter)
    res.wall_s = clock() - t0 - (meter.spent_s - spent0)
    meter.flush()
    return res


def _one_pass(wl, traced: bool, meter, tracer, inst, layers, clock):
    if not traced:
        res = _timed_pass(wl, False, meter, clock)
        wl.finish(res)
        return res
    with inst.installed():
        root = tracer.open(tracer.name_id("pass"))
        res = _timed_pass(wl, True, meter, clock)
        tracer.close(root)
        check = tracer.open(tracer.name_id("check"))
        wl.finish(res)
        tracer.close(check)
    res.traced = True
    res.layers.update(layers.pass_metrics(tracer.frame(root), tracer.frame(check)))
    return res


def _setup_rerun(args) -> float:
    """``setup_s`` of a set-up in a fresh process, which is waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_RERUN_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _fail_pass(res, why: str) -> None:
    for op in res.ops:
        if not op.failed:
            op.failed, op.error = True, why


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    wl = _load_workload(args.workload, args.seed)
    import numpy as np

    import layers
    from harness import Meter, clock, host_facts, pct
    from tracer import Instrumentation, Tracer

    import_s = clock() - _T0
    try:
        setup = wl.setup()
        setup_s = import_s + sum(setup.values())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer()
        inst = Instrumentation(tracer)
        layers.instrument(inst)
        meter = Meter()
        passes = []
        while True:  # until the timed passes (checks excluded) fill --seconds
            traced = bool(args.trace) and len(passes) > 0
            passes.append(_one_pass(wl, traced, meter, tracer, inst, layers, clock))
            if sum(p.wall_s for p in passes) < args.seconds:
                continue
            n_traced = sum(p.traced for p in passes)
            out_of_time = clock() - _T0 + 1.5 * passes[-1].wall_s > RUN_BUDGET_S
            if not args.trace or n_traced >= 2 or (n_traced and out_of_time):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sim = wl.sim_metrics(passes[0])
    finally:
        wl.close()
    # The set-up is repeated in fresh processes, once the passes are done,
    # so that a one-off stall of the host does not set setup_s (which only
    # the untraced run reports).
    setup_runs = [setup_s] + [_setup_rerun(args) for _ in range(0 if args.trace else wl.setup_runs - 1)]
    setup_s = float(np.median(setup_runs))

    # Every pass must reproduce the first one exactly, traced or not.
    problems = []
    for i, res in enumerate(passes):
        if res.digest != passes[0].digest:
            problems.append(f"pass {i} digest {res.digest} != pass 0 digest {passes[0].digest}")
            _fail_pass(res, "digest differs from pass 0")
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    for res in traced:
        for key, val in res.layers.items():
            if key.endswith(EQUAL_COUNTS_SUFFIX) and val != traced[0].layers[key]:
                problems.append(f"{key} = {val} in one traced pass, {traced[0].layers[key]} in another")
                _fail_pass(res, f"{key} differs between traced passes")
        probes = wl.expected_probes(res)
        if probes is not None and res.layers["tuners.objective.calls"] != probes:
            problems.append(f"traced pass made {res.layers['tuners.objective.calls']} objective "
                            f"calls for {probes} recorded probes")
            _fail_pass(res, "objective calls do not match the recorded probes")

    ops = [op for p in passes for op in p.ops]
    attempted, failed = len(ops), sum(op.failed for op in ops)
    op_ms = [op.ms for p in untraced for op in p.ops]
    steps = [(op, n) for p in untraced for op, n in wl.steps(p)]
    step_ms = [op.ms / n for op, n in steps]
    step_cost = [op.ms / op.ref_ms / n for op, n in steps]
    wall_s = float(np.median([p.wall_s for p in untraced]))
    kernel_ms = 1e3 * float(np.median(meter.kernel_s))
    e2e = {
        "setup_s": setup_s,
        "step_cost.mean": float(np.mean(step_cost)),
        "peak_rss_mb": peak_rss_mb,
    }

    # ---- human-readable report -------------------------------------------------
    facts = host_facts({"blas_threads": int(BLAS_THREADS), **getattr(wl, "facts", dict)()})
    print(f"# host {json.dumps(facts)}")
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {len(untraced)} untraced and "
          f"{len(traced)} traced pass(es), {len(passes[0].ops)} {wl.op_kind}s per pass")
    print(f"# set-up: import_s={import_s:.3f} " + " ".join(f"{k}={v:.3f}" for k, v in setup.items())
          + " runs_s=" + ",".join(f"{v:.3f}" for v in setup_runs))
    for i, p in enumerate(passes):
        print(f"# pass {i}: traced={int(p.traced)} wall_s={p.wall_s:.3f} digest={p.digest} "
              f"failed={p.failed}")
    tune_wl = wl.op_kind == "session"
    report = [
        ("setup_s", setup_s, "s", "host"),
        ("wall_s", wall_s, "s", "host"),
        ("session_ms.p50", pct(op_ms, 50) if tune_wl else None, "ms", "host"),
        ("session_ms.p90", pct(op_ms, 90) if tune_wl else None, "ms", "host"),
        ("job_ms.p50", None if tune_wl else pct(op_ms, 50), "ms", "host"),
        (f"step_ms.mean (n={len(step_ms)})", float(np.mean(step_ms)), "ms", "host"),
        (f"ref.kernel_ms (n={len(meter.kernel_s)})", kernel_ms, "ms", "host"),
        ("step_cost.mean", e2e["step_cost.mean"], "ref", "host"),
        ("peak_rss_mb", peak_rss_mb, "MB", "host"),
        ("failed_share", failed / attempted, "ratio", "count"),
    ] + [(k, sim.get(k), "%" if k.endswith("pct") else "count", "sim") for k in SIM_METRICS]
    print(f"# {'metric':<20} {'value':>14} {'unit':<6} label   ({len(op_ms)} {wl.op_kind} samples)")
    for name, val, unit, label in report:
        shown = "n/a" if val is None else f"{val:.4f}"
        print(f"# {name:<20} {shown:>14} {unit:<6} {label}")
    if sim.get("unsafe_recs"):
        print(f"# FINDING: {sim['unsafe_recs']:.0f} recommendation(s) abort or fail a container "
              "in the simulator")
    for why in problems:
        print(f"# CHECK FAILED: {why}", file=sys.stderr)
    for op in [op for op in ops if op.failed][:20]:
        print(f"# FAILED {op.label}: {op.error}", file=sys.stderr)

    # ---- result -------------------------------------------------------------------
    if args.trace:
        values = {
            "trace.overhead_s": float(np.median([p.wall_s for p in traced])) - wall_s,
            "pass.wall_s": wall_s,
            "step_ms.mean": float(np.mean(step_ms)),
            "ref.kernel_ms": kernel_ms,
            "op_ms.p90": pct(op_ms, 90),
            "spark.session_start_s": setup.get("spark.session_start_s", 0.0),
            **{f"sim.{k}": sim.get(k, 0.0) for k in SIM_METRICS},
        }
        # Spark job groups exist only on spark-jobs; elsewhere they read 0.
        values.update({m["name"]: 0.0 for m in spec["per_layer"]
                       if m["name"].startswith("workloads.")})
        for key in traced[0].layers:
            values[key] = float(np.median([p.layers[key] for p in traced]))
        wanted = spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this runner does not compute: {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks that stop Spark


if __name__ == "__main__":
    import signal

    from harness import become_subreaper, reap_children

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    become_subreaper()
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
