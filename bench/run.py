"""tfdyn benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload oracle_quench --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from ``--seed``
(``workloads.py``); the program is imported from the checkout's ``src`` in
fresh processes, so nothing needs installing.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
six fresh processes that import tfdyn and parse the workload's configs, half
of them before and half after one worker process runs the workload
closed-loop for ``--seconds`` (``worker.py``).  Operation times are scaled
to a fixed host speed with the reference of ``refclock.py``, sampled around
and during each operation, because the host's speed swings by ~1.9x for
seconds to minutes at a time.  Set-up time does not follow that reference
(it is dominated by loading shared libraries), so it stays raw.

``--trace 1`` instead runs one pass untraced and one pass with every layer
wrapped (``tracer.py``) and reports the per-layer metrics.

Every metric is printed on its own line with unit, better-direction and a
note, and the whole result is saved under ``.bench_out/``.  The last line
of standard output is the JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the metrics that ``BENCHMARK.json`` lists for the mode.
Exit status: 0 when a result was printed (correct or not), 2 when the
directory holds no tfdyn sources, 1 when the harness itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import workloads  # noqa: E402
from worker import ERR_CHECKS  # noqa: E402

SETUP_PROBES = 6  # half before the worker, half after
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 170.0
OUT_DIR = Path(".bench_out")
# Per operation, the self times of all its spans must add up to the duration
# of its root span within this share (the sums telescope, so a gap means a
# mis-nested or double-counted span).
TRACE_GAP_MAX = 1e-6
# Acceptance checks whose measured error is set by discretisation, not
# round-off, and so repeats across machines: each must stay at or below its
# value at the seed commit (baseline.json), up to this relative slack.
GATED_ERRORS = ("c03a", "c05b", "c06", "c07a", "c07b")
ERR_SLACK = 1e-3
# Printed with the end-to-end metrics but not bounded in BENCHMARK.json: zero
# when all is well, defined on only some workloads, or (the tail) spread by
# more than a third of the largest allowed bound between runs (see README.md).
REPORTED_ONLY = ("op_tail_s", "failed_frac", "oracle_diff_max", "mode_drift_max") + tuple(
    f"err.{c}" for c in ERR_CHECKS
)


class HarnessError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TFDYN_WORKERS", None)  # the sweep stays serial
    # One BLAS thread: on a 2-core shared host a second one slows the oracle's
    # small eigh calls down and makes their time depend on the neighbours.
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    return env


def _run_child(args: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{' '.join(args)} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(args)} exited with status {proc.returncode}")
    return proc.stdout


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (Path(".git") / name).is_file():
        return (Path(".git") / name).read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Below eleven samples no percentile
    qualifies and the maximum is reported, with zero samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def attempts(ops: list[dict]) -> tuple[int, int]:
    """(attempted, failed): operations, or for verify its 22 checks."""
    attempted = failed = 0
    for op in ops:
        if "checks_attempted" in op:
            attempted += op["checks_attempted"]
            failed += len(op["checks_failed"])
        else:
            attempted += 1
            failed += 0 if op["ok"] else 1
    return attempted, failed


def end_to_end(result: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    ops = result["ops"]
    attempted, failed = attempts(ops)
    what = "checks" if any("checks_attempted" in op for op in ops) else "operations"
    metrics = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes, raw"),
        "failed_frac": (failed / attempted, f"{failed} of {attempted} {what}"),
        "peak_rss_mb": (result["peak_rss_mb"], "ru_maxrss of the worker process"),
    }
    timed = [op for op in ops if op["ok"]]
    if timed:
        scaled = [refclock.scaled(op["latency_s"], op["reference_s"]) for op in timed]
        raw = [op["latency_s"] for op in timed]
        speed = refclock.REFERENCE_S / statistics.median(op["reference_s"] for op in timed)
        note = f"n = {len(timed)}, scaled; raw {{:.4g}}, host at {speed:.2f}x reference speed"
        metrics["ops_per_s"] = (len(scaled) / sum(scaled), note.format(len(raw) / sum(raw)))
        metrics["op_p50_s"] = (statistics.median(scaled), note.format(statistics.median(raw)))
        value, pct, beyond = tail(scaled)
        metrics["op_tail_s"] = (
            value, f"p{pct:.1f}, {beyond} beyond, scaled; raw {tail(raw)[0]:.4g}",
        )
    # accuracy comes from the first pass only, so it repeats bit for bit
    first_pass = [op for op in ops if op["pass"] == 0 and op["ok"]]
    diffs = [op["oracle_diff_max"] for op in first_pass if op.get("oracle_diff_max") is not None]
    if diffs:
        metrics["oracle_diff_max"] = (max(diffs), f"first pass, {len(diffs)} ops")
    drifts = [op["drift_max"] for op in first_pass if "drift_max" in op]
    if drifts:
        metrics["mode_drift_max"] = (max(drifts), f"first pass, {len(drifts)} ops")
    for op in first_pass:
        for short, measured in op.get("err", {}).items():
            metrics[f"err.{short}"] = (measured, "measured value of the acceptance check")
    return metrics


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    trace = result["trace"]
    ops = trace["ops"]
    layers, counters = trace["layers"], trace["counters"]
    per_op = f"per op, {ops} ops in the traced pass"
    metrics: dict[str, tuple[float, str]] = {}

    def layer(name: str, calls: bool = True) -> None:
        stats = layers.get(name, {"calls": 0, "self_s": 0.0})
        if calls:
            metrics[f"{name}.calls"] = (stats["calls"] / ops, per_op)
        metrics[f"{name}.self_s"] = (stats["self_s"] / ops, per_op)

    for name in ("protocols.evaluate", "protocols.validate", "mode_solver.solve"):
        layer(name)
    for name in ("rhs_evals", "steps", "rejected_est"):
        note = per_op + (", estimated from nfev as the solver reports it"
                         if name == "rejected_est" else "")
        metrics[f"mode_solver.{name}"] = (counters.get(f"mode_solver.{name}", 0.0) / ops, note)
    for name in ("bogoliubov.overlap", "thermal_observables", "fock_oracle.evolve"):
        layer(name)

    propagators = counters.get("fock_oracle.propagators", 0.0)
    evolve_s = layers.get("fock_oracle.evolve", {}).get("inclusive_s", 0.0)
    computed = "computed from the evolve arguments"
    metrics["fock_oracle.propagators"] = (propagators / ops, f"{per_op}, {computed}")
    metrics["fock_oracle.propagators_per_s"] = (
        propagators / evolve_s if evolve_s > 0 else 0.0, "per second of traced evolve time",
    )
    for name, key in (("kernel_flops", "flops"), ("kernel_bytes", "bytes")):
        total = counters.get(f"fock_oracle.{key}", 0.0)
        metrics[f"fock_oracle.{name}"] = (
            total / propagators if propagators else 0.0,
            f"per substep, {computed}: eigh + propagator + state update",
        )
    metrics["fock_oracle.state_dim"] = (
        counters.get("fock_oracle.state_dim", 0.0), "largest doubled-state dimension",
    )
    for name in ("truncation", "expect", "residual", "unitary", "thermal_state", "operators"):
        layer(f"fock_oracle.{name}", calls=False)
    metrics["fock_oracle.share"] = (
        trace["fock_oracle_share"],
        "time inside fock_oracle spans, evaluate calls made there included, over op time",
    )
    for name in ("verification.run_all", "cli_runner.parse", "cli_runner.run_quench",
                 "cli_runner.sweep", "cli_runner.run_verify"):
        layer(name, calls=False)
    traced_ops = result["ops"][-ops:]
    metrics["cli_runner.bytes_written"] = (
        sum(op.get("bytes_written", 0) for op in traced_ops) / ops, per_op,
    )
    metrics["trace.overhead_frac"] = (
        trace["traced_wall_s"] / trace["untraced_wall_s"] - 1.0,
        f"traced {trace['traced_wall_s']:.3f} s vs untraced {trace['untraced_wall_s']:.3f} s",
    )
    return metrics


def correctness(result: dict, metrics: dict) -> list[str]:
    """Reasons the run is not correct (empty when it is)."""
    problems = [
        f"op {i} ({op['config']}): {op['error'].strip().splitlines()[-1]}"
        for i, op in enumerate(result["ops"]) if not op["ok"]
    ]
    if "trace" in result:
        c = result["trace"]["consistency"]
        if c["max_gap_frac"] > TRACE_GAP_MAX or c["min_self_s"] < -TRACE_GAP_MAX:
            problems.append(f"trace is not self-consistent: {c}")
    if "err.c03a" in metrics:
        baseline = json.loads((HERE / "baseline.json").read_text())["verify_errors"]
        for short in GATED_ERRORS:
            measured, ceiling = metrics[f"err.{short}"][0], baseline[short] * (1 + ERR_SLACK)
            if not measured <= ceiling:
                problems.append(f"err.{short} = {measured:.4e} exceeds the seed value {ceiling:.4e}")
    return problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/tfdyn/__init__.py").is_file():
        print("bench: no src/tfdyn here; run from the root of a tfdyn checkout",
              file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    spec = workloads.generate(args.workload, args.seed)
    digest = workloads.inputs_digest(spec)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), warmup=args.workload != "verify",
        work_dir=str(run_dir / "work"), trace_file=str(OUT_DIR / f"{tag}.trace.json"),
    )
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spec_path.write_text(json.dumps(spec))

    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        probe = [str(HERE / "probe_setup.py"), str(spec_path)]
        setup = [float(_run_child(probe, deadline)) for _ in range(probes)]
        _run_child([str(HERE / "worker.py"), str(spec_path), str(result_path)], deadline)
        setup += [float(_run_child(probe, deadline)) for _ in range(probes)]
        result = json.loads(result_path.read_text())
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    problems = correctness(result, metrics)
    attempted, failed = attempts(result["ops"])
    environment = {**result["environment"], "git_sha": git_sha()}

    print(f"# tfdyn benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# inputs_digest {digest} ({len(spec['configs'])} configs)")
    print(f"# environment {json.dumps(environment, sort_keys=True)}")
    units = {m["name"]: (m["unit"], m["better"]) for m in wanted}
    for name in metrics:  # the REPORTED_ONLY values
        units.setdefault(name, ("s" if name.endswith("_s") else "1", "lower"))
    for name, (value, note) in metrics.items():
        unit, better = units[name]
        print(f"  {name:34s} {value:<24.10g} {unit:9s} {better:6s}  {note}")
    for name in [m["name"] for m in wanted] + ([] if args.trace else list(REPORTED_ONLY)):
        if name not in metrics:
            print(f"  {name:34s} {'absent':24s} (does not apply to this workload)")
    print(f"# correct={not problems} attempted={attempted} failed={failed}")
    for problem in problems:
        print(f"#   {problem}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_digest": digest, "environment": environment,
        "metrics": {n: {"value": v, "note": note, "unit": units[n][0], "better": units[n][1]}
                    for n, (v, note) in metrics.items()},
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "trace_summary": result.get("trace"),
        "ops": result["ops"],
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
