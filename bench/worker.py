"""Runs one workload in a fresh process and writes what it measured as JSON.

    python3 bench/worker.py SPEC.json RESULT.json

``bench/run.py`` starts this process with ``PYTHONPATH`` pointing at the
checkout's ``src``, ``TFDYN_WORKERS`` unset, so the sweep runs serially,
and one BLAS thread.  The loop is closed: one client, each call issued after
the previous one returned.

After an optional warm-up call, untraced mode (``trace`` false) runs the
configs in turn until ``seconds`` have elapsed, at least one full pass and,
when ``repeat`` is ``"pass"``, whole passes only.  Traced mode runs one pass
untraced, then the same pass with the layer wrappers of ``tracer.py``
installed; the ratio of the two is the tracing overhead.  Untraced runs
time every operation together with the host reference of ``refclock.py``.

Every operation's outputs are checked here, outside the timed calls, and a
failure is counted, never raised: a quench or sweep entry passes when it
returns, both CSVs parse with ``grid_points`` data rows, every conserved-
quantity drift is within 1e-9 and every oracle column agrees within the
acceptance suite's own tolerance for that quantity; a verify check passes on
its own status.  Repeats of one config must give byte-identical CSVs.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import refclock

DRIFT_MAX = 1e-9  # c02a-c
# oracle column -> tolerance of the acceptance check that compares it
ORACLE_TOLERANCES = {
    "occupation_abs_diff": 1e-4,  # c06
    "q2_abs_diff": 1e-4,  # c07b
    "q4_abs_diff": 1e-4,  # c07b
    "oracle_condition_residual_max": 1e-6,  # c03a
}
ERR_CHECKS = {
    "c03a": "c03a_thermal_condition_boson",
    "c03b": "c03b_thermal_condition_fermion",
    "c05b": "c05b_sudden_production_ode",
    "c06": "c06_evolved_distribution",
    "c07a": "c07a_q_moments_equilibrium",
    "c07b": "c07b_q_moments_midquench",
    "c07c": "c07c_q_moment_ratio",
}
DRIFT_CHECKS = (
    "c02a_boson_commutator_conservation",
    "c02b_oscillator_wronskian_conservation",
    "c02c_fermion_anticommutator_conservation",
)


def _read_csv(path: Path, rows: int) -> dict[str, list[float]]:
    lines = path.read_text().splitlines()
    if len(lines) != rows + 1:
        raise ValueError(f"{path.name}: {len(lines) - 1} data rows, expected {rows}")
    header = [name.split(" [")[0] for name in lines[0].split(",")]
    columns: dict[str, list[float]] = {name: [] for name in header}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path.name}: ragged row")
        for name, cell in zip(header, cells):
            columns[name].append(float(cell))
    return columns


def _check_quench_dir(out: Path, grid_points: int, drift: dict) -> dict:
    """Correctness of one quench's artifacts; raises ValueError on failure."""
    digest = hashlib.sha256()
    columns: dict[str, list[float]] = {}
    for name in ("modes.csv", "observables.csv"):
        digest.update((out / name).read_bytes())
        columns.update(_read_csv(out / name, grid_points))
    drift_max = max(float(v) for v in drift.values())
    if not drift_max <= DRIFT_MAX:
        raise ValueError(f"conserved-quantity drift {drift_max:.3e} exceeds {DRIFT_MAX:.0e}")
    diffs = {name: max(columns[name]) for name in ORACLE_TOLERANCES if name in columns}
    for name, worst in diffs.items():
        if not worst <= ORACLE_TOLERANCES[name]:
            raise ValueError(f"{name} reaches {worst:.3e}, tolerance {ORACLE_TOLERANCES[name]:.0e}")
    return {
        "digest": digest.hexdigest(),
        "drift_max": drift_max,
        "oracle_diffs": diffs,
        "oracle_diff_max": max(diffs.values()) if diffs else None,
        "bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }


class Runner:
    """Executes configs and records one entry per operation."""

    def __init__(self, spec: dict) -> None:
        from tfdyn import cli_runner

        self.cli = cli_runner
        self.spec = spec
        self.work = Path(spec["work_dir"])
        self.ops: list[dict] = []
        self.tracer = None
        self.digests: dict[str, str] = {}
        self.calls = 0
        # parsing belongs to set-up (setup_s), not to the operations
        self.parsed = self.parse()
        self._entry = None
        if any(c["kind"] == "sweep" for c in spec["configs"]):
            self._time_sweep_entries()

    def parse(self) -> list:
        return [self.cli.parse_config(c["text"], c["kind"]) for c in self.spec["configs"]]

    def _time_sweep_entries(self) -> None:
        # A sweep entry is an operation; its boundary is the function
        # run_sweep calls once per grid point.
        self._entry = self._entry_original = self.cli._run_sweep_entry

        def timed_entry(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.op = len(self.ops) + len(self._entry_latencies)
            timer = refclock.Timer(sample=not self.spec["trace"])
            try:
                with timer:
                    return self._entry(*args, **kwargs)
            finally:
                self._entry_latencies.append((timer.wall, timer.reference))
                if self.tracer is not None:
                    self.tracer.op = -1

        self.cli._run_sweep_entry = timed_entry

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        if self._entry is not None:
            original = self._entry_original
            self._entry = tracer.span("cli_runner.sweep", original) if tracer else original

    def _call(self, fn, *args, is_op: bool = True):
        """(result, error, wall seconds, reference seconds) of one program call;
        the host reference (refclock.py) is sampled only around untraced
        operations, and is 0 otherwise."""
        if self.tracer is not None and is_op:
            self.tracer.op = len(self.ops)
        timer = refclock.Timer(sample=is_op and not self.spec["trace"])
        try:
            with timer:
                result, error = fn(*args), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        if self.tracer is not None:
            self.tracer.op = -1
        return result, error, timer.wall, timer.reference

    def run_config(self, index: int) -> float:
        """Run config ``index`` once; returns the wall time of the program call."""
        kind = self.spec["configs"][index]["kind"]
        out = self.work / f"cfg{index}"
        pass_ = self.calls // len(self.spec["configs"])
        self.calls += 1
        config = self.parsed[index]

        if kind == "quench":
            manifest, error, wall, ref = self._call(self.cli.run_quench, config, out)
            rec = {"config": index, "latency_s": wall, "reference_s": ref, "pass": pass_}
            if error is None:
                try:
                    rec.update(
                        _check_quench_dir(out, config.integrator.grid_points, manifest["drift"])
                    )
                except (OSError, ValueError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            self._record(rec, error, key=str(index))
            return wall

        if kind == "sweep":
            self._entry_latencies = []
            manifest, error, wall, _ = self._call(self.cli.run_sweep, config, out, is_op=False)
            latencies = self._entry_latencies
            count = len(config.sweep_values)
            for k in range(count):
                latency, ref = latencies[k] if k < len(latencies) else (math.nan, math.nan)
                rec = {
                    "config": index,
                    "entry": k,
                    "latency_s": latency,
                    "reference_s": ref,
                    "pass": pass_,
                }
                entry_error = error
                if error is None:
                    try:
                        entry = manifest["entries"][k]
                        rec.update(
                            _check_quench_dir(out / entry["dir"], config.integrator.grid_points,
                                              entry["drift"])
                        )
                        if k == count - 1:
                            _read_csv(out / "sweep_summary.csv", count)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        entry_error = f"{type(exc).__name__}: {exc}"
                self._record(rec, entry_error, key=f"{index}.{k}")
            return wall

        # verify: one operation, 22 checks
        returned, error, wall, ref = self._call(self.cli.run_verify, config, out)
        rec = {"config": index, "latency_s": wall, "reference_s": ref, "pass": pass_}
        if error is not None:
            from tfdyn.verification import CHECK_NAMES

            rec["checks_attempted"] = len(CHECK_NAMES)
            rec["checks_failed"] = list(CHECK_NAMES)
        else:
            manifest = returned[0]
            checks = {c["name"]: c for c in manifest["checks"]}
            rec["checks_attempted"] = len(checks)
            rec["checks_failed"] = sorted(n for n, c in checks.items() if c["status"] != "pass")
            rec["err"] = {short: checks[name]["measured"] for short, name in ERR_CHECKS.items()}
            rec["drift_max"] = max(checks[name]["measured"] for name in DRIFT_CHECKS)
            rec["bytes_written"] = (out / "manifest.json").stat().st_size
            rec["digest"] = hashlib.sha256(
                json.dumps([(c["name"], c["status"], c["measured"]) for c in manifest["checks"]])
                .encode()
            ).hexdigest()
            if rec["checks_failed"]:
                error = "failed checks: " + ", ".join(rec["checks_failed"])
        self._record(rec, error, key=str(index))
        return wall

    def _record(self, rec: dict, error: str | None, key: str) -> None:
        if error is None and "digest" in rec:
            first = self.digests.setdefault(key, rec["digest"])
            if first != rec["digest"]:
                error = "outputs differ from an earlier run of the same config"
        rec["ok"] = error is None
        rec["error"] = error
        self.ops.append(rec)

    def warm_up(self) -> None:
        """First calls pay for lazy imports and BLAS thread start-up."""
        self.run_config(0)
        self.ops.clear()
        self.calls = 0

    def run_pass(self) -> float:
        return sum(self.run_config(i) for i in range(len(self.spec["configs"])))


def _openblas_threads(package) -> dict:
    """Thread count and core type of the OpenBLAS bundled with a wheel."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {
                    "library": os.path.basename(path),
                    "threads": get_threads(),
                    "config": get_config().decode(),
                }
    return {"library": None, "threads": None, "config": None}


def environment() -> dict:
    """What a BLAS-threading or version difference between two runs shows in."""
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            **_openblas_threads(numpy),
        },
        "scipy_blas": _openblas_threads(scipy),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "TFDYN_WORKERS": os.environ.get("TFDYN_WORKERS"),
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    runner = Runner(spec)
    configs = len(spec["configs"])
    result: dict = {}
    if spec["warmup"]:
        runner.warm_up()

    if spec["trace"]:
        from tracer import Tracer

        untraced_wall = runner.run_pass()
        tracer = Tracer()
        tracer.install()
        runner.set_tracer(tracer)
        runner.parse()  # set-up parsing, traced outside any operation
        traced_from = len(runner.ops)
        traced_wall = runner.run_pass()
        runner.set_tracer(None)
        tracer.uninstall()
        consistency = tracer.op_consistency()
        result["trace"] = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "ops": len(runner.ops) - traced_from,
            "layers": tracer.layer_totals(),
            "counters": dict(tracer.counters),
            "fock_oracle_share": tracer.share_under("fock_oracle.", consistency["roots_s"]),
            "consistency": consistency,
        }
        Path(spec["trace_file"]).write_text(json.dumps(tracer.dump()))
    else:
        start = time.perf_counter()
        while True:
            runner.run_config(runner.calls % configs)
            boundary = runner.calls >= configs and (
                spec["repeat"] == "op" or runner.calls % configs == 0
            )
            if boundary and time.perf_counter() - start >= spec["seconds"]:
                break

    result.update(
        ops=runner.ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
