"""Layer spans recorded from outside the program.

``install`` replaces the public functions of each tfdyn layer with timing
wrappers, wherever the function object is bound: ``evaluate``, for one, is
imported by name into five modules, and every such binding is swapped.  No
file under ``src/`` changes.

Each call becomes a span ``[name, start, end, parent, op, child_seconds]``;
spans are kept in memory and written once, at the end of the run.  A
layer's self time is its span's duration minus the time covered by its child
spans.  ``protocols.evaluate`` runs ~10^4 times per operation and calls no
other layer, so its calls are rolled up per parent span (count and total)
instead of stored one by one; its time still counts as child time of that
parent.

The work counters of the oracle are computed, not measured: from the
arguments of each ``evolve_doubled_thermal`` call, with the oracle's own cut
rule (cuts at the output grid and the declared jumps, ceil(substeps_per_unit
* span) substeps per cut).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np
from tfdyn.fock_oracle import OracleConfig
from tfdyn.protocols import FermionProtocol

# layer name -> (module, public functions that make up the layer)
LAYERS = {
    "protocols.evaluate": ("tfdyn.protocols", ("evaluate",)),
    "protocols.validate": ("tfdyn.protocols", ("validate",)),
    "mode_solver.solve": (
        "tfdyn.mode_solver",
        ("solve_boson_mode", "solve_oscillator_mode", "solve_fermion_modes"),
    ),
    "bogoliubov.overlap": ("tfdyn.bogoliubov", ("boson_overlap", "fermion_frame_coeffs")),
    "thermal_observables": (
        "tfdyn.thermal_observables",
        ("theta", "equilibrium_occupation", "evolved_occupation_boson", "q_moment",
         "amplification_factor"),
    ),
    "fock_oracle.evolve": ("tfdyn.fock_oracle", ("evolve_doubled_thermal",)),
    "fock_oracle.truncation": ("tfdyn.fock_oracle", ("truncation_report",)),
    "fock_oracle.expect": ("tfdyn.fock_oracle", ("expectation", "expectation_single_factor")),
    "fock_oracle.residual": ("tfdyn.fock_oracle", ("thermal_state_condition_residual",)),
    "fock_oracle.unitary": ("tfdyn.fock_oracle", ("evolve_unitary",)),
    "fock_oracle.thermal_state": (
        "tfdyn.fock_oracle",
        ("build_thermal_state_doubled", "thermal_density", "doubled_density"),
    ),
    "fock_oracle.operators": (
        "tfdyn.fock_oracle",
        ("build_boson_ladder", "build_boson_hamiltonian", "build_oscillator_hamiltonian",
         "position_operator", "momentum_operator", "frame_annihilation",
         "build_fermion_space", "build_fermion_hamiltonian", "invariant_operator_matrix",
         "tilde_swap"),
    ),
    "verification.run_all": ("tfdyn.verification", ("run_all",)),
    "cli_runner.parse": ("tfdyn.cli_runner", ("parse_config",)),
    "cli_runner.run_quench": ("tfdyn.cli_runner", ("run_quench",)),
    "cli_runner.sweep": ("tfdyn.cli_runner", ("run_sweep",)),
    "cli_runner.run_verify": ("tfdyn.cli_runner", ("run_verify",)),
}
ROLLED_UP = frozenset({"protocols.evaluate"})

# Computed per-substep cost model of the oracle kernel, in real flops and in
# bytes of matrix operands each read or written once (cache misses ignored).
# eigh of an n x n Hermitian matrix with vectors: 9 n^3 operations (Golub and
# Van Loan), x4 for complex arithmetic; U = Q diag(phase) Q^dag: one complex
# GEMM (8 n^3); boson update C -> U C U^dag: two GEMMs; fermion psi -> U psi:
# one complex matrix-vector product (8 n^2).
FERMION_DOUBLED_DIM = 16


def _substep_cost(n: int, boson: bool) -> tuple[float, float]:
    cell = 16.0 * n * n
    flops = 36.0 * n**3 + 8.0 * n**3
    nbytes = 2 * cell + 8.0 * n + 3 * cell  # eigh in/out, U assembly
    if boson:
        flops += 16.0 * n**3
        nbytes += 6 * cell
    else:
        flops += 8.0 * n * n
        nbytes += cell + 32.0 * n
    return flops, nbytes


def oracle_work(protocol, config) -> dict[str, float]:
    """Propagators, doubled-state dimension and kernel cost of one
    ``evolve_doubled_thermal`` call, by the oracle's own cut rule."""
    grid = np.linspace(protocol.t_i, protocol.t_f, config.grid_points)
    cuts = sorted(set(grid.tolist()) | set(protocol.jump_times))
    propagators = sum(
        max(1, math.ceil(config.substeps_per_unit * (right - left)))
        for left, right in zip(cuts[:-1], cuts[1:])
    )
    boson = not isinstance(protocol, FermionProtocol)
    n = config.n_levels if boson else FERMION_DOUBLED_DIM
    flops, nbytes = _substep_cost(n, boson)
    return {
        "propagators": propagators,
        "state_dim": n * n if boson else n,
        "flops": propagators * flops,
        "bytes": propagators * nbytes,
    }


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rolled: dict[tuple[str, int], list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def rolled_up(self, name: str, fn):
        spans, stack, rolled, clock = self.spans, self._stack, self.rolled, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                parent = stack[-1] if stack else -1
                if parent >= 0:
                    spans[parent][5] += elapsed
                agg = rolled.get((name, parent))
                if agg is None:
                    rolled[(name, parent)] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed

        return traced

    def rebind(self, original, replacement) -> None:
        """Swap every binding of ``original`` in the tfdyn modules."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tfdyn" or mod_name.startswith("tfdyn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._installed.append((module, attr, original))

    def install(self) -> None:
        """Wrap every listed function; one that no longer exists reads as zero."""
        for layer, (mod_name, names) in LAYERS.items():
            module = importlib.import_module(mod_name)
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                if layer in ROLLED_UP:
                    wrapper = self.rolled_up(layer, fn)
                else:
                    wrapper = self.span(layer, fn, _AFTER.get(layer))
                self.rebind(fn, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, self seconds and inclusive seconds per layer (inclusive time
        double counts a layer that calls itself; the oracle layers do not)."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}
        )
        for name, start, end, _, _, child in self.spans:
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - child
            totals[name]["inclusive_s"] += end - start
        for (name, _), (calls, total) in self.rolled.items():
            totals[name]["calls"] += calls
            totals[name]["self_s"] += total
            totals[name]["inclusive_s"] += total
        return dict(totals)

    def share_under(self, prefix: str, roots_s: float) -> float:
        """Time spent inside spans whose name starts with ``prefix``, including
        rolled-up calls they made, as a share of ``roots_s``."""
        inside = 0.0
        for name, start, end, _, _, child in self.spans:
            if name.startswith(prefix):
                inside += (end - start) - child
        for (_, parent), (_, total) in self.rolled.items():
            if parent >= 0 and self.spans[parent][0].startswith(prefix):
                inside += total
        return inside / roots_s if roots_s > 0 else 0.0

    def op_consistency(self) -> dict:
        """Per operation: sum of all self times vs the op's root span.

        The sums telescope, so any gap exposes a span that was mis-nested or
        time that was double counted.
        """
        self_by_op: defaultdict[int, float] = defaultdict(float)
        root_by_op: dict[int, float] = {}
        min_self = math.inf
        for name, start, end, parent, op, child in self.spans:
            own = (end - start) - child
            min_self = min(min_self, own)
            self_by_op[op] += own
            if op >= 0 and (parent < 0 or self.spans[parent][4] != op):
                if op in root_by_op:
                    raise RuntimeError(f"operation {op} has more than one root span")
                root_by_op[op] = end - start
        for (_, parent), (_, total) in self.rolled.items():
            self_by_op[self.spans[parent][4] if parent >= 0 else -1] += total
        worst = max(
            (abs(self_by_op[op] - dur) / dur for op, dur in root_by_op.items() if dur > 0),
            default=0.0,
        )
        return {
            "ops": len(root_by_op),
            "max_gap_frac": worst,
            "min_self_s": min_self if self.spans else 0.0,
            "roots_s": sum(root_by_op.values()),
        }

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op, _ in self.spans
            ],
            "rolled_up_fields": ["name", "parent", "calls", "total_s"],
            "rolled_up": [
                [name, parent, calls, total]
                for (name, parent), (calls, total) in self.rolled.items()
            ],
        }


def _after_solve(tracer: Tracer, args, kwargs, traj) -> None:
    stats = traj.stats
    tracer.counters["mode_solver.rhs_evals"] += stats.function_evaluations
    tracer.counters["mode_solver.steps"] += stats.steps
    tracer.counters["mode_solver.rejected_est"] += stats.rejected_steps


def _after_evolve(tracer: Tracer, args, kwargs, result) -> None:
    protocol = args[0] if args else kwargs["protocol"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    work = oracle_work(protocol, config or OracleConfig())
    tracer.counters["fock_oracle.propagators"] += work["propagators"]
    tracer.counters["fock_oracle.flops"] += work["flops"]
    tracer.counters["fock_oracle.bytes"] += work["bytes"]
    tracer.counters["fock_oracle.state_dim"] = max(
        tracer.counters["fock_oracle.state_dim"], work["state_dim"]
    )


_AFTER = {"mode_solver.solve": _after_solve, "fock_oracle.evolve": _after_evolve}
