"""Seeded input generators for the three benchmark workloads.

Every workload is a list of INI texts, exactly what ``tfdyn run``, ``tfdyn
sweep`` and ``tfdyn verify`` would read, drawn from ``random.Random(seed)``
so that one seed always yields the same bytes (see ``inputs_digest``).  The
program under test receives only these texts.

Why each workload exists (the layer it stresses is named in README.md):

* ``oracle_quench`` -- oracle-on quenches at N = 60 and the default 2000
  substeps per unit: the dense Fock-space oracle does almost all the work.
* ``mode_sweep`` -- oracle-off sweeps over a 64-unit window with 401 output
  points: protocol validation, protocol evaluation inside the adaptive mode
  solver, the per-grid-point observables and CSV writing; the oracle idles.
* ``verify`` -- the acceptance suite as ``tfdyn verify CONFIG`` runs it, with
  the oracle at N = 50 and 250 substeps per unit (``VERIFY_CONFIG``); the
  only source of the acceptance checks' measured errors.
"""

from __future__ import annotations

import hashlib
import math
import random

WORKLOADS = ("oracle_quench", "mode_sweep", "verify")

# A coupling switched on by a tanh ramp must already be this small at t_i:
# the mode solvers refuse |w+(t_i)| above 1e-6 with a bare ValueError, which
# parse_config does not catch in advance.
COUPLING_AT_T_I_MAX = 1e-6

N_LEVELS = 60
QUENCH_GRID_POINTS = 21
SWEEP_GRID_POINTS = 401
SWEEP_HALF_WINDOW = 32.0
OSCILLATOR_ENTRIES = 28
BOSON_ENTRIES = 4
FERMION_ENTRIES = 4

# Window lengths, chosen so that the four quench kinds cost about the same
# (the 16-dim fermion space is ~10x cheaper per substep than N = 60).
BOSON_WINDOW = 0.12
OSCILLATOR_WINDOW = 0.15
STEP_WINDOW = 0.2
FERMION_WINDOW = 2.0

# The smallest oracle settings at which every acceptance check still passes,
# rounded up: one call takes ~7 s instead of the ~45 s of the defaults (N = 60,
# 2000 substeps per unit), so a run holds several repeats of it.  Every code
# path of the defaults is kept, the N = 2 * n_levels box included.
VERIFY_CONFIG = """[run]
kind = verify
[oracle]
n_levels = 50
substeps_per_unit = 250
"""


def _fmt(x: float) -> str:
    return repr(float(x))


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines: list[str] = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _tanh_tail(amplitude: float, center: float, width: float, t_i: float) -> float:
    """Value of a 0 -> amplitude tanh ramp at t_i."""
    return amplitude * 0.5 * (1.0 + math.tanh((t_i - center) / width))


def _coupling_ramp(rng: random.Random, window: float) -> dict[str, str]:
    """A 0 -> amplitude tanh switch-on of a coupling, negligible at t_i = 0."""
    amplitude = rng.uniform(0.2, 0.35)
    width = window * rng.uniform(1.0 / 24.0, 1.0 / 18.0)
    center = window * rng.uniform(0.45, 0.55)
    if _tanh_tail(amplitude, center, width, 0.0) > COUPLING_AT_T_I_MAX:
        raise RuntimeError("generated coupling ramp is not negligible at t_i")
    return {
        "family": "tanh",
        "drive": "omega_plus",
        "value_initial": "0",
        "value_final": _fmt(amplitude),
        "center": _fmt(center),
        "width": _fmt(width),
        "t_i": "0",
        "t_f": _fmt(window),
        "omega0": _fmt(rng.uniform(0.9, 1.1)),
    }


def _quench(kind: str, protocol: dict[str, str], beta: float) -> str:
    sections: dict[str, dict[str, object]] = {
        "run": {"kind": "quench", "beta": _fmt(beta)},
        "protocol": {"kind": kind, **protocol},
        "integrator": {"grid_points": QUENCH_GRID_POINTS},
    }
    if kind != "fermion":
        sections["oracle"] = {"n_levels": N_LEVELS}
    return _ini(sections)


def _oracle_quench(rng: random.Random) -> list[dict]:
    configs = []
    for rep in range(2):
        boson = _quench("boson", _coupling_ramp(rng, BOSON_WINDOW), rng.uniform(0.8, 1.2))
        ramp = _quench(
            "oscillator",
            {
                "family": "tanh",
                "value_initial": "1",
                "value_final": _fmt(rng.uniform(1.3, 1.8)),
                "center": _fmt(OSCILLATOR_WINDOW * rng.uniform(0.4, 0.6)),
                "width": _fmt(OSCILLATOR_WINDOW * rng.uniform(1.0 / 12.0, 1.0 / 8.0)),
                "t_i": "0",
                "t_f": _fmt(OSCILLATOR_WINDOW),
            },
            rng.uniform(0.8, 1.2),
        )
        step = _quench(
            "oscillator",
            {
                "family": "sudden",
                "value_initial": "1",
                "value_final": _fmt(rng.uniform(1.3, 1.8)),
                "t_jump": _fmt(STEP_WINDOW * rng.uniform(0.3, 0.7)),
                "t_i": "0",
                "t_f": _fmt(STEP_WINDOW),
            },
            rng.uniform(0.8, 1.2),
        )
        fermion = _quench("fermion", _coupling_ramp(rng, FERMION_WINDOW), rng.uniform(0.8, 1.2))
        configs += [
            {"name": f"boson_coupling_ramp_{rep}", "kind": "quench", "text": boson},
            {"name": f"oscillator_tanh_ramp_{rep}", "kind": "quench", "text": ramp},
            {"name": f"oscillator_sudden_{rep}", "kind": "quench", "text": step},
            {"name": f"fermion_coupling_ramp_{rep}", "kind": "quench", "text": fermion},
        ]
    return configs


def _stratified_widths(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One width per equal log-slice of [lo, hi], jittered around the slice's
    middle: every seed covers the whole range, so the solver's total work
    barely depends on the seed."""
    ratio = math.log(hi / lo)
    return [
        lo * math.exp(ratio * (k + rng.uniform(0.25, 0.75)) / count) for k in range(count)
    ]


def _sweep(kind: str, protocol: dict[str, str], widths: list[float]) -> str:
    return _ini(
        {
            "run": {"kind": "sweep", "beta": "1.0"},
            "protocol": {
                "kind": kind,
                **protocol,
                "t_i": _fmt(-SWEEP_HALF_WINDOW),
                "t_f": _fmt(SWEEP_HALF_WINDOW),
            },
            "integrator": {"grid_points": SWEEP_GRID_POINTS},
            "oracle": {"enabled": "false"},
            "sweep": {"key": "protocol.width", "values": ", ".join(_fmt(w) for w in widths)},
        }
    )


def _mode_sweep(rng: random.Random) -> list[dict]:
    oscillator = _sweep(
        "oscillator",
        {
            "family": "tanh",
            "value_initial": "1",
            "value_final": _fmt(rng.uniform(1.95, 2.05)),
            "center": "0",
            "width": "1",
        },
        _stratified_widths(rng, OSCILLATOR_ENTRIES, 0.25, 4.0),
    )
    configs = [{"name": "oscillator_width_sweep", "kind": "sweep", "text": oscillator}]
    for kind, count in (("boson", BOSON_ENTRIES), ("fermion", FERMION_ENTRIES)):
        amplitude = rng.uniform(0.3, 0.35)
        widths = _stratified_widths(rng, count, 1.0, 3.0)
        # the widest ramp has the largest tail at t_i
        if _tanh_tail(amplitude, 0.0, max(widths), -SWEEP_HALF_WINDOW) > COUPLING_AT_T_I_MAX:
            raise RuntimeError("generated coupling ramp is not negligible at t_i")
        protocol = {
            "family": "tanh",
            "drive": "omega_plus",
            "value_initial": "0",
            "value_final": _fmt(amplitude),
            "center": "0",
            "width": "1",
            "omega0": _fmt(rng.uniform(0.95, 1.05)),
        }
        configs.append(
            {"name": f"{kind}_width_sweep", "kind": "sweep", "text": _sweep(kind, protocol, widths)}
        )
    return configs


def generate(workload: str, seed: int) -> dict:
    """The workload's configs and how its loop repeats them.

    ``repeat`` is ``"op"`` when the timed loop may stop after any config once
    the first full pass is done, ``"pass"`` when it stops only at the end of
    a pass (so every sweep entry runs equally often).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle_quench":
        return {"configs": _oracle_quench(rng), "repeat": "op"}
    if workload == "mode_sweep":
        return {"configs": _mode_sweep(rng), "repeat": "pass"}
    if workload == "verify":
        return {
            "configs": [{"name": "verify", "kind": "verify", "text": VERIFY_CONFIG}],
            "repeat": "pass",
        }
    raise ValueError(f"unknown workload '{workload}' (expected one of {', '.join(WORKLOADS)})")


def inputs_digest(spec: dict) -> str:
    h = hashlib.sha256()
    for cfg in spec["configs"]:
        h.update(f"{cfg['name']}\0{cfg['kind']}\0{cfg['text']}\0".encode())
    return h.hexdigest()
