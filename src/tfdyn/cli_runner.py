"""Config-driven runs: quench artifacts, parameter sweeps, verification.

A run is described by a flat INI file; unknown sections or keys are hard
errors so typos cannot silently fall back to defaults.  Three run kinds
exist:

* ``quench`` -- solve the mode equations for one protocol, write ``modes.csv``
  (coefficients and conserved-quantity deviations), ``observables.csv``
  (occupations and moments, plus brute-force oracle columns when enabled;
  built by ``verification.quench_observables``, which the acceptance suite's
  oracle checks read too) and a ``manifest.json``;
* ``sweep`` -- repeat a quench over a one-dimensional parameter grid: every
  entry's derived config is parsed once, up front, and each entry then runs
  in isolation; the summary is assembled in grid order from the entries'
  final values;
* ``verify`` -- execute the acceptance suite and record every check.

Numeric CSV cells use 17 significant digits, which round-trips doubles
exactly: rerunning a config reproduces the output byte for byte (manifests
differ only in timestamp and durations).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import fock_oracle, thermal_observables, verification
from ._version import __version__
from .errors import ConfigError
from .mode_solver import (
    IntegratorConfig,
    solve_boson_mode,
    solve_fermion_modes,
    solve_oscillator_mode,
)
from .protocols import Protocol, evaluate, from_config, initial_frame, statistics_of, validate

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "canonical_config_text",
    "run_quench",
    "run_sweep",
    "run_verify",
    "WORKERS_ENV_VAR",
]

WORKERS_ENV_VAR = "TFDYN_WORKERS"

_RUN_KINDS = ("quench", "sweep", "verify")

# Sections with a fixed key vocabulary, each key with its type ([protocol] is
# validated by protocols.from_config, which also rejects unknown keys).
_SECTION_KEYS = {
    "run": {"kind": str, "beta": float},
    "integrator": {"rel_tol": float, "grid_points": int},
    "oracle": {"enabled": bool, "n_levels": int, "substeps_per_unit": float},
    "sweep": {"key": str, "values": str},
}
_ALL_SECTIONS = set(_SECTION_KEYS) | {"protocol"}

# Keys a verify run would ignore: the suite pins its own beta and grids.
_NOT_FOR_VERIFY = (("run", "beta"), ("integrator", "grid_points"))

_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    kind: str
    beta: float | None
    protocol: Protocol | None
    integrator: IntegratorConfig
    oracle: fock_oracle.OracleConfig | None  # None: the oracle is off
    sweep_key: str | None
    sweep_values: tuple[float, ...]
    canonical_text: str
    digest: str
    protocol_warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    # a key above the first section fails above, as a missing section header
    if parser.defaults():
        raise ConfigError(
            "a [DEFAULT] section is not allowed: its keys would be copied into every section"
        )
    return parser


def _render(parser: configparser.ConfigParser) -> str:
    lines: list[str] = []
    for section in sorted(parser.sections()):
        lines.append(f"[{section}]")
        for key in sorted(parser[section]):
            value = " ".join(parser[section][key].split())
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def canonical_config_text(text: str) -> str:
    """Normalized rendering of a config: sorted sections and keys, one
    ``key = value`` per line.  The manifest digest hashes this form, so
    comment and ordering changes do not alter a run's identity."""
    return _render(_parse_ini(text))


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()


def _section(parser: configparser.ConfigParser, section: str) -> dict:
    """The keys given in a section, each converted to its type."""
    if not parser.has_section(section):
        return {}
    values = {}
    for key, raw in parser[section].items():
        kind = _SECTION_KEYS[section][key]
        try:
            values[key] = parser.BOOLEAN_STATES[raw.strip().lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"[{section}] {key}: cannot parse '{raw}' as {_TYPE_NAMES[kind]}"
            ) from exc
    return values


def parse_config(text: str, kind: str) -> RunConfig:
    """Validate a config for the given run kind (quench | sweep | verify)."""
    if kind not in _RUN_KINDS:
        raise ValueError(f"unknown run kind '{kind}'")
    parser = _parse_ini(text)

    for section in parser.sections():
        if section not in _ALL_SECTIONS:
            raise ConfigError(f"unknown config section '[{section}]'")
        allowed = _SECTION_KEYS.get(section)
        if allowed is not None:
            unknown = sorted(set(parser[section]).difference(allowed))
            if unknown:
                raise ConfigError(
                    f"unknown key(s) in [{section}]: {', '.join(unknown)}"
                )

    if kind == "verify":
        for section, key in _NOT_FOR_VERIFY:
            if parser.has_section(section) and key in parser[section]:
                raise ConfigError(f"[{section}] {key} does not apply to a verify run")

    run = _section(parser, "run")
    declared = run.get("kind", "").strip().lower()
    if declared and declared != kind:
        raise ConfigError(
            f"config declares kind '{declared}' but was invoked as '{kind}'"
        )

    needs_protocol = kind in ("quench", "sweep")
    beta = run.get("beta")
    if needs_protocol:
        if beta is None:
            raise ConfigError(f"[run] beta is required for a {kind} run")
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ConfigError(f"[run] beta must be positive and finite, got {beta}")

    protocol: Protocol | None = None
    warnings: tuple[str, ...] = ()
    if needs_protocol:
        if not parser.has_section("protocol"):
            raise ConfigError(f"a {kind} run needs a [protocol] section")
        protocol = from_config(dict(parser["protocol"]))
        report = validate(protocol)
        if not report.ok:
            raise ConfigError(
                "protocol failed validation: "
                + "; ".join(m for m in report.messages() if m.startswith("error"))
            )
        warnings = tuple(
            f.message for f in report.findings if f.severity == "warning"
        )
    elif parser.has_section("protocol"):
        raise ConfigError("a verify run takes no [protocol] section")

    integrator_values = _section(parser, "integrator")
    try:
        integrator = IntegratorConfig(**integrator_values)
    except ValueError as exc:
        raise ConfigError(f"[integrator] {exc}") from exc
    # the mode solver and the oracle sample the window on this grid
    if protocol is not None:
        t_i, t_f, points = protocol.t_i, protocol.t_f, integrator.grid_points
        if not np.all(np.diff(np.linspace(t_i, t_f, points)) > 0.0):
            raise ConfigError(
                f"the window [{t_i}, {t_f}] is too narrow for {points} grid points: "
                "their times would repeat"
            )

    oracle_values = _section(parser, "oracle")
    enabled = oracle_values.pop("enabled", True)
    # validated even when disabled; oracle samples share the mode grid.  A
    # verify run's oracle runs are the suite's own: it derives them, and
    # refuses settings at which one cannot be built.
    try:
        oracle = fock_oracle.OracleConfig(**oracle_values, grid_points=integrator.grid_points)
        if kind == "verify" and enabled:
            verification.oracle_configs(oracle)
    except ValueError as exc:
        raise ConfigError(f"[oracle] {exc}") from exc
    if not enabled:
        oracle = None

    # The thermal state at t_i is built at the initial frame frequency; a
    # fermion run needs it only for the oracle.
    if protocol is not None and (oracle is not None or protocol.kind != "fermion"):
        omega_i = initial_frame(protocol)[1]
        try:
            thermal_observables.theta(beta, omega_i, statistics=statistics_of(protocol))
        except ValueError as exc:
            raise ConfigError(f"no thermal state at t_i: {exc}") from exc
    if protocol is not None and protocol.kind == "oscillator":
        # the mode equations, the oracle's H and the frames at t_i (the
        # oracle's) and t_f divide by or scale with these; the profiles are
        # monotone between their ends, so the ends bound them
        for t in (protocol.t_i, protocol.t_f):
            end = evaluate(protocol, t)
            mass, omega = end.mass, end.omega
            for name, value in (
                ("2 m", 2.0 * mass), ("2 m omega", 2.0 * mass * omega), ("m omega^2", mass * omega * omega),
            ):
                if not math.isfinite(value):
                    raise ConfigError(
                        f"the oscillator's {name} = {value} at t = {t:.6g} is not finite "
                        f"(m = {mass:.6g}, omega = {omega:.6g})"
                    )
        omega_f = evaluate(protocol, protocol.t_f).omega
        if not omega_f >= sys.float_info.min:
            raise ConfigError(
                f"omega(t_f) = {omega_f} must be a positive normal float: the "
                "occupation is counted in the final static frame"
            )
    # the oracle's march: a bounded step count and finite generators
    if protocol is not None and oracle is not None:
        try:
            fock_oracle._check_march(protocol, oracle)
        except ValueError as exc:
            raise ConfigError(f"[oracle] {exc}") from exc

    sweep_key: str | None = None
    sweep_values: tuple[float, ...] = ()
    if kind == "sweep":
        if not parser.has_section("sweep"):
            raise ConfigError("a sweep run needs a [sweep] section")
        sweep = _section(parser, "sweep")
        if "key" not in sweep or "values" not in sweep:
            raise ConfigError("[sweep] needs both 'key' and 'values'")
        sweep_key = sweep["key"].strip().lower()
        if sweep_key.count(".") != 1:
            raise ConfigError(
                f"[sweep] key must look like 'section.key', got '{sweep_key}'"
            )
        section, _, key = sweep_key.partition(".")
        if section not in _ALL_SECTIONS - {"sweep"}:
            raise ConfigError(f"[sweep] key targets unknown section '{section}'")
        allowed = _SECTION_KEYS.get(section)
        if allowed is not None and key not in allowed:
            raise ConfigError(f"[sweep] key targets unknown key '{key}' in [{section}]")
        try:
            sweep_values = tuple(
                float(v) for v in sweep["values"].split(",") if v.strip()
            )
        except ValueError as exc:
            raise ConfigError(f"[sweep] values must be numbers: {exc}") from exc
        if not sweep_values:
            raise ConfigError("[sweep] values must contain at least one number")
    elif parser.has_section("sweep"):
        raise ConfigError(f"a {kind} run takes no [sweep] section (use the sweep verb)")

    canonical = _render(parser)
    return RunConfig(
        kind=kind,
        beta=beta,
        protocol=protocol,
        integrator=integrator,
        oracle=oracle,
        sweep_key=sweep_key,
        sweep_values=sweep_values,
        canonical_text=canonical,
        digest=_digest(canonical),
        protocol_warnings=warnings,
    )


def load_config(path: str | Path, kind: str) -> RunConfig:
    """Read and validate a config file for the given run kind."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, kind)


# ---------------------------------------------------------------------------
# CSV and manifest output
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, columns: list[tuple[str, np.ndarray]]) -> None:
    """Write labelled columns; headers carry units in brackets."""
    length = len(columns[0][1])
    for name, data in columns:
        if len(data) != length:
            raise ValueError(f"column '{name}' has length {len(data)} != {length}")
    # row by row from one float table, each cell as _fmt writes it
    table = np.column_stack([np.asarray(data, dtype=float) for _, data in columns])
    template = ",".join(["%.17g"] * len(columns))
    lines = [",".join(name for name, _ in columns)]
    lines += [template % tuple(row) for row in table.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest_skeleton(config: RunConfig) -> dict:
    return {
        "tool": "tfdyn",
        "version": __version__,
        "kind": config.kind,
        "config_digest": config.digest,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# ---------------------------------------------------------------------------
# quench runs
# ---------------------------------------------------------------------------

# unit tags of the modes.csv columns that are not dimensionless
_MODE_UNITS = {"v": "1/sqrt(mass*freq)", "v_dot": "sqrt(freq/mass)", "mass": "mass"}


def _mode_columns(traj) -> list[tuple[str, np.ndarray]]:
    """t, then each coefficient (re_/im_ parts when complex), then each meter."""
    columns = [("t [time]", traj.t)]
    for name, series in traj.columns.items():
        unit = _MODE_UNITS.get(name, "1")
        if np.iscomplexobj(series):
            columns += [(f"re_{name} [{unit}]", series.real), (f"im_{name} [{unit}]", series.imag)]
        else:
            columns.append((f"{name} [{unit}]", series))
    for meter in traj.drift:
        columns.append((f"{meter}_deviation [1]", traj.deviation(meter)))
    return columns


# observables whose final values the manifest reports (and a sweep summarises)
_FINAL_COLUMNS = ("nu_sq", "occupation_evolved", "production_a", "production_b")


def run_quench(config: RunConfig, out_dir: str | Path) -> dict:
    """Execute one quench run and write its artifact set.

    Returns the manifest (also written to ``manifest.json``); its ``finals``
    block holds the last row of the final-value observables.  May raise
    ``IntegrationError`` or ``TruncationError``; the output directory is
    made only once the solve and the observables are done, so in that case
    nothing is written and no directory is made.
    """
    if config.kind != "quench":
        raise ValueError(f"run_quench got a '{config.kind}' config")
    out = Path(out_dir)
    started = time.perf_counter()

    # built on each call, so that it reads the module's solvers as they are
    # bound now: a wrapper rebound in their place (a tracer's) takes effect
    solve = {
        "boson": solve_boson_mode,
        "oscillator": solve_oscillator_mode,
        "fermion": solve_fermion_modes,
    }[config.protocol.kind]
    traj = solve(config.protocol, config.integrator)
    observables, doubled = verification.quench_observables(
        traj, config.beta, oracle=config.oracle
    )

    manifest = _manifest_skeleton(config)
    manifest.update(
        {
            "statistics": statistics_of(config.protocol),
            "beta": config.beta,
            "protocol_warnings": list(config.protocol_warnings),
            "integrator_stats": asdict(traj.stats),
            "drift": {k: float(v) for k, v in traj.drift.items()},
            "finals": {
                name: float(values[-1])
                for name, values in verification._unitless(observables).items()
                if name in _FINAL_COLUMNS
            },
            "checks": [],
            "outputs": ["modes.csv", "observables.csv"],
        }
    )
    if doubled is not None:
        # the fermion spaces are exact: no level count reaches their march
        levels = {} if manifest["statistics"] == "fermion" else {"n_levels": config.oracle.n_levels}
        manifest["oracle"] = {
            "enabled": True,
            **levels,
            "substeps_per_unit": config.oracle.substeps_per_unit,
            "exponentials": doubled.exponentials,
            "decompositions": doubled.decompositions,
            "max_tail_weight": float(np.max(doubled.tail_weight)),
            "max_norm_deviation": float(np.max(doubled.norm_deviation)),
        }
    else:
        manifest["oracle"] = {"enabled": False}

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "modes.csv", _mode_columns(traj))
    _write_csv(out / "observables.csv", observables)
    manifest["duration_seconds"] = time.perf_counter() - started
    _write_manifest(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _entry_text(base_text: str, sweep_key: str, value: float) -> str:
    """Derive a standalone quench config for one grid point."""
    parser = _parse_ini(base_text)
    parser.remove_section("sweep")
    if parser.has_section("run"):
        parser.set("run", "kind", "quench")
    section, _, key = sweep_key.partition(".")
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, _fmt(value))
    return _render(parser)


def _run_sweep_entry(entry_config: RunConfig, entry_dir: str) -> dict:
    """Worker body: run one parsed grid point in isolation."""
    manifest = run_quench(entry_config, entry_dir)
    return {
        key: manifest[key]
        for key in ("config_digest", "drift", "finals", "duration_seconds")
    }


def run_sweep(config: RunConfig, out_dir: str | Path) -> dict:
    """Run the parameter grid and assemble the summary in grid order.

    Every entry's derived config is parsed once, before any work is
    scheduled, so an invalid grid value fails the sweep with no entry run
    and no output directory made.
    Worker count comes from the ``TFDYN_WORKERS`` environment variable
    (default 1, serial), clamped to the number of entries and of CPUs the
    process may run on; each worker process gives the oracle its share of
    those CPUs.  Entries share no state, so the artifacts are identical
    however the grid is scheduled.
    """
    if config.kind != "sweep":
        raise ValueError(f"run_sweep got a '{config.kind}' config")
    out = Path(out_dir)
    started = time.perf_counter()

    entries = []
    for index, value in enumerate(config.sweep_values):
        text = _entry_text(config.canonical_text, config.sweep_key, value)
        entry_config = parse_config(text, "quench")  # fail before anything is written
        entries.append((index, value, entry_config, str(out / f"entry_{index:03d}")))
    out.mkdir(parents=True, exist_ok=True)

    workers_raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        requested = int(workers_raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got '{workers_raw}'") from exc
    # a fork-based pool starts every requested worker at the first submit
    cpus = fock_oracle._available_cpus()
    workers = max(1, min(requested, len(entries), cpus))

    if workers == 1:
        results = [
            _run_sweep_entry(entry_config, entry_dir) for _, _, entry_config, entry_dir in entries
        ]
    else:
        # imported here: the pool machinery costs every other run its import
        from concurrent.futures import ProcessPoolExecutor

        # each worker's oracle threads take its share of the CPUs
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=fock_oracle._set_thread_share,
            initargs=(max(1, cpus // workers),),
        ) as pool:
            _, _, entry_configs, entry_dirs = zip(*entries)
            results = list(pool.map(_run_sweep_entry, entry_configs, entry_dirs))

    final_keys = sorted(results[0]["finals"])
    drift_keys = sorted(results[0]["drift"])
    columns: list[tuple[str, np.ndarray]] = [
        ("index [1]", np.arange(len(entries), dtype=float)),
        (f"{config.sweep_key} [1]", np.array([value for _, value, _, _ in entries])),
    ]
    for key in final_keys:
        columns.append(
            (f"final_{key} [1]", np.array([r["finals"][key] for r in results]))
        )
    for key in drift_keys:
        columns.append(
            (f"max_{key}_deviation [1]", np.array([r["drift"][key] for r in results]))
        )
    _write_csv(out / "sweep_summary.csv", columns)

    manifest = _manifest_skeleton(config)
    manifest.update(
        {
            "sweep_key": config.sweep_key,
            "entries": [
                {
                    "index": index,
                    "value": value,
                    "dir": f"entry_{index:03d}",
                    **results[index],
                }
                for index, value, _, _ in entries
            ],
            "checks": [],
            "outputs": ["sweep_summary.csv"]
            + [f"entry_{i:03d}" for i in range(len(entries))],
            "duration_seconds": time.perf_counter() - started,
        }
    )
    _write_manifest(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def run_verify(
    config: RunConfig | None, out_dir: str | Path | None = None
) -> tuple[dict, list[verification.CheckResult]]:
    """Execute the acceptance suite; manifest lists every check exactly once.

    Each check record carries its wall time (``duration_seconds``), and
    ``shared_runs_seconds`` is the time of the runs that several checks read,
    each built on first read.  ``config=None`` runs the empty verify config,
    i.e. the default settings.
    """
    if config is None:
        config = parse_config("", "verify")
    if config.kind != "verify":
        raise ValueError(f"run_verify got a '{config.kind}' config")
    started = time.perf_counter()
    skeleton = _manifest_skeleton(config)

    timings: dict[str, float] = {}
    results = verification.run_all(config.integrator, config.oracle, timings=timings)
    skeleton["shared_runs_seconds"] = timings["shared_runs"]
    skeleton["checks"] = [
        {
            "name": r.name,
            "status": "skipped" if r.skipped else ("pass" if r.passed else "fail"),
            "measured": None if r.skipped else r.measured,
            "tolerance": None if r.skipped else r.tolerance,
            "detail": r.detail,
            "duration_seconds": r.duration_seconds,
        }
        for r in results
    ]
    skeleton["all_passed"] = all(r.passed for r in results if not r.skipped)
    skeleton["duration_seconds"] = time.perf_counter() - started

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out / "manifest.json", skeleton)
    return skeleton, results
