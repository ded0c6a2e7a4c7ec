"""End-to-end tests for config parsing, run artifacts, and the CLI verbs."""

import concurrent.futures
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfdyn
from tfdyn import ConfigError, canonical_config_text, parse_config, run_quench, run_sweep, run_verify
from tfdyn import statistics_of
from tfdyn import cli_runner
from tfdyn.cli import main
from tfdyn.cli_runner import WORKERS_ENV_VAR, _fmt

QUENCH_CONSTANT = """
[run]
kind = quench
beta = {beta}

[protocol]
kind = boson
family = constant
value = 1.0
t_i = 0.0
t_f = 2.0

[integrator]
grid_points = 9

[oracle]
n_levels = 32
substeps_per_unit = 200
"""

# QUENCH_CONSTANT's drive, and a tanh ramp of it to put in its place
CONSTANT_DRIVE = "kind = boson\nfamily = constant\nvalue = 1.0"
TANH_DRIVE = (
    "kind = boson\nfamily = tanh\nvalue_initial = 1.0\nvalue_final = 2.0\n"
    "center = 1.0\nwidth = 0.5"
)

# an oscillator whose omega ramps linearly from 1 to ``final`` over QUENCH_CONSTANT's window
OMEGA_RAMP = "kind = oscillator\nfamily = linear\nvalue_initial = 1.0\nvalue_final = {final}"

# an oscillator whose mass drops from 1e308 to 2 at t = 1: in the initial
# mass's frame the oracle's generator after the drop would overflow
MASS_DROP = (
    "kind = oscillator\nfamily = sudden\ndrive = mass\nvalue_initial = 1e308\n"
    "value_final = 2.0\nt_jump = 1.0\nomega = 1.0"
)

SWEEP_TEXT = """
[run]
kind = sweep
beta = 1.0

[protocol]
kind = oscillator
family = tanh
value_initial = 1.0
value_final = 2.0
center = 0.0
width = 1.0
t_i = -32.0
t_f = 32.0

[integrator]
grid_points = 11

[oracle]
enabled = false

[sweep]
key = protocol.width
values = 1.0, 2.0
"""
SWEEP_WIDTHS = "key = protocol.width\nvalues = 1.0, 2.0"

MODES_HEADERS = {
    "boson": (
        "t [time],re_f_minus [1],im_f_minus [1],re_f_plus [1],im_f_plus [1],"
        "commutator_deviation [1]"
    ),
    "oscillator": (
        "t [time],re_v [1/sqrt(mass*freq)],im_v [1/sqrt(mass*freq)],"
        "re_v_dot [sqrt(freq/mass)],im_v_dot [sqrt(freq/mass)],mass [mass],"
        "wronskian_deviation [1]"
    ),
    "fermion": (
        "t [time],re_f_a_minus [1],im_f_a_minus [1],re_f_a_plus [1],im_f_a_plus [1],"
        "re_g_a_minus [1],im_g_a_minus [1],re_g_a_plus [1],im_g_a_plus [1],"
        "re_f_b_minus [1],im_f_b_minus [1],re_f_b_plus [1],im_f_b_plus [1],"
        "re_g_b_minus [1],im_g_b_minus [1],re_g_b_plus [1],im_g_b_plus [1],"
        "norm_a_deviation [1],norm_b_deviation [1],anticommutator_ab_deviation [1],"
        "anticommutator_adag_b_deviation [1]"
    ),
}

OBSERVABLES_HEADERS = {
    ("boson", False): (
        "t [time],occupation_equilibrium [1],nu_sq [1],occupation_evolved [1],"
        "q2 [length^2],q4 [length^4]"
    ),
    ("fermion", False): "t [time],production_a [1],production_b [1]",
    ("boson", True): (
        "t [time],occupation_equilibrium [1],nu_sq [1],occupation_evolved [1],"
        "q2 [length^2],q4 [length^4],oracle_occupation [1],occupation_abs_diff [1],"
        "oracle_q2 [length^2],q2_abs_diff [length^2],oracle_q4 [length^4],"
        "q4_abs_diff [length^4],oracle_tail_weight [1]"
    ),
    ("fermion", True): (
        "t [time],production_a [1],production_b [1],oracle_occupation_a [1],"
        "oracle_occupation_b [1],oracle_condition_residual_max [1],oracle_tail_weight [1]"
    ),
}
OBSERVABLES_HEADERS["oscillator", False] = OBSERVABLES_HEADERS["boson", False]
OBSERVABLES_HEADERS["oscillator", True] = OBSERVABLES_HEADERS["boson", True]

MASS_JUMP = """
[run]
kind = quench
beta = 1.0

[protocol]
kind = oscillator
family = sudden
drive = mass
value_initial = 1.0
value_final = 2.0
t_jump = 1.0
omega = 1.0
t_i = 0.0
t_f = 2.0

[integrator]
grid_points = 101

[oracle]
n_levels = 60
"""

VERIFY_FAST = """
[run]
kind = verify

[oracle]
enabled = false
"""

VERIFY_ORACLE = """
[run]
kind = verify

[oracle]
n_levels = 32
"""


def _read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def _read_csv(path):
    """Read a runner CSV keyed by the full ``name [unit]`` header strings."""
    lines = path.read_text().splitlines()
    body = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return {name: body[:, k] for k, name in enumerate(lines[0].split(","))}


class TestParseConfig:
    def test_minimal_quench_accepted(self):
        cfg = parse_config(QUENCH_CONSTANT.format(beta=math.log(2.0)), "quench")
        assert cfg.kind == "quench"
        assert statistics_of(cfg.protocol) == "boson"
        assert cfg.integrator.grid_points == 9
        assert cfg.oracle.n_levels == 32
        assert cfg.oracle.grid_points == 9  # oracle samples share the mode grid

    def test_unknown_section_rejected(self):
        text = QUENCH_CONSTANT.format(beta=1.0) + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError, match="extras"):
            parse_config(text, "quench")

    def test_unknown_key_rejected(self):
        text = QUENCH_CONSTANT.format(beta=1.0).replace("beta =", "betta =")
        with pytest.raises(ConfigError, match="betta"):
            parse_config(text, "quench")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="declares kind"):
            parse_config(QUENCH_CONSTANT.format(beta=1.0), "sweep")

    def test_quench_requires_beta(self):
        text = QUENCH_CONSTANT.format(beta=1.0).replace("beta = 1.0", "")
        with pytest.raises(ConfigError, match="beta"):
            parse_config(text, "quench")

    def test_verify_takes_no_protocol(self):
        text = VERIFY_FAST + "\n[protocol]\nkind = boson\nfamily = constant\nvalue = 1\nt_i = 0\nt_f = 1\n"
        with pytest.raises(ConfigError, match="protocol"):
            parse_config(text, "verify")

    def test_quench_takes_no_sweep_section(self):
        text = QUENCH_CONSTANT.format(beta=1.0) + "\n[sweep]\nkey = run.beta\nvalues = 1\n"
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(text, "quench")

    def test_sweep_key_must_be_dotted_and_known(self):
        for bad in ("width", "protocol.width.extra", "nosection.width", "run.nokey", "run.hbar"):
            text = SWEEP_TEXT.replace("key = protocol.width", f"key = {bad}")
            with pytest.raises(ConfigError):
                parse_config(text, "sweep")

    def test_sweep_values_must_be_numbers(self):
        text = SWEEP_TEXT.replace("values = 1.0, 2.0", "values = 1.0, fast")
        with pytest.raises(ConfigError, match="number"):
            parse_config(text, "sweep")

    @pytest.mark.parametrize(
        "section, key, expected",
        [
            ("run", "beta", "a number"),
            ("integrator", "rel_tol", "a number"),
            ("integrator", "abs_tol", "a number"),
            ("integrator", "grid_points", "an integer"),
            ("oracle", "n_levels", "an integer"),
            ("oracle", "substeps_per_unit", "a number"),
            ("oracle", "enabled", "a boolean"),
        ],
    )
    def test_unparsable_value_names_its_section_once(self, section, key, expected):
        lines = QUENCH_CONSTANT.format(beta=1.0).splitlines()
        text = "\n".join(line for line in lines if not line.startswith(f"{key} ="))
        text = text.replace(f"[{section}]", f"[{section}]\n{key} = x")
        with pytest.raises(ConfigError) as info:
            parse_config(text, "quench")
        assert str(info.value) == f"[{section}] {key}: cannot parse 'x' as {expected}"

    def test_rel_tol_below_100_machine_epsilons_refused(self):
        text = QUENCH_CONSTANT.format(beta=1.0).replace(
            "grid_points = 9", "grid_points = 9\nrel_tol = 1e-17"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(text, "quench")
        assert str(info.value) == (
            "[integrator] rel_tol must be at least 2.220446049250313e-14 "
            "(100 machine epsilons), got 1e-17"
        )

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("grid_points = 9", "grid_points = 9\nrel_tol = inf", "rel_tol = inf"),
            ("grid_points = 9", "grid_points = 9\nabs_tol = inf", "abs_tol = inf"),
            ("width = 0.5", "width = inf", "width = inf"),
            ("center = 1.0", "center = inf", "center = inf"),
            ("center = 1.0", "center = -inf", "center = -inf"),
        ],
        ids=["rel_tol", "abs_tol", "width", "center", "center_negative"],
    )
    def test_non_finite_setting_refused_by_name(self, old, new, named):
        """An infinite tolerance passes a lower bound and would accept every
        step; an infinite tanh width or center makes the ramp a constant."""
        text = QUENCH_CONSTANT.format(beta=1.0).replace(CONSTANT_DRIVE, TANH_DRIVE)
        parse_config(text, "quench")
        with pytest.raises(ConfigError, match="must be .*finite") as info:
            parse_config(text.replace(old, new), "quench")
        assert named in str(info.value)

    def test_invalid_protocol_value_is_config_error(self):
        text = QUENCH_CONSTANT.format(beta=1.0).replace("value = 1.0", "value = much")
        with pytest.raises(ConfigError):
            parse_config(text, "quench")

    def test_unknown_run_kind_refused(self):
        with pytest.raises(ValueError, match="unknown run kind 'bogus'"):
            parse_config("", "bogus")

    @pytest.mark.parametrize(
        "kind, old, new, message",
        [
            ("quench", "[protocol]\nkind = boson\nfamily = constant\nvalue = 1.0\nt_i = 0.0\n"
             "t_f = 2.0\n", "", "a quench run needs a [protocol] section"),
            ("sweep", "[sweep]\nkey = protocol.width\nvalues = 1.0, 2.0\n", "",
             "a sweep run needs a [sweep] section"),
            ("sweep", "values = 1.0, 2.0\n", "", "[sweep] needs both 'key' and 'values'"),
            ("sweep", "values = 1.0, 2.0", "values = ,",
             "[sweep] values must contain at least one number"),
        ],
        ids=[
            "quench_without_protocol", "sweep_without_sweep", "sweep_without_values",
            "sweep_values_empty",
        ],
    )
    def test_missing_sections_and_values_refused(self, kind, old, new, message):
        text = QUENCH_CONSTANT.format(beta=1.0) if kind == "quench" else SWEEP_TEXT
        assert old in text
        with pytest.raises(ConfigError) as info:
            parse_config(text.replace(old, new), kind)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (CONSTANT_DRIVE, OMEGA_RAMP.format(final="-1.0"),
             "omega(t_f) = -1.0 must be a positive normal float: the occupation is "
             "counted in the final static frame"),
            (CONSTANT_DRIVE, OMEGA_RAMP.format(final="1e-320"),
             "omega(t_f) = 1e-320 must be a positive normal float: the occupation is "
             "counted in the final static frame"),
            ("t_f = 2.0", "t_f = 5e-324",
             "the window [0.0, 5e-324] is too narrow for 9 grid points: their times would repeat"),
            ("t_i = 0.0\nt_f = 2.0", "t_i = -1e308\nt_f = 1e308",
             "protocol window is too wide: t_f - t_i overflows for [-1e+308, 1e+308]"),
        ],
        ids=["omega_final_negative", "omega_final_subnormal", "narrow_window", "wide_window"],
    )
    def test_unusable_window_or_final_frame_refused(self, old, new, message):
        """An oscillator's occupation is counted in its final static frame,
        and the mode solver and the oracle sample the window on the grid."""
        text = QUENCH_CONSTANT.format(beta=1.0).replace(old, new)
        for oracle in ("n_levels = 32", "enabled = false"):
            with pytest.raises(ConfigError) as info:
                parse_config(text.replace("n_levels = 32", oracle), "quench")
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("substeps_per_unit = 200", "substeps_per_unit = 1e308",
             "[oracle] the march on [0, 2] at substeps_per_unit = 1e+308 would take 1e+308 "
             "steps, more than the cap of 1000000"),
            (CONSTANT_DRIVE, MASS_DROP,
             "[oracle] H at t = 2 has a coefficient above 3.78e+303, at which the oracle's "
             "generators would not be finite"),
        ],
        ids=["substeps_1e308", "mass_1e308"],
    )
    def test_unbounded_oracle_march_refused(self, old, new, message):
        """With the oracle on, a march past the step cap or whose generators
        would not be finite is refused, before any march allocates; with it
        off the same config parses."""
        import tracemalloc

        text = QUENCH_CONSTANT.format(beta=1.0).replace(old, new)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as info:
                parse_config(text, "quench")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1e6
        assert parse_config(text.replace("n_levels = 32", "enabled = false"), "quench").oracle is None

    @pytest.mark.parametrize("final", ["2.2250738585072014e-308", "1e-305"])
    def test_omega_ending_at_a_tiny_normal_float_runs(self, tmp_path, final):
        """The smallest normal omega(t_f) is a frame the occupation can be
        counted in: the run writes finite values."""
        drive = OMEGA_RAMP.format(final=final)
        text = QUENCH_CONSTANT.format(beta=1.0).replace(CONSTANT_DRIVE, drive)
        text = text.replace("n_levels = 32\nsubsteps_per_unit = 200", "enabled = false")
        run_quench(parse_config(text, "quench"), tmp_path)
        for name in ("modes.csv", "observables.csv"):
            for values in _read_csv(tmp_path / name).values():
                assert np.all(np.isfinite(values)), name

    def test_verify_refuses_an_oracle_whose_wide_box_cannot_be_built(self):
        """The suite derives c07c's box from n_levels and refuses it at parse
        time, with the cap the doubled space gives."""
        with pytest.raises(ConfigError) as info:
            parse_config(VERIFY_ORACLE.replace("n_levels = 32", "n_levels = 129"), "verify")
        assert str(info.value) == (
            "[oracle] n_levels = 129: verify runs check c07c at 258 levels, and doubled "
            "boson space capped at 256 levels (dimension 65536), got 258"
        )


class TestCanonicalText:
    def test_digest_invariant_under_formatting(self):
        a = QUENCH_CONSTANT.format(beta=1.0)
        # Same content: sections and keys permuted, noise whitespace, comments.
        b = """
; a comment
[oracle]
substeps_per_unit = 200
n_levels =   32

[integrator]
grid_points = 9

[protocol]
t_f = 2.0
t_i = 0.0
value = 1.0
family = constant
kind = boson

[run]
beta = 1.0   ; inline comment
kind = quench
"""
        assert canonical_config_text(a) == canonical_config_text(b)
        assert parse_config(b, "quench").canonical_text == canonical_config_text(a)
        assert parse_config(a, "quench").digest == parse_config(b, "quench").digest

    def test_digest_sensitive_to_values(self):
        a = parse_config(QUENCH_CONSTANT.format(beta=1.0), "quench")
        b = parse_config(QUENCH_CONSTANT.format(beta=2.0), "quench")
        assert a.digest != b.digest

    def test_fmt_round_trips_doubles(self):
        for x in (1.0, 1.0 / 3.0, 6.626e-34, -0.0, 2.0 ** 0.5):
            assert float(_fmt(x)) == x
        assert _fmt(math.nan) == "nan"


def _frozen_write_csv(path, columns):
    """cli_runner._write_csv as it was: one format(x, ".17g") call per cell."""
    table = np.column_stack([np.asarray(data, dtype=float) for _, data in columns])
    lines = [",".join(name for name, _ in columns)]
    lines += [",".join(format(x, ".17g") for x in row.tolist()) for row in table]
    path.write_text("\n".join(lines) + "\n")


def test_write_csv_matches_frozen_writer(tmp_path):
    """The one-template row writer against the per-cell writer it replaced,
    byte for byte: signed zeros, non-finite values, subnormals, integers,
    huge and tiny magnitudes, one to fifteen columns."""
    rng = np.random.default_rng(20260817)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1.7e308]
    for case in range(40):
        rows, width = int(rng.integers(1, 60)), int(rng.integers(1, 16))
        columns = []
        for j in range(width):
            data = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
            special = rng.random(rows) < 0.2
            data[special] = rng.choice(specials, int(special.sum()))
            if j == 0 and case % 4 == 0:
                data = rng.integers(-10**6, 10**6, rows)  # an integer column
            columns.append((f"c{j} [unit]", data))
        cli_runner._write_csv(tmp_path / "new.csv", columns)
        _frozen_write_csv(tmp_path / "old.csv", columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.fixture(scope="module")
def quench_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("quench")
    config = parse_config(QUENCH_CONSTANT.format(beta=math.log(2.0)), "quench")
    manifest = run_quench(config, out)
    return out, manifest


class TestRunQuench:
    def test_artifacts_written(self, quench_out):
        out, manifest = quench_out
        assert (out / "modes.csv").exists()
        assert (out / "observables.csv").exists()
        assert (out / "manifest.json").exists()
        assert manifest["outputs"] == ["modes.csv", "observables.csv"]

    def test_constant_protocol_distribution_static(self, quench_out):
        """At beta*omega = ln 2 the equilibrium occupation is exactly 1
        and must stay there for a constant Hamiltonian."""
        out, _ = quench_out
        rows = _read_csv(out / "observables.csv")
        occ = rows["occupation_evolved [1]"]
        assert np.max(np.abs(occ - 1.0)) < 1e-12
        assert np.max(rows["nu_sq [1]"]) < 1e-12

    def test_oracle_column_agrees(self, quench_out):
        """Agreement is limited by the truncated thermal tail: at beta = ln 2
        and n_levels = 32 the occupation deficit is ~32 * 2**-32 ~ 7e-9."""
        out, _ = quench_out
        rows = _read_csv(out / "observables.csv")
        assert np.max(rows["occupation_abs_diff [1]"]) < 1e-7

    def test_manifest_bookkeeping(self, quench_out):
        out, manifest = quench_out
        assert manifest["kind"] == "quench"
        assert manifest["beta"] == math.log(2.0) and "hbar" not in manifest
        assert manifest["checks"] == []  # populated only by verify runs
        assert manifest["oracle"]["enabled"] is True
        assert set(manifest["oracle"]) == {
            "enabled", "n_levels", "substeps_per_unit", "exponentials", "max_tail_weight",
            "max_norm_deviation",
        }
        # one exponential per parity block on each of the 8 constant intervals
        assert manifest["oracle"]["exponentials"] == 8 * 2
        rows = _read_csv(out / "observables.csv")
        assert manifest["oracle"]["max_tail_weight"] == max(rows["oracle_tail_weight [1]"])
        assert manifest["drift"]["commutator"] < 1e-9
        assert len(manifest["config_digest"]) == 64

    def test_finals_are_last_observables_row(self, quench_out):
        out, manifest = quench_out
        rows = _read_csv(out / "observables.csv")
        assert manifest["finals"] == {
            "nu_sq": rows["nu_sq [1]"][-1],
            "occupation_evolved": rows["occupation_evolved [1]"][-1],
        }
        assert _read_manifest(out)["finals"] == manifest["finals"]

    def test_reruns_are_byte_identical(self, quench_out, tmp_path):
        out, manifest = quench_out
        config = parse_config(QUENCH_CONSTANT.format(beta=math.log(2.0)), "quench")
        second = run_quench(config, tmp_path)
        for name in ("modes.csv", "observables.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        a = _read_manifest(out)
        b = _read_manifest(tmp_path)
        for volatile in ("created_utc", "duration_seconds"):
            a.pop(volatile), b.pop(volatile)
        assert a == b

    def test_sudden_mass_jump_agrees_with_the_oracle(self, tmp_path):
        """v and m v' carry over a mass jump.  The occupation is projected on
        the final frame on every row, before the jump too, where the mode's
        mass differs from the frame's."""
        manifest = run_quench(parse_config(MASS_JUMP, "quench"), tmp_path)
        assert manifest["drift"]["wronskian"] < 1e-9
        rows = _read_csv(tmp_path / "observables.csv")
        for name in ("occupation_abs_diff [1]", "q2_abs_diff [length^2]"):
            assert np.all(np.isfinite(rows[name]))
            assert np.max(rows[name]) < 1e-6

    @pytest.mark.parametrize("kind", sorted(MODES_HEADERS))
    def test_modes_csv_header(self, tmp_path, kind):
        """The modes.csv and observables.csv schema of each kind, with the
        oracle off and on: column names, order and units."""
        for oracle in (False, True):
            text = QUENCH_CONSTANT.format(beta=1.0)
            if not oracle:
                text = text.replace("n_levels = 32", "enabled = false")
            # a constant fermion drive would couple the modes at t_i
            drive = "\ndrive = omega0" if kind == "fermion" else ""
            text = text.replace("kind = boson", f"kind = {kind}{drive}")
            out = tmp_path / f"oracle_{oracle}"
            run_quench(parse_config(text, "quench"), out)
            header = (out / "modes.csv").read_text().splitlines()[0]
            assert header == MODES_HEADERS[kind]
            header = (out / "observables.csv").read_text().splitlines()[0]
            assert header == OBSERVABLES_HEADERS[kind, oracle]

    @pytest.mark.parametrize("kind", sorted(MODES_HEADERS))
    def test_manifest_reports_n_levels_only_for_a_boson_space(self, tmp_path, kind):
        """A boson or oscillator march runs on the configured truncation; the
        fermion march runs on the exact 16-dim space and reads no level
        count, so its manifest reports none."""
        drive = "\ndrive = omega0" if kind == "fermion" else ""
        text = QUENCH_CONSTANT.format(beta=1.0).replace("n_levels = 32", "n_levels = 40")
        manifest = run_quench(
            parse_config(text.replace("kind = boson", f"kind = {kind}{drive}"), "quench"), tmp_path
        )
        assert manifest["oracle"]["enabled"] is True
        if kind == "fermion":
            assert "n_levels" not in manifest["oracle"]
        else:
            assert manifest["oracle"]["n_levels"] == 40
        assert _read_manifest(tmp_path)["oracle"] == manifest["oracle"]

    def test_manifest_counts_the_oracles_exponentials(self, tmp_path):
        """A fermion pairing ramp like the bench's: each of its 20 output
        intervals is one piece, which varies along one unit generator on
        each parity sector and takes one exponential there."""
        text = (
            "[run]\nkind = quench\nbeta = 1.0\n[protocol]\nkind = fermion\nfamily = tanh\n"
            "value_initial = 0\nvalue_final = 0.3\ncenter = 1.0\nwidth = 0.1\nomega0 = 1.0\n"
            "t_i = 0\nt_f = 2.0\n[integrator]\ngrid_points = 21\n"
        )
        manifest = run_quench(parse_config(text, "quench"), tmp_path)
        assert manifest["oracle"]["exponentials"] == 20 * 2
        assert _read_manifest(tmp_path)["oracle"] == manifest["oracle"]

    def test_the_mode_solver_is_read_when_called(self, tmp_path, monkeypatch):
        """run_quench calls the solver bound in the module at call time, so a
        wrapper rebound in its place (as a tracer installs one) is the one
        that runs."""
        calls = []
        solve = cli_runner.solve_oscillator_mode

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli_runner, "solve_oscillator_mode", counting)
        text = QUENCH_CONSTANT.format(beta=1.0).replace("n_levels = 32", "enabled = false")
        config = parse_config(text.replace("kind = boson", "kind = oscillator"), "quench")
        run_quench(config, tmp_path)
        assert calls == [(config.protocol, config.integrator)]


class TestRunSweep:
    def test_entries_and_summary(self, tmp_path):
        config = parse_config(SWEEP_TEXT, "sweep")
        manifest = run_sweep(config, tmp_path)
        assert len(manifest["entries"]) == 2
        assert (tmp_path / "sweep_summary.csv").exists()
        assert (tmp_path / "entry_000" / "observables.csv").exists()
        assert (tmp_path / "entry_001" / "observables.csv").exists()
        rows = _read_csv(tmp_path / "sweep_summary.csv")
        # Slower ramp -> less production; grid order preserved.
        width = rows["protocol.width [1]"]
        nu_sq = rows["final_nu_sq [1]"]
        assert list(rows["index [1]"]) == [0.0, 1.0]
        assert list(width) == [1.0, 2.0]
        assert nu_sq[0] > nu_sq[1] > 0.0
        assert np.max(rows["max_wronskian_deviation [1]"]) < 1e-8

    def test_sweep_key_may_target_a_section_the_base_lacks(self, tmp_path):
        """Each entry's config gains the swept key in a section of its own."""
        text = SWEEP_TEXT.replace("[integrator]\ngrid_points = 11\n", "")
        text = text.replace("key = protocol.width", "key = integrator.rel_tol")
        text = text.replace("values = 1.0, 2.0", "values = 1e-8, 1e-10")
        config = parse_config(text, "sweep")
        assert "[integrator]" not in config.canonical_text
        manifest = run_sweep(config, tmp_path)
        for entry, value in zip(manifest["entries"], ("1e-08", "1e-10"), strict=True):
            entry_text = cli_runner._entry_text(
                config.canonical_text, config.sweep_key, float(value)
            )
            assert f"[integrator]\nrel_tol = {value}\n" in entry_text
            assert entry["config_digest"] == parse_config(entry_text, "quench").digest
        drift = [entry["drift"]["wronskian"] for entry in manifest["entries"]]
        assert drift[1] < drift[0] < 1e-6

    @pytest.mark.parametrize(
        "key, values", [("protocol.width", "1.0, -1"), ("run.beta", "1.0, inf")]
    )
    def test_invalid_grid_value_fails_before_any_entry(self, tmp_path, key, values):
        text = SWEEP_TEXT.replace("key = protocol.width", f"key = {key}")
        text = text.replace("values = 1.0, 2.0", f"values = {values}")
        config = parse_config(text, "sweep")
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            run_sweep(config, tmp_path)
        assert not (tmp_path / "entry_000").exists()

    @pytest.mark.parametrize(
        "requested, cpus, pool_size",
        [("2", 8, 2), ("64", 8, 3), ("64", 2, 2), ("64", 1, None), ("0", 8, None)],
    )
    def test_worker_count_clamped(self, tmp_path, monkeypatch, requested, cpus, pool_size):
        """The pool never exceeds the entry count or the CPU count, and each
        worker's oracle gets its share of the CPUs; a recording stand-in runs
        the entries in-process instead of forking."""
        monkeypatch.setattr(cli_runner.fock_oracle, "_available_cpus", lambda: cpus)
        sizes = self._run_recorded(tmp_path, monkeypatch, requested)
        assert sizes == ([] if pool_size is None else [(pool_size, (cpus // pool_size,))])

    def test_worker_count_clamped_to_affinity_mask(self, tmp_path, monkeypatch):
        """CPUs outside the process's affinity mask count for nothing."""
        monkeypatch.setattr(cli_runner.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli_runner.os, "sched_getaffinity", lambda pid: {2, 3}, raising=False)
        assert self._run_recorded(tmp_path, monkeypatch, "64") == [(2, (1,))]

    @staticmethod
    def _run_recorded(tmp_path, monkeypatch, requested):
        """Runs a three-entry sweep and returns each pool's (size, initargs)."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                assert initializer is cli_runner.fock_oracle._set_thread_share
                sizes.append((max_workers, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_sweep imports the pool class where it uses it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv(WORKERS_ENV_VAR, requested)
        text = SWEEP_TEXT.replace("values = 1.0, 2.0", "values = 1.0, 2.0, 3.0")
        manifest = run_sweep(parse_config(text, "sweep"), tmp_path)
        assert len(manifest["entries"]) == 3
        return sizes

    def test_parallel_workers_bitwise_match_serial(self, tmp_path, monkeypatch):
        config = parse_config(SWEEP_TEXT, "sweep")
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        serial = tmp_path / "serial"
        run_sweep(config, serial)
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        parallel = tmp_path / "parallel"
        run_sweep(config, parallel)
        assert (serial / "sweep_summary.csv").read_bytes() == (
            parallel / "sweep_summary.csv"
        ).read_bytes()
        for entry in ("entry_000", "entry_001"):
            for name in ("modes.csv", "observables.csv"):
                assert (serial / entry / name).read_bytes() == (
                    parallel / entry / name
                ).read_bytes()

    def test_parallel_oracle_sweep_after_pooled_quench(self, tmp_path):
        """A process whose oracle has run its thread pool can still fork
        sweep workers: the oracle-on sweep finishes, matches the serial sweep
        byte for byte, and no thread outlives its run.  Runs in a child
        process, so that a deadlock shows as a timeout."""
        if cli_runner.fock_oracle._openblas_threads() is None:
            pytest.skip("numpy carries no OpenBLAS of its own, so the march runs on one thread")
        src =str(Path(tfdyn.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", FORK_AFTER_POOL_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["pool_threads"] >= 1, "the quench's march never left the calling thread"
        assert report["threads"] == [report["threads"][0]] * 3
        parallel, serial = tmp_path / "parallel", tmp_path / "serial"
        names = sorted(p.relative_to(serial) for p in serial.rglob("*.csv"))
        assert len(names) == 5
        assert names == sorted(p.relative_to(parallel) for p in parallel.rglob("*.csv"))
        for name in names:
            assert (parallel / name).read_bytes() == (serial / name).read_bytes()


ORACLE_QUENCH_TEXT = """
[run]
kind = quench
beta = 2.0

[protocol]
kind = oscillator
family = tanh
value_initial = 1.0
value_final = 1.3
center = 1.0
width = 0.3
t_i = 0.0
t_f = 2.0

[integrator]
grid_points = 11

[oracle]
n_levels = 30
substeps_per_unit = 200
"""

ORACLE_SWEEP_TEXT = ORACLE_QUENCH_TEXT.replace("kind = quench", "kind = sweep") + """
[sweep]
key = protocol.width
values = 0.3, 0.5
"""

# The child forces the pooled march (four CPUs, small tasks) in itself and,
# inherited through fork, in both sweep workers (two threads each).
FORK_AFTER_POOL_SCRIPT = f"""
import json, os, sys, threading
from pathlib import Path
from tfdyn import fock_oracle, parse_config, run_quench, run_sweep

fock_oracle._available_cpus = lambda: 4
fock_oracle._TASK_ELEMENTS = 2**12
build, builders = fock_oracle._propagators, set()

def recording(*args):
    builders.add(threading.get_ident())
    return build(*args)

fock_oracle._propagators = recording
out = Path(sys.argv[1])
quench = {ORACLE_QUENCH_TEXT!r}
sweep = parse_config({ORACLE_SWEEP_TEXT!r}, "sweep")
threads = [threading.active_count()]
run_quench(parse_config(quench, "quench"), out / "quench")
threads.append(threading.active_count())
os.environ["{WORKERS_ENV_VAR}"] = "2"
run_sweep(sweep, out / "parallel")
del os.environ["{WORKERS_ENV_VAR}"]
run_sweep(sweep, out / "serial")
threads.append(threading.active_count())
pool_threads = len(builders - {{threading.get_ident()}})
print(json.dumps({{"threads": threads, "pool_threads": pool_threads}}))
"""


class TestRunVerify:
    def test_manifest_lists_every_check_once(self, tmp_path):
        config = parse_config(VERIFY_FAST, "verify")
        manifest, results = run_verify(config, tmp_path)
        from tfdyn.verification import CHECK_NAMES

        names = [c["name"] for c in manifest["checks"]]
        assert sorted(names) == sorted(CHECK_NAMES)
        assert len(set(names)) == len(names)
        statuses = {c["status"] for c in manifest["checks"]}
        assert statuses <= {"pass", "fail", "skipped"}
        assert manifest["all_passed"] is True
        on_disk = _read_manifest(tmp_path)
        assert on_disk["checks"] == manifest["checks"]

    def test_manifest_times_each_check_and_the_shared_runs(self, tmp_path):
        """Each check's wall time (zero for a skipped one), and that of the
        shared runs, built on first read, which is not part of any check's time."""
        manifest, results = run_verify(parse_config(VERIFY_FAST, "verify"), tmp_path)
        durations = [c["duration_seconds"] for c in manifest["checks"]]
        assert durations == [r.duration_seconds for r in results]
        for r in results:
            assert (r.duration_seconds == 0.0) if r.skipped else (r.duration_seconds > 0.0), r.name
        shared = manifest["shared_runs_seconds"]
        assert shared > 0.0
        assert shared + sum(durations) <= manifest["duration_seconds"]
        assert _read_manifest(tmp_path)["shared_runs_seconds"] == shared

    def test_skipped_checks_have_null_measurements(self, tmp_path):
        config = parse_config(VERIFY_FAST, "verify")
        manifest, _ = run_verify(config, None)
        skipped = [c for c in manifest["checks"] if c["status"] == "skipped"]
        assert skipped
        for c in skipped:
            assert c["measured"] is None and c["tolerance"] is None


class TestCliMain:
    def _write(self, tmp_path, text, name="cfg.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_verb_succeeds(self, tmp_path, capsys):
        cfg = self._write(tmp_path, QUENCH_CONSTANT.format(beta=1.0))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "quench done" in capsys.readouterr().out

    def test_sweep_verb_succeeds(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        out = tmp_path / "out"
        code = main(["sweep", "--config", self._write(tmp_path, SWEEP_TEXT), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"sweep done: 2 entries in {out}\n"
        assert len((out / "sweep_summary.csv").read_text().splitlines()) == 3

    def test_sweep_refuses_non_integer_worker_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "two")
        out = tmp_path / "out"
        code = main(["sweep", "--config", self._write(tmp_path, SWEEP_TEXT), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{WORKERS_ENV_VAR} must be an integer, got 'two'" in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_out_path_that_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept")
        cfg = self._write(tmp_path, QUENCH_CONSTANT.format(beta=1.0))
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and "File exists" in captured.err
        assert captured.out == ""
        assert out.read_text() == "kept"

    def test_run_with_mass_moving_at_t_i(self, tmp_path):
        """An oscillator whose mass already moves at t_i runs, and its
        oracle columns agree with the mode solver's."""
        text = QUENCH_CONSTANT.format(beta=1.0).replace(
            "kind = boson\nfamily = constant\nvalue = 1.0",
            "kind = oscillator\ndrive = mass\nfamily = linear\n"
            "value_initial = 1.0\nvalue_final = 1.8\nomega = 1.3",
        )
        text = text.replace("grid_points = 9", "grid_points = 21\nrel_tol = 1e-12")
        text = text.replace("n_levels = 32\nsubsteps_per_unit = 200", "n_levels = 60")
        out = tmp_path / "out"
        assert main(["run", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        rows = _read_csv(out / "observables.csv")
        for name in ("occupation_abs_diff [1]", "q2_abs_diff [length^2]", "q4_abs_diff [length^4]"):
            assert np.max(rows[name]) <= 1e-9, name

    @pytest.mark.parametrize(
        "verb, old, new",
        [
            ("run", "beta", "betta"),
            ("run", "beta = 1.0", "beta = inf"),
            # no config takes hbar: tfdyn works in units with hbar = 1
            ("run", "beta = 1.0", "beta = 1.0\nhbar = 2.0"),
            ("sweep", "beta = 1.0", "beta = 1.0\nhbar = 2.0"),
            ("run", "grid_points = 9", "grid_points = 1"),
            ("run", "grid_points = 9", "grid_points = 9\nrel_tol = 0"),
            ("run", "grid_points = 9", "grid_points = 9\nrel_tol = 1e-17"),
            # an infinite tolerance would accept every step
            ("run", "grid_points = 9", "grid_points = 9\nrel_tol = inf"),
            ("run", "grid_points = 9", "grid_points = 9\nabs_tol = inf"),
            # an infinite tanh width or center makes the ramp a constant
            ("run", CONSTANT_DRIVE, TANH_DRIVE.replace("width = 0.5", "width = inf")),
            ("run", CONSTANT_DRIVE, TANH_DRIVE.replace("center = 1.0", "center = inf")),
            ("run", "substeps_per_unit = 200", "substeps_per_unit = 0"),
            ("run", "substeps_per_unit = 200", "substeps_per_unit = nan"),
            ("run", "t_f = 2.0", "t_f = -1.0"),
            ("run", "n_levels = 32", "n_levels = 1"),
            ("run", "n_levels = 32", "n_levels = 300"),
            # omega0 omitted defaults to 0
            ("run", "value = 1.0", "value = 0.0\ndrive = omega_plus"),
            ("run", "kind = boson\nfamily = constant\nvalue = 1.0",
             "kind = fermion\nfamily = constant\nvalue = 0.0\nomega0 = 0"),
            # coupling above INITIAL_DIAGONAL_TOL at t_i
            ("run", "value = 1.0", "value = 1.0\nomega_plus = 1e-4"),
            # e^(-b*w/2) rounds to 1: no oscillator thermal state, oracle off
            ("sweep", "beta = 1.0", "beta = 1e-20"),
            # c07c would run 2 * 129 levels, past the 256-level cap
            ("verify", "n_levels = 32", "n_levels = 129"),
            ("verify", "kind = verify", "kind = verify\nhbar = 2.0"),
            # a refused entry stops the sweep before its --out directory is made
            ("sweep", "values = 1.0, 2.0", "values = 1.0, -2.0"),
            # the integrator takes no step cap
            ("run", "grid_points = 9", "grid_points = 9\nmax_step = 0.1"),
            ("verify", "n_levels = 32", "n_levels = 32\n\n[integrator]\nmax_step = 0.1"),
            # the running-tail abort is a constant
            ("run", "n_levels = 32", "n_levels = 32\ntail_abort = 1e-6"),
            ("verify", "n_levels = 32", "n_levels = 32\ntail_abort = 1e-6"),
            # no final static frame to count the occupation in
            ("run", CONSTANT_DRIVE, OMEGA_RAMP.format(final="0.0")),
            ("run", CONSTANT_DRIVE, OMEGA_RAMP.format(final="5e-324")),
            ("sweep", SWEEP_WIDTHS, "key = protocol.value_final\nvalues = 2.0, 0.0"),
            # a window too narrow for its grid, with the oracle on
            ("run", "t_f = 2.0", "t_f = 5e-324"),
            # finite ends whose width overflows
            ("run", "t_i = 0.0\nt_f = 2.0", "t_i = -1e308\nt_f = 1e308"),
            # an oracle march past the step cap, or with generators that
            # would not be finite
            ("run", "substeps_per_unit = 200", "substeps_per_unit = 1e308"),
            ("sweep", "enabled = false", "substeps_per_unit = 1e308"),
            ("verify", "n_levels = 32", "n_levels = 32\nsubsteps_per_unit = 1e308"),
            ("run", CONSTANT_DRIVE, MASS_DROP),
        ],
        ids=[
            "unknown_key", "beta_inf", "hbar", "sweep_hbar", "grid_points_1", "rel_tol_0",
            "rel_tol_below_floor",
            "rel_tol_inf", "abs_tol_inf", "tanh_width_inf", "tanh_center_inf", "substeps_0",
            "substeps_nan", "empty_window", "n_levels_1",
            "n_levels_300", "boson_omega0_omitted",
            "fermion_omega0_zero_oracle_on", "coupling_at_t_i", "beta_1e-20_oracle_off",
            "verify_wide_box_over_cap", "verify_hbar", "sweep_negative_width",
            "max_step", "verify_max_step",
            "tail_abort", "verify_tail_abort",
            "omega_final_0", "omega_final_subnormal", "sweep_omega_final_0",
            "window_narrower_than_grid", "window_width_overflows",
            "substeps_past_march_cap", "sweep_substeps_past_march_cap",
            "verify_substeps_past_march_cap", "mass_1e308_oracle_on",
        ],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, verb, old, new):
        texts = {"run": QUENCH_CONSTANT.format(beta=1.0), "sweep": SWEEP_TEXT, "verify": VERIFY_ORACLE}
        text = texts[verb]
        assert old in text
        cfg = self._write(tmp_path, text.replace(old, new))
        code = main([verb, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        refused = (("run", "hbar"), ("integrator", "max_step"), ("oracle", "tail_abort"))
        for section, key in refused:
            if key in new:
                assert f"unknown key(s) in [{section}]: {key}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, line",
        [("run", "beta = 1.0"), ("integrator", "grid_points = 11")],
        ids=["beta", "grid_points"],
    )
    def test_verify_refuses_keys_it_would_ignore(self, tmp_path, capsys, section, line):
        sections = {"run": "kind = verify", "integrator": "rel_tol = 1e-10", "oracle": "enabled = false"}
        sections[section] += "\n" + line
        cfg = self._write(tmp_path, "".join(f"[{k}]\n{v}\n" for k, v in sections.items()))
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"[{section}] {line.split()[0]}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "head, message",
        [("beta = 1.0\n", "File contains no section headers"),
         ("[DEFAULT]\nbeta = 1.0\n", "a [DEFAULT] section is not allowed")],
        ids=["top_level_key", "default_section"],
    )
    def test_keys_outside_a_section_exit_code(self, tmp_path, capsys, head, message):
        cfg = self._write(tmp_path, head + QUENCH_CONSTANT.format(beta=1.0))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        stiff = """
[run]
kind = quench
beta = 1.0

[protocol]
kind = oscillator
family = linear
value_initial = 1.0
value_final = 1e200
t_i = 0.0
t_f = 1.0

[oracle]
enabled = false
"""
        cfg = self._write(tmp_path, stiff)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "integration failure" in capsys.readouterr().err

    def test_truncation_refusal_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, QUENCH_CONSTANT.format(beta=0.05))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "truncation refusal" in capsys.readouterr().err

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        loose = VERIFY_FAST + "\n[integrator]\nrel_tol = 1e-3\nabs_tol = 1e-6\n"
        cfg = self._write(tmp_path, loose)
        code = main(["verify", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 5
        assert "FAILED" in captured.err
        assert "FAIL  c02b_oscillator_wronskian_conservation" in captured.out

    def test_verify_passes_without_oracle(self, tmp_path, capsys):
        cfg = self._write(tmp_path, VERIFY_FAST)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "verification suite passed" in captured.out
        # One reported line per criterion.
        from tfdyn.verification import CHECK_NAMES

        for name in CHECK_NAMES:
            assert name in captured.out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "tfdyn" in capsys.readouterr().out


RUNTIME_MODULES_SCRIPT = """
import json
import sys
import tfdyn
from tfdyn import cli_runner, fock_oracle
cli_runner.parse_config(sys.stdin.read(), "quench")
fock_oracle.build_thermal_state_doubled(1.0, 1.0, basis=fock_oracle.boson_doubled(20))
fock_oracle.build_thermal_state_doubled(1.0, 1.0, basis=fock_oracle.fermion_doubled())
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def runtime_modules():
    """The modules loaded by ``import tfdyn``, parsing an oracle-on quench
    config and building both thermal-vacuum routes, in a fresh process that
    has imported nothing yet."""
    src = str(Path(tfdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", RUNTIME_MODULES_SCRIPT], input=QUENCH_CONSTANT.format(beta=1.0),
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(out.stdout)


def test_runtime_loads_no_scipy(runtime_modules):
    """numpy is the whole run-time dependency."""
    assert [m for m in runtime_modules if m.startswith("scipy")] == []


def test_runtime_loads_no_process_pool(runtime_modules):
    """Only a sweep with more than one worker imports the process pool."""
    loaded = [
        m for m in runtime_modules
        if m.lstrip("_").startswith("multiprocessing") or m == "concurrent.futures.process"
    ]
    assert loaded == []


def test_every_exported_name_exists():
    """Each name in a tfdyn module's ``__all__`` resolves on that module, so
    ``from tfdyn.<module> import *`` cannot fail on a stale entry."""
    exporting = []
    for info in pkgutil.iter_modules(tfdyn.__path__):
        if info.name == "__main__":  # running it is the CLI
            continue
        module = importlib.import_module(f"tfdyn.{info.name}")
        if hasattr(module, "__all__"):
            exporting.append(info.name)
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], info.name
    assert len(exporting) >= 7
