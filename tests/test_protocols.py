"""Unit tests for coefficient profiles and protocol containers."""

import math

import numpy as np
import pytest

from tfdyn import (
    BosonProtocol,
    ConfigError,
    Constant,
    FermionProtocol,
    LinearRamp,
    OscillatorProtocol,
    Step,
    TanhRamp,
    evaluate,
    from_config,
    make_tanh_ramp,
    statistics_of,
    validate,
)
from tfdyn.protocols import FD_STEP, KINDS

# a valid constant value for every channel of every kind (ints on purpose:
# evaluate coerces them)
CHANNEL_VALUES = {"omega0": 1, "omega_plus": 0, "omega_minus": 0, "mass": 2, "omega": 1}


class TestProfiles:
    """Value and derivative behaviour of the four coefficient profiles."""

    def test_constant(self):
        c = Constant(2.5)
        assert c(0.0) == 2.5 and c(1e6) == 2.5
        assert c.derivative(3.0) == 0.0

    @pytest.mark.parametrize("t, expected", [(-1.0, 1.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (5.0, 3.0)])
    def test_linear_ramp_values(self, t, expected):
        r = LinearRamp(start=1.0, end=3.0, t_start=0.0, t_end=2.0)
        assert r(t) == pytest.approx(expected, rel=0, abs=0)

    def test_linear_ramp_derivative_right_continuous(self):
        r = LinearRamp(start=1.0, end=3.0, t_start=0.0, t_end=2.0)
        assert r.derivative(-0.5) == 0.0
        assert r.derivative(0.0) == 1.0      # kink resolved to the right
        assert r.derivative(1.0) == 1.0
        assert r.derivative(2.0) == 0.0

    def test_step_right_continuous(self):
        s = Step(before=1.0, after=4.0, t_jump=3.0)
        assert s(3.0 - 1e-12) == 1.0
        assert s(3.0) == 4.0                 # value at the jump is the new one
        assert s.derivative(3.0) == 0.0

    def test_tanh_ramp_midpoint_and_asymptotes(self):
        r = make_tanh_ramp(1.0, 4.0, center=5.0, width=0.5)
        assert r(5.0) == pytest.approx(2.5, abs=1e-15)
        assert r(-50.0) == pytest.approx(1.0, abs=1e-15)
        assert r(60.0) == pytest.approx(4.0, abs=1e-15)

    def test_tanh_ramp_derivative_matches_finite_difference(self):
        r = make_tanh_ramp(0.0, 0.5, center=3.0, width=0.4)
        for t in np.linspace(1.0, 5.0, 17):
            fd = (r(t + 1e-5) - r(t - 1e-5)) / 2e-5
            assert r.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_tanh_ramp_derivative_far_tail_underflows_to_zero(self):
        # cosh overflows near |z| ~ 355; the derivative must return 0, not raise.
        r = make_tanh_ramp(1.0, 2.0, center=0.0, width=1e-4)
        assert r.derivative(1.0) == 0.0
        assert r.derivative(-1.0) == 0.0

    def test_tanh_ramp_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            make_tanh_ramp(1.0, 2.0, center=0.0, width=0.0)
        with pytest.raises(ValueError):
            make_tanh_ramp(1.0, 2.0, center=0.0, width=-1.0)


class TestProtocolWindows:
    """Window and jump-time validation shared by all protocol kinds."""

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            BosonProtocol(Constant(1.0), Constant(0.0), t_i=1.0, t_f=1.0)

    def test_jump_outside_window_rejected(self):
        with pytest.raises(ValueError):
            BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0, jump_times=(2.0,))

    def test_duplicate_jumps_rejected(self):
        with pytest.raises(ValueError):
            FermionProtocol(
                Constant(1.0), Constant(0.0), Constant(0.0),
                t_i=0.0, t_f=10.0, jump_times=(3.0, 3.0),
            )

    def test_jumps_sorted(self):
        p = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=10.0, jump_times=(7.0, 3.0))
        assert p.jump_times == (3.0, 7.0)


class TestEvaluate:
    def test_boson_sample(self):
        p = BosonProtocol(Constant(2.0), Constant(0.25), t_i=0.0, t_f=1.0)
        s = evaluate(p, 0.5)
        assert s.omega0 == 2.0 and s.omega_plus == 0.25

    def test_oscillator_mass_dot_finite_difference_fallback(self):
        ramp = make_tanh_ramp(1.0, 2.0, center=5.0, width=0.5)
        # a bare callable has no derivative, so mass_dot falls back to the FD
        p = OscillatorProtocol(mass=lambda t: ramp(t), omega=Constant(1.0), t_i=0.0, t_f=10.0)
        s = evaluate(p, 5.0)
        assert s.mass_dot == pytest.approx(ramp.derivative(5.0), rel=1e-6)

    def test_oscillator_mass_dot_defaults_to_the_profile_derivative(self):
        ramp = make_tanh_ramp(1.0, 2.0, center=5.0, width=0.5)
        p = OscillatorProtocol(mass=ramp, omega=Constant(1.0), t_i=0.0, t_f=10.0)
        assert evaluate(p, 5.3).mass_dot == ramp.derivative(5.3)

    def test_oscillator_mass_dot_fallback_stays_on_its_side_of_a_jump(self):
        # a jump time belongs to its right side; no stencil may straddle it
        p = OscillatorProtocol(
            mass=lambda t: 1.0 if t < 5.0 else 2.0, omega=Constant(1.0),
            t_i=0.0, t_f=10.0, jump_times=(5.0,),
        )
        for t in (5.0 - 5e-7, 5.0, 5.0 + 5e-7):
            assert evaluate(p, t).mass_dot == 0.0

    def test_oscillator_mass_dot_one_sided_at_boundaries(self):
        # The fallback must not sample outside the declared window.
        calls = []

        def mass(t):
            calls.append(t)
            return 1.0 + 0.1 * (t - 0.0)

        p = OscillatorProtocol(mass=mass, omega=Constant(1.0), t_i=0.0, t_f=10.0)
        evaluate(p, 0.0)
        evaluate(p, 10.0)
        assert min(calls) >= 0.0 - 1e-15
        assert max(calls) <= 10.0 + 1e-15
        assert evaluate(p, 0.0).mass_dot == pytest.approx(0.1, rel=1e-5)

    def test_oscillator_rejects_nonpositive_mass(self):
        p = OscillatorProtocol(mass=Constant(-1.0), omega=Constant(1.0), t_i=0.0, t_f=1.0)
        with pytest.raises(ValueError):
            evaluate(p, 0.5)

    def test_rejects_nonfinite_coefficient(self):
        p = BosonProtocol(lambda t: math.inf, Constant(0.0), t_i=0.0, t_f=1.0)
        with pytest.raises(ValueError):
            evaluate(p, 0.5)

    def test_statistics_of(self):
        b = BosonProtocol(Constant(1.0), Constant(0.0), t_i=0.0, t_f=1.0)
        o = OscillatorProtocol(Constant(1.0), Constant(1.0), t_i=0.0, t_f=1.0)
        f = FermionProtocol(Constant(1.0), Constant(0.0), Constant(0.0), t_i=0.0, t_f=1.0)
        assert statistics_of(b) == "boson"
        assert statistics_of(o) == "boson"
        assert statistics_of(f) == "fermion"

    def test_fd_step_exported(self):
        assert 0.0 < FD_STEP < 1e-3


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestGenericSampler:
    """evaluate is one loop over the kind's channels."""

    @staticmethod
    def _protocol(kind, **override):
        cls = KINDS[kind]
        profiles = {name: Constant(CHANNEL_VALUES[name]) for name in cls.channels}
        return cls(**{**profiles, **override}, t_i=0.0, t_f=1.0)

    def test_returns_exactly_the_kinds_channels(self, kind):
        s = evaluate(self._protocol(kind), 0.5)
        extra = ["mass_dot"] if kind == "oscillator" else []
        assert list(vars(s)) == [*KINDS[kind].channels, *extra]

    def test_real_channels_are_float_and_couplings_complex(self, kind):
        s = evaluate(self._protocol(kind), 0.5)
        for name, value in vars(s).items():
            coupling = name in ("omega_plus", "omega_minus")
            assert type(value) is (complex if coupling else float), name

    def test_nonfinite_value_names_its_channel(self, kind):
        for name in KINDS[kind].channels:
            p = self._protocol(kind, **{name: lambda t: math.nan})
            with pytest.raises(ValueError, match=rf"^{name}\(0\.5\) = .* is not finite"):
                evaluate(p, 0.5)


class TestValidate:
    def test_clean_protocol_has_no_findings(self):
        p = BosonProtocol(
            Constant(1.0), make_tanh_ramp(0.0, 0.5, 5.0, 0.5), t_i=0.0, t_f=10.0
        )
        report = validate(p)
        assert report.ok
        assert report.findings == ()

    def test_undeclared_step_is_flagged_as_warning(self):
        p = BosonProtocol(
            Constant(1.0), Step(0.0, 0.5, t_jump=5.0), t_i=0.0, t_f=10.0
        )
        report = validate(p)
        hits = [f for f in report.findings if "discontinuity" in f.message]
        assert hits and all(f.severity == "warning" for f in hits)
        assert report.ok  # warnings alone do not invalidate a protocol

    def test_declared_step_is_accepted(self):
        p = BosonProtocol(
            Constant(1.0), Step(0.0, 0.5, t_jump=5.0),
            t_i=0.0, t_f=10.0, jump_times=(5.0,),
        )
        report = validate(p)
        assert not any("discontinuity" in f.message for f in report.findings)

    def test_nonfinite_coefficient_is_an_error(self):
        p = BosonProtocol(
            lambda t: math.inf if t > 5.0 else 1.0, Constant(0.0), t_i=0.0, t_f=10.0
        )
        report = validate(p)
        assert not report.ok
        assert any(f.severity == "error" for f in report.findings)

    def test_moving_mass_at_start_is_flagged(self):
        p = OscillatorProtocol(
            mass=LinearRamp(1.0, 2.0, t_start=-1.0, t_end=1.0),
            omega=Constant(1.0), t_i=0.0, t_f=10.0,
        )
        report = validate(p)
        assert any("mass_dot" in f.message for f in report.findings)


class TestFromConfig:
    def test_boson_tanh_coupling_ramp(self):
        p = from_config({
            "kind": "boson", "family": "tanh", "drive": "omega_plus",
            "value_initial": "0.0", "value_final": "0.5",
            "center": "5.0", "width": "0.5",
            "omega0": "1.0",
            "t_i": "0.0", "t_f": "10.0",
        })
        assert isinstance(p, BosonProtocol)
        s = evaluate(p, 5.0)
        assert s.omega0 == 1.0
        assert s.omega_plus == pytest.approx(0.25, abs=1e-15)

    def test_oscillator_defaults_unit_mass_and_omega_drive(self):
        p = from_config({
            "kind": "oscillator", "family": "tanh",
            "value_initial": "1.0", "value_final": "2.0",
            "center": "5.0", "width": "0.5",
            "t_i": "0.0", "t_f": "10.0",
        })
        assert isinstance(p, OscillatorProtocol)
        s = evaluate(p, 5.0)
        assert s.mass == 1.0
        assert s.omega == pytest.approx(1.5, abs=1e-15)

    def test_sudden_declares_its_jump(self):
        p = from_config({
            "kind": "oscillator", "family": "sudden",
            "value_initial": "1.0", "value_final": "4.0", "t_jump": "5.0",
            "t_i": "0.0", "t_f": "10.0",
        })
        assert p.jump_times == (5.0,)
        assert evaluate(p, 5.0).omega == 4.0  # right-continuous at the jump

    def test_fermion_imaginary_coupling(self):
        p = from_config({
            "kind": "fermion", "family": "constant", "drive": "omega0",
            "value": "1.0",
            "omega_plus": "0.0", "omega_plus_imag": "0.25",
            "t_i": "0.0", "t_f": "10.0",
        })
        s = evaluate(p, 1.0)
        assert s.omega_plus == 0.25j
        assert s.omega_minus == 0.0

    @pytest.mark.parametrize("kind", ["boson", "fermion"])
    def test_imaginary_part_on_the_driven_coupling(self, kind):
        p = from_config({
            "kind": kind, "family": "linear", "drive": "omega_plus",
            "value_initial": "0.0", "value_final": "0.5", "omega_plus_imag": "0.25",
            "omega0": "1.0", "t_i": "0.0", "t_f": "10.0",
        })
        assert evaluate(p, 5.0).omega_plus == complex(0.25, 0.25)
        assert evaluate(p, 10.0).omega_plus == complex(0.5, 0.25)

    @pytest.mark.parametrize(
        "family, params, profile",
        [
            ("constant", {"value": "1.5"}, Constant(1.5)),
            ("linear", {"value_initial": "1.0", "value_final": "2.0"},
             LinearRamp(1.0, 2.0, t_start=0.0, t_end=10.0)),
            ("tanh", {"value_initial": "1.0", "value_final": "2.0", "center": "4.0", "width": "0.5"},
             make_tanh_ramp(1.0, 2.0, center=4.0, width=0.5)),
            ("sudden", {"value_initial": "1.0", "value_final": "2.0", "t_jump": "4.0"},
             Step(1.0, 2.0, t_jump=4.0)),
        ],
    )
    def test_family_matches_its_constructor(self, family, params, profile):
        p = from_config({"kind": "oscillator", "family": family, **params, "t_i": "0.0", "t_f": "10.0"})
        assert p.jump_times == ((4.0,) if family == "sudden" else ())
        for t in (0.0, 3.0, 4.0 - 1e-9, 4.0, 7.5, 10.0):
            assert evaluate(p, t).omega == profile(t)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            from_config({
                "kind": "boson", "family": "constant", "value": "1.0",
                "t_i": "0.0", "t_f": "10.0",
                "typo_key": "1.0",
            })

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            from_config({
                "kind": "boson", "family": "parabolic", "value": "1.0",
                "t_i": "0.0", "t_f": "10.0",
            })

    def test_missing_window_rejected(self):
        with pytest.raises(ConfigError):
            from_config({"kind": "boson", "family": "constant", "value": "1.0"})

    def test_missing_family_parameter_rejected(self):
        with pytest.raises(ConfigError):
            from_config({
                "kind": "boson", "family": "tanh",
                "value_initial": "0.0", "value_final": "0.5",
                "t_i": "0.0", "t_f": "10.0",  # center and width absent
            })

    def test_drive_must_belong_to_kind(self):
        with pytest.raises(ConfigError):
            from_config({
                "kind": "oscillator", "family": "constant", "drive": "omega_plus",
                "value": "1.0", "t_i": "0.0", "t_f": "10.0",
            })
