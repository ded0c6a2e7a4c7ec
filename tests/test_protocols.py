"""Unit tests for coefficient profiles and protocol containers."""

import cmath
import math
import random
from types import SimpleNamespace

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
    Finding,
    ValidationReport,
    evaluate,
    from_config,
    make_tanh_ramp,
    statistics_of,
    validate,
)
from tfdyn.protocols import (
    FD_STEP,
    KINDS,
    _OffsetImag,
    check_initial_state,
    sampler,
)

# a valid constant value for every channel of every kind (ints on purpose:
# evaluate coerces them)
CHANNEL_VALUES = {"omega0": 1, "omega_plus": 0, "omega_minus": 0, "mass": 2, "omega": 1}


class TestProfiles:
    """Values of the four coefficient profiles."""

    def test_constant(self):
        c = Constant(2.5)
        assert c(0.0) == 2.5 and c(1e6) == 2.5

    @pytest.mark.parametrize("t, expected", [(-1.0, 1.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (5.0, 3.0)])
    def test_linear_ramp_values(self, t, expected):
        r = LinearRamp(start=1.0, end=3.0, t_start=0.0, t_end=2.0)
        assert r(t) == pytest.approx(expected, rel=0, abs=0)

    def test_step_right_continuous(self):
        s = Step(before=1.0, after=4.0, t_jump=3.0)
        assert s(3.0 - 1e-12) == 1.0
        assert s(3.0) == 4.0                 # value at the jump is the new one

    def test_tanh_ramp_midpoint_and_asymptotes(self):
        r = make_tanh_ramp(1.0, 4.0, center=5.0, width=0.5)
        assert r(5.0) == pytest.approx(2.5, abs=1e-15)
        assert r(-50.0) == pytest.approx(1.0, abs=1e-15)
        assert r(60.0) == pytest.approx(4.0, abs=1e-15)

    def test_tanh_ramp_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            make_tanh_ramp(1.0, 2.0, center=0.0, width=0.0)
        with pytest.raises(ValueError):
            make_tanh_ramp(1.0, 2.0, center=0.0, width=-1.0)

    @pytest.mark.parametrize("center, width, named", [
        (0.0, math.inf, "width = inf"),
        (0.0, math.nan, "width = nan"),
        (math.inf, 0.5, "center = inf"),
        (-math.inf, 0.5, "center = -inf"),
        (math.nan, 0.5, "center = nan"),
    ])
    def test_tanh_ramp_rejects_non_finite_width_and_center(self, center, width, named):
        """Either would make the ramp a constant, or NaN, throughout."""
        with pytest.raises(ValueError, match="must be .*finite") as info:
            make_tanh_ramp(1.0, 2.0, center=center, width=width)
        assert named in str(info.value)


class TestProtocolWindows:
    """Window and jump-time validation shared by all protocol kinds."""

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            BosonProtocol(Constant(1.0), Constant(0.0), t_i=1.0, t_f=1.0)

    @pytest.mark.parametrize("t_i, t_f", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_nonfinite_window_rejected(self, t_i, t_f):
        with pytest.raises(ValueError, match="window must be finite"):
            BosonProtocol(Constant(1.0), Constant(0.0), t_i=t_i, t_f=t_f)

    def test_window_whose_width_overflows_rejected(self):
        """Each end is finite but t_f - t_i is not: every grid on the window
        would read NaN."""
        with pytest.raises(ValueError, match="too wide: t_f - t_i overflows"):
            BosonProtocol(Constant(1.0), Constant(0.0), t_i=-1e308, t_f=1e308)
        BosonProtocol(Constant(1.0), Constant(0.0), t_i=-8e307, t_f=8e307)

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
        assert list(vars(s)) == list(KINDS[kind].channels)

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

    def test_moving_mass_at_start_has_no_findings(self):
        # the initial data and the Gibbs state read m(t_i) and w(t_i) alone
        p = OscillatorProtocol(
            mass=LinearRamp(1.0, 2.0, t_start=-1.0, t_end=1.0),
            omega=Constant(1.0), t_i=0.0, t_f=10.0,
        )
        report = validate(p)
        assert report == _frozen_validate(p)
        assert report.findings == ()

    def test_nonpositive_initial_frequency_is_an_error(self):
        p = OscillatorProtocol(
            Constant(1.0), LinearRamp(0.0, 1.0, t_start=0.0, t_end=1.0), t_i=0.0, t_f=2.0
        )
        report = validate(p)
        assert report == _frozen_validate(p)
        assert report.messages() == ["error: omega(t_i) = 0.0 must be positive"]


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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown protocol kind 'phonon'"):
            from_config({
                "kind": "phonon", "family": "constant", "value": "1.0",
                "t_i": "0.0", "t_f": "10.0",
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


# ---------------------------------------------------------------------------
# The array validate and the scalar sampler against frozen copies of the
# point-by-point code they replace
# ---------------------------------------------------------------------------

_FROZEN_COMPLEX_CHANNELS = frozenset({"omega_plus", "omega_minus"})


def _frozen_coefficient(name, value, t):
    if name in _FROZEN_COMPLEX_CHANNELS:
        value = complex(value)
    else:
        if isinstance(value, complex):
            if value.imag != 0.0:
                raise ValueError(f"{name}({t}) = {value} must be real")
            value = value.real
        value = float(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name}({t}) = {value} is not finite")
    return value


def _frozen_evaluate(protocol, t):
    if not (protocol.t_i <= t <= protocol.t_f):
        raise ValueError(
            f"time {t} outside protocol domain [{protocol.t_i}, {protocol.t_f}]"
        )
    s = SimpleNamespace(
        **{name: _frozen_coefficient(name, getattr(protocol, name)(t), t)
           for name in protocol.channels}
    )
    if protocol.kind == "oscillator" and s.mass <= 0.0:
        raise ValueError(f"mass({t}) = {s.mass} must be positive")
    return s


def _frozen_validate(protocol):
    """``validate`` as it was when it evaluated every grid point in turn."""
    findings = []
    t_i, t_f = protocol.t_i, protocol.t_f
    grid = [t_i + (t_f - t_i) * k / (2001 - 1) for k in range(2001)]
    grid[-1] = t_f

    for t in grid:
        try:
            _frozen_evaluate(protocol, t)
        except ValueError as exc:
            if not findings:
                findings.append(Finding("error", str(exc), t))
    evaluates = not findings

    h = 1e-6
    for name in protocol.channels:
        fn = getattr(protocol, name)
        worst = None
        for t in grid[1:-1]:
            near_jump = any(abs(t - tj) <= 2.0 * h for tj in protocol.jump_times)
            if near_jump or t - h < t_i or t + h > t_f:
                continue
            try:
                lo = complex(fn(t - h))
                hi = complex(fn(t + h))
            except Exception:
                continue
            rel = abs(hi - lo) / (1.0 + max(abs(lo), abs(hi)))
            if rel > 1e-3 and (worst is None or rel > worst[0]):
                worst = (rel, t)
        if worst is not None:
            message = (
                f"possible undeclared discontinuity in {name} near t={worst[1]:.6g} "
                f"(relative step {worst[0]:.3g} over {2 * h:.1g})"
            )
            findings.append(Finding("warning", message, worst[1]))

    if evaluates:
        try:
            check_initial_state(protocol)
        except ValueError as exc:
            findings.append(Finding("error", str(exc), t_i))

    return ValidationReport(findings=tuple(findings))


# channel -> range of its built-in profiles' values; the mass range reaches
# below zero so that some masses turn non-positive
_VALUE_RANGES = {
    "omega0": (0.5, 3.0), "omega": (0.5, 3.0), "mass": (-0.5, 2.0),
    "omega_plus": (-0.5, 0.5), "omega_minus": (-0.5, 0.5),
}


def _random_profile(rng, name, t_i, t_f, jumps):
    """A built-in profile for channel ``name``; a declared step adds its time to ``jumps``."""
    lo, hi = _VALUE_RANGES[name]
    start, end = rng.uniform(lo, hi), rng.uniform(lo, hi)
    if name == "mass" and rng.random() < 0.7:
        start, end = abs(start) + 0.5, abs(end) + 0.5  # mostly positive masses
    # mostly a diagonal initial Hamiltonian: couplings that start at 0 by t_i
    diagonal = name in _FROZEN_COMPLEX_CHANNELS and rng.random() < 0.85
    if diagonal:
        start = 0.0
    span = t_f - t_i

    def moment(lo, hi):
        """A time in the window; half the time on (or within 1e-6 of) a probe
        grid point, where validate's discontinuity probe can see it."""
        if rng.random() < 0.5:
            return t_i + rng.uniform(lo, hi) * span
        k = rng.randrange(int(lo * 2000) + 1, int(hi * 2000))
        return t_i + span * k / 2000 + rng.choice((0.0, 0.0, 3e-7, -5e-7))

    family = rng.choice(("constant", "linear", "step", "step", "tanh", "tanh"))
    if family == "constant":
        profile = Constant(start)
    elif family == "linear":
        t_start = t_i + rng.uniform(0.0 if diagonal else -0.2, 0.5) * span
        profile = LinearRamp(start, end, t_start, t_i + rng.uniform(0.5, 1.2) * span)
    elif family == "step":
        t_jump = moment(0.1, 0.9)
        profile = Step(start, end, t_jump)
        if rng.random() < 0.3 and t_jump not in jumps:
            jumps.append(t_jump)
    else:
        center = moment(0.2, 0.8)
        width = rng.choice((1e-4, 1e-4, 1e-2, 0.5, 2.0)) * min(1.0, span)
        if diagonal:
            width = min(width, (center - t_i) / 20.0)
        profile = make_tanh_ramp(start, end, center, width)
    if name in _FROZEN_COMPLEX_CHANNELS and rng.random() < 0.3:
        profile = _OffsetImag(profile, rng.choice((0.0, 0.0, 1e-7, 0.2)))
    elif rng.random() < 0.03:  # a complex built-in profile on a real channel
        profile = _OffsetImag(profile, 0.25)
    return profile


def _bare(rng, profile, t_bad, coupling):
    """``profile`` behind a bare callable that may misbehave after ``t_bad``."""
    fault = rng.choice(("none", "none", "none", "raise", "value_error", "nan", "inf", "complex"))
    if fault == "complex" and coupling:
        fault = "nan"
    error = rng.choice((RuntimeError, ZeroDivisionError))

    def fn(t):
        if t > t_bad:
            if fault == "raise":
                raise error(f"bad coefficient at {t}")
            if fault == "value_error":
                raise ValueError(f"no value at {t}")
            if fault == "nan":
                return math.nan
            if fault == "inf":
                return -math.inf
            if fault == "complex":
                return complex(profile(t), 0.25)
        return profile(t)

    return fn


def _seeded_protocols(seed, count):
    rng = random.Random(seed)
    protocols = []
    for _ in range(count):
        kind = rng.choice(sorted(KINDS))
        cls = KINDS[kind]
        # (1.3, 8.32): the grid formula's last point, 1.3 + (8.32 - 1.3), rounds
        # past t_f unless pinned to it
        t_i, t_f = rng.choice(((0.0, 10.0), (-5.0, 5.0), (0.1, 0.3), (0.0, 64.0)) * 3 + ((1.3, 8.32),))
        if rng.random() < 0.3:
            t_i, t_f = t_i + 0.37, t_f + rng.choice((0.2, 3.1))
        jumps = []
        channels = {}
        for name in cls.channels:
            profile = _random_profile(rng, name, t_i, t_f, jumps)
            if rng.random() < 0.3:
                t_bad = t_i + rng.uniform(-0.1, 1.2) * (t_f - t_i)
                profile = _bare(rng, profile, t_bad, name in _FROZEN_COMPLEX_CHANNELS)
            channels[name] = profile
        if rng.random() < 0.2:
            jumps.append(t_i + rng.uniform(0.05, 0.95) * (t_f - t_i))
        if kind == "oscillator" and rng.random() < 0.3:
            rng.random()  # an unused draw, kept so that the seeded set stays put
            if rng.randrange(4) == 0:  # a bare mass callable
                channels["mass"] = _bare(rng, channels["mass"], t_f + 1.0, False)
        try:
            protocols.append(cls(**channels, t_i=t_i, t_f=t_f, jump_times=tuple(jumps)))
        except ValueError:  # two declared jumps coincide
            continue
    return protocols


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or the type and text of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


SEEDED = _seeded_protocols(20260, 330)


@pytest.fixture(scope="module")
def validated():
    """(protocol, validate's outcome, the frozen validate's outcome) per seeded protocol."""
    return [(p, _outcome(validate, p), _outcome(_frozen_validate, p)) for p in SEEDED]


class TestArrayValidate:
    """validate probes arrays; every finding and exception is what the
    point-by-point validate gave."""

    def test_seeded_protocols_match_the_frozen_validate(self, validated):
        assert len(validated) >= 300
        tally = {"errors": 0, "warnings": 0, "raised": 0, "clean": 0, "tanh_warnings": 0}
        for p, got, want in validated:
            assert got == want, p
            if want[0] == "raised":
                tally["raised"] += 1
                continue
            findings = want[1].findings
            tally["clean"] += not findings
            tally["errors"] += any(f.severity == "error" for f in findings)
            tally["warnings"] += any(f.severity == "warning" for f in findings)
            tally["tanh_warnings"] += any(
                f.severity == "warning" and isinstance(getattr(p, f.message.split()[4]), TanhRamp)
                for f in findings
            )
        # the set exercises every path: clean, failing, warned and raising protocols
        assert tally["clean"] >= 50 and tally["errors"] >= 50, tally
        assert tally["warnings"] >= 30 and tally["tanh_warnings"] >= 5, tally
        assert tally["raised"] >= 5, tally

    def test_error_messages_cover_each_failure(self, validated):
        messages = " ".join(
            f.message for _, got, _ in validated if got[0] == "value" for f in got[1].findings
        )
        for fragment in (
            "is not finite", "must be real", "must be positive", "is not zero",
            "possible undeclared discontinuity",
        ):
            assert fragment in messages, fragment

    def test_last_probe_point_is_t_f(self):
        # 1.3 + (8.32 - 1.3) * 2000 / 2000 is 8.320000000000002, past t_f
        assert 1.3 + (8.32 - 1.3) * 2000 / 2000 > 8.32
        seen = []

        def mass(t):
            seen.append(t)
            return 1.0

        p = OscillatorProtocol(mass, Constant(1.0), t_i=1.3, t_f=8.32)
        report = validate(p)
        assert report == _frozen_validate(p)
        assert report.findings == ()
        assert seen[2000] == 8.32 and max(seen) == 8.32
        constant = OscillatorProtocol(Constant(1.0), Constant(1.0), t_i=1.3, t_f=8.32)
        assert validate(constant).findings == ()

    def test_later_exception_still_propagates_after_a_finding(self):
        def omega0(t):
            if t > 7.0:
                raise RuntimeError("unreachable frequency")
            return math.nan if t > 3.0 else 1.0

        p = BosonProtocol(omega0, Constant(0.0), t_i=0.0, t_f=10.0)
        with pytest.raises(RuntimeError, match="unreachable frequency"):
            _frozen_validate(p)
        with pytest.raises(RuntimeError, match="unreachable frequency"):
            validate(p)

    def test_declared_jump_hides_two_probe_steps_either_side(self):
        """The probe skips a grid point within 2 FD_STEP of a declared jump,
        even where a ramp narrower than FD_STEP shows between its stencils."""
        ramp = make_tanh_ramp(0.0, 0.2, 5.0, 1e-8)  # centred on the grid point t = 5

        def protocol(t_jump):
            return BosonProtocol(Constant(1.0), ramp, t_i=0.0, t_f=10.0, jump_times=(t_jump,))

        near, far = protocol(5.0 + 1.5e-6), protocol(5.0 + 2.5e-6)
        assert validate(near) == _frozen_validate(near)
        assert validate(far) == _frozen_validate(far)
        assert validate(near).findings == ()
        assert "in omega_plus near t=5 " in validate(far).messages()[0]


_H = FD_STEP
_PROBE = np.linspace(0.0, 10.0, 2001)


@pytest.mark.parametrize(
    "profile",
    [
        Constant(1.5),
        Constant(2),
        LinearRamp(1.0, -2.0, 1.0, 9.0),
        LinearRamp(0.5, 0.5, 3.0, 3.0),
        Step(1.0, 4.0, 5.0),
        _OffsetImag(LinearRamp(0.0, 0.5, 0.0, 10.0), 0.25),
        _OffsetImag(Step(0.0, 0.3, 2.5), -0.1),
    ],
    ids=repr,
)
def test_values_equal_calls_for_exact_families(profile):
    """Every family but the tanh ramp computes the scalar arithmetic
    elementwise, so ``values`` equals ``__call__`` bit for bit."""
    for times in (_PROBE, _PROBE - _H, _PROBE + _H):
        with np.errstate(all="ignore"):
            got = np.asarray(profile.values(times))
        want = np.array([profile(t) for t in times.tolist()])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [1e-4, 1e-2, 0.5, 3.0])
@pytest.mark.parametrize("start, end", [(1.0, 2.0), (0.0, 0.5), (-1.0, 1.0), (3.0, 0.25)])
def test_tanh_values_within_four_ulps_of_the_ramp_scale(start, end, width):
    """np.tanh differs from math.tanh by up to 2 ulp on some arguments; the
    ramp's arithmetic at most doubles that, in ulps of max(|start|, |end|)."""
    ramp = make_tanh_ramp(start, end, 5.0, width)
    ulp = np.spacing(max(abs(start), abs(end)))
    for times in (_PROBE, _PROBE - _H, _PROBE + _H):
        want = np.array([ramp(t) for t in times.tolist()])
        assert np.max(np.abs(ramp.values(times) - want)) <= 4 * ulp


class TestSampler:
    """sampler(p)(t), and evaluate(p, t) as a record, are the frozen
    evaluate's channels, bit for bit, and raise what it raises."""

    @staticmethod
    def _times(p):
        span = p.t_f - p.t_i
        times = [p.t_i + span * k / 40 for k in range(41)]
        times += list(p.jump_times) + [math.nextafter(p.t_f, math.inf), p.t_i - 1.0]
        return times

    def test_seeded_protocols_sample_like_evaluate(self):
        compared = raised = 0
        for p in SEEDED:
            sample = sampler(p)
            for t in self._times(p):
                got = _outcome(sample, t)
                want = _outcome(_frozen_evaluate, p, t)
                if want[0] == "value":
                    want = ("value", tuple(getattr(want[1], c) for c in p.channels))
                    assert [repr(v) for v in got[1]] == [repr(v) for v in want[1]]
                    assert [type(v) for v in got[1]] == [type(v) for v in want[1]]
                    compared += 1
                else:
                    raised += 1
                assert got == want
        assert compared > 5000 and raised > 500

    def test_evaluate_is_the_sampler_as_a_record(self):
        for p in SEEDED:
            for t in self._times(p)[::5]:
                got, want = _outcome(evaluate, p, t), _outcome(_frozen_evaluate, p, t)
                if want[0] == "value":
                    assert {k: repr(v) for k, v in vars(got[1]).items()} == {
                        k: repr(v) for k, v in vars(want[1]).items()
                    }
                else:
                    assert got == want

    def test_real_channel_takes_a_complex_with_zero_imaginary_part(self):
        """A real channel's callable may return a complex whose imaginary
        part is exactly zero: it samples as the float real part, and
        ``validate`` finds nothing.  The smallest imaginary part is refused."""
        p = BosonProtocol(lambda t: complex(1.5, 0.0), Constant(0.0), t_i=0.0, t_f=1.0)
        values = sampler(p)(0.5)
        assert values == (1.5, 0j)
        assert [type(v) for v in values] == [float, complex]
        assert validate(p).findings == ()
        p = BosonProtocol(lambda t: complex(1.5, 1e-300), Constant(0.0), t_i=0.0, t_f=1.0)
        with pytest.raises(ValueError, match=r"^omega0\(0\.5\) = \(1\.5\+1e-300j\) must be real$"):
            sampler(p)(0.5)
        assert validate(p).messages() == ["error: omega0(0.0) = (1.5+1e-300j) must be real"]

    def test_numpy_and_int_values_are_coerced(self):
        p = FermionProtocol(
            lambda t: np.float64(1.5), lambda t: 2, lambda t: np.complex128(0.5j),
            t_i=0.0, t_f=1.0,
        )
        values = sampler(p)(0.5)
        assert values == (1.5, 2 + 0j, 0.5j)
        assert [type(v) for v in values] == [float, complex, complex]

    def test_a_repeated_time_is_sampled_once(self):
        """The last successful sample is kept for a time equal to it bit for
        bit: a repeat calls no coefficient, while -0.0 after 0.0, the int 0
        after 0.0 and any other time call them again."""
        seen = []

        def omega0(t):
            seen.append(t)
            return 1.5 + math.copysign(0.5, t)  # pure, and tells the zeros apart

        sample = sampler(BosonProtocol(omega0, Constant(0.0), t_i=-1.0, t_f=1.0))
        assert sample(0.0) == (2.0, 0j) and sample(0.0) == (2.0, 0j)
        assert sample(-0.0) == (1.0, 0j) and sample(-0.0) == (1.0, 0j)
        assert sample(0.0) == (2.0, 0j) and sample(0) == (2.0, 0j)
        assert sample(0.5) == (2.0, 0j) and sample(0.25) == (2.0, 0j)
        assert sample(0.5) == (2.0, 0j) and sample(0.5) == (2.0, 0j)
        assert [repr(t) for t in seen] == ["0.0", "-0.0", "0.0", "0", "0.5", "0.25", "0.5"]

    def test_a_sample_that_raises_is_not_kept(self):
        """A time whose sample raises keeps nothing: it raises again, and the
        sample kept before it still serves its own time."""
        seen = []

        def omega0(t):
            seen.append(t)
            return math.inf if t > 0.5 else 1.0

        sample = sampler(BosonProtocol(omega0, Constant(0.0), t_i=0.0, t_f=1.0))
        assert sample(0.25) == (1.0, 0j)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^omega0\(0\.75\) = inf is not finite$"):
                sample(0.75)
        assert sample(0.25) == (1.0, 0j)
        assert seen == [0.25, 0.75, 0.75]
        with pytest.raises(ValueError, match="outside protocol domain"):
            sample(2.0)
        assert sample(0.25) == (1.0, 0j) and seen == [0.25, 0.75, 0.75]
