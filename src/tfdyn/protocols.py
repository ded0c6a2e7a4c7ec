"""Time-dependent quadratic Hamiltonian protocols.

A protocol bundles the coefficient functions of a quadratic Hamiltonian with
the time window on which they are defined.  Three kinds are supported:

* :class:`BosonProtocol` --
  ``H(t) = hbar*[w0(t) a^dag a + (w+(t)/2) a^dag^2 + (w+(t)*/2) a^2]``
* :class:`OscillatorProtocol` --
  ``H(t) = p^2 / 2 m(t) + m(t) w(t)^2 q^2 / 2``
* :class:`FermionProtocol` --
  ``H(t) = hbar*[w0 (a^dag a - b^dag b) + w+ a^dag b^dag - w+* a b
  + w- a b^dag - w-* a^dag b]``

Coefficient callables must be pure: deterministic and side-effect free.
Discontinuities are allowed only at declared jump times; a callable must be
right-continuous there, so that evaluation at a jump returns the right-sided
limit.  Profiles built by this module follow that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping

from .errors import ConfigError

__all__ = [
    "BosonProtocol",
    "OscillatorProtocol",
    "FermionProtocol",
    "BosonSample",
    "OscillatorSample",
    "FermionSample",
    "Finding",
    "ValidationReport",
    "KINDS",
    "evaluate",
    "make_tanh_ramp",
    "check_initial_state",
    "validate",
    "from_config",
    "statistics_of",
    "FD_STEP",
    "INITIAL_DIAGONAL_TOL",
]

# Step used for finite-difference fallbacks (mass_dot) and for the
# discontinuity probe in validate().
FD_STEP = 1e-6

# Relative threshold for the undeclared-discontinuity heuristic: a symmetric
# difference larger than this fraction of the local scale is suspicious.
_JUMP_THRESHOLD = 1e-3

_MAX_FINDINGS = 50

# The mode solvers' standard initial data needs a diagonal Hamiltonian at
# t_i; couplings below this magnitude at t_i are treated as zero.
INITIAL_DIAGONAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Profile that is identically ``value``."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value

    def derivative(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class LinearRamp:
    """Linear interpolation from ``start`` to ``end`` over [t_start, t_end].

    Held constant outside the ramp window.  The derivative is taken
    right-continuous at the kinks.
    """

    start: float
    end: float
    t_start: float
    t_end: float

    def __call__(self, t: float) -> float:
        if t <= self.t_start:
            return self.start
        if t >= self.t_end:
            return self.end
        s = (t - self.t_start) / (self.t_end - self.t_start)
        return self.start + (self.end - self.start) * s

    def derivative(self, t: float) -> float:
        if self.t_start <= t < self.t_end:
            return (self.end - self.start) / (self.t_end - self.t_start)
        return 0.0


@dataclass(frozen=True)
class Step:
    """Right-continuous step from ``before`` to ``after`` at ``t_jump``."""

    before: float
    after: float
    t_jump: float

    def __call__(self, t: float) -> float:
        return self.after if t >= self.t_jump else self.before

    def derivative(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class TanhRamp:
    """Smooth ramp ``start + (end-start)*(1 + tanh((t-center)/width))/2``.

    At ``t = center`` the value is the midpoint of ``start`` and ``end``; the
    transition has characteristic duration ``width``.
    """

    start: float
    end: float
    center: float
    width: float

    def __call__(self, t: float) -> float:
        z = (t - self.center) / self.width
        return self.start + 0.5 * (self.end - self.start) * (1.0 + math.tanh(z))

    def derivative(self, t: float) -> float:
        z = (t - self.center) / self.width
        if abs(z) > 350.0:  # sech^2 underflows; avoid cosh overflow
            return 0.0
        return 0.5 * (self.end - self.start) / (self.width * math.cosh(z) ** 2)


def make_tanh_ramp(start: float, end: float, center: float, width: float) -> TanhRamp:
    """Return a smooth tanh ramp profile.

    Parameters
    ----------
    start, end : float
        Asymptotic values far before / after the transition.
    center : float
        Time at which the profile crosses the midpoint (start + end)/2.
    width : float
        Transition time scale; must be positive.
    """
    if not width > 0.0:
        raise ValueError(f"tanh ramp width must be positive, got {width}")
    return TanhRamp(float(start), float(end), float(center), float(width))


# ---------------------------------------------------------------------------
# protocol kinds
# ---------------------------------------------------------------------------

def _check_window(t_i: float, t_f: float, jump_times: tuple[float, ...]) -> tuple[float, ...]:
    if not (math.isfinite(t_i) and math.isfinite(t_f)):
        raise ValueError("protocol window must be finite")
    if not t_f > t_i:
        raise ValueError(f"protocol window is empty: t_i={t_i}, t_f={t_f}")
    jumps = tuple(sorted(float(t) for t in jump_times))
    for t in jumps:
        if not (t_i < t < t_f):
            raise ValueError(f"declared jump time {t} lies outside ({t_i}, {t_f})")
    if len(set(jumps)) != len(jumps):
        raise ValueError("declared jump times must be distinct")
    return jumps


@dataclass(frozen=True)
class BosonProtocol:
    """Abstract single-mode boson Hamiltonian coefficients (w0, w+)."""

    # kind name, coefficient channels, and the channel a config's profile
    # family drives by default
    kind: ClassVar[str] = "boson"
    channels: ClassVar[tuple[str, ...]] = ("omega0", "omega_plus")
    drive: ClassVar[str] = "omega0"

    omega0: Callable[[float], float]
    omega_plus: Callable[[float], complex]
    t_i: float
    t_f: float
    jump_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump_times", _check_window(self.t_i, self.t_f, self.jump_times))


@dataclass(frozen=True)
class OscillatorProtocol:
    """Harmonic oscillator with time-dependent mass and frequency.

    ``mass_dot`` is part of the protocol; if ``None`` it is obtained by a
    symmetric finite difference with step ``FD_STEP`` (one-sided at the window
    boundaries).  Solvers require ``mass_dot(t_i) == 0``.
    """

    kind: ClassVar[str] = "oscillator"
    channels: ClassVar[tuple[str, ...]] = ("mass", "omega")
    drive: ClassVar[str] = "omega"

    mass: Callable[[float], float]
    omega: Callable[[float], float]
    t_i: float
    t_f: float
    mass_dot: Callable[[float], float] | None = None
    jump_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump_times", _check_window(self.t_i, self.t_f, self.jump_times))


@dataclass(frozen=True)
class FermionProtocol:
    """Two-mode fermion Hamiltonian coefficients (w0, w+, w-)."""

    kind: ClassVar[str] = "fermion"
    channels: ClassVar[tuple[str, ...]] = ("omega0", "omega_plus", "omega_minus")
    drive: ClassVar[str] = "omega_plus"

    omega0: Callable[[float], float]
    omega_plus: Callable[[float], complex]
    omega_minus: Callable[[float], complex]
    t_i: float
    t_f: float
    jump_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump_times", _check_window(self.t_i, self.t_f, self.jump_times))


Protocol = BosonProtocol | OscillatorProtocol | FermionProtocol

KINDS: dict[str, type[Protocol]] = {
    cls.kind: cls for cls in (BosonProtocol, OscillatorProtocol, FermionProtocol)
}


@dataclass(frozen=True)
class BosonSample:
    omega0: float
    omega_plus: complex


@dataclass(frozen=True)
class OscillatorSample:
    mass: float
    mass_dot: float
    omega: float


@dataclass(frozen=True)
class FermionSample:
    omega0: float
    omega_plus: complex
    omega_minus: complex


def statistics_of(protocol: Protocol) -> str:
    """Return ``"boson"`` or ``"fermion"`` for the protocol's statistics."""
    return "fermion" if protocol.kind == "fermion" else "boson"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _real_coefficient(name: str, value: complex | float, t: float) -> float:
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise ValueError(f"{name}({t}) = {value} must be real")
        value = value.real
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name}({t}) = {value} is not finite")
    return value


def _complex_coefficient(name: str, value: complex | float, t: float) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name}({t}) = {value} is not finite")
    return value


def _mass_dot(protocol: OscillatorProtocol, t: float) -> float:
    if protocol.mass_dot is not None:
        return _real_coefficient("mass_dot", protocol.mass_dot(t), t)
    h = FD_STEP
    lo = max(t - h, protocol.t_i)
    hi = min(t + h, protocol.t_f)
    return (float(protocol.mass(hi)) - float(protocol.mass(lo))) / (hi - lo)


def evaluate(protocol: Protocol, t: float):
    """Sample the protocol coefficients at time ``t``.

    ``t`` must lie inside ``[t_i, t_f]``; at a declared jump time the
    right-sided limit is returned (protocol callables are right-continuous by
    contract).  Raises ``ValueError`` for out-of-domain times or invalid
    coefficient values (non-finite, complex where real is required,
    non-positive mass).
    """
    if not (protocol.t_i <= t <= protocol.t_f):
        raise ValueError(
            f"time {t} outside protocol domain [{protocol.t_i}, {protocol.t_f}]"
        )
    if isinstance(protocol, BosonProtocol):
        return BosonSample(
            omega0=_real_coefficient("omega0", protocol.omega0(t), t),
            omega_plus=_complex_coefficient("omega_plus", protocol.omega_plus(t), t),
        )
    if isinstance(protocol, OscillatorProtocol):
        m = _real_coefficient("mass", protocol.mass(t), t)
        if m <= 0.0:
            raise ValueError(f"mass({t}) = {m} must be positive")
        return OscillatorSample(
            mass=m,
            mass_dot=_mass_dot(protocol, t),
            omega=_real_coefficient("omega", protocol.omega(t), t),
        )
    if isinstance(protocol, FermionProtocol):
        return FermionSample(
            omega0=_real_coefficient("omega0", protocol.omega0(t), t),
            omega_plus=_complex_coefficient("omega_plus", protocol.omega_plus(t), t),
            omega_minus=_complex_coefficient("omega_minus", protocol.omega_minus(t), t),
        )
    raise TypeError(f"not a protocol: {protocol!r}")


def check_initial_state(protocol: Protocol) -> None:
    """Raise ``ValueError`` unless the mode solvers' standard initial data
    applies at ``t_i``.

    Bosons and fermions need a diagonal initial Hamiltonian (every coupling
    within ``INITIAL_DIAGONAL_TOL`` of zero); oscillators need a stationary
    mass and a positive frequency.
    """
    s0 = evaluate(protocol, protocol.t_i)
    if protocol.kind == "oscillator":
        if abs(s0.mass_dot) > INITIAL_DIAGONAL_TOL * max(1.0, s0.mass):
            raise ValueError(
                f"mass_dot(t_i) = {s0.mass_dot} is not zero; the adiabatic initial "
                "condition requires a stationary mass at t_i"
            )
        if s0.omega <= 0.0:
            raise ValueError(f"omega(t_i) = {s0.omega} must be positive")
        return
    for name in protocol.channels:
        value = getattr(s0, name)
        if name in _COMPLEX_CHANNELS and abs(value) > INITIAL_DIAGONAL_TOL:
            raise ValueError(
                f"{name}(t_i) = {value} is not zero; the initial Hamiltonian must "
                "be diagonal for the standard initial data"
            )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
    message: str
    time: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics gathered by :func:`validate`.

    ``ok`` is False when any error-severity finding is present; warnings
    (e.g. a suspected undeclared discontinuity) do not make a protocol
    unusable on their own.
    """

    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def messages(self) -> list[str]:
        return [f"{f.severity}: {f.message}" for f in self.findings]


def validate(protocol: Protocol, samples: int = 2001) -> ValidationReport:
    """Probe the protocol on a uniform grid and report diagnostics.

    Checks performed:

    * every grid point evaluates to finite, well-typed coefficients
      (mass positivity included) -- violations are errors;
    * a finite-difference probe flags the largest suspected undeclared
      discontinuity per coefficient channel as a warning;
    * :func:`check_initial_state` -- initial data the mode solvers cannot
      start from is an error.
    """
    findings: list[Finding] = []
    t_i, t_f = protocol.t_i, protocol.t_f
    span = t_f - t_i
    grid = [t_i + span * k / (samples - 1) for k in range(samples)]

    first_error: str | None = None
    for t in grid:
        try:
            evaluate(protocol, t)
        except ValueError as exc:
            if first_error is None:
                first_error = str(exc)
                findings.append(Finding("error", str(exc), t))

    # Undeclared-discontinuity probe: symmetric difference over 2*FD_STEP,
    # skipping the neighbourhood of declared jumps.
    h = FD_STEP
    for name in protocol.channels:
        fn = getattr(protocol, name)
        worst: tuple[float, float] | None = None  # (delta_rel, t)
        for t in grid[1:-1]:
            if any(abs(t - tj) <= 2.0 * h for tj in protocol.jump_times):
                continue
            if t - h < t_i or t + h > t_f:
                continue
            try:
                lo = complex(fn(t - h))
                hi = complex(fn(t + h))
            except Exception:
                continue
            delta = abs(hi - lo)
            scale = 1.0 + max(abs(lo), abs(hi))
            rel = delta / scale
            if rel > _JUMP_THRESHOLD and (worst is None or rel > worst[0]):
                worst = (rel, t)
        if worst is not None:
            findings.append(
                Finding(
                    "warning",
                    f"possible undeclared discontinuity in {name} near t={worst[1]:.6g} "
                    f"(relative step {worst[0]:.3g} over {2 * h:.1g})",
                    worst[1],
                )
            )

    if first_error is None:
        try:
            check_initial_state(protocol)
        except ValueError as exc:
            findings.append(Finding("error", str(exc), t_i))

    return ValidationReport(findings=tuple(findings[:_MAX_FINDINGS]))


# ---------------------------------------------------------------------------
# construction from flat config
# ---------------------------------------------------------------------------

_FAMILY_KEYS = {
    "constant": ("value",),
    "linear": ("value_initial", "value_final"),
    "tanh": ("value_initial", "value_final", "center", "width"),
    "sudden": ("value_initial", "value_final", "t_jump"),
}

_COMPLEX_CHANNELS = {"omega_plus", "omega_minus"}


def _cfg_float(section: Mapping[str, str], key: str) -> float:
    raw = section[key]
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"protocol key '{key}': cannot parse '{raw}' as a number") from exc


def from_config(section: Mapping[str, str]) -> Protocol:
    """Build a protocol from a flat key-value description.

    Required keys: ``kind`` (boson | oscillator | fermion), ``family``
    (constant | sudden | linear | tanh), ``t_i``, ``t_f`` and the family's
    value parameters (``value`` for constant; ``value_initial``/``value_final``
    plus ``t_jump`` for sudden, or ``center``/``width`` for tanh).  ``drive``
    selects which coefficient the family applies to (default: ``omega`` for
    oscillators, ``omega0`` for bosons, ``omega_plus`` for fermions); the
    remaining coefficients are constants given by their own keys
    (``omega_plus_imag`` style keys supply imaginary parts).  Unknown keys are
    a hard error.
    """
    section = dict(section)
    for key in ("kind", "family", "t_i", "t_f"):
        if key not in section:
            raise ConfigError(f"protocol section is missing required key '{key}'")

    kind = section.pop("kind").strip().lower()
    if kind not in KINDS:
        raise ConfigError(f"unknown protocol kind '{kind}' (expected boson, oscillator or fermion)")
    family = section.pop("family").strip().lower()
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown profile family '{family}' (expected constant, sudden, linear or tanh)")
    t_i = _cfg_float(section, "t_i")
    t_f = _cfg_float(section, "t_f")
    section.pop("t_i"), section.pop("t_f")

    cls = KINDS[kind]
    channels = cls.channels
    drive = section.pop("drive", cls.drive).strip().lower()
    if drive not in channels:
        raise ConfigError(f"drive '{drive}' is not a coefficient of kind '{kind}' {channels}")

    # Driven channel: build the profile from the family parameters.
    jump_times: tuple[float, ...] = ()
    for key in _FAMILY_KEYS[family]:
        if key not in section:
            raise ConfigError(f"family '{family}' requires protocol key '{key}'")
    if family == "constant":
        profile: Callable[[float], float] = Constant(_cfg_float(section, "value"))
        section.pop("value")
    elif family == "linear":
        profile = LinearRamp(
            _cfg_float(section, "value_initial"), _cfg_float(section, "value_final"), t_i, t_f
        )
        section.pop("value_initial"), section.pop("value_final")
    elif family == "tanh":
        try:
            profile = make_tanh_ramp(
                _cfg_float(section, "value_initial"),
                _cfg_float(section, "value_final"),
                _cfg_float(section, "center"),
                _cfg_float(section, "width"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key in _FAMILY_KEYS["tanh"]:
            section.pop(key)
    else:  # sudden
        t_jump = _cfg_float(section, "t_jump")
        profile = Step(_cfg_float(section, "value_initial"), _cfg_float(section, "value_final"), t_jump)
        jump_times = (t_jump,)
        for key in _FAMILY_KEYS["sudden"]:
            section.pop(key)

    # Remaining channels: constants (with optional *_imag companions).
    # Couplings default to zero; an unspecified oscillator mass defaults to one.
    built: dict[str, Callable[[float], complex]] = {drive: profile}
    for name in channels:
        if name == drive:
            continue
        default = 1.0 if name == "mass" else 0.0
        real = _cfg_float(section, name) if name in section else default
        section.pop(name, None)
        imag = 0.0
        if name in _COMPLEX_CHANNELS and f"{name}_imag" in section:
            imag = _cfg_float(section, f"{name}_imag")
            section.pop(f"{name}_imag")
        built[name] = Constant(real) if imag == 0.0 else _ComplexConstant(complex(real, imag))
    if drive in _COMPLEX_CHANNELS and f"{drive}_imag" in section:
        imag = _cfg_float(section, f"{drive}_imag")
        section.pop(f"{drive}_imag")
        if imag != 0.0:
            built[drive] = _OffsetImag(profile, imag)

    if section:
        unknown = ", ".join(sorted(section))
        raise ConfigError(f"unknown protocol key(s): {unknown}")

    if kind == "oscillator":
        built["mass_dot"] = getattr(built["mass"], "derivative", None)
    try:
        return cls(**built, t_i=t_i, t_f=t_f, jump_times=jump_times)
    except ValueError as exc:  # empty window or misplaced jump
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class _ComplexConstant:
    value: complex

    def __call__(self, t: float) -> complex:
        return self.value


@dataclass(frozen=True)
class _OffsetImag:
    """Real profile with a constant imaginary offset."""

    profile: Callable[[float], float]
    imag: float

    def __call__(self, t: float) -> complex:
        return complex(self.profile(t), self.imag)
