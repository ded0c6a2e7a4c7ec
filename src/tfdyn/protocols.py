"""Time-dependent quadratic Hamiltonian protocols.

A protocol bundles the coefficient functions of a quadratic Hamiltonian with
the time window on which they are defined, in units with hbar = 1.  Three
kinds are supported:

* :class:`BosonProtocol` --
  ``H(t) = w0(t) a^dag a + (w+(t)/2) a^dag^2 + (w+(t)*/2) a^2``
* :class:`OscillatorProtocol` --
  ``H(t) = p^2 / 2 m(t) + m(t) w(t)^2 q^2 / 2``
* :class:`FermionProtocol` --
  ``H(t) = w0 (a^dag a - b^dag b) + w+ a^dag b^dag - w+* a b
  + w- a b^dag - w-* a^dag b``

Each kind is stated once, on its class: ``kind``, the coefficient
``channels`` and the channel a config's profile family ``drive``s by default.
Two functions sample the coefficients under one coercion rule:
``omega_plus`` and ``omega_minus`` are complex, every other channel is real.
:func:`sampler` returns a function of ``t`` that gives the channels as a
tuple, for the inner loops of the solvers and the oracle; :func:`evaluate`
returns the same values as a record with one attribute per channel.
:func:`validate` samples whole grids at once through the built-in profiles'
``values`` (numpy) methods, which serve nothing else.
:func:`check_initial_state` says where the mode solvers can start: a boson
or fermion needs no coupling at ``t_i``, an oscillator a positive frequency
there, while its mass and frequency may both already move.

Coefficient callables must be pure: deterministic and side-effect free.
Discontinuities are allowed only at declared jump times; a callable must be
right-continuous there, so that evaluation at a jump returns the right-sided
limit.  Profiles built by this module follow that convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, ClassVar, Mapping

import numpy as np

from .errors import ConfigError

__all__ = [
    "BosonProtocol",
    "OscillatorProtocol",
    "FermionProtocol",
    "Finding",
    "ValidationReport",
    "KINDS",
    "evaluate",
    "sampler",
    "make_tanh_ramp",
    "check_initial_state",
    "initial_frame",
    "validate",
    "from_config",
    "statistics_of",
    "FD_STEP",
    "INITIAL_DIAGONAL_TOL",
]

# Step of the discontinuity probe in validate().
FD_STEP = 1e-6

# Relative threshold for the undeclared-discontinuity heuristic: a symmetric
# difference larger than this fraction of the local scale is suspicious.
_JUMP_THRESHOLD = 1e-3

# validate() probes the window at this many equally spaced points.
_PROBE_POINTS = 2001

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

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.value)


@dataclass(frozen=True)
class LinearRamp:
    """Linear interpolation from ``start`` to ``end`` over [t_start, t_end].

    Held constant outside the ramp window.
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

    def values(self, times: np.ndarray) -> np.ndarray:
        ramp = self.start + (self.end - self.start) * (
            (times - self.t_start) / (self.t_end - self.t_start)
        )
        return np.where(
            times <= self.t_start, self.start, np.where(times >= self.t_end, self.end, ramp)
        )


@dataclass(frozen=True)
class Step:
    """Right-continuous step from ``before`` to ``after`` at ``t_jump``."""

    before: float
    after: float
    t_jump: float

    def __call__(self, t: float) -> float:
        return self.after if t >= self.t_jump else self.before

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.where(times >= self.t_jump, self.after, self.before)


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

    def values(self, times: np.ndarray) -> np.ndarray:
        z = (times - self.center) / self.width
        return self.start + 0.5 * (self.end - self.start) * (1.0 + np.tanh(z))


def make_tanh_ramp(start: float, end: float, center: float, width: float) -> TanhRamp:
    """Return a smooth tanh ramp profile.

    Parameters
    ----------
    start, end : float
        Asymptotic values far before / after the transition.
    center : float
        Time at which the profile crosses the midpoint (start + end)/2; must
        be finite.
    width : float
        Transition time scale; must be positive and finite.  An infinite
        width or center would make the ramp a constant.
    """
    if not (0.0 < width < math.inf and math.isfinite(center)):
        raise ValueError(
            f"tanh ramp width must be positive and finite and its center finite, "
            f"got width = {width}, center = {center}"
        )
    return TanhRamp(float(start), float(end), float(center), float(width))


@dataclass(frozen=True)
class _OffsetImag:
    """Real profile with a constant imaginary offset."""

    profile: Callable[[float], float]
    imag: float

    def __call__(self, t: float) -> complex:
        return complex(self.profile(t), self.imag)

    def values(self, times: np.ndarray) -> np.ndarray:
        return self.profile.values(times) + 1j * self.imag


# ---------------------------------------------------------------------------
# protocol kinds
# ---------------------------------------------------------------------------

def _check_window(t_i: float, t_f: float, jump_times: tuple[float, ...]) -> tuple[float, ...]:
    if not (math.isfinite(t_i) and math.isfinite(t_f)):
        raise ValueError("protocol window must be finite")
    if not t_f > t_i:
        raise ValueError(f"protocol window is empty: t_i={t_i}, t_f={t_f}")
    if not math.isfinite(t_f - t_i):
        raise ValueError(f"protocol window is too wide: t_f - t_i overflows for [{t_i}, {t_f}]")
    jumps = tuple(sorted(float(t) for t in jump_times))
    for t in jumps:
        if not (t_i < t < t_f):
            raise ValueError(f"declared jump time {t} lies outside ({t_i}, {t_f})")
    if len(set(jumps)) != len(jumps):
        raise ValueError("declared jump times must be distinct")
    return jumps


class _Windowed:
    """Checks the window and sorts the declared jumps of a protocol."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump_times", _check_window(self.t_i, self.t_f, self.jump_times))


@dataclass(frozen=True)
class BosonProtocol(_Windowed):
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


@dataclass(frozen=True)
class OscillatorProtocol(_Windowed):
    """Harmonic oscillator with time-dependent mass and frequency."""

    kind: ClassVar[str] = "oscillator"
    channels: ClassVar[tuple[str, ...]] = ("mass", "omega")
    drive: ClassVar[str] = "omega"

    mass: Callable[[float], float]
    omega: Callable[[float], float]
    t_i: float
    t_f: float
    jump_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class FermionProtocol(_Windowed):
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


Protocol = BosonProtocol | OscillatorProtocol | FermionProtocol

KINDS: dict[str, type[Protocol]] = {
    cls.kind: cls for cls in (BosonProtocol, OscillatorProtocol, FermionProtocol)
}

# The coupling channels; every other channel is real.
_COMPLEX_CHANNELS = frozenset({"omega_plus", "omega_minus"})


def statistics_of(protocol: Protocol) -> str:
    """Return ``"boson"`` or ``"fermion"`` for the protocol's statistics."""
    return "fermion" if protocol.kind == "fermion" else "boson"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _coefficient(name: str, value: complex | float, t: float) -> complex | float:
    """``value`` as a finite complex for a coupling, else as a finite real."""
    if name in _COMPLEX_CHANNELS:
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


def sampler(protocol: Protocol) -> Callable[[float], tuple]:
    """A function of ``t`` that samples the protocol's coefficients.

    It returns one value per channel, in ``protocol.channels`` order: the
    couplings as complex, every other channel as float, each finite, and an
    oscillator's mass positive.  A finite float is taken as it is (made
    complex on a coupling); any other value goes through the one coercion
    rule, ``_coefficient``.  A time outside ``[t_i, t_f]`` or a value the
    rule refuses raises ``ValueError``.  :func:`evaluate` is the same sample
    as a record.  Solvers and the oracle sample through it in their inner
    loops.

    The function keeps its last successful sample and returns it again for a
    time equal to that one bit for bit (same type, and -0.0 apart from 0.0),
    so a DOP853 step's last stage and f at its end, which share a time,
    sample the protocol once.  A sample that raises is not kept.
    """
    t_i, t_f = protocol.t_i, protocol.t_f
    channels = tuple(
        (name, getattr(protocol, name), name in _COMPLEX_CHANNELS) for name in protocol.channels
    )
    positive_first = protocol.kind == "oscillator"  # its first channel is the mass
    last_t = last = None

    def sample(t: float) -> tuple:
        nonlocal last_t, last
        if t == last_t and type(t) is type(last_t) and (
            t or math.copysign(1.0, t) == math.copysign(1.0, last_t)
        ):
            return last
        if not (t_i <= t <= t_f):
            raise ValueError(f"time {t} outside protocol domain [{t_i}, {t_f}]")
        values = []
        for name, fn, coupling in channels:
            value = fn(t)
            if type(value) is float and value - value == 0.0:  # a finite float
                values.append(complex(value) if coupling else value)
            else:
                values.append(_coefficient(name, value, t))
        if positive_first and values[0] <= 0.0:
            raise ValueError(f"mass({t}) = {values[0]} must be positive")
        last_t, last = t, tuple(values)
        return last

    return sample


def evaluate(protocol: Protocol, t: float) -> SimpleNamespace:
    """Sample the protocol coefficients at time ``t``.

    Returns one attribute per channel of the protocol's kind.  ``t`` must
    lie inside ``[t_i, t_f]``; at a declared jump time the right-sided limit
    is returned (protocol callables are right-continuous by contract).
    Raises ``ValueError`` for out-of-domain times or invalid coefficient
    values (non-finite, complex where real is required, non-positive mass).
    """
    return SimpleNamespace(**dict(zip(protocol.channels, sampler(protocol)(t))))


def check_initial_state(protocol: Protocol) -> None:
    """Raise ``ValueError`` unless the mode solvers' standard initial data
    applies at ``t_i``.

    Bosons and fermions need a diagonal initial Hamiltonian (every coupling
    within ``INITIAL_DIAGONAL_TOL`` of zero); oscillators need a positive
    frequency, and their mass may move at t_i: neither the initial data nor
    the Gibbs state of H(t_i) reads its rate of change.
    """
    s0 = evaluate(protocol, protocol.t_i)
    if protocol.kind == "oscillator" and s0.omega <= 0.0:
        raise ValueError(f"omega(t_i) = {s0.omega} must be positive")
    for name in protocol.channels:
        value = getattr(s0, name)
        if name in _COMPLEX_CHANNELS and abs(value) > INITIAL_DIAGONAL_TOL:
            raise ValueError(
                f"{name}(t_i) = {value} is not zero; the initial Hamiltonian must "
                "be diagonal for the standard initial data"
            )


def initial_frame(protocol: Protocol) -> tuple[float, float]:
    """(mass, omega) of the static frame at t_i (mass 1 for abstract modes)."""
    first, *rest = sampler(protocol)(protocol.t_i)
    if protocol.kind == "oscillator":
        return first, rest[0]
    return 1.0, first


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


def _probe(
    fn: Callable[[float], complex], times: np.ndarray, coerce: Callable = complex
) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` at each of ``times`` as complex numbers, and where it raised.

    A built-in profile samples every time at once through its ``values``.
    A bare callable is called point by point and each value passed through
    ``coerce``: where either raises ``ValueError`` the sample reads NaN, and
    where either raises any other exception the sample reads NaN and is
    marked, so that the caller can re-evaluate the point and let that
    exception propagate.
    """
    values = getattr(fn, "values", None)
    if values is not None:
        return np.asarray(values(times), dtype=complex), np.zeros(times.shape, dtype=bool)
    out = np.full(times.shape, complex("nan"))
    raised = np.zeros(times.shape, dtype=bool)
    for k, t in enumerate(times.tolist()):
        try:
            out[k] = coerce(fn(t))
        except ValueError:
            pass
        except Exception:  # re-raised by the caller's judge at this point
            raised[k] = True
    return out, raised


def validate(protocol: Protocol) -> ValidationReport:
    """Probe the protocol on a uniform grid of ``_PROBE_POINTS`` and report
    diagnostics.

    Checks performed:

    * every grid point evaluates to finite, well-typed coefficients
      (mass positivity included) -- violations are errors;
    * a finite-difference probe flags the largest suspected undeclared
      discontinuity per coefficient channel as a warning;
    * :func:`check_initial_state` -- initial data the mode solvers cannot
      start from is an error.

    Each channel is sampled as an array on the grid and on the two probe
    grids.  Only the first failing grid point is reported, with the message
    :func:`evaluate` gives there; an exception other than ``ValueError``
    that it raises at any grid point propagates.
    """
    findings: list[Finding] = []
    t_i, t_f = protocol.t_i, protocol.t_f
    grid = t_i + (t_f - t_i) * np.arange(_PROBE_POINTS) / (_PROBE_POINTS - 1)
    grid[-1] = t_f  # the formula can round past t_f, out of the window
    h = FD_STEP
    # the discontinuity probe's centres: inside the window by h, and away
    # from the declared jumps
    centres = grid[1:-1]
    usable = (centres - h >= t_i) & (centres + h <= t_f)
    for tj in protocol.jump_times:
        usable &= ~(np.abs(centres - tj) <= 2.0 * h)
    centres = centres[usable]

    with np.errstate(all="ignore"):
        bad = ~((grid >= t_i) & (grid <= t_f))
        raised = np.zeros(grid.shape, dtype=bool)
        channels = [(name, getattr(protocol, name)) for name in protocol.channels]
        for name, fn in channels:
            values, failed = _probe(fn, grid, lambda v, _n=name: _coefficient(_n, v, 0.0))
            raised |= failed
            bad |= ~np.isfinite(values)
            if name not in _COMPLEX_CHANNELS:
                bad |= values.imag != 0.0
            if name == "mass":
                bad |= ~(values.real > 0.0)

        # the sampler is the judge: its first ValueError is the finding, and
        # any other exception it raises at a later point still propagates
        sample = sampler(protocol)
        for k in np.flatnonzero(bad):
            if findings and not raised[k]:
                continue
            t = float(grid[k])
            try:
                sample(t)
            except ValueError as exc:
                if not findings:
                    findings.append(Finding("error", str(exc), t))
        evaluates = not findings

        # Undeclared-discontinuity probe: symmetric difference over 2*FD_STEP.
        for name, fn in channels:
            lo, _ = _probe(fn, centres - h)
            hi, _ = _probe(fn, centres + h)
            rel = np.abs(hi - lo) / (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
            suspects = np.flatnonzero(rel > _JUMP_THRESHOLD)
            if suspects.size:
                k = suspects[np.argmax(rel[suspects])]
                worst, t = float(rel[k]), float(centres[k])
                message = (
                    f"possible undeclared discontinuity in {name} near t={t:.6g} "
                    f"(relative step {worst:.3g} over {2 * h:.1g})"
                )
                findings.append(Finding("warning", message, t))

    if evaluates:
        try:
            check_initial_state(protocol)
        except ValueError as exc:
            findings.append(Finding("error", str(exc), t_i))

    return ValidationReport(findings=tuple(findings))


# ---------------------------------------------------------------------------
# construction from flat config
# ---------------------------------------------------------------------------

# profile family -> (its parameter keys, builder(t_i, t_f, *values) ->
# (profile, declared jump times))
_FAMILIES = {
    "constant": (("value",), lambda t_i, t_f, value: (Constant(value), ())),
    "linear": (
        ("value_initial", "value_final"),
        lambda t_i, t_f, start, end: (LinearRamp(start, end, t_i, t_f), ()),
    ),
    "tanh": (
        ("value_initial", "value_final", "center", "width"),
        lambda t_i, t_f, *values: (make_tanh_ramp(*values), ()),
    ),
    "sudden": (
        ("value_initial", "value_final", "t_jump"),
        lambda t_i, t_f, before, after, t_jump: (Step(before, after, t_jump), (t_jump,)),
    ),
}


def _take(section: dict[str, str], key: str, default: float | None = None) -> float | None:
    """Parse and remove ``key``, or return ``default`` when it is absent."""
    raw = section.pop(key, None)
    if raw is None:
        return default
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
    if family not in _FAMILIES:
        raise ConfigError(f"unknown profile family '{family}' (expected constant, sudden, linear or tanh)")
    t_i, t_f = _take(section, "t_i"), _take(section, "t_f")

    cls = KINDS[kind]
    drive = section.pop("drive", cls.drive).strip().lower()
    if drive not in cls.channels:
        raise ConfigError(f"drive '{drive}' is not a coefficient of kind '{kind}' {cls.channels}")

    keys, build = _FAMILIES[family]
    for key in keys:
        if key not in section:
            raise ConfigError(f"family '{family}' requires protocol key '{key}'")
    values = [_take(section, key) for key in keys]
    try:
        profile, jump_times = build(t_i, t_f, *values)
    except ValueError as exc:  # a tanh width or center out of range
        raise ConfigError(str(exc)) from exc

    # The other channels are constants (couplings default to 0, mass to 1).
    # Any coupling, driven or not, takes an imaginary part from its *_imag key.
    built: dict[str, Callable[[float], complex]] = {}
    for name in cls.channels:
        default = 1.0 if name == "mass" else 0.0
        built[name] = profile if name == drive else Constant(_take(section, name, default))
        if name in _COMPLEX_CHANNELS:
            imag = _take(section, f"{name}_imag", 0.0)
            if imag != 0.0:
                built[name] = _OffsetImag(built[name], imag)

    if section:
        unknown = ", ".join(sorted(section))
        raise ConfigError(f"unknown protocol key(s): {unknown}")

    try:
        return cls(**built, t_i=t_i, t_f=t_f, jump_times=jump_times)
    except ValueError as exc:  # empty window or misplaced jump
        raise ConfigError(str(exc)) from exc
