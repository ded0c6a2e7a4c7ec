"""Resonant pair creation in a driven fermion pair: an exact Rabi law.

A pair-coupling pulse omega_plus of amplitude g and duration T acts on two
fermion modes with equal and opposite free energies.  The pair it creates
co-rotates with the drive (zero detuning), so the vacuum and the pair state
form a degenerate two-level system: the produced occupation is exactly
sin^2(g T), a full Rabi oscillation in the pulse area.

Both routes are shown, on the same protocol.  The mode-function route
integrates the invariant operators and reads the production off the
Bogoliubov frame; the oracle route evolves the thermal vacuum on the exact
16-dimensional doubled space with the production march, at a temperature so
low that the thermal vacuum is the vacuum exactly, and takes <a^dag a> at the
end.  For a piecewise-constant pulse both are exact, so they agree to
round-off -- including against sin^2(g T) itself.  The script exits non-zero
when they do not.
"""

import math
import sys

from tfdyn import (
    Constant,
    FermionProtocol,
    IntegratorConfig,
    OperatorMatrix,
    OracleConfig,
    build_fermion_space,
    evolve_doubled_thermal,
    expectation,
    fermion_frame_coeffs,
    production_number,
    solve_fermion_modes,
)
from tfdyn.thermal_observables import EXP_ARG_MAX

OMEGA0 = 1.0
T_ON, T_OFF, T_END = 3.0, 7.0, 10.0
TIGHT = IntegratorConfig(rel_tol=1e-12)
# Past beta * omega0 = EXP_ARG_MAX the thermal angle is exactly 0, so
# the evolved thermal vacuum starts as the exact vacuum.
BETA = 2.0 * EXP_ARG_MAX / OMEGA0
# Grid points at t_i and t_f only: each constant stretch between the jumps
# takes one exact exponential per piece of at most 512 configured ones (3, 4
# and 3 here), in place of the J per step of the oracle's step rule
# (fock_oracle._STEP_RULE): a product of exact exponentials of the same H.
ORACLE = OracleConfig(grid_points=2)
# Largest gap allowed between any two of the three columns.  The measured
# gaps are about 2e-13 (mode route) and 5e-15 (oracle route).
AGREEMENT = 1e-11

a_d = build_fermion_space(doubled=True)["a"]
n_a = OperatorMatrix(a_d.dag.matrix @ a_d.matrix, a_d.basis)


def pulse_production(amplitude: float) -> tuple[float, float]:
    """Production from the mode equations and from the matrix oracle."""
    protocol = FermionProtocol(
        omega0=Constant(OMEGA0),
        omega_plus=lambda t: amplitude if T_ON <= t < T_OFF else 0.0,
        omega_minus=Constant(0.0),
        t_i=0.0, t_f=T_END, jump_times=(T_ON, T_OFF),
    )
    traj = solve_fermion_modes(protocol, TIGHT)
    frame = fermion_frame_coeffs(traj.final, OMEGA0, protocol=protocol)
    mode_route = production_number(frame)

    evolved = evolve_doubled_thermal(protocol, BETA, ORACLE).states[-1]
    oracle_route = expectation(evolved, n_a).real
    return mode_route, oracle_route


duration = T_OFF - T_ON
print(f"pulse duration T = {duration}, drive resonant at omega0 = {OMEGA0}")
print(f"{'amplitude g':>12} {'area gT':>9} | {'mode route':>13} {'oracle route':>13} {'sin^2(gT)':>13}")
worst = 0.0
for amplitude in (0.1, 0.25, 0.5, math.pi / 8.0, math.pi / 4.0):
    mode_route, oracle_route = pulse_production(amplitude)
    area = amplitude * duration
    exact = math.sin(area) ** 2
    worst = max(worst, abs(mode_route - oracle_route), abs(mode_route - exact),
                abs(oracle_route - exact))
    print(f"{amplitude:12.6f} {area:9.4f} | {mode_route:13.10f} "
          f"{oracle_route:13.10f} {exact:13.10f}")

print()
print("area gT = pi/2 inverts the pair completely (production 1); area pi")
print("returns it to the vacuum -- the drive can undo its own pair creation.")
print(f"largest gap between the three columns: {worst:.1e} (bound {AGREEMENT:.0e})")
if not worst <= AGREEMENT:
    sys.exit(f"the routes disagree by {worst:.3e}, more than {AGREEMENT:.0e}")
