"""Two independent constructions of the thermal vacuum, checked to round-off.

Doubling the system with a fictitious mirror copy turns a Gibbs density
matrix into a pure state |0(beta)>: entangling each level n with its mirror
partner at amplitude exp(-n*beta*w/2) reproduces every thermal average
of one-sided operators.  The same state is also the two-mode squeezed state
exp(theta (a^dag a~^dag - a a~)) |0, 0~>.  This script builds both, compares
them entry by entry, and verifies the eigenvalue condition that defines the
state: a |0(beta)> = tanh(theta) a~^dag |0(beta)> (tan(theta) with a sign
flip for fermions).
"""

import math
from types import SimpleNamespace

import numpy as np

from tfdyn import (
    OperatorMatrix,
    boson_doubled,
    build_boson_ladder,
    build_fermion_space,
    build_thermal_state_doubled,
    equilibrium_occupation,
    expectation,
    expectation_single_factor,
    fermion_doubled,
    theta,
    thermal_state_condition_residual,
    truncation_report,
)

BETA, OMEGA = 1.0, 1.0

# --- boson mode, truncated at 40 levels -----------------------------------
basis = boson_doubled(40)
series, squeeze = build_thermal_state_doubled(BETA, OMEGA, basis=basis)
th = theta(BETA, OMEGA)

print(f"boson thermal vacuum at beta = {BETA}, omega = {OMEGA} (theta = {th:.6f})")
print(f"  max |series - squeeze|      : {np.max(np.abs(series.vector - squeeze.vector)):.3e}")
print(f"  overlap |<series|squeeze>|  : {abs(np.vdot(series.vector, squeeze.vector)):.15f}")

# Pair amplitudes: only |n, n~> components appear, at tanh^n(theta)/cosh(theta).
c = squeeze.c_matrix()
print("  pair amplitudes <n, n~|0(beta)> vs tanh^n(theta)/cosh(theta):")
for n in range(5):
    exact = math.tanh(th) ** n / math.cosh(th)
    print(f"    n = {n}: {c[n, n].real:.12f} (exact {exact:.12f}), "
          f"off-diagonal row max {np.max(np.abs(np.delete(c[n], n))):.1e}")

# One-sided averages equal the Gibbs values, on either factor.
a_op, ad_op = build_boson_ladder(basis.n_levels)
n_op = OperatorMatrix(ad_op.matrix @ a_op.matrix, a_op.basis)
n_sys = expectation_single_factor(squeeze, n_op).real
n_mirror = expectation_single_factor(squeeze, n_op, tilde=True).real
print(f"  <a^dag a> = {n_sys:.12f}, mirror copy {n_mirror:.12f}, "
      f"Gibbs value {equilibrium_occupation(BETA, OMEGA):.12f}")

# Defining eigenvalue condition and truncation health.
residuals = thermal_state_condition_residual(
    squeeze, SimpleNamespace(t=0.0, f_minus=1.0, f_plus=0.0), th
)
print(f"  eigenvalue-condition residuals: "
      + ", ".join(f"{k} = {v:.2e}" for k, v in residuals.items()))
print(f"  tail weight on levels {int(0.9 * basis.n_levels)}-{basis.n_levels - 1}: "
      f"{truncation_report(squeeze):.3e}")
print()

# --- fermion pair, exact 16-dimensional space ------------------------------
BETA_F = math.log(2.0)
series_f, squeeze_f = build_thermal_state_doubled(BETA_F, OMEGA, basis=fermion_doubled())
th_f = theta(BETA_F, OMEGA, statistics="fermion")

print(f"fermion thermal vacuum at beta = ln 2 (theta = {th_f:.6f})")
print(f"  max |series - squeeze|      : {np.max(np.abs(series_f.vector - squeeze_f.vector)):.3e}")
ops = build_fermion_space(doubled=True)
a_d = ops["a"]
n_a = OperatorMatrix(a_d.dag.matrix @ a_d.matrix, a_d.basis)
print(f"  <a^dag a> = {expectation(squeeze_f, n_a).real:.12f} "
      f"(Gibbs value {equilibrium_occupation(BETA_F, OMEGA, statistics='fermion'):.12f}, exact 1/3)")
# The static invariant operators a(t) = a, b(t) = b: fa- = gb- = 1, the rest 0.
static = SimpleNamespace(
    t=0.0, f_a_minus=1.0, f_a_plus=0.0, g_a_minus=0.0, g_a_plus=0.0,
    f_b_minus=0.0, f_b_plus=0.0, g_b_minus=1.0, g_b_plus=0.0,
)
residuals_f = thermal_state_condition_residual(squeeze_f, static, th_f)
print(f"  eigenvalue-condition residuals: "
      + ", ".join(f"{k} = {v:.2e}" for k, v in residuals_f.items()))
