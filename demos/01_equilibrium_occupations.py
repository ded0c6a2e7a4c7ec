"""Equilibrium occupations and thermal mixing angles for both statistics.

A thermal state of a single mode is summarised by one angle theta: the mean
occupation is sinh^2(theta) for bosons and sin^2(theta) for fermions, with
tanh(theta) resp. tan(theta) equal to the Boltzmann factor exp(-beta*w/2).
This script tabulates occupations against inverse temperature and re-derives
every row by a brute-force Gibbs trace on the matrix oracle's Fock spaces.
"""

import math

from tfdyn import (
    OperatorMatrix,
    build_boson_ladder,
    build_fermion_space,
    equilibrium_occupation,
    expectation,
    theta,
    thermal_density,
)

OMEGA = 1.0
N_LEVELS = 60  # boson truncation; tail weight exp(-beta*N) is negligible here
BETAS = (0.5, math.log(2.0), 1.0, 2.0, 4.0)

# Number operators on the oracle bases.
a_op, ad_op = build_boson_ladder(N_LEVELS)
n_boson = OperatorMatrix(ad_op.matrix @ a_op.matrix, a_op.basis)
fermion_ops = build_fermion_space()
a_f = fermion_ops["a"]
n_fermion = OperatorMatrix(a_f.dag.matrix @ a_f.matrix, a_f.basis)

print("Equilibrium occupations at omega = 1 (closed form vs Gibbs trace)")
print(f"{'beta':>8} | {'n_boson':>12} {'sinh^2(th)':>12} {'trace':>12} "
      f"| {'n_fermion':>12} {'sin^2(th)':>12} {'trace':>12}")
for beta in BETAS:
    nb = equilibrium_occupation(beta, OMEGA)
    nf = equilibrium_occupation(beta, OMEGA, statistics="fermion")
    th_b = theta(beta, OMEGA)
    th_f = theta(beta, OMEGA, statistics="fermion")
    rho_b = thermal_density(beta, OMEGA, basis=n_boson.basis)
    rho_f = thermal_density(beta, OMEGA, basis=n_fermion.basis)
    trace_b = expectation(rho_b, n_boson).real
    trace_f = expectation(rho_f, n_fermion).real
    print(f"{beta:8.4f} | {nb:12.8f} {math.sinh(th_b)**2:12.8f} {trace_b:12.8f} "
          f"| {nf:12.8f} {math.sin(th_f)**2:12.8f} {trace_f:12.8f}")

# Two landmark temperatures: beta*w = ln 2 makes the fermion occupation
# exactly 1/3, and beta*w = 1 gives the boson value 1/(e - 1).
print()
print(f"fermion occupation at beta = ln 2 : {equilibrium_occupation(math.log(2.0), OMEGA, statistics='fermion'):.15f} (exact 1/3)")
print(f"boson   occupation at beta = 1    : {equilibrium_occupation(1.0, OMEGA):.15f} (exact 1/(e-1) = {1.0 / math.expm1(1.0):.15f})")
print(f"boson   occupation at beta = ln 2 : {equilibrium_occupation(math.log(2.0), OMEGA):.15f} (exact 1)")
