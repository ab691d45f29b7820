"""The delayed Beta polymer: recurrence, path sum, random walk, and moments.

The partition function solves a convex recurrence in a Beta-distributed
environment; the same number is the delayed sum over directed paths and the
hitting probability of a random walk in that environment.  Its integer
moments admit nested contour integrals (with a degenerate operator factor for
joint/delayed versions) and an exact annealed multi-walker computation.
"""

from qhahn_polymer.moments import ConvergenceError, beta_moment_integral, single_contour_moment
from qhahn_polymer.polymer import (
    PolymerModel,
    joint_moment_annealed,
    moment_annealed,
    partition_bruteforce,
    partition_dp,
    rwre_hitting,
    sample_environment,
)
from qhahn_polymer.qtools import Permutation, spawn_rng

model = PolymerModel(
    sigma_list=(1.3, 1.25, 1.28, 1.27),
    rho_list=(0.2, 0.3, 0.25, 0.27),
    omega_list=(-4.2, -4.3, -4.1, -4.25),
)

env = sample_environment(model, 3, 4, spawn_rng(11))
x, y, r = 2, 4, 1
z_dp = partition_dp(env, r, x, y).value(x, y)
z_paths = partition_bruteforce(env, r, x, y)
z_walk = rwre_hitting(env, r, x, y)
print(f"one environment, Z^({r})_({x},{y}):")
print(f"  recurrence          : {z_dp:.15f}")
print(f"  delayed path sum    : {z_paths:.15f}")
print(f"  walk hitting prob.  : {z_walk:.15f}")

print("\nannealed moments vs nested contour integrals (x=1, y=3, r=0):")
for k in (1, 2, 3):
    exact = moment_annealed(model, 1, 3, 0, k)
    integral = beta_moment_integral(model, [1] * k, [3] * k, [0] * k)
    print(f"  k={k}: annealed {exact:.12f}   integral {integral.real:.12f}")

print("\nsingle-contour (partition-sum) form agrees with the nested one and the annealed moment:")
for k in (2, 3, 4):
    single = single_contour_moment(model, 1, 3, k)
    exact = moment_annealed(model, 1, 3, 0, k)
    try:
        vs_nested = f"{abs(beta_moment_integral(model, [1] * k, [3] * k, [0] * k) - single):.2e}"
    except ConvergenceError as err:  # k = 4 stops at its 32-node cap
        vs_nested = f"n/a (nested {err})"
    print(f"  k={k}: |single - annealed| = {abs(single - exact):.2e}   |nested - single| = {vs_nested}")

print("\njoint moment with distinct points and delays, nontrivial pairing:")
tau = Permutation((2, 1))
xs, ys, rs = (1, 2), (4, 3), (0, 1)
val = beta_moment_integral(model, xs, ys, rs, tau=tau)
specs = [(xs[a], ys[a], rs[tau.inv(a + 1) - 1]) for a in range(2)]
ref = joint_moment_annealed(model, specs)
print(f"  integral {val.real:.12f}   annealed {ref:.12f}")
