"""
Single-node decay
=================

A floating-gate node discharging through a Fowler-Nordheim tunneling
junction follows V(t) = k2 / log(k1*t + k0): the longer it has been
draining, the slower it drains.  This script walks one node down its
trajectory and shows the two properties everything else in the package
leans on -- the closed form solves the underlying ODE, and evolving in
two hops lands exactly where one hop does.
"""

import math

from fndam.calibrate import default_params
from fndam.node import evolve, tunneling_current

par = default_params()
v = 7.5  # a freshly programmed gate

print("t [s]          V_fg [V]    dV/dt [V/s]")
t = 0.0
for dt in (0.0, 1.0, 9.0, 30.0, 60.0, 300.0, 600.0, 3600.0, 82800.0,
           518400.0, 2505600.0, 28512000.0):
    v = evolve(v, par, dt)
    t += dt
    rate = tunneling_current(par, v)
    print(f"{t:<12.4g}   {v:.6f}    {rate:.3e}")

# Semigroup property: evolve(a+b) == evolve(a) then evolve(b).
one_hop = evolve(7.5, par, 1e6)
two_hop = evolve(evolve(7.5, par, 123.456), par, 1e6 - 123.456)
print(f"\nsemigroup check: |V(one hop) - V(two hops)| = "
      f"{abs(one_hop - two_hop):.3e} V")

# Euler integration of dV/dt = -(k1/k2) V^2 exp(-k2/V) should land close
# to the closed form (it sees the raw rate, never the log formula).
v, h = 7.5, 0.001
for _ in range(40_000):
    v -= h * (v * v / par.k2) * math.exp(par.log_k1 - par.k2 / v)
closed = evolve(7.5, par, 40.0)
print(f"euler 40 s vs closed form: {v:.9f} vs {closed:.9f} "
      f"(diff {abs(v - closed):.2e} V)")
