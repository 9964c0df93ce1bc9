"""
Energy budget of a drifting memory
==================================

Writing through a capacitive divider costs (1/2) C V^2 per pulse.  A
fresh cell programs with ~0.1 V at the input, i.e. 5 fJ; as the nodes
drain, the required input voltage creeps up, and after 12 days the same
update costs ~2.5 pJ.  Reading has its own budget: the achievable
readout noise falls as 1/sqrt(power), so every decade of noise costs
two decades of read power.
"""

from dataclasses import replace

from fndam.calibrate import default_params
from fndam.energy import (NoiseModel, ReadModel, min_read_power, noise_floor,
                          read_noise, retention_time, write_energy,
                          write_energy_trajectory)
from fndam.cell import synchronize
from fndam.node import k0_from_initial

par = default_params()
k0 = k0_from_initial(par, 7.5)

print(f"one fresh 10 mV update  : {write_energy(1e-12, 0.1):.3e} J")
print(f"same update, 0.5 V input: {write_energy(1e-12, 0.5):.3e} J")

print("\nper-update energy along the first 12 days:")
print("t [s]           E [J]")
for t, e in write_energy_trajectory(par, k0, 0.01, 12 * 86400.0, n_samples=7):
    print(f"{t:<14.6g} {e:.3e}")

model = NoiseModel()
print(f"\nreadout noise floor: {noise_floor(model, 0.0) * 1e6:.0f} uV fresh, "
      f"{noise_floor(model, 1e4) * 1e6:.0f} uV after 1e4 s")

print("\nhow long stays a 1 mV weight above the noise floor?")
for v_start, label in ((7.5, "fresh pair"), (7.2, "rested pair")):
    cell = replace(synchronize(par, v_start), v=[[v_start, v_start + 0.001]])
    r = retention_time(cell, model)
    print(f"  {label} ({v_start} V): {r.seconds:.3g} s")

read = ReadModel()
for sigma in (1e-4, 1e-5, 1e-6):
    p = min_read_power(read, sigma, 1e3)
    back = read_noise(read, p, 1e3)
    print(f"read at sigma = {sigma * 1e6:7.1f} uV over 1 kHz: "
          f"P = {p:.3e} W (round trip {back * 1e6:.1f} uV)")
