"""Write energy, retention, and readout-noise analytics.

Programming a cell costs the energy of charging the input coupling
capacitor: E = (1/2) * C_in * V_in^2 per pulse.  As the gate decays,
reaching a fixed target voltage requires a growing input amplitude
V_in = (V_target - V_fg) / coupling_ratio, so the per-update energy of
maintaining a setpoint rises over the device's life;
``write_energy_trajectory`` builds that rise, the ``energy-report``
rows, through the c_in it is given.  Retention is
limited by the thermal accumulation floor of the readout, modeled as
sigma_T(t) = sigma0 + sigma_coeff * sqrt(t); ``retention_time`` runs on
the cell's float nodes.  ``DEFAULT_C_IN`` is every module's default c_in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .array import WEIGHT_SCALE, DamArray
from .cell import _evolved_nodes, _float_nodes, _float_weight, _one_cell
from .errors import DomainError
from .node import (FnParams, _pulse_count, _require_finite_positive, _require_int,
                   _require_nonnegative, _require_record, k0_from_initial, voltage_at)

ELECTRON_CHARGE = 1.602e-19  # coulomb
TEN_YEARS_S = 10 * 365.25 * 86400.0  # retention search horizon
DEFAULT_C_IN = 1e-12  # F, input capacitor charged by each write
DEFAULT_N_SAMPLES = 200  # points of a write-energy trajectory
# the readout front end's operating point
THERMAL_VOLTAGE_V = 0.026
GATE_EFFICIENCY = 0.7  # subthreshold kappa
SUPPLY_V = 5.0


@dataclass(frozen=True)
class NoiseModel:
    """Thermal accumulation noise floor of a stored weight.

    sigma0 is the instantaneous readout noise at t = 0; the floor grows
    as sigma0 + sigma_coeff * sqrt(t) as integrated thermal charge
    accumulates on the gate.
    """

    sigma0: float = 100e-6  # V
    sigma_coeff: float = 1.4e-6  # V / sqrt(s)

    def __post_init__(self):
        _require_nonnegative("sigma0", self.sigma0)
        _require_nonnegative("sigma_coeff", self.sigma_coeff)


class RetentionResult(NamedTuple):
    seconds: float
    saturated: bool  # True when the weight outlives the search horizon


class LedgerEntry(NamedTuple):
    cell_id: str
    t_s: float
    amplitude_v: float
    duration_s: float
    n_pulses: int
    energy_j: float


class EnergyLedger:
    """Append-only record of every programming pulse issued.

    One entry per (cell, pulse train); energy is n_pulses * (1/2) *
    c_in * amplitude^2.  The total adds the entries left to right from
    0.0, so a left-to-right re-summation matches it on every Python;
    since 3.12, the builtin ``sum()`` of floats is compensated.
    """

    def __init__(self, c_in: float = DEFAULT_C_IN):
        _require_finite_positive("c_in", c_in)
        self.c_in = c_in
        self._entries: list[LedgerEntry] = []

    def record(
        self, cell_id: str, t_s: float, amplitude_v: float, duration_s: float, n_pulses: int = 1
    ) -> LedgerEntry:
        n_pulses = _pulse_count(n_pulses)
        t_s, duration_s = float(t_s), float(duration_s)
        # both are checked off the fast path
        if not (0.0 <= t_s < math.inf and 0.0 < duration_s < math.inf):
            _require_nonnegative("t_s", t_s)
            _require_finite_positive("duration_s", duration_s)
        entry = LedgerEntry(
            cell_id=str(cell_id),
            t_s=t_s,
            amplitude_v=float(amplitude_v),
            duration_s=duration_s,
            n_pulses=n_pulses,
            energy_j=n_pulses * write_energy(self.c_in, amplitude_v),
        )
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def total_energy(self) -> float:
        total = 0.0
        for e in self._entries:
            total += e.energy_j
        return total


def write_energy(c_in: float, v_in: float) -> float:
    """Energy to charge the input capacitor to v_in: (1/2) C V^2."""
    _require_finite_positive("c_in", c_in)
    if not math.isfinite(v_in):
        raise DomainError(f"v_in must be finite, got {v_in!r}")
    energy = 0.5 * c_in * v_in * v_in
    if energy == math.inf:
        raise DomainError(f"v_in {v_in!r} V at c_in {c_in!r} F needs a write energy "
                          "out of float range")
    return energy


def v_train_required(v_target: float, v_fg: float, coupling_ratio: float) -> float:
    """Input amplitude needed to lift the gate to v_target through the divider."""
    if not (0 < coupling_ratio < 1):
        raise DomainError(f"coupling_ratio must be in (0, 1), got {coupling_ratio!r}")
    _require_finite_positive("v_target", v_target)
    _require_finite_positive("v_fg", v_fg)
    if v_target < v_fg:
        raise DomainError(
            f"cannot program upward through tunneling: target {v_target!r} V "
            f"below gate {v_fg!r} V"
        )
    v_train = (v_target - v_fg) / coupling_ratio
    if v_train == math.inf:
        raise DomainError(f"target {v_target!r} V above gate {v_fg!r} V at coupling_ratio "
                          f"{coupling_ratio!r} needs an input amplitude out of float range")
    return v_train


def setpoint_write(
    params: FnParams, k0: float, v_target: float, t: float, c_in: float
) -> tuple[float, float, float]:
    """(v_fg, v_train, energy) of the write that lifts the gate to v_target.

    The gate has decayed undisturbed for t seconds from k0.
    """
    v_fg = voltage_at(params, k0, t)
    v_train = v_train_required(v_target, v_fg, params.coupling_ratio)
    return v_fg, v_train, write_energy(c_in, v_train)


def write_energy_trajectory(
    params: FnParams, v0: float, offset_v: float, horizon_s: float, n_samples: int, c_in: float
) -> list[tuple[float, float, float, float]]:
    """Per-update write energy over the device's life for a fixed setpoint.

    Rows of (t, v_fg, v_train, energy), the ``setpoint_write`` of a gate
    that started at v0 and is lifted to the fixed target v0 + offset_v
    through c_in.  As the gate decays away from the target the required
    amplitude (v_target - v_fg(t)) / coupling_ratio, and hence the
    energy, grow monotonically.  The n_samples times run from t = 0 to
    exactly horizon_s, geometric after t = 0: early life is where the
    trajectory bends fastest.
    """
    k0 = k0_from_initial(params, v0)
    _require_int("n_samples", n_samples)
    if n_samples < 2:
        raise DomainError(f"n_samples must be >= 2, got {n_samples!r}")
    _require_finite_positive("horizon_s", horizon_s)
    _require_finite_positive("offset_v", offset_v)
    t_first = min(1.0, horizon_s / n_samples)
    try:
        ratio = (horizon_s / t_first) ** (1.0 / (n_samples - 2)) if n_samples > 2 else 1.0
        times = [0.0] + [min(t_first * ratio**i, horizon_s) for i in range(n_samples - 1)]
    except (ZeroDivisionError, OverflowError):  # t_first underflows, or ratio**i overflows
        raise DomainError(f"horizon_s = {horizon_s!r} s has no geometric grid of "
                          f"{n_samples} samples in float range") from None
    times[-1] = horizon_s
    v_target = v0 + offset_v
    return [(t, *setpoint_write(params, k0, v_target, t, c_in)) for t in times]


def noise_floor(model: NoiseModel, t: float) -> float:
    """Thermal accumulation floor (V) after t seconds of storage."""
    if not 0.0 <= t < math.inf:  # t is checked off its fast path
        _require_nonnegative("t", t)
    return model.sigma0 + model.sigma_coeff * math.sqrt(t)


def retention_time(cell: DamArray, model: NoiseModel) -> RetentionResult:
    """Time until the cell's decaying weight sinks into the noise floor.

    Simulates the full two-node decay from the cell's current state and
    finds the first crossing |w(t)| = noise_floor(t) by bracketed
    bisection, to 1 s or 0.1% of the answer, whichever is larger.
    Returns TEN_YEARS_S with saturated=True when the weight outlives it.
    A weight already at or below the floor returns 0 s.
    """
    nodes = _float_nodes(_one_cell(cell))
    _require_record("model", model, NoiseModel)
    return _retention_time(nodes, model)


def _retention_time(nodes, model: NoiseModel) -> RetentionResult:
    """retention_time on a cell's float nodes (``cell._float_nodes``)."""
    horizon_s = TEN_YEARS_S

    def margin(t):
        w_v = abs(_float_weight(_evolved_nodes(nodes, t))) / WEIGHT_SCALE
        return w_v - noise_floor(model, t)

    if margin(0.0) <= 0:
        return RetentionResult(seconds=0.0, saturated=False)
    if margin(horizon_s) > 0:
        return RetentionResult(seconds=horizon_s, saturated=True)
    lo, hi = 0.0, horizon_s
    # expanding bracket from 1 s keeps the bisection tight for short-lived cells
    t = 1.0
    while t < horizon_s:
        if margin(t) <= 0:
            hi = t
            break
        lo = t
        t *= 2.0
    while hi - lo > max(1.0, 1e-3 * lo):
        mid = 0.5 * (lo + hi)
        if margin(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return RetentionResult(seconds=hi, saturated=False)


def read_noise(p_read: float, bandwidth: float) -> float:
    """rms readout voltage noise at read power p_read over the given bandwidth.

        V_n = sqrt(4 * U_T^2 * q * V_DD * bandwidth / (kappa * P_read))
    """
    _require_finite_positive("p_read", p_read)
    _require_finite_positive("bandwidth", bandwidth)
    return math.sqrt(4.0 * THERMAL_VOLTAGE_V**2 * ELECTRON_CHARGE * SUPPLY_V * bandwidth
                     / (GATE_EFFICIENCY * p_read))


def min_read_power(noise_target: float, bandwidth: float) -> float:
    """Smallest read power whose rms noise stays at or below noise_target.

    Raises DomainError when that power, or noise_target squared, is not
    a positive finite float.
    """
    _require_finite_positive("noise_target", noise_target)
    _require_finite_positive("bandwidth", bandwidth)
    try:
        power = (4.0 * THERMAL_VOLTAGE_V**2 * ELECTRON_CHARGE * SUPPLY_V * bandwidth
                 / (GATE_EFFICIENCY * noise_target**2))
    except (OverflowError, ZeroDivisionError):  # noise_target**2 left float range
        power = 0.0
    if 0.0 < power < math.inf:
        return power
    raise DomainError(f"noise_target {noise_target!r} V at bandwidth {bandwidth!r} Hz "
                      "needs a read power out of float range")

