"""Write energy, retention, and readout-noise analytics.

Programming a cell costs the energy of charging the input coupling
capacitor: E = (1/2) * C_in * V_in^2 per pulse.  As the gate decays,
reaching a fixed target voltage requires a growing input amplitude
V_in = (V_target - V_fg) / coupling_ratio, so the per-update energy of
maintaining a setpoint rises over the device's life.  Retention is
limited by the thermal accumulation floor of the readout, modeled as
sigma_T(t) = sigma0 + sigma_coeff * sqrt(t); ``retention_time`` runs on
the cell's float nodes.  ``DEFAULT_C_IN`` is every module's default c_in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .array import DamArray
from .cell import _evolved_nodes, _float_nodes, _float_weight
from .errors import DomainError
from .node import FnParams, _pulse_count, voltage_at
from .tables import csv_table, record_row

ELECTRON_CHARGE = 1.602e-19  # coulomb
TEN_YEARS_S = 10 * 365.25 * 86400.0  # retention search horizon
DEFAULT_C_IN = 1e-12  # F, input capacitor charged by each write
DEFAULT_N_SAMPLES = 200  # points of a write-energy trajectory


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
        if not (0 <= self.sigma0 < math.inf and 0 <= self.sigma_coeff < math.inf):
            raise DomainError("noise model coefficients must be finite and >= 0")


@dataclass(frozen=True)
class ReadModel:
    """Readout front-end operating point for noise/power trades."""

    u_t: float = 0.026  # thermal voltage, V
    kappa: float = 0.7  # subthreshold gate efficiency
    v_dd: float = 5.0  # supply, V
    q: float = ELECTRON_CHARGE  # C


@dataclass(frozen=True)
class RetentionResult:
    seconds: float
    saturated: bool  # True when the weight outlives the search horizon


@dataclass(frozen=True)
class LedgerEntry:
    cell_id: str
    t_s: float
    amplitude_v: float
    duration_s: float
    n_pulses: int
    energy_j: float


class EnergyLedger:
    """Append-only record of every programming pulse issued.

    One entry per (cell, pulse train); energy is n_pulses * (1/2) *
    c_in * amplitude^2.  Totals are plain sums over entries in
    insertion order, so they match an external re-summation exactly.
    """

    def __init__(self, c_in: float = DEFAULT_C_IN):
        if not (math.isfinite(c_in) and c_in > 0):
            raise DomainError(f"c_in must be positive, got {c_in!r}")
        self.c_in = c_in
        self._entries: list[LedgerEntry] = []

    def record(
        self, cell_id: str, t_s: float, amplitude_v: float, duration_s: float, n_pulses: int = 1
    ) -> LedgerEntry:
        n_pulses = _pulse_count(n_pulses)
        entry = LedgerEntry(
            cell_id=str(cell_id),
            t_s=float(t_s),
            amplitude_v=float(amplitude_v),
            duration_s=float(duration_s),
            n_pulses=n_pulses,
            energy_j=n_pulses * write_energy(self.c_in, amplitude_v),
        )
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def total_energy(self) -> float:
        return sum(e.energy_j for e in self._entries)

    def to_csv(self) -> str:
        header = ["cell_id", "t_s", "amplitude_V", "duration_s", "n_pulses", "energy_J"]
        return csv_table(header, map(record_row, self._entries))


def write_energy(c_in: float, v_in: float) -> float:
    """Energy to charge the input capacitor to v_in: (1/2) C V^2."""
    if not (math.isfinite(c_in) and c_in > 0):
        raise DomainError(f"c_in must be positive, got {c_in!r}")
    if not math.isfinite(v_in):
        raise DomainError(f"v_in must be finite, got {v_in!r}")
    return 0.5 * c_in * v_in * v_in


def v_train_required(v_target: float, v_fg: float, coupling_ratio: float) -> float:
    """Input amplitude needed to lift the gate to v_target through the divider."""
    if not (0 < coupling_ratio < 1):
        raise DomainError(f"coupling_ratio must be in (0, 1), got {coupling_ratio!r}")
    if v_target < v_fg:
        raise DomainError(
            f"cannot program upward through tunneling: target {v_target!r} V "
            f"below gate {v_fg!r} V"
        )
    return (v_target - v_fg) / coupling_ratio


def setpoint_write(
    params: FnParams, k0: float, v_target: float, t: float, c_in: float
) -> tuple[float, float, float]:
    """(v_fg, v_train, energy) of the write that lifts the gate to v_target.

    The gate has decayed undisturbed for t seconds from k0.
    """
    v_fg = voltage_at(params, k0, t)
    v_train = v_train_required(v_target, v_fg, params.coupling_ratio)
    return v_fg, v_train, write_energy(c_in, v_train)


def trajectory_times(horizon_s: float, n_samples: int) -> list[float]:
    """n_samples times from t = 0 to exactly horizon_s, geometric after t = 0.

    Early life is where the write-energy trajectory bends fastest.
    """
    if n_samples < 2:
        raise DomainError(f"n_samples must be >= 2, got {n_samples!r}")
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise DomainError(f"horizon_s must be positive, got {horizon_s!r}")
    t_first = min(1.0, horizon_s / n_samples)
    try:
        ratio = (horizon_s / t_first) ** (1.0 / (n_samples - 2)) if n_samples > 2 else 1.0
        times = [0.0] + [min(t_first * ratio**i, horizon_s) for i in range(n_samples - 1)]
    except (ZeroDivisionError, OverflowError):  # t_first underflows, or ratio**i overflows
        raise DomainError(f"horizon_s = {horizon_s!r} s has no geometric grid of "
                          f"{n_samples} samples in float range") from None
    times[-1] = horizon_s
    return times


def write_energy_trajectory(
    params: FnParams,
    k0: float,
    v_target_offset: float,
    horizon_s: float,
    n_samples: int = DEFAULT_N_SAMPLES,
) -> list[tuple[float, float]]:
    """Per-update write energy over the device's life for a fixed setpoint.

    The target is pinned at the initial gate voltage plus
    v_target_offset; as the gate decays away from it the required
    amplitude (v_target - v_fg(t)) / coupling_ratio and hence the energy
    grow monotonically.  Samples start at t = 0 (energy
    (1/2) DEFAULT_C_IN (offset/coupling_ratio)^2) and end exactly at
    horizon_s.
    """
    times = trajectory_times(horizon_s, n_samples)
    if v_target_offset <= 0:
        raise DomainError(f"v_target_offset must be positive, got {v_target_offset!r}")
    v_target = voltage_at(params, k0, 0.0) + v_target_offset
    return [(t, setpoint_write(params, k0, v_target, t, DEFAULT_C_IN)[2]) for t in times]


def noise_floor(model: NoiseModel, t: float) -> float:
    """Thermal accumulation floor (V) after t seconds of storage."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    return model.sigma0 + model.sigma_coeff * math.sqrt(t)


def retention_time(cell: DamArray, model: NoiseModel) -> RetentionResult:
    """Time until the cell's decaying weight sinks into the noise floor.

    Simulates the full two-node decay from the cell's current state and
    finds the first crossing |w(t)| = noise_floor(t) by bracketed
    bisection, to 1 s or 0.1% of the answer, whichever is larger.
    Returns TEN_YEARS_S with saturated=True when the weight outlives it.
    A weight already at or below the floor returns 0 s.
    """
    horizon_s = TEN_YEARS_S
    nodes, ws = _float_nodes(cell)

    def margin(t):
        w_v = abs(_float_weight(_evolved_nodes(nodes, t), ws)) / ws
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


def read_noise(model: ReadModel, p_read: float, bandwidth: float) -> float:
    """rms readout voltage noise at read power p_read over the given bandwidth.

        V_n = sqrt(4 * U_T^2 * q * V_DD * bandwidth / (kappa * P_read))
    """
    if not (math.isfinite(p_read) and p_read > 0):
        raise DomainError(f"p_read must be positive, got {p_read!r}")
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise DomainError(f"bandwidth must be positive, got {bandwidth!r}")
    return math.sqrt(
        4.0 * model.u_t**2 * model.q * model.v_dd * bandwidth / (model.kappa * p_read)
    )


def min_read_power(model: ReadModel, noise_target: float, bandwidth: float) -> float:
    """Smallest read power whose rms noise stays at or below noise_target."""
    if not (math.isfinite(noise_target) and noise_target > 0):
        raise DomainError(f"noise_target must be positive, got {noise_target!r}")
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise DomainError(f"bandwidth must be positive, got {bandwidth!r}")
    return 4.0 * model.u_t**2 * model.q * model.v_dd * bandwidth / (
        model.kappa * noise_target**2
    )

