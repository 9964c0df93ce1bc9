"""Arrays of DAM cells: mismatch injection, batch operations, persistence.

An array is a clock-synchronous collection of cells built from one
nominal parameter set.  Fabrication spread is modeled by perturbing k1
and k2 of every node independently (four gaussian draws per cell) with
a seeded generator, then rate-matching each cell so it starts at zero weight.
The draw stream is PCG64; the algorithm name and seed are stored in
saved state so an array is reproducible from its document alone.

Rate matching solves, for every cell whose nodes differ, the RESET
voltage at which that node tunnels as fast as the SET node does at v0.
``rate_matched_voltages`` runs the steps of scipy's ``brentq`` on numpy
columns, all such cells at once, with the same bracket, tolerances and
float operations in the same order, and logarithms from ``math.log``
per element; each cell leaves the active set when it converges.  It is
the column twin of ``_brentq``, the same steps on Python floats (the
reference, and what ``calibrate`` runs for its age search), so every
root has the bits one ``brentq`` call per cell would give, without
importing scipy.  A cell with no sign change over its bracket, a NaN
residual, no convergence in 200 steps or a residual above 1e-10 fails,
and ``build_array`` reports all failing cells in one InitializationError.

The array holds its state as read-only float64 columns, one entry (or
one SET/RESET pair) per cell, and every operation is one elementwise
expression over them.  The decay is ``node.decayed`` and a pulse
``node.released``, the same expressions ``node.evolve`` and
``node.apply_pulse`` use, so every node in an array gets the bits it
would get on its own.  A single cell is the one-cell array (see
``fndam.cell``).  Operations return a new array and never write into
their input.

State documents are JSON trees carrying a format tag, a schema version
and a SHA-256 checksum over the canonical serialization (sorted keys,
compact separators, everything but the checksum).  ``state_to_json``
writes that serialization with the checksum spliced in front, so
``state_from_json`` verifies such text by hashing the characters the
checksum covers; any other text, and every ``load_state`` document, is
verified by serializing the parsed document again.  Schema version 2,
the one written and the only one read, stores one list per column under
``columns``: ``set_v_fg``, ``reset_v_fg``, ``set_k1``, ``reset_k1``,
``set_k2``, ``reset_k2`` and ``weight_scale``.  Floats are serialized
at full precision, so ``state_from_json(state_to_json(a)) == a``.  A
document is rejected with a ``StateFormatError`` naming the JSON path
when it cannot describe the array: the clock must be finite and
non-negative, k1, k2 and weight_scale positive and finite, and
0 < v_fg < k2 on every node.  Charge quantization is not modeled: a
document whose ``quantize_charge`` is true is rejected, one that
carries it as false still loads.  The mismatch draw is gaussian, and a
document that names another ``mismatch.distribution`` is rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, DomainError, InitializationError, StateFormatError
from .node import FnParams, Pulse, _require_dt, decayed, log_each, programmable, released

WEIGHT_SCALE = 1000.0  # mV per volt of node difference
STATE_FORMAT = "fndam-array-state"
STATE_VERSION = 2
RNG_ALGORITHM = "numpy.random.PCG64"
MISMATCH_DISTRIBUTION = "gaussian"  # the one draw; state documents name it

# per-cell columns of a DamArray; all but weight_scale are (N, 2) SET/RESET
_COLUMNS = ("v", "k1", "log_k1", "k2", "weight_scale")
# schema v2 column -> (DamArray column, node); log_k1 is recomputed on load
_DOC_COLUMNS = {
    "set_v_fg": ("v", 0),
    "reset_v_fg": ("v", 1),
    "set_k1": ("k1", 0),
    "reset_k1": ("k1", 1),
    "set_k2": ("k2", 0),
    "reset_k2": ("k2", 1),
    "weight_scale": ("weight_scale", None),
}


@dataclass(frozen=True)
class MismatchSpec:
    """Per-node relative spread of k1 and k2.

    ``relative_sigma`` is the standard deviation of the multiplicative
    gaussian perturbation.
    """

    relative_sigma: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.relative_sigma) and self.relative_sigma >= 0):
            raise DomainError(
                f"relative_sigma must be >= 0, got {self.relative_sigma!r}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")


class WeightReading(NamedTuple):
    """One cell's weight and the clock it was read at; a plain tuple."""

    weight: float  # mV
    timestamp: float  # s, array clock at the moment of the read


@dataclass(frozen=True, eq=False)
class DamArray:
    """N cells as read-only float64 columns sharing one clock.

    Column 0 of each (N, 2) column is the SET node, column 1 the RESET
    node.  ``log_k1`` is ``math.log(k1)`` per node, kept so that no
    operation takes a logarithm per cell.  Every cell reads
    ``global_clock`` as its own clock and takes c_total and c_couple
    from ``nominal_params``.  A column given as a writable array is
    copied, so no caller can change an array after the fact.  A node
    voltage, k1 or k2, or a weight_scale, that is not positive and
    finite raises DomainError naming the cell and, for a node, the node.
    """

    v: np.ndarray  # (N, 2) floating-gate voltages, V
    k1: np.ndarray  # (N, 2) 1/s
    log_k1: np.ndarray  # (N, 2)
    k2: np.ndarray  # (N, 2) V
    weight_scale: np.ndarray  # (N,) mV per volt of node difference
    nominal_params: FnParams
    mismatch: MismatchSpec
    v0: float
    global_clock: float = 0.0

    def __post_init__(self):
        for name in _COLUMNS:
            col = np.asarray(getattr(self, name), dtype=np.float64)
            if col.flags.writeable:
                col = col.copy()
                col.flags.writeable = False
            object.__setattr__(self, name, col)
        n = self.weight_scale.shape[0] if self.weight_scale.ndim == 1 else 0
        if n < 1 or any(getattr(self, c).shape != (n, 2) for c in _COLUMNS[:-1]):
            raise ArgumentError(
                "columns must be (N, 2) with an (N,) weight_scale, N >= 1; got "
                + ", ".join(f"{c} {getattr(self, c).shape}" for c in _COLUMNS)
            )
        for name in ("v", "k1", "k2", "weight_scale"):
            col = getattr(self, name)
            bad = ~((col > 0) & (col < math.inf))
            if bad.any():
                at = tuple(np.argwhere(bad)[0].tolist())
                node = f" {('SET', 'RESET')[at[1]]} node" if len(at) == 2 else ""
                raise DomainError(f"cell {at[0]}{node} {'voltage' if name == 'v' else name} "
                                  f"must be positive and finite, got {col[at].item()!r}")

    def __len__(self) -> int:
        return self.weight_scale.shape[0]

    @classmethod
    def _of(cls, v, k1, log_k1, k2, weight_scale, nominal_params, mismatch, v0,
            global_clock) -> DamArray:
        """An array over columns an operation has just computed.

        Skips ``__post_init__``: the columns must already be read-only
        float64 arrays of the right shapes, and no caller may hold a
        writable view of them.
        """
        array = object.__new__(cls)
        array.__dict__.update(v=v, k1=k1, log_k1=log_k1, k2=k2, weight_scale=weight_scale,
                              nominal_params=nominal_params, mismatch=mismatch, v0=v0,
                              global_clock=global_clock)
        return array

    def __eq__(self, other):
        if not isinstance(other, DamArray):
            return NotImplemented
        return (
            (self.nominal_params, self.mismatch, self.v0, self.global_clock)
            == (other.nominal_params, other.mismatch, other.v0, other.global_clock)
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)
        )

    def weights(self) -> np.ndarray:
        """Per-cell weight in mV: weight_scale * (RESET - SET voltage)."""
        return self.weight_scale * (self.v[:, 1] - self.v[:, 0])


def _draw_factors(n: int, spec: MismatchSpec) -> np.ndarray:
    """(n, 2 nodes, 2 params) multiplicative factors, reproducible by seed."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return 1.0 + spec.relative_sigma * rng.standard_normal((n, 2, 2))


def _log_rate(log_k1: float, k2: float, v: float) -> float:
    """log of the tunneling rate magnitude |dV/dt| at voltage v.

    The scalar form of the residual ``rate_matched_voltages`` evaluates
    column-wise, operation for operation.
    """
    return log_k1 - math.log(k2) + 2.0 * math.log(v) - k2 / v


_MATCH_XTOL, _MATCH_RTOL, _MATCH_MAXITER = 1e-14, 1e-15, 200
_MATCH_RESIDUAL = 1e-10  # largest log-rate difference accepted at the root
_BRENT_RTOL = 4 * sys.float_info.epsilon  # scipy's default, and smallest, brentq rtol


def _brentq(f, xa, xb, xtol, rtol=_BRENT_RTOL, maxiter=100):
    """Root of f on [xa, xb] by the steps of scipy's ``brentq``, on floats.

    Replays scipy's C routine (``optimize/Zeros/brentq.c``) on Python
    floats: the same float operations in the same order, including the
    interpolate/extrapolate/bisect choice and the minimum ``delta``
    step, so the root has the bits ``scipy.optimize.brentq(f, xa, xb,
    xtol=xtol, rtol=rtol, maxiter=maxiter)`` returns; rtol and maxiter
    default to scipy's defaults.  Returns ``(root, None)``.  Where
    brentq raises (a NaN residual, no sign change over the bracket,
    maxiter steps without convergence) it returns ``(nan, why)``
    instead; f is not called after a NaN.
    """

    def failed(why):
        return math.nan, why

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    if math.isnan(fpre):
        return failed(f"residual at {xpre!r} is NaN")
    fcur = f(xcur)
    if math.isnan(fcur):
        return failed(f"residual at {xcur!r} is NaN")
    if fpre == 0:
        return xpre, None
    if fcur == 0:
        return xcur, None
    if (fpre < 0) == (fcur < 0):
        return failed(f"no sign change over [{xa!r}, {xb!r}]")
    for _ in range(maxiter):
        # where xpre and xcur straddle the root, xpre becomes the far end xblk
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        # the end with the smaller residual becomes xcur
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, None

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan  # C's quotient is then inf or NaN: a bisection
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        # a step no longer than delta is taken as delta, toward xblk
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            return failed(f"residual at {xcur!r} is NaN")
    return failed(f"no convergence in {maxiter} steps")


def rate_matched_voltages(set_log_k1, set_k2, reset_log_k1, reset_k2, v0: float) -> np.ndarray:
    """Per cell, the RESET-node voltage whose |dV/dt| equals the SET node's at v0.

    Arguments are (N,) columns.  The column twin of ``_brentq``: its
    steps (scipy's ``brentq``; xtol 1e-14, rtol 1e-15, 200 iterations)
    on each cell's log-rate difference over [0.5*v0, min(1.5*v0,
    0.999*reset_k2)], run on numpy columns for all cells at once with
    the same float operations in the same order, so every root has the
    float replay's bits, which are scipy's.  The residual takes its logarithms with ``math.log``
    (``log_each``), as ``_log_rate`` does.  A cell leaves the active set
    once it converges.

    A cell fails, and reads NaN, when the bracket shows no sign change,
    a residual is NaN, 200 iterations pass, or the residual at the root
    exceeds 1e-10.
    """
    set_k2, reset_k2 = np.asarray(set_k2, np.float64), np.asarray(reset_k2, np.float64)
    target = set_log_k1 - log_each(set_k2) + 2.0 * math.log(v0) - set_k2 / v0
    offset = reset_log_k1 - log_each(reset_k2)

    def imbalance(rows, v):
        """_log_rate of the RESET node at v minus target, for the given cells."""
        return offset[rows] + 2.0 * log_each(v) - reset_k2[rows] / v - target[rows]

    n = target.shape[0]
    out = np.full(n, np.nan)
    rows = np.arange(n)
    xpre, xcur = np.full(n, 0.5 * v0), np.minimum(1.5 * v0, 0.999 * reset_k2)
    fpre, fcur = imbalance(rows, xpre), imbalance(rows, xcur)
    # brentq's checks before its first step: a NaN raises, a zero at an
    # end is the root, equal signs at both ends raise
    valid = ~(np.isnan(fpre) | np.isnan(fcur))
    at_lo = valid & (fpre == 0)
    at_hi = valid & ~at_lo & (fcur == 0)
    out[at_lo], out[at_hi] = xpre[at_lo], xcur[at_hi]
    keep = valid & ~at_lo & ~at_hi & (np.signbit(fpre) != np.signbit(fcur))
    zero = np.zeros(n)
    state = (rows, xpre, xcur, zero, fpre, fcur, zero, zero, zero)
    for _ in range(_MATCH_MAXITER):
        rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (a[keep] for a in state)
        if not rows.size:
            break
        # where xpre and xcur straddle the root, xpre becomes the far end xblk
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        # the end with the smaller residual becomes xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (_MATCH_XTOL + _MATCH_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        found = done & (np.abs(fcur) <= _MATCH_RESIDUAL)
        out[rows[found]] = xcur[found]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        limit = 3 * np.abs(sbis) - delta
        limit = np.where(np.abs(spre) < limit, np.abs(spre), limit)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < limit))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        # a step no longer than delta is taken as delta, toward xblk
        step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        xpre, fpre, xcur = xcur, fcur, xcur + step
        # converged cells and NaN residuals leave the active set
        fcur = np.full(rows.size, np.nan)
        fcur[~done] = imbalance(rows[~done], xcur[~done])
        keep = ~np.isnan(fcur)
        state = (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
    return out


def build_array(
    n: int, nominal: FnParams, v0: float, mismatch: MismatchSpec | None = None
) -> DamArray:
    """n freshly synchronized cells with seeded per-node k1/k2 mismatch.

    A cell whose nodes are identical starts at v0 on both, as
    ``cell.synchronize`` gives it; the others are rate-matched at v0.
    The cells that cannot be synchronized are reported together.
    """
    if n < 1:
        raise ArgumentError(f"array size must be >= 1, got {n!r}")
    spec = mismatch if mismatch is not None else MismatchSpec(relative_sigma=0.0)
    # a huge sigma overflows to inf here, which the check below rejects
    with np.errstate(over="ignore"):
        factors = _draw_factors(n, spec)
        k1 = nominal.k1 * factors[:, :, 0]
        k2 = nominal.k2 * factors[:, :, 1]
    ok = np.all(np.isfinite(k1) & (k1 > 0) & np.isfinite(k2) & (k2 > 0), axis=1)
    if math.isfinite(v0) and v0 > 0:
        ok &= programmable(k2[:, 0], v0)
    else:
        ok[:] = False
    log_k1 = log_each(np.where(ok[:, None], k1, 1.0))
    v = np.full_like(k1, v0)
    # identical nodes start at v0 together; the others are solved at once
    rows = np.flatnonzero(ok & ((k1[:, 0] != k1[:, 1]) | (k2[:, 0] != k2[:, 1])))
    if rows.size:
        v[rows, 1] = rate_matched_voltages(
            log_k1[rows, 0], k2[rows, 0], log_k1[rows, 1], k2[rows, 1], v0
        )
    ok &= programmable(k2[:, 1], v[:, 1])
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise InitializationError(
            f"{len(bad)} cell(s) failed to initialize", indices=tuple(bad.tolist())
        )
    return DamArray(v, k1, log_k1, k2, np.full(n, WEIGHT_SCALE), nominal, spec, v0)


def _with_voltages(array: DamArray, v: np.ndarray, clock: float) -> DamArray:
    """array with the (N, 2) node voltages v just computed, at clock."""
    v.flags.writeable = False
    return DamArray._of(v, array.k1, array.log_k1, array.k2, array.weight_scale,
                        array.nominal_params, array.mismatch, array.v0, clock)


def _evolved(array: DamArray, v: np.ndarray, dt: float) -> DamArray:
    """array with node voltages v, dt seconds later.

    Raises DomainError when a node is not positive; the minimum is NaN
    if any node is.
    """
    if not np.minimum.reduce(v, axis=None) > 0:
        i, node = np.argwhere(~(v > 0))[0].tolist()
        raise _driven(i, node, v[i, node])
    return _with_voltages(array, v, array.global_clock + dt)


def _driven(i: int, node: int, v: float) -> DomainError:
    """The error for node 0 (SET) or 1 (RESET) of cell i driven to v <= 0."""
    return DomainError(f"cell {i} {('SET', 'RESET')[node]} node driven to {v:.6g} V <= 0")


def batch_read(array: DamArray) -> tuple[WeightReading, ...]:
    """One reading per cell (see ``DamArray.weights``), stamped with the clock."""
    ws = array.weights().tolist()
    return tuple(map(WeightReading._make, zip(ws, repeat(array.global_clock))))


def advance(array: DamArray, dt: float) -> DamArray:
    """Evolve every cell by dt; the global clock moves uniformly."""
    _require_dt(dt)
    if dt == 0.0:
        return _evolved(array, array.v, dt)
    return _evolved(array, decayed(array.v, array.log_k1, array.k2, math.log(dt)), dt)


def batch_pulse(array: DamArray, targets: Sequence[tuple[int, int, Pulse]]) -> DamArray:
    """Pulse targeted cells; everything else idles for the same window.

    A target is (cell index, polarity, pulse): polarity +1 pulses the
    SET node, -1 the RESET node.  All pulses in one batch must share a
    duration (the wall-clock window applied to the whole array).  At
    most one pulse per cell per call, and at least one per batch.
    """
    if not targets:
        raise ArgumentError("empty batch: give at least one target")

    # node.apply_pulse on the pulsed nodes: the gate is lifted by the
    # coupled step, tunnels for the window and is released.  Idle nodes
    # have a zero step, which leaves their decay bit-identical to evolve.
    n = len(array)
    ratio = array.nominal_params.coupling_ratio
    step = np.zeros((n, 2))
    seen = set()
    duration = None
    for idx, polarity, pulse in targets:
        if not isinstance(idx, (int, np.integer)) or not 0 <= idx < n:
            raise ArgumentError(f"cell index {idx!r} out of range for {n} cells")
        if idx in seen:
            raise ArgumentError(f"duplicate cell index {idx} in batch")
        seen.add(idx)
        if duration is None:
            duration = pulse.duration
        elif pulse.duration != duration:
            raise ArgumentError(
                f"batch pulses must share one duration; got {pulse.duration!r} "
                f"after {duration!r}"
            )
        if polarity not in (1, -1):
            raise ArgumentError(f"polarity must be +1 or -1, got {polarity!r}")
        step[idx, 0 if polarity == 1 else 1] = pulse.amplitude * ratio

    return _evolved(array, released(array.v, step, array.log_k1, array.k2,
                                    math.log(duration)), duration)


def _canonical(doc: dict) -> str:
    """Sorted keys, compact separators, everything but the checksum."""
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(doc: dict) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


# state_to_json's text opens with '{"checksum":"', 64 hex digits and '",'
_SIGNED_OPENING = '{"checksum":"'
_SIGNED_HEAD = len(_SIGNED_OPENING) + 64 + 2


def _unsigned_document(array: DamArray) -> dict:
    p = array.nominal_params
    columns = {}
    for key, (name, node) in _DOC_COLUMNS.items():
        col = getattr(array, name)
        columns[key] = (col if node is None else col[:, node]).tolist()
    return {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": array.mismatch.seed},
        "mismatch": {
            "relative_sigma": array.mismatch.relative_sigma,
            "seed": array.mismatch.seed,
            "distribution": MISMATCH_DISTRIBUTION,
        },
        "nominal_params": {"k1": p.k1, "k2": p.k2, "c_total": p.c_total,
                           "c_couple": p.c_couple},
        "v0": array.v0,
        "global_clock": array.global_clock,
        "columns": columns,
    }


def state_to_json(array: DamArray) -> str:
    """The versioned, checksummed state document as one line of canonical JSON.

    "checksum" sorts first, so it is spliced in front of the string it
    covers.  ``state_from_json`` reads it back losslessly.
    """
    canonical = _canonical(_unsigned_document(array))
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return _SIGNED_OPENING + checksum + '",' + canonical[1:] + "\n"


def _need(doc, key, path, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise StateFormatError(f"missing field at {path}.{key}" if path else f"missing field {key}")
    value = doc[key]
    where = f"{path}.{key}" if path else key
    if kind is not None and not isinstance(value, kind):
        # bool is an int subclass; keep the two apart for typed fields
        if kind is not bool and isinstance(value, bool):
            raise StateFormatError(f"wrong type at {where}: expected {kind}, got bool")
        raise StateFormatError(
            f"wrong type at {where}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _float_at(doc, key, path):
    value = _need(doc, key, path)
    where = f"{path}.{key}" if path else key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateFormatError(
            f"wrong type at {where}: expected number, got {type(value).__name__}"
        )
    return float(value)


def _params_from(doc, path) -> FnParams:
    # charge quantization is not modeled; documents may carry it switched off
    if "quantize_charge" in doc and _need(doc, "quantize_charge", path, bool):
        raise StateFormatError(f"unsupported value at {path}.quantize_charge: true")
    try:
        return FnParams(
            k1=_float_at(doc, "k1", path),
            k2=_float_at(doc, "k2", path),
            c_total=_float_at(doc, "c_total", path),
            c_couple=_float_at(doc, "c_couple", path),
        )
    except DomainError as exc:
        raise StateFormatError(f"invalid parameters at {path}: {exc}") from None


def _v2_columns(doc) -> dict[str, np.ndarray]:
    """Schema v2: one list of numbers per column, all of one length."""
    cols = _need(doc, "columns", "", dict)
    out = {}
    n = None
    for key in _DOC_COLUMNS:
        path = f"columns.{key}"
        values = _need(cols, key, "columns", list)
        if not values:
            raise StateFormatError(f"empty cell list at {path}")
        if n is None:
            n = len(values)
        elif len(values) != n:
            raise StateFormatError(f"{path} holds {len(values)} cells, expected {n}")
        if not set(map(type, values)) <= {float, int}:
            i, bad = next((i, x) for i, x in enumerate(values) if type(x) not in (float, int))
            raise StateFormatError(
                f"wrong type at {path}[{i}]: expected number, got {type(bad).__name__}"
            )
        try:
            out[key] = np.array(values, dtype=np.float64)
        except OverflowError:
            raise StateFormatError(f"number out of float range at {path}") from None
    return out


def _columns_from(cols: dict[str, np.ndarray], v0: float) -> dict[str, np.ndarray]:
    """DamArray columns from document columns, checking that they describe cells."""

    def reject(key, bad, what):
        i = int(np.argmax(bad))
        value = float(cols[key][i])
        raise StateFormatError(f"invalid value at columns.{key}[{i}]: {value!r}, {what}")

    for key in ("set_k1", "reset_k1", "set_k2", "reset_k2", "weight_scale"):
        bad = ~(np.isfinite(cols[key]) & (cols[key] > 0))
        if bad.any():
            reject(key, bad, "must be positive and finite")
    for side in ("set", "reset"):
        v, k2 = cols[f"{side}_v_fg"], cols[f"{side}_k2"]
        bad = ~((v > 0) & (v < k2))
        if bad.any():
            reject(f"{side}_v_fg", bad, "must satisfy 0 < v_fg < k2")
    for side in ("set", "reset"):
        if not programmable(cols[f"{side}_k2"], v0).all():
            raise StateFormatError(f"invalid value at v0: {v0!r}, no {side} node starts there")

    out = {name: np.empty((len(cols["weight_scale"]), 2)) for name in ("v", "k1", "k2")}
    out["weight_scale"] = cols["weight_scale"]
    for key, (name, node) in _DOC_COLUMNS.items():
        if node is not None:
            out[name][:, node] = cols[key]
    out["log_k1"] = log_each(out["k1"])
    return out


def load_state(doc: dict) -> DamArray:
    """Rebuild an array from a parsed state document, verifying integrity.

    The document is ``json.loads`` of ``state_to_json`` text; see the
    module docstring for the schema and the checks.
    """
    return _load(doc, _checksum)


def _load(doc, checksum) -> DamArray:
    """load_state, with ``checksum(doc)`` giving the hash the stored one must equal."""
    if not isinstance(doc, dict):
        raise StateFormatError(f"state document must be a mapping, got {type(doc).__name__}")
    fmt = _need(doc, "format", "", str)
    if fmt != STATE_FORMAT:
        raise StateFormatError(f"unrecognized format tag at format: {fmt!r}")
    version = _need(doc, "version", "", int)
    if version != STATE_VERSION:
        raise StateFormatError(f"unsupported schema version at version: {version!r}")
    stored = _need(doc, "checksum", "", str)
    actual = checksum(doc)
    if stored != actual:
        raise StateFormatError(
            f"checksum mismatch at checksum: stored {stored[:12]}..., computed {actual[:12]}..."
        )
    rng = _need(doc, "rng", "", dict)
    algorithm = _need(rng, "algorithm", "rng", str)
    if algorithm != RNG_ALGORITHM:
        raise StateFormatError(f"unknown generator at rng.algorithm: {algorithm!r}")

    mm = _need(doc, "mismatch", "", dict)
    sigma = _float_at(mm, "relative_sigma", "mismatch")
    seed = _need(mm, "seed", "mismatch", int)
    distribution = _need(mm, "distribution", "mismatch", str)
    try:
        mismatch = MismatchSpec(relative_sigma=sigma, seed=seed)
    except DomainError as exc:
        raise StateFormatError(f"invalid field at mismatch: {exc}") from None
    if distribution != MISMATCH_DISTRIBUTION:
        raise StateFormatError(f"unsupported value at mismatch.distribution: {distribution!r}")

    nominal = _params_from(_need(doc, "nominal_params", "", dict), "nominal_params")
    v0 = _float_at(doc, "v0", "")
    if not (math.isfinite(v0) and v0 > 0):
        raise StateFormatError(f"invalid value at v0: {v0!r}, must be positive and finite")
    clock = _float_at(doc, "global_clock", "")
    if not (math.isfinite(clock) and clock >= 0):
        raise StateFormatError(f"invalid clock at global_clock: {clock!r}")

    columns = _columns_from(_v2_columns(doc), v0)
    return DamArray(
        nominal_params=nominal, mismatch=mismatch, v0=v0, global_clock=clock, **columns
    )


def _text_checksum(text) -> str | None:
    """The checksum text opens with, if it is the SHA-256 of the text it covers.

    That is ``"{"`` and everything after the checksum, less one trailing
    newline, as ``state_to_json`` writes it; None for any other text.
    """
    if not (isinstance(text, str) and text.startswith(_SIGNED_OPENING)
            and text[_SIGNED_HEAD - 2:_SIGNED_HEAD] == '",'):
        return None
    stored = text[len(_SIGNED_OPENING):_SIGNED_HEAD - 2]
    covered = "{" + text[_SIGNED_HEAD:-1 if text.endswith("\n") else None]
    # a lone surrogate, which no written text holds, hashes instead of raising
    actual = hashlib.sha256(covered.encode("utf-8", "surrogatepass")).hexdigest()
    return stored if actual == stored else None


def state_from_json(text: str) -> DamArray:
    """Parse and load_state one state document.

    Text laid out as ``state_to_json`` writes it, the checksum first, is
    verified by hashing the text the checksum covers (``"{"`` and
    everything after the checksum, less one trailing newline) instead of
    serializing the parsed document again; every other check runs as in
    load_state, in the same order.  So such text loads when its checksum
    is the hash of that text even if the text is not the canonical
    serialization, which load_state would reject.  Any other input
    (bytes, reformatted JSON, a checksum that does not match) goes to
    load_state unchanged.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from None
    verified = _text_checksum(text)
    if verified is not None and isinstance(doc, dict) and doc.get("checksum") == verified:
        return _load(doc, lambda _: verified)
    return load_state(doc)
