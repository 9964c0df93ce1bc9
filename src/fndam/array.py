"""Arrays of DAM cells: mismatch injection, batch operations, persistence.

An array is a clock-synchronous collection of cells built from one
nominal parameter set.  Fabrication spread is modeled by perturbing k1
and k2 of every node independently (four gaussian draws per cell) with
a seeded PCG64 generator, then rate-matching each cell so it starts at
zero weight.

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

The array holds read-only float64 columns, one SET/RESET pair per
cell: the node voltages, its state, and the node constants its mismatch
draw gives, and every operation is one elementwise expression over
them.  The decay is ``node.decayed``, the column kernel, and a pulse
``decayed(v + step, ...) - step``: the same bits ``node.evolve`` and
``node.apply_pulse`` get on ``node.decayed_float``, so every node in an
array gets the bits it would get on its own.  A single cell
is the one-cell array (see ``fndam.cell``).  Operations return a new
array and never write into their input.

State documents are JSON trees carrying a format tag, a schema version
and a SHA-256 checksum.  ``state_to_json`` writes the canonical
serialization of everything but the checksum (sorted keys, compact
separators) with the checksum spliced in front, and the checksum is the
hash of the text it covers: ``"{"`` and everything after the checksum,
less one trailing newline.  ``state_from_json`` verifies that rule on
the text itself, so reformatted or re-encoded text, or text whose
checksum is not the first key, fails at ``checksum``.  Schema version 5,
the one written and the only one read, holds the node voltages under
``columns`` (``set_v_fg``, ``reset_v_fg``), ``nominal_params``, ``v0``,
``global_clock`` and the ``mismatch`` ``relative_sigma`` and ``seed``
with ``constants_sha256``, the SHA-256 of the log_k1 and k2 they draw.
A load draws them again and checks that digest, since numpy does not
promise its ``Generator`` streams across releases.  Floats are written
at full precision, so ``state_from_json(state_to_json(a)) == a``.  A
document that cannot describe the array fails with a
``StateFormatError`` naming the JSON path: the clock must be finite and
non-negative, the draw positive and finite, and 0 < v_fg < k2 and v0
programmable on every node.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, DomainError, InitializationError, StateFormatError
from .node import (FnParams, Pulse, _require_nonnegative, _require_record, _require_seed,
                   decayed, log_each, programmable)

WEIGHT_SCALE = 1000.0  # mV per volt of node difference
STATE_FORMAT = "fndam-array-state"
STATE_VERSION = 5

# document column -> node of DamArray.v
_DOC_COLUMNS = {"set_v_fg": 0, "reset_v_fg": 1}


@dataclass(frozen=True)
class MismatchSpec:
    """Per-node relative spread of k1 and k2.

    ``relative_sigma`` is the standard deviation of the multiplicative
    gaussian perturbation.
    """

    relative_sigma: float = 0.001
    seed: int = 0

    def __post_init__(self):
        _require_nonnegative("relative_sigma", self.relative_sigma)
        _require_seed(self.seed)


NO_MISMATCH = MismatchSpec(relative_sigma=0.0)  # identical nodes in every cell


class WeightReading(NamedTuple):
    """One cell's weight and the clock it was read at; a plain tuple."""

    weight: float  # mV
    timestamp: float  # s, array clock at the moment of the read


@dataclass(frozen=True, eq=False)
class DamArray:
    """N cells as read-only float64 columns sharing one clock.

    Column 0 of each (N, 2) column is the SET node, column 1 the RESET
    node.  The state is ``v``.  The constructor draws the constants
    ``log_k1`` (``math.log(k1)``, the form every operation reads) and
    ``k2`` from ``mismatch`` and ``nominal_params`` (``_drawn``), and
    operations pass them on.  Every cell reads ``global_clock`` as its
    own clock and takes c_total and c_couple from ``nominal_params``.  A
    writable ``v`` is copied, so no caller can change an array after the
    fact.  A voltage, or a drawn k1 or k2, that is not positive and
    finite raises DomainError naming the cell and the node.
    """

    v: np.ndarray  # (N, 2) floating-gate voltages, V
    log_k1: np.ndarray = field(init=False)  # (N, 2) log of k1 in 1/s, drawn
    k2: np.ndarray = field(init=False)  # (N, 2) V, drawn
    nominal_params: FnParams
    mismatch: MismatchSpec
    v0: float
    global_clock: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.flags.writeable:
            v = v.copy()
            v.flags.writeable = False
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] != 2:
            raise ArgumentError(f"v must be (N, 2), N >= 1; got {v.shape}")
        k1, log_k1, k2 = _drawn(len(v), self.nominal_params, self.mismatch)
        for name, col in (("voltage", v), ("k1", k1), ("k2", k2)):
            bad = ~((col > 0) & (col < math.inf))
            if bad.any():
                i, node = np.argwhere(bad)[0].tolist()
                raise DomainError(f"cell {i} {('SET', 'RESET')[node]} node {name} must be "
                                  f"positive and finite, got {col[i, node].item()!r}")
        self.__dict__.update(v=v, log_k1=log_k1, k2=k2)

    def __len__(self) -> int:
        return self.v.shape[0]

    @classmethod
    def _of(cls, v, log_k1, k2, nominal_params, mismatch, v0, global_clock) -> DamArray:
        """An array over columns an operation has just computed.

        Skips ``__post_init__`` and the draw: the columns must already
        be read-only float64 arrays of the right shapes, and no caller
        may hold a writable view of them.
        """
        array = object.__new__(cls)
        array.__dict__.update(v=v, log_k1=log_k1, k2=k2, nominal_params=nominal_params,
                              mismatch=mismatch, v0=v0, global_clock=global_clock)
        return array

    def __eq__(self, other):
        if not isinstance(other, DamArray):
            return NotImplemented
        return (
            (self.nominal_params, self.mismatch, self.v0, self.global_clock)
            == (other.nominal_params, other.mismatch, other.v0, other.global_clock)
            and all(np.array_equal(getattr(self, c), getattr(other, c))
                    for c in ("v", "log_k1", "k2"))
        )

    def weights(self) -> np.ndarray:
        """Per-cell weight in mV: WEIGHT_SCALE * (RESET - SET voltage)."""
        return WEIGHT_SCALE * (self.v[:, 1] - self.v[:, 0])


def _mismatched(n: int, nominal: FnParams, spec: MismatchSpec):
    """(k1, k2), each (n, 2): nominal times gaussian factors, four per cell, seeded."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    # a huge sigma overflows to inf here, which the callers of _drawn reject
    with np.errstate(over="ignore"):
        factors = 1.0 + spec.relative_sigma * rng.standard_normal((n, 2, 2))
        return nominal.k1 * factors[:, :, 0], nominal.k2 * factors[:, :, 1]


def _drawn(n: int, nominal: FnParams, spec: MismatchSpec):
    """The one rule for node constants: the (n, 2) k1, read-only log_k1 (NaN
    where k1 is not positive and finite) and read-only k2 of n cells."""
    _require_record("nominal_params", nominal, FnParams)
    _require_record("mismatch", spec, MismatchSpec)
    k1, k2 = _mismatched(n, nominal, spec)
    log_k1 = log_each(np.where((k1 > 0) & (k1 < math.inf), k1, math.nan))
    log_k1.flags.writeable = k2.flags.writeable = False
    return k1, log_k1, k2


def _constants_sha256(log_k1: np.ndarray, k2: np.ndarray) -> str:
    """SHA-256 of the log_k1 and then the k2 column, as little-endian float64."""
    return hashlib.sha256(np.concatenate([log_k1, k2]).astype("<f8")).hexdigest()


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
    float replay's bits, which are scipy's.  A node's log-rate at v is
    log k1 - log k2 + 2 log v - k2/v, its logarithms taken with
    ``math.log`` (``log_each``); a bracket end that all cells share,
    0.5*v0 below and 1.5*v0 above wherever 0.999*reset_k2 is not
    smaller, takes one ``math.log``.  A cell leaves the active set once
    it converges.

    A cell fails, and reads NaN, when the bracket shows no sign change,
    a residual is NaN, 200 iterations pass, or the residual at the root
    exceeds 1e-10.
    """
    set_k2, reset_k2 = np.asarray(set_k2, np.float64), np.asarray(reset_k2, np.float64)
    target = set_log_k1 - log_each(set_k2) + 2.0 * math.log(v0) - set_k2 / v0
    offset = reset_log_k1 - log_each(reset_k2)

    def imbalance(rows, v, log_v):
        """The RESET node's log-rate at v (log_v = log v) minus target, for the given cells."""
        return offset[rows] + 2.0 * log_v - reset_k2[rows] / v - target[rows]

    n = target.shape[0]
    out = np.full(n, np.nan)
    rows = np.arange(n)
    xpre, xcur = np.full(n, 0.5 * v0), np.minimum(1.5 * v0, 0.999 * reset_k2)
    log_cur = np.full(n, math.log(1.5 * v0))
    cut = xcur != 1.5 * v0
    log_cur[cut] = log_each(xcur[cut])
    fpre, fcur = imbalance(rows, xpre, math.log(0.5 * v0)), imbalance(rows, xcur, log_cur)
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
        x = xcur[~done]
        fcur[~done] = imbalance(rows[~done], x, log_each(x))
        keep = ~np.isnan(fcur)
        state = (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
    return out


def build_array(n: int, nominal: FnParams, v0: float,
                mismatch: MismatchSpec = NO_MISMATCH) -> DamArray:
    """n freshly synchronized cells with seeded per-node k1/k2 mismatch.

    A cell whose nodes are identical starts at v0 on both, as
    ``cell.synchronize`` gives it; the others are rate-matched at v0.
    The cells that cannot be synchronized are reported together.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ArgumentError(f"array size must be an integer, got {n!r}")
    if n < 1:
        raise ArgumentError(f"array size must be >= 1, got {n!r}")
    k1, log_k1, k2 = _drawn(n, nominal, mismatch)
    ok = np.all(np.isfinite(log_k1) & (k2 > 0) & (k2 < math.inf), axis=1)
    ok &= programmable(k2[:, 0], v0)
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
    v.flags.writeable = False
    return DamArray._of(v, log_k1, k2, nominal, mismatch, v0, 0.0)


def _with_voltages(array: DamArray, v: np.ndarray, clock: float) -> DamArray:
    """array with the (N, 2) node voltages v just computed, at clock."""
    v.flags.writeable = False
    return DamArray._of(v, array.log_k1, array.k2, array.nominal_params, array.mismatch,
                        array.v0, clock)


def _evolved(array: DamArray, v: np.ndarray, dt: float) -> DamArray:
    """array with node voltages v, dt seconds later; every node must be positive."""
    clock = array.global_clock + dt
    if clock == math.inf:
        raise DomainError(f"global_clock {array.global_clock!r} s + {dt!r} s overflows to inf")
    _require_positive(v)
    return _with_voltages(array, v, clock)


def _require_positive(v: np.ndarray) -> None:
    """Raise DomainError for the first node of v (..., N, 2) not positive (or NaN)."""
    if not np.minimum.reduce(v, axis=None) > 0:
        where = tuple(np.argwhere(~(v > 0))[0].tolist())
        raise _driven(*where[-2:], v[where])


def _driven(i: int, node: int, v: float) -> DomainError:
    """The error for node 0 (SET) or 1 (RESET) of cell i driven to v <= 0."""
    return DomainError(f"cell {i} {('SET', 'RESET')[node]} node driven to {v:.6g} V <= 0")


def batch_read(array: DamArray) -> tuple[WeightReading, ...]:
    """One reading per cell (see ``DamArray.weights``), stamped with the clock;
    ``tuple.__new__`` makes each ``WeightReading`` in C, with no Python frame."""
    ws = array.weights().tolist()
    return tuple(map(tuple.__new__, repeat(WeightReading), zip(ws, repeat(array.global_clock))))


def advance(array: DamArray, dt: float) -> DamArray:
    """Evolve every cell by dt; the global clock moves uniformly."""
    _require_nonnegative("dt", dt)
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
    try:  # a pulse that is not a Pulse fails at its first attribute
        for idx, polarity, pulse in targets:
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)) or not 0 <= idx < n:
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
            if isinstance(polarity, (bool, np.bool_)) or polarity not in (1, -1):
                raise ArgumentError(f"polarity must be +1 or -1, got {polarity!r}")
            step[idx, 0 if polarity == 1 else 1] = pulse.amplitude * ratio
    except AttributeError:
        _require_record("pulse", pulse, Pulse)
        raise

    v = decayed(array.v + step, array.log_k1, array.k2, math.log(duration)) - step
    return _evolved(array, v, duration)


# state_to_json's text opens with '{"checksum":"', 64 hex digits and '",'
_SIGNED_OPENING = '{"checksum":"'


def _unsigned_document(array: DamArray) -> dict:
    """The state document without its checksum and columns, numpy scalars as floats."""
    p = array.nominal_params
    return {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "mismatch": {
            "relative_sigma": float(array.mismatch.relative_sigma),
            "seed": array.mismatch.seed,
            "constants_sha256": _constants_sha256(array.log_k1, array.k2),
        },
        "nominal_params": {"k1": float(p.k1), "k2": float(p.k2),
                           "c_total": float(p.c_total), "c_couple": float(p.c_couple)},
        "v0": float(array.v0),
        "global_clock": float(array.global_clock),
    }


def state_to_json(array: DamArray) -> str:
    """The versioned, checksummed state document as one line of canonical JSON.

    "checksum" sorts first, so it is spliced in front of the string it
    covers.  ``state_from_json`` reads it back losslessly.
    """
    # "columns" sorts first, and the comma after its last column, "set_v_fg",
    # becomes its closing brace.  Each column is encoded alone and the text is
    # copied whole only by the final join, so a save's peak memory stays near
    # two copies of the text.
    parts = ['"columns":{']
    for key, node in sorted(_DOC_COLUMNS.items()):
        column = array.v[:, node].tolist()
        parts += [f'"{key}":', json.dumps(column, separators=(",", ":")), ","]
    rest = json.dumps(_unsigned_document(array), sort_keys=True, separators=(",", ":"))
    parts[-1:] = ["},", rest[1:]]
    digest = hashlib.sha256(b"{")
    for part in parts:
        digest.update(part.encode("utf-8"))
    return "".join([_SIGNED_OPENING, digest.hexdigest(), '",', *parts, "\n"])


def _need(doc, key, path, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise StateFormatError(f"missing field at {path}.{key}" if path else f"missing field {key}")
    value = doc[key]
    where = f"{path}.{key}" if path else key
    # bool is an int subclass; keep the two apart for typed fields
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise StateFormatError(
            f"wrong type at {where}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _float_at(doc, key, path):
    value = _need(doc, key, path)
    where = f"{path}.{key}" if path else key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateFormatError(
            f"wrong type at {where}: expected number, got {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError:
        raise StateFormatError(f"number out of float range at {where}") from None


def _params_from(doc, path) -> FnParams:
    try:
        return FnParams(
            k1=_float_at(doc, "k1", path),
            k2=_float_at(doc, "k2", path),
            c_total=_float_at(doc, "c_total", path),
            c_couple=_float_at(doc, "c_couple", path),
        )
    except DomainError as exc:
        raise StateFormatError(f"invalid parameters at {path}: {exc}") from None


def _doc_voltages(doc) -> np.ndarray:
    """The (N, 2) node voltages of the document's columns, all of one length."""
    cols = _need(doc, "columns", "", dict)
    v = None
    for key, node in _DOC_COLUMNS.items():
        path = f"columns.{key}"
        values = _need(cols, key, "columns", list)
        if not values:
            raise StateFormatError(f"empty cell list at {path}")
        if v is None:
            v = np.empty((len(values), 2))
        elif len(values) != len(v):
            raise StateFormatError(f"{path} holds {len(values)} cells, expected {len(v)}")
        if not set(map(type, values)) <= {float, int}:
            i, bad = next((i, x) for i, x in enumerate(values) if type(x) not in (float, int))
            raise StateFormatError(
                f"wrong type at {path}[{i}]: expected number, got {type(bad).__name__}"
            )
        try:
            v[:, node] = values
        except OverflowError:
            raise StateFormatError(f"number out of float range at {path}") from None
    return v


def state_from_json(text: str) -> DamArray:
    """Rebuild an array from one state document, verifying integrity.

    The text must open with its checksum, as ``state_to_json`` writes
    it, and the checksum must be the SHA-256 of the text it covers:
    ``"{"`` and everything after the checksum, less one trailing
    newline.  See the module docstring for the schema and the checks.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal past str-to-int's limit
        raise StateFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StateFormatError(f"state document must be a mapping, got {type(doc).__name__}")
    fmt = _need(doc, "format", "", str)
    if fmt != STATE_FORMAT:
        raise StateFormatError(f"unrecognized format tag at format: {fmt!r}")
    version = _need(doc, "version", "", int)
    if version != STATE_VERSION:
        raise StateFormatError(f"unsupported schema version at version: {version!r}")
    # json keeps the last "checksum" key, so the one in front must be that one
    stored = _need(doc, "checksum", "", str)
    opening = _SIGNED_OPENING + stored + '",'
    if not (isinstance(text, str) and text.startswith(opening)):
        raise StateFormatError("checksum mismatch at checksum: the text does not open with "
                               "the stored checksum, as state_to_json writes it")
    covered = "{" + text[len(opening):].removesuffix("\n")
    # a lone surrogate, which no written text holds, hashes instead of raising
    actual = hashlib.sha256(covered.encode("utf-8", "surrogatepass")).hexdigest()
    if stored != actual:
        raise StateFormatError(
            f"checksum mismatch at checksum: stored {stored[:12]}..., computed {actual[:12]}..."
        )
    mm = _need(doc, "mismatch", "", dict)
    sigma = _float_at(mm, "relative_sigma", "mismatch")
    seed = _need(mm, "seed", "mismatch", int)
    constants = _need(mm, "constants_sha256", "mismatch", str)
    try:
        mismatch = MismatchSpec(relative_sigma=sigma, seed=seed)
    except DomainError as exc:
        raise StateFormatError(f"invalid field at mismatch: {exc}") from None

    nominal = _params_from(_need(doc, "nominal_params", "", dict), "nominal_params")
    v0 = _float_at(doc, "v0", "")
    if not (math.isfinite(v0) and v0 > 0):
        raise StateFormatError(f"invalid value at v0: {v0!r}, must be positive and finite")
    clock = _float_at(doc, "global_clock", "")
    if not (math.isfinite(clock) and clock >= 0):
        raise StateFormatError(f"invalid clock at global_clock: {clock!r}")

    v = _doc_voltages(doc)

    def require(ok):
        """StateFormatError at the first node voltage where ok is False."""
        for key, node in _DOC_COLUMNS.items():
            if not ok[:, node].all():
                i = int(np.argmin(ok[:, node]))
                raise StateFormatError(f"invalid value at columns.{key}[{i}]: "
                                       f"{v[i, node].item()!r}, must satisfy 0 < v_fg < k2")

    require((v > 0) & (v < math.inf))
    try:
        array = DamArray(v, nominal, mismatch, v0, global_clock=clock)
    except DomainError as exc:  # the voltages are positive and finite: a bad draw
        raise StateFormatError(f"invalid draw at mismatch: {exc}") from None
    drawn = _constants_sha256(array.log_k1, array.k2)
    if drawn != constants:
        raise StateFormatError(
            f"constants mismatch at mismatch: numpy {np.__version__} draws constants with "
            f"SHA-256 {drawn[:12]}..., the document holds {constants[:12]}..."
        )
    require(v < array.k2)
    for key, node in _DOC_COLUMNS.items():
        if not programmable(array.k2[:, node], v0).all():
            raise StateFormatError(f"invalid value at v0: {v0!r}, no {key[:-5]} node starts "
                                   "there")
    return array
