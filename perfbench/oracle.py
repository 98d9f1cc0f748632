"""Reference results that share no code with the mobiuslab package.

Each system is computed from the digits of n rather than by the library's
prefix doubling: Thue-Morse from popcount parity, the substitution from its
base-3 digit automaton, the cover Morse system from digit-wise block
products, Rudin-Shapiro from bit-window parity and the Veech sequence from
the trailing ones of n.  Weights come from a smallest-prime-factor sieve.
Values are small integers, so every sum is exact; report bytes follow the
documented format (12 significant digits, `N,real,imag`).
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import GRID, LAGS, Contents, Workload, compose


def fmt(v: float) -> str:
    return format(v + 0.0, ".12g")


# parity of the popcount of every 16-bit value
_PARITY16 = np.zeros(1 << 16, dtype=np.int64)
for _bit in range(16):
    _PARITY16 ^= (np.arange(1 << 16) >> _bit) & 1


def thue_morse(positions: np.ndarray) -> np.ndarray:
    """Popcount parity of n (n < 2^32)."""
    n = positions.astype(np.int64)
    return _PARITY16[n & 0xFFFF] ^ _PARITY16[n >> 16]


DIGITS_PER_STEP = 8  # the automata read 3^8-letter blocks of base-3 digits


def _digit_blocks_msb_first(positions: np.ndarray, base: int):
    """Blocks of DIGITS_PER_STEP base-`base` digits of n, most significant block first."""
    n = positions.astype(np.int64)
    radix = base**DIGITS_PER_STEP
    blocks = []
    while True:
        blocks.append(n % radix)
        n = n // radix
        if not n.any():
            return reversed(blocks)


def _block_perms(columns):
    """sigma_{d0} o sigma_{d1} o ... o sigma_{d7} for every block value, d0 its least significant digit."""
    lam, perms = len(columns), []
    for v in range(lam**DIGITS_PER_STEP):
        perm = tuple(range(len(columns[0])))
        for i in range(DIGITS_PER_STEP):
            perm = compose(perm, columns[(v // lam**i) % lam])
        perms.append(perm)
    return perms


def _run_automaton(step: np.ndarray, states: int, positions: np.ndarray, base: int) -> np.ndarray:
    """Start in state 0 and read the blocks of n most significant first; step[v * states + q] is the next state."""
    state = np.zeros(len(positions), dtype=np.int64)
    for block in _digit_blocks_msb_first(positions, base):
        state = step[block * states + state]
    return state


def fixed_point_letters(positions: np.ndarray, columns) -> np.ndarray:
    """Base-3 digit automaton: x[n] = sigma_{d0}(sigma_{d1}(... sigma_{dK}(a))) from seed letter a = 0."""
    step = np.array([a for perm in _block_perms(columns) for a in perm], dtype=np.int64)
    return _run_automaton(step, len(columns[0]), positions, len(columns))


def cover_elements(columns):
    """Elements of the group the columns generate, in the order mobiuslab documents.

    `permgrp.closure` lists elements in breadth-first discovery order from the
    identity, right-multiplying by the generators in column order; the spec
    file's table keys are those indices.
    """
    identity = tuple(range(len(columns[0])))
    elems, frontier = [identity], [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in columns:
                p = compose(g, h)
                if p not in elems:
                    elems.append(p)
                    nxt.append(p)
        frontier = nxt
    return elems


def cover_indices(positions: np.ndarray, columns) -> np.ndarray:
    """Digit-wise block product x[n] = b[d0] b[d1] ... b[dK] in the cover group, as element indices."""
    elems = cover_elements(columns)
    index = {p: i for i, p in enumerate(elems)}
    step = np.array([index[compose(perm, x)] for perm in _block_perms(columns) for x in elems], dtype=np.int64)
    return _run_automaton(step, len(elems), positions, len(columns))


def rs_parities(positions: np.ndarray, pattern: str) -> np.ndarray:
    """Parity of the windows of n's binary expansion that match the pattern."""
    m = len(pattern)
    mask = np.uint32(int("".join("0" if c == "*" else "1" for c in pattern), 2))
    want = np.uint32(int(pattern.replace("*", "0"), 2))
    n = positions.astype(np.uint32)
    parity = np.zeros(len(n), dtype=bool)
    for j in range(max(int(n.max(initial=0)).bit_length() - m + 1, 0)):
        parity ^= ((n >> np.uint32(j)) & mask) == want
    return parity.astype(np.int64)


def veech_symbols(positions: np.ndarray, psi: str) -> np.ndarray:
    """Psi(tau(n)) over base 2, tau(n) - 1 being the number of trailing ones of n."""
    m = positions.astype(np.int64) + 1
    lowest = m & -m  # 2^(trailing ones of n)
    ones = np.frexp(lowest.astype(np.float64))[1] - 1
    word = np.array([int(c) for c in psi], dtype=np.int64)
    return word[ones % len(word)]


def weights(limit: int):
    """(mu, lambda) on 0..limit from a smallest-prime-factor sieve; index 0 unused.

    With p = spf(n) and q = n / p < n: lambda(n) = -lambda(q), and mu(n) = 0
    when p also divides q, else -mu(q).  q < 2^k for n < 2^(k+1), so each
    dyadic block is filled from the ones before it.
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    n = np.arange(limit + 1, dtype=np.int64)
    spf[2:][spf[2:] == 0] = n[2:][spf[2:] == 0]
    mobius = np.zeros(limit + 1, dtype=np.int64)
    liouville = np.zeros(limit + 1, dtype=np.int64)
    mobius[1] = liouville[1] = 1
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        p = spf[lo:hi]
        q = n[lo:hi] // p
        liouville[lo:hi] = -liouville[q]
        mobius[lo:hi] = np.where(spf[q] == p, 0, -mobius[q])
        lo = hi
    return mobius, liouville


def pow2_checkpoints(n: int):
    points = [1 << k for k in range(n.bit_length()) if 1 << k <= n]
    return points if points[-1] == n else points + [n]


def series_rows(products: np.ndarray, n: int):
    """(M, S_M / M) at the checkpoints, from exact integer partial sums."""
    partial = np.cumsum(products, dtype=np.int64)
    return [(m, int(partial[m - 1]) / m) for m in pow2_checkpoints(n)]


def series_csv(rows) -> bytes:
    lines = ["N,real,imag"] + ["%d,%s,0" % (m, fmt(v)) for m, v in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def series_json(rows, system, observable, weight, primes):
    return {
        "metadata": {
            "system": system,
            "observable": observable,
            "weight": weight,
            "r": primes[0] if primes else None,
            "s": primes[1] if primes else None,
        },
        "rows": [{"N": m, "real": v, "imag": 0.0} for m, v in rows],
    }


def _observable(c: Contents, system: str, positions: np.ndarray) -> np.ndarray:
    """Observable value at the positions for each system of the generated specs."""
    if system == "tm":
        return 1 - 2 * thue_morse(positions)
    if system == "sub":
        return np.array(c.sub_values, dtype=np.int64)[fixed_point_letters(positions, c.columns)]
    if system == "cov":
        return np.array(c.cover_values, dtype=np.int64)[cover_indices(positions, c.columns)]
    if system == "rsd":
        return 1 - 2 * rs_parities(positions, c.rs_pattern)
    if system == "vtau":
        return 1 - 2 * veech_symbols(positions, c.psi)
    raise ValueError("no reference for system %r" % system)


def autocorrelation(v: np.ndarray, n: int, lags: int):
    return [int(np.dot(v[:n], v[k : k + n])) / n for k in range(lags + 1)]


def periodogram(gamma, grid: int) -> np.ndarray:
    lags = len(gamma) - 1
    k = np.arange(grid)
    total = np.full(grid, gamma[0], dtype=np.float64)
    for lag in range(1, lags + 1):
        weight = 1.0 - lag / (lags + 1.0)
        total += 2.0 * weight * gamma[lag] * np.cos(2.0 * np.pi * lag * k / grid)
    return np.maximum(total, 0.0)


class Reference:
    """Expected outputs of one workload, keyed by report file name.

    `exact` holds files whose bytes are fully determined; `json_docs` and
    `spectra` hold files checked by value (JSON keeps signed zeros and the
    periodogram goes through an FFT, so their bytes are pinned to the first
    run instead).
    """

    def __init__(self, workload: Workload):
        c, n = workload.contents, workload.n
        self.exact, self.json_docs, self.spectra = {}, {}, {}
        idx = np.arange(1, n + 1, dtype=np.int64)
        mobius = liouville = None
        if any(e.weight != "none" for e in workload.experiments):
            mobius, liouville = weights(n)
        for e in workload.experiments:
            if e.kbsz:
                r, s = e.kbsz
                products = _observable(c, e.system, r * idx) * _observable(c, e.system, s * idx)
                weight = None
            else:
                products = _observable(c, e.system, idx)
                if e.weight == "moebius":
                    products = products * mobius[1:]
                elif e.weight == "liouville":
                    products = products * liouville[1:]
                weight = e.weight
            rows = series_rows(products, n)
            self.exact[e.name + ".csv"] = series_csv(rows)
            self.json_docs[e.name + ".json"] = series_json(rows, e.system, e.observable, weight, e.kbsz)
        if workload.name == "digit_spectral":
            ns = workload.n_spectral
            for system in ("rsd", "vtau"):
                v = _observable(c, system, np.arange(ns + LAGS, dtype=np.int64))
                gamma = autocorrelation(v, ns, LAGS)
                lines = ["lag,real,imag"] + ["%d,%s,0" % (k, fmt(g)) for k, g in enumerate(gamma)]
                self.exact[system + "_corr.csv"] = ("\n".join(lines) + "\n").encode("ascii")
                self.spectra[system + "_spectrum.csv"] = periodogram(gamma, GRID)

    def check(self, name: str, data: bytes) -> str | None:
        """None when the file agrees with the reference, else the reason."""
        if name in self.exact and data != self.exact[name]:
            return "%s: bytes differ from the oracle" % name
        try:
            if name in self.json_docs and json.loads(data) != self.json_docs[name]:
                return "%s: values differ from the oracle" % name
            if name in self.spectra:
                lines = data.decode("ascii").splitlines()
                got = np.array([float(line.split(",")[1]) for line in lines[1:]])
                want = self.spectra[name]
                if lines[0] != "k,value" or len(got) != len(want) or not np.allclose(got, want, rtol=1e-9, atol=1e-9):
                    return "%s: periodogram differs from the oracle" % name
        except (ValueError, IndexError) as exc:
            return "%s: unreadable (%s)" % (name, exc)
        return None


def golden_outputs():
    """Oracle values behind tests/fixtures/golden/: (Sarnak 2^20 CSV bytes, KBSZ 2^18 final)."""
    n = 1 << 20
    idx = np.arange(1, n + 1, dtype=np.int64)
    mobius, _ = weights(n)
    f = 1 - 2 * thue_morse(np.arange(5 * (1 << 18) + 1, dtype=np.int64))
    sarnak_csv = series_csv(series_rows((1 - 2 * thue_morse(idx)) * mobius[1:], n))
    m = np.arange(1, (1 << 18) + 1, dtype=np.int64)
    kbsz_final = int(np.dot(f[3 * m], f[5 * m])) / (1 << 18)
    return sarnak_csv, kbsz_final
