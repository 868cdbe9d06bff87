"""Malus transmission of a co-rotated polariser experiment, and its
statistics: every function takes (N,) arrays and returns (N,) arrays, and
a float is one row."""

from __future__ import annotations

import math
import operator

import numpy as np

from .induction import pf_wigner
from .minkowski import (
    PairStack,
    _check_rows,
    _checked_rows,
    _finite_test,
    in_blocks,
    math_rows,
    rotation_about,
    unit_rows,
)

# numpy's SeedSequence hash (bit_generator.pyx): the running multiplier
# of the pool's hashmix starts at INIT_A and of generate_state's at INIT_B
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# the multiplier of PCG64's 128-bit linear congruential step
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, an (n + 1, 1) uint32 column:
    the running multiplier of n hashmix steps."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c, dtype=np.uint32)[:, None]


# the 16 hashmix steps that fill and mix a pool of four words, and the 8
# of generate_state(4, uint64)
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)
# the pool words other than word src, in order, for each src
_OTHERS = [np.array([d for d in range(4) if d != src]) for src in range(4)]


def _hashmix(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row j of x (k, N) or (N,), which
    xors c[j] and multiplies by c[j + 1] of the constants c (k + 1, 1)."""
    x = (x ^ c[:-1]) * c[1:]
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _pcg64_states(seed: int, n: int) -> list[tuple[int, int]]:
    """The (state, inc) of `np.random.PCG64(seed + i).state["state"]` for
    each i < n, an int seed >= 0, from one SeedSequence hash of every row
    at once.

    Each row's seed is a column of the (w, n) uint32 array `words`, least
    significant word first, zero-padded to the longest seed and to at
    least four words: a zero word mixes into the pool as the hashmix(0)
    that pads a short seed, so every seed below 2**128 takes one path. A
    word past the fourth, of a seed of 2**128 or more, is mixed only into
    the rows whose seeds have it. The pool's generate_state(4, uint64) is
    (initstate, initseq), which PCG64's srandom step turns into (state,
    inc) in Python ints. All uint32 arithmetic is on arrays, which wrap
    silently where numpy scalars would warn.
    """
    seeds = range(seed, seed + n)
    w = max(4, -(-(seed + n - 1).bit_length() // 32))
    words = np.frombuffer(b"".join(s.to_bytes(4 * w, "little") for s in seeds),
                          dtype="<u4").reshape(n, w).T
    a = _HASH_A if w == 4 else _hash_constants(_INIT_A, _MULT_A, 4 * w)
    pool = _hashmix(words[:4], a[:5])
    k = 4
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + 4]))
        k += 3
    for j in range(4, w):
        has_word = np.array([s >> 32 * j > 0 for s in seeds])
        pool = np.where(has_word, _mix(pool, _hashmix(words[j], a[k:k + 5])), pool)
        k += 4
    out = _hashmix(np.concatenate([pool, pool]), _HASH_B).astype(np.uint64)
    # initstate and initseq are 128-bit (high, low) pairs of the uint64s
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*(out[0::2] | out[1::2] << np.uint64(32)).tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append(((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _cos_squared(name: str, x: np.ndarray) -> np.ndarray:
    """cos^2 of each entry of the (N,) array x, the argument `name` of the
    Malus law; an entry that is not finite, as where a difference of finite
    angles overflows, raises a RowValueError naming its row."""
    _check_rows([_finite_test(name, x)])
    # per row with math: numpy's a ** 2 is a * a but Python's float ** 2 is
    # libm pow, and the two differ in the last bit for some angles
    return math_rows(lambda a: math.cos(a) ** 2, x)


def malus_probability(theta, Theta) -> np.ndarray:
    """cos^2(Theta - theta) of each row of theta and Theta, (N,) arrays
    (floats among them shared); an angle that is not finite raises a
    RowValueError naming its row, and so does a difference of them that
    overflows."""
    theta, Theta = _checked_rows(lambda t, T: [_finite_test("theta", t), _finite_test("Theta", T)],
                                 theta, Theta)
    with np.errstate(over="ignore"):
        x = Theta - theta
    return _cos_squared("Theta - theta", x)


def monte_carlo_malus(p, n_samples: int, seed: int) -> np.ndarray:
    """Empirical pass fraction of n_samples seeded Bernoulli trials at
    each probability of the (N,) array p: the number of passes of row i is
    Binomial(n_samples, p[i]), drawn at once, exactly as
    `np.random.default_rng(seed + i).binomial(n_samples, p[i])` draws it.

    The rows go STACK_BLOCK at a time, through `in_blocks`. A block hashes
    all its rows' seeds at once (`_pcg64_states`) and sets one PCG64, under
    one Generator for the call, to each row's state before its draw. The
    binomial set-up that Generator caches is a function of (n, p) alone, so
    the reused generator draws what a fresh one would. The counts thus rest
    on numpy's SeedSequence and PCG64 seeding as well as its binomial
    stream. n_samples is an int of at least 1 (a float or a bool raises
    ValueError), seed an int of at least 0 (a negative one raises
    ValueError), and a p outside [0, 1] raises a RowValueError naming its
    row.
    """
    if isinstance(n_samples, (bool, np.bool_)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    (p,) = _checked_rows(lambda p: [((p >= 0.0) & (p <= 1.0),
                                     lambda i: f"p={float(p[i])!r} outside [0, 1]")], p)
    bits = np.random.PCG64(0)  # any seed: each row sets its own state
    rng = np.random.Generator(bits)

    def draw(rows: slice) -> np.ndarray:
        q = p[rows].tolist()
        counts = np.empty(len(q))
        for i, (state, inc) in enumerate(_pcg64_states(seed + rows.start, len(q))):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            counts[i] = rng.binomial(n_samples, q[i])
        return counts

    return in_blocks(len(p), draw) / n_samples


def anomalous_malus_curve(pair: PairStack, theta, Theta0, deltas) -> np.ndarray:
    """Predicted transmission when the polariser is rotated about the beam,
    one entry per row of theta, Theta0 and deltas.

    For each delta the polariser axis angle advances by delta while the
    state's polarisation angle advances by the pair Wigner angle of that
    rotation (matrix route, not the closed form), so the probability is
    cos^2(Theta0 + delta - theta - phi). With a zero frame velocity
    phi = delta exactly and the curve is the constant classical value.
    `pair` is a PairStack of one row; any other raises ValueError. The
    deltas go to `pf_wigner` STACK_BLOCK at a time, through `in_blocks`,
    which bounds the working arrays of the sweep; an error names the row
    of the deltas. theta, Theta0 and deltas are per-row fields, read
    together by `_checked_rows`: a float is shared by every row, and row
    counts other than 1 and N raise its ValueError. A theta or Theta0 that
    is not finite raises a RowValueError naming its row, and so does an
    argument of the cosine that overflows.
    """
    if len(pair) != 1:
        raise ValueError(f"expected a pair of one row, got {len(pair)} rows")
    theta, Theta0, deltas = _checked_rows(
        lambda t, T, d: [_finite_test("theta", t), _finite_test("Theta0", T)],
        theta, Theta0, deltas)
    axis = unit_rows(pair.k[:, 1:])[0]
    phi = in_blocks(len(deltas),
                    lambda rows: pf_wigner(pair, rotation_about(axis, deltas[rows])).phi)
    with np.errstate(over="ignore"):
        x = Theta0 + deltas - theta - phi
    return _cos_squared("Theta0 + delta - theta - phi", x)
