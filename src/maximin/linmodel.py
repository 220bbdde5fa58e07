"""Grouped linear-regression data: synthetic generation, fitting, CSV input.

The data model is Y_g = X_g b_g + eps_g for groups g = 1..G, each group
carrying its own n x p design and length-n response, with eps_g drawn
i.i.d. normal(0, sigma^2 Id). All groups share n and p, so the data
are one (G, n, p) design stack. Fitting yields
per-group least-squares coefficients (optionally with a ridge jitter on
the covariance diagonal), the pooled design covariance X^T X / (nG),
the (G, p, p) per-group covariances, and a pooled residual variance.

All randomness flows through counter-based Philox streams keyed by
(seed, purpose, group), so datasets are bit-reproducible for a given
seed and groups can be generated independently and in any order. A
stream's 128-bit Philox key is numpy's SeedSequence hash of its integer
key; _philox_keys computes it for all keys of a stack in one vectorised
pass, bitwise equal to SeedSequence, and one generator whose state is
reset to each key draws every stream. generate_stack draws many seeds'
datasets into one (R, G, n, p) stack and fit_stack fits such a stack in
one batched pass, judging each scatter by geometry.positive_definite,
the one definiteness test; generate and fit are their stacks of one.

Every CSV goes through one reader, _read_table. A regular file whose
bytes hold no quote, NUL or carriage return outside a CRLF has its data
rows, labels and numbers together, parsed in C by one np.loadtxt call.
That path never holds the file's text: its bytes are scanned 1 MiB at
a time through one buffer, and only the lines up to the first data row
are decoded. Every other file, and every file np.loadtxt declines, is
read from its decoded text by csv.reader and float(): a cell only
float() reads (1_000, non-ASCII digits), a non-finite value, a line of
only whitespace, a row of the wrong width or a byte that is not UTF-8.
Both readers give the same values bit for bit and the same
CsvFormatError, line and column included. On 10^5 rows (12 MB, p = 5,
G = 5, one grouped file, one BLAS thread, fastest of 15, 2-core VM),
``maximin region`` takes about 0.54 s through csv.reader and 0.175 s
through np.loadtxt, 0.15 s of it in the np.loadtxt call; the byte scan
takes 1 ms, a decode of the whole file 9 ms.
_read_table returns each column in file order, with the group cells;
the split of GroupedDataset.from_rows, the one split of labelled rows
into groups, gathers every column in group order straight into the
dataset's stacks, for load_grouped_csv as for rows held in memory, so
each value is copied once. Loading that file peaks at 16.3 MB of traced
allocations (tracemalloc) for 4.8 MB of stacks: the structured read,
its label strings and the stacks. A loader that also held the text and
stacked per-group copies peaked at 28.2 MB.
"""

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CsvFormatError, DimensionError, SingularFitError
from .geometry import positive_definite

COEFFICIENT_RULES = ("basis-vectors", "shared-plus-noise", "identical")

# numpy's SeedSequence hash, which numpy documents as stable: a pool of
# four 32-bit words filled by hashmix steps, each keyed by the next term
# of a multiplicative constant sequence, then every word mixed into every
# other. _philox_keys evaluates it in uint32 arrays, which wrap silently.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4
_ZEROS = (0, 0, 0, 0)


def _hash_steps(const, mult, count):
    """The (xor, multiplier) constants of count successive hashmix steps,
    as a (2, count, 1) uint32 array."""
    steps = []
    for _ in range(count):
        steps.append((const, const * mult & _MASK32))
        const = steps[-1][1]
    return np.array(steps, dtype=np.uint32).T[..., None]


# mix_entropy: the pool fill, then, for each source word in turn, one
# step for each other word; generate_state(2, uint64): one per output word
_MIX_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL * _POOL)
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, _POOL)


def _hashmix(value, steps):
    value = (value ^ steps[0]) * steps[1]
    return value ^ (value >> 16)


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def _philox_keys(keys):
    """The Philox keys numpy's SeedSequence derives, one per integer key.

    keys is a (K, m) array of integers in [0, 2**64), or K m-tuples of
    them. Row k of the (K, 2) uint64 result equals
    ``SeedSequence(tuple(keys[k])).generate_state(2, np.uint64)``. All
    rows are hashed at once: each integer splits into its little-endian
    32-bit words (0 into one zero word), and a row of fewer than four
    words is padded with zero words, which is numpy's hashmix(0) fill.
    A row of more than four words raises IndexError.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    K, m = keys.shape
    high = keys >> 32
    words = np.stack([keys & _MASK32, high], axis=-1).reshape(K, 2 * m)
    present = np.ones(words.shape, dtype=bool)
    present[:, 1::2] = high != 0
    slot = np.cumsum(present, axis=1) - 1
    entropy = np.zeros((_POOL, K), dtype=np.uint32)
    entropy[slot[present], np.nonzero(present)[0]] = words[present]
    pool = _hashmix(entropy, _MIX_STEPS[:, :_POOL])
    for src in range(_POOL):
        # the other words each take one step of src's hash, independently
        dst = [i for i in range(_POOL) if i != src]
        steps = _MIX_STEPS[:, _POOL + 3 * src:_POOL + 3 * src + 3]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    state = _hashmix(pool, _STATE_STEPS).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _reset(rng, key):
    """Rewind rng to the start of the Philox stream with the given key.

    The same state a fresh ``Philox(key=key)`` has: counter 0, an empty
    buffer and no cached 32-bit half.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _stream(*key):
    """Independent generator for a namespaced integer key."""
    return np.random.Generator(np.random.Philox(key=_philox_keys([key])[0]))


def _check_seeds(seeds):
    if not all(0 <= int(seed) < 2**64 for seed in seeds):
        raise ValueError("seed must be a 64-bit unsigned integer")


def _check_groups(labels, shapes):
    """Refuse groups of unequal sizes or predictor counts, or a label
    that appears twice, with DimensionError. shapes holds each group's
    (n_g, p_g), in label order."""
    if len({n for n, _ in shapes}) > 1:
        detail = ", ".join(f"{k}={n}" for k, (n, _) in zip(labels, shapes))
        raise DimensionError(f"groups must have equal sizes, got {detail}")
    if len({p for _, p in shapes}) > 1:
        raise DimensionError("all groups must share the predictor count p")
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise DimensionError(f"group label {label!r} appears more than once",
                                 groups=(labels.index(label), i))


@dataclass(frozen=True)
class GroupedDataset:
    """Per-group (X_g, y_g) pairs, stacked once into read-only arrays.

    groups holds (X_g, y_g) pairs, X_g of shape (n, p) and y_g of shape
    (n,); labels names the groups, g1, g2, ... by default. Groups of
    unequal size and repeated labels raise DimensionError. X (G, n, p)
    and y (G, n) are the stacks; groups then holds views of them.
    from_rows builds one from labelled rows.
    """

    groups: tuple
    labels: tuple = ()
    X: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = [(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
                 for X, y in self.groups]
        if not pairs:
            raise DimensionError("need at least one group")
        labels = tuple(self.labels) or tuple(f"g{g + 1}" for g in range(len(pairs)))
        if len(labels) != len(pairs):
            raise DimensionError("labels must match the number of groups")
        for g, (X, y) in enumerate(pairs):
            if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
                raise DimensionError(
                    f"group {g + 1}: design must be 2-d with one response per row"
                )
        _check_groups(labels, [X.shape for X, _ in pairs])
        X = np.stack([X for X, _ in pairs])
        y = np.stack([y for _, y in pairs])
        if X.shape[1] < 1 or X.shape[2] < 1:
            raise DimensionError("need n >= 1 and p >= 1")
        self._own(X, y, labels)

    def _own(self, X, y, labels):
        """Take the stacks X (G, n, p) and y (G, n) as the data, read-only."""
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "groups", tuple(zip(X, y)))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_rows(cls, X, y, labels):
        """The dataset of rows X (N, p) and responses y (N,), one label each.

        The one split of labelled rows into groups: groups come in order
        of first appearance, each named str(label), and rows keep their
        order within a group. Labels are told apart as the Python objects
        of labels.tolist(), so 1 and "1" are two groups that share the
        name "1", which the constructor refuses. An X that is not a
        nonempty 2-d array, a y that is not 1-d, or y or labels of
        another length than X raise DimensionError; a NaN or infinite
        entry in X or y raises ValueError. Each value is copied once,
        straight into the (G, n, p) and (G, n) stacks (see _split).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionError(f"X must be 2-dimensional, got ndim={X.ndim}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionError("X must be nonempty")
        if not np.isfinite(X).all():
            raise ValueError("X contains NaN or infinite entries")
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise DimensionError(f"y must be 1-dimensional, got ndim={y.ndim}")
        if not np.isfinite(y).all():
            raise ValueError("y contains NaN or infinite entries")
        if len(y) != len(X):
            raise DimensionError(f"y has {len(y)} entries but X has {len(X)} rows")
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise DimensionError("groups must be 1-dimensional")
        if len(labels) != len(X):
            raise DimensionError(f"groups has {len(labels)} entries but X has {len(X)} rows")
        return cls._split([*X.T, y], labels)

    @classmethod
    def _split(cls, columns, labels):
        """from_rows on checked input: columns holds N finite floats per
        predictor, then N responses, as 1-d arrays of any stride, and
        labels the N labels. Each column is gathered in group order
        straight into its place in the stacks, which the dataset then
        owns: no per-group piece is made and stacked again.
        """
        keys = labels.tolist()
        index = {key: g for g, key in enumerate(dict.fromkeys(keys))}
        ids = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
        del keys  # as ids below: freed before the stacks are allocated
        names = tuple(str(key) for key in index)
        p = len(columns) - 1
        _check_groups(names, [(size, p) for size in np.bincount(ids).tolist()])
        order = np.argsort(ids, kind="stable")
        del ids
        X = np.empty((len(names), len(order) // len(names), p))
        flat = X.reshape(-1, p)
        for j, column in enumerate(columns[:-1]):
            flat[:, j] = column[order]
        dataset = object.__new__(cls)  # cls(...) would stack the groups again
        dataset._own(X, columns[-1][order].reshape(X.shape[:2]), names)
        return dataset

    @property
    def G(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def p(self):
        return self.X.shape[2]

    def design_stack(self):
        """All designs stacked row-wise, an (nG) x p view of X."""
        return self.X.reshape(-1, self.p)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for a synthetic grouped dataset.

    coefficient_rule fixes the true p x G coefficient matrix given
    (p, G, seed): "basis-vectors" takes b_g = e_g, "identical" takes
    b_g = e_1, and "shared-plus-noise" takes b_g = e_1 + z_g e_2 with
    z_g standard normal. Every design entry is an independent standard
    normal, the common-distribution scenario the asymptotics assume.
    """

    p: int
    G: int
    n: int
    coefficient_rule: str = "basis-vectors"
    noise_sd: float = 1.0
    seed: int = 0
    ridge_jitter: float = 0.0

    def __post_init__(self):
        if self.p < 1 or self.G < 1 or self.n < 1:
            raise DimensionError("p, G and n must all be >= 1")
        if self.coefficient_rule not in COEFFICIENT_RULES:
            raise ValueError(f"unknown coefficient_rule {self.coefficient_rule!r}")
        if not 0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be finite and > 0")
        if not 0 <= self.ridge_jitter < math.inf:
            raise ValueError("ridge_jitter must be finite and >= 0")
        _check_seeds([self.seed])
        if self.coefficient_rule == "basis-vectors" and self.G > self.p:
            raise DimensionError("basis-vectors needs G <= p")
        if self.coefficient_rule == "shared-plus-noise" and self.p < 2:
            raise DimensionError("shared-plus-noise needs p >= 2")


def true_coefficients(spec):
    """The p x G coefficient matrix a ScenarioSpec generates from."""
    return _coefficients(spec, lambda: _stream(spec.seed, 0))


def _coefficients(spec, z_stream):
    """The coefficients of spec; for shared-plus-noise, z is drawn from
    the generator z_stream() returns, which other rules never call."""
    p, G = spec.p, spec.G
    if spec.coefficient_rule == "basis-vectors":
        return np.eye(p)[:, :G].copy()
    B = np.zeros((p, G))
    B[0, :] = 1.0
    if spec.coefficient_rule == "shared-plus-noise":
        B[1, :] = z_stream().standard_normal(G)
    return B


def generate_stack(spec, seeds):
    """Draw the datasets of one scenario at several seeds, stacked.

    Returns (X, y), shapes (R, G, n, p) and (R, G, n) for R seeds, each
    in [0, 2**64) (else ValueError). Replicate r is bitwise equal to
    the stacks of ``generate(replace(spec, seed=seeds[r]))``: each
    group's design and noise come from their own Philox streams keyed
    by (seed, purpose, group), drawn straight into the stack. The keys
    of all streams are hashed in one _philox_keys pass, and one
    generator is reset to each stream in turn. The responses are formed
    after the draws by one batched matmul of the designs with the
    coefficient columns.
    """
    _check_seeds(seeds)
    R, G, n, p = len(seeds), spec.G, spec.n, spec.p
    # row 0 of a seed is the coefficient stream (seed, 0), which hashes
    # as (seed, 0, 0): trailing zero words are the pool's padding
    keys = np.zeros((R, 2 * G + 1, 3), dtype=np.uint64)
    keys[..., 0] = np.asarray(seeds, dtype=np.uint64)[:, None]
    keys[:, 1:, 1] = np.repeat([1, 2], G)
    keys[:, 1:, 2] = np.tile(np.arange(G), 2)
    keys = _philox_keys(keys.reshape(-1, 3)).reshape(R, 2 * G + 1, 2)
    rng = np.random.Generator(np.random.Philox(key=0))
    X = np.empty((R, G, n, p))
    y = np.empty((R, G, n))  # the noise draws, until the responses are added
    if spec.coefficient_rule == "shared-plus-noise":
        B = np.empty((R, p, G))
    else:
        B = true_coefficients(spec)
    for r, key in enumerate(keys):
        key = key.tolist()  # the state setter reads Python ints fastest
        if B.ndim == 3:
            B[r] = _coefficients(spec, lambda: _reset(rng, key[0]))
        for g in range(G):
            _reset(rng, key[1 + g]).standard_normal(out=X[r, g])
            _reset(rng, key[1 + G + g]).standard_normal(out=y[r, g])
    # One batched matmul, bitwise the per-group gemv X[r, g] @ B[:, g]
    # when each column is read with B's stride, as here; a contiguous
    # copy of B^T rounds otherwise at n = 1, p >= 5.
    y *= spec.noise_sd
    y += (X @ B.swapaxes(-1, -2)[..., None])[..., 0]
    return X, y


def generate(spec):
    """Draw a synthetic grouped dataset.

    Parameters
    ----------
    spec : ScenarioSpec

    Returns
    -------
    (GroupedDataset, ndarray)
        The dataset and the true p x G coefficient matrix used.
    """
    X, y = generate_stack(spec, [spec.seed])
    return GroupedDataset(tuple(zip(X[0], y[0]))), true_coefficients(spec)


@dataclass(frozen=True)
class GroupEstimates:
    """Per-group fits plus pooled covariance and noise variance.

    Bhat stacks the fitted coefficient vectors as columns. Sigma_hat is
    the pooled design covariance X^T X / (nG) plus the jitter diagonal;
    Sigma_g_hat is the (G, p, p) stack of per-group analogues.
    sigma2_approximate is
    True when p >= n forced the residual variance onto G*n degrees of
    freedom instead of the unbiased G*(n - p).
    """

    Bhat: np.ndarray
    Sigma_hat: np.ndarray
    Sigma_g_hat: np.ndarray
    sigma2_hat: float
    ridge_jitter_used: float
    n: int
    sigma2_approximate: bool = False

    @property
    def p(self):
        return self.Bhat.shape[0]

    @property
    def G(self):
        return self.Bhat.shape[1]


class StackFit(NamedTuple):
    """Least-squares fits of a (..., G, n, p) stack of grouped data.

    coef (..., G, p) holds each group's coefficients, S (..., G, p, p)
    the scatters X_g^T X_g / n plus the jitter diagonal, rhs
    (..., G, p, 1) the moments X_g^T y_g / n, sigma2 (...) the pooled
    residual variances, and pivots (..., G, p, p) and pivots_ok (..., G)
    each scatter's factor and verdict from positive_definite, the one
    definiteness test, false too for an unjittered scatter with n < p.
    coef and sigma2 are NaN for the datasets not ok.
    """

    coef: np.ndarray
    S: np.ndarray
    rhs: np.ndarray
    sigma2: np.ndarray
    pivots: np.ndarray
    pivots_ok: np.ndarray

    @property
    def ok(self):
        """The datasets whose every group passes the definiteness test
        with finite moments, (...)."""
        return self.pivots_ok.all(axis=-1) & np.isfinite(self.rhs).all(axis=(-3, -2, -1))

    @property
    def Bhat(self):
        """The coefficient vectors as columns, (..., p, G)."""
        return self.coef.swapaxes(-1, -2)

    @property
    def Sigma_hat(self):
        """The pooled design covariances, (..., p, p)."""
        return self.S.mean(axis=-3)


def fit_stack(X, y, ridge_jitter=0.0):
    """Per-group least squares over a (..., G, n, p) stack of datasets.

    One batched pass: Grams and moments (an overflow leaves them
    non-finite, and a non-finite scatter fails the test), one verdict of
    positive_definite, the one definiteness test, on every scatter, one
    solve for the datasets that pass, and the residual variance on
    G (n - p) degrees of freedom, or G n when p >= n. An unjittered
    scatter of n < p rows has rank n and fails by its shape, whatever
    rounding makes of its last pivot. Returns a StackFit.
    """
    G, n, p = X.shape[-3:]
    Xt = X.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        S = (Xt @ X) / n + ridge_jitter * np.eye(p)
        rhs = (Xt @ y[..., None]) / n
    L, ok = positive_definite(S)
    ok &= (n >= p) | (ridge_jitter > 0)
    fitted = StackFit(np.full(S.shape[:-1], np.nan), S, rhs,
                      np.full(S.shape[:-3], np.nan), L, ok)
    ok = fitted.ok
    if ok.any():
        sel = Ellipsis if ok.all() else ok  # a view, not a copy, when all pass
        sol = np.linalg.solve(S[sel], rhs[sel])
        r = y[sel] - (X[sel] @ sol)[..., 0]
        dof = G * n if p >= n else G * (n - p)
        fitted.coef[sel] = sol[..., 0]
        with np.errstate(over="ignore"):  # an inf sigma2 fails W's spectrum
            fitted.sigma2[sel] = np.sum(r * r, axis=(-2, -1)) / dof
    return fitted


def fit(dataset, ridge_jitter=0.0):
    """Per-group least squares with an optional ridge jitter.

    Each coefficient vector solves (X_g^T X_g / n + jitter Id) b =
    X_g^T y_g / n. The dataset goes through fit_stack as a stack of
    one, and its verdict is the only check: the first group that fails
    it raises. A scatter that is not finite (it overflowed), has n < p
    rows and no jitter, cannot be factored or fails positive_definite,
    the one definiteness test, raises SingularFitError naming the group;
    non-finite moments raise ValueError. Sigma_hat is X^T X / (nG) +
    jitter Id, the scatters' mean.

    Parameters
    ----------
    dataset : GroupedDataset
    ridge_jitter : float
        Finite nonnegative diagonal loading applied to all covariances.

    Returns
    -------
    GroupEstimates
    """
    if not 0 <= ridge_jitter < math.inf:
        raise ValueError("ridge_jitter must be finite and >= 0")
    fitted = fit_stack(dataset.X[None], dataset.y[None], ridge_jitter)
    if not fitted.ok[0]:
        failed = ~fitted.pivots_ok[0] | ~np.isfinite(fitted.rhs[0]).all(axis=(-2, -1))
        g = int(np.argmax(failed))
        label = dataset.labels[g]
        if not np.isfinite(fitted.S[0, g]).all():
            problem = "is not finite"
        elif np.isnan(fitted.pivots[0, g]).any() or dataset.n < dataset.p:
            problem = "is singular; a positive ridge_jitter is required"
        elif not fitted.pivots_ok[0, g]:
            problem = "is numerically rank-deficient"
        else:
            raise ValueError("array must not contain infs or NaNs")
        raise SingularFitError(f"group {label}: design scatter {problem}", group=label)
    return GroupEstimates(
        Bhat=fitted.Bhat[0],
        Sigma_hat=fitted.Sigma_hat[0],
        Sigma_g_hat=fitted.S[0],
        sigma2_hat=float(fitted.sigma2[0]),
        ridge_jitter_used=float(ridge_jitter),
        n=dataset.n,
        sigma2_approximate=dataset.p >= dataset.n,
    )


def _parse_cell(raw, line_no, column):
    try:
        value = float(raw)
    except ValueError:
        problem = f"cannot parse {raw!r} as a number"
    else:
        if math.isfinite(value):
            return value
        problem = f"{raw!r} is not a finite number"
    raise CsvFormatError(
        f"line {line_no}, column {column!r}: {problem}", line=line_no, column=column)


def _read_text(path):
    """The text of path, decoded as UTF-8, line ends as they are.

    Bytes that are not UTF-8 raise CsvFormatError naming path.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        byte = err.object[err.start]
        raise CsvFormatError(
            f"{path}: not UTF-8 text (byte 0x{byte:02x}: {err.reason})") from None


# the bytes _plain_bytes reads at a time, through one buffer
_CHUNK = 1 << 20


def _plain_bytes(path):
    """Whether the file at path holds no quote, no NUL and no carriage
    return outside a CRLF line end.

    The bytes are read _CHUNK at a time into one reused buffer; a CRLF
    split across two reads is one line end. Nothing is decoded.
    """
    buffer = bytearray(_CHUNK)
    after_cr = False  # the last read ended in a carriage return
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            if buffer.find(b'"', 0, size) >= 0 or buffer.find(b"\0", 0, size) >= 0:
                return False
            if after_cr and buffer[0] != ord("\n"):
                return False
            after_cr = False
            # `find` first: a count scans the whole read even with no CR in it
            if buffer.find(b"\r", 0, size) >= 0:
                after_cr = buffer.endswith(b"\r", 0, size)
                lone = buffer.count(b"\r", 0, size) - buffer.count(b"\r\n", 0, size)
                if lone != after_cr:
                    return False
    return not after_cr


def _read_table(path, layout, header):
    """The float columns of one CSV and the key cell of each row.

    The first non-blank row sets the layout: ``layout(row, line)``
    returns (names, columns, key) or raises CsvFormatError. A blank row
    holds nothing but whitespace and commas; an empty line is one. With
    header, that row is the header and the data rows follow it; without,
    it is the first data row. Returns (names, columns, key), a list of
    one (N,) float array per entry of ``columns``, the data rows' cells
    of that column in file order, and an (N,) object array of their
    ``key`` cells (None when key is None). A file without a non-blank
    row, or without a data row, raises CsvFormatError; so does a row
    that _parse_rows refuses.

    A regular file whose bytes _plain_bytes passes goes through
    _loadtxt_rows, which never holds the file's text; anything it
    declines, csv.reader and _parse_rows read from the decoded text,
    which give the same values for what both accept. A csv.reader
    error, such as a field over its size limit, raises CsvFormatError
    naming path and the line.
    """
    if os.path.isfile(path) and _plain_bytes(path):
        read = _loadtxt_rows(path, layout, header)
        if read is not None:
            return read
    text = _read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as err:
        raise CsvFormatError(
            f"{path}: line {reader.line_num}: {err}", line=reader.line_num) from None
    start = next((i for i, row in enumerate(rows) if "".join(row).strip()), None)
    if start is None:
        raise CsvFormatError(f"{path}: empty file", line=1)
    spec = names, columns, key = layout(rows[start], start + 1)
    values, keys = _parse_rows(path, rows, start + 1 if header else start, columns, names, key)
    if not values:
        raise CsvFormatError(f"{path}: no data rows", line=start + 2)
    keys = None if key is None else np.array(keys, dtype=object)
    return spec, list(np.array(values, dtype=float).T), keys


# a character that makes a row non-blank
_CONTENT = re.compile(r"[^\s,]")


def _loadtxt_rows(path, layout, header):
    """What _read_table returns for path, parsed by np.loadtxt, or None.

    The file holds no quote, NUL or carriage return outside a CRLF line
    end, so its rows are its lines, less a trailing carriage return,
    split on commas. Only the leading lines are decoded here: up to the
    first non-blank row, which goes to layout, and, with header, on to
    the first non-blank line after it. One np.loadtxt call then reads
    the data rows of path in C, with CRLF as a line end, one field per
    cell of the first row: the key cell as an object, every other as a
    float, parsed as float() does except what float() alone accepts
    (``1_000``, digits outside ASCII). The columns are views of its
    fields. None, so that csv.reader reads the file, when there is no
    data row, a line is not UTF-8 (np.loadtxt raises UnicodeDecodeError,
    a ValueError), a number is not finite or np.loadtxt refuses a row,
    as it does a row with another field count than its dtype's: it
    skips empty lines only. A layout error is raised once _read_text has
    found the whole file to be UTF-8, in the order csv.reader's path
    raises them.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = enumerate(handle)
            skip, first = next(
                ((i, line) for i, line in lines if _CONTENT.search(line)), (0, None))
            if first is None:
                return None
            first = first.removesuffix("\n").removesuffix("\r").split(",")
            try:
                spec = layout(first, skip + 1)
            except CsvFormatError:
                _read_text(path)  # bytes that are not UTF-8 are reported first
                raise
            if header and not any(_CONTENT.search(line) for _, line in lines):
                return None
    except UnicodeDecodeError:
        return None
    _, columns, key = spec
    # the key field holds str objects: a str field has a fixed width, and
    # a label may be longer
    fields = [(f"f{j}", object if j == key else float) for j in range(len(first))]
    try:
        rows = np.loadtxt(path, dtype=fields, delimiter=",", comments=None,
                          skiprows=skip + 1 if header else skip, encoding="utf-8", ndmin=1)
    except ValueError:
        return None
    values = [rows[f"f{j}"] for j in columns]
    if not all(np.isfinite(column).all() for column in values):
        return None
    return spec, values, None if key is None else rows[f"f{key}"]


def _parse_rows(path, rows, start, columns, names, key=None):
    """Parse rows[start:] into float lists and their key cells.

    Every row must have len(names) fields. A row yields the numbers in
    its ``columns`` cells, in that order, and its ``key`` cell; returns
    the list of the number lists and the list of the key cells (empty
    when key is None), in row order. Blank rows are skipped; a row is
    tested for blankness only when it fails to parse, so the common
    path pays nothing for the test. Any other row with the wrong field
    count, or with a cell that is not a finite number, raises
    CsvFormatError naming path, the line and the cell's ``names`` entry.
    """
    width = len(names)
    values, keys = [], []
    for line_no, row in enumerate(rows[start:], start + 1):
        try:
            if len(row) != width:
                raise CsvFormatError(
                    f"line {line_no}: expected {width} fields, got {len(row)}",
                    line=line_no,
                )
            values.append([_parse_cell(row[j], line_no, names[j]) for j in columns])
        except CsvFormatError as err:
            if not "".join(row).strip():
                continue
            raise CsvFormatError(f"{path}: {err}", err.line, err.column) from None
        if key is not None:
            keys.append(row[key])
    return values, keys


def _data_layout(path, header, line, grouped):
    """The (names, columns, key) of a data file's header row.

    The names must be distinct, one must be ``y`` and at least one other
    must be a predictor. A grouped file needs a ``group`` column and a
    per-group file must not have one. columns lists the predictors in
    header order, then ``y``; key is the ``group`` column, or None.
    """
    repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
    if repeated is not None:
        raise CsvFormatError(
            f"{path}: column {repeated!r} appears more than once", line=line)
    if grouped and "group" not in header:
        raise CsvFormatError(f"{path}: header must contain a 'group' column", line=line)
    if not grouped and "group" in header:
        raise CsvFormatError(
            f"{path}: per-group files must not contain a 'group' column", line=line)
    if "y" not in header:
        raise CsvFormatError(f"{path}: header must contain a 'y' column", line=line)
    predictors = [c for c in header if c not in ("group", "y")]
    if not predictors:
        raise CsvFormatError(f"{path}: no predictor columns found", line=line)
    columns = [header.index(c) for c in predictors] + [header.index("y")]
    return header, columns, header.index("group") if grouped else None


def _load_table(path, grouped):
    """The predictor names, data columns and key cells of one data CSV.

    The first non-blank row is the header (see _data_layout). Returns
    (predictors, columns, keys): one (N,) array per predictor, then the
    responses, each in file order, and the (N,) ``group`` cells, None
    for a per-group file.
    """
    (names, columns, _), values, keys = _read_table(
        path, lambda header, line: _data_layout(path, header, line, grouped), header=True)
    return [names[j] for j in columns[:-1]], values, keys


def load_grouped_csv(path):
    """Read one CSV holding every group, tagged by a ``group`` column.

    The header row is required. The response column must be named ``y``;
    every remaining non-group column is a predictor, in header order.
    The split of GroupedDataset.from_rows puts the rows into groups,
    each cell copied once, from the parsed columns into the stacks.
    """
    _, columns, keys = _load_table(path, grouped=True)
    try:
        return GroupedDataset._split(columns, keys)
    except DimensionError as err:
        raise CsvFormatError(f"{path}: {err}") from None


def load_group_csvs(paths):
    """Read one CSV per group, labelled by its file name without extension.

    The files share one predictor header. Two files with one name (in
    different folders) are refused with a CsvFormatError naming both.
    The (G, n, p) and (G, n) stacks are sized from the first file's rows,
    and each file's columns are copied straight into them, so a file's
    parsed table is freed before the next is read. A file of another
    size is still read, and so are the rest, for the error to name every
    file's size.
    """
    paths = list(paths)
    if not paths:
        raise CsvFormatError("need at least one group")
    labels = tuple(os.path.splitext(os.path.basename(path))[0] for path in paths)
    expected, shapes = None, []
    for g, path in enumerate(paths):
        predictors, columns, _ = _load_table(path, grouped=False)
        if expected is None:
            expected = predictors
            X = np.empty((len(paths), len(columns[0]), len(predictors)))
            y = np.empty(X.shape[:2])
        elif predictors != expected:
            raise CsvFormatError(
                f"{path}: predictor columns {predictors} differ from {expected}",
                line=1,
            )
        shapes.append((len(columns[0]), len(predictors)))
        if len(columns[0]) == X.shape[1]:
            for j in range(X.shape[2]):
                X[g, :, j] = columns[j]
            y[g] = columns[-1]
        del columns  # views that keep the file's whole structured read alive
    try:
        _check_groups(labels, shapes)
    except DimensionError as err:
        named = " and ".join(str(paths[g]) for g in err.groups)
        raise CsvFormatError(f"{named}: {err}" if named else str(err)) from None
    dataset = object.__new__(GroupedDataset)  # GroupedDataset(...) would stack again
    dataset._own(X, y, labels)
    return dataset


def load_matrix_csv(path):
    """Read a headerless CSV grid of finite numbers as a 2-d array.

    The rows share the field count of the first non-blank one; blank
    rows are skipped and errors name path, line and column number, as
    for the data loaders. The CLI reads ``--known-sigma`` with it.
    """
    _, columns, _ = _read_table(
        path, lambda row, line: (range(1, len(row) + 1), range(len(row)), None),
        header=False)
    return np.stack(columns, axis=-1)
