"""Spark configuration space: 30 performance-critical parameters.

Follows the paper (§2.2/§6.1), which tunes the same 30 parameters as
Tuneful (Fekry et al., KDD 2020). Ranges are sized for a mid-size YARN
resource group (≤ 800 executors); per the paper, ranges would be set per
cluster.

A configuration is a ``dict`` name → value. For modelling, configs map
to a unit-cube vector (numeric dims min-max- or log-scaled to [0,1];
categoricals as ``index/(k-1)`` on a discrete grid) — the GP applies a
Hamming kernel on the categorical dims and Matérn on the numeric ones,
and trees treat categoricals ordinally. Candidate pools stay unit rows
snapped onto the grid (``to_unit(from_unit(u))``, see
:meth:`ConfigSpace.snap`); only the chosen row becomes a ``dict``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Param:
    """One tunable Spark parameter.

    ``kind`` is one of ``int`` / ``float`` / ``cat``; booleans are
    2-way categoricals. ``log`` scales the unit mapping logarithmically
    (for wide integer ranges such as executor counts; float params are
    always linear).
    """

    name: str
    kind: str
    low: float = 0.0
    high: float = 1.0
    log: bool = False
    choices: tuple = ()
    default: object = None

    @property
    def n_choices(self) -> int:
        return len(self.choices)

    def to_unit(self, value) -> float:
        """Map a concrete value to [0, 1]."""
        if self.kind == "cat":
            i = self.choices.index(value)
            return i / max(self.n_choices - 1, 1)
        v = float(value)
        if self.log:
            return (math.log(v) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (v - self.low) / (self.high - self.low)

    def from_unit(self, u: float):
        """Map a unit value back to a concrete (rounded/snap) value."""
        u = min(max(float(u), 0.0), 1.0)
        if self.kind == "cat":
            return self.choices[int(round(u * (self.n_choices - 1)))]
        if self.log:
            v = math.exp(math.log(self.low) + u * (math.log(self.high) - math.log(self.low)))
        else:
            v = self.low + u * (self.high - self.low)
        if self.kind == "int":
            return int(min(max(round(v), self.low), self.high))
        return float(v)


def _bool(name: str, default: bool) -> Param:
    return Param(name, "cat", choices=(False, True), default=default)


#: The 30 tuned parameters. Order matters: it defines vector dimensions.
SPARK_PARAMS: tuple[Param, ...] = (
    Param("spark.executor.instances", "int", 1, 800, log=True, default=8),
    Param("spark.executor.cores", "int", 1, 8, default=2),
    Param("spark.executor.memory", "int", 1, 32, log=True, default=4),  # GB
    Param("spark.executor.memoryOverhead", "int", 256, 4096, log=True, default=384),  # MB
    Param("spark.driver.memory", "int", 1, 16, log=True, default=2),  # GB
    Param("spark.driver.cores", "int", 1, 8, default=1),
    Param("spark.default.parallelism", "int", 8, 2000, log=True, default=128),
    Param("spark.sql.shuffle.partitions", "int", 8, 2000, log=True, default=200),
    Param("spark.memory.fraction", "float", 0.4, 0.9, default=0.6),
    Param("spark.memory.storageFraction", "float", 0.1, 0.9, default=0.5),
    _bool("spark.shuffle.compress", True),
    _bool("spark.shuffle.spill.compress", True),
    Param("spark.shuffle.file.buffer", "int", 16, 256, log=True, default=32),  # KB
    Param("spark.reducer.maxSizeInFlight", "int", 16, 256, log=True, default=48),  # MB
    Param("spark.io.compression.codec", "cat", choices=("lz4", "snappy", "zstd"), default="lz4"),
    Param("spark.serializer", "cat", choices=("java", "kryo"), default="java"),
    Param("spark.kryoserializer.buffer.max", "int", 16, 256, log=True, default=64),  # MB
    _bool("spark.rdd.compress", False),
    Param("spark.broadcast.blockSize", "int", 1, 16, default=4),  # MB
    Param("spark.network.timeout", "int", 60, 600, default=120),  # s
    Param("spark.locality.wait", "float", 0.0, 10.0, default=3.0),  # s
    _bool("spark.speculation", False),
    Param("spark.task.maxFailures", "int", 1, 8, default=4),
    Param("spark.shuffle.sort.bypassMergeThreshold", "int", 100, 1000, default=200),
    Param("spark.shuffle.io.numConnectionsPerPeer", "int", 1, 8, default=1),
    _bool("spark.memory.offHeap.enabled", False),
    Param("spark.memory.offHeap.size", "int", 1, 8, default=1),  # GB, used iff enabled
    Param("spark.storage.memoryMapThreshold", "int", 1, 10, default=2),  # MB
    Param("spark.sql.autoBroadcastJoinThreshold", "int", 1, 64, log=True, default=10),  # MB
    Param("spark.scheduler.mode", "cat", choices=("FIFO", "FAIR"), default="FIFO"),
)


@dataclass
class ConfigSpace:
    """Vectorization, sampling and sub-spacing over a parameter tuple."""

    params: tuple[Param, ...] = SPARK_PARAMS
    _index: dict[str, int] = field(init=False)
    _grids: dict[int, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index = {p.name: i for i, p in enumerate(self.params)}
        self._grids = {}

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def cat_mask(self) -> np.ndarray:
        return np.array([p.kind == "cat" for p in self.params])

    def index_of(self, name: str) -> int:
        return self._index[name]

    def default_config(self) -> dict:
        return {p.name: p.default for p in self.params}

    def to_unit(self, config: dict) -> np.ndarray:
        return np.array([p.to_unit(config[p.name]) for p in self.params])

    def from_unit(self, u: np.ndarray) -> dict:
        return {p.name: p.from_unit(u[i]) for i, p in enumerate(self.params)}

    def clip(self, config: dict) -> dict:
        """Snap a config onto the space's grid/ranges."""
        return self.from_unit(self.to_unit(config))

    # -- unit rows, many at a time ---------------------------------------

    def _grid(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Values of int/cat param ``i`` and their unit values, built lazily
        with the scalar :meth:`Param.to_unit` (``np.log`` and ``math.log``
        disagree in the last ulp on some log-int values)."""
        if i not in self._grids:
            p = self.params[i]
            values = p.choices if p.kind == "cat" else range(int(p.low), int(p.high) + 1)
            self._grids[i] = np.array(values), np.array([p.to_unit(v) for v in values])
        return self._grids[i]

    def _decode(self, U: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column ``i`` of :meth:`from_unit` over rows ``U``, and the unit
        values of those values, bit-identical to the scalar codec."""
        p = self.params[i]
        u = np.clip(U[:, i], 0.0, 1.0)
        if p.kind == "float":
            v = p.low + u * (p.high - p.low)
            return v, (v - p.low) / (p.high - p.low)
        if p.kind == "cat":
            k = np.rint(u * (p.n_choices - 1))
        else:
            lo, hi = (math.log(p.low), math.log(p.high)) if p.log else (p.low, p.high)
            v = np.exp(lo + u * (hi - lo)) if p.log else lo + u * (hi - lo)
            k = np.rint(v)
            # np.exp and math.exp may differ in the last ulp; near a .5 tie
            # that could flip the rounding, so those rows take the scalar path
            tie = np.abs(v - np.floor(v) - 0.5) < 1e-6
            k[tie] = [p.from_unit(x) for x in u[tie]]
            k = np.clip(k, p.low, p.high) - p.low
        values, units = self._grid(i)
        k = k.astype(np.int64)
        return values[k], units[k]

    def snap(self, U: np.ndarray) -> np.ndarray:
        """Rows ``to_unit(from_unit(u))``: each row of ``U`` on the grid."""
        return np.column_stack([self._decode(U, i)[1] for i in range(self.dim)])

    def columns(self, U: np.ndarray) -> dict[str, np.ndarray]:
        """:meth:`from_unit` over rows ``U``, one array of values per param."""
        return {p.name: self._decode(U, i)[0] for i, p in enumerate(self.params)}

    def sample_unit(
        self, n: int, rng: np.random.Generator, *, subspace: list[int] | None = None,
        base: np.ndarray | None = None,
    ) -> np.ndarray:
        """``n`` uniform snapped unit rows; if ``subspace`` given, only
        those dims vary and the rest are pinned at the unit row ``base``
        (the default config's if None)."""
        if subspace is None:
            return self.snap(rng.random((n, self.dim)))
        U = np.tile(self.to_unit(self.default_config()) if base is None else base, (n, 1))
        U[:, list(subspace)] = rng.random((n, len(subspace)))
        return self.snap(U)

    def sample_random(self, n: int, rng: np.random.Generator) -> list[dict]:
        """:meth:`sample_unit`, decoded to configs."""
        return [self.from_unit(u) for u in self.sample_unit(n, rng)]

    def sample_sobol(self, n: int, *, seed: int = 0) -> list[dict]:
        """Low-discrepancy initial design (§3.3 "Initial configurations")."""
        return [self.from_unit(u) for u in sobol(n, self.dim, seed=seed)]


def hibench_space() -> ConfigSpace:
    """The 30-parameter space sized for the paper's 4-node HiBench
    cluster (§6.1: 2×48-core AMD per node → 384 cores): executor counts
    up to 96 instead of 800. "The value ranges of the parameters are
    set differently depending on the cluster size."
    """
    params = []
    for p in SPARK_PARAMS:
        if p.name == "spark.executor.instances":
            p = Param(p.name, p.kind, 1, 96, log=True, default=8)
        elif p.name in ("spark.default.parallelism", "spark.sql.shuffle.partitions"):
            p = Param(p.name, p.kind, 8, 1000, log=True, default=p.default)
        params.append(p)
    return ConfigSpace(tuple(params))


# ---------------------------------------------------------------------------
# Sobol' sequence (no scipy offline). Direction numbers follow the
# Joe–Kuo construction for the first dimensions; every entry is
# validated (m_k odd, m_k < 2^k) and invalid/missing dims fall back to
# seeded odd direction numbers, which still yields a digital sequence.
# A random digital shift (seeded) decorrelates repeated designs.
# ---------------------------------------------------------------------------

_JOE_KUO: list[tuple[int, int, tuple[int, ...]]] = [
    # (s = degree, a = poly coeffs, m_1..m_s) for dims 2, 3, ...
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
    (6, 19, (1, 1, 1, 15, 7, 5)),
    (6, 22, (1, 3, 1, 15, 13, 25)),
    (6, 25, (1, 1, 5, 5, 19, 61)),
    (7, 1, (1, 3, 7, 11, 23, 15, 103)),
    (7, 4, (1, 3, 7, 13, 13, 15, 69)),
    (7, 7, (1, 1, 3, 13, 7, 35, 63)),
    (7, 8, (1, 3, 5, 9, 1, 25, 53)),
    (7, 14, (1, 3, 1, 13, 9, 35, 107)),
    (7, 19, (1, 3, 1, 5, 27, 61, 31)),
    (7, 21, (1, 1, 5, 11, 19, 41, 61)),
    (7, 28, (1, 3, 5, 3, 3, 13, 69)),
    (7, 31, (1, 1, 7, 13, 1, 19, 1)),
    (7, 32, (1, 3, 7, 5, 13, 19, 59)),
    (7, 37, (1, 1, 3, 9, 25, 29, 41)),
    (7, 41, (1, 3, 5, 13, 23, 1, 55)),
    (7, 42, (1, 3, 7, 3, 13, 59, 17)),
]

_BITS = 30


def _direction_numbers(dim_index: int, rng: np.random.Generator) -> np.ndarray:
    """v_1..v_BITS (scaled by 2^BITS) for one dimension."""
    v = np.zeros(_BITS, dtype=np.int64)
    if dim_index == 0:  # first dimension: van der Corput in base 2
        for k in range(_BITS):
            v[k] = 1 << (_BITS - 1 - k)
        return v
    entry = _JOE_KUO[dim_index - 1] if dim_index - 1 < len(_JOE_KUO) else None
    s = a = None
    m = None
    if entry is not None:
        s, a, m = entry
        if not all((mk % 2 == 1) and (mk < (1 << (k + 1))) for k, mk in enumerate(m)):
            entry = None
    if entry is None:  # fallback: seeded odd initial numbers, degree 8
        s, a = 8, int(rng.integers(0, 1 << 7))
        m = tuple(int(rng.integers(0, 1 << k) * 2 + 1) for k in range(s))
    mi = list(m)
    for k in range(s, _BITS):
        new = mi[k - s] ^ (mi[k - s] << s)
        for j in range(1, s):
            if (a >> (s - 1 - j)) & 1:
                new ^= mi[k - j] << j
        mi.append(new)
    for k in range(_BITS):
        v[k] = mi[k] << (_BITS - 1 - k)
    return v


def sobol(n: int, d: int, *, seed: int = 0) -> np.ndarray:
    """First ``n`` points of a digitally-shifted Sobol' sequence in [0,1)^d."""
    rng = np.random.default_rng(seed)
    V = np.stack([_direction_numbers(i, rng) for i in range(d)])  # (d, BITS)
    shift = rng.integers(0, 1 << _BITS, size=d, dtype=np.int64)
    out = np.empty((n, d))
    x = np.zeros(d, dtype=np.int64)
    for i in range(n):
        out[i] = ((x ^ shift) & ((1 << _BITS) - 1)) / float(1 << _BITS)
        c = (~i & (i + 1)).bit_length() - 1  # index of lowest zero bit of i
        x ^= V[:, c]
    return out
