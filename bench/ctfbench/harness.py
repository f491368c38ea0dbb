"""Shared pieces of the benchmark: seeds, statistics, spans, environment.

Nothing here imports the package under test, so ``run.py`` can check
that the sources are present before anything else is loaded.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import os
import platform
import resource
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import BLAS_ENV


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

def seed_seq(seed: int, *path: int | str) -> np.random.SeedSequence:
    """Sub-seed for one purpose: strings enter through crc32, never
    ``hash()``, so inputs do not change with PYTHONHASHSEED."""
    words = [int(seed) & 0xFFFFFFFF]
    for p in path:
        words.append(zlib.crc32(p.encode()) if isinstance(p, str) else int(p))
    return np.random.SeedSequence(words)


def seed_int(seed: int, *path: int | str) -> int:
    """The same derivation as an integer, for APIs that take an int."""
    return int(seed_seq(seed, *path).generate_state(1)[0])


def rng_for(seed: int, *path: int | str) -> np.random.Generator:
    return np.random.default_rng(seed_seq(seed, *path))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def weighted_median(values, weights) -> float:
    """Weighted median over the finite values. Where the cumulative
    weight reaches exactly half the total, the mean of that value and the
    next, which is the ordinary median for equal weights. NaN if no value
    is finite."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    keep = np.isfinite(v)
    if not keep.any():
        return float("nan")
    order = np.argsort(v[keep], kind="stable")
    v, cum = v[keep][order], np.cumsum(w[keep][order])
    half = 0.5 * cum[-1]
    k = int(np.searchsorted(cum, half))
    if cum[k] == half and k + 1 < len(v):
        return float((v[k] + v[k + 1]) / 2)
    return float(v[k])


@dataclass
class PassResult:
    """One timed pass, made of units of work that every pass repeats in
    the same order (one graph's sweep, one batch call, one algorithm).

    ``unit_s`` holds each unit's wall seconds. ``latencies_us`` holds
    per-operation times in a fixed slot order, each with a weight: a
    batch call of n operations fills one slot with its mean time and
    weight n. A slot whose call failed holds NaN."""

    ops: int
    seconds: float
    unit_s: list[float]
    latencies_us: np.ndarray | list[float]
    weights: list[float]


# ---------------------------------------------------------------------------
# Machine-speed reference
# ---------------------------------------------------------------------------

# the kernel's fastest time on an uncontended core of a 2-core VM with
# Python 3.11.7; it sets the scale of calibrated times
REFERENCE_NOMINAL_S = 1.15e-3
REFERENCE_REPS = 5


class _Node:
    __slots__ = ("key", "out")

    def __init__(self, key: int, out: tuple[int, ...]):
        self.key = key
        self.out = out

    def weight(self) -> float:
        return (self.key * 0.5 + len(self.out)) / 3.0


def _reference_kernel() -> float:
    """Fixed interpreter work of the same kind the package does (small
    objects, tuples, dict and set lookups, frozensets, method calls);
    it never touches the package, so no change to the package moves it."""
    nodes = {i: _Node(i, ((i * 7 + 1) % 48, (i * 13 + 5) % 48, (i + 1) % 48))
             for i in range(48)}
    total = 0.0
    for start in range(48):
        seen = {start}
        stack = [start]
        while stack:
            for c in nodes[stack.pop()].out:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        table = {(start, k): nodes[k].weight() for k in frozenset(seen)}
        total += sum(table.values())
    return total


def reference_s() -> float:
    """Fastest of a few timings of the reference kernel."""
    best = float("inf")
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class PassLog:
    """Calibrated unit times and median operation time of every pass,
    and the estimates built from them.

    Each pass is scaled by the reference kernel timed around it, then
    every unit's time, and the median operation time, is taken at its
    lower quartile over the run's passes. Calibration removes the slow
    phases of a shared machine that slow all code alike (they can last
    minutes and halve throughput); the lower quartile discards the
    shorter episodes that slow the program but not the small kernel,
    and the rare pass that calibration over-corrects. Only a few numbers
    are kept per pass, so memory does not grow with the pass count."""

    QUANTILE = 25

    def __init__(self):
        self.unit_s: list[np.ndarray] = []
        self.p50s_us: list[float] = []
        self.ops = 0
        self.pass_rates: list[float] = []

    def add(self, r: PassResult, scale: float = 1.0) -> None:
        """Fold in one pass, its times multiplied by ``scale``."""
        self.unit_s.append(np.asarray(r.unit_s, dtype=float) * scale)
        self.p50s_us.append(weighted_median(r.latencies_us, r.weights) * scale)
        self.ops = r.ops
        self.pass_rates.append(r.ops / r.seconds)

    def ops_per_s(self) -> float:
        unit = np.percentile(np.array(self.unit_s), self.QUANTILE, axis=0)
        return self.ops / float(unit.sum())

    def p50_us(self) -> float:
        return float(np.percentile(self.p50s_us, self.QUANTILE))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: (id, parent id, name, start ns, end ns). Parents
    come from the ``span`` context manager; ``record`` adds a leaf timed
    by the caller, so the hot loop pays for two clock reads only."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack = [0]
        self._next = 1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def record(self, name: str, t0: int, t1: int) -> None:
        sid = self._next
        self._next += 1
        self.spans.append((sid, self._stack[-1], name, t0, t1))

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.record(name, t0, time.perf_counter_ns())
        return out

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the time covered by its children
        (children of one span never overlap: the run is one thread)."""
        child_ns: dict[int, int] = {}
        for _, parent, _, t0, t1 in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        return {
            sid: (t1 - t0) - child_ns.get(sid, 0) for sid, _, _, t0, t1 in self.spans
        }

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """name -> (count, total ns, self ns)."""
        self_ns = self.self_times()
        out: dict[str, list[int]] = {}
        for sid, _, name, t0, t1 in self.spans:
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += self_ns[sid]
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{name},{t0},{t1}\n")


class LayerStats:
    """Per-layer metrics derived from one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.agg = tracer.by_name()

    def count(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def self_ns(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[2]

    def mean_us(self, name: str) -> float:
        n = self.count(name)
        return self.self_ns(name) / n / 1e3 if n else float("nan")

    def per_layer_self_ms(self) -> dict[str, float]:
        """Self time per package module: the span-name prefix."""
        out: dict[str, float] = {}
        for name, (_, _, self_ns) in self.agg.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_ns / 1e6
        return {k: round(v, 3) for k, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a
    repository (a plain checkout)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, src: Path) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
