"""The three benchmark workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one has finished.  A run of ``seconds``
does a fixed amount of work, the first ``seconds * rate`` ops of its
stream, which take about ``seconds`` on the reference host (see
speed.py).  Inputs come only from the seed.  Each stream is built from
blocks of fixed composition, and the expensive ops, which set the
throughput and the tail, come in the same sequence for every seed, so
every run times the same mix of cheap and expensive operations.  The
output digest and the peak RSS are read over the first ``prefix_ops``
ops.  braidforms is imported lazily, so building inputs does not need
it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import checks

WORKER = Path(__file__).resolve().parent / "worker.py"
#: Precedes the span dump a traced census child writes to stderr.
TRACE_MARKER = "BENCH-TRACE "
_GOLDEN = (5 ** 0.5 - 1) / 2


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _log_uniform_spread(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` log-uniform values in [lo, hi) from a seeded golden-ratio
    sequence: every prefix covers the range evenly, so a run that stops
    early still sees the full spread of sizes."""
    start = rng.random()
    return [lo * (hi / lo) ** ((start + k * _GOLDEN) % 1.0) for k in range(count)]


def _decade(x: int) -> str:
    return f"1e{len(str(abs(x))) - 1}"


class VerifySweep:
    """check_main_identity(t, default_sweep_exponent(t)), one t per op.

    Every t with 3 <= |t| <= T0 and t in {-1, 0, 1}, in a seeded
    golden-ratio order of |t| so that every prefix covers the range
    evenly, in blocks of DENSE of them with one t of T0 < |t| <= T1
    spread log-uniformly.  The large |t| come in the same order for
    every seed, which draws only their signs: the cost of one large t
    swings by a factor of two or more with the arithmetic of t^2 - 4, so
    a seeded sample would move the tail by more than the host does.
    Each t occurs once, so every op fills the package's caches cold.
    The dense part sets the median; the Theta(t^2) class enumeration at
    large |t| sets throughput and tail.
    """

    name = "verify_sweep"
    imports = "braidforms"
    T0, T1, DENSE = 800, 5000, 2
    rate = 20  # ops per second on the reference host: 200 blocks in a 30 s run
    prefix_ops = 200
    child_processes = False

    def inputs(self, seed: int) -> list[int]:
        rng = _rng(self.name, seed)
        dense = sorted([t for t in range(-self.T0, self.T0 + 1) if abs(t) >= 3] + [-1, 0, 1],
                       key=lambda t: (abs(t), t))
        start = rng.random()
        dense = [dense[i] for i in sorted(range(len(dense)),
                                          key=lambda i: (start + i * _GOLDEN) % 1.0)]
        blocks = math.ceil(len(dense) / self.DENSE)
        large: list[int] = []
        for x in _log_uniform_spread(random.Random(f"{self.name}:large"), 2 * blocks, self.T0 + 1, self.T1 + 1):
            if int(x) not in large:
                large.append(int(x))
        large = [t * rng.choice((1, -1)) for t in large]
        out: list[int] = []
        for i in range(blocks):
            block = dense[i * self.DENSE:(i + 1) * self.DENSE] + [large[i]]
            rng.shuffle(block)
            out += block
        return out

    def size(self, t: int) -> int:
        return abs(t)

    def bucket(self, t: int) -> str:
        return _decade(t)

    def run(self, t: int):
        from braidforms import counts
        return counts.check_main_identity(t, counts.default_sweep_exponent(t))

    def canonical(self, t: int, report) -> bytes:
        return json.dumps(report.to_json(), sort_keys=True).encode()

    def check(self, t: int, report) -> str | None:
        return checks.check_identity(t, report.to_json(), self.classes(t))

    def classes(self, t: int) -> list[tuple[tuple[int, int, int], int]]:
        from braidforms import counts
        return [(c.key.rep, c.residue) for c in counts.trace_classes(t)]


class InvariantsMix:
    """In-process `cli.main(["invariants", word, ...])`, stdout captured.

    Blocks of SHORT random words of 1 to 40 letters, a quarter of them
    with a --delta-power, plus one long-syllable word.  The long words
    alternate between a sweep of LONG_MIN to LONG_MAX letters, spread
    log-uniformly, and words of TAIL_LEN letters in a dearer pattern.
    A run completes a few dozen long words, and the tail is the
    eleventh-slowest op, so it is read among the TAIL_LEN words, whose
    costs are alike, rather than on one word of the sweep.  The long
    words come in the same order for every seed, which draws the short
    words and where each long word falls in its block.  Short words set
    the median (mostly CLI overhead); the quadratic Burau product and
    exact division on the long words set throughput and tail.
    """

    name = "invariants_mix"
    imports = "braidforms.cli"
    SHORT, BLOCKS = 20, 400
    LONG_MIN, LONG_MAX, TAIL_LEN = 200, 2000, 1000
    rate = 30.8  # 44 blocks in a 30 s run
    # Syllable letters of the sweep and of the TAIL_LEN words: of all
    # sign and letter choices, the first is among the cheapest and the
    # second among the dearest for the Burau product.
    SWEEP, TAIL = (1, 2, -1), (-2, 1, 2)
    prefix_ops = 800
    child_processes = False

    def _short(self, rng: random.Random) -> list:
        letters = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 40))]
        delta = rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.25 else 0
        return [" ".join(map(str, letters)), delta]

    def _long(self, letters: tuple[int, ...], length: float) -> list:
        # Three near-equal syllables in a fixed pattern: the cost then
        # follows the length alone.
        n = int(length)
        powers = (n // 3, n // 3, n - 2 * (n // 3))
        return [" ".join(f"{letter}^{p}" for letter, p in zip(letters, powers)), 0]

    def inputs(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        out: list = []
        lengths = _log_uniform_spread(random.Random(f"{self.name}:long"), self.BLOCKS,
                                      self.LONG_MIN, self.LONG_MAX)
        for k, length in enumerate(lengths):
            long = self._long(self.TAIL, self.TAIL_LEN) if k % 2 else self._long(self.SWEEP, length)
            block = [self._short(rng) for _ in range(self.SHORT)] + [long]
            rng.shuffle(block)
            out += block
        return out

    @staticmethod
    def _syllables(spec) -> list[tuple[int, int]]:
        """The full word as (letter, count) syllables, read from the
        benchmark's own word text, with the --delta-power prefix."""
        word, delta = spec
        prefix = [(1, 1), (2, 1), (1, 1)] * delta if delta > 0 else [(-1, 1), (-2, 1), (-1, 1)] * -delta
        for token in word.split():
            letter, _, count = token.partition("^")
            prefix.append((int(letter), int(count or 1)))
        return prefix

    def size(self, spec) -> int:
        return sum(c for _, c in self._syllables([spec[0], 0]))

    def bucket(self, spec) -> str:
        return f"len<{2 ** sum(c for _, c in self._syllables(spec)).bit_length()}"

    def argv(self, spec) -> list[str]:
        word, delta = spec
        return (["invariants", word] + (["--delta-power", str(delta)] if delta else [])
                + ["--format", "json"])

    def run(self, spec):
        from braidforms import cli
        argv = self.argv(spec)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def canonical(self, spec, output) -> bytes:
        return f"{output[0]}\n{output[1]}".encode()

    def check(self, spec, output) -> str | None:
        return checks.check_invariants(self._syllables(spec), *output)


class CensusCli:
    """One fresh `python -m braidforms.cli census t n --max-len L` per op.

    Blocks of twelve ops over six cells with |t|, |n| <= 8, each cell at
    two depths, with L in DEPTHS.  A fresh interpreter is what a CLI user
    pays, and it starts every op with empty census caches.  The cost
    depends only on L.  Nine of every twelve ops have L = 12, so both
    the median and the tail are read among the L = 12 ops, in which the
    census walk, not interpreter start, takes most of the time.
    """

    name = "census_cli"
    imports = "braidforms.cli"
    DEPTHS, BLOCKS = (9, 10, 11) + (12,) * 9, 40
    rate = 1.2  # three blocks in a 30 s run
    prefix_ops = 12
    child_processes = True

    def __init__(self) -> None:
        self.seen: dict = {}
        self.tracer = None  # set for a traced run: children then report spans

    def inputs(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        cells = [(t, n) for t in range(-8, 9) if t not in (2, -2) for n in range(-8, 9)]
        out: list = []
        for _ in range(self.BLOCKS):
            picked = rng.sample(cells, len(self.DEPTHS) // 2)
            depths = list(self.DEPTHS)
            rng.shuffle(depths)
            out += [[*picked[i // 2], depth] for i, depth in enumerate(depths)]
        return out

    def size(self, spec) -> int:
        return 2 * 3 ** spec[2] - 1  # freely reduced words of length <= L

    def bucket(self, spec) -> str:
        return f"L={spec[2]}"

    def argv(self, spec) -> list[str]:
        t, n, depth = spec
        return ["census", str(t), str(n), "--max-len", str(depth), "--format", "json"]

    def run(self, spec):
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "braidforms.cli", *self.argv(spec)],
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout
        with self.tracer.span("cli.child_wall"):
            proc = subprocess.run([sys.executable, str(WORKER), "census-child", *self.argv(spec)],
                                  capture_output=True, text=True, timeout=120)
            _, marker, dump = proc.stderr.rpartition(TRACE_MARKER)
            if marker:
                self.tracer.absorb(*json.loads(dump))
        return proc.returncode, proc.stdout

    def canonical(self, spec, output) -> bytes:
        return f"{output[0]}\n{output[1]}".encode()

    def check(self, spec, output) -> str | None:
        return checks.check_census(*spec, output[0], output[1], self.seen)


WORKLOADS = {w.name: w for w in (VerifySweep, InvariantsMix, CensusCli)}
