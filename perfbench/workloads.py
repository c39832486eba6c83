"""The four workloads: seeded instances, one timed operation, closed-form gates.

Every workload draws its instances from the workload seed alone and hands
the program nothing but those instances.  Each run is a closed loop with one
client.  The loop runs whole epochs, an epoch being one pass over the run's
instance pool in a seed-shuffled order, so every instance size is timed
equally often and the median and tail do not depend on where the clock ran
out.  Every operation builds a fresh oracle with a seed-drawn hidden shift.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

import charshift as cs

TOL = 1e-9  # closed forms hold to this, as the project requires


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def odd_squarefree(n, min_factors=1):
    f = prime_factors(n)
    return n % 2 == 1 and n >= 3 and len(set(f)) == len(f) and len(f) >= min_factors


def phi_ratio(n):
    """prod (p_j - 1) / p_j over the prime factors of square-free n."""
    out = 1.0
    for pj in prime_factors(n):
        out *= (pj - 1) / pj
    return out


def draw(rng, lo, hi, accept):
    """A uniform choice among the integers in [lo, hi) that accept() takes."""
    return int(rng.choice([x for x in range(lo, hi) if accept(x)]))


def strata(lo, hi, parts):
    """[lo, hi) cut into parts equal (start, end) slices."""
    edges = np.linspace(lo, hi, parts + 1).astype(int)
    return list(zip(edges[:-1], edges[1:]))


class Workload:
    """Base: subclasses set name, pool and implement run() and gates()."""

    query_ops = 8  # the query counts cover this many leading operations

    def __init__(self, seed, tiny):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0])
        if tiny:
            self.query_ops = min(self.query_ops, 3)

    def epoch(self, k):
        rng = np.random.default_rng([self.seed, 1, k])
        return [self.pool[i] for i in rng.permutation(len(self.pool))]

    def op_rng(self, k, i):
        return np.random.default_rng([self.seed, 2, k, i])


class PrimeSweep(Workload):
    """solve_slsp on primes from both sides of qft's 4096 switch."""

    name = "prime-sweep"
    query_ops = 14

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        # (band, lo, hi, primes): the O(N^2) direct transform below 4096 and
        # the Bluestein path above it, where per-element legendre dominates;
        # one prime per equal slice of each window.  A Bluestein solve here
        # costs about twice a direct one, so with four direct primes against
        # three the median falls inside the direct block, not between bands.
        windows = ((("direct", 100, 200, 2), ("bluestein", 4099, 4400, 1)) if tiny
                   else (("direct", 1000, 1300, 4), ("bluestein", 12288, 16384, 3)))
        self.pool = [(band, draw(self.rng, a, b, is_prime))
                     for band, lo, hi, parts in windows for a, b in strata(lo, hi, parts)]

    @staticmethod
    def tag(inst):
        return f"{inst[0]}:{inst[1]}"

    def setup(self, tracer=None):
        # One small solve loads what numpy imports lazily before timing.
        p = 101
        cs.solve_slsp(p, cs.legendre_oracle(p, shift=1), np.random.default_rng(0))

    def run(self, inst, rng):
        p = inst[1]
        shift = int(rng.integers(p))
        report = cs.solve_slsp(p, cs.legendre_oracle(p, shift=shift), rng)
        return report.recovered_shift == shift, 1, report.coherent_queries, report.classical_queries

    def gates(self):
        rng = np.random.default_rng([self.seed, 3])
        for _, p in self.pool:
            s = int(rng.integers(p))
            zero_prob, dist = cs.slsp_attempt_analysis(p, cs.legendre_oracle(p, shift=s))
            yield f"slsp p={p}", max(abs(zero_prob - 1 / p), abs(dist[(-s) % p] - (p - 1) / p))


class HiddenModulus(Workload):
    """solve_sjsp_unknown_n over Z_M with a hidden odd square-free n."""

    name = "hidden-modulus"
    query_ops = 75

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        # (M, strata): each epoch draws one modulus from every stratum of
        # the odd square-free n with n^2 < M.  A solve at 2^16 costs about
        # four at 2^14; with four of them against one, the median and the
        # tail both land inside the slower mode, not in the gap between.
        self.sizes = ((1 << 8, 1), (1 << 10, 4)) if tiny else ((1 << 14, 1), (1 << 16, 4))
        self.strata = {}
        for m, parts in self.sizes:
            valid = [n for n in range(3, math.isqrt(m - 1) + 1) if odd_squarefree(n)]
            self.strata[m] = [list(chunk) for chunk in np.array_split(valid, parts)]
        self.seen = set()

    @staticmethod
    def tag(inst):
        return f"M={inst[0]}"

    def setup(self, tracer=None):
        m = self.sizes[0][0]
        cs.solve_sjsp_unknown_n(m, cs.jacobi_unknown_oracle(3, m, shift=1),
                                np.random.default_rng(0))

    def epoch(self, k):
        rng = np.random.default_rng([self.seed, 1, k])
        solves = [(m, int(rng.choice(chunk))) for m, chunks in self.strata.items()
                  for chunk in chunks]
        return [solves[i] for i in rng.permutation(len(solves))]

    def run(self, inst, rng):
        m, n = inst
        self.seen.add(n)
        shift = int(rng.integers(n))
        report = cs.solve_sjsp_unknown_n(m, cs.jacobi_unknown_oracle(n, m, shift=shift), rng)
        ok = report.recovered_shift == shift and report.recovered_modulus == n
        return ok, 1, report.coherent_queries, report.classical_queries

    def gates(self):
        rng = np.random.default_rng([self.seed, 3])
        for n in sorted(self.seen):
            s = int(rng.integers(n))
            moduli = cs.factor_trial(n)
            zero_prob, dist, layout = cs.sjsp_attempt_analysis(moduli, cs.jacobi_oracle(n, shift=s))
            correct = layout.index(tuple((-s) % pj for pj in moduli.factors))
            expected = phi_ratio(n)
            yield f"sjsp n={n}", max(abs((1 - zero_prob) - expected),
                                     abs(dist[correct] - expected))
            yield f"lemma3 n={n}", cs.verify_jacobi_qft_lemma(moduli, s)


class FieldChar(Workload):
    """solve_sqcp over odd-characteristic fields F_q."""

    name = "field-char"
    query_ops = 10
    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.shapes = ((3, 2), (5, 2), (3, 3)) if tiny else ((7, 3), (5, 4), (3, 6), (11, 3), (3, 7))
        # tft_matrix_deviation builds the literal q x q kernel element by element
        self.tft_max_q = 27 if tiny else 343
        self.pool = []

    @staticmethod
    def tag(inst):
        return f"q={inst.q}"

    def setup(self, tracer=None):
        # make_field and the first solve per field fill the per-process
        # character and trace-permutation caches before timing starts.
        # A solve that measures the zero branch (chance 1/(q+1)) skips the
        # stage and its tables, so warm up again until one takes the stage.
        self.pool = [cs.make_field(p, r) for p, r in self.shapes]
        for i, fld in enumerate(self.pool):
            if tracer is not None:
                tracer.use("setup", self.tag(fld))
            rng = np.random.default_rng([self.seed, 4, i])
            for _ in range(8):
                report = cs.solve_sqcp(fld, cs.field_oracle(fld, rng=rng), rng)
                if report.exact_distribution is not None:
                    break

    def run(self, fld, rng):
        shift = cs.element_from_index(fld, int(rng.integers(fld.q)))
        report = cs.solve_sqcp(fld, cs.field_oracle(fld, shift=shift), rng)
        return report.recovered_shift == shift, 1, report.coherent_queries, report.classical_queries

    def gates(self):
        rng = np.random.default_rng([self.seed, 3])
        for fld in self.pool:
            s = cs.element_from_index(fld, int(rng.integers(fld.q)))
            zero_prob, dist = cs.sqcp_attempt_analysis(fld, cs.field_oracle(fld, shift=s))
            target = cs.element_to_index(fld, cs.ff_neg(fld, s))
            yield f"sqcp q={fld.q}", max(abs(zero_prob - 1 / (fld.q + 1)),
                                         abs(dist[target] - 1.0),
                                         float(np.max(np.delete(dist, target))))
            if fld.q <= self.tft_max_q:
                yield f"tft q={fld.q}", max(cs.tft_matrix_deviation(fld))


LAUNCH = "import sys; from charshift.cli import main; sys.exit(main())"


def large_factors(n):
    """Odd square-free with three prime factors, none below 11."""
    f = prime_factors(n)
    return len(f) == len(set(f)) == 3 and f[0] >= 11


class CliBatch(Workload):
    """`charshift sjsp` batches run as subprocesses, one at a time."""

    name = "cli-batch"
    query_ops = 20
    TRIALS = 4

    def __init__(self, seed, tiny, root, traced=False):
        super().__init__(seed, tiny)
        self.root = root
        self.traced = traced  # run the CLI under perfbench/trace_cli.py
        # One modulus per quarter of a narrow window, so that runs cost alike
        # whatever the seed, all factors >= 11 so that phi(n)/n stays above
        # 0.8: Las-Vegas retries, which this workload is not about, then
        # vary little between seeds.  The gate modulus lies below 4096,
        # where the CLI prints the exact attempt probability.
        if tiny:
            lo, hi, parts, gate, accept = 105, 1000, 2, (105, 400), lambda n: odd_squarefree(n, 3)
        else:
            lo, hi, parts, gate, accept = 6000, 7600, 4, (2431, 4096), large_factors
        self.pool = [draw(self.rng, a, b, accept) for a, b in strata(lo, hi, parts)]
        self.gate_n = draw(self.rng, *gate, accept)
        self.order = [self.pool[i] for i in self.rng.permutation(len(self.pool))]
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.first_stdout = {}
        self.w2_wall = []

    @staticmethod
    def tag(n):
        return f"n={n}"

    def epoch(self, k):
        # One invocation per epoch, cycling through the pool: the moduli cost
        # alike, so the run may stop after any invocation.
        return [self.order[k % len(self.order)]]

    def command(self, n, seed, workers, traced=False, trials=None):
        head = ([sys.executable, os.path.join(self.root, "perfbench", "trace_cli.py")]
                if traced else [sys.executable, "-c", LAUNCH])
        return head + ["sjsp", "--n", str(n), "--trials", str(trials or self.TRIALS),
                       "--seed", str(seed), "--workers", str(workers)]

    def invoke(self, argv):
        proc = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[3:]} exited {proc.returncode}: {proc.stderr[-400:]!r}")
        return proc.stdout, proc.stderr

    def setup(self, tracer=None):
        self.invoke(self.command(15, 0, 1, trials=1))

    @staticmethod
    def parse(out):
        lines = [json.loads(line) for line in out.decode().splitlines()]
        return lines[:-1], lines[-1]["summary"]

    def run(self, n, rng):
        self.last_seed = seed = int(rng.integers(1 << 32))
        self.last_stdout, self.last_stderr = self.invoke(self.command(n, seed, 1, self.traced))
        self.first_stdout.setdefault(n, (seed, self.last_stdout))
        records, summary = self.parse(self.last_stdout)
        ok = (summary["success_rate"] == 1.0 and summary["trials"] == self.TRIALS
              and len(records) == self.TRIALS and all(r["correct"] for r in records))
        coherent = sum(r["coherent_queries"] for r in records)
        classical = sum(r["classical_queries"] for r in records)
        return ok, self.TRIALS, coherent, classical

    def pair(self, n, clock):
        """Time the last command again at --workers 2; True if stdout matches."""
        start = clock()
        out, _ = self.invoke(self.command(n, self.last_seed, 2))
        self.w2_wall.append(clock() - start)
        return out == self.last_stdout

    def gates(self):
        # The CLI reports the exact attempt probability up to n = 4096.
        seed = int(np.random.default_rng([self.seed, 3]).integers(1 << 32))
        out, _ = self.invoke(self.command(self.gate_n, seed, 1, trials=2))
        records, summary = self.parse(out)
        exact = summary.get("exact_attempt_probability")
        yield f"success rate n={self.gate_n}", abs(summary["success_rate"] - 1.0)
        yield f"exact attempt probability n={self.gate_n}", (
            1.0 if exact is None else abs(exact - phi_ratio(self.gate_n)))
        self.first_stdout.setdefault(self.gate_n, (seed, out))
        # Byte-identical stdout at --workers 2, once per distinct modulus.
        for n, (seed, out) in sorted(self.first_stdout.items()):
            trials = 2 if n == self.gate_n else None
            w2, _ = self.invoke(self.command(n, seed, 2, trials=trials))
            yield f"workers-2 bytes n={n}", 0.0 if w2 == out else 1.0
