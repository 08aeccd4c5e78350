"""Benchmark of the mtdchain CLI: seeded workloads, checked outputs, one JSON result.

Usage (from the repository root):

    python3 bench/run.py --workload fit-m6 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

Each workload generates its inputs from ``--seed`` with this directory's
own code (``gen.py``), then runs its CLI commands in-process through
``mtdchain.cli.main`` again and again for ``--seconds`` seconds.  Every
command's output is checked against a reference computed independently
of the timed path.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so every workload runs single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import math
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SIZES = {
    # lines per corpus, letters per line, sampled letters, tv-experiment flags
    "full": (10, 100_000, 1_000_000, []),
    "tiny": (10, 1_000, 10_000, ["--replicates", "2", "--length", "1000"]),
}

# Generators are fixed: the seed draws the corpora, so EM's work (its
# iteration count) depends on sampling noise only, not on a new landscape.
GENERATOR_SEEDS = {6: 2008_06, 8: 2008_08}
SETUP_STARTS = 9
REL_TOL = 1e-9
# EM stops once an iteration gains under epsilon = 1e-3 nats; from the same
# start it then sits 0.001 to 0.013 nats below the converged reference.
EM_SLACK = 1.0
BERCHTOLD_ITERS = 50


@dataclass
class Step:
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]  # stdout -> problems found
    outputs: list[Path] = field(default_factory=list)


@dataclass
class Result:
    ok: bool
    seconds: float
    stdout: str
    problem: str = ""


# -- inputs -------------------------------------------------------------------


def make_corpus(work: Path, order: int, seed: int, size: str, inputs: dict):
    n_lines, line_length = SIZES[size][:2]
    model = gen.random_mtd(np.random.default_rng(GENERATOR_SEEDS[order]), order)
    lines = gen.sample_corpus(np.random.default_rng([seed, order]), model, n_lines, line_length)
    text = gen.corpus_text(lines)
    corpus = work / f"corpus_m{order}.txt"
    corpus.write_text(text)
    inputs[corpus.name] = gen.digest(text.encode())
    return corpus, model, lines


def write_model(work: Path, name: str, model: dict, inputs: dict) -> Path:
    path = work / name
    data = json.dumps(gen.model_document(model), indent=2).encode()
    path.write_bytes(data)
    inputs[name] = gen.digest(data)
    return path


# -- output parsing and checks --------------------------------------------------


def parse_tsv(text: str) -> list[dict]:
    rows = text.strip("\n").split("\n")
    header = rows[0].split("\t")
    return [dict(zip(header, r.split("\t"))) for r in rows[1:]]


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def expect(problems: list, cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


def n_windows(lines, k: int) -> int:
    return sum(line.size - k + 1 for line in lines)


# -- workloads ----------------------------------------------------------------


def workload_fit_m6(work, seed, size, inputs, facts):
    corpus, generator, lines = make_corpus(work, 6, seed, size, inputs)
    words, counts = gen.word_counts(lines, 7)
    ll_gen = gen.mtd_loglik(generator, words, counts)
    ll_conv = gen.converged_em_loglik(words, counts, 6, 1)
    ll_dense = gen.dense_ml_loglik(words, counts)
    terms = n_windows(lines, 7)
    fitted, trace = work / "fit_m6.json", work / "fit_m6_trace.tsv"

    def check_fit(out):
        p = []
        row = parse_tsv(out)[0]
        ll = float(row["final_loglik"])
        facts["final_loglik"] = ll
        facts["nll_per_term"] = -ll / terms
        facts.setdefault("scored", []).append((ll, ll_gen))
        expect(p, ll >= ll_gen - 1e-6 * abs(ll_gen), f"EM loglik {ll!r} below generator's {ll_gen!r}")
        expect(p, ll >= ll_conv - EM_SLACK,
               f"EM loglik {ll!r} below converged EM's {ll_conv!r} by over {EM_SLACK} nat")
        expect(p, ll <= ll_dense + 1e-6 * abs(ll_dense), f"EM loglik {ll!r} above dense ML {ll_dense!r}")
        own = gen.mtd_loglik(gen.read_model_file(fitted), words, counts)
        expect(p, close(own, ll), f"fitted model file scores {own!r}, fit reported {ll!r}")
        values = np.array([float(r["loglik"]) for r in parse_tsv(trace.read_text())])
        drops = np.diff(values) < -1e-12 * np.abs(values[1:])
        expect(p, not drops.any(), "EM trace decreases")
        expect(p, values[-1] == ll, "trace does not end at final_loglik")
        return p

    def check_eval(out):
        row = parse_tsv(out)[0]
        p = []
        expect(p, int(row["n_terms"]) == terms, f"eval n_terms {row['n_terms']} != {terms}")
        ll = facts.get("final_loglik")
        expect(p, ll is not None and close(float(row["loglik"]), ll), "eval of the fit != final_loglik")
        return p

    common = ["--alphabet", gen.ALPHABET, "--in", str(corpus)]
    return [
        Step("fit", ["fit", "--order", "6", *common, "--out", str(fitted),
                     "--trace-out", str(trace)], check_fit, [fitted, trace]),
        Step("eval", ["eval", "--model", str(fitted), "--in", str(corpus)], check_eval),
    ]


def workload_scan_m8(work, seed, size, inputs, facts):
    corpus, generator, lines = make_corpus(work, 8, seed, size, inputs)
    model = write_model(work, "generator_m8.json", generator, inputs)
    words, counts = gen.word_counts(lines, 9)
    terms = n_windows(lines, 9)
    ll_gen = gen.mtd_loglik(generator, words, counts)
    sample_length = SIZES[size][2]
    facts["letters"] = sum(line.size for line in lines)
    facts["sample_letters"] = sample_length
    counted, sampled = work / "counts_m8.tsv", work / "sample.txt"

    def check_count(out):
        # streamed, so that the check's memory stays below the command's own
        total, digest = 0, hashlib.sha256()
        with open(counted, "rb") as fh:
            for line in fh:
                digest.update(line)
                total += int(line.rsplit(b"\t", 1)[1])
        p = []
        expect(p, total == terms, f"count TSV sums to {total}, expected {terms}")
        expect(p, digest.hexdigest() == gen.counts_tsv_digest(words, counts, 9),
               "count TSV differs from the reference counts")
        return p

    def check_eval(out):
        row = parse_tsv(out)[0]
        facts.setdefault("scored", []).append((float(row["loglik"]), ll_gen))
        p = []
        expect(p, int(row["n_terms"]) == terms, f"eval n_terms {row['n_terms']} != {terms}")
        expect(p, close(float(row["loglik"]), ll_gen),
               f"eval loglik {row['loglik']} != reference {ll_gen!r}")
        return p

    def check_sample(out):
        text = sampled.read_text()
        p = []
        expect(p, text.endswith("\n") and text.count("\n") == 1, "sample is not one line")
        letters = text.rstrip("\n")
        expect(p, len(letters) == sample_length, f"sample has {len(letters)} letters")
        expect(p, set(letters) <= set(gen.ALPHABET), "sample uses letters outside the alphabet")
        return p

    return [
        Step("count", ["count", "--order", "8", "--alphabet", gen.ALPHABET, "--in", str(corpus),
                       "--out", str(counted)], check_count, [counted]),
        Step("eval-m8", ["eval", "--model", str(model), "--in", str(corpus)], check_eval),
        Step("sample", ["sample", "--model", str(model), "--length", str(sample_length),
                        "--seed", str(seed), "--out", str(sampled)], check_sample, [sampled]),
    ]


def workload_select(work, seed, size, inputs, facts):
    corpus, generator, lines = make_corpus(work, 6, seed, size, inputs)
    m7 = gen.random_mtd(np.random.default_rng([seed, 7, 3]), 7, 3)
    m7_path = write_model(work, "mtd_m7_l3.json", m7, inputs)
    by_order = {m: gen.word_counts(lines, m + 1) for m in (2, 3, 4, 6, 7)}
    terms = {m: n_windows(lines, m + 1) for m in by_order}
    dense = {m: gen.dense_ml_loglik(*by_order[m]) for m in by_order}
    converged = {(m, l): gen.converged_em_loglik(*by_order[m], m, l)
                 for m in (2, 3, 4) for l in (1, 2)}
    ll_gen = gen.mtd_loglik(generator, *by_order[6])
    scored = facts.setdefault("scored", [])
    ll_m7 = gen.mtd_loglik(m7, *by_order[7])
    fitted, theta = work / "berchtold_m6.json", work / "theta_u.json"
    tv_flags = SIZES[size][3]

    def check_bic(out):
        rows = parse_tsv(out)
        p = []
        want = [(m, l) for m in (2, 3, 4) for l in (1, 2)]
        expect(p, [(int(r["order"]), int(r["lag_order"])) for r in rows] == want,
               "bic-compare rows are not orders 2,3,4 x lag orders 1,2")
        for r in rows:
            m, l = int(r["order"]), int(r["lag_order"])
            full, mtd = float(r["loglik_full"]), float(r["loglik_mtd"])
            scored.append((mtd, dense[m]))
            expect(p, int(r["n_terms"]) == terms[m], f"order {m}: n_terms {r['n_terms']}")
            expect(p, close(full, dense[m]), f"order {m}: dense loglik {full!r} != {dense[m]!r}")
            expect(p, mtd <= full + 1e-6 * abs(full), f"order {m}: MTD loglik above dense ML")
            floor = converged[m, l]
            expect(p, mtd >= floor - EM_SLACK,
                   f"order {m}, lag order {l}: MTD loglik {mtd!r} below converged EM's {floor!r}")
        return p

    def check_berchtold(out):
        ll = float(parse_tsv(out)[0]["final_loglik"])
        facts["nll_per_term"] = -ll / terms[6]
        scored.append((ll, ll_gen))
        own = gen.mtd_loglik(gen.read_model_file(fitted), *by_order[6])
        p = []
        expect(p, close(own, ll), f"Berchtold model file scores {own!r}, fit reported {ll!r}")
        expect(p, ll <= dense[6] + 1e-6 * abs(dense[6]), "Berchtold loglik above dense ML")
        return p

    def check_convert(out):
        doc = json.loads(theta.read_text())
        p = []
        expect(p, doc.get("model_kind") == "theta_u", "convert did not write a theta_u model")
        return p

    def check_theta_eval(out):
        ll = float(parse_tsv(out)[0]["loglik"])
        p = []
        expect(p, close(ll, ll_m7, 1e-8), f"theta_u eval {ll!r} != original model's {ll_m7!r}")
        return p

    def check_tv(out):
        lines_out = out.strip("\n").split("\n")
        rows = [r.split("\t") for r in lines_out[1:] if not r.startswith("mean\t")]
        replicates = int(tv_flags[1]) if tv_flags else 20
        p = []
        expect(p, len(rows) == replicates * 5, f"tv-experiment gave {len(rows)} rows")
        expect(p, all(0.0 <= float(r[2]) <= 2.0 for r in rows), "a TV distance is outside [0, 2]")
        return p

    common = ["--alphabet", gen.ALPHABET, "--in", str(corpus)]
    return [
        Step("bic-compare", ["bic-compare", "--orders", "2,3,4", "--lag-orders", "1,2", *common],
             check_bic),
        # A fixed iteration budget below where any seed stops by itself (77 to 123
        # iterations at full size), so the work does not change with the seed.
        Step("fit-berchtold", ["fit", "--algorithm", "berchtold", "--order", "6", *common,
                               "--max-iters", str(BERCHTOLD_ITERS), "--out", str(fitted)],
             check_berchtold, [fitted]),
        Step("convert", ["convert", "--model", str(m7_path), "--to", "theta_u",
                         "--out", str(theta)], check_convert, [theta]),
        Step("eval-theta", ["eval", "--model", str(theta), "--in", str(corpus)], check_theta_eval),
        Step("tv-experiment", ["tv-experiment", "--seed", str(seed), *tv_flags], check_tv),
    ]


def workload_scan_select(work, seed, size, inputs, facts):
    """The order-8 scan and then the model-selection workflow in each repeat.

    Every command here is short.  Sharing one workload keeps runs of
    60 seconds affordable, so each command's repeats span a longer stretch
    of time and its fastest repeat is less often caught in a slow spell
    of the host."""
    return (workload_scan_m8(work, seed, size, inputs, facts)
            + workload_select(work, seed, size, inputs, facts))


WORKLOADS = {"fit-m6": workload_fit_m6, "scan-select": workload_scan_select}


# -- running ------------------------------------------------------------------


def run_cli(argv) -> Result:
    from mtdchain import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # each command starts without the previous one's garbage, as in a fresh process
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a crashed benchmark
        elapsed = time.perf_counter() - start
        return Result(False, elapsed, out.getvalue(), f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if code != 0:
        return Result(False, elapsed, out.getvalue(), f"exit {code}: {err.getvalue().strip()}")
    return Result(True, elapsed, out.getvalue())


def output_digest(step: Step, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in step.outputs:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


class HostSpeed:
    """Samples, from inside the process, how fast the shared host runs it.

    A thread wakes every 50 ms and times, in its own CPU time, a fixed
    piece of interpreter work (about 0.2 ms) that never calls ``mtdchain``.
    Thread CPU time leaves out waits for the interpreter lock, so what
    stretches it is the host slowing the CPU down.  The process is pinned to
    one CPU before the thread starts, so the samples come from the CPU that
    runs the commands, at the same moments.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self.words = [tuple(w) for w in rng.integers(0, gen.Q, (300, 7)).tolist()]
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            start = time.thread_time()
            tally = {}
            for word in self.words:
                tally[word] = tally.get(word, 0) + 1
            for _ in range(3000):
                pass
            self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "HostSpeed":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Runner:
    """Runs a workload's steps repeatedly and keeps their times and failures."""

    def __init__(self, steps, host: HostSpeed | None = None):
        self.steps = steps
        self.samples = {s.name: [] for s in steps}
        self.host = host
        self.host_means: list[float] = []  # per repeat, the mean host sample taken during its commands
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, str] = {}

    def repeat(self) -> float:
        # one start per repeat spreads the set-up samples over the whole run
        self.setup.append(start_cli())
        total, during = 0.0, []
        for step in self.steps:
            first = len(self.host.samples) if self.host else 0
            res = run_cli(step.argv)
            if self.host:
                during += self.host.samples[first:]
            self.attempted += 1
            total += res.seconds
            self.samples[step.name].append(res.seconds)
            problems = [res.problem] if not res.ok else self._check(step, res.stdout)
            if problems:
                self.failed += 1
                self.problems.extend(f"{step.name}: {p}" for p in problems)
        if self.host:
            self.host_means.append(statistics.fmean(during) if during else math.nan)
        return total

    def _check(self, step: Step, stdout: str) -> list[str]:
        digest = output_digest(step, stdout)
        if step.name in self._first:  # later repeats must reproduce the checked output
            return [] if digest == self._first[step.name] else ["output differs from repeat 1"]
        self._first[step.name] = digest
        try:
            return step.check(stdout)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def run_for(self, seconds: float) -> list[float]:
        """Repeat at least once, and until another repeat would overrun ``seconds``."""
        walls, start = [], time.perf_counter()
        while True:
            walls.append(self.repeat())
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return walls

    def best(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Each step's fastest repeat.  Other tenants of the host only ever add
        time, and they do so for minutes at a time, so the fastest repeat
        moves far less between runs than the median does."""
        return {name: min(v[first:last]) for name, v in self.samples.items()}

    def wall_ref(self, walls: list[float]) -> float:
        """The median over repeats, the first left out as warm-up, of the
        repeat's time over the mean host sample taken during it.  A slow
        spell of the host stretches both, so it cancels in the ratio."""
        ratios = [w / h for w, h in zip(walls, self.host_means)]
        return statistics.median(ratios[1:] or ratios)


def start_cli() -> float:
    """Seconds for a fresh interpreter to import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mtdchain.cli as c; c.build_parser()"]
    start = time.perf_counter()
    # a plain blocking wait: with a timeout, subprocess polls in 50 ms steps
    if subprocess.Popen(cmd, env=env, cwd=ROOT).wait() != 0:
        raise RuntimeError("the CLI failed to import")
    return time.perf_counter() - start


def identity() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "mtdchain").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_digest": src.hexdigest()[:16],
    }


def nll_ratio(scored) -> float:
    """Summed -log-likelihood of the program's models over that of their
    independent references (see README.md)."""
    if not scored:
        return float("nan")
    return sum(ll for ll, _ in scored) / sum(ref for _, ref in scored)


def end_to_end(workload: str, runner: Runner, walls: list[float], facts: dict) -> tuple[dict, dict]:
    """The JSON metrics shared by every workload, and the per-workload detail metrics."""
    while len(runner.setup) < SETUP_STARTS:
        runner.setup.append(start_cli())
    emit(f"# setup starts: {' '.join(f'{t:.4f}' for t in runner.setup)}")
    best = runner.best()
    shared = {
        "setup_s": (statistics.median(runner.setup), "s"),
        "wall_ref": (runner.wall_ref(walls), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "nll_ratio": (nll_ratio(facts.get("scored", [])), "ratio"),
    }
    detail = {"wall_s": (sum(best.values()), "s")}
    if workload == "fit-m6":
        detail |= {"fit_em_s": (best["fit"], "s"),
                  "em_nll_per_term": (facts.get("nll_per_term", float("nan")), "nat"),
                  "eval_s": (best["eval"], "s")}
    else:
        detail |= {"count_letters_per_s": (facts["letters"] / best["count"], "1/s"),
                  "sample_letters_per_s": (facts["sample_letters"] / best["sample"], "1/s"),
                  "eval_s": (best["eval-m8"], "s"),
                  "bic_compare_s": (best["bic-compare"], "s"),
                  "fit_berchtold_s": (best["fit-berchtold"], "s"),
                  "berchtold_nll_per_term": (facts.get("nll_per_term", float("nan")), "nat"),
                  "theta_eval_s": (best["convert"] + best["eval-theta"], "s"),
                  "tv_experiment_s": (best["tv-experiment"], "s")}
    detail["fail_ratio"] = (runner.failed / max(runner.attempted, 1), "ratio")
    return shared, detail


def per_layer(tr, repeats: int, traced_wall: float, untraced_wall: float) -> dict:
    from tracer import COUNTS, RATIOS

    metrics = {}
    for name in tr.names:
        metrics[f"{name}.calls"] = (tr.calls[name] / repeats, "count")
        metrics[f"{name}.self_s"] = (tr.self_s[name] / repeats, "s")
    counts = tr.counts()
    for name in COUNTS:
        metrics[name] = (counts[name] / repeats, "count")
    for name in RATIOS:
        metrics[name] = (counts[name], "count" if name == "em.cells_per_iteration" else "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def emit(line: str) -> None:
    print(line, flush=True)


def run_workload(args) -> int:
    if not (SRC / "mtdchain" / "cli.py").is_file():
        print(f"bench: no mtdchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtdchain.cli  # noqa: F401  (imported before timing; the untraced run never loads the tracer)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs, facts = {}, {}
        t0 = time.perf_counter()
        steps = WORKLOADS[args.workload](work, args.seed, args.scale, inputs, facts)
        emit(f"# inputs {json.dumps(inputs, sort_keys=True)} "
             f"(generated in {time.perf_counter() - t0:.2f} s)")
        emit(f"# identity {json.dumps(identity(), sort_keys=True)}")
        start_cli()  # compiles the bytecode; not counted
        if args.trace:
            runner = Runner(steps)
            from tracer import Tracer

            untraced = runner.run_for(args.seconds / 2)
            n_untraced = len(untraced)
            with Tracer() as tr:
                traced = runner.run_for(args.seconds / 2)
            untraced_wall = sum(runner.best(last=n_untraced).values())
            traced_wall = sum(runner.best(first=n_untraced).values())
            metrics = per_layer(tr, len(traced), traced_wall, untraced_wall)
            covered = sum(tr.self_s.values()) / sum(traced)
            emit(f"# traced {len(traced)} repeats after {n_untraced} untraced; span self "
                 f"times cover {covered:.4f} of the traced wall time; absent: {tr.absent}")
            if not 0.98 <= covered <= 1.0 + 1e-6:
                runner.failed += 1
                runner.problems.append(f"trace: span self times cover {covered:.4f} of wall")
            for (parent, child), n in sorted(tr.parents.items(), key=lambda kv: str(kv[0])):
                emit(f"# edge {parent} -> {child} {n}")
        else:
            with HostSpeed() as host:
                runner = Runner(steps, host)
                walls = runner.run_for(args.seconds)
            shared, detail = end_to_end(args.workload, runner, walls, facts)
            metrics = shared
            emit(f"# {len(walls)} repeats in {sum(walls):.2f} s of timed commands")
            emit(f"# host samples per repeat (mean, s): "
                 f"{' '.join(f'{h:.3e}' for h in runner.host_means)}; {len(host.samples)} in all")
            for name, (value, unit) in {**shared, **detail}.items():
                emit(f"# metric {name} {value!r} {unit}")
        for name, v in runner.samples.items():
            emit(f"# step {name}: median {statistics.median(v):.4f} s, min {min(v):.4f}, "
                 f"max {max(v):.4f}, n={len(v)}")
        for problem in runner.problems:
            emit(f"# FAIL {problem}")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        emit(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(f"## workload {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    emit(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full",
                        help="input size; 'tiny' (1e4 letters a corpus) is for the self-test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
