"""Benchmark of the four exponential methods and the CLI, with checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scalar-long --seed 1 --seconds 20 --trace 0

One run builds a pool of seeded instances, pays every lazy cost once
(set-up), then calls eps_circulant, eps_averaged, embedding, taylor and one
cold ``btt_expm.cli expm`` child process round-robin, one round after the
other, until ``--seconds`` have passed.  Every result is checked against
references written apart from the package (``refs.py``).  The last line of
stdout is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one extra traced round.  See README.md.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP before numpy loads, here and in the CLI child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    n: int
    m: int
    alpha: float
    band: int
    # binade of ||U0 + alpha I||_inf that every pool instance lies in, as the
    # exponent q with 2^(q-1) <= norm < 2^q; None keeps every seed
    lead_binade: int | None


WORKLOADS = {
    "scalar-long": Workload(n=2 ** 15, m=1, alpha=50.0, band=4, lead_binade=None),
    "wide-blocks": Workload(n=2 ** 10, m=8, alpha=5.0, band=4, lead_binade=2),
    "stiff-rates": Workload(n=2 ** 12, m=2, alpha=200.0, band=4, lead_binade=6),
}
# instance 0 serves the warm-up and the traced round; round r times every
# operation on instance 1 + r % (POOL - 1), so inputs repeat only after
# POOL - 1 rounds (the methods as they stand make at most 9 in 25 s)
POOL = 12
METHODS = ("eps_circulant", "eps_averaged", "embedding", "taylor")
OPS = METHODS + ("cli_expm",)
CLI_ARGS = ("--method", "eps-averaged", "--epsilon", "1e-2i", "--k", "4")

# per-layer metric suffixes reported for each traced call
_COMMON = ("exp_btt.self_s", "exp_btt.squarings", "fft_transforms.self_s",
           "fft_transforms.calls", "fft_transforms.points", "fft_transforms.plan_s",
           "structured_mul.self_s", "structured_mul.products")
_CIRCULANT = ("exp_circulant.self_s", "dense_expm.self_s", "dense_expm.blocks",
              "error_analysis.self_s")
CALL_LAYERS = {
    "eps_circulant": _COMMON + _CIRCULANT + ("exp_btt.select_s",),
    "eps_averaged": _COMMON + _CIRCULANT,
    "embedding": _COMMON + _CIRCULANT + ("exp_btt.select_s", "exp_btt.K"),
    "taylor": _COMMON,
    "cli_expm": _COMMON + _CIRCULANT + ("cli.self_s", "io.parse_s", "io.format_s",
                                        "block_linalg.validate_s"),
    "setup": ("model_gen.generate_s", "block_linalg.validate_s", "io.parse_s",
              "io.format_s", "fft_transforms.plan_s"),
}
# metric suffix -> the tracer totals it sums (default: the suffix itself)
_SOURCES = {
    "exp_btt.select_s": ("exp_btt.select_epsilon.incl_s",
                         "exp_btt.select_embedding_K.incl_s"),
    "fft_transforms.plan_s": ("fft_transforms.get_plan.incl_s",),
    "io.parse_s": ("io.parse_block_vector.incl_s",),
    "io.format_s": ("io.format_block_vector.incl_s",),
    "block_linalg.validate_s": ("block_linalg.validate_subgenerator.incl_s",),
    "model_gen.generate_s": ("model_gen.self_s",),
}
END_TO_END = {f"{op}_s": "s" for op in OPS}
END_TO_END.update({"setup_s": "s", "peak_rss_mb": "MB"})


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for call, suffixes in CALL_LAYERS.items():
        for suffix in suffixes:
            unit = "s" if suffix.endswith("_s") else "count"
            names.append((f"{call}.{suffix}", unit))
    names.extend((f"{op}.trace.overhead_s", "s") for op in OPS)
    return names


def since_process_start() -> float:
    """Seconds since this process started (interpreter start included)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


class SetupError(RuntimeError):
    pass


def _import_package():
    if not (SRC / "btt_expm" / "__init__.py").is_file():
        raise SetupError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import btt_expm
    if Path(btt_expm.__file__).resolve().parent != SRC / "btt_expm":
        raise SetupError(f"imported btt_expm from {btt_expm.__file__}, not {SRC}")


def _lead_binade(spec) -> int:
    import numpy as np
    shifted = spec.u.data[0] + spec.alpha * np.eye(spec.m)
    norm = float(np.abs(shifted).sum(axis=1).max())
    return int(math.floor(math.log2(norm))) + 1 if norm > 1.0 else 0


class Bench:
    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from btt_expm import exp_btt, fft_transforms

        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.exp_btt = exp_btt
        self.fft_transforms = fft_transforms
        self.pool = []        # (seed, spec, path)
        self.outputs = []     # (op, pool index, row or None, error text)
        self._refs = {}
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def build_pool(self) -> None:
        import numpy as np
        from btt_expm import block_linalg, io, model_gen

        w = self.w
        candidate = self.seed * 1_000_000
        while len(self.pool) < POOL:
            spec = model_gen.banded_subgenerator(w.n, w.m, w.band, seed=candidate,
                                                 alpha_target=w.alpha)
            candidate += 1
            if w.lead_binade is not None and _lead_binade(spec) != w.lead_binade:
                continue
            path = self.workdir / f"instance{len(self.pool)}.btt"
            io.write_block_vector(path, spec.u, [f"seed={candidate - 1}"])
            back = block_linalg.validate_subgenerator(io.read_block_vector(path))
            if not np.array_equal(back.u.data, spec.u.data):
                raise SetupError("writing and reading back an instance changed it")
            self.pool.append((candidate - 1, back, path))

    def method(self, name: str, spec):
        exp_btt = self.exp_btt
        p = exp_btt.scaling_exponent(spec)
        if name == "eps_circulant":
            eps = exp_btt.select_epsilon(spec.scaled(p))
            config = exp_btt.MethodConfig("eps_circulant", epsilon=eps)
        elif name == "eps_averaged":
            config = exp_btt.MethodConfig("eps_averaged", theta_mag=1e-2, k=4)
        elif name == "embedding":
            K = exp_btt.select_embedding_K(spec.scaled(p), 1e-12)
            config = exp_btt.MethodConfig("embedding", K=K)
        else:
            config = exp_btt.MethodConfig("taylor", taylor_tol=1e-15, max_terms=200)
        return exp_btt.compute_exponential(spec, config).y.data

    def _cli_argv(self, j: int) -> list[str]:
        return ["expm", str(self.pool[j][2]), *CLI_ARGS,
                "--out", str(self.workdir / f"cli{j}.btt")]

    def _cli_output(self, j: int, code: int, stderr: str = ""):
        import refs

        if code != 0:
            return None, f"exit {code}: {stderr.strip()[-300:]}"
        try:
            return refs.parse_btt((self.workdir / f"cli{j}.btt").read_text()), ""
        except (OSError, ValueError) as exc:
            return None, f"unreadable output: {exc}"

    def timed(self, op: str, j: int, record: bool = True):
        """Run one operation on pool instance j; return its wall time, or
        None when it failed.  The output is kept for checking."""
        row, error = None, ""
        if op == "cli_expm":
            argv = [sys.executable, "-m", "btt_expm.cli", *self._cli_argv(j)]
            start = time.perf_counter()
            try:
                proc = subprocess.run(argv, env=self.child_env, cwd=ROOT,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True, timeout=150)
            except subprocess.TimeoutExpired:
                error = "timed out"
            else:
                elapsed = time.perf_counter() - start
                row, error = self._cli_output(j, proc.returncode, proc.stderr)
        else:
            start = time.perf_counter()
            try:
                row = self.method(op, self.pool[j][1])
            except Exception as exc:  # a failing call is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if record:
            self.outputs.append((op, j, row, error))
        return None if row is None else elapsed

    def cli_in_process(self, j: int) -> float:
        """The CLI call in this process, plans cleared as in a cold one."""
        from btt_expm import cli

        clear = getattr(getattr(self.fft_transforms, "get_plan", None), "cache_clear", None)
        if clear is not None:
            clear()
        start = time.perf_counter()
        code = cli.main(self._cli_argv(j))
        elapsed = time.perf_counter() - start
        row, error = self._cli_output(j, code)
        self.outputs.append(("cli_expm", j, row, error))
        return elapsed

    def check(self) -> dict:
        """Check every kept output; return per-op worst error and failures."""
        import refs

        worst = {op: 0.0 for op in OPS}
        failures = []
        for op, j, row, error in self.outputs:
            if row is None:
                failures.append({"op": op, "instance": j, "reason": error})
                continue
            if j not in self._refs:
                u = self.pool[j][1].u.data
                self._refs[j] = (refs.reference(u), refs.leading_block(u))
            ref, lead = self._refs[j]
            err, reasons = refs.check_row(row, ref, lead, refs.TOLERANCES[op])
            worst[op] = max(worst[op], err)
            if reasons:
                failures.append({"op": op, "instance": j, "reason": "; ".join(reasons),
                                 "wrong": True})
        return {"worst_error": worst, "failures": failures}


def traced_round(bench: Bench, tracer) -> dict:
    """One traced call per operation on pool instance 0; returns each call's
    traced total and, under ``plain_cli``, an untraced in-process CLI call."""
    import tracing

    def traced_call(op, fn):
        tracing.install(tracer)
        try:
            with tracer.root(op) as idx:
                fn()
        finally:
            tracer.uninstall()
        span = tracer.spans[idx]
        return span.end - span.start

    totals = {op: traced_call(op, lambda op=op: bench.timed(op, 0)) for op in METHODS}
    totals["plain_cli"] = bench.cli_in_process(0)
    totals["cli_expm"] = traced_call("cli_expm", lambda: bench.cli_in_process(0))
    return totals


def run(args) -> dict:
    _import_package()
    import tracing

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracing.install(tracer)
        bench = Bench(workload, args.seed, workdir)
        bench.build_pool()
        for op in METHODS:  # warm-up: lazily built plans and caches are paid here
            bench.timed(op, 0, record=False)
        tracer.uninstall()
        setup_s = since_process_start()

        samples = {op: [] for op in OPS}
        rounds = 0
        start = time.perf_counter()
        while True:
            j = 1 + rounds % (POOL - 1)
            for op in OPS:
                elapsed = bench.timed(op, j)
                if elapsed is not None:
                    samples[op].append(elapsed)
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        measured_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = {}
        if args.trace:
            traced = traced_round(bench, tracer)

        verdict = bench.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in OPS:
        if not samples[op]:
            raise SetupError(f"every {op} call failed: {verdict['failures'][:1]}")
    medians = {op: statistics.median(samples[op]) for op in OPS}
    if args.trace:
        metrics = {}
        totals = {call: tracer.layer_totals(call) for call in CALL_LAYERS}
        for name, unit in per_layer_names():
            call, suffix = name.split(".", 1)
            if suffix == "trace.overhead_s":
                base = traced["plain_cli"] if call == "cli_expm" else medians[call]
                value = traced[call] - base
            else:
                value = sum(totals[call].get(key, 0.0)
                            for key in _SOURCES.get(suffix, (suffix,)))
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {f"{op}_s": medians[op] for op in OPS}
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    failures = verdict["failures"]
    result = {
        "correct": not any(f.get("wrong") for f in failures),
        "attempted": len(bench.outputs),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "measured_s": measured_s,
        "pool_seeds": [s for s, _, _ in bench.pool], "samples": samples,
        "worst_error": verdict["worst_error"], "failures": failures,
        "absent_wrap_points": tracer.absent, "result": result,
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
