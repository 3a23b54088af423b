"""Command-line experiment harness.

Subcommands::

    gen            write a random subgenerator instance to a file
    validate       check an instance and print derived scalars and
                   recommended parameters
    expm           compute the exponential row with one method
    sweep-epsilon  error metrics of the averaged eps-circulant method over a
                   theta grid and a list of averaging orders, as CSV
    sweep-K        error metrics of the embedding method over a list of
                   embedding sizes, as CSV

Exit codes: 0 success, 2 parse error (a file that cannot be read or
written, a bad flag, a method parameter out of range), 3 validation
failure, 4 numerical failure.  Error references for sweeps are the dense
oracle when n*m fits under --oracle-cap, else the embedding at 8x the
padded length (flagged in the CSV header comment).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .block_linalg import SubgeneratorSpec, error_report, validate_subgenerator
from .dense_expm import expm_dense_oracle
from .errors import NumericalError, ParseError, ValidationError
from .exp_btt import (MethodConfig, _next_pow2, compute_exponential,
                      exp_btt_embedding, exp_btt_eps_averaged, scaling_exponent,
                      select_embedding_K, select_epsilon)
from .io import format_block_vector, read_block_vector
from .model_gen import random_subgenerator

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    """Render in the same 'a+bi' style parse_complex accepts."""
    z = complex(z)
    if z.imag == 0:
        return _fmt(z.real)
    if z.real == 0:
        return _fmt(z.imag) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style complex values, e.g. '1e-2', '1e-2i', '-3+0.25i'."""
    s = text.strip().replace(" ", "").replace("I", "i")
    if "j" in s:
        raise ParseError(f"bad complex value {text!r}: use 'i' for the imaginary unit")
    try:
        value = complex(s.replace("i", "j"))
    except ValueError as exc:
        raise ParseError(f"bad complex value {text!r}: {exc}") from exc
    return value


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ParseError(f"bad number list {text!r}: {exc}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}: {exc}") from exc


def _load_spec(path: str) -> SubgeneratorSpec:
    return validate_subgenerator(read_block_vector(path))


def _reference(spec: SubgeneratorSpec, oracle_cap: int):
    """Dense oracle when it fits, else a large embedding as pseudo-oracle."""
    if spec.n * spec.m <= oracle_cap:
        return expm_dense_oracle(spec, cap=oracle_cap), "dense_oracle"
    big_k = 8 * _next_pow2(spec.n)
    res = exp_btt_embedding(spec, big_k)
    return res.y, f"embedding_K{big_k}"


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from exc


def _build_config(args, spec: SubgeneratorSpec) -> MethodConfig:
    method = args.method.replace("-", "_")
    use_scaling = not args.no_scaling
    scaled = spec.scaled(scaling_exponent(spec) if use_scaling else 0)
    if method == "eps_circulant":
        if args.epsilon is not None:
            eps = parse_complex(args.epsilon)
        else:
            eps = select_epsilon(scaled)
        return MethodConfig("eps_circulant", epsilon=eps, use_scaling=use_scaling)
    if method == "eps_averaged":
        theta = abs(parse_complex(args.epsilon)) if args.epsilon is not None else 1e-2
        k = args.k if args.k is not None else 1
        return MethodConfig("eps_averaged", theta_mag=theta, k=k, use_scaling=use_scaling)
    if method == "embedding":
        K = args.K if args.K is not None else select_embedding_K(scaled, 1e-12)
        return MethodConfig("embedding", K=K, use_scaling=use_scaling)
    # argparse admits only the four methods, so this is taylor
    return MethodConfig("taylor", taylor_tol=args.tol, max_terms=args.max_terms,
                        use_scaling=use_scaling)


def cmd_expm(args) -> int:
    spec = _load_spec(args.input)
    config = _build_config(args, spec)
    result = compute_exponential(spec, config)
    comments = [f"method={config.method}", f"scaling_p={result.scaling_p}",
                f"n_eff={result.n_eff}"]
    if config.epsilon is not None:
        comments.append(f"epsilon={_fmt_complex(config.epsilon)}")
    if config.theta_mag is not None:
        comments.append(f"theta={_fmt(config.theta_mag)} k={config.k}")
    if config.K is not None:
        comments.append(f"K={result.method_used.K}")
    if config.taylor_tol is not None:
        comments.append(f"tol={_fmt(config.taylor_tol)} max_terms={config.max_terms}")
    for name, value in sorted(result.predicted_bounds.items()):
        comments.append(f"predicted_{name}={_fmt(value)}")
    _write_text(args.out, format_block_vector(result.y, comments))
    return 0


def cmd_sweep_epsilon(args) -> int:
    spec = _load_spec(args.input)
    thetas = (_parse_floats(args.thetas) if args.thetas
              else list(np.geomspace(1e-10, 1.0, 21)))
    k_list = _parse_ints(args.k) if args.k else [1]
    ref, ref_label = _reference(spec, args.oracle_cap)
    use_scaling = not args.no_scaling

    lines = [f"# reference={ref_label}",
             "theta,k,cw_abs,cw_rel,nw_abs,nw_rel,wall_time"]
    for theta in thetas:
        for k in k_list:
            start = time.perf_counter()
            res = exp_btt_eps_averaged(spec, theta, k, use_scaling,
                                       allow_large_eps=True)
            wall = time.perf_counter() - start
            rep = error_report(res.y, ref)
            lines.append(",".join([
                _fmt(theta), str(k), _fmt(rep.cw_abs), _fmt(rep.cw_rel),
                _fmt(rep.nw_abs), _fmt(rep.nw_rel), _fmt(wall)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_sweep_K(args) -> int:
    spec = _load_spec(args.input)
    if args.K_list:
        k_values = _parse_ints(args.K_list)
    else:
        base = _next_pow2(spec.n)
        k_values = [base * f for f in (1, 2, 4, 8)]
    ref, ref_label = _reference(spec, args.oracle_cap)
    use_scaling = not args.no_scaling

    lines = [f"# reference={ref_label}",
             "K,cw_abs,cw_rel,nw_abs,nw_rel,wall_time,predicted_fK"]
    for K in k_values:
        start = time.perf_counter()
        res = exp_btt_embedding(spec, K, use_scaling)
        wall = time.perf_counter() - start
        rep = error_report(res.y, ref)
        predicted = res.predicted_bounds["tail"]
        lines.append(",".join([
            str(K), _fmt(rep.cw_abs), _fmt(rep.cw_rel), _fmt(rep.nw_abs),
            _fmt(rep.nw_rel), _fmt(wall), _fmt(predicted)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    spec = _load_spec(args.input)
    p = scaling_exponent(spec)
    scaled = spec.scaled(p)
    eps_imag = select_epsilon(scaled, imaginary=True)
    eps_real = select_epsilon(scaled, imaginary=False)
    k_rec = select_embedding_K(scaled, 1e-12)
    print(f"n={spec.n} m={spec.m}")
    print(f"alpha={_fmt(spec.alpha)}")
    print(f"l_norm={_fmt(spec.l_norm)}")
    print(f"scaling_p={p}")
    print(f"recommended_epsilon_imaginary={_fmt_complex(eps_imag)}")
    print(f"recommended_epsilon_real={_fmt_complex(eps_real)}")
    print(f"recommended_K_at_1e-12={k_rec}")
    return 0


def cmd_gen(args) -> int:
    spec = random_subgenerator(args.n, args.m, density=args.density,
                               slack=args.slack, seed=args.seed,
                               alpha_target=args.alpha_target,
                               bandwidth=args.bandwidth)
    comments = [f"generated seed={args.seed} density={args.density} slack={args.slack}"]
    _write_text(args.out, format_block_vector(spec.u, comments))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btt-expm",
        description="Exponentials of block-triangular block-Toeplitz subgenerators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="block-vector file (btt v1 format)")
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")

    p = sub.add_parser("expm", help="compute the exponential row with one method")
    common(p)
    p.add_argument("--method", required=True,
                   choices=["eps-circulant", "eps-averaged", "embedding", "taylor"])
    p.add_argument("--epsilon", default=None,
                   help="complex as 'a+bi'; for eps-averaged, theta = |epsilon|")
    p.add_argument("--k", type=int, default=None, help="averaging order")
    p.add_argument("--K", type=int, default=None,
                   help="embedding size (default: select_embedding_K at 1e-12)")
    p.add_argument("--tol", type=float, default=1e-15,
                   help="Taylor: bound on the dropped terms of the scaled, shifted "
                        "series, which fixes the degree before the first product")
    p.add_argument("--max-terms", type=int, default=200, dest="max_terms")
    p.add_argument("--no-scaling", action="store_true", dest="no_scaling")

    p = sub.add_parser("sweep-epsilon", help="error vs theta for the averaged method")
    common(p)
    p.add_argument("--thetas", default=None,
                   help="comma list of theta values (default: log grid 1e-10..1)")
    p.add_argument("--k", default=None, help="comma list of averaging orders (default 1)")
    p.add_argument("--no-scaling", action="store_true", dest="no_scaling")
    p.add_argument("--oracle-cap", type=int, default=512, dest="oracle_cap")

    p = sub.add_parser("sweep-K", help="error vs embedding size")
    common(p)
    p.add_argument("--K-list", default=None, dest="K_list",
                   help="comma list of embedding sizes (default: padded n times 1,2,4,8)")
    p.add_argument("--no-scaling", action="store_true", dest="no_scaling")
    p.add_argument("--oracle-cap", type=int, default=512, dest="oracle_cap")

    p = sub.add_parser("validate", help="check an instance, print derived parameters")
    p.add_argument("input")

    p = sub.add_parser("gen", help="generate a random subgenerator instance")
    common(p, with_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--slack", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bandwidth", type=int, default=None)
    p.add_argument("--alpha-target", type=float, default=None, dest="alpha_target")

    return parser


_COMMANDS = {
    "expm": cmd_expm,
    "sweep-epsilon": cmd_sweep_epsilon,
    "sweep-K": cmd_sweep_K,
    "validate": cmd_validate,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ParseError or a method's parameter check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
