"""Command-line front end.

One static entry point with subcommands that wrap the library modules:
``decompose``, ``reconstruct``, ``compare``, ``sample-haar``,
``validate-haar``, ``lift``, ``render``.  Matrix and plan documents use the
JSON interchange formats of :mod:`sunmesh.linalg` and :mod:`sunmesh.mesh`,
so command outputs feed directly into other commands.

Every JSON document carries a provenance header echoing the command name
and the numerical settings (tol, seed) that produced it.  A failure exits
with its exception's ``exit_code``, listed in :mod:`sunmesh.errors`; an
``OverflowError`` or ``MemoryError`` exits as a ``ResourceError`` and any
other ``OSError`` as a ``FormatError``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import decompose as _dec
from .errors import FormatError, ResourceError, ToleranceError, ValidationError, check_int
from .haar import HaarSpec, sample_coset, sample_haar, validate_haar
from .linalg import matrix_from_json, matrix_to_json
from .mesh import depth, parameter_count, plan_from_json, plan_to_json, reconstruct, render
from .symrep import FockBasis, basis_dimension, lift_plan, lift_via_permanents

_EPILOG = """\
exit codes:
  0  success
  1  I/O, parse or usage failure
  2  tolerance failure
  3  validation failure
  4  resource limit exceeded

defaults: --tol 1e-10, --seed 0.  TRIMESH_DIM_CAP overrides the lifted
dimension cap (default 5000).
"""


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _emit(args, result, **provenance) -> None:
    """Write a command's result to ``--output``, or to stdout if that is
    missing or ``-``, ending in exactly one newline.

    A ``str`` goes out as it is; a ``dict`` as a JSON document headed by
    the command, tol, seed and ``provenance``, or :class:`ValidationError`
    if it is not finite.
    """
    if isinstance(result, dict):
        header = {"command": args.command, "tol": args.tol, "seed": args.seed, **provenance}
        try:
            result = json.dumps({"provenance": header, **result}, indent=2, allow_nan=False)
        except ValueError:
            raise ValidationError("result is not finite, so it has no JSON form") from None
    text = result.rstrip("\n") + "\n"
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def cmd_decompose(args) -> int:
    if args.canonical and args.scheme != "triangle":
        raise ValidationError("--canonical applies to the triangle scheme only")
    m = matrix_from_json(_read_json(args.input))
    if args.scheme == "triangle":
        plan = _dec.triangle_decompose(m, args.tol)
        if args.canonical:
            plan = _dec.canonicalize(plan, m, args.tol)
    elif args.scheme == "reck":
        plan = _dec.reck_decompose(m, args.tol)
    else:
        plan = _dec.clements_decompose(m, args.tol)
    residual = float(np.linalg.norm(reconstruct(plan) - m))
    _emit(args, plan_to_json(plan))
    _note(
        f"scheme={args.scheme} boxes={len(plan.couplers)} depth={depth(plan)} "
        f"parameters={parameter_count(plan)} residual={residual:.3e}"
    )
    return 0 if residual < args.tol else ToleranceError.exit_code


def cmd_reconstruct(args) -> int:
    plan = plan_from_json(_read_json(args.input))
    _emit(args, matrix_to_json(reconstruct(plan)))
    _note(f"n={plan.n} boxes={len(plan.couplers)} depth={depth(plan)}")
    return 0


def _compare_rows(m: np.ndarray, tol: float, loss_db: float) -> list[dict]:
    n = check_int(m.shape[0], "n", 2)
    plans = {
        "triangle": _dec.canonicalize(_dec.triangle_decompose(m, tol), m, tol),
        "reck": _dec.reck_decompose(m, tol),
        "clements": _dec.clements_decompose(m, tol),
    }
    rows = []
    for scheme, plan in plans.items():
        offdiag = len({(c.i, c.j) for c in plan.couplers})
        report = _dec.loss_analysis(plan, loss_db)
        rows.append(
            {
                "scheme": scheme,
                "boxes": len(plan.couplers),
                "depth": depth(plan),
                "parameters": parameter_count(plan),
                "offdiag_generator_types": offdiag,
                "generator_savings": n * (n - 1) // 2 - offdiag,
                "max_mode_couplers": max(r["worst_couplers"] for r in report),
                "worst_loss_db": max(r["worst_loss_db"] for r in report),
            }
        )
    return rows


def cmd_compare(args) -> int:
    if args.input is not None:
        m = matrix_from_json(_read_json(args.input))
    elif args.n is not None:
        m = np.eye(check_int(args.n, "n", 2), dtype=np.complex128)
    else:
        raise ValidationError("compare needs --n or an input matrix")
    rows = _compare_rows(m, args.tol, args.loss_db)
    if args.format == "csv":
        # str of a Python float is its repr, so cells keep every digit
        lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, {"n": m.shape[0], "loss_db": args.loss_db, "schemes": rows})
    return 0


def cmd_sample_haar(args) -> int:
    if args.n is None:
        raise ValidationError("sample-haar needs --n")
    spec = HaarSpec(args.n, seed=args.seed)
    plan = sample_coset(spec) if args.coset else sample_haar(spec)
    _emit(args, matrix_to_json(reconstruct(plan)) if args.emit == "matrix" else plan_to_json(plan))
    return 0


def cmd_validate_haar(args) -> int:
    if args.n is None:
        raise ValidationError("validate-haar needs --n")
    report = validate_haar(
        args.n,
        args.samples,
        seed=args.seed,
        source=args.source,
        beta_mode=args.beta_mode,
    )
    _emit(args, report)
    return 0 if report["passed"] else ValidationError.exit_code


def cmd_lift(args) -> int:
    if args.input is None:
        if args.n is None:
            raise ValidationError("lift needs an input document or --n")
        _emit(args, str(basis_dimension(args.n, args.p)))
        return 0
    obj = _read_json(args.input)
    if isinstance(obj, dict) and "couplers" in obj:
        plan = plan_from_json(obj)
        basis = FockBasis(plan.n, args.p)
        lifted = lift_plan(basis, plan)
        n, route = plan.n, "generators"
    else:
        m = matrix_from_json(obj)
        lifted = lift_via_permanents(m, args.p, tol=args.tol)
        n, route = m.shape[0], "permanents"
    _emit(args, matrix_to_json(lifted), n=n, p=args.p, dimension=lifted.shape[0], route=route)
    return 0


def cmd_render(args) -> int:
    plan = plan_from_json(_read_json(args.input))
    _emit(args, render(plan, format=args.format))
    return 0


def _tolerance(text: str) -> float:
    """``--tol`` values: finite and positive, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`FormatError` (exit 1); argparse's own
    exit status 2 would read as a tolerance failure."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sunmesh",
        description="Triangular mesh factorizations of unitary matrices.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=1e-10, help="numerical tolerance (default 1e-10)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--output", help="output path (default stdout)")

    p = sub.add_parser("decompose", parents=[common], help="factor a unitary into a coupler plan")
    p.add_argument("input", help="matrix JSON path, or - for stdin")
    p.add_argument("--scheme", choices=("triangle", "reck", "clements"), default="triangle")
    p.add_argument("--canonical", action="store_true", help="canonicalize the triangle plan")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", parents=[common], help="multiply a plan back into a matrix")
    p.add_argument("input", help="plan JSON path, or - for stdin")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("compare", parents=[common], help="tabulate scheme metrics side by side")
    p.add_argument("input", nargs="?", help="matrix JSON path (optional)")
    p.add_argument("--n", type=int, help="mode count for an identity-input comparison")
    p.add_argument("--loss-db", type=float, default=0.0, help="per-coupler loss in dB")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sample-haar", parents=[common], help="draw one Haar-random mesh plan")
    p.add_argument("--n", type=int, help="mode count")
    p.add_argument("--coset", action="store_true", help="sample the first-column coset instead")
    p.add_argument("--emit", choices=("plan", "matrix"), default="plan")
    p.set_defaults(func=cmd_sample_haar)

    p = sub.add_parser("validate-haar", parents=[common], help="statistically test the sampler")
    p.add_argument("--n", type=int, help="mode count")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--source", choices=("mesh", "qr"), default="mesh")
    p.add_argument("--beta-mode", choices=("recursive", "uniform"), default="recursive")
    p.set_defaults(func=cmd_validate_haar)

    p = sub.add_parser("lift", parents=[common], help="lift a plan or matrix to p photons")
    p.add_argument("input", nargs="?", help="plan or matrix JSON path; omit to print the dimension")
    p.add_argument("--n", type=int, help="mode count for the dimension-only form")
    p.add_argument("--p", type=int, default=1, help="photon number (default 1)")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("render", parents=[common], help="draw a plan as ASCII or SVG")
    p.add_argument("input", help="plan JSON path, or - for stdin")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(func=cmd_render)

    return parser


def _fail(exc: BaseException, code: int) -> int:
    """Print a failure's one ``error:`` line, its type if it has no message."""
    _note(f"error: {str(exc) or type(exc).__name__}")
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a non-finite result exits 3 in _emit
            return args.func(args)
    except (FormatError, ToleranceError, ValidationError, ResourceError) as exc:
        return _fail(exc, exc.exit_code)
    except (OverflowError, MemoryError) as exc:
        return _fail(exc, ResourceError.exit_code)
    except OSError as exc:
        return _fail(exc, FormatError.exit_code)


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
