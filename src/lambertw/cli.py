"""The ``lambert-w`` command-line utility.

The bare form evaluates the function and prints nothing but the value,
so it can be dropped straight into shell pipelines:

    lambert-w [branch] x

``python -m lambertw [branch] x`` runs the same utility without an
install (with ``src`` on ``PYTHONPATH`` in a source checkout).

One numeric argument is the point x (principal branch); two numeric
arguments are the branch (0 or -1) followed by x.  A leading minus sign
on a lone argument is read as a negative x, never as a flag.

Subcommands extend the utility without disturbing the bare contract:

    lambert-w eval [branch] x      same as the bare form
    lambert-w approx [branch] x    unrefined dispatch approximation
    lambert-w sweep ...            accuracy sweep, data records to stdout
    lambert-w moyal-inverse y      Moyal profile inverse
    lambert-w gh-inverse y x_max   Gaisser-Hillas profile inverse

Exit codes: 0 success, 1 domain error (message on stderr names the
violated bound), 2 malformed arguments or an unwritable --output file.
"""

# argparse is imported by the three subcommands that build a parser:
# the bare and ``eval`` forms never need it, so they do not pay to load it.
import contextlib
import sys

from .accuracy import STAGES, GridSpec, accuracy_sweep, default_panels, write_report
from .api import lambert_w, lambert_w_approximation
from .branches import Branch, DomainError
from .physics import MOYAL_SIDES, gh_inverse, moyal_inverse

_USAGE = """\
usage: lambert-w [branch] x
       lambert-w eval [branch] x
       lambert-w approx [branch] x
       lambert-w sweep [--branch B] [--stage S] [--grid linear|log]
                       [--start A] [--stop B] [--count N] [--output FILE]
       lambert-w moyal-inverse [--side plus|minus] y
       lambert-w gh-inverse y x_max

branch is 0 (default) or -1; values print with 17 significant digits.
"""

def _fail_usage(message: str) -> int:
    print(f"lambert-w: error: {message}", file=sys.stderr)
    print(_USAGE, file=sys.stderr, end="")
    return 2


def _parse_branch_x(args: list[str]) -> tuple[Branch, float]:
    """Interpret positional ``[branch] x`` arguments.

    A single argument is always x, even when negative; two arguments are
    branch then x.  Raises ValueError for anything else.
    """
    values = []
    for token in args:
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"expected a number, got {token!r}") from None
    if len(values) == 1:
        return Branch.PRINCIPAL, values[0]
    if len(values) == 2:
        branch_value, x = values
        if branch_value not in (0.0, -1.0):
            raise ValueError(f"branch must be 0 or -1, got {args[0]!r}")
        return Branch(int(branch_value)), x
    raise ValueError(f"expected 1 or 2 arguments, got {len(values)}")


def _print_value(value: float) -> None:
    print(f"{value:.17g}")


def _run_eval(args: list[str], approximation_only: bool) -> int:
    branch, x = _parse_branch_x(args)
    if approximation_only:
        _print_value(lambert_w_approximation(branch, x))
    else:
        _print_value(lambert_w(branch, x).value)
    return 0


def _run_sweep(args: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="lambert-w sweep",
        description="Accuracy sweep against the reference solver.",
    )
    parser.add_argument("--branch", type=int, choices=(0, -1), default=0)
    parser.add_argument("--stage", choices=STAGES, default="approximation")
    parser.add_argument("--grid", choices=("linear", "log"), default=None,
                        help="grid kind; defaults to the branch's first canonical panel")
    parser.add_argument("--start", type=float, default=None)
    parser.add_argument("--stop", type=float, default=None)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--output", default=None,
                        help="write records to this file instead of stdout")
    opts = parser.parse_args(args)

    if opts.grid is None and opts.start is None and opts.stop is None:
        grid = default_panels(opts.branch)[0]._replace(count=opts.count)
    elif opts.start is None or opts.stop is None:
        return _fail_usage("sweep needs both --start and --stop (or neither)")
    else:
        grid = GridSpec(opts.grid or "linear", opts.start, opts.stop, opts.count)

    # Opened before the sweep, so a path that cannot be written fails at once.
    try:
        with (contextlib.nullcontext(sys.stdout) if opts.output is None
              else open(opts.output, "w", encoding="ascii")) as out:
            report = accuracy_sweep(opts.branch, opts.stage, grid)
            write_report(report, out)
    except OSError as exc:  # e.g. an --output path in a missing directory
        return _fail_usage(str(exc))
    print(f"min_delta = {report.min_delta!r} over {report.grid.describe()}", file=sys.stderr)
    return 0


def _run_moyal_inverse(args: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="lambert-w moyal-inverse",
        description="Invert the Moyal function exp(-(x + e^-x)/2).",
    )
    parser.add_argument("--side", choices=MOYAL_SIDES, default="plus")
    parser.add_argument("y", type=float)
    opts = parser.parse_args(args)
    _print_value(moyal_inverse(opts.y, opts.side))
    return 0


def _run_gh_inverse(args: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="lambert-w gh-inverse",
        description="Invert the Gaisser-Hillas profile (x/x_max)^x_max e^(x_max-x); "
                    "prints the left and right roots.",
    )
    parser.add_argument("y", type=float)
    parser.add_argument("x_max", type=float)
    opts = parser.parse_args(args)
    roots = gh_inverse(opts.y, opts.x_max)
    print(f"{roots.left:.17g} {roots.right:.17g}")
    return 0


def run_cli(argv: list[str]) -> int:
    """Run one CLI request; returns the process exit code."""
    if not argv:
        return _fail_usage("missing arguments")
    head, rest = argv[0], argv[1:]
    try:
        if head == "eval":
            return _run_eval(rest, approximation_only=False)
        if head == "approx":
            return _run_eval(rest, approximation_only=True)
        if head == "sweep":
            return _run_sweep(rest)
        if head == "moyal-inverse":
            return _run_moyal_inverse(rest)
        if head == "gh-inverse":
            return _run_gh_inverse(rest)
        if head in ("-h", "--help"):
            print(_USAGE, end="")
            return 0
        # Bare positional form: every argument must be numeric.
        return _run_eval(argv, approximation_only=False)
    except DomainError as exc:
        print(f"lambert-w: domain error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail_usage(str(exc))
    except SystemExit as exc:
        # argparse reports its own errors and exits; fold that into the
        # exit-code contract so callers of run_cli always get an int.
        return int(exc.code or 0)


def main(argv: list[str] | None = None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
