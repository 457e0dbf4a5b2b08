"""The ``lambert-w`` command-line utility.

The bare form evaluates the function and prints nothing but the value,
so it can be dropped straight into shell pipelines:

    lambert-w [branch] x

``python -m lambertw [branch] x`` runs the same utility without an
install (with ``src`` on ``PYTHONPATH`` in a source checkout).

One numeric argument is the point x (principal branch); two numeric
arguments are the branch (0 or -1) followed by x.  A leading minus sign
on a lone argument is read as a negative x, never as a flag; in the
subcommands, too, a negative number such as -1e-5 is always a value.

Subcommands extend the utility without disturbing the bare contract:

    lambert-w eval [branch] x      same as the bare form
    lambert-w approx [branch] x    unrefined dispatch approximation
    lambert-w sweep ...            accuracy sweep, data records to stdout
    lambert-w moyal-inverse y      Moyal profile inverse
    lambert-w gh-inverse y x_max   Gaisser-Hillas profile inverse

Options take ``--name value`` or ``--name=value`` and are spelled out in
full; ``-h`` or ``--help`` anywhere prints the usage.

Exit codes: 0 success, 1 domain error (message on stderr names the
violated bound), 2 malformed arguments, an unwritable --output file or
a failed write to stdout, 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as ``| head -1`` does, with nothing on stderr.
"""

import contextlib
import os
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


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"expected a number, got {token!r}") from None


def _branch(token: str) -> Branch:
    value = _number(token)
    if value not in (0.0, -1.0):
        raise ValueError(f"branch must be 0 or -1, got {token!r}")
    return Branch(int(value))


def _choice(*names: str):
    def read(token: str) -> str:
        if token not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {token!r}")
        return token
    return read


def _parse_branch_x(args: list[str]) -> tuple[Branch, float]:
    """Interpret positional ``[branch] x`` arguments.

    A single argument is always x, even when negative; two arguments are
    branch then x.  Raises ValueError for anything else.
    """
    if len(args) == 1:
        return Branch.PRINCIPAL, _number(args[0])
    if len(args) == 2:
        return _branch(args[0]), _number(args[1])
    raise ValueError(f"expected 1 or 2 arguments, got {len(args)}")


def _parse_options(args: list[str], readers: dict, count: int) -> tuple[dict, list[float]]:
    """Read ``--name value`` or ``--name=value`` options, each by its reader
    in ``readers`` (keyed ``"--name"``; a bad value raises ValueError), and
    exactly ``count`` numbers: any token not starting ``--`` is a number,
    so -1e-5 is a value.  Returns the options keyed ``name``, and the numbers.
    """
    options, numbers = {}, []
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("--"):
            numbers.append(_number(token))
            continue
        name, equals, value = token.partition("=")
        if name not in readers:
            raise ValueError(f"unknown option {name!r}")
        if not equals:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        try:
            options[name[2:]] = readers[name](value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    if len(numbers) != count:
        raise ValueError(f"expected {count} numeric argument(s), got {len(numbers)}")
    return options, numbers


_SWEEP_OPTIONS = {
    "--branch": _branch,
    "--stage": _choice(*STAGES),
    "--grid": _choice("linear", "log"),  # defaults to the branch's first canonical panel
    "--start": _number,
    "--stop": _number,
    "--count": int,
    "--output": str,  # records go to this file instead of stdout
}


def _print_value(value: float) -> None:
    print(f"{value:.17g}")


def _run_sweep(args: list[str]) -> int:
    opts, _ = _parse_options(args, _SWEEP_OPTIONS, 0)
    branch, count = opts.get("branch", Branch.PRINCIPAL), opts.get("count", 1000)
    start, stop = opts.get("start"), opts.get("stop")
    if "grid" not in opts and start is None and stop is None:
        grid = default_panels(branch)[0]._replace(count=count)
    elif start is None or stop is None:
        return _fail_usage("sweep needs both --start and --stop (or neither)")
    else:
        grid = GridSpec(opts.get("grid", "linear"), start, stop, count)

    # Opened before the sweep, so a path that cannot be written fails at
    # once; a failed write, to the file or to stdout, is main's to report.
    try:
        out = None if "output" not in opts else open(opts["output"], "w", encoding="ascii")
    except OSError as exc:  # e.g. an --output path in a missing directory
        return _fail_usage(str(exc))
    with contextlib.nullcontext(sys.stdout) if out is None else out as stream:
        report = accuracy_sweep(branch, opts.get("stage", "approximation"), grid)
        write_report(report, stream)
    print(f"min_delta = {report.min_delta!r} over {report.grid.describe()}", file=sys.stderr)
    return 0


def run_cli(argv: list[str]) -> int:
    """Run one CLI request; returns the process exit code."""
    if not argv:
        return _fail_usage("missing arguments")
    if "-h" in argv or "--help" in argv:
        print(_USAGE, end="")
        return 0
    head, rest = argv[0], argv[1:]
    try:
        if head == "sweep":
            return _run_sweep(rest)
        if head == "approx":
            _print_value(lambert_w_approximation(*_parse_branch_x(rest)))
        elif head == "moyal-inverse":
            opts, (y,) = _parse_options(rest, {"--side": _choice(*MOYAL_SIDES)}, 1)
            _print_value(moyal_inverse(y, opts.get("side", "plus")))
        elif head == "gh-inverse":
            _, (y, x_max) = _parse_options(rest, {}, 2)
            roots = gh_inverse(y, x_max)
            print(f"{roots.left:.17g} {roots.right:.17g}")
        else:  # eval, or the bare positional form: every argument must be numeric
            _print_value(lambert_w(*_parse_branch_x(rest if head == "eval" else argv)).value)
    except DomainError as exc:
        print(f"lambert-w: domain error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail_usage(str(exc))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        code = run_cli(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # here, so that a failed write raises inside the try
    except OSError as exc:
        # stdout cannot take the output: point it at devnull so that the
        # flush at interpreter exit fails no more.  A reader that closed
        # the pipe early is no error, so that exit is quiet, as by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"lambert-w: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
