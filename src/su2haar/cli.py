# an assignment, not a bare docstring: `python -OO` would strip the usage that --help prints
__doc__ = """Command-line interface: JSON in, JSON envelope out.

usage:
  su2haar integrate FILE [--mc SAMPLES] [--seed N]
  su2haar power-scan FILE --pmax N [--with-h L,A,B] [--mc SAMPLES] [--seed N]
  su2haar hull FILE
  su2haar threshold FILE --h L,A,B
  su2haar fuzz --seed N --trials N [--lmax L] [--kmax K] [--pmax N] [--rank2-bias B] [--out PATH]
  su2haar verify

A flag is `--flag value` or `--flag=value`, named in full; when it repeats,
the last one wins, and after `--` every item is a positional.  `-h` or
`--help` prints this text.

Exit codes: 0 success, 2 unreadable/invalid input or usage, or output that
cannot be written, 3 threshold precondition violated (origin inside hull),
4 fuzz found a violation, 5 verification suite failure.  Diagnostics go to
stderr; stdout carries JSON only (JSON-lines for fuzz streams).
"""

import json
import os
import sys
import time
from decimal import Decimal
from types import SimpleNamespace

from . import __version__
from ._kernel import backend_name
from .harness import FuzzConfig, fuzz, run_verification_suite
from .hull import OriginInHullError, SupportHull, hull_certificate, vanishing_threshold
from .integrals import ProductSpec, integrate_product
from .numeric import mc_integral, mc_scan
from .powers import FiniteFunction, power_scan
from .scalars import half_str, parse_half
from .wigner import MatrixElementIndex


class InputError(Exception):
    """Invalid input file or flag value; maps to exit code 2."""


def _load(path: str, parse):
    """parse(obj) of the JSON object in `path`; every fault is an InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=Decimal)     # a JSON number keeps every digit
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:   # bad JSON or UTF-8, an integer over the digit limit, deep nesting
        raise InputError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    schema = obj.get("schema", 1)
    if type(schema) is not int or schema != 1:          # True == 1 == 1.0 in Python
        raise InputError(f"{path}: unsupported schema {float(schema) if isinstance(schema, Decimal) else schema!r}")
    try:
        return parse(obj)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None


def parse_index_flag(text: str, flag: str) -> MatrixElementIndex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InputError(f"{flag}: expected 'l,m,n', got {text!r}")
    try:
        return MatrixElementIndex.of(*parts)
    except ValueError as e:
        raise InputError(f"{flag}: {e}") from None


def _check_mc(ns) -> None:
    if ns.mc < 0:
        raise InputError("--mc must be >= 0")
    if ns.mc and ns.seed < 0:
        raise InputError("--seed must be >= 0 with --mc")


def _numeric(estimates) -> list:
    """The `numeric` block of each McEstimate that estimates() returns; a float overflow exits 2."""
    try:
        return [
            {"mean_re": est.mean.real, "mean_im": est.mean.imag, "std_error": est.std_error, "samples": est.samples}
            for est in estimates()
        ]
    except OverflowError:
        raise InputError("--mc: a coefficient is too large for floating point") from None


def _cmd_integrate(ns):
    _check_mc(ns)
    spec = _load(ns.file, ProductSpec.from_json)
    fields = {"exact": integrate_product(spec).to_json()}
    if ns.mc:
        numeric, = _numeric(lambda: [mc_integral(spec, samples=ns.mc, seed=ns.seed)])
        fields.update(numeric=numeric, seed=ns.seed)
    return fields, 0


def _cmd_power_scan(ns):
    if ns.pmax < 1:
        raise InputError("--pmax must be >= 1")
    _check_mc(ns)
    f = _load(ns.file, FiniteFunction.from_json)
    witness = parse_index_flag(ns.with_h, "--with-h") if ns.with_h is not None else None
    rows = [{"P": p, "exact": value.to_json()} for p, value in power_scan(f, ns.pmax, witness=witness)]
    fields = {"scan": rows, "pmax": ns.pmax}
    if witness is not None:
        fields["with_h"] = ns.with_h
    if ns.mc:
        numeric = _numeric(lambda: mc_scan(f, ns.pmax, witness, samples=ns.mc, seed=ns.seed))
        for row, block in zip(rows, numeric):
            row["numeric"] = block
        fields["seed"] = ns.seed
    return fields, 0


def _cmd_hull(ns):
    hull = SupportHull(_load(ns.file, FiniteFunction.from_json).support_points())
    cert = hull_certificate(hull)
    body = {"origin_inside": cert.inside}
    if cert.inside:
        body["weights"] = [str(w) for w in cert.weights]
    else:
        u, v, bound = cert.separator
        body["separator"] = {"u": str(u), "v": str(v), "min_dot": str(bound)}
    return {"hull": body, "support": [[half_str(m2), half_str(n2)] for m2, n2 in hull.points]}, 0


def _cmd_threshold(ns):
    hull = SupportHull(_load(ns.file, FiniteFunction.from_json).support_points())
    witness = parse_index_flag(ns.h, "--h")
    try:
        p0 = vanishing_threshold(hull, (witness.m2, witness.n2))
    except OriginInHullError as e:
        print(f"error: {e}", file=sys.stderr)
        return None, 3
    return {"threshold": p0, "witness": witness.to_json()}, 0


# the flag of each FuzzConfig field; a FuzzConfig message starts with its field
_FUZZ_FLAGS = {
    "trials": "--trials", "k_max": "--kmax", "p_max": "--pmax",
    "l_max2": "--lmax", "rank2_bias": "--rank2-bias",
}


def _cmd_fuzz(ns):
    try:
        l_max2 = parse_half(ns.lmax)
    except ValueError as e:
        raise InputError(f"--lmax: {e}") from None
    try:
        cfg = FuzzConfig(
            seed=ns.seed,
            trials=ns.trials,
            l_max2=l_max2,
            k_max=ns.kmax,
            p_max=ns.pmax,
            rank2_bias=ns.rank2_bias,
        )
    except ValueError as e:
        raise InputError(f"{_FUZZ_FLAGS[str(e).split()[0]]}: {e}") from None
    reports, summary = fuzz(cfg)
    lines = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
    lines.append(json.dumps(summary.to_json(), sort_keys=True))
    out = "\n".join(lines) + "\n"
    if ns.out is not None:
        try:
            with open(ns.out, "a", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as e:
            raise InputError(f"cannot write {ns.out}: {e}") from None
        out = {"summary": summary.to_json(), "out": ns.out, "seed": ns.seed}
    if summary.violations:
        print(
            f"violation at trial {summary.violations[0]}; reproduction data in the last report",
            file=sys.stderr,
        )
    return out, 4 if summary.violations else 0


def _cmd_verify(ns):
    report = run_verification_suite()
    for item in report.items:
        status = "PASS" if item.passed else "FAIL"
        print(f"{status} {item.name}: {item.detail}", file=sys.stderr)
    failed = [i.name for i in report.items if not i.passed]
    if failed:
        print(f"failed items: {', '.join(failed)}", file=sys.stderr)
    return {"verification": report.to_json()}, 5 if failed else 0


_REQUIRED = object()                    # the default of a flag that must be given
# the fuzz flags default to the FuzzConfig fields, so the two cannot disagree
_FUZZ_DEFAULT = FuzzConfig._field_defaults
_MC_FLAGS = {"--mc": (int, 0), "--seed": (int, 0)}
# command -> (handler, positional names, {flag: (type, default)}); a flag's attribute is
# its name without the dashes, "-" read as "_".  A handler returns (out, exit code):
# out is the envelope's fields, the text of a fuzz stream, or None for no stdout
_COMMANDS = {
    "integrate": (_cmd_integrate, ("file",), _MC_FLAGS),
    "power-scan": (_cmd_power_scan, ("file",), {"--pmax": (int, _REQUIRED), "--with-h": (str, None),
                                                **_MC_FLAGS}),
    "hull": (_cmd_hull, ("file",), {}),
    "threshold": (_cmd_threshold, ("file",), {"--h": (str, _REQUIRED)}),
    "fuzz": (_cmd_fuzz, (), {"--seed": (int, _REQUIRED), "--trials": (int, _REQUIRED),
                             "--lmax": (str, half_str(_FUZZ_DEFAULT["l_max2"])),
                             "--kmax": (int, _FUZZ_DEFAULT["k_max"]), "--pmax": (int, _FUZZ_DEFAULT["p_max"]),
                             "--rank2-bias": (float, _FUZZ_DEFAULT["rank2_bias"]), "--out": (str, None)}),
    "verify": (_cmd_verify, (), {}),
}


def parse_argv(argv: list) -> SimpleNamespace | None:
    """The command (`cmd`), its positionals and its flags by `_COMMANDS`, or None to print the usage.

    None when -h or --help is the command or stands where a flag may (before `--`, not as a flag's value),
    over any misuse in the same argv; otherwise misuse raises InputError naming the first fault met.
    """
    if not argv:
        raise InputError("expected a command: " + ", ".join(_COMMANDS))
    cmd, rest = argv[0], iter(argv[1:])
    if cmd in ("-h", "--help"):
        return None
    # a fault is held until the walk ends, since a later -h still asks for the usage
    fault = None if cmd in _COMMANDS else InputError(f"{cmd}: unknown command, expected one of {', '.join(_COMMANDS)}")
    _, names, flags = _COMMANDS.get(cmd, (None, (), {}))
    given, positionals = {}, []
    for arg in rest:
        if arg == "--":                 # the rest are positionals, whatever they start with
            positionals += rest
        elif arg in ("-h", "--help"):
            return None
        elif not arg.startswith("--"):
            positionals.append(arg)
        else:
            flag, eq, value = arg.partition("=")
            if flag not in flags:
                fault = fault or InputError(f"{flag}: not a flag of {cmd}")
                continue
            given[flag] = value if eq else next(rest, None)
            if given[flag] is None:
                fault = fault or InputError(f"{flag}: expected a value")
    if fault:
        raise fault
    if len(positionals) != len(names):
        raise InputError(f"{cmd}: takes {len(names)} positional argument(s), got {positionals}")
    ns = SimpleNamespace(cmd=cmd, **dict(zip(names, positionals)))
    for flag, (kind, default) in flags.items():
        if flag not in given and default is _REQUIRED:
            raise InputError(f"{flag}: required by {cmd}")
        try:
            if kind is not str and "_" in given.get(flag, ""):   # int() and float() read "1_0" as 10
                raise ValueError
            value = kind(given[flag]) if flag in given else default
        except ValueError:
            raise InputError(f"{flag}: invalid {kind.__name__} value: {given[flag]!r}") from None
        setattr(ns, flag[2:].replace("-", "_"), value)
    return ns


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = parse_argv(argv)
        started = time.perf_counter()
        out, code = (__doc__, 0) if ns is None else _COMMANDS[ns.cmd][0](ns)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if isinstance(out, dict):
        env = {"schema": 1, "version": __version__, "command": argv, "backend": backend_name(), **out,
               "timing_s": round(time.perf_counter() - started, 6)}
        out = json.dumps(env, sort_keys=True) + "\n"
    try:
        sys.stdout.write(out or "")
        sys.stdout.flush()
    except OSError as e:
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        # the text stays buffered: the flush at exit writes it nowhere rather than failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
