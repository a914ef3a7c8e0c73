"""usage: qrh [--seed S] [--tol T] [--format text|json|csv] [--digits D] [--config FILE] COMMAND
  qrh eval FUNCTION name=value ...
  qrh grid FUNCTION name=value ... (--t-re min:max:n --t-im min:max:n | --annulus rmin:rmax:nr:nphi) [--out FILE]
  qrh verify SUITE|all [--samples N] [--seed S] [--tol T] [--out FILE]
  qrh report [--seed S] [--tol T] [--out FILE]

A flag is --name value or --name=value, or a unique prefix of its name; a later
flag wins.  Defaults: --seed 42, --format text, --digits 17 (the cap); flags beat --config.

Exit codes: 0 finite value / all suites pass, 2 pole-signal, 64 usage error
(unknown function or suite, bad argument, flag or grid spec), 65 malformed
or non-finite complex literal, malformed config or BPS file, 73 unwritable
output path, 1 verification failure.

Complex literals are accepted as "a+bi" (also "bi", "a") or "a,b";
vector-valued arguments are comma-separated lists of a+bi literals, so
"--a 1,1" is the two-parameter vector (1, 1).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import json
import math
import os
import pickle
import re
import signal
import sys
import types

from . import bps as bps_mod
from . import rhsolver as rh
from .signals import DomainError, PoleSignal, outcome
from .special import (
    barnes_zeta,
    delta_fn,
    f_fn,
    lambda_fn,
    log_gamma1,
    log_gamma2,
    quantum_dilog,
    upsilon_fn,
)
from .bernoulli import multi_bernoulli
from .suites import SUITES, run_suite

EX_USAGE = 64
EX_DATAERR = 65
EX_CANTCREAT = 73
EX_SIGNAL = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# typed arguments


def parse_complex(text: str) -> complex:
    """Parse "a+bi", "bi", "a", or "a,b"; locale-independent, finite only."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise CliError(f"empty complex literal", EX_DATAERR)
    if "," not in s:
        return _parse_cartesian(s, text)
    try:
        re_part, im_part = (float(p) for p in s.split(","))
    except ValueError:  # also a count of parts other than two
        raise CliError(f"malformed complex literal {text!r}", EX_DATAERR) from None
    return _finite(complex(re_part, im_part), text)


def _parse_cartesian(s: str, original: str) -> complex:
    s2 = s.replace("I", "i").replace("j", "i")
    s2 = re.sub(r"(^|[+\-*])i", r"\g<1>1i", s2)
    s2 = s2.replace("i", "j")
    try:
        value = complex(s2)
    except ValueError:
        raise CliError(f"malformed complex literal {original!r}", EX_DATAERR) from None
    return _finite(value, original)


def _finite(value: complex, original: str) -> complex:
    if not cmath.isfinite(value):
        raise CliError(f"non-finite complex literal {original!r}", EX_DATAERR)
    return value


def parse_vector(text: str) -> tuple[complex, ...]:
    """Comma-separated a+bi literals (the "a,b" scalar form is not allowed here)."""
    parts = str(text).split(",")
    return tuple(_parse_cartesian(p.strip().replace(" ", ""), p) for p in parts)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"must be an integer, got {text!r}", EX_USAGE) from None


_SIDES = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}


def _parse_side(text: str) -> int:
    if text not in _SIDES:
        raise CliError(f"must be +1 or -1, got {text!r}", EX_USAGE)
    return _SIDES[text]


def _parse_spec(text: str, types: tuple, usage: str) -> tuple:
    """Colon-separated grid spec, one field per type: finite floats, counts >= 1."""
    try:
        values = tuple(t(p) for t, p in zip(types, text.split(":"), strict=True))
    except ValueError:
        raise CliError(f"{usage}, got {text!r}", EX_USAGE) from None
    for t, v in zip(types, values):
        if (t is float and not math.isfinite(v)) or (t is int and v < 1):
            raise CliError(f"{usage} with finite bounds and counts >= 1, got {text!r}", EX_USAGE)
    return values


def load_instance(path: str) -> rh.RHInstance:
    """The RH instance of a BPS structure JSON file (schema in the README).

    The file is read on every call; the instance built from its bytes is kept
    (see _instance), so a file read again unchanged is neither parsed nor
    verified again, and a changed one is.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return _instance(data)
    except OSError as exc:
        raise CliError(f"cannot read bps file {path!r}: {exc}", EX_USAGE) from None
    # ValueError covers json.JSONDecodeError, UnicodeDecodeError and
    # DomainError (an unsupported structure)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed bps file {path!r}: {exc!r}", EX_DATAERR) from None


@functools.lru_cache(maxsize=8)
def _instance(data: bytes) -> rh.RHInstance:
    """The RHInstance of a BPS file's bytes, kept for the last few distinct
    contents and shared by every caller, which must not modify it; a content
    that raises is not kept."""
    return rh.RHInstance(*bps_mod.structure_from_dict(bps_mod.parse_json(data.decode("utf-8"))))


_KINDS = {
    "int": _parse_int,
    "complex": parse_complex,
    "vector": parse_vector,
    "side": _parse_side,
    "bps": load_instance,
    "axis": lambda text: _parse_spec(text, (float, float, int), "grid axis must be min:max:n"),
    "annulus": lambda text: _parse_spec(
        text, (float, float, int, int), "annulus must be rmin:rmax:nr:nphi"
    ),
}


def parse_arg(kind: str, text: str):
    """The typed value of one argument token, or CliError (64 usage, 65 data).

    Kinds: int, complex, vector (tuple of complex), side (+1 or -1), bps (the
    RHInstance loaded from a file path), axis (min, max, n) and annulus
    (rmin, rmax, nr, nphi).
    """
    return _KINDS[kind](text)


def _bind(name: str, spec, raw: dict) -> dict:
    """Typed values of the spec's arguments from name -> token; side defaults to +1."""
    args = {}
    for arg, kind in spec:
        if arg in raw:
            try:
                args[arg] = parse_arg(kind, raw[arg])
            except CliError as exc:
                raise CliError(f"argument {arg}: {exc}", exc.code) from None
        elif kind == "side":
            args[arg] = 1
        else:
            raise CliError(f"missing argument {arg}=... for {name}", EX_USAGE)
    unknown = set(raw) - set(args)
    if unknown:
        raise CliError(f"unknown arguments for {name}: {', '.join(sorted(unknown))}", EX_USAGE)
    return args


# ---------------------------------------------------------------------------
# evaluation registry: name -> (argument spec, function of the spec's
# arguments in spec order)

EVAL_FUNCTIONS: dict = {
    "bernoulli": ([("N", "int"), ("k", "int"), ("x", "complex"), ("a", "vector")], multi_bernoulli),
    "zeta": ([("N", "int"), ("s", "complex"), ("x", "complex"), ("a", "vector")], barnes_zeta),
    "gamma1": ([("x", "complex"), ("a", "complex")], lambda x, a: cmath.exp(log_gamma1(x, a))),
    "gamma2": (
        [("x", "complex"), ("omega1", "complex"), ("omega2", "complex")],
        lambda x, w1, w2: cmath.exp(log_gamma2(x, w1, w2)),
    ),
    "lambda": ([("w", "complex"), ("eta", "complex"), ("omega", "complex")], lambda_fn),
    "f": ([("w", "complex"), ("eta", "complex"), ("omega1", "complex"), ("omega2", "complex")], f_fn),
    "eq": ([("q", "complex"), ("x", "complex")], quantum_dilog),
    "delta": ([("w", "complex"), ("eta", "complex")], delta_fn),
    "upsilon": ([("w", "complex"), ("theta", "complex")], upsilon_fn),
    "psi_a1": (
        [("z", "complex"), ("t", "complex"), ("tau", "complex"), ("theta", "complex"), ("side", "side")],
        rh.adjoint_psi_a1,
    ),
    "psi_general": (
        [("bps", "bps"), ("r", "complex"), ("t", "complex"), ("tau", "complex"), ("theta", "vector")],
        rh.adjoint_general,
    ),
    "hamiltonian": (
        [("z", "complex"), ("t", "complex"), ("theta", "complex"), ("side", "side")],
        rh.hamiltonian_limit,
    ),
    "tau": (
        [("z", "complex"), ("t", "complex"), ("theta", "complex"), ("side", "side")],
        rh.tau_function_limit,
    ),
}


#: Grid functions: name -> evaluator of the eval spec's arguments with the
#: point list in the `t` slot, giving the outcome (signals.outcome) at each
#: point; each evaluates all its points in one batch.
GRID_FUNCTIONS = {
    "psi_a1": rh.adjoint_psi_a1_many,
    "psi_general": rh.adjoint_general_many,
    "hamiltonian": rh.hamiltonian_limit_many,
    "tau": rh.tau_function_limit_many,
}


# ---------------------------------------------------------------------------
# config and output

FORMATS = ("text", "json", "csv")

#: Settings a global flag or the config can set, with their defaults; an
#: explicit flag beats the config, which beats the default.
DEFAULTS = {"seed": 42, "format": "text", "digits": 17}

#: The values each config key accepts.
_CONFIG_VALID = {
    "seed": lambda v: type(v) is int and v >= 0,
    "format": lambda v: v in FORMATS,
    "digits": lambda v: type(v) is int and v >= 0,
    "tolerances": lambda v: isinstance(v, dict)
    and all(k in SUITES and type(x) in (int, float) and 0 < x < math.inf for k, x in v.items()),
}


def load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = bps_mod.parse_json(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}", EX_USAGE) from None
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise CliError(f"malformed config {path!r}: {exc}", EX_DATAERR) from None
    if not isinstance(config, dict):
        raise CliError(f"config {path!r} must be a JSON object", EX_DATAERR)
    unknown = set(config) - set(_CONFIG_VALID)
    if unknown:
        raise CliError(f"config {path!r}: unknown keys {', '.join(sorted(unknown))}", EX_DATAERR)
    for key, valid in _CONFIG_VALID.items():
        if key in config and not valid(config[key]):
            raise CliError(f"config {path!r}: invalid {key} {config[key]!r}", EX_DATAERR)
    return config


def _number(digits: int) -> str:
    """The %-format of one printed float: repr, its shortest round trip, at 17
    digits, else %.<digits>g."""
    return "%r" if digits >= 17 else f"%.{digits}g"


def _fmt(x: float, digits: int) -> str:
    return _number(digits) % float(x)


def _row_formats(digits: int, lead: int = 0) -> tuple[str, str]:
    """The %-templates of a CSV row of `lead` numbers followed by the
    value_re,value_im,status cells of one outcome (signals.outcome): for a
    value, taking lead + 2 numbers, and for a signal or an error, taking lead
    numbers and its status."""
    lead = [_number(digits)] * lead
    return ",".join(lead + [_number(digits)] * 2 + ["ok"]), ",".join(lead + ["", "", "%s"])


#: The header of the cells that _cells writes.
_CELLS_HEADER = "value_re,value_im,status"


def _status(v) -> str:
    """The status cell of an outcome that is not a value."""
    if isinstance(v, PoleSignal):
        return v.kind
    return "excluded-ray" if "excluded ray" in str(v) else "domain"


def _cells(v, digits: int) -> str:
    """The value_re,value_im,status cells of one outcome, as `eval --format
    csv` prints them and as every grid row ends (see _row_formats)."""
    ok, failed = _row_formats(digits)
    return ok % (v.real, v.imag) if isinstance(v, complex) else failed % _status(v)


def _print_outcome(name: str, args: dict, v, fmt: str, digits: int) -> None:
    """Print one eval outcome, a value or a PoleSignal (signals.outcome)."""
    if fmt == "csv":
        print(_CELLS_HEADER)
        print(_cells(v, digits))
    elif fmt == "json":
        if isinstance(v, PoleSignal):
            location = complex(v.location)
            doc = {"status": v.kind, "location": [location.real, location.imag], "source": v.source}
        else:
            args = {k: _jsonable(x) for k, x in args.items()}
            doc = {"args": args, "value": [v.real, v.imag], "status": "ok"}
        print(json.dumps({"function": name, **doc}, sort_keys=True))
    elif isinstance(v, PoleSignal):
        print(f"{name}: {v}")
    else:
        sign = "+" if v.imag >= 0 else "-"
        print(f"{name} = {_fmt(v.real, digits)} {sign} {_fmt(abs(v.imag), digits)}i")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}", EX_CANTCREAT) from None


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# commands


def _parse_kv_tokens(tokens: list) -> dict:
    """Accept either "name=value" pairs or "--name value" / "--name=value",
    each name at most once and none empty ("--", "--=3" and "=3" are refused)."""
    out = {}
    it = iter(tokens)
    for tok in it:
        if "=" in tok:
            k, v = tok.removeprefix("--").split("=", 1)
        elif tok.startswith("--"):
            k, v = tok[2:], None
        else:
            raise CliError(f"arguments must look like name=value or --name value, got {tok!r}", EX_USAGE)
        if not k:
            raise CliError(f"argument {tok!r} has no name", EX_USAGE)
        if v is None:
            v = next(it, None)
            if v is None:
                raise CliError(f"flag {tok} needs a value", EX_USAGE)
        if k in out:
            raise CliError(f"argument {k} given more than once", EX_USAGE)
        out[k] = v
    return out


def cmd_eval(ns, config: dict) -> int:
    name = ns.function
    if name not in EVAL_FUNCTIONS:
        raise CliError(f"unknown function {name!r}; choose from {', '.join(EVAL_FUNCTIONS)}", EX_USAGE)
    spec, fn = EVAL_FUNCTIONS[name]
    raw = _parse_kv_tokens(ns.args)
    args = _bind(name, spec, raw)
    value = outcome(fn, *args.values())
    if isinstance(value, DomainError):
        print(f"{name}: {value}", file=sys.stderr)
        return EX_USAGE
    # a loaded BPS structure is shown by its file path
    shown = {k: raw[k] if isinstance(v, rh.RHInstance) else v for k, v in args.items()}
    _print_outcome(name, shown, value, ns.format, ns.digits)
    return EX_SIGNAL if isinstance(value, PoleSignal) else 0


def cmd_verify(ns, config: dict) -> int:
    """Run one suite, or all of them (`verify all`, `report`), and print the
    JSON report.

    The suites are shared among the CPUs of this process's affinity mask
    (see _run_shared); each seeds its own generator, so the output is byte
    for byte the one-CPU output, and `taskset -c 0 qrh report` runs them
    all in this process.  A suite whose result does not come back from a
    worker runs here, so its exception is this process's own.
    """
    if ns.samples is not None and ns.samples < 1:
        raise CliError(f"--samples must be at least 1, got {ns.samples}", EX_USAGE)
    if ns.suite != "all" and ns.suite not in SUITES:
        raise CliError(f"unknown suite {ns.suite!r}; choose from {', '.join(SUITES)} or 'all'", EX_USAGE)
    names = list(SUITES) if ns.suite == "all" else [ns.suite]
    # an explicit --tol beats the config's tolerances
    tols = dict.fromkeys(SUITES, ns.tol) if ns.tol is not None else config.get("tolerances", {})
    reports = _run_shared(
        [functools.partial(run_suite, n, samples=ns.samples, seed=ns.seed, tol=tols.get(n)) for n in names]
    )
    doc = reports[0].to_dict() if len(reports) == 1 else {
        "reports": [r.to_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if ns.out:
        _write(ns.out, text + "\n")
    print(text)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# sharing independent tasks among the CPUs of the affinity mask


def _run_shared(tasks: list) -> list:
    """The results of the argument-free callables `tasks`, in order, as a
    loop over them would give them, or the exception of the first that raises.

    This process and one forked child per further CPU of its affinity mask
    (none with one task, one CPU, or no sched_getaffinity) each claim the
    next task index from one pipe until it is empty; at most 256 tasks.  A
    child sends the results of its tasks that returned back through its own
    pipe, in one pickle when it leaves.  Every task whose result is missing
    then, because it raised or its child died, runs here in index order, so
    an exception is this process's own, as in the loop.  Every child is
    reaped, and every pipe closed, before this returns or raises; on an
    exception here, KeyboardInterrupt included, the children are killed first.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else 1
    children: dict = {}  # pid -> result file, for each child not yet reaped
    queue, feed = os.pipe()
    try:
        with open(feed, "wb") as fh:
            fh.write(bytes(range(len(tasks))))
        for _ in range(min(cpus, len(tasks)) - 1):
            child = _fork_worker(tasks, queue)
            if child is None:
                break
            children[child[0]] = child[1]
        results = _claim(tasks, queue)
        for pid, pipe in list(children.items()):
            # nothing, or a pickle cut short, from a child that died
            with pipe, contextlib.suppress(EOFError, pickle.UnpicklingError):
                results.update(pickle.load(pipe))
            os.waitpid(pid, 0)
            del children[pid]
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(ChildProcessError, ProcessLookupError):  # reaped already
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [results[i] if i in results else task() for i, task in enumerate(tasks)]


def _claim(tasks: list, queue: int) -> dict:
    """index -> result of each task whose index is read from `queue` until it
    is empty and that returns; a task that raises is left out."""
    results = {}
    while index := os.read(queue, 1):
        with contextlib.suppress(Exception):
            results[index[0]] = tasks[index[0]]()
    return results


def _fork_worker(tasks: list, queue: int):
    """(pid, result file) of a forked child that claims tasks from `queue`,
    or None if no child can be started.

    The child leaves through os._exit: it never returns into the caller's
    stack, runs no atexit hook and flushes none of the stdio buffers it
    inherited.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                out.write(pickle.dumps(_claim(tasks, queue)))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _axis(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _grid_points(raw: dict) -> list[complex]:
    """The t values of the grid options popped from raw, in row-major order."""
    t_re = [raw.pop(k) for k in ("t-re", "t_re") if k in raw]
    t_im = [raw.pop(k) for k in ("t-im", "t_im") if k in raw]
    annulus = raw.pop("annulus", None)
    if annulus is not None and not (t_re or t_im):
        rmin, rmax, nr, nphi = parse_arg("annulus", annulus)
        radii = [rmin] if nr == 1 else [rmin + i * (rmax - rmin) / (nr - 1) for i in range(nr)]
        units = [cmath.exp(1j * (2 * math.pi * i / nphi)) for i in range(nphi)]
        return [r * u for r in radii for u in units]
    if annulus is not None or len(t_re) != 1 or len(t_im) != 1:
        raise CliError("grid needs either --annulus or one --t-re and one --t-im", EX_USAGE)
    res = _axis(*parse_arg("axis", t_re[0]))
    ims = _axis(*parse_arg("axis", t_im[0]))
    return [complex(re, im) for im in ims for re in res]


def cmd_grid(ns, config: dict) -> int:
    name = ns.function
    if name not in GRID_FUNCTIONS:
        raise CliError(f"unknown grid function {name!r}; choose from {', '.join(GRID_FUNCTIONS)}", EX_USAGE)
    raw = _parse_kv_tokens(ns.args)
    points = _grid_points(raw)
    out = raw.pop("out", None)
    spec = EVAL_FUNCTIONS[name][0]
    fixed = _bind(name, [(arg, kind) for arg, kind in spec if arg != "t"], raw)
    results = GRID_FUNCTIONS[name](*(points if arg == "t" else fixed[arg] for arg, _ in spec))
    ok, failed = _row_formats(ns.digits, 2)
    rows = [f"t_re,t_im,{_CELLS_HEADER}"]
    rows += [
        ok % (t.real, t.imag, v.real, v.imag)
        if isinstance(v, complex)
        else failed % (t.real, t.imag, _status(v))
        for t, v in zip(points, results)
    ]
    text = "\n".join(rows) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# the command line

def _spellings(flags: dict) -> dict:
    """spelling -> (flag, converter) of `flags` (flag -> converter, None for -h
    and --help), by a name or a prefix of a --name; a prefix of two -> None."""
    out = {}
    for flag, convert in flags.items():
        for k in range(2 if flag[1] == "-" else len(flag), len(flag) + 1):
            out[flag[:k]] = None if flag[:k] in out else (flag, convert)
    return out


#: The spellings of the flags read before the command, and each command's
#: function and the spellings of the flags read after it.
_HELP = {"--help": None, "-h": None}
_GLOBAL = _spellings({"--seed": int, "--tol": float, "--digits": int, "--config": str, **_HELP,
                      "--format": lambda text: FORMATS[FORMATS.index(text)]})  # ValueError off the list
COMMANDS = {
    "eval": (cmd_eval, _spellings(_HELP)),
    "grid": (cmd_grid, _spellings(_HELP)),
    "verify": (cmd_verify, _spellings({"--samples": int, "--out": str, "--seed": int, "--tol": float, **_HELP})),
    "report": (cmd_verify, _spellings({"--out": str, "--seed": int, "--tol": float, **_HELP})),
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flag(tok: str, spellings: dict):
    """(flag, converter, "=" value or None) of a token spelling a flag, (None,
    None, None) of another that looks like one, None of a positional token (no
    leading "-", "-" alone, a negative number, a token with a space)."""
    if tok[:1] != "-" or tok == "-":
        return None
    name, eq, value = tok.partition("=")
    if name in spellings:
        if spellings[name] is None:
            raise CliError(f"ambiguous flag {name}", EX_USAGE)
        return *spellings[name], value if eq else None
    if tok[:2] == "-h":
        return "-h", None, tok[2:]
    return None if " " in tok or _NEGATIVE.match(tok) else (None, None, None)


def _positionals(argv: list, i: int, spellings: dict, ns, unknown: list):
    """Read the flags of `spellings` in argv[i:] into ns and every other flag
    into `unknown`, and yield the index of each positional token; -h or
    --help raises CliError(usage, 0)."""
    for tok in argv[i : argv.index("--", i) if "--" in argv[i:] else len(argv)]:
        _flag(tok, spellings)  # an ambiguous prefix is refused before any flag is read
    while i < len(argv):
        tok, i = argv[i], i + 1
        if tok == "--":
            raise CliError("-- is accepted only after the function name", EX_USAGE)
        flag = _flag(tok, spellings)
        if flag is None:
            yield i - 1
        elif flag[0] is None:
            unknown.append(tok)
        else:
            name, convert, value = flag
            if convert is None:
                raise CliError(__doc__, 0) if value is None else CliError(f"flag {name} takes no value", EX_USAGE)
            if value is None:
                if i == len(argv) or argv[i] == "--" or _flag(argv[i], spellings) is not None:
                    raise CliError(f"flag {name} needs a value", EX_USAGE)
                value, i = argv[i], i + 1
            try:
                setattr(ns, name[2:], convert(value))
            except ValueError:
                raise CliError(f"flag {name}: invalid value {value!r}", EX_USAGE) from None


def read_argv(argv: list):
    """The namespace of a command line (the module's usage), or CliError: code
    0 at -h or --help, 64 at a usage error.  As in argparse, an unknown flag and
    a missing or extra positional are refused at the end, every other error where
    it stands, so -h read before the end prints the usage."""
    ns = types.SimpleNamespace(seed=None, tol=None, format=None, digits=None, config=None, command=None)
    unknown = []
    j = next(_positionals(argv, 0, _GLOBAL, ns, unknown), None)
    if j is not None:
        ns.command = command = argv[j]
        if command not in COMMANDS:
            raise CliError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}", EX_USAGE)
        rest = _positionals(argv, j + 1, COMMANDS[command][1], ns, unknown)
        if command in ("eval", "grid"):
            k = next(rest, None)
            if k is None:
                raise CliError(f"{command} needs a function name", EX_USAGE)
            ns.function, ns.args = argv[k], list(argv[k + 1 :])
        else:
            ns.out = ns.samples = None
            positionals = [argv[k] for k in rest]
            if command == "verify" and not positionals:
                raise CliError("verify needs a suite name or all", EX_USAGE)
            ns.suite = positionals.pop(0) if command == "verify" else "all"
            unknown += positionals
    if unknown:
        raise CliError(f"unknown flag or extra argument {unknown[0]!r}", EX_USAGE)
    return ns


def main(argv=None) -> int:
    try:
        ns = read_argv(sys.argv[1:] if argv is None else argv)
        if any(v is not None and v < 0 for v in (ns.seed, ns.digits)):
            raise CliError("--seed and --digits must be non-negative", EX_USAGE)
        if ns.tol is not None and not 0 < ns.tol < math.inf:
            raise CliError(f"--tol must be finite and positive, got {ns.tol}", EX_USAGE)
        config = load_config(ns.config)
        for key, default in DEFAULTS.items():
            if getattr(ns, key) is None:
                setattr(ns, key, config.get(key, default))
        ns.digits = min(ns.digits, 17)
        if ns.command is None:
            print(__doc__)
            return EX_USAGE
        return COMMANDS[ns.command][0](ns, config)
    except CliError as exc:
        print(str(exc), file=sys.stderr if exc.code else sys.stdout)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
