"""Command-line front end: sweeps, ratio scans and convergence studies.

Exit codes: 0 on success, 1 for an invalid specification or command line,
2 when the run finished but some grid points are flagged.
"""

from __future__ import annotations

import contextlib
import math
import sys

import click

from . import families
from .sweep import (SweepSpec, continuity_report, convergence_scan, csv_cell,
                    gamma_comparison, ratio_scan, rows_to_csv, run_sweep,
                    write_csv, write_json)


def _number(text: str) -> float:
    """Parse a float, accepting simple fractions like 1/3."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    if text.lower() in ("inf", "+inf"):
        return math.inf
    return float(text)


def _number_list(text: str) -> list[float]:
    return [_number(item) for item in text.split(",") if item.strip()]


def _labels(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


#: The config file's sections, their keys and each key's parser; the key
#: tensor sets the spec's labels, every other key the field of its name.
_CONFIG = {
    "sweep": {"model": str, "method": str, "param": str, "start": float, "stop": float,
              "points": int, "spacing": str, "tensor": _labels},
    "parameters": {"g": float, "gamma": float, "eta": float, "omega": float,
                   "theta": float, "j": float},
    "truncation": {"n_max": int, "n_max_b": int, "sector": str},
    "output": {"out": str, "workers": int},
}


def _read_config(path: str) -> dict:
    """The spec values of a config file; a section or key outside ``_CONFIG``
    raises ``ValueError`` with its name."""
    import configparser  # only a --config run needs it

    # no section is shared with the others, so a [DEFAULT] one is unknown too
    parser = configparser.ConfigParser(default_section="")
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    values: dict = {}
    for section in parser.sections():
        if section not in _CONFIG:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _CONFIG[section]:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            values["labels" if key == "tensor" else key] = _CONFIG[section][key](raw)
    return values


def _settings(config: str | None, overrides: dict) -> dict:
    """The config file's values, if one is given, under every flag that is set."""
    values = _read_config(config) if config else {}
    values.update((key, val) for key, val in overrides.items() if val is not None)
    if "model" not in values:
        raise ValueError("a model is required (flag --model or config key model)")
    return values


def _build_spec(config: str | None, overrides: dict) -> SweepSpec:
    return SweepSpec(**_settings(config, overrides))


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _line(*cells) -> str:
    return ",".join(csv_cell(cell) for cell in cells)


def _emit(lines: list[str], out: str | None) -> None:
    """Write a table's lines to the file ``out``, or to stdout without one."""
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


@contextlib.contextmanager
def _usage_error_exits_one():
    # click exits 2 on a usage error, the code that means "flagged points" here
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _Group(click.Group):
    """Command group whose usage errors, its own or a subcommand's, exit 1."""

    def make_context(self, *args, **kwargs):
        with _usage_error_exits_one():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_error_exits_one():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Ground-state quantum geometry of the anisotropic Dicke model."""


_shared = [
    click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
                 help="INI file with [sweep]/[parameters]/[truncation]/[output] sections."),
    click.option("--model", type=click.Choice(families.MODEL_CHOICES), default=None),
    click.option("--method", type=click.Choice(("sum", "solve", "fd")),
                 default=None),
    click.option("--eta", type=float, default=None, help="Frequency ratio Omega/omega."),
    click.option("--j", type=float, default=None, help="Spin length (half-integer)."),
    click.option("--omega", type=float, default=None),
    click.option("--theta", type=float, default=None),
    click.option("--nmax", "n_max", type=int, default=None, help="Fock cutoff."),
    click.option("--nmax-b", "n_max_b", type=int, default=None,
                 help="Second-mode cutoff for the two-mode models."),
    click.option("--sector", type=click.Choice(("positive", "negative", "full")),
                 default=None),
]


def _with_shared(func):
    for opt in reversed(_shared):
        func = opt(func)
    return func


@main.command("sweep")
@_with_shared
@click.option("--gamma", type=str, default=None, help="Coupling ratio (accepts 1/3).")
@click.option("--param", type=str, default=None, help="Swept parameter (g or a primary).")
@click.option("--from", "start", type=float, default=None)
@click.option("--to", "stop", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--spacing", type=click.Choice(("linear", "log")), default=None)
@click.option("--g", type=float, default=None, help="Fixed g when sweeping another parameter.")
@click.option("--tensor", type=str, default=None, help="Tensor labels, e.g. theta,omega.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "json_out", type=click.Path(dir_okay=False), default=None,
              help="Also write the rows as a JSON array.")
@click.option("--workers", type=int, default=None)
def sweep_cmd(config, json_out, tensor, gamma, **overrides):
    """Run a declarative parameter sweep and emit CSV (stdout or --out)."""
    if tensor is not None:
        overrides["labels"] = _labels(tensor)
    if gamma is not None:
        overrides["gamma"] = _number(gamma)
    try:
        spec = _build_spec(config, overrides)
        spec.validate()
    except (ValueError, TypeError, KeyError, OSError) as exc:
        _fail(str(exc))
    rows = run_sweep(spec)
    if spec.model in families.AUTO_MODELS and spec.param == "g" \
            and min(spec.start, spec.stop) < 1.0 < max(spec.start, spec.stop):
        click.echo(continuity_report(spec), err=True)
    if spec.out:
        write_csv(rows, spec.out)
    else:
        click.echo(rows_to_csv(rows), nl=False)
    if json_out:
        write_json(rows, json_out)
    sys.exit(2 if any(not row.converged for row in rows) else 0)


@main.command("gamma-compare")
@_with_shared
@click.option("--g", type=float, default=None, help="Fixed g (or config key g).")
@click.option("--gammas", type=str, required=True, help="Comma list, e.g. 1/3,1/2,1,2,3.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gamma_compare_cmd(config, gammas, **overrides):
    """Fisher information of omega per coupling ratio at fixed g.

    The model, g, the fixed parameters, the truncation, the method and the
    output file are read from --config as ``sweep`` reads them, and flags
    override the file.  The ratios come from --gammas alone, so a config
    key gamma is refused.  Keys that only shape a sweep (its grid, tensor
    labels, workers) are not used.  An entry whose point fails reads nan;
    the run then exits 2 with a note on stderr.
    """
    try:
        values = _settings(config, overrides)
        if "gamma" in values:
            raise ValueError("gamma-compare takes its coupling ratios from --gammas, "
                             "not from the config key gamma")
        if "g" not in values:
            raise ValueError("a coupling is required (flag --g or config key g)")
        kwargs = {k: values[k] for k in ("eta", "omega", "theta", "j", "n_max", "n_max_b",
                                         "sector", "method") if k in values}
        result = gamma_comparison(values["g"], _number_list(gammas), values["model"],
                                  **kwargs)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        _fail(str(exc))
    lines = ["gamma,I_omega_omega"] + [_line(*entry) for entry in result.entries]
    increasing = ("undefined" if result.strictly_increasing is None
                  else str(result.strictly_increasing).lower())
    lines.append(f"# strictly_increasing={increasing}"
                 f" reciprocal_asymmetry={format(result.reciprocal_asymmetry, '.3e')}")
    _emit(lines, values.get("out"))
    flagged = [gv for gv, iv in result.entries if math.isnan(iv)]
    if flagged:
        click.echo(f"note: {len(flagged)} of {len(result.entries)} entries flagged "
                   f"(gamma = {', '.join(format(gv, 'g') for gv in flagged)}); "
                   "the summaries cover the finite entries", err=True)
    sys.exit(2 if flagged else 0)


@main.command("ratio-scan")
@click.option("--j-list", type=str, required=True, help="Comma list of spin lengths.")
@click.option("--gamma-list", type=str, required=True)
@click.option("--eta-list", type=str, required=True)
@click.option("--g", type=float, required=True)
@click.option("--omega", type=float, default=1.0)
@click.option("--theta", type=float, default=0.0)
@click.option("--nmax", "n_max", type=int, default=60)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def ratio_scan_cmd(j_list, gamma_list, eta_list, g, omega, theta, n_max, out):
    """Finite-size over effective-limit QFI ratios across (j, gamma, eta)."""
    try:
        rows = ratio_scan(_number_list(j_list), _number_list(gamma_list),
                          _number_list(eta_list), g, omega=omega, theta=theta,
                          n_max=n_max)
    except (ValueError, TypeError) as exc:
        _fail(str(exc))
    lines = ["j,gamma,eta,I_lab,I_eff,ratio,converged"]
    lines += [_line(row.j, row.gamma, row.eta, row.qfi_lab, row.qfi_eff, row.ratio,
                    row.converged) for row in rows]
    _emit(lines, out)
    sys.exit(2 if any(not row.converged for row in rows) else 0)


@main.command("converge")
@_with_shared
@click.option("--gamma", type=str, default=None, help="Coupling ratio (accepts 1/3).")
@click.option("--param", type=str, default=None)
@click.option("--from", "start", type=float, default=None)
@click.option("--to", "stop", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--spacing", type=click.Choice(("linear", "log")), default=None)
@click.option("--g", type=float, default=None)
@click.option("--nmax-list", type=str, required=True, help="Comma list of cutoffs.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def converge_cmd(config, nmax_list, gamma, **overrides):
    """Cutoff-convergence study of I_omega_omega over the sweep grid."""
    if gamma is not None:
        overrides["gamma"] = _number(gamma)
    out = overrides.pop("out", None)
    overrides.pop("n_max", None)
    try:
        cutoffs = [int(v) for v in _number_list(nmax_list)]
        spec = _build_spec(config, overrides)
        points = convergence_scan(spec, cutoffs)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        _fail(str(exc))
    lines = ["value," + ",".join(f"I_nmax_{c}" for c in points[0].cutoffs)
             + ",converged,converged_at"]
    lines += [_line(pt.value, *pt.qfi, pt.converged, pt.converged_at) for pt in points]
    _emit(lines, out)
    sys.exit(2 if any(not pt.converged for pt in points) else 0)


if __name__ == "__main__":
    main()
