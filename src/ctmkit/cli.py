"""Command-line interface.

Exit codes: 0 when the run's checks pass, 2 when the run completes but a
statistical or certification check fails, 1 for usage, configuration and
runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    run_eprocess,
    run_optimality,
    run_simulate,
    run_validate,
)

_FLAG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))

_RUNNERS = {
    "simulate": run_simulate,
    "validate": run_validate,
    "optimality": run_optimality,
    "eprocess": run_eprocess,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON object of config keys; flags override it")
    parser.add_argument("--seed", type=int, help="root seed for the whole run")
    parser.add_argument("--horizon", type=int, help="observations per replicate")
    parser.add_argument("--reps", type=int, help="number of replicates")
    parser.add_argument("--null", help="null sampler: bernoulli:P | categorical:P0,P1,.. | "
                                       "normal[:MU,SIGMA] | uniform")
    parser.add_argument("--alt", help="alternative: changepoint:PI0,PI1,RHO | "
                                      "markov:P01,P10[,INIT1] | iid:THETA | iid:P0,P1,.. | "
                                      "pointmass:Z1,Z2,.. | table:PATH")
    parser.add_argument("--measure", help="conformity measure: identity | distmean")
    parser.add_argument("--bettor", help="bayes_kelly | constant | density:PATH")
    parser.add_argument("--dgp", help="data source: null | alt | file:PATH")
    parser.add_argument("--tau-mode", dest="tau_mode",
                        help="tie-breaking: uniform | constant:VALUE")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--rivals", type=int, help="rival betting families to sample "
                                                   "(optimality)")
    parser.add_argument("--example1", help="all-distinct demo data: auto | none | file:PATH")
    parser.add_argument("--jobs", type=int, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmkit",
        description="Conformal test martingales: simulation, validity checks, "
                    "exact optimality certificates and binary e-processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run replicate trajectories and write trajectory.csv + summary.json"),
        ("validate", "check p-value uniformity/independence and unit mean wealth "
                     "under the null"),
        ("optimality", "enumerate the cell tree and certify the expected-log-wealth "
                       "identity"),
        ("eprocess", "binary maximum-likelihood e-process trajectory and e-variable "
                     "table"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
        except ValueError as err:
            raise ConfigError(f"config: {args.config} is not valid JSON: {err}") from err
        if not isinstance(payload, dict):
            raise ConfigError("config: JSON root must be an object of config keys")
        mapping.update(payload)
    for field in _FLAG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            mapping[field] = value
    return ExperimentConfig.from_mapping(mapping)


def _report_lines(command: str, report: dict) -> list:
    if command == "simulate":
        return [
            f"simulate: {report['replicates']} replicates x horizon {report['horizon']}",
            f"mean final wealth {report['mean_final_wealth']:.6g} "
            f"(se {report['se_final_wealth']:.3g})",
            f"audit {'ok' if report['audit_ok'] else 'FAILED'} "
            f"(max rel err {report['audit_max_rel_err']:.3g})",
        ]
    if command == "validate":
        return [
            f"validate: {report['pooled_pvalues']} pooled p-values",
            f"KS uniformity: p={report['ks_pvalue']:.6g} "
            f"{'ok' if report['ks_ok'] else 'FAILED'}",
            f"lag-1 correlation: {report['lag1_correlation']:.6g} "
            f"{'ok' if report['lag1_ok'] else 'FAILED'}",
            f"mean final wealth: {report['mean_final_wealth']:.6g} "
            f"(se {report['se_final_wealth']:.3g}) "
            f"{'ok' if report['wealth_ok'] else 'FAILED'}",
        ]
    if command == "optimality":
        return [
            f"optimality: {report['cells']} cells at horizon {report['horizon']}",
            f"identity gap {report['identity_gap']:.3g} "
            f"{'ok' if report['identity_ok'] else 'FAILED'}",
            f"rival max {report['rival_max_expected_log_wealth']:.9g} vs "
            f"{report['expected_log_wealth']:.9g} "
            f"{'ok' if report['dominance_ok'] else 'FAILED'}",
        ]
    return [
        f"eprocess: horizon {report['horizon']}, final e-value "
        f"{report['final_e_value']:.6g}",
        f"e-variable grid max {report['evar_max_expectation']:.12g} "
        f"{'ok' if report['evar_ok'] else 'FAILED'}",
    ]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; 2 is reserved
        # here for failed statistical checks, so usage problems map to 1.
        return 0 if exc.code == 0 else 1
    try:
        cfg = config_from_args(args)
        report = _RUNNERS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in _report_lines(args.command, report):
        print(line)
    return 0 if report.get("ok") else 2


if __name__ == "__main__":
    sys.exit(main())
