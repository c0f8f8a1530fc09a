"""Command-line interface.

Subcommands:

    jjwafer simulate --preset ref --seed 7 --out wafer.jjw
        synthesize a wafer dataset (text or JSON)
    jjwafer analyze {cap,iv,res,bkd,all} FILE [FILE...]
        run pipeline stages and print reports; --out DIR also writes them
    jjwafer report FILE [FILE...] --out DIR
        full pipeline plus per-area capacitance grid exports

Exit codes: 0 success, 1 invalid input (bad flags, malformed dataset,
bad config, inputs whose outputs share a name), 2 an analysis stage failed
(the report is still produced), 3 filesystem trouble.  With several input
files the worst code wins; files are processed one after another, in order.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .dataset import atomic_write_text, cap_maps, load_dataset, save_dataset
from .errors import DatasetError
from .report import STAGES, AnalysisConfig, analyze, export_wafer_grid, render_json, render_text
from .synthetic import PRESET_NAMES, WaferSpec, generate_wafer, preset_spec

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ANALYSIS = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this CLI reserves 2 for
    analysis failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("analysis parameters")
    group.add_argument("--config", metavar="JSON",
                       help="JSON file with AnalysisConfig fields")
    group.add_argument("--eps-r", type=float, dest="eps_r",
                       help="oxide relative permittivity")
    group.add_argument("--beta", type=float, help="barrier shape factor")
    group.add_argument("--m-rel", type=float, dest="m_rel",
                       help="relative effective carrier mass")
    group.add_argument("--slope-tol", type=float, dest="slope_tol",
                       help="ohmic-window slope tolerance")
    group.add_argument("--fn-r2-min", type=float, dest="fn_r2_min",
                       help="minimum r2 for the field-emission window (moves "
                            "only that window, which no report field reads yet)")
    group.add_argument("--jump-factor", type=float, dest="jump_factor",
                       help="breakdown jump factor")
    group.add_argument("--jump-floor", type=float, dest="jump_floor_a",
                       help="breakdown noise floor [A]")
    group.add_argument("--t-ox", type=float, dest="t_ox_nm",
                       help="override oxide thickness [nm]")


def _config_from_args(args) -> AnalysisConfig:
    base = {}
    if args.config:
        base = dataclasses.asdict(AnalysisConfig.from_json_file(args.config))
    for field in dataclasses.fields(AnalysisConfig):
        value = getattr(args, field.name)
        if value is not None:
            base[field.name] = value
    return AnalysisConfig.from_mapping(base)


def _coerce_field(field: dataclasses.Field, raw: str):
    text = raw.strip()
    hint = str(field.type)
    if "tuple" in hint:
        return tuple(float(tok) for tok in text.split(",") if tok)
    if "None" in hint and text.lower() in ("none", "null"):
        return None
    if hint.startswith("int"):
        return int(text)
    if hint.startswith("str"):
        return text
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jjwafer",
                     description="Room-temperature wafer-scale junction "
                                 "characterization toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sim = sub.add_parser("simulate", help="generate a synthetic wafer dataset",
                         description="Generate a seeded synthetic wafer dataset.")
    sim.add_argument("--preset", choices=PRESET_NAMES,
                     help="etch-series preset; omit for noiseless defaults")
    sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sim.add_argument("--out", required=True, metavar="PATH",
                     help="output dataset path")
    sim.add_argument("--format", choices=("text", "json"), default=None,
                     help="file format (default: by extension, .json or text)")
    sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     dest="overrides",
                     help="override any WaferSpec field, repeatable "
                          "(e.g. --set t_ox_nm=3.5 --set cap_noise_pct=2)")

    ana = sub.add_parser("analyze", help="run analysis stages on datasets",
                         description="Run one stage or the full pipeline.")
    ana.add_argument("stage", choices=STAGES + ("all",),
                     help="pipeline stage to run")
    ana.add_argument("paths", nargs="+", metavar="FILE", help="dataset files")
    ana.add_argument("--format", choices=("text", "json"), default="text",
                     help="report rendering (default text)")
    ana.add_argument("--out", metavar="DIR",
                     help="also write one report file per dataset here")
    _add_config_flags(ana)

    rep = sub.add_parser("report", help="full pipeline plus grid exports",
                         description="Write full reports and per-area "
                                     "capacitance grids.")
    rep.add_argument("paths", nargs="+", metavar="FILE", help="dataset files")
    rep.add_argument("--out", default=".", metavar="DIR",
                     help="output directory (default .)")
    rep.add_argument("--format", choices=("text", "json"), default="text",
                     help="report rendering (default text)")
    _add_config_flags(rep)
    return parser


def _cmd_simulate(args) -> int:
    try:
        if args.preset:
            spec = preset_spec(args.preset, seed=args.seed)
        else:
            spec = WaferSpec(seed=args.seed)
        if args.overrides:
            fields = {f.name: f for f in dataclasses.fields(WaferSpec)}
            updates = {}
            for item in args.overrides:
                key, sep, value = item.partition("=")
                if not sep or key not in fields:
                    print(f"jjwafer: error: unknown or malformed override {item!r}",
                          file=sys.stderr)
                    return EXIT_INVALID
                try:
                    updates[key] = _coerce_field(fields[key], value)
                except ValueError:
                    print(f"jjwafer: error: bad value in override {item!r}",
                          file=sys.stderr)
                    return EXIT_INVALID
            spec = dataclasses.replace(spec, **updates)
        result = generate_wafer(spec)
        save_dataset(result.dataset, args.out, fmt=args.format)
    except (KeyError, ValueError, DatasetError) as exc:  # save_dataset refuses up front
        print(f"jjwafer: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"jjwafer: error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    n_dies = int(sum(sum(row) for row in result.ground_truth["probed_map"]))
    print(f"wrote {args.out}: wafer {spec.label!r}, seed {spec.seed}, "
          f"{n_dies} probed dies, {len(result.dataset.cap)} cap / "
          f"{len(result.dataset.iv)} iv / {len(result.dataset.res)} res / "
          f"{len(result.dataset.ramp)} ramp records")
    return EXIT_OK


def _stem(path: str) -> str:
    """The file name without its last extension; every output is named after it."""
    base = os.path.basename(path)
    stem = base.rsplit(".", 1)[0] if "." in base else base
    return stem or base


def _report_name(path: str, fmt: str) -> str:
    return f"{_stem(path)}.report.{'json' if fmt == 'json' else 'txt'}"


def _analyze_one(path: str, config: AnalysisConfig, stages, fmt: str,
                 out_dir: str | None, with_grids: bool, header: bool) -> int:
    """One file: prints its report (under a '== path ==' header if asked)
    and any error, and returns its exit code."""
    try:
        ds = load_dataset(path)
    except DatasetError as exc:
        print(f"jjwafer: error: {path}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"jjwafer: error: {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    report = analyze(ds, config=config, stages=stages)
    rendered = render_json(report) if fmt == "json" else render_text(report)
    if header:
        print(f"== {path} ==")
    sys.stdout.write(rendered)
    if out_dir is not None:
        try:
            atomic_write_text(os.path.join(out_dir, _report_name(path, fmt)), [rendered])
            if with_grids:
                for area, wmap in cap_maps(ds).items():
                    grid_path = os.path.join(
                        out_dir, f"{_stem(path)}.cap{area:g}.csv"
                    )
                    export_wafer_grid(wmap, grid_path)
        except OSError as exc:
            print(f"jjwafer: error: cannot write under {out_dir}: {exc}",
                  file=sys.stderr)
            return EXIT_IO
    return EXIT_ANALYSIS if report.stage_errors else EXIT_OK


def _cmd_analyze(args, stages, with_grids: bool) -> int:
    """analyze and report: every file in turn; the worst exit code wins."""
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"jjwafer: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.out is not None:
        # two inputs with one stem would overwrite each other's outputs
        owners = {}
        for j, path in enumerate(args.paths):
            name = _report_name(path, args.format)
            if owners.setdefault(name, j) != j:
                print(f"jjwafer: error: {args.paths[owners[name]]} and {path} would "
                      f"both write {name} under {args.out}", file=sys.stderr)
                return EXIT_INVALID
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"jjwafer: error: cannot create {args.out}: {exc}",
                  file=sys.stderr)
            return EXIT_IO
    return max(_analyze_one(path, config, stages, args.format, args.out,
                            with_grids, header=len(args.paths) > 1)
               for path in args.paths)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for --help/--version (code 0) and,
        # through _Parser.error, for usage problems (code 1)
        return int(exc.code or 0)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "analyze":
        stages = STAGES if args.stage == "all" else (args.stage,)
        return _cmd_analyze(args, stages, with_grids=False)
    return _cmd_analyze(args, STAGES, with_grids=True)


if __name__ == "__main__":
    sys.exit(main())
