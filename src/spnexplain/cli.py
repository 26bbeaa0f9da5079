"""Command-line front door: gen, train, score, explain, eval, bench."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from collections.abc import Iterable

from . import datagen, metrics
from .data import (INTEGER, check_features, check_index, format_float, load_csv,
                   load_schema, read_json_lines, require, save_csv, write_text)
from .errors import DataError, ModelFormatError
from .explain import ExplainConfig, explain_rows
from .learn import LearnConfig, learn_spn
from .model import eval_log_density, load_model, save_model


_FLAG_TYPES = {"int": int, "float": float, "str": None}  # of a field's annotation


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag for each field of the config dataclass `cls`, derived from
    the field's declaration: field `a_b` is `--a-b`, of its annotation's
    type, with a `str` field's rule as its choices and the "help" metadata
    as its help. A field without a default, and every `seed`, is required;
    any other flag defaults to the class's default when the parser is built."""
    for f in dataclasses.fields(cls):
        kind = f.type.partition(" | ")[0]
        required = f.default is dataclasses.MISSING or f.name == "seed"
        parser.add_argument("--" + f.name.replace("_", "-"), type=_FLAG_TYPES[kind],
                            choices=f.metadata.get("rule") if kind == "str" else None,
                            default=None if required else getattr(cls, f.name),
                            required=required, help=f.metadata.get("help"))


def _config(cls, args):
    """The config dataclass `cls` built from the parsed flags: each field is
    read from the flag whose dest is the field's name."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept: parsing leaves it
    unchanged. `build_parser.__wrapped__()` builds a fresh one."""
    top = argparse.ArgumentParser(prog="spnexplain")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted-subspace synthetic dataset")
    _add_config_flags(p, datagen.GenConfig)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--labels", required=True, help="output ground-truth JSON sidecar")

    p = sub.add_parser("train", help="learn an SPN density model from a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--model", required=True, help="output model JSON path")
    _add_config_flags(p, LearnConfig)

    p = sub.add_parser("score", help="score rows by full-joint outlier score")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--contamination", type=float, default=None,
                   help="also flag rows above the (1-contamination) score quantile")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = sub.add_parser("explain", help="explain outlier rows as JSON-lines")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rows", required=True,
                   help="comma-separated row indices to explain")
    _add_config_flags(p, ExplainConfig)
    p.add_argument("--out", default=None, help="output JSON-lines (default stdout)")

    p = sub.add_parser("eval", help="score explanations against ground-truth labels")
    p.add_argument("--explanations", required=True, help="JSON-lines from 'explain'")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--labels", required=True)

    p = sub.add_parser("bench", help="train once, explain all labeled outliers, report F1")
    p.add_argument("--data", required=True, help="labeled CSV, e.g. from 'gen'")
    p.add_argument("--schema", default=None)
    p.add_argument("--labels", required=True)
    _add_config_flags(p, LearnConfig)
    _add_config_flags(p, ExplainConfig)
    p.add_argument("--explanations", default=None, help="output JSON-lines path")
    p.add_argument("--summary", default=None, help="output summary TSV path")
    return top


def _write(lines: Iterable[str], path: str | None) -> None:
    """Write the lines to `path`, or to stdout, as they come."""
    if path is None:
        sys.stdout.writelines(lines)
    else:
        write_text(path, lines)


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """Open each output file for appending before the work, so a bad path
    fails first and a file that exists keeps its bytes; if the work or a
    write then fails, the files that did not exist before are removed."""
    made = []
    try:
        for path in (p for p in paths if p is not None):
            with contextlib.suppress(FileExistsError):
                open(path, "x").close()
                made.append(path)
            open(path, "a").close()
        yield
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _load_data(args):
    """The --data CSV, encoded with the --schema sidecar when one is given."""
    schema = None if args.schema is None else load_schema(args.schema)
    return load_csv(args.data, schema)


def cmd_gen(args) -> None:
    config = _config(datagen.GenConfig, args)
    with _outputs(args.out, args.labels):
        labeled = datagen.generate(config)
        save_csv(labeled.dataset, args.out)
        datagen.write_labels(labeled, args.labels)
    print(f"wrote {labeled.dataset.n_rows} rows x {labeled.dataset.n_features} "
          f"features to {args.out}, {len(labeled.outlier_rows)} outliers to {args.labels}")


def cmd_train(args) -> None:
    config = _config(LearnConfig, args)
    dataset = _load_data(args)
    with _outputs(args.model):
        model = learn_spn(dataset, config)
        save_model(model, args.model)
    print(f"trained model with {len(model.nodes)} nodes -> {args.model}")


def cmd_score(args) -> None:
    model = load_model(args.model)
    dataset = load_csv(args.data, model.schema)
    with _outputs(args.out):
        if args.contamination is not None:
            flagged, scores = metrics.detect(model, dataset, args.contamination)
            flags = set(flagged)
            lines = ["row\tscore\tflagged"]
            lines += [f"{i}\t{format_float(s)}\t{int(i in flags)}"
                      for i, s in enumerate(scores)]
        else:
            scores = -eval_log_density(model, dataset.values)
            lines = ["row\tscore"]
            lines += [f"{i}\t{format_float(s)}" for i, s in enumerate(scores)]
        _write(["\n".join(lines) + "\n"], args.out)


def cmd_explain(args) -> None:
    config = _config(ExplainConfig, args)
    model = load_model(args.model)
    dataset = load_csv(args.data, model.schema)
    try:
        rows = sorted({int(tok) for tok in args.rows.split(",") if tok.strip()})
    except ValueError as exc:
        raise ValueError(f"--rows must be comma-separated integers: {exc}") from exc
    if not rows:
        raise ValueError("--rows selected no rows")
    for r in rows:
        check_index(r, dataset.n_rows, "row", DataError)
    with _outputs(args.out):
        traces = explain_rows(model, dataset.values, rows, config)
        _write(metrics.format_explanations(rows, traces), args.out)


def cmd_eval(args) -> None:
    dataset = _load_data(args)
    labeled = datagen.read_labels(dataset, args.labels)
    records = read_json_lines(args.explanations, "explanations")
    if not records:
        raise DataError(f"explanations {args.explanations}: no records")
    lines = ["row\tprecision\trecall\tf1"]
    f1s: dict[int, float] = {}  # of each row explained, in record order
    for i, rec in enumerate(records, start=1):
        at = f"{args.explanations}: record {i}"
        row = require(rec, "row", at, INTEGER)
        selected = require(rec, "selected", at, list)
        check_features(selected, dataset.n_features, f"{at} selected", DataError)
        if row not in labeled.ground_truth:
            raise DataError(f"explained row {row} has no ground-truth label")
        if row in f1s:
            raise DataError(f"{at} repeats row {row}")
        p, r, f1s[row] = metrics.f1_dims(selected, labeled.ground_truth[row])
        lines.append(f"{row}\t{format_float(p)}\t{format_float(r)}\t{format_float(f1s[row])}")
    lines.append(f"mean\t\t\t{format_float(sum(f1s.values()) / len(f1s))}")
    print("\n".join(lines))


def cmd_bench(args) -> None:
    learn_config = _config(LearnConfig, args)
    explain_config = _config(ExplainConfig, args)
    labeled = datagen.read_labels(_load_data(args), args.labels)
    with _outputs(args.explanations, args.summary):
        report = metrics.run_benchmark(labeled, learn_config, explain_config,
                                       explanations_path=args.explanations,
                                       summary_path=args.summary)
    print(f"n_features={report.n_features} strategy={report.strategy} "
          f"selection={report.selection} mean_f1={report.mean_f1:.4f} "
          f"train_s={report.train_seconds:.2f} explain_s={report.explain_seconds:.2f}")


COMMANDS = {"gen": cmd_gen, "train": cmd_train, "score": cmd_score,
            "explain": cmd_explain, "eval": cmd_eval, "bench": cmd_bench}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # a failed read raises DataError or ModelFormatError, so an
        # OSError here is an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
