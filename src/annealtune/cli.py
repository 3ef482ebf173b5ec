"""Batch command-line front end.

Subcommands: plan (the paper's schedule table), tune (full annealing run),
eval (one configuration), oracle (exhaustive front of a run config's
space). tune, eval and oracle read one run config and score by the
objective that build_evaluator makes of it. Exit codes:
0 success, 1 usage error, 2 data error, 3 runtime/divergence error. Primary
artifacts are written to temp files and renamed, so failed commands never
leave partial outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import random
import sys
from typing import Any, Sequence

from .annealer import CalibrationError, RunResult, StepRecord, plan_schedule, run
from .corpus import (
    DataError,
    PreparedCorpus,
    hold_out,
    load_cr,
    load_mr,
    load_trec,
    make_splits,
    synthetic_corpus,
)
from .evaluator import (
    DivergenceError,
    EvaluationCache,
    SyntheticEvaluator,
    TextCnnEvaluator,
    estimate_flops,
)
from .pareto import ArchiveEntry, ObjectiveVector, ParetoArchive
from .search_space import (
    DISPLAY_LABELS,
    SYNTHETIC_PREFIX,
    Configuration,
    RunConfig,
    SearchSpace,
    brief,
    checked_number,
    enumerate_space,
    parse_value,
    run_config_from_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

FORMAT_VERSION = 1

#: how many of the front's lowest-error entries the archive files list apart
TOP_K = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to usage
        raise UsageError(message)


# --- output helpers -----------------------------------------------------------


def _atomic_write(path: str, content: str) -> str:
    """Write ``content`` to a new temp file beside ``path`` and return its
    name: _write_files's first step for each file. ``open`` makes the temp,
    so it gets the mode any new file gets, 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(content)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


@contextlib.contextmanager
def _write_files(paths: Sequence[str]):
    """Write every one of ``paths``, which share a directory, or none. The
    block runs once the directory exists and no path is a directory or has
    a name longer than the directory takes; its ``write(path, content)``
    starts the path's temp file and returns its name. After the block each
    temp replaces its path. A failure, an interruption included, removes
    the temps and the directories made for them; an OSError is a usage
    error naming the path being written."""
    temps: dict[str, str] = {}
    directory = os.path.dirname(os.path.abspath(paths[0]))
    missing = []  # the directories makedirs makes below, deepest first
    while not os.path.exists(directory):
        missing.append(directory)
        directory = os.path.dirname(directory)

    def write(target: str, content: str) -> str:
        nonlocal path
        path = target
        temps[path] = _atomic_write(path, content)
        return temps[path]

    path = paths[0]  # what a failure of the shared directory names
    try:
        if not os.path.isdir(directory):  # the deepest existing ancestor
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        name_max = os.pathconf(directory, "PC_NAME_MAX")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            # found now, not by a rename after an earlier one has succeeded
            if len(os.fsencode(os.path.basename(path))) > name_max:
                raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG))
        yield write
        for path in paths:
            os.replace(temps[path], path)
            del temps[path]  # renamed: no longer the finally block's to remove
        missing.clear()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for tmp in temps.values():  # not renamed
            os.unlink(tmp)
        with contextlib.suppress(OSError):
            for directory in missing:
                os.rmdir(directory)


def _format_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _entry_payload(entry: ArchiveEntry) -> dict[str, Any]:
    return {
        "config": entry.config.as_dict(),
        "error_rate": entry.objectives.error_rate,
        "flops": entry.objectives.flops,
        "iteration_found": entry.iteration_found,
    }


def archive_text(entries: list[ArchiveEntry], space: SearchSpace) -> str:
    """Front table (one row per entry) plus a transposed block of the TOP_K
    lowest error rates: ``entries`` are ``ParetoArchive.front()``, so those
    are the first TOP_K.
    """
    names = list(space.names)
    lines = [f"# annealtune archive format v{FORMAT_VERSION}"]
    rows = [names + ["error_rate", "flops", "iteration_found"]]
    for entry in entries:
        rows.append(
            [str(entry.config[n]) for n in names]
            + [
                repr(entry.objectives.error_rate),
                str(entry.objectives.flops),
                str(entry.iteration_found),
            ]
        )
    lines.append(_format_table(rows))

    top = entries[:TOP_K]
    if top:
        lines.append("")
        lines.append(f"# top-{len(top)} by error rate")
        block = [["hyperparameter"] + [f"Top{i + 1}" for i in range(len(top))]]
        for name in names:
            label = DISPLAY_LABELS.get(name, name)
            block.append([label] + [str(e.config[name]) for e in top])
        block.append(["error rate"] + [repr(e.objectives.error_rate) for e in top])
        block.append(["flops"] + [str(e.objectives.flops) for e in top])
        block.append(["iteration found"] + [str(e.iteration_found) for e in top])
        lines.append(_format_table(block))
    return "\n".join(lines) + "\n"


def archive_json(entries: list[ArchiveEntry], config: RunConfig) -> str:
    """Front entries (``ParetoArchive.front()``) and the first TOP_K of them,
    after the run config's objective and seed, which decide every score."""
    payload = {
        "format_version": FORMAT_VERSION,
        "objective_kind": config.objective_kind,
        "seed_number": config.seed_number,
        "entries": [_entry_payload(e) for e in entries],
        "top": [_entry_payload(e) for e in entries[:TOP_K]],
    }
    return json.dumps(payload, indent=2) + "\n"


#: trace.jsonl's first line
TRACE_HEADER = json.dumps({"format_version": FORMAT_VERSION, "kind": "trace"}) + "\n"


@functools.cache
def _fragment(item: tuple[str, Any]) -> str:
    """A configuration item's ``"name": value`` text. Values are ints or
    strings (``canonical_value``), so the cache holds one text per domain
    value met."""
    return json.dumps(item[0]) + ": " + json.dumps(item[1])


def _state_text(
    config: Configuration, objectives: ObjectiveVector, previous: list
) -> tuple:
    """(config, objectives, the config's ``{...}`` text, the objectives'
    ``[error_rate, flops]`` text): the entry of ``previous`` that holds these
    very objects, or a new one."""
    for state in previous:
        if state[0] is config and state[1] is objectives:
            return state
    return (config, objectives, "{" + ", ".join(map(_fragment, config.items)) + "}",
            f"[{objectives.error_rate!r}, {objectives.flops}]")


def trace_jsonl(s: StepRecord, previous: list | None = None) -> str:
    """One step's line of the trace format, newline included: the text
    ``json.dumps`` writes for the step's object, whose finite floats it
    writes as their repr. The format's first line is TRACE_HEADER.

    A run hands every step's call one list, empty at its start, as
    ``previous``; the call leaves there its line's temperature, current and
    candidate with their texts. The temperature changes only between outer
    steps, and a step's current is the last step's current or candidate
    unless the walk jumped, so their texts are then not built again."""
    if previous is None:
        previous = []
    if previous and previous[0] is s.temperature:
        temperature = previous[1]
    else:
        temperature = repr(s.temperature)
    states = previous[2:]
    current = _state_text(s.current_config, s.current_objectives, states)
    candidate = _state_text(s.candidate_config, s.candidate_objectives, states)
    previous[:] = s.temperature, temperature, current, candidate
    return (
        f'{{"iteration": {s.iteration}, "temperature": {temperature}, '
        f'"current": {current[2]}, "current_objectives": {current[3]}, '
        f'"candidate": {candidate[2]}, "candidate_objectives": {candidate[3]}, '
        f'"delta_f": {s.delta_f!r}, "probability": {s.probability!r}, '
        f'"accepted": {"true" if s.accepted else "false"}, '
        f'"archive": "{s.archive_action.value}"}}\n'
    )


def calibration_json(result: RunResult, config: RunConfig) -> str:
    """The probe walk's outcome and the schedule it fixed, with the run
    config's settings that shaped them."""
    schedule = result.schedule
    payload = {
        "format_version": FORMAT_VERSION,
        "delta_f_ave": result.delta_f_ave,
        "probe_count": config.probe_count,
        "t_init": schedule.t_init,
        "t_final": schedule.t_final,
        "schedule": {
            "cooling_rate": config.cooling_rate,
            "iteration_budget": config.iteration_budget,
            "outer_iterations": schedule.outer_iterations,
            "inner_iterations": schedule.inner_iterations,
            "outer_steps": schedule.outer_steps,
            "inner_steps": schedule.inner_steps,
        },
        "stop_reason": result.stop_reason,
        "evaluations": result.evaluations,
    }
    return json.dumps(payload, indent=2) + "\n"


# --- input files and dataset wiring -------------------------------------------


def _read_json(path: str, what: str, error: type[Exception], malformed: str) -> Any:
    """The JSON value in the file at ``path``. A missing or unreadable file
    is an ``error`` naming ``what`` and the path; bytes that are not UTF-8,
    malformed JSON and JSON nested too deeply are one after ``malformed``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{malformed}: {exc}") from None


def load_run_config(path: str) -> RunConfig:
    """The run config in the file at ``path``; one that cannot be read or
    that RunConfig refuses is a usage error."""
    raw = _read_json(path, "run config", UsageError, "bad run config")
    try:
        return run_config_from_dict(raw)
    except ValueError as exc:
        raise UsageError(f"bad run config: {exc}") from None


#: the bundled corpus a run config without a dataset_path trains on:
#: synthetic_corpus's class count, sentences a class and vocabulary size,
#: and the share of it held out as the test split
BUNDLED_SHAPE = (2, 50, 40)
BUNDLED_TEST_FRACTION = 0.2
#: the folds MR and CR are split into, as in Kim (2014); a manifest's
#: fold_index picks the one that is the test split
CV_FOLDS = 10
#: each manifest kind's keys besides "kind", each with its rule: ``str`` for
#: a file path the manifest must give, or the range of an integer key's
#: values, judged by checked_number, whose first value is its default
MANIFEST_RULES = {
    "mr": {"pos": str, "neg": str, "fold_index": range(CV_FOLDS)},
    "cr": {"path": str, "fold_index": range(CV_FOLDS)},
    "trec": {"train": str, "test": str},
}


def _manifest_error(kind: str, key: str, problem: str) -> DataError:
    return DataError(f"{kind} dataset manifest key {brief(key)} {problem}")


def prepare_corpus(path: str | None, ratio_init: float, seed: int) -> PreparedCorpus:
    """Build a PreparedCorpus from the dataset manifest at ``path``; without
    one, from the bundled corpus, less BUNDLED_TEST_FRACTION of it held out
    as the test split.

    Kinds: mr (pos/neg files) and cr (tab-separated file), whose test split
    is the manifest's fold of CV_FOLDS, and trec (train/test files, fixed
    test split). Every key is judged before any file is read.
    """
    rng = random.Random(seed)
    if path is None:
        data = synthetic_corpus(*BUNDLED_SHAPE, seed)
        pool, test = hold_out(data, 0, round(BUNDLED_TEST_FRACTION * len(data)), rng)
        return make_splits(pool, test, ratio_init, rng)
    manifest = _read_json(
        path, "dataset manifest", DataError, "dataset manifest is not valid JSON"
    )
    if not isinstance(manifest, dict) or "kind" not in manifest:
        raise DataError("dataset manifest must be an object with a 'kind' key")
    kind = manifest["kind"]
    if not isinstance(kind, str) or kind not in MANIFEST_RULES:
        raise DataError(f"unknown dataset kind {brief(kind)}")
    rules = MANIFEST_RULES[kind]
    unknown = sorted(set(manifest) - set(rules) - {"kind"})
    if unknown:
        raise _manifest_error(kind, unknown[0], "is unknown")
    m: dict[str, Any] = {}
    for key, rule in rules.items():
        if rule is str:
            if key not in manifest:
                raise DataError(f"{kind} dataset manifest lacks key {key!r}")
            if not isinstance(manifest[key], str):
                raise _manifest_error(kind, key, "is not a path")
            m[key] = manifest[key]
            continue
        try:
            m[key] = checked_number(manifest.get(key, rule[0]), int, rule[0], rule[-1])
        except ValueError as exc:
            raise _manifest_error(kind, key, str(exc)) from None
    if kind == "trec":
        pool, test, _ = load_trec(m["train"], m["test"])
    else:
        fold = m["fold_index"]
        data = load_mr(m["pos"], m["neg"]) if kind == "mr" else load_cr(m["path"])
        base, extra = divmod(len(data), CV_FOLDS)
        start = fold * base + min(fold, extra)
        pool, test = hold_out(data, start, start + base + (fold < extra), rng)
    return make_splits(pool, test, ratio_init, rng)


def _refuse_cache_among(cache: str | None, paths: Sequence[str]) -> None:
    """A ``--cache`` that names one of the command's outputs, through a
    symbolic link too, is a usage error: the output would replace every
    training the cache holds."""
    if cache is not None and os.path.realpath(cache) in map(os.path.realpath, paths):
        raise UsageError(f"--cache {brief(cache)} is also an output of this command")


def build_evaluator(config: RunConfig, cache_path: str | None = None):
    if config.objective_kind.startswith(SYNTHETIC_PREFIX):
        return SyntheticEvaluator(config)
    corpus = prepare_corpus(config.dataset_path, config.ratio_init, config.seed_number)
    return TextCnnEvaluator(config, corpus, EvaluationCache(cache_path))


# --- subcommands ---------------------------------------------------------------


#: the schedule table of SA-CNN that ``plan`` prints: its temperature range,
#: iteration budget and cooling rates
PLAN_T_INIT = 0.577
PLAN_T_FINAL = 0.12
PLAN_BUDGET = 250
PLAN_COOLING_RATES = (0.99, 0.95, 0.9, 0.85, 0.8)


def cmd_plan(args: argparse.Namespace) -> int:
    rows = [
        [
            "Iteration budget",
            "T_init",
            "T_final",
            "Cooling rate",
            "#Outer iterations",
            "#Inner iterations",
        ]
    ]
    for rate in PLAN_COOLING_RATES:
        schedule = plan_schedule(PLAN_T_INIT, PLAN_T_FINAL, rate, PLAN_BUDGET)
        counts = (schedule.outer_iterations, schedule.inner_iterations)
        rows.append(
            [str(PLAN_BUDGET), f"{PLAN_T_INIT:g}", f"{PLAN_T_FINAL:g}", f"{rate:g}"]
            # one decimal, truncated toward zero (not rounded), as the paper has
            + [f"{math.floor(x * 10 + 1e-9) / 10:.1f}" for x in counts]
        )
    print(_format_table(rows))
    return EXIT_OK


def cmd_tune(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    names = ("archive.txt", "archive.json", "trace.jsonl", "calibration.json")
    paths = [os.path.join(args.output_dir, name) for name in names]
    txt_path, json_path, trace_path, calibration_path = paths
    _refuse_cache_among(args.cache, paths)
    with _write_files(paths) as write:
        trace_temp = write(trace_path, TRACE_HEADER)  # before --cache is opened
        evaluator = build_evaluator(config, cache_path=args.cache)
        # each step's line goes to the trace temp as the step ends
        with open(trace_temp, "a", encoding="utf-8") as trace:
            previous: list = []
            result = run(
                config, evaluator, lambda s: trace.write(trace_jsonl(s, previous))
            )
        front = result.archive.front()
        write(txt_path, archive_text(front, config.space))
        write(json_path, archive_json(front, config))
        write(calibration_path, calibration_json(result, config))
    best = front[0]
    print(f"stop reason: {result.stop_reason}; evaluations: {result.evaluations}")
    print(f"archive size: {len(front)}")
    print(
        f"best: error_rate={best.objectives.error_rate!r} "
        f"flops={best.objectives.flops} config={best.config.as_dict()}"
    )
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _config_from_sets(space: SearchSpace, pairs: Sequence[str]) -> Configuration:
    assignments: dict[str, Any] = {}
    for pair in pairs:
        name, eq, text = pair.partition("=")
        if not eq:
            raise UsageError(f"--set expects name=value, got {brief(pair)}")
        if name in assignments:
            raise UsageError(f"--set assigns {brief(name)} twice")
        try:
            domain = space.domain(name)
        except KeyError:
            raise UsageError(f"unknown hyperparameter {brief(name)}") from None
        try:
            assignments[name] = parse_value(domain, text)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        return space.configuration(assignments)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    candidate = _config_from_sets(config.space, args.set or [])
    evaluator = build_evaluator(config)
    breakdown = estimate_flops(candidate, *evaluator.network)
    print(f"flops breakdown: conv={list(breakdown.conv_flops)} "
          f"fc={breakdown.fc_flops} total={breakdown.total}")
    if args.flops_only:
        return EXIT_OK
    objectives = evaluator.evaluate(candidate)
    print(f"error_rate: {objectives.error_rate!r}")
    print(f"flops: {objectives.flops}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if not os.path.basename(args.output):  # empty, or ends in a separator
        raise UsageError(f"--output {brief(args.output)} has no file name")
    json_path = os.path.splitext(args.output)[0] + ".json"
    if json_path == args.output:
        raise UsageError("--output ends in .json, the name of the JSON front")
    _refuse_cache_among(args.cache, [args.output, json_path])
    config = load_run_config(args.config)
    space = config.space
    with _write_files([args.output, json_path]) as write:
        evaluator = build_evaluator(config, cache_path=args.cache)
        archive = ParetoArchive()
        for candidate in enumerate_space(space):
            archive.insert(ArchiveEntry(candidate, evaluator.evaluate(candidate), 0))
        entries = archive.front()
        write(args.output, archive_text(entries, space))
        write(json_path, archive_json(entries, config))
    print(f"evaluated {space.cardinality()} configurations; front size {len(entries)}")
    print(f"wrote {args.output}")
    return EXIT_OK


# --- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; parsing keeps no
    state in it, and ``main`` picks the subcommand."""
    parser = _Parser(prog="annealtune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cache_help = "evaluation cache path; a synthetic objective never opens it"

    sub.add_parser("plan", help="print the paper's outer/inner iteration table")

    p_tune = sub.add_parser("tune", help="run the annealing search")
    p_tune.add_argument("--config", required=True, help="run config JSON path")
    p_tune.add_argument("--output-dir", required=True)
    p_tune.add_argument("--cache", default=None, help=cache_help)

    p_eval = sub.add_parser("eval", help="evaluate one configuration")
    p_eval.add_argument("--config", required=True, help="run config JSON path")
    p_eval.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="assign one hyperparameter; repeat for all of them",
    )
    p_eval.add_argument("--flops-only", action="store_true")

    p_oracle = sub.add_parser("oracle", help="exhaustive front of the config's space")
    p_oracle.add_argument("--config", required=True, help="run config JSON path")
    p_oracle.add_argument("--cache", default=None, help=cache_help)
    p_oracle.add_argument("--output", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # looked up on each call, so a module-level rebinding of cmd_* is seen
    commands = {
        "plan": cmd_plan, "tune": cmd_tune, "eval": cmd_eval, "oracle": cmd_oracle
    }
    try:
        args = build_parser().parse_args(argv)
        return commands[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CalibrationError, DivergenceError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
