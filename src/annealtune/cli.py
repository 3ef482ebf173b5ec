"""Batch command-line front end.

Subcommands: plan (schedule table), tune (full annealing run), eval (one
configuration), oracle (exhaustive front on a restricted space). Exit codes:
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
import os
import sys
from typing import Any, Sequence

from .annealer import CalibrationError, RunResult, StepRecord, plan_schedule, run
from .corpus import (
    CvPolicy,
    DataError,
    FixedTestPolicy,
    HoldoutPolicy,
    PreparedCorpus,
    load_cr,
    load_mr,
    load_trec,
    make_splits,
    synthetic_corpus,
)
from .evaluator import (
    SYNTHETIC_CLASS_COUNT,
    SYNTHETIC_SENTENCE_LENGTH,
    DivergenceError,
    EvaluationCache,
    SyntheticEvaluator,
    TextCnnEvaluator,
    estimate_flops,
)
from .pareto import ArchiveEntry, ParetoArchive
from .search_space import (
    DISPLAY_LABELS,
    SYNTHETIC_NAMES,
    SYNTHETIC_PREFIX,
    WINDOWS,
    Configuration,
    RunConfig,
    SearchSpace,
    brief,
    checked_number,
    checked_setting,
    default_search_space,
    enumerate_space,
    parse_value,
    run_config_from_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

FORMAT_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to usage
        raise UsageError(message)


def _flag(check, *args):
    """A flag's type: ``check(text, *args)``, its refusal an argparse error."""
    def parse(text: str):
        try:
            return check(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _rates(text: str) -> list[float]:
    return [checked_setting(rate, "cooling_rate") for rate in text.split(",")]


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
    block runs once no path is a directory and the directory exists; its
    ``write(path, content)`` starts the path's temp file and returns its name.
    After the block each temp replaces its path. A failure, an interruption
    included, removes the temps and the directories made for them; an
    OSError is a usage error naming the path being written."""
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

    try:
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        yield write
        for path in paths:
            os.replace(temps.pop(path), path)
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


def archive_text(
    entries: list[ArchiveEntry], space: SearchSpace, top_k: int
) -> str:
    """Front table (one row per entry) plus a transposed top-k block.

    ``entries`` are ``ParetoArchive.front()``, so the top-k are the first k.
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

    top = entries[:top_k]
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


def archive_json(
    entries: list[ArchiveEntry], top_k: int, meta: dict[str, Any]
) -> str:
    """Front entries (``ParetoArchive.front()``) and the first top_k of them."""
    payload = {
        "format_version": FORMAT_VERSION,
        **meta,
        "entries": [_entry_payload(e) for e in entries],
        "top": [_entry_payload(e) for e in entries[:top_k]],
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


def trace_jsonl(s: StepRecord) -> str:
    """One step's line of the trace format, newline included: the text
    ``json.dumps`` writes for the step's object, whose finite floats it
    writes as their repr. The format's first line is TRACE_HEADER."""
    cur, cand = s.current_objectives, s.candidate_objectives
    current = ", ".join(map(_fragment, s.current_config.items))
    candidate = ", ".join(map(_fragment, s.candidate_config.items))
    return (
        f'{{"iteration": {s.iteration}, "temperature": {s.temperature!r}, '
        f'"current": {{{current}}}, '
        f'"current_objectives": [{cur.error_rate!r}, {cur.flops}], '
        f'"candidate": {{{candidate}}}, '
        f'"candidate_objectives": [{cand.error_rate!r}, {cand.flops}], '
        f'"delta_f": {s.delta_f!r}, "probability": {s.probability!r}, '
        f'"accepted": {"true" if s.accepted else "false"}, '
        f'"archive": "{s.archive_action.value}"}}\n'
    )


def calibration_json(result: RunResult) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "delta_f_ave": result.calibration.delta_f_ave,
        "probe_count": result.calibration.probe_count,
        "t_init": result.calibration.t_init,
        "t_final": result.calibration.t_final,
        "schedule": {
            "cooling_rate": result.schedule.cooling_rate,
            "iteration_budget": result.schedule.iteration_budget,
            "outer_iterations": result.schedule.outer_iterations,
            "inner_iterations": result.schedule.inner_iterations,
            "outer_steps": result.schedule.outer_steps,
            "inner_steps": result.schedule.inner_steps,
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


#: the cross-validation keys of mr and cr manifests
_FOLDS = {"folds": (int, 10, 2, None), "fold_index": (int, 0, None, None)}
#: each manifest kind's keys besides "kind", each with its rule: ``str`` for
#: a file path the manifest must give, or (int or float, default, floor,
#: ceiling) for a number, judged by checked_number; a synthetic seed of
#: None takes the run's seed. The synthetic ceilings, 50 classes (TREC's
#: fine-grained label count), 10,000 sentences a class and a 100,000-word
#: vocabulary (five times MR's), keep a typo from exhausting memory. Rules
#: across keys are prepare_corpus's.
MANIFEST_RULES = {
    "synthetic": {
        "class_count": (int, 2, 1, 50),
        "samples_per_class": (int, 50, 1, 10_000),
        "vocab_size": (int, 40, None, 100_000),
        "test_fraction": (float, 0.2, None, None),
        "seed": (int, None, None, None),
    },
    "mr": {"pos": str, "neg": str, **_FOLDS},
    "cr": {"path": str, **_FOLDS},
    "trec": {"train": str, "test": str},
}


def _manifest_error(kind: str, key: str, problem: str) -> DataError:
    return DataError(f"{kind} dataset manifest key {brief(key)} {problem}")


def prepare_corpus(path: str | None, ratio_init: float, seed: int) -> PreparedCorpus:
    """Build a PreparedCorpus from the dataset manifest at ``path``; without
    one, from the bundled synthetic corpus at MANIFEST_RULES' defaults.

    Kinds: synthetic (bundled generator), mr (pos/neg files, 10-fold CV),
    cr (tab-separated file, 10-fold CV), trec (train/test files, fixed
    test split). Every key is judged before any file is read or any corpus
    generated.
    """
    manifest = {"kind": "synthetic"}
    if path:
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
        convert, default, floor, ceiling = rule
        value = manifest.get(key, seed if default is None else default)
        try:
            m[key] = checked_number(value, convert, floor, ceiling)
        except ValueError as exc:
            raise _manifest_error(kind, key, str(exc)) from None
    if kind == "synthetic":
        fewest = 2 * m["class_count"]
        if m["vocab_size"] < fewest:
            raise _manifest_error(
                kind, "vocab_size", f"is below {fewest}, twice class_count"
            )
        test_fraction = m.pop("test_fraction")
        if not 0.0 <= test_fraction < 1.0:
            raise _manifest_error(kind, "test_fraction", "is outside [0, 1)")
        data = synthetic_corpus(**m)
        return make_splits(data, HoldoutPolicy(test_fraction), ratio_init, seed)
    if kind == "trec":
        train, test, _ = load_trec(m["train"], m["test"])
        return make_splits(train, FixedTestPolicy(tuple(test)), ratio_init, seed)
    if not 0 <= m["fold_index"] < m["folds"]:
        raise _manifest_error(kind, "fold_index", f"is outside [0, {m['folds']})")
    data = load_mr(m["pos"], m["neg"]) if kind == "mr" else load_cr(m["path"])
    return make_splits(data, CvPolicy(m["folds"], m["fold_index"]), ratio_init, seed)


def build_evaluator(config: RunConfig, cache_path: str | None = None):
    if config.objective_kind.startswith(SYNTHETIC_PREFIX):
        name = config.objective_kind[len(SYNTHETIC_PREFIX) :]
        return SyntheticEvaluator(space=config.space, name=name)
    corpus = prepare_corpus(config.dataset_path, config.ratio_init, config.seed_number)
    return TextCnnEvaluator(
        space=config.space,
        corpus=corpus,
        seed=config.seed_number,
        max_epochs=config.max_epochs,
        embedding_dim=config.embedding_dim,
        early_stop_margin=config.early_stop_margin,
        early_stop_patience=config.early_stop_patience,
        cache=EvaluationCache(cache_path),
    )


# --- subcommands ---------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    rates = args.cooling_rates
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
    try:
        for rate in rates:
            schedule = plan_schedule(args.t_init, args.t_final, rate, args.budget)
            rows.append(
                [
                    str(args.budget),
                    f"{args.t_init:g}",
                    f"{args.t_final:g}",
                    f"{rate:g}",
                    f"{schedule.outer_reported:.1f}",
                    f"{schedule.inner_reported:.1f}",
                ]
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(_format_table(rows))
    return EXIT_OK


def cmd_tune(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    evaluator = build_evaluator(config, cache_path=args.cache)
    names = ("archive.txt", "archive.json", "trace.jsonl", "calibration.json")
    paths = [os.path.join(args.output_dir, name) for name in names]
    txt_path, json_path, trace_path, calibration_path = paths
    meta = {"objective_kind": config.objective_kind, "seed_number": config.seed_number}
    with _write_files(paths) as write:
        # each step's line goes to the trace temp as the step ends
        with open(write(trace_path, TRACE_HEADER), "a", encoding="utf-8") as trace:
            result = run(config, evaluator, lambda s: trace.write(trace_jsonl(s)))
        front = result.archive.front()
        write(txt_path, archive_text(front, config.space, args.top_k))
        write(json_path, archive_json(front, args.top_k, meta))
        write(calibration_path, calibration_json(result))
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
    space = default_search_space()
    config = _config_from_sets(space, args.set or [])
    sentence_length, class_count = args.sentence_length, args.class_count
    if args.corpus or not args.flops_only:  # the corpus sets the shape
        corpus = prepare_corpus(args.corpus, args.ratio_init, args.seed)
        sentence_length, class_count = corpus.sentence_length, corpus.class_count
    breakdown = estimate_flops(config, sentence_length, args.embedding_dim, class_count)
    print(f"flops breakdown: conv={list(breakdown.conv_flops)} "
          f"fc={breakdown.fc_flops} total={breakdown.total}")
    if args.flops_only:
        return EXIT_OK
    evaluator = TextCnnEvaluator(
        space=space,
        corpus=corpus,
        seed=args.seed,
        max_epochs=args.max_epochs,
        embedding_dim=args.embedding_dim,
        early_stop_margin=RunConfig.early_stop_margin,
        early_stop_patience=RunConfig.early_stop_patience,
    )
    objectives = evaluator.evaluate(config)
    print(f"error_rate: {objectives.error_rate!r}")
    print(f"flops: {objectives.flops}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    json_path = os.path.splitext(args.output)[0] + ".json"
    if json_path == args.output:
        raise UsageError("--output ends in .json, the name of the JSON front")
    space = default_search_space()
    if args.space:
        try:
            if args.space.lstrip().startswith("{"):
                restriction = json.loads(args.space)
            else:
                restriction = _read_json(
                    args.space, "space file", UsageError, "bad space restriction"
                )
            space = space.restrict(restriction)
        except (ValueError, RecursionError) as exc:  # bad inline JSON or values
            raise UsageError(f"bad space restriction: {exc}") from None
    try:
        configs = enumerate_space(space, args.cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    evaluator = SyntheticEvaluator(space=space, name=args.objective)
    with _write_files([args.output, json_path]) as write:
        archive = ParetoArchive()
        for config in configs:
            archive.insert(ArchiveEntry(config, evaluator.evaluate(config), 0))
        entries = archive.front()
        meta = {"objective_kind": SYNTHETIC_PREFIX + args.objective, "cap": args.cap}
        write(args.output, archive_text(entries, space, args.top_k))
        write(json_path, archive_json(entries, args.top_k, meta))
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

    # a run setting's flag takes RunConfig's rule for it; other numbers a floor
    rule = functools.partial(_flag, checked_setting)
    number = functools.partial(_flag, checked_number)

    p_plan = sub.add_parser("plan", help="print the outer/inner iteration table")
    p_plan.add_argument("--t-init", type=number(float), default=0.577)
    p_plan.add_argument("--t-final", type=number(float), default=0.12)
    p_plan.add_argument("--budget", type=rule("iteration_budget"), default=250)
    p_plan.add_argument(
        "--cooling-rates", type=_flag(_rates), default=[0.99, 0.95, 0.9, 0.85, 0.8]
    )

    p_tune = sub.add_parser("tune", help="run the annealing search")
    p_tune.add_argument("--config", required=True, help="run config JSON path")
    p_tune.add_argument("--output-dir", required=True)
    p_tune.add_argument("--top-k", type=number(int, 0), default=3)
    p_tune.add_argument("--cache", default=None, help="evaluation cache path")

    p_eval = sub.add_parser("eval", help="evaluate one configuration")
    p_eval.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="assign one hyperparameter; repeat for all of them",
    )
    p_eval.add_argument("--corpus", default=None, help="dataset manifest JSON")
    p_eval.add_argument("--flops-only", action="store_true")
    p_eval.add_argument("--seed", type=rule("seed_number"), default=40)
    p_eval.add_argument("--ratio-init", type=rule("ratio_init"), default=0.9)
    p_eval.add_argument(
        "--max-epochs", type=rule("max_epochs"), default=RunConfig.max_epochs
    )
    p_eval.add_argument(  # no shorter than the widest convolution window
        "--sentence-length",
        type=number(int, max(WINDOWS)),
        default=SYNTHETIC_SENTENCE_LENGTH,
    )
    p_eval.add_argument(
        "--embedding-dim", type=rule("embedding_dim"), default=RunConfig.embedding_dim
    )
    p_eval.add_argument(
        "--class-count", type=number(int, 1), default=SYNTHETIC_CLASS_COUNT
    )

    p_oracle = sub.add_parser("oracle", help="exhaustive front on a small space")
    p_oracle.add_argument("--space", default=None, help="restriction JSON or path")
    p_oracle.add_argument(
        "--objective", choices=SYNTHETIC_NAMES, required=True
    )
    p_oracle.add_argument("--cap", type=number(int, 1), default=10**6)
    p_oracle.add_argument("--output", required=True)
    p_oracle.add_argument("--top-k", type=number(int, 0), default=3)
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
