"""Batch command-line front end.

Subcommands: plan (schedule table), tune (full annealing run), eval (one
configuration), oracle (exhaustive front on a restricted space). Exit codes:
0 success, 1 usage error, 2 data error, 3 runtime/divergence error. Primary
artifacts are written to temp files and renamed, so failed commands never
leave partial outputs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import tempfile
from typing import Any, Sequence

from .annealer import CalibrationError, RunResult, plan_schedule, run
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
    Configuration,
    RunConfig,
    SearchSpace,
    checked_number,
    checked_setting,
    default_search_space,
    enumerate_space,
    load_run_config,
    parse_value,
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
    name: _write_files's first step for each file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _write_files(files: dict[str, str]) -> list[str]:
    """Write every path -> content or none: all temp files first, then, if no
    path is a directory, one rename each. A failure removes the temp files
    and is a usage error; one before the renames leaves every existing file
    untouched. Returns the paths."""
    temps: list[str] = []
    try:
        for path, content in files.items():
            temps.append(_atomic_write(path, content))
        for path in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for tmp in temps:
            if os.path.exists(tmp):  # not renamed
                os.unlink(tmp)
    return list(files)


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


class _Memo(dict):
    """key -> ``build(key)``, built on the key's first lookup, so that a hit
    is a plain dict lookup."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        text = self[key] = self.build(key)
        return text


class _FloatTexts(dict):
    """float -> its repr, which is what json.dumps writes for a finite float.
    Zeros are not stored: 0.0 and -0.0 are one dict key with two texts."""

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


def trace_jsonl(result: RunResult) -> str:
    """The trace format: a header line, then one line per step, each the
    text ``json.dumps`` writes for the step's object. Floats, ``"name":
    value`` fragments and configurations repeat from line to line, so their
    texts are memoized over the trace. A configuration's text is keyed by
    its items: values are ints or strings (``canonical_value``), so the
    items alone fix the text."""
    r = _FloatTexts().__getitem__
    fragment = _Memo(lambda item: json.dumps(item[0]) + ": " + json.dumps(item[1]))
    texts = _Memo(lambda items: "{" + ", ".join(map(fragment.__getitem__, items)) + "}")
    c = texts.__getitem__
    lines = [json.dumps({"format_version": FORMAT_VERSION, "kind": "trace"})]
    for s in result.trace:
        cur, cand = s.current_objectives, s.candidate_objectives
        lines.append(
            f'{{"iteration": {s.iteration}, "temperature": {r(s.temperature)}, '
            f'"current": {c(s.current_config.items)}, '
            f'"current_objectives": [{r(cur.error_rate)}, {cur.flops}], '
            f'"candidate": {c(s.candidate_config.items)}, '
            f'"candidate_objectives": [{r(cand.error_rate)}, {cand.flops}], '
            f'"delta_f": {r(s.delta_f)}, "probability": {r(s.probability)}, '
            f'"accepted": {"true" if s.accepted else "false"}, '
            f'"archive": "{s.archive_action.value}"}}'
        )
    return "\n".join(lines) + "\n"


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


# --- dataset wiring -----------------------------------------------------------


def _load_manifest(path: str | None) -> dict[str, Any]:
    """The dataset manifest at ``path``; without one, the bundled synthetic
    corpus at prepare_corpus's defaults."""
    if not path:
        return {"kind": "synthetic"}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"dataset manifest not found: {path}") from None
    except OSError as exc:
        raise DataError(f"dataset manifest {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # undecodable, malformed, too deep
        raise DataError(f"dataset manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or "kind" not in manifest:
        raise DataError("dataset manifest must be an object with a 'kind' key")
    return manifest


def _manifest_paths(manifest: dict[str, Any], *keys: str) -> list[str]:
    """The manifest's file paths at ``keys``; a missing key or a value that
    is not a string is a DataError."""
    kind = manifest["kind"]
    for key in keys:
        if key not in manifest:
            raise DataError(f"{kind} dataset manifest lacks key {key!r}")
        if not isinstance(manifest[key], str):
            raise DataError(f"{kind} dataset manifest key {key!r} is not a path")
    return [manifest[key] for key in keys]


#: largest synthetic corpus sizes a manifest may ask for: 50 classes (TREC's
#: fine-grained label count), 10,000 sentences a class and a 100,000-word
#: vocabulary (five times MR's), so a typo cannot exhaust memory
MANIFEST_CEILINGS = {"class_count": 50, "samples_per_class": 10_000, "vocab_size": 100_000}
#: smallest manifest numbers: one class of one sentence for a synthetic
#: corpus (the vocabulary floor, two words a class, depends on class_count),
#: two folds for cross validation
MANIFEST_FLOORS = {"class_count": 1, "samples_per_class": 1, "folds": 2}
#: the keys each manifest kind reads besides "kind"; any other is refused
MANIFEST_KEYS = {
    "synthetic": {
        "class_count", "samples_per_class", "vocab_size", "test_fraction", "seed"
    },
    "mr": {"pos", "neg", "folds", "fold_index"},
    "cr": {"path", "folds", "fold_index"},
    "trec": {"train", "test"},
}


def _manifest_error(manifest: dict[str, Any], key: str, problem: str) -> DataError:
    return DataError(f"{manifest['kind']} dataset manifest key {key!r} {problem}")


def _manifest_number(manifest: dict[str, Any], key: str, convert, default):
    """``checked_number`` of the manifest's value at ``key``, or of ``default``
    without one, in the key's MANIFEST_FLOORS and MANIFEST_CEILINGS bounds; a
    value it refuses is a DataError."""
    floor, ceiling = MANIFEST_FLOORS.get(key), MANIFEST_CEILINGS.get(key)
    try:
        return checked_number(manifest.get(key, default), convert, floor, ceiling)
    except ValueError as exc:
        raise _manifest_error(manifest, key, str(exc)) from None


def prepare_corpus(
    manifest: dict[str, Any], ratio_init: float, seed: int
) -> PreparedCorpus:
    """Build a PreparedCorpus from a dataset manifest.

    Kinds: synthetic (bundled generator), mr (pos/neg files, 10-fold CV),
    cr (tab-separated file, 10-fold CV), trec (train/test files, fixed
    test split).
    """
    kind = manifest["kind"]
    if not isinstance(kind, str) or kind not in MANIFEST_KEYS:
        raise DataError(f"unknown dataset kind {kind!r}")
    unknown = sorted(set(manifest) - MANIFEST_KEYS[kind] - {"kind"})
    if unknown:
        raise _manifest_error(manifest, unknown[0], "is unknown")
    if kind == "synthetic":
        class_count = _manifest_number(manifest, "class_count", int, 2)
        vocab_size = _manifest_number(manifest, "vocab_size", int, 40)
        if vocab_size < 2 * class_count:
            raise _manifest_error(
                manifest, "vocab_size", f"is below {2 * class_count}, twice class_count"
            )
        test_fraction = _manifest_number(manifest, "test_fraction", float, 0.2)
        if not 0.0 <= test_fraction < 1.0:
            raise _manifest_error(manifest, "test_fraction", "is outside [0, 1)")
        data = synthetic_corpus(
            class_count=class_count,
            samples_per_class=_manifest_number(manifest, "samples_per_class", int, 50),
            vocab_size=vocab_size,
            seed=_manifest_number(manifest, "seed", int, seed),
        )
        return make_splits(data, HoldoutPolicy(test_fraction), ratio_init, seed)
    if kind in ("mr", "cr"):
        if kind == "mr":
            data = load_mr(*_manifest_paths(manifest, "pos", "neg"))
        else:
            data = load_cr(*_manifest_paths(manifest, "path"))
        folds = _manifest_number(manifest, "folds", int, 10)
        fold_index = _manifest_number(manifest, "fold_index", int, 0)
        if not 0 <= fold_index < folds:
            raise _manifest_error(manifest, "fold_index", f"is outside [0, {folds})")
        return make_splits(data, CvPolicy(folds, fold_index), ratio_init, seed)
    train, test, _ = load_trec(*_manifest_paths(manifest, "train", "test"))
    return make_splits(train, FixedTestPolicy(tuple(test)), ratio_init, seed)


def build_evaluator(config: RunConfig, cache_path: str | None = None):
    if config.objective_kind.startswith(SYNTHETIC_PREFIX):
        name = config.objective_kind[len(SYNTHETIC_PREFIX) :]
        return SyntheticEvaluator(space=config.space, name=name)
    manifest = _load_manifest(config.dataset_path)
    corpus = prepare_corpus(manifest, config.ratio_init, config.seed_number)
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


def _write_run_outputs(
    result: RunResult, front: list, config: RunConfig, out_dir: str, top_k: int
) -> list[str]:
    meta = {"objective_kind": config.objective_kind, "seed_number": config.seed_number}
    files = {
        "archive.txt": archive_text(front, config.space, top_k),
        "archive.json": archive_json(front, top_k, meta),
        "trace.jsonl": trace_jsonl(result),
        "calibration.json": calibration_json(result),
    }
    return _write_files({os.path.join(out_dir, n): text for n, text in files.items()})


def cmd_tune(args: argparse.Namespace) -> int:
    try:
        config = load_run_config(args.config)
    except FileNotFoundError:
        raise UsageError(f"run config not found: {args.config}") from None
    except OSError as exc:
        raise UsageError(f"run config {args.config}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or settings
        raise UsageError(f"bad run config: {exc}") from None
    evaluator = build_evaluator(config, cache_path=args.cache)
    result = run(config, evaluator)
    front = result.archive.front()
    written = _write_run_outputs(result, front, config, args.output_dir, args.top_k)
    best = front[0]
    print(f"stop reason: {result.stop_reason}; evaluations: {result.evaluations}")
    print(f"archive size: {len(front)}")
    print(
        f"best: error_rate={best.objectives.error_rate!r} "
        f"flops={best.objectives.flops} config={best.config.as_dict()}"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _config_from_sets(space: SearchSpace, pairs: Sequence[str]) -> Configuration:
    assignments: dict[str, Any] = {}
    for pair in pairs:
        name, eq, text = pair.partition("=")
        if not eq:
            raise UsageError(f"--set expects name=value, got {pair!r}")
        try:
            domain = space.domain(name)
        except KeyError:
            raise UsageError(f"unknown hyperparameter {name!r}") from None
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
    try:
        if args.corpus or not args.flops_only:  # the corpus sets the shape
            manifest = _load_manifest(args.corpus)
            corpus = prepare_corpus(manifest, args.ratio_init, args.seed)
            sentence_length, class_count = corpus.sentence_length, corpus.class_count
        breakdown = estimate_flops(
            config, sentence_length, args.embedding_dim, class_count
        )
    except DataError:
        raise
    except ValueError as exc:  # e.g. a sentence shorter than the widest window
        raise UsageError(str(exc)) from None
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
    space = default_search_space()
    if args.space:
        text = args.space
        try:
            if not text.lstrip().startswith("{"):
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            space = space.restrict(json.loads(text))
        except FileNotFoundError:
            raise UsageError(f"space file not found: {args.space}") from None
        except OSError as exc:
            raise UsageError(f"space file {args.space}: {exc.strerror}") from None
        except (ValueError, RecursionError) as exc:  # bad bytes, JSON or values
            raise UsageError(f"bad space restriction: {exc}") from None
    if space.cardinality() > args.cap:
        raise UsageError(
            f"space cardinality {space.cardinality()} exceeds cap {args.cap}"
        )
    evaluator = SyntheticEvaluator(space=space, name=args.objective)
    archive = ParetoArchive()
    for config in enumerate_space(space, args.cap):
        archive.insert(ArchiveEntry(config, evaluator.evaluate(config), 0))
    entries = archive.front()
    meta = {"objective_kind": SYNTHETIC_PREFIX + args.objective, "cap": args.cap}
    json_path = os.path.splitext(args.output)[0] + ".json"
    _write_files({
        args.output: archive_text(entries, space, args.top_k),
        json_path: archive_json(entries, args.top_k, meta),
    })
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
    p_eval.add_argument(
        "--sentence-length", type=number(int, 1), default=SYNTHETIC_SENTENCE_LENGTH
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
