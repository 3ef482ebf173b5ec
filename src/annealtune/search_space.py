"""Categorical hyperparameter space: domains, configurations, moves, run config.

Values are stored exactly: counts as ints, fractional settings as decimal
strings ("0.001"), names as plain strings. This keeps file round-trips
bit-exact and makes configurations hashable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Iterator, Mapping, get_type_hints

Value = int | str

#: the text CNN's convolution window heights, ascending; each window w has
#: a ``kernel_count_w{w}`` hyperparameter, its filter count
WINDOWS = (3, 4, 5)

#: display labels used by the archive/top-k exports
DISPLAY_LABELS = {
    **{f"kernel_count_w{w}": f"filter num of win {w}" for w in WINDOWS},
    "conv_dropout": "Dropout Rate (conv)",
    "fc_units": "unit num of fc",
    "fc_dropout": "Dropout Rate (fc)",
    "activation": "activation function",
    "learning_rate": "Learning Rate",
    "batch_size": "Batch size",
}


def brief(value: Any) -> str:
    """``repr(value)``, cut to 60 characters: how an error message echoes a
    value read from outside, however long or deeply nested."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def canonical_value(raw: Any) -> Value:
    """Coerce a raw domain value to its canonical stored form.

    Ints stay ints; floats become their shortest round-trip decimal string;
    strings are kept as-is.
    """
    if isinstance(raw, bool):
        raise ValueError(f"bool is not a valid domain value: {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        return repr(raw)
    if isinstance(raw, str):
        return raw
    raise ValueError(f"unsupported domain value type: {brief(raw)}")


def parse_value(domain: "ParamDomain", text: str) -> Value:
    """Resolve command-line text to the domain value it denotes."""
    for v in domain.values:
        if str(v) == text:
            return v
    raise ValueError(f"{brief(text)} is not a value of domain {domain.name!r}")


@dataclass(frozen=True)
class ParamDomain:
    """One tunable parameter: a name and its ordered finite value list.

    Lookups by value (index fraction, the other values) are built once
    here, because the annealer makes them on every step.
    """

    name: str
    values: tuple[Value, ...]
    #: value -> index / (len(values) - 1); empty when there is one value
    fraction: dict[Value, float] = field(init=False, repr=False, compare=False)
    #: value -> every other value, in ``values`` order
    alternatives: dict[Value, tuple[Value, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("domain name must be non-empty")
        values = tuple(canonical_value(v) for v in self.values)
        if not values:
            raise ValueError(f"domain {self.name!r} has no values")
        if len(set(values)) != len(values):
            raise ValueError(f"domain {self.name!r} has duplicate values")
        last = len(values) - 1
        object.__setattr__(self, "values", values)
        fraction = {v: i / last for i, v in enumerate(values)} if last else {}
        object.__setattr__(self, "fraction", fraction)
        object.__setattr__(
            self,
            "alternatives",
            {v: tuple(u for u in values if u != v) for v in values},
        )

    def check(self, value: Value) -> None:
        """Refuse a ``value`` that is not one of the domain's."""
        if value not in self.alternatives:
            raise ValueError(f"{brief(value)} is not a value of domain {self.name!r}")


@dataclass(frozen=True)
class Configuration:
    """One concrete assignment, ordered like the owning space's domains."""

    items: tuple[tuple[str, Value], ...]
    #: name -> value; built from ``items`` unless the caller already holds it
    _values: dict[str, Value] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._values is None:
            object.__setattr__(self, "_values", dict(self.items))

    def __getitem__(self, name: str) -> Value:
        return self._values[name]

    def as_dict(self) -> dict[str, Value]:
        return dict(self.items)

    def replace(self, name: str, value: Value) -> "Configuration":
        values = dict(self._values)
        if name not in values:
            raise KeyError(name)
        values[name] = value
        return Configuration(tuple(values.items()), values)

    def sort_key(self) -> tuple[tuple[str, str], ...]:
        """Deterministic lexicographic key, independent of domain order."""
        return tuple((k, str(v)) for k, v in sorted(self.items))


@dataclass(frozen=True)
class SearchSpace:
    """Ordered collection of categorical domains."""

    domains: tuple[ParamDomain, ...]

    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: the domains with two or more values, the only ones a move can change
    mutable: tuple[ParamDomain, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(d.name for d in self.domains)
        if len(set(names)) != len(names):
            raise ValueError("duplicate domain names in search space")
        if not self.domains:
            raise ValueError("search space needs at least one domain")
        object.__setattr__(self, "names", names)
        object.__setattr__(
            self, "mutable", tuple(d for d in self.domains if len(d.values) >= 2)
        )

    def domain(self, name: str) -> ParamDomain:
        for d in self.domains:
            if d.name == name:
                return d
        raise KeyError(name)

    def cardinality(self) -> int:
        return math.prod(len(d.values) for d in self.domains)

    def configuration(self, assignments: Mapping[str, Any]) -> Configuration:
        """Build a validated Configuration (every domain, members only)."""
        extra = set(assignments) - set(self.names)
        if extra:
            raise ValueError(f"assignments for unknown domains: {sorted(extra)}")
        items = []
        for d in self.domains:
            if d.name not in assignments:
                raise ValueError(f"missing assignment for domain {d.name!r}")
            value = canonical_value(assignments[d.name])
            d.check(value)
            items.append((d.name, value))
        return Configuration(tuple(items))

    def restrict(self, subsets: Mapping[str, list[Any]]) -> "SearchSpace":
        """Restrict named domains to subsets of their values.

        Unlisted domains keep their full value lists. Subset order is kept
        as given, so restrictions may reorder values.
        """
        if not isinstance(subsets, Mapping):
            raise ValueError("a restriction maps domain names to value lists")
        extra = sorted(set(subsets) - set(self.names))
        if extra:
            raise ValueError(f"restriction names unknown domains: {brief(extra)}")
        domains = []
        for d in self.domains:
            if d.name in subsets:
                if not isinstance(subsets[d.name], list):
                    raise ValueError(f"restriction of {d.name!r} is not a list")
                chosen = tuple(canonical_value(v) for v in subsets[d.name])
                for v in chosen:
                    d.check(v)
                domains.append(ParamDomain(d.name, chosen))
            else:
                domains.append(d)
        return SearchSpace(tuple(domains))


def default_search_space() -> SearchSpace:
    """The full tuning space: per-window filter counts, dropouts, fc width,
    activation, learning rate, and batch size."""
    kernel_counts = (32, 64, 96, 100, 128, 160, 256)
    dropout = ("0.1", "0.2", "0.3", "0.4", "0.5")
    return SearchSpace(
        (
            *(ParamDomain(f"kernel_count_w{w}", kernel_counts) for w in WINDOWS),
            ParamDomain("conv_dropout", dropout),
            ParamDomain("fc_units", (16, 32, 64, 128, 256, 512)),
            ParamDomain("fc_dropout", dropout),
            ParamDomain(
                "activation", ("relu", "leaky_relu", "elu", "tanh", "linear")
            ),
            ParamDomain(
                "learning_rate",
                (
                    "0.0001",
                    "0.001",
                    "0.01",
                    "0.0002",
                    "0.0005",
                    "0.0008",
                    "0.002",
                    "0.004",
                    "0.005",
                    "0.008",
                ),
            ),
            ParamDomain("batch_size", (64, 128, 256)),
        )
    )


def random_configuration(space: SearchSpace, rng: random.Random) -> Configuration:
    """Draw each domain's value uniformly. Deterministic given rng state."""
    return Configuration(
        tuple((d.name, rng.choice(d.values)) for d in space.domains)
    )


def neighbor(
    config: Configuration, space: SearchSpace, rng: random.Random
) -> Configuration:
    """Reassign exactly one mutable domain to a different value of itself.
    ``config`` must come from ``space``, and ``space`` have a mutable domain,
    as a RunConfig's does; neither is checked again here."""
    d = rng.choice(space.mutable)
    return config.replace(d.name, rng.choice(d.alternatives[config[d.name]]))


def enumerate_space(space: SearchSpace) -> Iterator[Configuration]:
    """Return an iterator over every configuration, in lexicographic index
    order."""
    return (
        Configuration(tuple(zip(space.names, values)))
        for values in itertools.product(*(d.values for d in space.domains))
    )


# --- run configuration -------------------------------------------------------

SYNTHETIC_PREFIX = "synthetic:"
#: the synthetic objectives a ``synthetic:`` objective kind may name
SYNTHETIC_NAMES = ("sphere_proxy", "deceptive_trap")
OBJECTIVE_KINDS = ("textcnn", *(SYNTHETIC_PREFIX + name for name in SYNTHETIC_NAMES))


def checked_number(value: Any, convert: type, floor=None, ceiling=None):
    """``convert`` (int or float) of ``value``. What it cannot convert, NaN
    and infinities, a fraction for an int and a value below ``floor`` or
    above ``ceiling`` are ValueErrors whose message ("is not a number", ...)
    follows a key. Text that int() refuses is judged as the float it reads,
    as a JSON number is: "10.0" is the int 10, "1.5" is not an integer.
    JSON true and false are not numbers."""
    if isinstance(value, bool):
        raise ValueError("is not a number")
    try:
        if convert is int and isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                value = float(value)
        number = float(value) if isinstance(value, float) else convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("is not a number") from None
    if isinstance(number, float):
        if not math.isfinite(number):
            raise ValueError("is not finite")
        if convert is int:
            if not number.is_integer():
                raise ValueError("is not an integer")
            number = int(number)
    if ceiling is not None and number > ceiling:
        raise ValueError(f"is above {ceiling}")
    if floor is not None and number < floor:
        raise ValueError(f"is below {floor}")
    return number


#: (floor, ceiling) of RunConfig's bounded number fields. The schedule divides
#: the budget as a float, exact for every integer up to 2**53
_BOUNDS = {"iteration_budget": (1, 2**53), "probe_count": (2, None),
           "max_epochs": (1, None)}
_UNIT_RANGE = ("cooling_rate", "initial_acceptance_probability", "ratio_init")
#: the mean probe deterioration's acceptance probability at the final
#: temperature: the paper's T_final 0.12 at T_init 0.577 (probability 0.5)
FINAL_ACCEPTANCE_PROBABILITY = 0.0357


@dataclass(frozen=True)
class RunConfig:
    """Everything one tuning run needs, loadable from a JSON file; the one
    judge of a valid run config."""

    seed_number: int
    ratio_init: float
    iteration_budget: int
    initial_acceptance_probability: float
    cooling_rate: float
    objective_kind: str
    dataset_path: str | None = None
    space: SearchSpace = field(default_factory=default_search_space)
    probe_count: int = 20
    max_epochs: int = 20

    def __post_init__(self) -> None:
        for name, convert in _NUMBERS.items():
            try:
                number = checked_number(
                    getattr(self, name), convert, *_BOUNDS.get(name, ())
                )
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
            if name in _UNIT_RANGE and not 0.0 < number < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
            object.__setattr__(self, name, number)
        if self.initial_acceptance_probability <= FINAL_ACCEPTANCE_PROBABILITY:
            raise ValueError("initial_acceptance_probability must be above "
                             f"{FINAL_ACCEPTANCE_PROBABILITY}")
        if not isinstance(self.dataset_path, (str, type(None))):
            raise ValueError("dataset_path is not a path or null")
        kind = self.objective_kind
        if kind not in OBJECTIVE_KINDS:
            raise ValueError(
                f"objective_kind {brief(kind)} is not one of {OBJECTIVE_KINDS}"
            )
        if self.space.cardinality() < 2:
            raise ValueError("search space must contain at least 2 configurations")


#: RunConfig's number fields -> int or float, read once from its annotations
_NUMBERS = {k: t for k, t in get_type_hints(RunConfig).items() if t in (int, float)}


def run_config_from_dict(raw: Mapping[str, Any]) -> RunConfig:
    if not isinstance(raw, Mapping):
        raise ValueError("run config must be a key/value mapping")
    keys = fields(RunConfig)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ValueError(f"unknown run config keys: {brief(sorted(unknown))}")
    required = {
        f.name for f in keys if f.default is MISSING and f.default_factory is MISSING
    }
    missing = required - set(raw)
    if missing:
        raise ValueError(f"missing run config keys: {sorted(missing)}")
    kwargs: dict[str, Any] = {k: raw[k] for k in raw if k != "space"}
    if raw.get("space") is not None:
        kwargs["space"] = default_search_space().restrict(raw["space"])
    return RunConfig(**kwargs)
