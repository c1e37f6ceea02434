"""Central registry of filtering methods: method code -> :class:`FilterSpec`.

Every benchmark layer used to carry its own copy of the method universe —
name lists in :mod:`repro.bench.harness`, an if/elif dispatch chain in the
run-time breakdown, per-family tuner selection in :mod:`repro.tuning`.
This module replaces all of that with one declarative table: each method
code of the paper (``SBW`` ... ``DDB``) maps to a :class:`FilterSpec`
bundling its family, Table-VII row order, canonical stage schema, the
factories that build its tuner / its filter from tuned parameters (or its
baseline default), and its scalability exclusions.

The specs are *registered by the modules that own them* — the tuners in
:mod:`repro.tuning.blocking` / ``sparse`` / ``dense`` and the baselines in
:mod:`repro.tuning.baselines` — so the registry itself stays free of
family-specific imports; it lazily imports :mod:`repro.tuning` on first
lookup to trigger those registrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .filters import Filter
from .stages import Stage

__all__ = [
    "FAMILIES",
    "FilterSpec",
    "all_specs",
    "baseline_codes",
    "build_filter",
    "build_serving",
    "check_consistency",
    "excluded_cells",
    "family_codes",
    "fine_tuned_codes",
    "get",
    "incremental_codes",
    "is_registered",
    "make_tuner",
    "method_codes",
    "parallel_codes",
    "register",
    "serving_codes",
]

#: The three method families of the paper (Problem 1, Section II).
FAMILIES = ("blocking", "sparse", "dense")


@dataclass(frozen=True)
class FilterSpec:
    """Everything the benchmark layers need to know about one method.

    Parameters
    ----------
    code:
        The paper's method acronym (``"SBW"`` ... ``"DDB"``).
    family:
        One of :data:`FAMILIES`.
    order:
        Row position in Table VII (drives every derived method list).
    stages:
        Canonical stage schema of the method's run-time decomposition.
    filter_factory:
        Builds a runnable :class:`~repro.core.filters.Filter` from a tuned
        parameter dict (the ``params`` of a ``TunedResult`` / matrix cell).
    tuner_factory:
        Builds the Problem-1 tuner; signature
        ``(target_recall, profile, cache, prune)``.  ``None`` for
        baselines.
    baseline_factory:
        Builds the default-parameter filter.  ``None`` for tuned methods.
    excluded_datasets:
        Datasets where the method is excluded for scalability (the paper's
        "-" cells).
    incremental_factory:
        Builds the method's streaming counterpart — an
        :class:`~repro.core.incremental.IncrementalIndex` — from a tuned
        (or empty, i.e. default) parameter dict.  ``None`` for methods
        without an incremental implementation.
    supports_workers:
        True when the method's query phase honours the ``workers=`` knob
        (sharded execution over :mod:`repro.core.parallel`) with
        byte-identical output for every worker count.
    """

    code: str
    family: str
    order: int
    stages: Tuple[Stage, ...]
    filter_factory: Optional[Callable[[Mapping[str, object]], Filter]] = None
    tuner_factory: Optional[Callable[..., object]] = None
    baseline_factory: Optional[Callable[[], Filter]] = None
    excluded_datasets: FrozenSet[str] = field(default_factory=frozenset)
    incremental_factory: Optional[
        Callable[[Mapping[str, object]], object]
    ] = None
    supports_workers: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )
        if (self.tuner_factory is None) == (self.baseline_factory is None):
            raise ValueError(
                f"{self.code}: specs need exactly one of tuner_factory "
                "(tuned method) or baseline_factory (baseline)"
            )

    @property
    def is_baseline(self) -> bool:
        return self.baseline_factory is not None

    @property
    def supports_incremental(self) -> bool:
        """True when the method ships a streaming (add/remove/query) form."""
        return self.incremental_factory is not None

    def build_incremental(
        self, params: Optional[Mapping[str, object]] = None
    ):
        """The method's :class:`~repro.core.incremental.IncrementalIndex`.

        ``params`` follows the same tuned-parameter vocabulary as
        :meth:`build_filter`; an empty dict selects serving defaults.
        """
        if self.incremental_factory is None:
            raise ValueError(
                f"{self.code} has no incremental implementation"
            )
        return self.incremental_factory(dict(params or {}))

    @property
    def supports_serving(self) -> bool:
        """True when the method can be wrapped by the serving layer.

        Serving is defined for every incremental method: the
        :class:`~repro.core.serving.ServingIndex` only needs the uniform
        add/remove/query surface plus deterministic rebuilds, which the
        incremental contract already guarantees.
        """
        return self.supports_incremental

    def build_serving(
        self,
        params: Optional[Mapping[str, object]] = None,
        **serving_kwargs,
    ):
        """The method behind a :class:`~repro.core.serving.ServingIndex`.

        ``params`` configures the wrapped incremental index exactly as
        :meth:`build_incremental` does; ``serving_kwargs`` (``directory``,
        ``queue_limit``, ``checkpoint_every``, ...) pass through to the
        serving constructor.  The factory handed over is re-invocable, so
        the service can double-buffer and the chaos oracle can rebuild.
        """
        from .serving import ServingIndex

        if self.incremental_factory is None:
            raise ValueError(
                f"{self.code} has no incremental implementation to serve"
            )
        frozen = dict(params or {})
        return ServingIndex(
            lambda: self.incremental_factory(dict(frozen)), **serving_kwargs
        )

    @property
    def phase_names(self) -> Tuple[str, ...]:
        """The stage schema as flat names (breakdown JSON keys)."""
        return tuple(stage.name for stage in self.stages)

    def build_filter(
        self, params: Optional[Mapping[str, object]] = None
    ) -> Filter:
        """A runnable filter: from tuned ``params``, or baseline defaults."""
        if self.is_baseline:
            return self.baseline_factory()
        assert self.filter_factory is not None
        return self.filter_factory(dict(params or {}))

    def make_tuner(
        self,
        target_recall: Optional[float] = None,
        profile: str = "",
        cache: Optional[object] = None,
        prune: Optional[bool] = None,
    ):
        """The method's Problem-1 tuner (tuned methods only).

        ``prune`` enables cost-based grid pruning (None defers to the
        ``REPRO_TUNING_PRUNE`` environment knob).
        """
        if self.tuner_factory is None:
            raise ValueError(
                f"{self.code} is a baseline: it is evaluated, not tuned"
            )
        if target_recall is None:
            from .optimizer import DEFAULT_RECALL_TARGET

            target_recall = DEFAULT_RECALL_TARGET
        return self.tuner_factory(target_recall, profile, cache, prune)


_REGISTRY: Dict[str, FilterSpec] = {}


def register(spec: FilterSpec) -> FilterSpec:
    """Register (or replace) the spec for ``spec.code``."""
    _REGISTRY[spec.code] = spec
    return spec


def _ensure_populated() -> None:
    """Trigger the self-registration of the tuning modules (idempotent)."""
    if not _REGISTRY:
        import repro.tuning  # noqa: F401  (registers every FilterSpec)


def is_registered(code: str) -> bool:
    _ensure_populated()
    return code in _REGISTRY


def get(code: str) -> FilterSpec:
    """The spec of one method code; raises ``ValueError`` when unknown."""
    _ensure_populated()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ValueError(f"unknown method {code!r}") from None


def all_specs() -> List[FilterSpec]:
    """Every registered spec, in Table VII row order."""
    _ensure_populated()
    return sorted(_REGISTRY.values(), key=lambda spec: spec.order)


def method_codes() -> Tuple[str, ...]:
    """All method codes in Table VII row order (the old ``ALL_METHODS``)."""
    return tuple(spec.code for spec in all_specs())


def fine_tuned_codes() -> Tuple[str, ...]:
    """Codes of the 13 fine-tuned methods, in row order."""
    return tuple(s.code for s in all_specs() if not s.is_baseline)


def baseline_codes() -> Tuple[str, ...]:
    """Codes of the 4 baselines, in row order."""
    return tuple(s.code for s in all_specs() if s.is_baseline)


def family_codes(family: str, baselines: bool = True) -> Tuple[str, ...]:
    """Codes of one family, optionally without its baselines."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return tuple(
        s.code
        for s in all_specs()
        if s.family == family and (baselines or not s.is_baseline)
    )


def incremental_codes() -> Tuple[str, ...]:
    """Codes of the methods with a streaming form, in row order."""
    return tuple(s.code for s in all_specs() if s.supports_incremental)


def serving_codes() -> Tuple[str, ...]:
    """Codes of the methods the serving layer can wrap, in row order."""
    return tuple(s.code for s in all_specs() if s.supports_serving)


def build_serving(
    code: str,
    params: Optional[Mapping[str, object]] = None,
    **serving_kwargs,
):
    """A :class:`~repro.core.serving.ServingIndex` over method ``code``."""
    return get(code).build_serving(params, **serving_kwargs)


def parallel_codes() -> Tuple[str, ...]:
    """Codes of the methods honouring ``workers=``, in row order."""
    return tuple(s.code for s in all_specs() if s.supports_workers)


def excluded_cells() -> FrozenSet[Tuple[str, str]]:
    """(method, dataset) pairs excluded for scalability (the "-" cells)."""
    return frozenset(
        (spec.code, dataset)
        for spec in all_specs()
        for dataset in sorted(spec.excluded_datasets)
    )


def build_filter(
    code: str, params: Optional[Mapping[str, object]] = None
) -> Filter:
    """Materialize a runnable filter for ``code`` from tuned ``params``."""
    return get(code).build_filter(params)


def make_tuner(
    code: str,
    target_recall: Optional[float] = None,
    profile: str = "",
    cache: Optional[object] = None,
    prune: Optional[bool] = None,
):
    """The Problem-1 tuner for ``code`` (tuned methods only)."""
    return get(code).make_tuner(target_recall, profile, cache, prune)


def check_consistency() -> None:
    """Assert the registry and the benchmark method universe agree.

    Used by CI: every method in :data:`repro.bench.harness.ALL_METHODS`
    must resolve to a registered spec and vice versa, row orders must be
    unique, every spec must carry a non-empty stage schema, and every
    ``supports_incremental`` spec must round-trip through the
    differential batch-vs-stream oracle.
    """
    from ..bench.harness import ALL_METHODS, EXCLUDED_CELLS
    from .incremental import IncrementalIndex, differential_smoke

    codes = method_codes()
    if set(codes) != set(ALL_METHODS):
        raise AssertionError(
            f"registry/harness mismatch: registry={codes} "
            f"harness={ALL_METHODS}"
        )
    if tuple(ALL_METHODS) != codes:
        raise AssertionError(
            f"method order mismatch: registry={codes} harness={ALL_METHODS}"
        )
    orders = [spec.order for spec in all_specs()]
    if len(set(orders)) != len(orders):
        raise AssertionError(f"duplicate Table VII row orders: {orders}")
    if EXCLUDED_CELLS != excluded_cells():
        raise AssertionError(
            f"exclusion mismatch: harness={EXCLUDED_CELLS} "
            f"registry={excluded_cells()}"
        )
    for spec in all_specs():
        if not spec.stages:
            raise AssertionError(f"{spec.code}: empty stage schema")
        if spec.supports_incremental:
            if not isinstance(spec.build_incremental(), IncrementalIndex):
                raise AssertionError(
                    f"{spec.code}: incremental_factory does not build an "
                    "IncrementalIndex"
                )
            try:
                checked = differential_smoke(
                    lambda spec=spec: spec.build_incremental()
                )
            except AssertionError as error:
                raise AssertionError(
                    f"{spec.code}: incremental index diverges from its "
                    f"batch rebuild: {error}"
                ) from error
            if checked <= 0:
                raise AssertionError(
                    f"{spec.code}: differential smoke checked no queries"
                )
            from .profile import EntityProfile
            from .serving import ServingIndex

            service = spec.build_serving()
            try:
                if not isinstance(service, ServingIndex):
                    raise AssertionError(
                        f"{spec.code}: build_serving does not build a "
                        "ServingIndex"
                    )
                probe = EntityProfile(
                    uid="__serving_smoke__",
                    attributes={"name": "serving smoke probe"},
                )
                service.add(probe)
                answer = service.query(probe)
                if probe.uid not in answer and answer != ():
                    # Families may legitimately not self-match (e.g. a
                    # capped block), but a wrong-type answer is a bug.
                    raise AssertionError(
                        f"{spec.code}: serving smoke returned {answer!r}"
                    )
                if service.health()["status"] != "ok":
                    raise AssertionError(
                        f"{spec.code}: serving smoke unhealthy: "
                        f"{service.health()!r}"
                    )
            finally:
                service.close()
        if spec.is_baseline:
            continue
        tuner = spec.make_tuner()
        if not hasattr(tuner, "tune") or not hasattr(tuner, "build_filter"):
            raise AssertionError(
                f"{spec.code}: tuner {type(tuner).__name__} lacks the "
                "uniform tune/build_filter protocol"
            )
