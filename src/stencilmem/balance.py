"""Analytic code-balance model for stencil kernels.

Combines the stream counts of a kernel (``KernelSpec.counts``) with a
layer-condition state and a write-allocate policy into a bytes/iteration
figure; the layer condition reads the row-reuse bytes the kernel stores
(``KernelSpec.row_reuse``). Both are derived once, when the kernel is
built. The four corner scenarios (min, LCF+WA, LCB, max) bound the model's
own scenarios; partial write-allocate evasion sits in between and is
modelled by a residual store ratio between 1.0 (all allocates evaded) and
2.0 (none). Measured traffic carries a small residual on top of the model:
in the bundled serial data, six kernels without a layer condition measure
up to 1.1% above their max corner, so the corners are not a ceiling for
measurements. Every bytes/iteration figure comes from :func:`code_balance`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import KernelSpec, StreamCounts


@dataclass(frozen=True)
class WaPolicy:
    """Write-allocate behaviour of the evadable write streams.

    ``store_ratio`` is actual-traffic / store-volume per evadable stream:
    1.0 means every allocate is evaded, 2.0 means every written line is
    fetched first. If ``nt_ratio`` is set, exactly one write stream uses
    non-temporal stores at that ratio (the compiler only gets one stream
    past the alignment constraint) and the remaining evadable streams stay
    at ``store_ratio``.
    """

    store_ratio: float = 2.0
    nt_ratio: float | None = None

    def __post_init__(self):
        for r in (self.store_ratio, self.nt_ratio):
            if r is not None and not 1.0 <= r <= 2.0:
                raise ValueError("write-allocate ratios must lie in [1.0, 2.0]")

    def extra_fills(self, evadable: int) -> float:
        """Fill elements per iteration charged on `evadable` write streams."""
        if evadable <= 0:
            return 0.0
        if self.nt_ratio is not None:
            return (self.nt_ratio - 1.0) + (self.store_ratio - 1.0) * (evadable - 1)
        return (self.store_ratio - 1.0) * evadable


FULL_WA = WaPolicy(store_ratio=2.0)
NO_WA = WaPolicy(store_ratio=1.0)


def evasion(store_ratio: float) -> WaPolicy:
    """Uniform residual store ratio on every evadable write stream."""
    return WaPolicy(store_ratio=store_ratio)


def nt_plus_evasion(nt_ratio: float, store_ratio: float) -> WaPolicy:
    """One non-temporal write stream, hardware evasion on the rest."""
    return WaPolicy(store_ratio=store_ratio, nt_ratio=nt_ratio)


# named write-allocate model -> its policy on a machine
WA_MODELS = {
    "full": lambda m: FULL_WA,
    "none": lambda m: NO_WA,
    "speci2m": lambda m: evasion(m.speci2m_factor),
    "nt-speci2m": lambda m: nt_plus_evasion(m.nt_factor, m.speci2m_factor),
}


def wa_policy(name: str, machine) -> WaPolicy:
    """Policy of a named write-allocate model; `machine` supplies the residual
    store ratios of hardware evasion and non-temporal stores."""
    if name not in WA_MODELS:
        raise ValueError(f"unknown write-allocate model {name!r}")
    return WA_MODELS[name](machine)


# Share of a cache that holds reused rows; the rest is assumed taken by
# streaming data and other processes.
USABLE_CACHE_SHARE = 0.5


@dataclass(frozen=True)
class LayerConditionReport:
    """Cache demand of the row reuse in one kernel.

    ``per_array`` holds the required bytes of every array that reads two or
    more distinct grid rows; single-row arrays impose no layer condition.
    """

    per_array: dict[str, int]
    total_required: int
    effective_cache: float

    @staticmethod
    def holds(required: float, effective_cache: float) -> bool:
        """The layer condition: `required` bytes of rows fit the cache."""
        return required < effective_cache

    @property
    def fulfilled(self) -> bool:
        return self.holds(self.total_required, self.effective_cache)

    @property
    def status(self) -> str:
        return "fulfilled" if self.fulfilled else "broken"


def layer_condition(kernel: KernelSpec, inner_extent: int,
                    effective_cache: float) -> LayerConditionReport:
    """Evaluate the joint layer condition against one effective cache.

    Every array with row reuse must keep its rows of ``inner_extent``
    elements cached (``KernelSpec.row_reuse``); the requirements of all such
    arrays are summed and compared against ``effective_cache``.
    """
    if inner_extent < 1:
        raise ValueError("inner_extent must be >= 1")
    if effective_cache <= 0:
        raise ValueError("effective_cache must be positive")
    per_array = {name: need * inner_extent for name, need in kernel.row_reuse.items()}
    return LayerConditionReport(per_array=per_array,
                                total_required=sum(per_array.values()),
                                effective_cache=effective_cache)


def min_total_cache(rows: int, inner_extent: int, element_size: int = 8) -> float:
    """Total cache size above which `rows` grid rows fit in the usable share
    (``USABLE_CACHE_SHARE``). For two rows of 15360 doubles this yields
    491520 bytes.
    """
    return rows * inner_extent * element_size / USABLE_CACHE_SHARE


def code_balance(counts: StreamCounts, lc_fulfilled: bool, policy: WaPolicy,
                 element_size: int = 8) -> float:
    """Bytes per iteration for one (layer condition, WA policy) scenario."""
    rd = counts.rd_lcf if lc_fulfilled else counts.rd_lcb
    return element_size * (rd + counts.wr + policy.extra_fills(counts.evadable_writes))


@dataclass(frozen=True)
class BalanceScenario:
    lc_fulfilled: bool
    policy: WaPolicy
    bytes_per_it: float
    flops_per_it: int

    @property
    def intensity(self) -> float:
        """Flops per byte; 0.0 for flop-free kernels."""
        return self.flops_per_it / self.bytes_per_it if self.bytes_per_it else 0.0


@dataclass(frozen=True)
class ScenarioTable:
    """The four code-balance corner cases of one kernel."""

    minimum: BalanceScenario   # LC fulfilled, no write-allocates
    lcf_wa: BalanceScenario    # LC fulfilled, full write-allocates
    lcb: BalanceScenario       # LC broken, no write-allocates
    maximum: BalanceScenario   # LC broken, full write-allocates

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.minimum.bytes_per_it, self.lcf_wa.bytes_per_it,
                self.lcb.bytes_per_it, self.maximum.bytes_per_it)


# named scenario -> (layer condition fulfilled, write-allocate model); the
# first four are the ScenarioTable corners, in field order
SCENARIOS = {
    "min": (True, "none"),
    "lcf-wa": (True, "full"),
    "lcb": (False, "none"),
    "max": (False, "full"),
    "speci2m": (True, "speci2m"),
    "nt-speci2m": (True, "nt-speci2m"),
}
EVADING = frozenset({"speci2m", "nt-speci2m"})   # rely on hardware WA evasion


def scenario_balance(kernel: KernelSpec, name: str, machine,
                     evasion_engages: bool = True) -> float:
    """Bytes per iteration under a named scenario; a kernel where hardware
    evasion does not engage is priced at lcf-wa under an evading scenario."""
    if not evasion_engages and name in EVADING:
        name = "lcf-wa"
    lc, wa = SCENARIOS[name]
    return code_balance(kernel.counts, lc, wa_policy(wa, machine),
                        kernel.grid.element_size)


def scenario_table(kernel: KernelSpec) -> ScenarioTable:
    counts, esize = kernel.counts, kernel.grid.element_size
    corners = (SCENARIOS[name] for name in ("min", "lcf-wa", "lcb", "max"))
    return ScenarioTable(*(
        BalanceScenario(lc, policy, code_balance(counts, lc, policy, esize),
                        kernel.flops_per_it)
        # the corner models need no machine
        for lc, policy in ((lc, wa_policy(wa, None)) for lc, wa in corners)))


def classify(counts: StreamCounts) -> str:
    """Scaling class of a kernel by its evadable write streams.

    Class "iii" kernels (no evadable writes) cannot profit from any
    write-allocate evasion; class "i" (one evadable stream) shows the
    strongest relative gain; class "ii" (two or more) a weaker one.
    """
    wac = counts.evadable_writes
    if wac == 0:
        return "iii"
    if wac == 1:
        return "i"
    return "ii"
