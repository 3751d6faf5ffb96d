"""Memory-traffic modeling for 2D stencil loop nests.

Submodules:

* :mod:`stencilmem.kernels`  - kernel IR, validation, stream counts
* :mod:`stencilmem.balance`  - layer conditions and code-balance scenarios
* :mod:`stencilmem.cachesim` - trace-driven cache simulator (the oracle)
* :mod:`stencilmem.decomp`   - domain decomposition and halo overheads
* :mod:`stencilmem.roofline` - machine model and performance bounds
* :mod:`stencilmem.cli`      - the ``stencilmem`` command-line front end
"""

from .kernels import (
    Access,
    ArrayDecl,
    GridSpec,
    KernelError,
    KernelSpec,
    KernelSuite,
    StreamCounts,
    derive_stream_counts,
    load_suite,
)
from .balance import (
    FULL_WA,
    NO_WA,
    BalanceScenario,
    LayerConditionReport,
    ScenarioTable,
    WaPolicy,
    classify,
    code_balance,
    evasion,
    layer_condition,
    min_total_cache,
    nt_plus_evasion,
    scenario_table,
)
from .cachesim import (
    AlwaysAllocate,
    AutoClaim,
    CacheLevelConfig,
    MemTraffic,
    NtBypass,
    gen_trace,
    halo_copy_experiment,
    simulate,
    simulate_kernel,
    store_ratio,
)
from .decomp import (
    Decomposition,
    decompose,
    factorize_ranks,
    halo_read_overhead,
    local_extents,
    predict_rank_sweep,
)
from .roofline import (
    MachineModel,
    Prediction,
    effective_bandwidth,
    kernel_runtime,
    load_machine,
    roofline_predict,
)

__version__ = "0.1.0"
