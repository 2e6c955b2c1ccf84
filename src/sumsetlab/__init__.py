"""Exact-arithmetic toolkit for sumset density experiments.

Builds block sets (multiples of odd primorials over doubling windows),
counts them and their power-of-two sumsets exactly, audits every
inequality of the associated density bound chain with rational
arithmetic, and runs covering-congruence and prime-plus-power-of-two
scans.

Each public name is imported from its home module on first access, so
``import sumsetlab`` (and the CLI, which imports a layer only to run it)
loads no layer it does not use.
"""

import importlib

from ._version import __version__

# public name -> the module that defines it
_HOMES = {
    "ChebyshevCheck": "arith",
    "PrimeTable": "arith",
    "big_log2": "arith",
    "check_chebyshev": "arith",
    "first_odd_primes": "arith",
    "is_prime": "arith",
    "legendre_count": "arith",
    "mertens_product": "arith",
    "sieve_primes": "arith",
    "squarefree_divisors_signed": "arith",
    "Block": "blocks",
    "BlockCountReport": "blocks",
    "BlockSet": "blocks",
    "GrowthSchedule": "blocks",
    "WindowCheck": "blocks",
    "b_member": "blocks",
    "block_index": "blocks",
    "conjecture_ratio": "blocks",
    "count_b": "blocks",
    "count_b_lower_bound": "blocks",
    "grow": "blocks",
    "j_window_check": "blocks",
    "APCertificate": "depolignac",
    "CoverCheck": "depolignac",
    "CoveringEntry": "depolignac",
    "CoveringSystem": "depolignac",
    "ScanReport": "depolignac",
    "ap_scan": "depolignac",
    "covering_verify": "depolignac",
    "crt_combine": "depolignac",
    "default_covering_system": "depolignac",
    "romanov_density_scan": "depolignac",
    "CapacityError": "errors",
    "ClaimError": "errors",
    "ConfigError": "errors",
    "InapplicableError": "errors",
    "MalformedSystemError": "errors",
    "NotCoveringError": "errors",
    "SumsetLabError": "errors",
    "RatioPoint": "sumset",
    "SumsetReport": "sumset",
    "bound_chain_point": "sumset",
    "c_upper_report": "sumset",
    "enumerate_c": "sumset",
    "ratio_point": "sumset",
    "s1_bound": "sumset",
    "s2_bound": "sumset",
    "split_s1_s2": "sumset",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
