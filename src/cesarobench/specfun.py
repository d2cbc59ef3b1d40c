"""ln B(u, v), kept only as a name for the benchmark's tracer.

No code in the package calls this module: `measures` evaluates every
moment with scipy.special.  perfbench's `--trace 1` mode imports it and
wraps `log_beta` by name, so the alias stays until that tracer drops it.
"""

from scipy.special import betaln as log_beta

__all__ = ["log_beta"]
