"""Shared test utilities: gradient checking against finite differences, and
the memory that a block of code allocates."""

import tracemalloc

from bevlab.verify import _gradcheck_tree


def gradcheck(build_loss, arrays, eps=1e-6, rtol=1e-4):
    """Check analytic gradients of a scalar loss against central differences
    with `verify._gradcheck_tree`; asserts each relative error is below rtol.

    arrays: name -> ndarray. build_loss receives a dict mapping each name to
    a Var and returns a scalar. Every input must receive a gradient.
    """
    tracked = {}

    def loss(_params, t):
        tracked.update(t)
        return build_loss(t)

    _gradcheck_tree(loss, None, arrays, eps=eps, rtol=rtol)
    for name, var in tracked.items():
        assert var.grad is not None, f"no gradient reached {name}"


class tracemalloc_peak:
    """Trace the allocations made inside a with-block. Afterwards .peak is
    the most of that memory held at once and .retained what is still held,
    in bytes."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.retained, self.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
