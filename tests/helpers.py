"""Shared test utility: the memory that a block of code allocates."""

import tracemalloc


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
