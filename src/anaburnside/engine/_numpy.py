"""numpy, imported on the engine's first array operation.

The engine modules do `from . import _numpy as np`, so importing the package
does not import numpy: `bound`, `catalog` and the arithmetic verdicts never
pay for it. The first `np.X` read (PEP 562) imports numpy and copies its
loaded public names into this module, after which `np.X` is a plain
module-dict lookup. Names numpy itself loads lazily still resolve here.
"""


def __getattr__(name):
    import numpy

    globals().update((k, v) for k, v in vars(numpy).items() if not k.startswith("_"))
    return getattr(numpy, name)
