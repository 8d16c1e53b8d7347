"""Random walks on graphs: biased stepping, walk records that decode
back to the graph, and cover-time estimation with restart bounds.
"""
from . import cover, generators, graphs, invariance, mixing, reconstruct, records, walks
from .cover import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .invariance import *  # noqa: F401,F403
from .mixing import *  # noqa: F401,F403
from .reconstruct import *  # noqa: F401,F403
from .records import *  # noqa: F401,F403
from .walks import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (graphs, generators, walks, records, reconstruct, cover, mixing, invariance)
    for name in module.__all__
] + ["__version__"]
