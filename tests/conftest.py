"""Every checkout runs the same hypothesis examples.

Derandomized generation and no example database: a property test sees
the same inputs in a fresh clone as in a working tree, and an example a
local ``.hypothesis/`` directory remembers cannot make it pass or fail.
"""

from hypothesis import settings

settings.register_profile("ficd", derandomize=True, database=None)
settings.load_profile("ficd")
