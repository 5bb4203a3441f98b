"""Continuous-variable unclonable encryption: simulator and bound calculator.

The top level exports the library API of the README example. Everything else
lives in the submodules (``cvue.bounds``, ``cvue.adversary``, ``cvue.ebprep``,
...); ``cvue.reference`` holds the object-level oracles the tests use.
"""

from .bounds import security_report
from .codec import concrete_spec
from .protocol import ProtocolParams, decrypt, encrypt, key_gen, run_round_trip

__version__ = "0.1.0"
