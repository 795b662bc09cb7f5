"""Fresh-process set-up: import adicke and its CLI, then one tiny evaluation.

``run.py`` times this script from start to exit; the median over several
starts is the benchmark's ``setup_s``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import adicke.cli  # noqa: E402,F401
from adicke import FockCutoff, ModelParams, qfi_omega  # noqa: E402

value = qfi_omega("co_np", ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0),
                  FockCutoff(8))
sys.exit(0 if value > 0 else 1)
