"""Finite-filtration laboratory for martingale representation and
quadratic-growth BSDEs on scenario trees."""

from .errors import (ConfigError, ContractionError, InvariantViolation,
                     ModelError, NodeCapExceeded, OrthresError, SolverError)
from .ftree import (AdaptedProcess, ClockAndFactor, PredictableField,
                    ScenarioTree, TimeGrid, is_martingale,
                    predictable_bracket)
from .models import ModelConfig, build
from .gkw import gkw_decompose, martingale_from_terminal, residual_sweep
from .mollify import TerminalMap, l2_gap, lipschitz_scan, mollify
from .forward import SdeCoeffs, euler_forward, shift_start
from .bsde import (BsdeSolution, DriverSpec, compare, dual_value,
                   inf_convolve, solve_lipschitz, solve_quadratic,
                   truncated_driver, vanishing_N_experiment)

__version__ = "0.1.0"
