"""Holding-time asymptotics for continuous-time Markov chains.

The library analyzes finite-state chains with a distinguished origin state 0
and a waiting threshold theta: the quantity of interest is the first time tau
at which the chain sits still at the origin for theta units of time.  It
provides exact decay parameters, geometric-decay constants, a delay-equation
survival solver, conditioned-chain (h-transform) constructions, Monte Carlo
estimators, and closed-form results for coin-run and Poisson special cases.
"""

from . import asymptotics, chain, coinruns, conditioned, errors, hitting, montecarlo, renewal, spectral
from .asymptotics import *
from .chain import *
from .coinruns import *
from .conditioned import *
from .errors import *
from .hitting import *
from .montecarlo import *
from .renewal import *
from .spectral import *

__version__ = "0.1.0"

# every module's __all__ but the CLI's, whose one export is its entry point
__all__ = sorted(
    name
    for module in (asymptotics, chain, coinruns, conditioned, errors, hitting, montecarlo, renewal, spectral)
    for name in module.__all__
)
