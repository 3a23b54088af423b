"""Matrix exponentials of block-triangular block-Toeplitz subgenerators.

The structured matrix is defined by its first block-row (a
:class:`BlockVector` of n blocks of order m).  Four FFT-accelerated methods
compute the first block-row of its exponential, with closed-form error
bounds, parameter selection rules, a dense oracle for validation, synthetic
instance generators, and a CLI experiment harness (``btt-expm``).

Submodules: ``block_linalg``, ``fft_transforms``, ``structured_mul``,
``dense_expm``, ``exp_circulant``, ``exp_btt``, ``error_analysis``,
``model_gen``, ``io``, ``cli``.
"""

from .block_linalg import (BlockVector, ErrorReport, SubgeneratorSpec,
                           error_report, validate_subgenerator)
from .dense_expm import expm_dense_oracle
from .errors import NumericalError, ParseError, ValidationError
from .exp_btt import (ExpResult, MethodConfig, compute_exponential,
                      exp_btt_embedding, exp_btt_eps, exp_btt_eps_averaged,
                      exp_btt_taylor, scaling_exponent, select_embedding_K,
                      select_epsilon)
from .io import read_block_vector, write_block_vector
from .model_gen import banded_subgenerator, random_subgenerator

__version__ = "0.1.0"

__all__ = [
    "BlockVector",
    "SubgeneratorSpec",
    "ErrorReport",
    "MethodConfig",
    "ExpResult",
    "validate_subgenerator",
    "error_report",
    "expm_dense_oracle",
    "exp_btt_eps",
    "exp_btt_eps_averaged",
    "exp_btt_embedding",
    "exp_btt_taylor",
    "compute_exponential",
    "scaling_exponent",
    "select_epsilon",
    "select_embedding_K",
    "random_subgenerator",
    "banded_subgenerator",
    "read_block_vector",
    "write_block_vector",
    "ValidationError",
    "NumericalError",
    "ParseError",
    "__version__",
]
