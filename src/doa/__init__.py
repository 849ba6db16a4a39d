"""Discrete operator algebra with defects.

Operators of the canonical form A0 u + sum_j A_j <B_j u>_j on midpoint
grids over [0,1]^N, with exact algebraic operations, an elimination-based
invertibility test and inverse, vector-valued determinants and traces, a
trace norm, spectrum-degree scans, a dense oracle and a JSON/CSV CLI.
"""

from .grid import (
    GridSpec,
    MatrixField,
    ScalarComponents,
    integrate_first,
    lift,
    max_abs_diff,
    pointwise_add,
    pointwise_adjoint,
    pointwise_det,
    pointwise_matmul,
    pointwise_scale,
    sample,
)
from .expr import ExprError, ExprEvalError, ExprSyntaxError, FieldExpr, evaluate, parse, to_text
from .operator import (
    DefectOperator,
    StateVector,
    Term,
    add,
    adjoint,
    apply,
    compose,
    compress,
    elementary_factor,
    equal_as_map,
    identity_operator,
    inner,
    multiplication_operator,
    pencil,
    scale,
    state_norm,
    zero_operator,
)
from .elimination import (
    EliminationOutcome,
    Invertible,
    NonFiniteError,
    NonInvertible,
    NonInvertibleError,
    VectorDeterminant,
    determinant,
    eliminate,
    factorize,
    inverse,
)
from .functional import (
    LogDetSeries,
    NumericalConsistencyError,
    SpectrumScan,
    VectorTrace,
    exp_operator,
    iso_check,
    log_det_series,
    power_trace,
    power_traces,
    spectrum_scan,
    trace,
    trace_norm,
)
from .oracle import DenseRealization, assemble, dense_inverse_check, dense_spectrum
from .document import (
    DocumentFormatError,
    OperatorDocument,
    build_operator,
    document_from_dict,
    document_to_json,
    load_document,
    uses_lambda,
)

__version__ = "0.1.0"
