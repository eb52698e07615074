"""Burst error correction limits of quantum cyclic and Reed-Solomon codes,
with an error-trapping decoder and exact reproduction fixtures."""

from .cycliccode import (
    BurstPattern,
    CyclicCode,
    burst_length,
    code_from_generator,
    contains,
    css_dual_containing,
    hermitian_dual_containing,
    syndrome,
)
from .galois import (
    GF2,
    GF4,
    FieldSpec,
    SelfDualBasis,
    field_make,
    self_dual_basis,
)
from .matgf import MatrixGF, ReducedForm, product_is_zero, row_reduce
from .polyring import Polynomial, cyclotomic_cosets, divisor_generators, factor_xn_minus_1
from .qccburst import (
    NotDualContaining,
    QccReport,
    brute_force_limit,
    classical_burst_limit,
    degeneracy_check,
    qcc_burst_limit,
    qcc_burst_limit_css,
    qcc_burst_limit_hermitian,
    reiger_classification,
    reiger_delta,
    window_pairs,
)
from .qetd import QetdState, QetdStats, burst_census, css_decode, trap_decode
from .qrsburst import (
    RsCode,
    RsReport,
    image_burst_length,
    image_expand,
    rs_image_burst_limit,
    rs_lower_bound,
    rs_make,
)
from .searchcli import SearchJob, emit_generator, parse_generator, report_emit, search

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
