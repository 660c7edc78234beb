"""Traitor tracing, fingerprinting codes, and the sanitizer-as-pirate attack.

The layers, bottom up: boolean circuits with exact size/depth metrics
(circuit), one-bit encryption with low-depth decryption circuits
(crypto), Tardos fingerprinting codes (fpcode), the n-user tracing
scheme built from both (ttscheme), counting-query sanitizers
(sanitize), and the two-experiment reduction that turns any accurate
sanitizer into a traceable pirate decoder (attack).  `cli` fronts all
of it; `seeds` is the labeled seed-splitting discipline that makes
every experiment reproducible.
"""

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitMetrics,
    circuit_from_json,
    circuit_metrics,
    circuit_to_json,
    circuits_equivalent,
    constant_fold,
    dnf_of_function,
    eval_circuit,
    eval_on_rows,
    truth_table,
)
from .crypto import (
    FOLDED,
    LITERAL,
    LOCAL_PRG,
    PRF,
    EncKey,
    LocalPrgParams,
    collision_bound,
    default_stretch,
    enc_dec_circuit,
    enc_decrypt_many,
    enc_encrypt_many,
    enc_gen,
    prg_bit_circuit,
    prg_bits_at,
    prg_expand,
    prg_params_gen,
    xor_and_table,
)
from .errors import (
    CircuitFormatError,
    FileFormatError,
    InputShapeError,
    MalformedCiphertextError,
    OneShotViolationError,
    SanitizerFailure,
    UnsupportedSchemeError,
)
from .fpcode import (
    COPY_ONE,
    MAJORITY,
    MINORITY,
    RANDOM_FEASIBLE,
    STRATEGIES,
    Codebook,
    accusation_threshold,
    bias_cutoff,
    code_length,
    fp_adversary,
    fp_critical,
    fp_feasible,
    fp_gen,
    fp_scores,
    fp_trace,
    run_code_experiment,
)
from .sanitize import (
    ADVANCED,
    BASIC,
    EXACT,
    LAPLACE,
    Database,
    SanitizerConfig,
    accuracy_check,
    evaluate_batch,
    evaluate_query,
    laplace_scale,
    laplace_tightness_demo,
    load_database,
    sanitize,
    save_database,
)
from .seeds import derive_seed, stream
from .ttscheme import (
    PirateOracle,
    ScanOutcome,
    TraceOutcome,
    TTCiphertext,
    TTDecQueryFamily,
    TTKeySet,
    TTParams,
    honest_pirate,
    linear_scan_report,
    tr_enc,
    tr_enc_index,
    tt_dec,
    tt_dec_circuit,
    tt_enc,
    tt_gen,
    tt_trace_report,
    zeros_pirate,
)
from .attack import (
    AttackConfig,
    AttackReport,
    ExperimentStats,
    dp_audit,
    pirate_from_sanitizer,
    run_attack,
    wilson_interval,
)

__version__ = "0.1.0"
