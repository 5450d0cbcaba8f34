"""vmorph: semantics-preserving transformation toolkit for a Java subset.

Parse, rename, restructure, differentially validate, and package equivalent
variants of vulnerable Java functions, together with rename dictionaries,
transform reports, benchmark manifests, and per-model prompt inputs.
"""

from .bench import (
    ALL_VARIANTS,
    BenchmarkManifest,
    ManifestEntry,
    VariantKind,
    VulnRecord,
    external_validate,
    generate_variants,
    load_record,
)
from .errors import (
    ExhaustedCandidates,
    GenerationFailure,
    InsufficientSamples,
    JavaSyntaxError,
    NotApplicable,
    RunnerNotFound,
    SpanOutsideMethod,
    StaleDictionary,
    UnresolvedIdentifier,
    UnsupportedConstruct,
    UnsupportedForEvaluation,
    VmorphError,
)
from .identifiers import (
    IdentifierEntry,
    IdentifierTable,
    classify_origin,
    collect_identifiers,
    convention,
    load_stdlib_index,
    project_imports,
    tokenize_identifier,
)
from .interp import (
    EquivalenceVerdict,
    OutOfFuel,
    Outcome,
    Returned,
    Threw,
    check_equivalence,
    ensure_supported,
    evaluate,
    is_supported,
)
from .nodes import MethodDecl, SourceFile, Span, structurally_equal
from .parser import parse
from .printer import print_expr, print_method, print_source, print_stmt
from .prompts import FORMATS, PromptBundle, PromptSpec, build_prompt, find_method_at
from .rename import (
    RenameDictionary,
    SynonymLexicon,
    apply_rename,
    assemble_identifier,
    build_rename_plan,
    propose_synonyms,
    recover_patch,
)
from .stats import margin_of_error
from .transforms import (
    APPLY_ORDER,
    TransformReport,
    TransformRule,
    apply_all,
    apply_rule,
    argument_pass,
    chain_functions,
    convert_conditional,
    convert_loop,
    flip_if,
    load_purity_whitelist,
    reorder_statements,
)

__version__ = "0.1.0"
