"""tdmscan: static analysis of Travis-style CI pipelines for technical-debt
tooling usage, placement, timing, and configuration anti-patterns."""

from .analytics import (
    Aggregator,
    CorpusReport,
    DivisionByZero,
    PipelineRecord,
    percent,
)
from .analyzer import (
    AnalysisOptions,
    PipelineAnalysis,
    analyze_document,
    explain_document,
    scan_entries,
)
from .antipatterns import (
    FindingSet,
    detect_absent_feedback,
    detect_email_only,
    detect_skip_on_failure,
    evaluate,
)
from .config_model import (
    Job,
    MalformedDocument,
    NotAPipeline,
    NotificationConfig,
    PhaseKind,
    PipelineConfig,
    RawDocument,
    parse_config,
    resolve_stage_name,
)
from .ingest import (
    CorpusManifest,
    DuplicateSlug,
    FetchPolicy,
    ManifestEntry,
    ManifestParseError,
    NotFound,
    RateLimited,
    load_manifest,
    materialize,
)
from .placement import (
    PlacementKind,
    PlacementResult,
    TimingKind,
    classify_pipeline,
    classify_timing,
)
from .registry import (
    Detection,
    DuplicateToolId,
    InvalidPattern,
    PipelineToolProfile,
    Registry,
    RegistryError,
    ToolSpec,
    UnknownEnumValue,
    detect_in_text,
    load_registry,
    load_registry_file,
    profile_pipeline,
    shipped_registry,
)
from .script_resolver import ScriptDocument, script_paths

__version__ = "0.1.0"
