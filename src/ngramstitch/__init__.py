"""ngramstitch: rebuild full news-article text from web-ngrams records."""

from .assembly import (
    ArticleDraft,
    AssemblyConfig,
    assemble,
    deduplicate,
    select_seed,
)
from .fragments import Fragment, build_fragment, slash_neighbours, strip_wraparound_artifact
from .pipeline import (
    EmptyInputError,
    JoinStats,
    ReconstructedArticle,
    RunConfig,
    RunSummary,
    fetch_window,
    reconstruct_command,
    reconstruct_group,
    validate_command,
)
from .records import (
    NgramRecord,
    ParseDiagnostics,
    ParseError,
    group_by_url,
    parse_file,
    parse_records,
    record_to_json_dict,
)
from .shredder import ShredConfig, decile_pos, shred
from .similarity import (
    NormalizedText,
    PairScores,
    SequenceMatchStats,
    SimilarityReport,
    format_report_table,
    jaccard_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    preprocess,
    report_to_json_dict,
    sequence_matcher_similarity,
    validate_corpus,
)

__version__ = "0.1.0"
