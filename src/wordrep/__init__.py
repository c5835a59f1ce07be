"""Word-representable graphs: alternation words, semi-transitive
orientations, and the structure theory of split graphs."""

from .graphs import (
    Embedding,
    Graph,
    Graph6Error,
    contains_induced,
    enumerate_graphs,
    induced_subgraph,
    is_isomorphic,
    parse_graph6,
    write_graph6,
)
from .words import (
    Word,
    alternate,
    alternation_graph,
    find_representant,
    format_word,
    parse_word,
    represents,
)
from .orient import (
    OracleDisagreement,
    OrientedGraph,
    all_orientations,
    count_semi_transitive_extensions,
    find_semi_transitive_orientation,
    forcing_chain,
    find_transitive_orientation,
    is_forcing_chain,
    is_semi_transitive,
    is_transitive,
    is_word_representable,
    orient_by_bits,
    orientation_bits,
    semi_transitive_orientations,
    to_dot,
)
from .split import (
    OrderViolation,
    SplitPartition,
    VertexTypeReport,
    check_main_orientation,
    check_relative_order,
    classify_all,
    classify_vertex,
    clique_path,
    is_split,
    is_split_comparability,
    split_partition,
    toggle_ab,
)
from .classify import (
    Verdict,
    classify_clique_four,
    classify_degree_two,
    classify_graph,
    classify_split,
    find_a_ell,
)
from . import families

__version__ = "0.1.0"
