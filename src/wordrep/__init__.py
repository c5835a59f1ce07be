"""Word-representable graphs: alternation words, semi-transitive
orientations, and the structure theory of split graphs."""
