// Package bwt implements the Burrows-Wheeler transform and an FM-index
// (compressed suffix array) with backward search, the index structure
// that lets ALAE and BWT-SW emulate a suffix trie of the text without
// materialising it (§2.3 and §5 of the paper). The index follows
// Ferragina-Manzini: a BWT string with checkpointed occurrence counts,
// a C array, and a sampled suffix array for locating occurrences.
package bwt
