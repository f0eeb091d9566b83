package core

import (
	"repro/internal/qgram"
	"repro/internal/strie"
)

// Prefix-shared gram resolution. The naive family pipeline re-walks
// every distinct q-gram from the trie root — q backward-search steps
// per gram — even though sorted grams share long prefixes. Resolution
// instead keeps a stack of trie nodes for the prefixes of the most
// recently walked gram and only runs backward-search steps for each
// gram's non-shared suffix, the §5 shared-structure principle applied
// to the grams themselves. Absent grams (Theorem 3's cheapest prune)
// die here, before the scheduler ever sees them, and a prefix known to
// be absent kills every later gram that still shares it without a
// single further index probe.

// gramFamily is one unit of schedulable work: a distinct q-gram of the
// query, its pre-resolved trie node, and the 0-based query positions
// where it occurs.
type gramFamily struct {
	node strie.Node
	gram []byte
	cols []int32
}

// resolveFamilies resolves every distinct gram of qidx against the trie
// by one incremental prefix-shared pass and returns the present
// families in lexicographic gram order. ForksConsidered/ForksAbsent
// accounting for the pruned grams lands in st; the per-family filters
// (domination, G-matrix) still run at processing time.
func (ses *Session) resolveFamilies(qidx *qgram.Index, st *Stats) []gramFamily {
	e := ses.e
	q := qidx.Q()
	prevFams := len(ses.fams)
	fams := ses.fams[:0]
	gramBuf := ses.gramBuf[:0] // one backing array for every family's gram
	if cap(ses.resNodes) < q {
		ses.resNodes = make([]strie.Node, q)
	}
	nodes := ses.resNodes[:q] // nodes[d] spells the previous gram's prefix of length d+1
	depth := 0                // resolved prefix length of the previous gram
	failedAt := -1            // shortest absent prefix length of the previous gram, or -1
	root := e.trie.Root()
	qidx.GramsSortedLCP(func(gram []byte, lcp int, cols []int32) {
		st.ForksConsidered += int64(len(cols))
		if failedAt >= 0 && failedAt <= lcp {
			// The shared prefix already failed: this gram is absent too.
			st.ForksAbsent += int64(len(cols))
			return
		}
		failedAt = -1
		depth = min(depth, lcp)
		u := root
		if depth > 0 {
			u = nodes[depth-1]
		}
		for d := depth; d < q; d++ {
			v, ok := e.trie.Child(u, gram[d])
			if !ok {
				depth = d
				failedAt = d + 1
				st.ForksAbsent += int64(len(cols))
				return
			}
			nodes[d] = v
			u = v
		}
		depth = q
		gramBuf = append(gramBuf, gram...)
		fams = append(fams, gramFamily{node: u, gram: gramBuf[len(gramBuf)-q:], cols: cols})
	})
	ses.fams, ses.gramBuf = fams, gramBuf
	if n := len(fams); n < prevFams && prevFams <= cap(fams) {
		// Clear the shrunk list's stale tail so an idle session does
		// not pin the previous query's position lists.
		clear(fams[n:prevFams])
	}
	return fams
}
