package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/domination"
	"repro/internal/seq"
)

func randLetters(letters []byte, n int, rng *rand.Rand) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

// dominationCase is one text with the queries its columns are checked on.
type dominationCase struct {
	name    string
	text    []byte
	queries [][]byte
	scheme  align.Scheme
	h       int
	opts    Options
}

// dominationCases covers random DNA and protein, tandem repeats (where
// the filter fires on most columns) and multi-member store texts, whose
// shared unit U sits at text position 0, after the separator and after
// the letter C, with a query that spells CU. Every text gets random
// queries and planted ones (mutated text windows, separators dropped),
// a long one first, so the later ones meet the memo it left.
func dominationCases(rng *rand.Rand) []dominationCase {
	var cases []dominationCase
	for _, a := range []*seq.Alphabet{seq.DNA, seq.Protein} {
		letters := a.Letters()
		s, h := align.DefaultDNA, 20
		if a == seq.Protein {
			s, h = align.DefaultProtein, 12
		}
		unit := randLetters(letters, 40, rng)
		var tandem []byte
		for range 8 {
			tandem = append(tandem, unit...)
		}
		u := randLetters(letters, 30, rng)
		c := letters[1] // C in both alphabets
		cat := func(parts ...[]byte) []byte {
			var out []byte
			for _, p := range parts {
				out = append(out, p...)
			}
			return out
		}
		members := [][]byte{
			cat(u, randLetters(letters, 200, rng)),
			cat(randLetters(letters, 150, rng), []byte{c}, u, randLetters(letters, 100, rng)),
			cat(u, randLetters(letters, 80, rng), []byte{c}, u),
			cat(randLetters(letters, 120, rng), []byte{c}, u[:20]),
		}
		recs := make([]seq.Record, len(members))
		for i, m := range members {
			recs[i] = seq.Record{Header: fmt.Sprint(i), Seq: m}
		}
		store := seq.NewCollection(recs).Text()
		for _, tc := range []struct {
			kind  string
			text  []byte
			extra [][]byte
			opts  Options
		}{
			{"random", randLetters(letters, 3000, rng), nil, Options{}},
			{"tandem", tandem, [][]byte{cat(unit, unit)}, Options{}},
			{"store", store, [][]byte{cat(randLetters(letters, 10, rng), []byte{c}, u, randLetters(letters, 10, rng))}, Options{BarrierByte: seq.Separator}},
		} {
			var queries [][]byte
			for _, n := range []int{300, 160} {
				start := rng.Intn(len(tc.text) - n)
				window := make([]byte, 0, n)
				for _, b := range tc.text[start : start+n] {
					if b != seq.Separator {
						window = append(window, b)
					}
				}
				queries = append(queries, seq.Mutate(a, window,
					seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng))
			}
			queries = append(queries, tc.extra...)
			queries = append(queries, randLetters(letters, 120, rng), randLetters(letters, 40, rng))
			cases = append(cases, dominationCase{a.Name() + "-" + tc.kind, tc.text, queries, s, h, tc.opts})
		}
	}
	return cases
}

// TestDominationFlagsMatchTable holds the FM-index form of Lemma 1 to
// the paper's offline table (domination.Build): at every q and on every
// column of every query, markDominated's flag equals the table's
// Dominated(P[j..j+q−1], P[j−1]), with one session re-armed across the
// queries. Searches then count exactly the table's dominated columns in
// ForksDominated, and report the same entries and hits at Parallelism 1
// and 2.
func TestDominationFlagsMatchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(4801))
	fired := 0
	for _, tc := range dominationCases(rng) {
		e := New(tc.text, tc.opts)
		letters := e.trie.Letters()
		for _, q := range []int{1, 2, 4, 6, 12} {
			tab, err := domination.Build(tc.text, q, letters)
			if err != nil {
				t.Fatal(err)
			}
			ses := e.AcquireSession()
			for qi, query := range tc.queries {
				if err := ses.qidx.Rearm(query, q, letters); err != nil {
					t.Fatal(err)
				}
				var st Stats
				flags := ses.markDominated(query, ses.resolveFamilies(&ses.qidx, &st), q)
				if len(flags) != len(query)-q+1 {
					t.Fatalf("%s q=%d query %d: %d flags for %d columns", tc.name, q, qi, len(flags), len(query)-q+1)
				}
				for j, got := range flags {
					want := j > 0 && tab.Dominated(query[j:j+q], query[j-1])
					if got != want {
						t.Fatalf("%s q=%d query %d column %d (%q after %q): FM says %v, table %v",
							tc.name, q, qi, j, query[j:j+q], query[j-1], got, want)
					}
					if got {
						fired++
					}
				}
			}
			ses.Release()
		}

		q := tc.scheme.Q()
		tab, err := domination.Build(tc.text, q, letters)
		if err != nil {
			t.Fatal(err)
		}
		for qi, query := range tc.queries {
			var want int64
			for j := 1; j+q <= len(query); j++ {
				if tab.Dominated(query[j:j+q], query[j-1]) {
					want++
				}
			}
			var hits [2][]align.Hit
			var sts [2]Stats
			for w := range 2 {
				c := align.NewCollector()
				if sts[w], err = search(e, query, tc.scheme, tc.h, c, w+1); err != nil {
					t.Fatal(err)
				}
				hits[w] = c.Hits()
			}
			if sts[0].ForksDominated != want || sts[1].ForksDominated != want {
				t.Fatalf("%s query %d: ForksDominated %d (1 worker), %d (2 workers); the table dominates %d columns",
					tc.name, qi, sts[0].ForksDominated, sts[1].ForksDominated, want)
			}
			if sts[0].CalculatedEntries() != sts[1].CalculatedEntries() || !align.EqualHits(hits[0], hits[1]) {
				t.Fatalf("%s query %d: 2 workers computed %d entries and %d hits, 1 worker %d and %d",
					tc.name, qi, sts[1].CalculatedEntries(), len(hits[1]), sts[0].CalculatedEntries(), len(hits[0]))
			}
		}
	}
	if fired == 0 {
		t.Fatal("no column was dominated: the suite checks nothing")
	}
}

// BenchmarkMarkDominated times Lemma 1 for one dna-long-shaped query: a
// 5 000-column homologous query against a 200 kb genome, resolved once,
// then flagged per op (the memo is cleared every time, as in a search).
func BenchmarkMarkDominated(b *testing.B) {
	rng := rand.New(rand.NewSource(4802))
	text := randDNA(200_000, rng)
	query := seq.Mutate(seq.DNA, text[50_000:55_000],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	e := New(text, Options{})
	q := align.DefaultDNA.Q()
	ses := e.AcquireSession()
	if err := ses.qidx.Rearm(query, q, e.trie.Letters()); err != nil {
		b.Fatal(err)
	}
	var st Stats
	fams := ses.resolveFamilies(&ses.qidx, &st)
	ses.markDominated(query, fams, q)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		ses.markDominated(query, fams, q)
	}
}
