package alae_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	alae "repro"
	"repro/internal/align"
	"repro/internal/seq"
	"repro/internal/serve"
)

// The store differential harness. Every store surface — a fresh
// Store.Search and its repeat (a pooled session, or a query-cache hit),
// the store after each Append/Delete/Compact of a random history, the
// store reloaded from SaveFile and from SaveDir, and POST /search on the
// serving daemon — is checked against one oracle: the full Gotoh sweep
// of align.LocalAll over each live member, at the threshold the store
// reports, mapped to the store's global coordinates in (TEnd, QEnd)
// order. Exactness is the paper's claim, and no surface is trusted to
// be the reference for another. A few hits of every answer are also
// aligned (Store.Align, and Index.Align on the bare index): each
// traceback must replay, op by op over the member's bytes, to the
// hit's score and end at the hit, inside the member.
//
// The oracle cannot see work, so the harness also checks that the
// threshold and CalculatedEntries are the same at every Parallelism: a
// second Parallelism on every store state, and another Parallelism on
// every reload.
//
// What a case varies: 1–8 DNA or protein members, random or short
// tandem repeats, with queries planted in one member and across two;
// the scheme (default DNA, default protein, every align.Fig9Schemes
// entry); a pinned H ≥ MinThreshold or an E-value; Parallelism 1, 2
// or 0; the three Disable* filter switches; the query cache on or off;
// and whether the daemon is asked too. What it
// does not assert is that H is independent of membership: today a
// store with two or more DNA members counts the separator as a letter
// of the E-value statistics, and derives a lower H than an index over
// the same residues.

// oracleSchemes is every scheme a case may draw: the two defaults, then
// the four of Figure 9.
var oracleSchemes = append([]alae.Scheme{alae.DefaultDNAScheme, alae.DefaultProteinScheme}, align.Fig9Schemes...)

// oracleHitCap bounds the hits of a pinned-threshold case: H is raised
// until the fresh store's answer is at most this many hits, which keeps
// the sweep inside its race-detector budget. Every scheme still meets
// its MinThreshold on the smaller inputs.
const oracleHitCap = 10_000

// oracleCase is one generated input.
type oracleCase struct {
	scheme  alae.Scheme
	alpha   *seq.Alphabet
	h       int     // pinned threshold; 0 means E-value mode
	evalue  float64 // used when h == 0
	par     int     // SearchOptions.Parallelism
	filters int     // bit 0/1/2: disable length/score/domination filter
	cache   bool
	http    bool
	members []alae.SeqRecord
	queries [][]byte
	history []oracleOp
}

// oracleOp is one mutation: Append adds, Delete removes by name,
// Compact neither.
type oracleOp struct {
	kind   byte // 'a', 'd' or 'c'
	add    []alae.SeqRecord
	remove []string
}

func (c *oracleCase) String() string {
	mode := fmt.Sprintf("H=%d", c.h)
	if c.h == 0 {
		mode = fmt.Sprintf("E=%g", c.evalue)
	}
	var ops []byte
	for _, op := range c.history {
		ops = append(ops, op.kind)
	}
	return fmt.Sprintf("scheme %v %s P=%d filters=%03b cache=%v http=%v members=%d history=%q",
		c.scheme, mode, c.par, c.filters, c.cache, c.http, len(c.members), ops)
}

func (c *oracleCase) options(par int) alae.SearchOptions {
	return alae.SearchOptions{
		Scheme:              c.scheme,
		Threshold:           c.h,
		EValue:              c.evalue,
		Parallelism:         par,
		DisableLengthFilter: c.filters&1 != 0,
		DisableScoreFilter:  c.filters&2 != 0,
		DisableDomination:   c.filters&4 != 0,
	}
}

func (c *oracleCase) storeOptions() alae.StoreOptions {
	opts := alae.StoreOptions{QueryCacheSize: -1}
	if c.cache {
		opts.QueryCacheSize = 0 // the default budget
	}
	return opts
}

// genOracleCase derives a case from seed (the members, queries and
// history) and knobs (the configuration). The knobs' bit fields:
//
//	0–2    scheme, an index into oracleSchemes (mod 6)
//	3–4    unused (they once set a store-level fan-out, which is gone;
//	       left in place so the other fields keep their bits)
//	5–6    Parallelism 1, 2 or 0 (mod 3)
//	7–9    the Disable* filter switches
//	10     the query cache off
//	11     POST /search too
//	12     E-value mode: bits 13–14 pick E = 10, 1, 1e-3 or 1e-8;
//	       otherwise H = MinThreshold + bits 13–16
func genOracleCase(seed int64, knobs uint32) *oracleCase {
	rng := rand.New(rand.NewSource(seed))
	c := &oracleCase{
		scheme:  oracleSchemes[int(knobs%8)%len(oracleSchemes)],
		par:     [3]int{1, 2, 0}[int(knobs>>5&3)%3],
		filters: int(knobs >> 7 & 7),
		cache:   knobs>>10&1 == 0,
		http:    knobs>>11&1 != 0,
	}
	maxLen := 300
	c.alpha = seq.DNA
	if c.scheme == alae.DefaultProteinScheme {
		c.alpha, maxLen = seq.Protein, 160
	}
	if knobs>>12&1 == 0 {
		c.h = c.scheme.MinThreshold() + int(knobs>>13&15)
	} else {
		c.evalue = [4]float64{10, 1, 1e-3, 1e-8}[knobs>>13&3]
	}
	letters := c.alpha.Letters()
	randSeq := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return out
	}
	nextName := 0
	member := func() alae.SeqRecord {
		nextName++
		r := alae.SeqRecord{Name: fmt.Sprintf("m%02d", nextName)}
		if rng.Intn(5) == 0 { // a short tandem repeat: every gram occurs many times
			unit := randSeq(1 + rng.Intn(6))
			r.Seq = make([]byte, 20+rng.Intn(maxLen/4))
			for i := range r.Seq {
				r.Seq[i] = unit[i%len(unit)]
			}
		} else {
			r.Seq = randSeq(20 + rng.Intn(maxLen))
		}
		return r
	}
	for n := 1 + rng.Intn(8); len(c.members) < n; {
		c.members = append(c.members, member())
	}
	mutate := func(s []byte) []byte {
		return seq.Mutate(c.alpha, s, seq.MutationConfig{SubstitutionRate: 0.06, IndelRate: 0.02}, rng)
	}
	segment := func(s []byte, n int) []byte {
		n = min(n, len(s))
		lo := rng.Intn(len(s) - n + 1)
		return s[lo : lo+n]
	}
	// One query planted inside a member, one across the junction of two
	// neighbours (the end of one and the start of the next, which only
	// an alignment through the separator between them could join), each
	// padded with random flanks.
	q := c.scheme.Q()
	in := c.members[rng.Intn(len(c.members))].Seq
	planted := mutate(segment(in, 40+rng.Intn(160)))
	c.queries = append(c.queries, append(append(randSeq(rng.Intn(30)), planted...), randSeq(q+rng.Intn(30))...))
	i := rng.Intn(len(c.members))
	a, b := c.members[i].Seq, c.members[(i+1)%len(c.members)].Seq
	across := append(append([]byte(nil), a[len(a)-min(len(a), 60+rng.Intn(60)):]...), b[:min(len(b), 60+rng.Intn(60))]...)
	c.queries = append(c.queries, append(mutate(across), randSeq(q)...))

	live := make([]string, len(c.members))
	for i, r := range c.members {
		live[i] = r.Name
	}
	for n := rng.Intn(4); len(c.history) < n; {
		switch k := rng.Intn(3); {
		case k == 0 || len(live) == 1:
			op := oracleOp{kind: 'a'}
			for m := 1 + rng.Intn(2); len(op.add) < m; {
				r := member()
				if rng.Intn(2) == 0 { // an appended member the first query hits
					r.Seq = append(r.Seq, mutate(planted)...)
				}
				op.add = append(op.add, r)
				live = append(live, r.Name)
			}
			c.history = append(c.history, op)
		case k == 1:
			op := oracleOp{kind: 'd'}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			cut := 1 + rng.Intn(len(live)-1)
			op.remove, live = append([]string(nil), live[:cut]...), live[cut:]
			c.history = append(c.history, op)
		default:
			c.history = append(c.history, oracleOp{kind: 'c'})
		}
	}
	return c
}

// oracleRun checks one case: the model of the store (its live members
// in order) against the store itself.
type oracleRun struct {
	t    *testing.T
	c    *oracleCase
	seqs map[string][]byte
	live []string // the model: live member names in store order
	memo map[string]memoHits
	hits int // the largest answer seen, for the vacuousness guard
}

// memoHits is one member's Gotoh answer to one query at threshold h.
type memoHits struct {
	h    int
	hits []align.Hit
}

// local is align.LocalAll(member name, query qi, h), computed once per
// member and query at the lowest h asked for: an end pair's best score
// does not depend on h, so the answer at a higher threshold is the
// lower one's hits that reach it.
func (r *oracleRun) local(name string, qi, h int) []align.Hit {
	key := fmt.Sprint(name, "/", qi)
	e, ok := r.memo[key]
	if !ok || h < e.h {
		e = memoHits{h, align.LocalAll(r.seqs[name], r.c.queries[qi], r.c.scheme, h)}
		r.memo[key] = e
	}
	var out []align.Hit
	for _, hit := range e.hits {
		if hit.Score >= h {
			out = append(out, hit)
		}
	}
	return out
}

// oracle is the Gotoh sweep over each live member at threshold h,
// mapped to global coordinates: members sit in live order, each
// followed by one separator byte.
func (r *oracleRun) oracle(qi, h int) []alae.SeqHit {
	var out []alae.SeqHit
	start := 0
	for m, name := range r.live {
		for _, hit := range r.local(name, qi, h) {
			out = append(out, alae.SeqHit{
				Hit:    alae.Hit{TEnd: start + hit.TEnd, QEnd: hit.QEnd, Score: hit.Score},
				Member: m, Name: name, LocalTEnd: hit.TEnd,
			})
		}
		start += len(r.seqs[name]) + 1
	}
	return out
}

// checkDirectory compares the store's live directory with the model.
func (r *oracleRun) checkDirectory(st *alae.Store, where string) {
	r.t.Helper()
	tab := st.Sequences()
	if tab.Len() != len(r.live) {
		r.t.Fatalf("%s: %d live members, the model has %d", where, tab.Len(), len(r.live))
	}
	for m, name := range r.live {
		if tab.Name(m) != name || tab.SeqLen(m) != len(r.seqs[name]) {
			r.t.Fatalf("%s: live member %d is %q of %d bytes, the model has %q of %d",
				where, m, tab.Name(m), tab.SeqLen(m), name, len(r.seqs[name]))
		}
	}
}

// work is what the oracle cannot see of one search: the threshold it
// derived and the entries it computed.
type work struct {
	h       int
	entries int64
}

// check searches every query on st at Parallelism par, the way a client
// would, and compares each answer with the oracle. prev, when non-nil,
// holds the work an earlier surface over the same generations did,
// which this one must repeat.
func (r *oracleRun) check(st *alae.Store, where string, par int, prev []work) []work {
	r.t.Helper()
	c := r.c
	r.checkDirectory(st, where)
	got := make([]work, len(c.queries))
	for qi, query := range c.queries {
		at := fmt.Sprintf("%s, query %d", where, qi)
		res := r.search(st, query, par, at)
		if c.h != 0 && res.Threshold != c.h {
			r.t.Fatalf("%s: the store used H=%d, the pinned threshold is %d", at, res.Threshold, c.h)
		}
		if res.Threshold < c.scheme.MinThreshold() {
			r.t.Fatalf("%s: H=%d is below the scheme's lossless floor %d", at, res.Threshold, c.scheme.MinThreshold())
		}
		want := r.oracle(qi, res.Threshold)
		r.compare(res.Hits, want, at)
		r.checkStoreAlignments(st, query, res.Hits, at)
		r.hits = max(r.hits, len(want))
		got[qi] = work{res.Threshold, res.Stats.CalculatedEntries}
		if prev != nil && got[qi] != prev[qi] {
			r.t.Fatalf("%s: %+v, %+v before on the same generations", at, got[qi], prev[qi])
		}

		// The repeat: a query-cache hit when the cache is on, a pooled
		// session re-armed when it is off.
		again := r.search(st, query, par, at+" (repeat)")
		if c.cache != (again.Stats.QueryCacheHits == 1) {
			r.t.Fatalf("%s: repeat reports %d cache hits with the cache on=%v", at, again.Stats.QueryCacheHits, c.cache)
		}
		if w := (work{again.Threshold, again.Stats.CalculatedEntries}); w != got[qi] {
			r.t.Fatalf("%s: repeat did %+v, the first search %+v", at, w, got[qi])
		}
		r.compare(again.Hits, want, at+" (repeat)")

		// Another Parallelism: the same hits from the same work.
		op := otherPar(par, qi)
		other := r.search(st, query, op, fmt.Sprintf("%s, P=%d", at, op))
		if w := (work{other.Threshold, other.Stats.CalculatedEntries}); w != got[qi] {
			r.t.Fatalf("%s: P=%d did %+v, P=%d %+v", at, op, w, par, got[qi])
		}
		r.compare(other.Hits, want, fmt.Sprintf("%s, P=%d", at, op))

		if c.http {
			r.checkHTTP(st, query, par, want, res.Threshold, at+" (POST /search)")
		}
	}
	return got
}

// otherPar is a Parallelism of {1, 2, 0} other than par, rotated by k.
func otherPar(par, k int) int {
	pars := [3]int{1, 2, 0}
	return pars[(slices.Index(pars[:], par)+1+k%2)%3]
}

// alignSamples is how many hits of each answer the harness aligns.
const alignSamples = 3

// sampleHits returns the indices of up to alignSamples hits spread
// over an answer of n hits.
func sampleHits(n int) []int {
	k := min(n, alignSamples)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// checkStoreAlignments aligns a sample of a store answer's hits. A
// store alignment comes back in its generation's coordinates, so the
// member's start there is the alignment's end minus the hit's local
// end; that start must be one and the same for every hit of a member.
func (r *oracleRun) checkStoreAlignments(st *alae.Store, query []byte, hits []alae.SeqHit, at string) {
	r.t.Helper()
	starts := map[string]int{}
	for _, i := range sampleHits(len(hits)) {
		hit := hits[i]
		a, err := st.Align(query, r.c.scheme, hit)
		if err != nil {
			r.t.Fatalf("%s: Store.Align(%+v): %v", at, hit, err)
		}
		off := a.TEnd - hit.LocalTEnd
		if prev, ok := starts[hit.Name]; ok && prev != off {
			r.t.Fatalf("%s: member %s starts at %d in one alignment, at %d in another", at, hit.Name, prev, off)
		}
		starts[hit.Name] = off
		if err := checkAlignment(a, r.c.scheme, r.seqs[hit.Name], query, off, hit.Hit, hit.LocalTEnd); err != nil {
			r.t.Fatalf("%s: Store.Align(%+v): %v", at, hit, err)
		}
	}
}

// checkAlignment replays alignment a of query against member, which
// starts at off in a's text coordinates: a must score the hit's score,
// end at (localEnd, hit.QEnd), lie inside the member, and its ops must
// consume exactly its span, call a pair a match exactly when the bytes
// are equal, and add up to that score under scheme s.
func checkAlignment(a alae.Alignment, s alae.Scheme, member, query []byte, off int, hit alae.Hit, localEnd int) error {
	lo, hi := a.TStart-off, a.TEnd-off
	switch {
	case a.Score != hit.Score:
		return fmt.Errorf("alignment scores %d", a.Score)
	case hi != localEnd || a.QEnd != hit.QEnd:
		return fmt.Errorf("alignment ends at (%d, %d) of the member", hi, a.QEnd)
	case lo < 0 || hi >= len(member) || a.QStart < 0 || a.QEnd >= len(query):
		return fmt.Errorf("span [%d, %d] × [%d, %d] leaves the %d-byte member or the %d-byte query",
			lo, hi, a.QStart, a.QEnd, len(member), len(query))
	}
	t, q, score, prev := lo, a.QStart, 0, align.Op(0)
	for k, op := range a.Ops {
		switch op {
		case align.OpMatch, align.OpMismatch:
			if t > hi || q > a.QEnd {
				return fmt.Errorf("op %d (%c) runs past the span", k, op)
			}
			if (member[t] == query[q]) != (op == align.OpMatch) {
				return fmt.Errorf("op %d (%c) pairs %q with %q", k, op, member[t], query[q])
			}
			score += s.Delta(member[t], query[q])
			t, q = t+1, q+1
		case align.OpDelete, align.OpInsert:
			if op != prev {
				score += s.GapOpen
			}
			score += s.GapExtend
			if op == align.OpDelete {
				t++
			} else {
				q++
			}
		default:
			return fmt.Errorf("op %d is %q", k, op)
		}
		prev = op
	}
	if t != hi+1 || q != a.QEnd+1 {
		return fmt.Errorf("ops end at (%d, %d), the span at (%d, %d)", t-1, q-1, hi, a.QEnd)
	}
	if score != hit.Score {
		return fmt.Errorf("ops replay to %d", score)
	}
	return nil
}

func (r *oracleRun) search(st *alae.Store, query []byte, par int, at string) *alae.StoreResult {
	r.t.Helper()
	res, err := st.Search(query, r.c.options(par))
	if err != nil {
		r.t.Fatalf("%s: %v", at, err)
	}
	return res
}

func (r *oracleRun) compare(got, want []alae.SeqHit, at string) {
	r.t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			r.t.Fatalf("%s: %d hits, the oracle %d; first missing %+v", at, len(got), len(want), want[i])
		case i >= len(want):
			r.t.Fatalf("%s: %d hits, the oracle %d; first extra %+v", at, len(got), len(want), got[i])
		case got[i] != want[i]:
			r.t.Fatalf("%s: hit %d is %+v, the oracle's %+v (%d hits, the oracle %d)", at, i, got[i], want[i], len(got), len(want))
		}
	}
}

// checkHTTP asks the serving daemon, with no cap on the hits returned.
func (r *oracleRun) checkHTTP(st *alae.Store, query []byte, par int, want []alae.SeqHit, h int, at string) {
	r.t.Helper()
	srv, err := serve.New(serve.Config{Store: st, Options: r.c.options(par), MaxHits: -1, Logf: r.t.Logf})
	if err != nil {
		r.t.Fatal(err)
	}
	body, _ := json.Marshal(serve.SearchRequest{Query: string(query)})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		r.t.Fatalf("%s: status %d: %s", at, rec.Code, rec.Body)
	}
	var resp serve.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		r.t.Fatalf("%s: %v", at, err)
	}
	if resp.Threshold != h || resp.TotalHits != len(want) || resp.Truncated || len(resp.Hits) != len(want) {
		r.t.Fatalf("%s: H=%d, %d of %d hits (truncated %v), want H=%d and all %d",
			at, resp.Threshold, len(resp.Hits), resp.TotalHits, resp.Truncated, h, len(want))
	}
	for i, w := range want {
		g := resp.Hits[i]
		if g.Name != w.Name || g.Member != w.Member || g.TEnd != w.TEnd || g.LocalTEnd != w.LocalTEnd ||
			g.QEnd != w.QEnd || g.Score != w.Score {
			r.t.Fatalf("%s: hit %d is %+v, the oracle's %+v", at, i, g, w)
		}
	}
}

// runOracleCase builds the case's store and walks it through its
// surfaces and its history, checking every state.
func runOracleCase(t *testing.T, c *oracleCase) (hits int) {
	r := &oracleRun{t: t, c: c, seqs: map[string][]byte{}, memo: map[string]memoHits{}}
	for _, m := range c.members {
		r.seqs[m.Name] = m.Seq
		r.live = append(r.live, m.Name)
	}
	for _, op := range c.history {
		for _, m := range op.add {
			r.seqs[m.Name] = m.Seq
		}
	}

	for c.h != 0 { // bound the case's cost; see oracleHitCap
		n := 0
		for qi := range c.queries {
			n = max(n, len(r.oracle(qi, c.h)))
		}
		if n <= oracleHitCap {
			break
		}
		c.h++
	}

	// A bare index over one member: the surface under every generation.
	first := c.members[0]
	ix := alae.NewIndex(first.Seq)
	for qi, query := range c.queries {
		res, err := ix.Search(query, c.options(c.par))
		if err != nil {
			t.Fatalf("index, query %d: %v", qi, err)
		}
		want := align.LocalAll(first.Seq, query, c.scheme, res.Threshold)
		if !align.EqualHits(res.Hits, want) {
			t.Fatalf("index over %s, query %d, H=%d: %d hits, the oracle %d", first.Name, qi, res.Threshold, len(res.Hits), len(want))
		}
		for _, i := range sampleHits(len(res.Hits)) {
			hit := res.Hits[i]
			a, err := ix.Align(query, c.scheme, hit)
			if err == nil {
				err = checkAlignment(a, c.scheme, first.Seq, query, 0, hit, hit.TEnd)
			}
			if err != nil {
				t.Fatalf("index over %s, query %d: Index.Align(%+v): %v", first.Name, qi, hit, err)
			}
		}
	}

	st, err := alae.NewStore(c.members, c.storeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Search(c.queries[0][:c.scheme.Q()-1], c.options(c.par)); err == nil {
		t.Fatal("a query shorter than q was accepted")
	}
	last := r.check(st, "fresh", c.par, nil)
	for i, op := range c.history {
		where := fmt.Sprintf("after op %d (%c)", i, op.kind)
		switch op.kind {
		case 'a':
			if err := st.Append(op.add); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			for _, m := range op.add {
				r.live = append(r.live, m.Name)
			}
		case 'd':
			n, err := st.Delete(op.remove...)
			if err != nil || n != len(op.remove) {
				t.Fatalf("%s: Delete = (%d, %v), want (%d, nil)", where, n, err, len(op.remove))
			}
			r.live = slices.DeleteFunc(r.live, func(name string) bool { return slices.Contains(op.remove, name) })
		case 'c':
			if _, err := st.Compact(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			// Compaction keeps the live members in their order: the
			// model stands as it is, member for member.
			r.checkDirectory(st, where)
		}
		last = r.check(st, where, c.par, nil)
	}

	// Persistence: a reload keeps the generations, so it must repeat the
	// threshold and the work as well as the hits, here at another
	// Parallelism.
	dir := t.TempDir()
	file := filepath.Join(dir, "store.alae")
	if err := st.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(filepath.Join(dir, "db")); err != nil {
		t.Fatal(err)
	}
	for i, path := range []string{file, filepath.Join(dir, "db")} {
		loaded, err := alae.LoadStoreFile(path, c.storeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Stamp() != st.Stamp() || loaded.Generations() != st.Generations() || loaded.Tombstones() != st.Tombstones() {
			t.Fatalf("%s: stamp/generations/tombstones %d/%d/%d, saved %d/%d/%d", filepath.Base(path),
				loaded.Stamp(), loaded.Generations(), loaded.Tombstones(), st.Stamp(), st.Generations(), st.Tombstones())
		}
		par := otherPar(c.par, i)
		r.check(loaded, fmt.Sprintf("%s reloaded at P=%d", filepath.Base(path), par), par, last)
	}
	return r.hits
}

// FuzzSearchExactness is the harness as a native fuzz target: go test
// runs the seeds below, and go test -fuzz=FuzzSearchExactness explores
// seeds and configurations beyond them.
func FuzzSearchExactness(f *testing.F) {
	// Bits 3–4 are unused; the seeds keep the values they were recorded
	// with.
	f.Add(int64(1), uint32(0))                       // default DNA at its MinThreshold, P=1, cache on
	f.Add(int64(2), uint32(1|1<<12))                 // default protein at E=10
	f.Add(int64(3), uint32(4|3<<3|2<<5|7<<7|3<<10))  // ⟨1,−1,−5,−2⟩ at its MinThreshold, P=0, no filters, no cache, HTTP
	f.Add(int64(4), uint32(5|1<<3|1<<5|1<<12|2<<13)) // ⟨1,−3,−2,−2⟩ at E=1e-3, P=2
	f.Fuzz(func(t *testing.T, seed int64, knobs uint32) {
		c := genOracleCase(seed, knobs)
		t.Log(c)
		runOracleCase(t, c)
	})
}

// TestStoreOracle is the harness's seeded sweep: enough cases that
// every value of every dimension occurs, and a guard that the cases
// are not vacuous. The scheme and the filter switches cycle; the rest
// of the knobs are drawn.
func TestStoreOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	seen := map[string]bool{}
	withHits := 0
	const cases = 20
	for i := 0; i < cases; i++ {
		knobs := rng.Uint32()&^(7|7<<7) | uint32(i%6) | uint32(i%8)<<7
		c := genOracleCase(rng.Int63(), knobs)
		if !t.Run(fmt.Sprint(i), func(t *testing.T) {
			hits := runOracleCase(t, c)
			t.Logf("%v: at most %d hits", c, hits)
			if hits > 0 {
				withHits++
			}
		}) {
			t.Fatalf("case %d failed: %v", i, c)
		}
		mode := "H"
		if c.h == 0 {
			mode = "E"
		}
		for _, d := range []string{
			fmt.Sprint("scheme", c.scheme), "mode" + mode, fmt.Sprint("P", c.par),
			fmt.Sprint("filters", c.filters), fmt.Sprint("cache", c.cache), fmt.Sprint("http", c.http),
			fmt.Sprint("ops", len(c.history) > 0), fmt.Sprint("many", len(c.members) > 1),
		} {
			seen[d] = true
		}
	}
	want := 5 + 2 + 3 + 8 + 2*4 // oracleSchemes holds 5 distinct schemes
	if len(seen) < want {
		t.Errorf("the sweep covered %d of %d dimension values: %v", len(seen), want, seen)
	}
	if withHits < cases*3/4 {
		t.Errorf("only %d of %d cases had any hit", withHits, cases)
	}
}
