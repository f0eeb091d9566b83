package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/align"
)

// alaeInput is a randomized problem instance for property testing.
type alaeInput struct {
	Text  []byte
	Query []byte
	HOff  uint8 // threshold offset above the exactness floor
	Plant bool  // copy a slice of the text into the query
	Mode  bool  // hybrid when true
}

// Generate implements quick.Generator, producing DNA instances with
// planted homology half of the time so that hits actually occur.
func (alaeInput) Generate(r *rand.Rand, _ int) reflect.Value {
	letters := []byte("ACGT")
	n := 10 + r.Intn(120)
	m := 6 + r.Intn(60)
	in := alaeInput{
		Text:  make([]byte, n),
		Query: make([]byte, m),
		HOff:  uint8(r.Intn(8)),
		Plant: r.Intn(2) == 0,
		Mode:  r.Intn(2) == 0,
	}
	for i := range in.Text {
		in.Text[i] = letters[r.Intn(4)]
	}
	for i := range in.Query {
		in.Query[i] = letters[r.Intn(4)]
	}
	if in.Plant && n > 12 && m > 8 {
		l := min(m-4, n-5)
		copy(in.Query[2:], in.Text[3:3+l])
		// Sprinkle mutations so gapped paths matter.
		for k := 0; k < l/8; k++ {
			in.Query[2+r.Intn(l)] = letters[r.Intn(4)]
		}
	}
	return reflect.ValueOf(in)
}

// TestPropertyExactness is the repository's load-bearing invariant:
// for any input, ALAE's hit set equals the full Smith-Waterman sweep.
func TestPropertyExactness(t *testing.T) {
	s := align.DefaultDNA
	f := func(in alaeInput) bool {
		h := s.MinThreshold() + int(in.HOff)
		opts := Options{}
		if in.Mode {
			opts.Mode = ModeHybrid
		}
		e := New(in.Text, opts)
		c := align.NewCollector()
		if _, err := search(e, in.Query, s, h, c, 1); err != nil {
			return false
		}
		return align.EqualHits(c.Hits(), align.LocalAll(in.Text, in.Query, s, h))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEnginesAgree checks DFS and Hybrid give identical hits
// and that hybrid's accessed-entry accounting is self-consistent.
func TestPropertyEnginesAgree(t *testing.T) {
	s := align.DefaultDNA
	f := func(in alaeInput) bool {
		h := s.MinThreshold() + int(in.HOff)
		cDFS := align.NewCollector()
		eDFS := New(in.Text, Options{})
		if _, err := search(eDFS, in.Query, s, h, cDFS, 1); err != nil {
			return false
		}
		cHyb := align.NewCollector()
		eHyb := New(in.Text, Options{Mode: ModeHybrid})
		stHyb, err := search(eHyb, in.Query, s, h, cHyb, 1)
		if err != nil {
			return false
		}
		if stHyb.AccessedEntries() != stHyb.CalculatedEntries()+stHyb.ReusedEntries {
			return false
		}
		return align.EqualHits(cDFS.Hits(), cHyb.Hits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
