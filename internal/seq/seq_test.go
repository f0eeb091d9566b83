package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAlphabetBasics(t *testing.T) {
	if DNA.Size() != 4 {
		t.Fatalf("DNA size = %d, want 4", DNA.Size())
	}
	if Protein.Size() != 20 {
		t.Fatalf("Protein size = %d, want 20", Protein.Size())
	}
	for i, c := range []byte("ACGT") {
		if DNA.Code(c) != i {
			t.Errorf("DNA.Code(%q) = %d, want %d", c, DNA.Code(c), i)
		}
		if DNA.Letter(i) != c {
			t.Errorf("DNA.Letter(%d) = %q, want %q", i, DNA.Letter(i), c)
		}
	}
	if DNA.Contains('N') {
		t.Error("DNA should not contain N")
	}
	if DNA.Code('N') != -1 {
		t.Errorf("DNA.Code('N') = %d, want -1", DNA.Code('N'))
	}
}

func TestAlphabetEncodeDecodeRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		// Map arbitrary bytes into the DNA alphabet first.
		letters := DNA.Letters()
		for i := range s {
			s[i] = letters[int(s[i])%len(letters)]
		}
		codes, err := DNA.Encode(s)
		if err != nil {
			return false
		}
		return bytes.Equal(DNA.Decode(codes), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlphabetEncodeRejectsForeignBytes(t *testing.T) {
	if _, err := DNA.Encode([]byte("ACGN")); err == nil {
		t.Error("Encode accepted a byte outside the alphabet")
	}
	if err := DNA.Validate([]byte("ACGX")); err == nil {
		t.Error("Validate accepted a byte outside the alphabet")
	}
	if err := DNA.Validate([]byte("ACGT")); err != nil {
		t.Errorf("Validate rejected a valid sequence: %v", err)
	}
}

func TestAlphabetDuplicateLetterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAlphabet with duplicate letters did not panic")
		}
	}()
	NewAlphabet("bad", "AA")
}

func TestFrequenciesOf(t *testing.T) {
	freqs := DNA.FrequenciesOf([]byte("AACG"))
	want := []float64{0.5, 0.25, 0.25, 0}
	for i := range want {
		if freqs[i] != want[i] {
			t.Errorf("freqs[%d] = %g, want %g", i, freqs[i], want[i])
		}
	}
	uniform := DNA.FrequenciesOf(nil)
	for i, f := range uniform {
		if f != 0.25 {
			t.Errorf("uniform freqs[%d] = %g, want 0.25", i, f)
		}
	}
}

func TestReadFASTA(t *testing.T) {
	in := ">chr1 test\nACGT\nacgt\n\n>chr2\nTTTT\n"
	recs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Header != "chr1 test" {
		t.Errorf("header = %q", recs[0].Header)
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("seq = %q, want ACGTACGT (lower case upshifted)", recs[0].Seq)
	}
	if string(recs[1].Seq) != "TTTT" {
		t.Errorf("seq2 = %q", recs[1].Seq)
	}
}

func TestReadFASTARejectsHeaderlessData(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("expected an error for data before the first header")
	}
}

func TestFASTARoundTrip(t *testing.T) {
	recs := []Record{
		{Header: "a", Seq: []byte("ACGTACGTACGTACGT")},
		{Header: "b desc", Seq: []byte("TT")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs, 5); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip: got %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].Header != recs[i].Header || !bytes.Equal(back[i].Seq, recs[i].Seq) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestCollectionLocate(t *testing.T) {
	c := NewCollection([]Record{
		{Header: "s0", Seq: []byte("AAAA")},
		{Header: "s1", Seq: []byte("CC")},
		{Header: "s2", Seq: []byte("GGG")},
	})
	if got := string(c.Text()); got != "AAAA#CC#GGG" {
		t.Fatalf("text = %q", got)
	}
	cases := []struct {
		start, end  int
		member, loc int
		ok          bool
	}{
		{0, 4, 0, 0, true},
		{1, 3, 0, 1, true},
		{5, 7, 1, 0, true},
		{8, 11, 2, 0, true},
		{3, 6, 0, 0, false}, // crosses separator
		{4, 5, 0, 0, false}, // separator itself ends past member
		{-1, 2, 0, 0, false},
		{0, 0, 0, 0, false},
		{9, 20, 0, 0, false},
	}
	for _, tc := range cases {
		m, l, ok := c.Locate(tc.start, tc.end)
		if ok != tc.ok || (ok && (m != tc.member || l != tc.loc)) {
			t.Errorf("Locate(%d,%d) = (%d,%d,%v), want (%d,%d,%v)",
				tc.start, tc.end, m, l, ok, tc.member, tc.loc, tc.ok)
		}
	}
	if c.Len() != 3 || c.Name(1) != "s1" {
		t.Errorf("Len/Name wrong: %d %q", c.Len(), c.Name(1))
	}
}

func TestRandomSeqUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := RandomSeq(DNA, 100000, nil, rng)
	if err := DNA.Validate(s); err != nil {
		t.Fatal(err)
	}
	freqs := DNA.FrequenciesOf(s)
	for i, f := range freqs {
		if f < 0.23 || f > 0.27 {
			t.Errorf("letter %d frequency %g far from uniform", i, f)
		}
	}
}

func TestRandomGenomeGCContent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomGenome(DNA, GenomeConfig{Length: 200000, GC: 0.6}, rng)
	if len(g) != 200000 {
		t.Fatalf("length = %d, want 200000", len(g))
	}
	freqs := DNA.FrequenciesOf(g)
	gc := freqs[DNA.Code('G')] + freqs[DNA.Code('C')]
	if gc < 0.57 || gc > 0.63 {
		t.Errorf("GC content %g, want about 0.6", gc)
	}
}

func TestRandomGenomeRepeatsIncreaseDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plain := RandomGenome(DNA, GenomeConfig{Length: 50000}, rng)
	rng = rand.New(rand.NewSource(3))
	repeaty := RandomGenome(DNA, GenomeConfig{Length: 50000, RepeatFraction: 0.5}, rng)

	if len(repeaty) != 50000 {
		t.Fatalf("length = %d", len(repeaty))
	}
	// Count distinct 16-mers: a repeat-rich text has noticeably fewer.
	distinct := func(s []byte) int {
		set := make(map[string]struct{})
		for i := 0; i+16 <= len(s); i++ {
			set[string(s[i:i+16])] = struct{}{}
		}
		return len(set)
	}
	dp, dr := distinct(plain), distinct(repeaty)
	if dr >= dp {
		t.Errorf("repeat-rich text has %d distinct 16-mers, plain has %d; want fewer", dr, dp)
	}
}

func TestRandomGenomeProtein(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomGenome(Protein, GenomeConfig{Length: 10000}, rng)
	if len(g) != 10000 {
		t.Fatalf("length = %d", len(g))
	}
	if err := Protein.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestMutateRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := RandomSeq(DNA, 20000, nil, rng)

	same := Mutate(DNA, s, MutationConfig{}, rng)
	if !bytes.Equal(same, s) {
		t.Error("zero-rate mutation changed the sequence")
	}

	mut := Mutate(DNA, s, MutationConfig{SubstitutionRate: 0.1}, rng)
	if len(mut) != len(s) {
		t.Fatalf("substitution-only mutation changed length: %d vs %d", len(mut), len(s))
	}
	diff := 0
	for i := range s {
		if mut[i] != s[i] {
			diff++
		}
	}
	rate := float64(diff) / float64(len(s))
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("observed substitution rate %g, want about 0.1", rate)
	}

	indel := Mutate(DNA, s, MutationConfig{IndelRate: 0.05}, rng)
	if len(indel) == len(s) {
		t.Log("indel mutation kept length (possible but unlikely)")
	}
	if err := DNA.Validate(indel); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGenomeDeterministic(t *testing.T) {
	a := RandomGenome(DNA, GenomeConfig{Length: 10000, RepeatFraction: 0.3}, rand.New(rand.NewSource(42)))
	b := RandomGenome(DNA, GenomeConfig{Length: 10000, RepeatFraction: 0.3}, rand.New(rand.NewSource(42)))
	if !bytes.Equal(a, b) {
		t.Error("generator is not deterministic for a fixed seed")
	}
}

func TestHomologousQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := RandomSeq(DNA, 20000, nil, rng)
	qs := HomologousQueries(DNA, text, 5, 3000, 150, 600,
		MutationConfig{SubstitutionRate: 0.03}, rng)
	if len(qs) != 5 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i, q := range qs {
		if len(q) != 3000 {
			t.Errorf("query %d length %d, want 3000", i, len(q))
		}
		if err := DNA.Validate(q); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	// A homologous query must share long exact runs with the text; a
	// purely random one must not. Compare longest shared 20-mer counts.
	kmers := make(map[string]bool)
	for i := 0; i+20 <= len(text); i++ {
		kmers[string(text[i:i+20])] = true
	}
	shared := 0
	for i := 0; i+20 <= len(qs[0]); i++ {
		if kmers[string(qs[0][i:i+20])] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("homologous query shares no 20-mers with the text")
	}
	random := RandomSeq(DNA, 3000, nil, rng)
	sharedRandom := 0
	for i := 0; i+20 <= len(random); i++ {
		if kmers[string(random[i:i+20])] {
			sharedRandom++
		}
	}
	if sharedRandom >= shared {
		t.Errorf("random query shares as much as homologous: %d vs %d", sharedRandom, shared)
	}
	// Segment length above qlen and tiny texts must not panic.
	HomologousQueries(DNA, text[:50], 1, 30, 100, 100, MutationConfig{}, rng)
}

// TestTableLayoutAndLocate pins the promoted directory type against
// the collection it indexes: starts/lengths describe exactly the
// concatenated text, every in-member position locates to its member
// and offset, and every separator position (and every interval
// touching one) is rejected.
func TestTableLayoutAndLocate(t *testing.T) {
	recs := []Record{
		{Header: "a", Seq: []byte("ACGTACGT")},
		{Header: "b", Seq: []byte("GG")},
		{Header: "c", Seq: []byte("TTTTT")},
	}
	c := NewCollection(recs)
	tab := c.Table()
	if tab.TotalLen() != len(c.Text()) {
		t.Fatalf("TotalLen %d, text %d", tab.TotalLen(), len(c.Text()))
	}
	if tab.Len() != 3 || tab.Name(1) != "b" || tab.SeqLen(2) != 5 {
		t.Fatalf("directory fields wrong: %d members, name(1)=%q, seqlen(2)=%d",
			tab.Len(), tab.Name(1), tab.SeqLen(2))
	}
	for i, rec := range recs {
		start := tab.Start(i)
		if got := c.Text()[start : start+len(rec.Seq)]; string(got) != string(rec.Seq) {
			t.Fatalf("member %d text %q, want %q", i, got, rec.Seq)
		}
		for off := range rec.Seq {
			m, local, ok := tab.Locate(start+off, start+off+1)
			if !ok || m != i || local != off {
				t.Fatalf("Locate(%d) = (%d,%d,%v), want (%d,%d,true)", start+off, m, local, ok, i, off)
			}
		}
	}
	for _, sep := range []int{8, 11} { // the two separator positions
		if c.Text()[sep] != Separator {
			t.Fatalf("position %d is %q, want separator", sep, c.Text()[sep])
		}
		if _, _, ok := tab.Locate(sep, sep+1); ok {
			t.Fatalf("Locate accepted separator position %d", sep)
		}
		if _, _, ok := tab.Locate(sep-1, sep+1); ok {
			t.Fatalf("Locate accepted interval crossing separator at %d", sep)
		}
	}
	// Degenerate intervals.
	if _, _, ok := tab.Locate(-1, 1); ok {
		t.Error("negative start accepted")
	}
	if _, _, ok := tab.Locate(3, 3); ok {
		t.Error("empty interval accepted")
	}
	if _, _, ok := tab.Locate(0, tab.TotalLen()+1); ok {
		t.Error("out-of-bounds end accepted")
	}
}
