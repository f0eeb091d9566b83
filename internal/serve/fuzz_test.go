package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	alae "repro"
)

// FuzzServeSearch drives arbitrary POST /search bodies through the
// daemon's handler on a tiny store: no body may panic the handler or
// draw a 5xx other than 503 (draining) and 504 (deadline), and every
// 200 body must decode as a SearchResponse whose hits respect the
// response cap.
func FuzzServeSearch(f *testing.F) {
	st, err := alae.NewStore([]alae.SeqRecord{
		{Name: "a", Seq: []byte("ACGTTGCAAGGCTTACGATCGATCGGATCCATGCAATTGGCCAAGT")},
		{Name: "b", Seq: []byte("TTGACCGATGCAAGCTAGCTTACGGATCGAACGTGTGCAT")},
	}, alae.StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	const maxHits = 50
	srv, err := New(Config{
		Store:         st,
		Lanes:         1,
		SearchTimeout: 2 * time.Second,
		MaxQueryLen:   256,
		MaxHits:       maxHits,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	for _, seed := range []string{
		`{"query":"ACGTTGCAAGGCTTACGATC"}`,
		`{"query":"ACGTTGCAAGGCTTACGATC","threshold":4,"max_hits":3}`,
		`{"query":"TTGACCGATGCAAGCTAGCTTACGG","evalue":1e-3,"timeout_ms":50}`,
		`{"query":"AC#GT"}`,
		`{"query":"A"}`,
		`{"query":""}`,
		`{"query":"acgtNNNNacgt","threshold":-7,"evalue":-1,"max_hits":-2,"timeout_ms":-1}`,
		`{"query":"MKVLAAGIVGLLLAHS","threshold":2147483647}`,
		`{"query":"ACGTACGT","threshold":1e99}`,
		`{"query":123}`,
		`{"query":"ACGT"`,
		`[]`,
		`null`,
		``,
		"{\"query\":\"\xff\xfe\x00ACGT\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
			var res SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 body does not decode: %v\n%s", err, rec.Body.Bytes())
			}
			if len(res.Hits) > maxHits || len(res.Hits) > res.TotalHits {
				t.Fatalf("%d hits returned of %d, cap %d", len(res.Hits), res.TotalHits, maxHits)
			}
		case code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout:
			t.Fatalf("status %d for body %q: %s", code, body, rec.Body.Bytes())
		}
	})
}
