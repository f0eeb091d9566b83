package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	alae "repro"
)

// reflectedBody is the /search body as the handler used to produce it:
// a []SearchHit copy pushed through encoding/json. It is the reference
// appendSearchBody is held to.
func reflectedBody(t *testing.T, res *alae.StoreResult, hits []alae.SeqHit, truncated bool, elapsedMS float64) []byte {
	t.Helper()
	resp := SearchResponse{
		Threshold: res.Threshold,
		Algorithm: res.Algorithm.String(),
		TotalHits: len(res.Hits),
		Truncated: truncated,
		Hits:      make([]SearchHit, len(hits)),
		ElapsedMS: elapsedMS,
		Cached:    res.Stats.QueryCacheHits > 0,
	}
	for i, h := range hits {
		resp.Hits[i] = SearchHit{Name: h.Name, Member: h.Member, TEnd: h.TEnd, LocalTEnd: h.LocalTEnd, QEnd: h.QEnd, Score: h.Score}
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// hostileNames are member names that need every kind of JSON escaping:
// quotes and backslashes, the HTML-sensitive bytes encoding/json
// rewrites, control bytes, non-ASCII text, the two line separators
// JSON-in-JavaScript trips on, and invalid UTF-8.
var hostileNames = []string{
	`he said "hi" \ and left`,
	`<script>a&b</script>`,
	"ctl\x00\x01\x1f\n\r\ttab",
	"蛋白質 ünï—ç  ",
	"bad\xff\xfeutf8",
	"",
}

// TestSearchBodyMatchesSchema: the appended body decodes to exactly the
// SearchResponse the reflective encoder's body decodes to — for hostile
// member names, the truncated (MaxHits) ordering where members
// interleave, an empty hit list and a cached answer.
func TestSearchBodyMatchesSchema(t *testing.T) {
	records := make([]alae.SeqRecord, len(hostileNames))
	plain := testStore(t, len(hostileNames), 600, -1)
	for i, name := range hostileNames {
		records[i] = alae.SeqRecord{Name: name, Seq: plain.SampleQuery(600)}
	}
	st, err := alae.NewStore(records, alae.StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Every member holds the same sequence, so its prefix hits them all.
	res, err := st.Search(st.SampleQuery(120), alae.SearchOptions{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range res.Hits {
		seen[h.Name] = true
	}
	if len(seen) != len(hostileNames) {
		t.Fatalf("hits name %d of %d members; the test needs them all", len(seen), len(hostileNames))
	}
	cached := *res
	cached.Stats.QueryCacheHits = 1
	for _, tc := range []struct {
		name      string
		res       *alae.StoreResult
		hits      []alae.SeqHit
		truncated bool
		elapsedMS float64
	}{
		{"full", res, res.Hits, false, 12.345},
		{"truncated", res, alae.TopKSeq(res.Hits, 7), true, 0.001},
		{"empty", &alae.StoreResult{Threshold: 9, Algorithm: alae.ALAE}, nil, false, 0},
		{"cached", &cached, cached.Hits[:3], true, 1e-7},
	} {
		got := appendSearchBody(nil, tc.res, tc.hits, tc.truncated, tc.elapsedMS)
		var gotResp, wantResp SearchResponse
		if err := json.Unmarshal(got, &gotResp); err != nil {
			t.Fatalf("%s: the appended body is not JSON: %v\n%s", tc.name, err, got)
		}
		if err := json.Unmarshal(reflectedBody(t, tc.res, tc.hits, tc.truncated, tc.elapsedMS), &wantResp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotResp, wantResp) {
			t.Fatalf("%s: appended body decodes to\n%+v\nreflective body to\n%+v", tc.name, gotResp, wantResp)
		}
		if gotResp.Hits == nil {
			t.Fatalf("%s: hits decoded to null, want an array", tc.name)
		}
	}

	// And through the handler: MaxHits truncates to the best hits, in
	// TopKSeq's order, with the full count reported.
	srv := testServer(t, Config{Store: st, Options: alae.SearchOptions{Threshold: 40}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, resp, _ := postSearch(t, ts.URL, SearchRequest{Query: string(st.SampleQuery(120)), MaxHits: 5})
	if code != http.StatusOK {
		t.Fatalf("search returned %d", code)
	}
	if !resp.Truncated || resp.TotalHits != len(res.Hits) || len(resp.Hits) != 5 {
		t.Fatalf("truncated=%v total=%d hits=%d, want true/%d/5", resp.Truncated, resp.TotalHits, len(resp.Hits), len(res.Hits))
	}
	for i, h := range alae.TopKSeq(res.Hits, 5) {
		got := resp.Hits[i]
		got.Name = "" // invalid UTF-8 does not survive JSON; names are compared above
		if want := (SearchHit{Member: h.Member, TEnd: h.TEnd, LocalTEnd: h.LocalTEnd, QEnd: h.QEnd, Score: h.Score}); got != want {
			t.Fatalf("hit %d over HTTP %+v, want %+v", i, got, want)
		}
	}
}
