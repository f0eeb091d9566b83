package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	alae "repro"
)

// The fault-injection suite: every test here wounds the serving path
// in a specific way — an expired deadline mid-search, a panicking
// handler, a corrupt store file at reload, a slow-reading client, an
// overload burst, a drain with requests in flight — and asserts the
// daemon degrades (an error response, a counter, a kept-old-store)
// without ever crashing or deadlocking.

// testStore builds a small random-DNA store. Deterministic per seed.
func testStore(t *testing.T, members, memberLen, cacheSize int) *alae.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	letters := []byte("ACGT")
	records := make([]alae.SeqRecord, members)
	for i := range records {
		s := make([]byte, memberLen)
		for j := range s {
			s[j] = letters[rng.Intn(4)]
		}
		records[i] = alae.SeqRecord{Name: fmt.Sprintf("m%d", i), Seq: s}
	}
	st, err := alae.NewStore(records, alae.StoreOptions{QueryCacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore(t, 4, 3000, 0)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postSearch POSTs one search request and decodes the response.
func postSearch(t *testing.T, url string, req SearchRequest) (int, *SearchResponse, map[string]string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var sr SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decoding /search response: %v", err)
		}
		return resp.StatusCode, &sr, nil
	}
	var errBody map[string]string
	json.NewDecoder(resp.Body).Decode(&errBody)
	return resp.StatusCode, nil, errBody
}

func TestServeSearchAndStats(t *testing.T) {
	srv := testServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A member's own prefix must hit.
	query := string(srv.Store().SampleQuery(200))
	code, res, _ := postSearch(t, ts.URL, SearchRequest{Query: query})
	if code != http.StatusOK {
		t.Fatalf("search returned %d", code)
	}
	if res.TotalHits == 0 {
		t.Fatal("a member-prefix query returned no hits")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != 1 || stats.Admitted != 1 {
		t.Fatalf("stats counted ok=%d admitted=%d, want 1/1", stats.OK, stats.Admitted)
	}
}

// TestServeBadRequests: malformed and invalid inputs answer 4xx with a
// JSON error, never 5xx.
func TestServeBadRequests(t *testing.T) {
	srv := testServer(t, Config{MaxQueryLen: 512})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty body":     {"", http.StatusBadRequest},
		"not json":       {"ACGTACGT", http.StatusBadRequest},
		"no query":       {"{}", http.StatusBadRequest},
		"separator byte": {`{"query":"ACGT#ACGT"}`, http.StatusBadRequest},
		"oversized":      {`{"query":"` + strings.Repeat("A", 600) + `"}`, http.StatusBadRequest},
		"short query":    {`{"query":"A"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	if n := srv.nPanics.Load(); n != 0 {
		t.Fatalf("bad requests caused %d panics", n)
	}
}

// TestServeDeadlineExpiry: a deadline that lands mid-search answers
// 504 — and the abort is real, bounded by the core's entry budget, so
// the lane frees without finishing the traversal.
func TestServeDeadlineExpiry(t *testing.T) {
	store := testStore(t, 4, 15_000, -1) // big enough that a search outlives 1ms
	srv := testServer(t, Config{Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := string(store.SampleQuery(1200))
	code, _, errBody := postSearch(t, ts.URL, SearchRequest{Query: query, TimeoutMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ms-deadline search returned %d (%v), want 504", code, errBody)
	}
	if n := srv.nTimeouts.Load(); n != 1 {
		t.Fatalf("timeout counter is %d, want 1", n)
	}

	// The daemon keeps serving: the same query without the deadline
	// completes.
	code, res, _ := postSearch(t, ts.URL, SearchRequest{Query: query})
	if code != http.StatusOK || res.TotalHits == 0 {
		t.Fatalf("post-timeout search: code %d, hits %v", code, res)
	}
}

// TestServePanicIsolation: a panicking request answers 500; the daemon
// and its other lanes keep serving.
func TestServePanicIsolation(t *testing.T) {
	srv := testServer(t, Config{})
	srv.hooks.preSearch = func(query []byte) {
		if bytes.HasPrefix(query, []byte("PANIC")) {
			panic("injected request fault")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, _ := postSearch(t, ts.URL, SearchRequest{Query: "PANICAAAA"})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request returned %d, want 500", code)
	}
	if n := srv.nPanics.Load(); n != 1 {
		t.Fatalf("panic counter is %d, want 1", n)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a panic returned %d", resp.StatusCode)
	}
	query := string(srv.Store().SampleQuery(200))
	if code, res, _ := postSearch(t, ts.URL, SearchRequest{Query: query}); code != http.StatusOK || res.TotalHits == 0 {
		t.Fatalf("search after a panic: code %d", code)
	}
}

// TestServeOverload: with one lane held and no queue, the next request
// is rejected immediately with 429 and a Retry-After hint — and once
// the lane frees, service resumes.
func TestServeOverload(t *testing.T) {
	srv := testServer(t, Config{Lanes: 1, QueueDepth: -1, SearchTimeout: 10 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.hooks.preSearch = func(query []byte) {
		if bytes.HasPrefix(query, []byte("SLOW")) {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearch(t, ts.URL, SearchRequest{Query: "SLOWAAAAA"})
	}()
	<-entered // the one lane is held

	body, _ := json.Marshal(SearchRequest{Query: string(srv.Store().SampleQuery(100))})
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded search returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if n := srv.nRejected.Load(); n != 1 {
		t.Fatalf("rejected counter is %d, want 1", n)
	}

	close(release)
	wg.Wait()
	if code, _, _ := postSearch(t, ts.URL, SearchRequest{Query: string(srv.Store().SampleQuery(100))}); code != http.StatusOK {
		t.Fatalf("search after the burst returned %d", code)
	}
}

// TestServeQueue: with a queue, a request beyond the lanes waits for a
// free lane instead of being rejected, and completes.
func TestServeQueue(t *testing.T) {
	srv := testServer(t, Config{Lanes: 1, QueueDepth: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.hooks.preSearch = func(query []byte) {
		if bytes.HasPrefix(query, []byte("SLOW")) {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearch(t, ts.URL, SearchRequest{Query: "SLOWAAAAA"})
	}()
	<-entered

	codeCh := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _ := postSearch(t, ts.URL, SearchRequest{Query: string(srv.Store().SampleQuery(100))})
		codeCh <- code
	}()
	// Give the queued request time to join the queue, then free the
	// lane; the queued request must then run and succeed.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if code := <-codeCh; code != http.StatusOK {
		t.Fatalf("queued search returned %d, want 200", code)
	}
}

// TestServeDrain: the drain refuses new work, flips healthz, waits for
// the in-flight search, and completes it successfully.
func TestServeDrain(t *testing.T) {
	srv := testServer(t, Config{Lanes: 2})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.hooks.preSearch = func(query []byte) {
		if bytes.HasPrefix(query, []byte("SLOW")) {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codeCh := make(chan int, 1)
	go func() {
		code, _, _ := postSearch(t, ts.URL, SearchRequest{Query: "SLOWAAAAA"})
		codeCh <- code
	}()
	<-entered // one search in flight

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(t.Context()) }()

	// Drain must be observable quickly: healthz 503, new searches 503.
	deadline := time.Now().Add(2 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining returned %d, want 503", resp.StatusCode)
	}
	if code, _, _ := postSearch(t, ts.URL, SearchRequest{Query: "ACGTACGTACGT"}); code != http.StatusServiceUnavailable {
		t.Fatalf("search while draining returned %d, want 503", code)
	}

	// The drain must wait for the in-flight search...
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a search still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...and finish once it completes — with the in-flight search
	// having been answered normally.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if code := <-codeCh; code != http.StatusOK {
		t.Fatalf("in-flight search during drain returned %d, want 200", code)
	}
}

// TestServeCorruptReload: the reload job swaps in a good store and
// keeps the old one on every flavour of corrupt file.
func TestServeCorruptReload(t *testing.T) {
	store := testStore(t, 4, 2000, 0)
	srv := testServer(t, Config{Store: store})
	path := filepath.Join(t.TempDir(), "db.alae")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	job := &ReloadJob{Server: srv, Path: path, Every: time.Hour}
	srv.AddJob(job)

	// A good file swaps the store pointer.
	before := srv.Store()
	if err := srv.RunJobOnce(t.Context(), "reload"); err != nil {
		t.Fatalf("reload of a good store failed: %v", err)
	}
	good := srv.Store()
	if good == before {
		t.Fatal("reload did not swap the store")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := srv.RunJobOnce(t.Context(), "reload"); err == nil {
			t.Fatalf("%s: reload of a corrupt store succeeded", name)
		}
		if srv.Store() != good {
			t.Fatalf("%s: corrupt reload replaced the serving store", name)
		}
	}
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/3] })
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("flipped payload bit", func(b []byte) []byte { b[len(b)-len(b)/4] ^= 0x40; return b })
	corrupt("empty", func(b []byte) []byte { return nil })

	// The failures are visible in the job's counters, and the old store
	// still answers searches.
	var status JobStatus
	for _, js := range srv.JobStatuses() {
		if js.Name == "reload" {
			status = js
		}
	}
	if status.Runs != 5 || status.Failures != 4 || status.LastError == "" {
		t.Fatalf("reload status = %+v, want 5 runs / 4 failures with a last error", status)
	}
	res, err := srv.Store().Search(srv.Store().SampleQuery(100), srv.cfg.Options)
	if err != nil || len(res.Hits) == 0 {
		t.Fatalf("store after corrupt reloads cannot search: %v", err)
	}
}

// TestServeReloadStampSkip: on a directory-backed store the reload
// job watches the MANIFEST's mutation stamp — an unchanged stamp skips
// the reload entirely (the serving store pointer survives), and a
// mutation published by another process (stamp advance) triggers a
// real swap that serves the new member.
func TestServeReloadStampSkip(t *testing.T) {
	store := testStore(t, 4, 2000, 0)
	dir := filepath.Join(t.TempDir(), "db")
	if err := store.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, Config{Store: store})
	job := &ReloadJob{Server: srv, Path: dir, Every: time.Hour}
	srv.AddJob(job)

	// The serving store already carries the directory's stamp: the job
	// must skip the load and keep the exact store pointer.
	before := srv.Store()
	for i := 0; i < 3; i++ {
		if err := srv.RunJobOnce(t.Context(), "reload"); err != nil {
			t.Fatalf("reload over an unchanged manifest failed: %v", err)
		}
		if srv.Store() != before {
			t.Fatal("reload swapped the store although the manifest stamp was unchanged")
		}
	}

	// The rebuild process publishes a mutation through its own handle
	// on the same directory: the stamp advances, the next run reloads.
	other, err := alae.LoadStoreFile(dir, alae.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	extra := alae.SeqRecord{Name: "extra", Seq: bytes.Repeat([]byte("ACGT"), 50)}
	if err := other.Append([]alae.SeqRecord{extra}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RunJobOnce(t.Context(), "reload"); err != nil {
		t.Fatalf("reload after a published mutation failed: %v", err)
	}
	after := srv.Store()
	if after == before {
		t.Fatal("reload did not swap the store after the manifest stamp advanced")
	}
	if after.Sequences().Len() != before.Sequences().Len()+1 {
		t.Fatalf("reloaded store has %d members, want %d", after.Sequences().Len(), before.Sequences().Len()+1)
	}
	if after.Stamp() != other.Stamp() {
		t.Fatalf("reloaded store stamp %d, directory stamp %d", after.Stamp(), other.Stamp())
	}

	// And the swap settles: the next run skips again.
	if err := srv.RunJobOnce(t.Context(), "reload"); err != nil {
		t.Fatal(err)
	}
	if srv.Store() != after {
		t.Fatal("reload swapped the store again without a stamp change")
	}
}

// TestServeJobPanicIsolated: a panicking job run is counted as a
// failure, not a crash.
func TestServeJobPanicIsolated(t *testing.T) {
	srv := testServer(t, Config{})
	srv.AddJob(&panicJob{})
	if err := srv.RunJobOnce(t.Context(), "panic-job"); err == nil {
		t.Fatal("panicking job reported success")
	}
	st := srv.JobStatuses()[0]
	if st.Failures != 1 || !strings.Contains(st.LastError, "injected job fault") {
		t.Fatalf("panicking job status = %+v", st)
	}
}

type panicJob struct{}

func (*panicJob) Name() string            { return "panic-job" }
func (*panicJob) Interval() time.Duration { return time.Hour }
func (*panicJob) Run(context.Context) error {
	panic("injected job fault")
}

// TestServeProbeJob: the self-probe passes against a healthy store.
func TestServeProbeJob(t *testing.T) {
	srv := testServer(t, Config{})
	srv.AddJob(&ProbeJob{Server: srv, QueryLen: 100, Every: time.Hour})
	if err := srv.RunJobOnce(t.Context(), "probe"); err != nil {
		t.Fatalf("self-probe failed on a healthy store: %v", err)
	}
}

// TestServeSlowClient: a client that connects and never finishes its
// request headers is cut off by the server's read-header deadline
// instead of occupying a connection forever, and normal clients are
// unaffected.
func TestServeSlowClient(t *testing.T) {
	srv := testServer(t, Config{})
	hs := srv.HTTPServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("HTTPServer has no read-header deadline")
	}
	hs.ReadHeaderTimeout = 150 * time.Millisecond // scaled down for the test
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence: the server must hang up.
	if _, err := conn.Write([]byte("POST /search HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-sent request")
	}

	// A well-behaved client on the same server still gets served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a slow client returned %d", resp.StatusCode)
	}
}

// postSearchAs is postSearch with an X-API-Key header, for the
// per-client fairness tests.
func postSearchAs(t *testing.T, url, apiKey string, req SearchRequest) (int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	httpReq, err := http.NewRequest(http.MethodPost, url+"/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		httpReq.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header
}

// TestServePerClientCap: one client at its concurrency cap is rejected
// with 429 + Retry-After WITHOUT consuming global lanes, other clients
// keep being served, and the cap releases when the client's search
// finishes.
func TestServePerClientCap(t *testing.T) {
	srv := testServer(t, Config{Lanes: 4, PerClientLanes: 1, SearchTimeout: 10 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.hooks.preSearch = func(query []byte) {
		if bytes.HasPrefix(query, []byte("SLOW")) {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	probe := string(srv.Store().SampleQuery(100))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearchAs(t, ts.URL, "greedy", SearchRequest{Query: "SLOWAAAAA"})
	}()
	<-entered // "greedy" now holds its one allowed slot

	code, hdr := postSearchAs(t, ts.URL, "greedy", SearchRequest{Query: probe})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap client got %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("per-client 429 without a Retry-After header")
	}
	if n := srv.nClientRejected.Load(); n != 1 {
		t.Fatalf("client_rejected counter is %d, want 1", n)
	}
	if n := srv.nRejected.Load(); n != 0 {
		t.Fatalf("per-client rejection leaked into the global rejected counter (%d)", n)
	}

	// A DIFFERENT client is untouched by greedy's cap: 3 of 4 global
	// lanes are still free.
	if code, _ := postSearchAs(t, ts.URL, "patient", SearchRequest{Query: probe}); code != http.StatusOK {
		t.Fatalf("other client got %d while greedy was capped", code)
	}

	close(release)
	wg.Wait()
	// Greedy's slot is released with its search: it can search again.
	if code, _ := postSearchAs(t, ts.URL, "greedy", SearchRequest{Query: probe}); code != http.StatusOK {
		t.Fatalf("capped client still rejected after its search finished: %d", code)
	}
	srv.clientMu.Lock()
	leaked := len(srv.clientActive)
	srv.clientMu.Unlock()
	if leaked != 0 {
		t.Fatalf("client accounting map leaked %d entries", leaked)
	}
}

// TestServePerClientRateLimit: a client burning through its token
// bucket is rejected with 429 and a Retry-After hint, other clients
// and the concurrency counters are untouched, and the bucket refills
// with the (injected) clock — both gradually and back to a full burst.
func TestServePerClientRateLimit(t *testing.T) {
	srv := testServer(t, Config{Lanes: 4, PerClientRate: 3, PerClientWindow: time.Second})
	clock := time.Now()
	srv.hooks.now = func() time.Time { return clock }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	probe := string(srv.Store().SampleQuery(100))

	// The full burst is admitted; the next request inside the window
	// is rejected with the sharper next-token Retry-After hint.
	for i := 0; i < 3; i++ {
		if code, _ := postSearchAs(t, ts.URL, "burst", SearchRequest{Query: probe}); code != http.StatusOK {
			t.Fatalf("request %d of the burst got %d, want 200", i, code)
		}
	}
	code, hdr := postSearchAs(t, ts.URL, "burst", SearchRequest{Query: probe})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate request got %d, want 429", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("rate-limit 429 Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if n := srv.nRateLimited.Load(); n != 1 {
		t.Fatalf("rate_limited counter is %d, want 1", n)
	}
	if n := srv.nClientRejected.Load() + srv.nRejected.Load(); n != 0 {
		t.Fatalf("rate rejection leaked into the concurrency counters (%d)", n)
	}

	// A different client has its own bucket.
	if code, _ := postSearchAs(t, ts.URL, "other", SearchRequest{Query: probe}); code != http.StatusOK {
		t.Fatalf("other client got %d while burst was limited", code)
	}

	// A third of the window refills exactly one token...
	clock = clock.Add(time.Second / 3)
	if code, _ := postSearchAs(t, ts.URL, "burst", SearchRequest{Query: probe}); code != http.StatusOK {
		t.Fatalf("request after a one-token refill got %d, want 200", code)
	}
	if code, _ := postSearchAs(t, ts.URL, "burst", SearchRequest{Query: probe}); code != http.StatusTooManyRequests {
		t.Fatalf("second request after a one-token refill got %d, want 429", code)
	}

	// ...and a full idle window restores the whole burst.
	clock = clock.Add(2 * time.Second)
	for i := 0; i < 3; i++ {
		if code, _ := postSearchAs(t, ts.URL, "burst", SearchRequest{Query: probe}); code != http.StatusOK {
			t.Fatalf("request %d after a full refill got %d, want 200", i, code)
		}
	}

	// /stats reports the rejections.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.RateLimited != 2 {
		t.Fatalf("/stats rate_limited = %d, want 2", sr.RateLimited)
	}
}

// TestServeCompactJob: the compaction job folds an appended-and-
// deleted store back to one clean generation on the serving path, and
// /stats reports the generational state before and after.
func TestServeCompactJob(t *testing.T) {
	store := testStore(t, 4, 2000, 0)
	srv := testServer(t, Config{Store: store})
	srv.AddJob(&CompactJob{Server: srv, Every: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := store.Append([]alae.SeqRecord{{Name: "late", Seq: bytes.Repeat([]byte("ACGT"), 300)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Delete("m1"); err != nil {
		t.Fatal(err)
	}
	stats := func() StatsResponse {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	before := stats()
	if before.StoreGenerations != 2 || before.StoreTombstones != 1 {
		t.Fatalf("/stats before compaction: %d generations / %d tombstones, want 2 / 1",
			before.StoreGenerations, before.StoreTombstones)
	}
	if err := srv.RunJobOnce(t.Context(), "compact"); err != nil {
		t.Fatal(err)
	}
	after := stats()
	if after.StoreGenerations != 1 || after.StoreTombstones != 0 {
		t.Fatalf("/stats after compaction: %d generations / %d tombstones, want 1 / 0",
			after.StoreGenerations, after.StoreTombstones)
	}
	if after.StoreStamp <= before.StoreStamp {
		t.Fatalf("compaction did not advance the stamp (%d -> %d)", before.StoreStamp, after.StoreStamp)
	}
	// The appended member serves, the deleted one does not.
	code, res, _ := postSearch(t, ts.URL, SearchRequest{Query: "ACGT" + strings.Repeat("ACGT", 40), Threshold: 120})
	if code != http.StatusOK {
		t.Fatalf("post-compaction search returned %d", code)
	}
	for _, h := range res.Hits {
		if h.Name == "m1" {
			t.Fatal("deleted member still serving after compaction")
		}
	}
}
