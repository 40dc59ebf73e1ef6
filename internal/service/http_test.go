package service

// End-to-end tests of the HTTP surface over a real manager: submit /
// poll / result, the result document's byte-identity with a direct
// Execute, the SSE stream (progress events and the terminal done
// event), and the OpenMetrics scrape.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Shutdown(context.Background())
	})
	return m, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("submit response %s: %v", b, err)
	}
	return st
}

func waitDone(t *testing.T, m *Manager, id string) {
	t.Helper()
	j, err := m.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header
}

// TestHTTPSubmitResultMatchesExecute pins the wire contract: the result
// document served over HTTP is byte-identical to a direct Execute of the
// same request — the same bytes stabcheck -json prints.
func TestHTTPSubmitResultMatchesExecute(t *testing.T) {
	mgr, srv := newTestServer(t, Config{Deps: Deps{Obs: obs.New()}, FeedDepth: 16})
	st := postJob(t, srv, `{"alg":"tokenring","n":5}`)
	waitDone(t, mgr, st.ID)

	code, body, hdr := get(t, srv.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("result content type %q", ct)
	}

	want, err := Execute(context.Background(), Request{Alg: "tokenring", N: 5}, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Errorf("HTTP result differs from direct Execute:\nhttp:\n%s\nexecute:\n%s", body, buf.Bytes())
	}

	// Status reflects the terminal state and the published feed events.
	code, body, _ = get(t, srv.URL+"/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET status = %d", code)
	}
	var got JobStatus
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Source != "run" {
		t.Errorf("terminal status = %q/%q, want done/run", got.State, got.Source)
	}
	if got.Events == 0 {
		t.Error("job published no feed events")
	}
}

// TestHTTPResultConflictAndGone pins the result endpoint's codes: 409
// before terminal, 410 after cancel (via DELETE).
func TestHTTPResultConflictAndGone(t *testing.T) {
	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(ring5)
	mgr, srv := newTestServer(t, Config{
		Deps: Deps{Build: func(Request) (protocol.Algorithm, scheduler.Policy, error) {
			return g, scheduler.CentralPolicy, nil
		}},
		Workers: 1, FeedDepth: 16,
	})
	st := postJob(t, srv, `{"alg":"tokenring","n":5}`)
	<-g.entered
	code, body, _ := get(t, srv.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of a running job = %d: %s", code, body)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	g.gate.Store(false)
	close(g.release)
	waitDone(t, mgr, st.ID)

	code, body, _ = get(t, srv.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusGone {
		t.Fatalf("result of a canceled job = %d: %s", code, body)
	}
	if !strings.Contains(string(body), "canceled") {
		t.Errorf("canceled result body %s does not say canceled", body)
	}
}

// TestHTTPEventsStream pins the SSE surface on a finished sweep job: the
// stream replays the ring (sweep.radius events with ids) and terminates
// with the done event carrying the job status.
func TestHTTPEventsStream(t *testing.T) {
	mgr, srv := newTestServer(t, Config{Deps: Deps{Obs: obs.New()}, FeedDepth: 64})
	st := postJob(t, srv, `{"alg":"tokenring","n":6,"kmax":3}`)
	waitDone(t, mgr, st.ID)

	code, body, hdr := get(t, srv.URL+"/jobs/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET events = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type %q", ct)
	}
	s := string(body)
	if !strings.Contains(s, "event: sweep.radius\n") {
		t.Errorf("stream has no sweep.radius event:\n%s", s)
	}
	if !strings.Contains(s, "id: 0\n") {
		t.Errorf("stream events carry no ids:\n%s", s)
	}
	if !strings.Contains(s, "event: done\n") || !strings.HasSuffix(s, "\n\n") {
		t.Errorf("stream does not terminate with the done event:\n%s", s)
	}
	done := s[strings.LastIndex(s, "event: done"):]
	if !strings.Contains(done, `"state":"done"`) {
		t.Errorf("done event does not carry the terminal status:\n%s", done)
	}

	// Resume: from seq 1 the replay skips seq 0.
	code, body2, _ := get(t, srv.URL+"/jobs/"+st.ID+"/events?from=1")
	if code != http.StatusOK {
		t.Fatalf("GET events?from=1 = %d", code)
	}
	if strings.Contains(string(body2), "id: 0\n") {
		t.Errorf("resumed stream replayed seq 0:\n%s", body2)
	}
	if !strings.Contains(string(body2), "event: done\n") {
		t.Errorf("resumed stream missing the done event:\n%s", body2)
	}

	// A malformed or negative cursor is refused before streaming, not
	// read as 0 (which would replay the whole feed).
	for _, from := range []string{"abc", "-1", "1.5"} {
		code, body, _ := get(t, srv.URL+"/jobs/"+st.ID+"/events?from="+from)
		if code != http.StatusBadRequest || strings.Contains(string(body), "event:") {
			t.Errorf("GET events?from=%s = %d, want 400 without events:\n%s", from, code, body)
		}
	}
}

// TestHTTPMetricsScrape pins the scrape endpoint: OpenMetrics content
// type, the service counters, and the # EOF terminator.
func TestHTTPMetricsScrape(t *testing.T) {
	mgr, srv := newTestServer(t, Config{Deps: Deps{Obs: obs.New()}, FeedDepth: 16})
	// A sweep job: its ball walk runs the frontier engine, whose counters
	// must aggregate into the shared scrape registry.
	st := postJob(t, srv, `{"alg":"tokenring","n":6,"kmax":2}`)
	waitDone(t, mgr, st.ID)

	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Errorf("metrics content type %q, want %q", ct, obs.OpenMetricsContentType)
	}
	s := string(body)
	for _, want := range []string{
		"service_jobs_submitted_total 1\n",
		"service_jobs_completed_total 1\n",
		"# TYPE frontier_states counter\n",
		"# EOF\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("scrape missing %q:\n%s", want, s)
		}
	}
	if !strings.HasSuffix(s, "# EOF\n") {
		t.Error("scrape does not end with the # EOF terminator")
	}
}

// TestHTTPErrors pins 404s and the rejection of an unknown field and of
// an invalid request.
func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	code, _, _ := get(t, srv.URL+"/jobs/job-99")
	if code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	for _, body := range []string{
		`{"alg":"tokenring","n":5,"bogus":1}`,
		`{"alg":"tokenring","n":3,"from":"1,0,2"}`, // from without reachable
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPSubmitBodyLimits pins the body contract of POST /jobs: a body
// over maxRequestBytes is 413 with a message naming the limit, anything
// after the request's JSON value is 400, and neither starts a job;
// trailing whitespace is still accepted.
func TestHTTPSubmitBodyLimits(t *testing.T) {
	m, srv := newTestServer(t, Config{})
	huge := `{"alg":"tokenring","n":3,"from":"` + strings.Repeat("0", 8<<20) + `"}`
	for _, tc := range []struct {
		name, body string
		code       int
		msg        string
	}{
		{"trailing value", `{"alg":"tokenring","n":3} {"garbage":`, http.StatusBadRequest, "follows"},
		{"8 MiB body", huge, http.StatusRequestEntityTooLarge, strconv.Itoa(maxRequestBytes)},
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(b), tc.msg) {
			t.Errorf("%s: POST /jobs = %d %s, want %d naming %q", tc.name, resp.StatusCode, b, tc.code, tc.msg)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected bodies started %d jobs", len(jobs))
	}
	postJob(t, srv, "{\"alg\":\"tokenring\",\"n\":3}\n\t ")
}

// TestHTTPEventsWithoutFeed pins /events for jobs without a feed: an
// LRU-answered job streams the terminal done event alone, and so does a
// finished job of a manager with feeds disabled, whose running job
// still gets 404.
func TestHTTPEventsWithoutFeed(t *testing.T) {
	mgr, srv := newTestServer(t, Config{Deps: Deps{Obs: obs.New()}, FeedDepth: 16})
	cold := postJob(t, srv, `{"alg":"tokenring","n":5}`)
	waitDone(t, mgr, cold.ID)
	warm := postJob(t, srv, `{"alg":"tokenring","n":5}`)
	if warm.Source != "lru" {
		t.Fatalf("repeat submission source %q, want lru", warm.Source)
	}
	code, body, hdr := get(t, srv.URL+"/jobs/"+warm.ID+"/events")
	if code != http.StatusOK || hdr.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("GET events of an LRU answer = %d (%s): %s", code, hdr.Get("Content-Type"), body)
	}
	s := string(body)
	if !strings.HasPrefix(s, "event: done\ndata: ") || strings.Count(s, "event:") != 1 || !strings.Contains(s, `"source":"lru"`) {
		t.Errorf("events of an LRU answer, want the done event alone with the status:\n%s", s)
	}

	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(ring5)
	mgr, srv = newTestServer(t, Config{Deps: Deps{Build: func(Request) (protocol.Algorithm, scheduler.Policy, error) {
		return g, scheduler.CentralPolicy, nil
	}}})
	st := postJob(t, srv, `{"alg":"tokenring","n":5}`)
	<-g.entered
	if code, body, _ := get(t, srv.URL+"/jobs/"+st.ID+"/events"); code != http.StatusNotFound {
		t.Errorf("GET events of a running job without a feed = %d, want 404: %s", code, body)
	}
	g.gate.Store(false)
	close(g.release)
	waitDone(t, mgr, st.ID)
	code, body, _ = get(t, srv.URL+"/jobs/"+st.ID+"/events")
	if s := string(body); code != http.StatusOK || !strings.HasPrefix(s, "event: done\ndata: ") || !strings.Contains(s, `"state":"done"`) {
		t.Errorf("GET events of a finished job without a feed = %d, want 200 with the done event alone:\n%s", code, s)
	}
}

// TestHTTPRetiredIsGone pins that every /jobs/{id} route answers a
// retired ID with 410 and a hint to resubmit, while IDs never handed out
// stay 404.
func TestHTTPRetiredIsGone(t *testing.T) {
	mgr, srv := newTestServer(t, Config{FeedDepth: 16})
	first := postJob(t, srv, `{"alg":"tokenring","n":3}`)
	waitDone(t, mgr, first.ID)
	for i := 0; i < retainFinished; i++ {
		if _, _, err := mgr.Submit(ringRequest(3)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(id string) (int, []byte) {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	fetch := map[string]func(id string) (int, []byte){
		"status": func(id string) (int, []byte) { c, b, _ := get(t, srv.URL+"/jobs/"+id); return c, b },
		"result": func(id string) (int, []byte) { c, b, _ := get(t, srv.URL+"/jobs/"+id+"/result"); return c, b },
		"events": func(id string) (int, []byte) { c, b, _ := get(t, srv.URL+"/jobs/"+id+"/events"); return c, b },
		"delete": del,
	}
	for route, f := range fetch {
		code, body := f(first.ID)
		if code != http.StatusGone || !strings.Contains(string(body), "resubmit") {
			t.Errorf("%s of retired %s = %d, want 410 with a resubmit hint: %s", route, first.ID, code, body)
		}
		for _, id := range []string{"job-0", "job-" + strconv.Itoa(retainFinished+2), "job-999999", "nonsense"} {
			if code, body := f(id); code != http.StatusNotFound {
				t.Errorf("%s of %s = %d, want 404: %s", route, id, code, body)
			}
		}
	}
	if code, body, _ := get(t, srv.URL+"/jobs/job-2/result"); code != http.StatusOK {
		t.Errorf("result of job-2, inside the window = %d: %s", code, body)
	}
	var list []JobStatus
	_, body, _ := get(t, srv.URL+"/jobs")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != retainFinished || list[0].ID != "job-2" {
		t.Errorf("GET /jobs lists %d jobs from %s, want %d from job-2", len(list), list[0].ID, retainFinished)
	}
}
