// The HTTP surface of the manager — stabserve's API:
//
//	POST /jobs              submit a Request; 202 with the job status
//	                        (413 for a body over 1 MiB, 400 when
//	                        anything follows its one JSON value)
//	GET  /jobs              list the retained jobs' statuses
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/result  the finished result document (the schema
//	                        stabcheck -json prints, byte-identical)
//	DELETE /jobs/{id}       cancel
//	GET  /jobs/{id}/events  Server-Sent Events feed: ring replay from
//	                        ?from=<seq>, then live until the job ends; a
//	                        job answered from the LRU sends the done
//	                        event alone
//	GET  /metrics           OpenMetrics exposition of the obs registry
//	GET  /healthz           liveness
//
// The manager keeps every queued and running job and the last
// retainFinished finished ones. Every /jobs/{id} route answers an ID it
// has retired with 410 Gone: resubmitting the request gets the answer
// from the result LRU or the disk cache. An ID it never handed out is
// 404.
//
// Status documents carry lifecycle fields (state, source, error); the
// result document carries none of them, so cold, warm and CLI renderings
// of one request stay byte-identical.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"weakstab/internal/obs"
)

// JobStatus is the wire form of a job's lifecycle state.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Source is how the answer was produced: "run" (executed) or "lru"
	// (served from the in-memory result cache without touching disk).
	Source string `json:"source,omitempty"`
	// Deduped is set on submission responses when the submission joined
	// an existing job or LRU entry instead of starting work.
	Deduped bool    `json:"deduped,omitempty"`
	Request Request `json:"request"`
	Error   string  `json:"error,omitempty"`
	// Events is the number of feed events published so far.
	Events int64 `json:"events"`
}

// status assembles a JobStatus snapshot.
func status(j *Job) JobStatus {
	state, source, _, err := j.Status()
	st := JobStatus{ID: j.ID, State: state, Source: source, Request: j.Request}
	if err != nil {
		st.Error = err.Error()
	}
	if j.feed != nil {
		st.Events = j.feed.published()
	}
	return st
}

// Handler returns the manager's HTTP API.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", m.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", m.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", m.handleEvents)
	mux.Handle("GET /metrics", obs.MetricsHandler(obs.Or(m.cfg.Deps.Obs).Registry()))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON writes v indented with a trailing newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes caps a POST /jobs body; a Request is a few hundred
// bytes.
const maxRequestBytes = 1 << 20

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// The body is one JSON value: only whitespace may follow it.
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			err = nil
		} else if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("data follows the request's JSON value")
		}
	}
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", maxRequestBytes))
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	j, deduped, err := m.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	st := status(j)
	st.Deduped = deduped
	writeJSON(w, http.StatusAccepted, st)
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := m.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = status(j)
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves the path's job ID, answering 410 for a retired job and
// 404 for an unknown one.
func (m *Manager) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j, err := m.Job(id)
	switch {
	case errors.Is(err, ErrRetired):
		writeError(w, http.StatusGone, fmt.Errorf("%s: %w; the server keeps the last %d finished jobs", id, err, retainFinished))
	case err != nil:
		writeError(w, http.StatusNotFound, err)
	}
	return j
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := m.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, status(j))
	}
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := m.job(w, r)
	if j == nil {
		return
	}
	m.cancelJob(j)
	writeJSON(w, http.StatusOK, status(j))
}

func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	j := m.job(w, r)
	if j == nil {
		return
	}
	state, _, resp, err := j.Status()
	switch state {
	case StateQueued, StateRunning:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; poll /jobs/%s until done", j.ID, state, j.ID))
	case StateCanceled:
		writeError(w, http.StatusGone, err)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		resp.WriteJSON(w)
	}
}

// handleEvents streams the job's feed as Server-Sent Events: each obs
// event becomes one SSE message with the event name, the feed sequence
// as its id, and the payload as data; ?from=<seq> resumes after a
// disconnect (events evicted from the ring are skipped). When the job
// reaches a terminal state a final "done" event carrying the job status
// is sent and the stream ends. A finished job without a feed — one
// answered from the LRU — streams the done event alone.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := m.job(w, r)
	if j == nil {
		return
	}
	// A bad cursor is refused rather than read as 0, which would replay
	// events the client already has.
	from := int64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: from=%q is not a non-negative event sequence number", s))
			return
		}
		from = v
	}
	if j.feed == nil {
		select {
		case <-j.Done():
		default:
			writeError(w, http.StatusNotFound, errors.New("service: job has no event feed"))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for j.feed != nil {
		evs, closed := j.feed.Wait(r.Context(), from)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, ev.Data)
			from = ev.Seq + 1
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			break
		}
		if r.Context().Err() != nil {
			return
		}
	}
	st, _ := json.Marshal(status(j))
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", st)
	flusher.Flush()
}
