package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"weakstab/internal/obs"
	"weakstab/internal/service"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// Serving configuration of serve-mixed. Two job workers and two clients
// keep the load at one thread per CPU of the 2-core box the bounds were
// calibrated on.
const (
	serveJobWorkers = 2
	serveQueueDepth = 16
	serveFeedDepth  = 256
	// serveZipfS is the skew of the request popularity distribution.
	serveZipfS = 1.1
	// serveSeqLen is how many requests are drawn up front; a run that
	// issues more wraps around.
	serveSeqLen = 1 << 16
	// cacheProbeReps is how many times each spacecache probe repeats.
	cacheProbeReps = 5
	// serveWarmUp is how many identities the set-up's warm-up requests.
	serveWarmUp = 4
)

// serveSequence draws the pool index of every request from a Zipf
// distribution over the pool: rank 0 is the most popular identity.
func serveSequence(seed int64, poolSize, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), serveZipfS, 1, uint64(poolSize-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// server is one service.Manager over a fresh mmap-backed space cache,
// served on a loopback listener, with a keep-alive client.
type server struct {
	dir    string
	mgr    *service.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startServer(e env) (*server, error) {
	dir, err := e.newWorkdir("serve-")
	if err != nil {
		return nil, err
	}
	cache, err := spacecache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mgr := service.NewManager(service.Config{
		Deps:       service.Deps{Cache: cache, Obs: obs.New()},
		Workers:    serveJobWorkers,
		QueueDepth: serveQueueDepth,
		LRUSize:    e.sz.lru,
		FeedDepth:  serveFeedDepth,
	})
	s := &server{
		dir:    dir,
		mgr:    mgr,
		srv:    &http.Server{Handler: mgr.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveJobWorkers, MaxIdleConnsPerHost: serveJobWorkers}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains the manager, waits for the serving
// goroutine and removes the cache directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.mgr.Shutdown(ctx); err == nil {
		err = merr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// get fetches path and returns the body; any status but 200 is an error.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

// submit posts req to /jobs and returns the job status.
func (s *server) submit(req service.Request) (service.JobStatus, error) {
	var st service.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return st, json.Unmarshal(b, &st)
}

// wait follows the job's event stream to its terminal done event and
// returns an error unless the job finished done.
func (s *server) wait(id string) error {
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var st service.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return err
			}
			if st.State != service.StateDone {
				return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			_, err := io.Copy(io.Discard, resp.Body) // let the connection be reused
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream of %s ended without a done event", id)
}

// Answer sources of a request, read from its submission status.
const (
	srcLRU    = "lru"    // answered from the result LRU
	srcDedupe = "dedupe" // joined an identical queued or running job
	srcRun    = "run"    // started a job of its own
)

// reply is one served request.
type reply struct {
	pool   int
	source string
	lat    time.Duration
	doc    []byte
}

// serveSession is serve-mixed: op i is the i-th request of the seeded
// sequence, issued as POST /jobs, the event stream until done (skipped
// when the job is already done), then GET /jobs/{id}/result.
type serveSession struct {
	e    env
	pool []instance
	seq  []int
	srv  *server

	mu     sync.Mutex
	served []served // every reply's source and latency, for finish
}

// served is what finish needs of one reply.
type served struct {
	source string
	lat    time.Duration
}

func openServe(e env) (session, error) {
	pool, err := openInstances(e.sz, wServe, e.sz.pool)
	if err != nil {
		return nil, err
	}
	// Warm up on a throwaway server and cache, so the measured one starts
	// cold: one request for each of the serveWarmUp most popular
	// identities.
	warm := &serveSession{e: e, pool: pool, seq: make([]int, min(serveWarmUp, len(pool)))}
	for i := range warm.seq {
		warm.seq[i] = i
	}
	if warm.srv, err = startServer(e); err != nil {
		return nil, err
	}
	for i := range warm.seq {
		if err = warmUp(warm, i); err != nil {
			break
		}
	}
	if serr := warm.srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	s := &serveSession{e: e, pool: pool, seq: serveSequence(e.seed, len(pool), serveSeqLen)}
	if s.srv, err = startServer(e); err != nil {
		return nil, err
	}
	return s, nil
}

// request issues op i, recording one span per HTTP exchange on tr.
func (s *serveSession) request(tr *tracer, i int) (reply, error) {
	k := s.seq[i%len(s.seq)]
	req := s.pool[k].req
	req.Workers = 1
	r := reply{pool: k}
	t := time.Now()
	var (
		st  service.JobStatus
		err error
	)
	tr.do("http.submit", func() { st, err = s.srv.submit(req) })
	if err != nil {
		return r, err
	}
	switch {
	case st.Source == srcLRU:
		r.source = srcLRU
	case st.Deduped:
		r.source = srcDedupe
	default:
		r.source = srcRun
	}
	if st.State != service.StateDone {
		tr.do("http.wait", func() { err = s.srv.wait(st.ID) })
		if err != nil {
			return r, err
		}
	}
	id := tr.do("http.result", func() { r.doc, err = s.srv.get("/jobs/" + st.ID + "/result") })
	tr.count(id, "bytes", int64(len(r.doc)))
	r.lat = time.Since(t)
	s.mu.Lock()
	s.served = append(s.served, served{r.source, r.lat})
	s.mu.Unlock()
	return r, err
}

func (s *serveSession) op(i int) (any, error) { return s.request(nil, i) }

// check accepts a document byte-equal to its identity's golden, whatever
// its source: cold, warm-disk, LRU or deduped. It keeps the document's
// digest, not the document, so the harness's own memory does not grow
// with the request count.
func (s *serveSession) check(_ int, ans any) (any, error) {
	r := ans.(reply)
	in := s.pool[r.pool]
	if !bytes.Equal(r.doc, in.golden) {
		return nil, fmt.Errorf("%s (%s answer): result document differs from its golden", label(in.req), r.source)
	}
	return sha256.Sum256(r.doc), nil
}

func (s *serveSession) traced(tr *tracer, i int) (any, error) {
	var r reply
	err := inOp(tr, func() error {
		var err error
		r, err = s.request(tr, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s.check(i, r)
}

// finish derives the answer-source metrics of the requests served so
// far and the cache hit share scraped from /metrics, then probes
// service.Execute and the space cache on their own.
func (s *serveSession) finish(tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	s.mu.Lock()
	lat := map[string][]float64{}
	for _, r := range s.served {
		lat[r.source] = append(lat[r.source], ms(r.lat))
	}
	n := float64(len(s.served))
	s.mu.Unlock()
	out["service.lru_frac"] = float64(len(lat[srcLRU])) / n
	out["service.dedupe_frac"] = float64(len(lat[srcDedupe])) / n
	out["service.run_frac"] = float64(len(lat[srcRun])) / n
	// A source no request came from leaves its latency unmeasured.
	if len(lat[srcLRU]) > 0 {
		out["service.lru_answer.p50_ms"] = median(lat[srcLRU])
	}
	if len(lat[srcRun]) > 0 {
		out["service.run_answer.p50_ms"] = median(lat[srcRun])
	}

	b, err := s.srv.get("/metrics")
	if err != nil {
		return nil, err
	}
	if hits, misses := scrape(b, "cache_hits_total"), scrape(b, "cache_misses_total"); hits+misses > 0 {
		out["spacecache.hit_frac"] = hits / (hits + misses)
	}

	if err := s.probeExecute(tr); err != nil {
		return nil, err
	}
	return out, s.probeCache(tr)
}

// scrape returns the value of an OpenMetrics sample (0 when absent).
func scrape(exposition []byte, name string) float64 {
	for _, line := range strings.Split(string(exposition), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// probeExecute calls service.Execute directly on every pool identity,
// first against an empty cache (op 0) and then against the filled one
// (op 1).
func (s *serveSession) probeExecute(tr *tracer) error {
	dir, err := s.e.newWorkdir("execute-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := spacecache.Open(dir)
	if err != nil {
		return err
	}
	for op, name := range []string{"service.execute_cold", "service.execute_warm"} {
		tr.op = op
		for _, in := range s.pool {
			var resp *service.Response
			tr.do(name, func() { resp, err = service.Execute(bg, in.req, service.Deps{Cache: cache}) })
			if err != nil {
				return fmt.Errorf("%s: %w", label(in.req), err)
			}
			if err := matchGolden(resp, in); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeCache stores and loads the pool's largest full-range space: a
// store, a first mmap load (full validation), a repeat mmap load (the
// memoized trusted path) and a decode load, cacheProbeReps times.
func (s *serveSession) probeCache(tr *tracer) error {
	var (
		big  instance
		most int64
	)
	for _, in := range s.pool {
		if in.req.Mode != "" || in.req.Reachable {
			continue
		}
		total := int64(1)
		for p := 0; p < in.a.Graph().N(); p++ {
			total *= int64(in.a.StateCount(p))
		}
		if total > most {
			big, most = in, total
		}
	}
	sp, err := statespace.Build(big.a, big.pol, big.opt())
	if err != nil {
		return err
	}
	for rep := 0; rep < cacheProbeReps; rep++ {
		tr.op = rep
		if err := probeCacheOnce(tr, s.e, sp); err != nil {
			return fmt.Errorf("%s: %w", label(big.req), err)
		}
	}
	return nil
}

func probeCacheOnce(tr *tracer, e env, sp *statespace.Space) error {
	dir, err := e.newWorkdir("cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := spacecache.Open(dir)
	if err != nil {
		return err
	}
	tr.do("spacecache.store", func() { err = c.StoreSpace(sp) })
	if err != nil {
		return err
	}
	// A fresh Cache has not validated the file yet.
	c, err = spacecache.Open(dir)
	if err != nil {
		return err
	}
	for _, load := range []struct {
		name   string
		mapped bool
	}{
		{"spacecache.load_mmap_first", true},
		{"spacecache.load_mmap", true},
		{"spacecache.load_decode", false},
	} {
		c.SetMmap(load.mapped)
		var (
			got *statespace.Space
			ok  bool
		)
		tr.do(load.name, func() { got, ok = c.LoadSpace(sp.Alg, sp.Pol, statespace.Options{}) })
		if !ok || got.Mapped() != load.mapped || got.NumStates() != sp.NumStates() || got.Edges() != sp.Edges() {
			return fmt.Errorf("%s did not load the stored space", load.name)
		}
		if err := got.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveSession) close() error { return s.srv.stop() }
