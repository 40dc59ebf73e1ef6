// Command stabserve is the stabilization-as-a-service daemon: a
// long-lived HTTP/JSON server that accepts classification and k-fault
// sweep jobs, runs them on a bounded worker pool through the same
// execution path as stabcheck, and answers repeats from an in-memory
// result LRU over the on-disk space cache. Endpoints:
//
//	POST /jobs              submit a job (the stabcheck flags as JSON)
//	GET  /jobs              list the retained jobs: every queued and
//	                        running one and the last 1,024 finished
//	                        (an older ID answers 410 Gone)
//	GET  /jobs/{id}         job status
//	GET  /jobs/{id}/result  the result document (byte-identical to
//	                        stabcheck -json for the same request)
//	DELETE /jobs/{id}       cancel (takes effect at the exploration's
//	                        next cooperative boundary)
//	GET  /jobs/{id}/events  live progress as Server-Sent Events
//	GET  /metrics           OpenMetrics exposition of the obs registry
//	GET  /healthz           liveness
//
// Identical in-flight submissions join the running job (singleflight);
// finished documents are answered from the LRU without touching disk;
// and a cold job of a previously-seen instance loads the explored space
// from the cache directory instead of exploring.
//
// Examples:
//
//	stabserve -addr localhost:8321 -cache ~/.weakstab-cache
//	curl -X POST localhost:8321/jobs -d '{"alg":"tokenring","n":6}'
//	curl localhost:8321/jobs/job-1/result
//	curl -N localhost:8321/jobs/job-1/events
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"weakstab/internal/cli"
	"weakstab/internal/obs"
	"weakstab/internal/service"
	"weakstab/internal/spacecache"
)

func main() { cli.Exit("stabserve", run(os.Args[1:])) }

func run(args []string) error {
	fs := cli.FlagSet("stabserve")
	var (
		addr     = fs.String("addr", "localhost:8321", "listen address (use :0 for an ephemeral port)")
		cacheDir = fs.String("cache", "", "on-disk space cache directory shared by all jobs")
		mmap     = fs.Bool("mmap", true, "zero-copy mmap-backed cache loads")
		jobs     = fs.Int("jobs", 2, "job worker-pool size (concurrent explorations)")
		queue    = fs.Int("queue", 16, "admission queue depth; submissions beyond it get 503")
		lruSize  = fs.Int("lru", 64, "in-memory result LRU capacity (documents)")
		feed     = fs.Int("feed", 256, "per-job event ring capacity for /events subscribers")
		timeout  = fs.Duration("timeout", 0, "default per-job deadline from admission (0 = none)")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM before outstanding jobs are canceled")
	)
	return cli.Run(fs, args, false, func(orun *cli.ObsRun) error {
		// A server always has a live observer — /metrics must scrape even
		// when no obs flag is set (the CLI's "off by default" does not
		// apply to a daemon whose whole point includes the scrape
		// endpoint).
		o := orun.Observer()
		if o == nil {
			o = obs.Default()
		}
		if o == nil {
			o = obs.New()
		}
		cache, err := spacecache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache.SetMmap(*mmap)
		mgr := service.NewManager(service.Config{
			Deps:           service.Deps{Cache: cache, Obs: o},
			Workers:        *jobs,
			QueueDepth:     *queue,
			LRUSize:        *lruSize,
			FeedDepth:      *feed,
			DefaultTimeout: *timeout,
		})

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: mgr.Handler()}
		fmt.Printf("stabserve listening on http://%s\n", ln.Addr())

		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()

		select {
		case err := <-serveDone:
			return err
		case <-ctx.Done():
		}
		// Graceful exit: stop accepting, drain the pool (canceling
		// outstanding jobs if the budget runs out), then close idle
		// connections.
		fmt.Println("stabserve draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := mgr.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "stabserve: drain:", err)
		}
		return srv.Shutdown(drainCtx)
	})
}
