package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/studysvc"
)

// server is the study service with default settings, served over
// loopback HTTP in this process, plus a client limited to nproc
// connections that never retries.
type server struct {
	http   *http.Server
	served chan error
	tr     *http.Transport
	client *studysvc.Client
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := studysvc.New(studysvc.Config{})
	s := &server{
		http:   &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		tr: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = studysvc.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	s.client.MaxRetries = -1 // a shed request is a failure, never hidden by a retry
	return s, nil
}

// close shuts the server down and waits for it to stop.
func (s *server) close() error {
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// stats fetches GET /v1/stats.
func (s *server) stats(ctx context.Context) (*studysvc.Stats, error) {
	st, err := s.client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

// setServiceLayers records the service and memo counters accumulated
// between two /v1/stats snapshots. hits and total are the responses
// (or sweep cells) the workload saw, and served the result cache.
func setServiceLayers(o *outcome, before, after *studysvc.Stats, hits, total int) {
	o.set("svc.runs_started", float64(after.RunsStarted-before.RunsStarted), "count", 1)
	o.set("svc.cache_hits", float64(after.CacheHits-before.CacheHits), "count", 1)
	o.set("svc.coalesced", float64(after.Coalesced-before.Coalesced), "count", 1)
	o.set("svc.evictions", float64(after.Evictions-before.Evictions), "count", 1)
	o.set("svc.shed", float64(after.Shed-before.Shed), "count", 1)
	o.set("svc.queue_wait_p95_ms", after.QueueWait.P95MS, "ms", int(after.QueueWait.Count))
	o.set("svc.hit_ratio", ratio(float64(hits), float64(total)), "ratio", total)
	var memoHits, memoComputes int64
	if after.Memo != nil && before.Memo != nil {
		memoHits = after.Memo.Hits - before.Memo.Hits
		memoComputes = after.Memo.Computes - before.Memo.Computes
	}
	o.set("memo.hits", float64(memoHits), "count", 1)
	o.set("memo.computes", float64(memoComputes), "count", 1)
	o.set("memo.hit_ratio", ratio(float64(memoHits), float64(memoHits+memoComputes)), "ratio", int(memoHits+memoComputes))
}

// setNoServiceLayers records the service-side per-layer metrics as 0
// for a workload that never reaches the service.
func setNoServiceLayers(o *outcome) {
	setServiceLayers(o, &studysvc.Stats{}, &studysvc.Stats{}, 0, 0)
}
