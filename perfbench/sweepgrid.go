package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/studysvc"
	"repro/internal/sweep"
)

// sweep-grid: one POST /v1/sweep of 3 seeds × annotations {500, 800}
// × crawl concurrency {4, 8, 16} at scale 0.1, parallelism 2 — 18
// cells, a batch user's throughput. Seeds vary innermost, so three
// worlds cycle through the service's two-world cache. Crawl
// concurrency is an execution knob outside the memo's keys, so the
// crawl-4 cells compute every node and the crawl-8 and crawl-16 cells
// reuse them from the memo: one third of the cells are slow, and the
// median cell falls inside the fast class, p95 inside the slow one.
// An even split (two crawl settings) puts the median cell on the
// boundary between the classes, where it moved by 20–30% from run to
// run. Every sweep runs on a freshly started service, so each
// measures the same cold batch; set-up is timed apart, as starting and
// priming a service.

const (
	sweepScale       = 0.1
	sweepParallelism = 2
	// minSweeps is the fewest sweeps a run measures, however long
	// each takes; sweep_s is their median.
	minSweeps = 3
	// sweepLedgerRounds repeats the traced run's ledger of one cell.
	sweepLedgerRounds = 5
	// sweepPrimeSeed is the world of the set-up priming request, which
	// no grid uses. At this scale one set-up step lasts most of a
	// second; at 0.01 it lasted tens of milliseconds and its median
	// moved with every pause of the scheduler.
	sweepPrimeSeed  = 9001
	sweepPrimeScale = 0.05
)

var (
	sweepAnnotations = []int{500, 800}
	sweepCrawls      = []int{4, 8, 16}
	// sweepSeeds are the grid's worlds, in the order of its seed axis,
	// the same in every run: a world's study cost varies by ±10%
	// between seeds, and the order sets which worlds share the cache
	// and the cores. --seed seeds only the traced run's kernel inputs.
	sweepSeeds = []uint64{301, 302, 303}
)

func sweepSpec(seeds []uint64) sweep.Spec {
	return sweep.Spec{
		Grid: &sweep.Grid{
			Seeds:              seeds,
			Scales:             []float64{sweepScale},
			Annotations:        sweepAnnotations,
			CrawlConcurrencies: sweepCrawls,
		},
		Parallelism: sweepParallelism,
	}
}

func seedsKey(seeds []uint64) string {
	return strings.Trim(fmt.Sprint(seeds), "[]")
}

// primeSweepServer is sweep-grid's set-up step: start a service, send
// it the priming request and shut it down.
func primeSweepServer(ctx context.Context) error {
	s, err := startServer()
	if err != nil {
		return err
	}
	rep := send(ctx, s, studysvc.Request{Seed: sweepPrimeSeed, Scale: sweepPrimeScale}, time.Now())
	if err := s.close(); err != nil {
		return err
	}
	if rep.err != nil {
		return fmt.Errorf("priming request: %w", rep.err)
	}
	return nil
}

// oneSweep runs the grid on a freshly started service; when traced is
// not nil it records there the service layers the sweep moved.
func oneSweep(ctx context.Context, traced *outcome) (time.Duration, *sweep.Result, error) {
	runtime.GC() // drop the previous sweep's service before this one starts
	s, err := startServer()
	if err != nil {
		return 0, nil, err
	}
	defer s.close()
	before, err := s.stats(ctx)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	env, err := s.client.RunSweep(ctx, sweepSpec(sweepSeeds))
	wall := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("POST /v1/sweep: %w", err)
	}
	if env.Result == nil {
		return 0, nil, fmt.Errorf("POST /v1/sweep: status %s, no result", env.Status)
	}
	if traced != nil {
		after, err := s.stats(ctx)
		if err != nil {
			return 0, nil, err
		}
		hits := 0
		for _, c := range env.Result.Cells {
			if c.Cached {
				hits++
			}
		}
		setServiceLayers(traced, before, after, hits, len(env.Result.Cells))
	}
	return wall, env.Result, nil
}

// checkSweep counts a sweep's cells and checks its output.
func checkSweep(o *outcome, chk *checker, res *sweep.Result) (cellSecs []float64) {
	o.attempted += len(res.Cells)
	o.failed += len(res.Errors)
	for _, e := range res.Errors {
		o.note("cell %s failed: %s", e.Cell, e.Err)
	}
	d, err := aggregateDigest(res)
	if err != nil {
		o.mismatch("sweep-grid: %v", err)
		return nil
	}
	if !chk.check(o, "sweep-grid", seedsKey(sweepSeeds), d) {
		return nil
	}
	for _, c := range res.Cells {
		if c.Err == "" {
			cellSecs = append(cellSecs, float64(c.ElapsedMS)/1000)
		}
	}
	return cellSecs
}

func runSweepGrid(ctx context.Context, chk *checker, seed uint64, seconds int, traced bool) (*outcome, error) {
	o := newOutcome()
	o.note("sweep-grid: seeds %s, scale %g, annotations %v, crawl %v, parallelism %d",
		seedsKey(sweepSeeds), sweepScale, sweepAnnotations, sweepCrawls, sweepParallelism)

	if traced {
		_, res, err := oneSweep(ctx, o)
		if err != nil {
			return nil, err
		}
		cells := checkSweep(o, chk, res)
		o.set("sweep.cell_p50_s", median(cells), "s", len(cells))
		setNoServeClasses(o)
		opts := sweep.Cell{Seed: sweepSeeds[0], Scale: sweepScale, Annotation: sweepAnnotations[0], CrawlConcurrency: sweepCrawls[0]}.Options()
		// Cells' summaries are covered by the sweep digest; the ledger's
		// paths are checked against each other.
		if err := studyLedger(ctx, o, opts, sweepLedgerRounds, func(*core.Results, string) bool { return true }); err != nil {
			return nil, err
		}
		return o, measureKernels(o, seed)
	}

	setups, err := timeSetup(func() error { return primeSweepServer(ctx) })
	if err != nil {
		return nil, err
	}
	var walls, cells []float64
	heap := startHeapSampler()
	// Sweeps repeat until --seconds have passed, so a run takes as many
	// samples as the machine allows.
	start := time.Now()
	for len(walls) < minSweeps || time.Since(start) < time.Duration(seconds)*time.Second {
		wall, res, err := oneSweep(ctx, nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, secs(wall))
		cells = append(cells, checkSweep(o, chk, res)...)
	}
	peak := heap.done()
	if len(cells) == 0 {
		return nil, fmt.Errorf("no sweep cell succeeded")
	}
	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	o.set("sweep_s", median(walls), "s", len(walls))
	o.set("study_s", median(cells), "s", len(cells))
	o.set("latency_p50_ms", 1000*median(cells), "ms", len(cells))
	o.set("latency_p95_ms", 1000*p95(cells), "ms", len(cells))
	o.set("goodput_rps", float64(len(cells))/wallSum, "1/s", len(cells))
	o.set("success_rate", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio", o.attempted)
	o.set("peak_heap_mb", peak, "MB", 1)
	o.set("setup_s", median(setups), "s", len(setups))
	return o, nil
}
