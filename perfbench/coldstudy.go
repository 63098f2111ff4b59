package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// cold-study: the paper-shaped cold path. Each study is a fresh
// core.NewStudy → Study.Run → report.Full at scale 0.2 with the
// paper's 1000-thread annotation, so no cache of any kind is reused.

const (
	coldScale      = 0.2
	coldAnnotation = 1000
	// coldNominalS is one cold study's wall time on the reference
	// machine (2-core Intel Xeon, nproc=2). The study count per run is
	// fixed from it and --seconds, so a run measures about --seconds
	// today and the same number of studies on every commit.
	coldNominalS = 5.0
	// coldPrimeScale sizes the set-up step, one priming study on
	// another world: it warms code paths and the allocator without
	// touching the measured world, and lasts under a second.
	coldPrimeScale = 0.05
	// coldLedgerRounds repeats the traced run's ledger; each round
	// runs three studies.
	coldLedgerRounds = 4
)

// coldWorld is the one world cold-study measures, the seed of the
// repository's golden report. It is fixed because a study's cost varies
// by ±10% between worlds at this scale, which would drown the changes
// the benchmark exists to see; --seed seeds the traced run's kernel
// inputs instead.
const coldWorld = 77

func coldOptions(seed uint64, scale float64) core.Options {
	opts := core.DefaultOptions()
	opts.Synth.Seed = seed
	opts.Synth.Scale = scale
	opts.AnnotationSize = coldAnnotation
	return opts
}

// coldStudyOnce runs one cold study and returns its report.
func coldStudyOnce(ctx context.Context, opts core.Options) (string, error) {
	res, err := core.NewStudy(opts).Run(ctx)
	if err != nil {
		return "", err
	}
	return report.Full(res), nil
}

func coldStudyCount(seconds int) int {
	return max(3, int(math.Round(float64(seconds)/coldNominalS)))
}

func runColdStudy(ctx context.Context, chk *checker, seed uint64, seconds int, traced bool) (*outcome, error) {
	o := newOutcome()
	key := strconv.FormatUint(coldWorld, 10)
	opts := coldOptions(coldWorld, coldScale)
	check := func(_ *core.Results, rep string) bool { return chk.check(o, "cold-study", key, digest([]byte(rep))) }
	o.note("cold-study: world seed %d, scale %g, annotation %d", coldWorld, coldScale, coldAnnotation)

	if traced {
		if err := studyLedger(ctx, o, opts, coldLedgerRounds, check); err != nil {
			return nil, err
		}
		if err := measureKernels(o, seed); err != nil {
			return nil, err
		}
		setNoServiceLayers(o)
		setNoServeClasses(o)
		o.set("sweep.cell_p50_s", 0, "s", 0)
		return o, nil
	}

	setups, err := timeSetup(func() error {
		_, err := coldStudyOnce(ctx, coldOptions(coldWorld+1, coldPrimeScale))
		return err
	})
	if err != nil {
		return nil, err
	}

	n := coldStudyCount(seconds)
	var lat []float64
	var batch time.Duration // Σ study wall time, forced collections excluded
	heap := startHeapSampler()
	for range n {
		runtime.GC() // each study starts from a collected heap, as in a fresh process
		t0 := time.Now()
		rep, err := coldStudyOnce(ctx, opts)
		d := time.Since(t0)
		batch += d
		o.attempted++
		if err != nil {
			o.failed++
			o.note("study failed: %v", err)
			continue
		}
		if check(nil, rep) {
			lat = append(lat, secs(d))
		}
	}
	peak := heap.done()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no cold study succeeded")
	}

	o.set("study_s", median(lat), "s", len(lat))
	o.set("latency_p50_ms", 1000*median(lat), "ms", len(lat))
	o.set("latency_p95_ms", 1000*p95(lat), "ms", len(lat))
	o.set("sweep_s", secs(batch), "s", 1)
	o.set("goodput_rps", float64(len(lat))/secs(batch), "1/s", len(lat))
	o.set("success_rate", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio", o.attempted)
	o.set("peak_heap_mb", peak, "MB", 1)
	o.set("setup_s", median(setups), "s", len(setups))
	return o, nil
}
