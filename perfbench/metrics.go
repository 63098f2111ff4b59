package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef declares one printed metric. The two tables below are the
// benchmark's contract: a run prints exactly endToEnd (untraced) or
// exactly perLayer (traced), and BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONListsPrintedMetrics).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated regression share
}

var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "study_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sweep_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "synth.generate_s", Unit: "s", Better: "lower"},
		{Name: "synth.alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "synth.speedup", Unit: "x", Better: "higher"},
	}
	for _, n := range studyNodes {
		defs = append(defs,
			metricDef{Name: "node." + n + "_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "node." + n + "_alloc_mb", Unit: "MB", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "run.overlap", Unit: "x", Better: "higher"},
		metricDef{Name: "run.speedup", Unit: "x", Better: "higher"},
		metricDef{Name: "report.render_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.unaccounted_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "crawl.tasks", Unit: "count", Better: "higher"},
		metricDef{Name: "crawl.images", Unit: "count", Better: "higher"},
		metricDef{Name: "crawl.packs", Unit: "count", Better: "higher"},
		metricDef{Name: "crawl.errors", Unit: "count", Better: "lower"},
		metricDef{Name: "crawl.yield", Unit: "ratio", Better: "higher"},
		metricDef{Name: "kernel.pack_encode_us", Unit: "us", Better: "lower"},
		metricDef{Name: "kernel.pack_decode_us", Unit: "us", Better: "lower"},
		metricDef{Name: "kernel.hash_us", Unit: "us", Better: "lower"},
		metricDef{Name: "kernel.ocr_us", Unit: "us", Better: "lower"},
		metricDef{Name: "photodna.matches", Unit: "count", Better: "higher"},
		metricDef{Name: "reverse.searches", Unit: "count", Better: "higher"},
		metricDef{Name: "earnings.proofs", Unit: "count", Better: "higher"},
		metricDef{Name: "svc.runs_started", Unit: "count", Better: "lower"},
		metricDef{Name: "svc.cache_hits", Unit: "count", Better: "higher"},
		metricDef{Name: "svc.coalesced", Unit: "count", Better: "higher"},
		metricDef{Name: "svc.evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "svc.shed", Unit: "count", Better: "lower"},
		metricDef{Name: "svc.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "svc.hit_ratio", Unit: "ratio", Better: "higher"},
	)
	for _, c := range serveClasses {
		defs = append(defs, metricDef{Name: "serve." + c.name + "_p50_ms", Unit: "ms", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "memo.hits", Unit: "count", Better: "higher"},
		metricDef{Name: "memo.computes", Unit: "count", Better: "lower"},
		metricDef{Name: "memo.hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "sweep.cell_p50_s", Unit: "s", Better: "lower"},
		metricDef{Name: "gen.late_p95_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "machine.calib_ms", Unit: "ms", Better: "lower"},
	)
	return defs
}()

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value float64
	Unit  string
	N     int
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	// mismatches counts outputs that disagreed with the committed
	// digests or with another path's output; each is also a failure.
	mismatches int
	metrics    map[string]measured
	// notes are printed above the result line (one per line).
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]measured{}} }

func (o *outcome) set(name string, v float64, unit string, n int) {
	o.metrics[name] = measured{Value: v, Unit: unit, N: n}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// mismatch records a failed output check.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches++
	o.failed++
	o.note("MISMATCH "+format, args...)
}

// validate checks that the outcome carries exactly the declared
// metrics with the declared units.
func (o *outcome) validate(defs []metricDef) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.Name] = d.Unit
		m, ok := o.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", d.Name)
		}
	}
	for name := range o.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs: a
// Beta-weighted average of all order statistics rather than the one or
// two nearest q. It estimates the same quantile with a smaller
// run-to-run spread, which matters for a tail percentile drawn from a
// few hundred requests; 0 for no samples.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cur := betaCDF(float64(i+1)/float64(n), a, b)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

func median(xs []float64) float64 { return hdQuantile(xs, 0.5) }
func p95(xs []float64) float64    { return hdQuantile(xs, 0.95) }

// betaCDF is the regularized incomplete beta function I_x(a, b), by
// the continued fraction of Numerical Recipes §6.4.
func betaCDF(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

// setupRepeats is how many times a run times its set-up step; setup_s
// is the median.
const setupRepeats = 5

// timeSetup runs a workload's set-up step setupRepeats times, each
// from a collected heap, before anything is measured, and returns the
// seconds each took.
func timeSetup(step func() error) ([]float64, error) {
	var out []float64
	for range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		if err := step(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, secs(time.Since(t0)))
	}
	return out, nil
}

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler tracks the peak heap held by objects (live or not yet
// collected), read from runtime/metrics every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // written by the sampling goroutine until stop closes
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readMetric(heapObjects)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: heapObjects}}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
		}
	}()
	return h
}

// done stops the sampler, waits for it and returns the peak in MB.
func (h *heapSampler) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(max(h.peak, readMetric(heapObjects))) / (1 << 20)
}

// allocMB is the process's cumulative heap allocation in MB.
func allocMB() float64 { return float64(readMetric("/gc/heap/allocs:bytes")) / (1 << 20) }
