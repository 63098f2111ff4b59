// Command perfbench is the repository's benchmark: three workloads
// that drive the study through its stable entry points and print every
// metric by name, with its unit and sample count, after checking the
// outputs against committed digests. README.md describes the
// workloads, the metrics and what each per-layer metric should move.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-study --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. The command exits 1 if
// any output check fails and 2 if the benchmark cannot run at all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type workloadFunc func(ctx context.Context, chk *checker, seed uint64, seconds int, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"cold-study": runColdStudy,
	"serve-mix":  runServeMix,
	"sweep-grid": runSweepGrid,
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: cold-study, serve-mix or sweep-grid")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measurement length in seconds (sets the schedule and batch sizes)")
	trace := flag.Int("trace", 0, "1 for the traced run printing the per-layer metrics")
	update := flag.String("update-digests", "", "recompute every expected output and write the digest table to this file")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	if *update != "" {
		if err := updateDigests(ctx, *update); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {cold-study|serve-mix|sweep-grid}, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	want, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	busy0, steal0, ticksOK := cpuTicks()
	before := calibrate()
	o, err := fn(ctx, &checker{want: want}, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	after := calibrate()
	calib := median(append(before, after...))
	m, _ := json.Marshal(fingerprint(calib, stealSince(busy0, steal0, ticksOK)))
	fmt.Printf("machine %s\n", m)
	o.note("calibration: %.3f ms before the workload, %.3f ms after", median(before), median(after))
	defs := endToEnd
	if *trace == 1 {
		o.set("machine.calib_ms", calib, "ms", len(before)+len(after))
		defs = perLayer
	}
	if err := o.validate(defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	for _, n := range o.notes {
		fmt.Println("#", n)
	}
	res := result{
		Correct:   o.mismatches == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, d := range defs {
		v := o.metrics[d.Name]
		fmt.Printf("metric %-26s %14.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.N)
		res.Metrics[d.Name] = resultMetric{Value: v.Value, Unit: v.Unit}
	}
	verdict := "passed"
	if !res.Correct {
		verdict = "FAILED"
	}
	fmt.Printf("output check: %s (%d operations, %d failed, %d mismatched)\n",
		verdict, o.attempted, o.failed, o.mismatches)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// updateDigests recomputes every output any seed can select and
// writes the digest table.
func updateDigests(ctx context.Context, path string) error {
	chk := &checker{record: digestTable{}}
	o := newOutcome()
	rep, err := coldStudyOnce(ctx, coldOptions(coldWorld, coldScale))
	if err != nil {
		return err
	}
	chk.check(o, "cold-study", fmt.Sprint(coldWorld), digest([]byte(rep)))
	s, err := startServer()
	if err != nil {
		return err
	}
	for _, req := range allServeKeys() {
		if !checkReply(o, chk, req, send(ctx, s, req, time.Now())) {
			s.close()
			return fmt.Errorf("request %s: %v", requestKey(req), o.notes)
		}
	}
	if err := s.close(); err != nil {
		return err
	}
	_, res, err := oneSweep(ctx, nil)
	if err != nil {
		return err
	}
	if len(res.Errors) > 0 {
		return fmt.Errorf("sweep: %d cells failed", len(res.Errors))
	}
	checkSweep(o, chk, res)
	for _, seed := range scheduleGoldenSeeds {
		sc, err := serveSchedule(seed, scheduleGoldenSeconds)
		if err != nil {
			return err
		}
		chk.check(o, "schedule", fmt.Sprint(seed), sc.digest())
	}
	return chk.save(path)
}
