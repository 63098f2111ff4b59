package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/artefact"
	"repro/internal/core"
)

// Backend executes one cell of a sweep. Local runs the study
// in-process; studysvc provides a client backend that submits the cell
// to a live service, which turns the sweep into a load generator.
type Backend interface {
	RunCell(ctx context.Context, c Cell) (CellResult, error)
}

// CellResult is a backend's answer for one cell.
type CellResult struct {
	Summary Summary
	// Elapsed is the study's execution time (a remote cache hit keeps
	// the original run's time, mirroring the service envelope).
	Elapsed time.Duration
	// Cached reports a remote result served from the service cache
	// (always false locally).
	Cached bool
}

// Local runs each cell as an in-process core.Study on the concurrent
// engine.
type Local struct {
	// Memo, when set, shares the generated world and artefact values
	// across cells under their canonical keys: cells with the same
	// synth config generate their world once, a crawler-concurrency
	// grid (or a re-run of an annotation-only grid against a warm
	// store) re-crawls zero times, and a cell only pays for the nodes
	// whose inputs actually changed. Nil runs every cell from scratch.
	// Results are bit-identical either way (keys cover every semantic
	// parameter); TestArtefactMemoSweep and
	// TestCachedSweepMatchesUncached pin it.
	Memo *artefact.Store
}

// RunCell resolves the cell's world and runs the full study.
func (l Local) RunCell(ctx context.Context, c Cell) (CellResult, error) {
	//lint:ignore determinism CellResult.Elapsed is timing metadata; aggregates and DeepEqual comparisons exclude it
	start := time.Now()
	study, err := core.NewStudyWithStore(ctx, c.Options(), l.Memo)
	if err != nil {
		return CellResult{}, err
	}
	res, err := study.Run(ctx)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Summary: Summarize(res), Elapsed: time.Since(start)}, nil
}

// Outcome is one executed cell in the sweep result, in plan order.
type Outcome struct {
	Index   int      `json:"index"`
	Cell    Cell     `json:"cell"`
	Summary *Summary `json:"summary,omitempty"`
	// ElapsedMS is the cell's study execution time in milliseconds.
	ElapsedMS int64  `json:"elapsed_ms"`
	Cached    bool   `json:"cached,omitempty"`
	Err       string `json:"error,omitempty"`
}

// CellError is one entry of the fail-soft error ledger.
type CellError struct {
	Index int    `json:"index"`
	Cell  Cell   `json:"cell"`
	Err   string `json:"error"`
}

// Result is a completed sweep: every outcome in plan order, the error
// ledger, and the deterministic aggregates over the successful cells.
type Result struct {
	Name  string    `json:"name"`
	Cells []Outcome `json:"cells"`
	// Errors is the fail-soft ledger: a failed cell lands here and the
	// rest of the sweep continues.
	Errors    []CellError `json:"errors,omitempty"`
	Aggregate *Aggregate  `json:"aggregate,omitempty"`
	// ElapsedMS is the whole sweep's wall-clock time.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// OK returns the number of successful cells.
func (r *Result) OK() int { return len(r.Cells) - len(r.Errors) }

// Options tunes a sweep execution.
type Options struct {
	// Parallelism bounds how many cells execute at once (default 2 —
	// each local cell is itself a concurrent pipeline).
	Parallelism int
	// CellTimeout bounds each cell's execution (0 = no bound).
	CellTimeout time.Duration
	// OnCell, when set, observes each outcome as it completes
	// (serialized; completion order, not plan order).
	OnCell func(done, total int, o Outcome)
}

// Run executes every cell on the backend with bounded parallelism and
// folds the outcomes into aggregates. The sweep is fail-soft: a cell
// error is recorded in the ledger and the remaining cells still run;
// cancelling ctx stops scheduling new cells and marks the unscheduled
// ones as cancelled. Outcomes land at their plan index, so the result
// — including every aggregate — is deterministic no matter how the
// scheduler interleaves cells.
func Run(ctx context.Context, name string, cells []Cell, backend Backend, opts Options) *Result {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 2
	}
	//lint:ignore determinism Result.Elapsed is timing metadata; aggregates and DeepEqual comparisons exclude it
	start := time.Now()
	res := &Result{Name: name, Cells: make([]Outcome, len(cells))}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards done counter and OnCell
		done int
		sem  = make(chan struct{}, opts.Parallelism)
	)
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			// Cancelled: ledger the rest without running them.
			res.Cells[i] = Outcome{Index: i, Cell: c, Err: fmt.Sprintf("not run: %v", err)}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			res.Cells[i] = runCell(ctx, i, c, backend, opts.CellTimeout)
			if opts.OnCell != nil {
				mu.Lock()
				done++
				opts.OnCell(done, len(cells), res.Cells[i])
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()

	for _, o := range res.Cells {
		if o.Err != "" {
			res.Errors = append(res.Errors, CellError{Index: o.Index, Cell: o.Cell, Err: o.Err})
		}
	}
	res.Aggregate = aggregate(res.Cells)
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res
}

// runCell executes one cell under its timeout.
func runCell(ctx context.Context, i int, c Cell, backend Backend, timeout time.Duration) Outcome {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cr, err := backend.RunCell(ctx, c)
	if err != nil {
		return Outcome{Index: i, Cell: c, Err: err.Error()}
	}
	s := cr.Summary
	return Outcome{
		Index: i, Cell: c, Summary: &s,
		ElapsedMS: cr.Elapsed.Milliseconds(), Cached: cr.Cached,
	}
}
