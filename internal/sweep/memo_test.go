package sweep

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/artefact"
	"repro/internal/core"
)

// TestArtefactMemoSweep pins the artefact-prefix reuse acceptance
// criteria: a sweep sharing a memo store aggregates DeepEqual to the
// same sweep without one, cells that differ only in crawl concurrency
// share every node, and re-running an annotation-only sweep against
// the warm store performs zero crawls (zero node computations at
// all).
func TestArtefactMemoSweep(t *testing.T) {
	cells := Grid{
		Seeds:              []uint64{2019},
		Scales:             []float64{0.01},
		Annotations:        []int{150, 200},
		CrawlConcurrencies: []int{2, 4},
	}.Cells()
	ctx := context.Background()

	plain := Run(ctx, "memo-pair", cells, Local{}, Options{Parallelism: 2})
	memo := artefact.NewStore()
	backend := Local{Memo: memo}
	cold := Run(ctx, "memo-pair", cells, backend, Options{Parallelism: 2})

	if len(plain.Errors) != 0 || len(cold.Errors) != 0 {
		t.Fatalf("unexpected errors: %v / %v", plain.Errors, cold.Errors)
	}
	if !reflect.DeepEqual(plain.Aggregate, cold.Aggregate) {
		t.Fatalf("memoized sweep aggregate differs from plain:\n%+v\nvs\n%+v",
			cold.Aggregate, plain.Aggregate)
	}
	for i := range plain.Cells {
		if !reflect.DeepEqual(plain.Cells[i].Summary, cold.Cells[i].Summary) {
			t.Fatalf("cell %d summary differs under the artefact memo", i)
		}
	}

	// 4 cells span 2 semantic configs (the annotations); the crawl
	// concurrency axis shares everything. Each study-keyed node
	// computes once per annotation; select is world-keyed and
	// computes once in total.
	if n := memo.ComputeCount(core.ArtefactCrawl); n != 2 {
		t.Errorf("crawl computed %d times for 4 cells over 2 annotations, want 2", n)
	}
	if n := memo.ComputeCount(core.ArtefactSelect); n != 1 {
		t.Errorf("select computed %d times, want 1 (world-keyed)", n)
	}
	if n := memo.ComputeCount("world"); n != 1 {
		t.Errorf("world generated %d times for 4 cells of one config, want 1", n)
	}

	// Warm re-run: the annotation-only sweep against the primed store
	// must perform zero crawls — zero computations of any node — and
	// still aggregate DeepEqual.
	before := memo.TotalComputes()
	warm := Run(ctx, "memo-pair", cells, backend, Options{Parallelism: 2})
	if len(warm.Errors) != 0 {
		t.Fatalf("warm sweep errors: %v", warm.Errors)
	}
	if !reflect.DeepEqual(cold.Aggregate, warm.Aggregate) {
		t.Fatal("warm sweep aggregate differs from cold")
	}
	if after := memo.TotalComputes(); after != before {
		t.Errorf("warm sweep computed %d extra nodes, want 0", after-before)
	}
	if n := memo.ComputeCount(core.ArtefactCrawl); n != 2 {
		t.Errorf("warm sweep crawled: crawl count %d, want 2", n)
	}
}

// TestCachedSweepMatchesUncached: a sweep whose cells share one store
// — worlds and artefact values — aggregates DeepEqual to the same
// sweep without one, across a grid that both shares configs
// (annotation and crawl-concurrency axes) and does not (a second
// seed), and generates one world per seed, not per cell.
func TestCachedSweepMatchesUncached(t *testing.T) {
	cells := Grid{
		Seeds:              []uint64{2019, 2020},
		Scales:             []float64{0.01},
		Annotations:        []int{150, 200},
		CrawlConcurrencies: []int{2, 4},
	}.Cells()
	ctx := context.Background()

	plain := Run(ctx, "cache-pair", cells, Local{}, Options{Parallelism: 2})
	store := artefact.NewStore()
	cached := Run(ctx, "cache-pair", cells, Local{Memo: store}, Options{Parallelism: 2})

	if len(plain.Errors) != 0 || len(cached.Errors) != 0 {
		t.Fatalf("unexpected errors: %v / %v", plain.Errors, cached.Errors)
	}
	if !reflect.DeepEqual(plain.Aggregate, cached.Aggregate) {
		t.Fatalf("shared-store sweep aggregate differs from the plain one:\n%+v\nvs\n%+v",
			cached.Aggregate, plain.Aggregate)
	}
	for i := range plain.Cells {
		if !reflect.DeepEqual(plain.Cells[i].Summary, cached.Cells[i].Summary) {
			t.Fatalf("cell %d summary differs under the shared store", i)
		}
	}
	if n := store.ComputeCount("world"); n != 2 {
		t.Fatalf("store generated %d worlds for 8 cells over 2 configs", n)
	}
}
