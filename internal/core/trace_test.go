package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artefact"
	"repro/internal/synth"
	"repro/internal/tracex"
)

var updateTrace = flag.Bool("update", false, "rewrite trace golden files with the current output")

// traceStudy runs one seed-77 study over store under a tracer and
// returns the recorded trace. The world is the store's "world" entry
// (as in studysvc.execute): a cold run generates it inside "node world"
// → "synth", a warm run hits it, so its trace is what the service
// records on a cache-warm request.
func traceStudy(t *testing.T, tracer *tracex.Tracer, store *artefact.Store) tracex.Trace {
	t.Helper()
	opts := Options{
		// Synth workers pinned too: the synth span carries the count as
		// an attr and its children depend on the generation path.
		Synth:          synth.Config{Seed: 77, Scale: 0.02, Workers: 2},
		AnnotationSize: 300,
		// Pin both worker counts: stage spans carry them as attrs, and
		// the default (GOMAXPROCS) would make the golden machine-shaped.
		Workers:          2,
		CrawlConcurrency: 2,
	}
	ctx := tracex.NewContext(context.Background(), tracer)
	ctx, root := tracex.StartSpan(ctx, "run")
	s, err := NewStudyWithStore(ctx, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()
	tr, ok := tracer.Trace(root.Context().Trace.String())
	if !ok {
		t.Fatal("study trace not recorded")
	}
	return tr
}

// TestStudyTraceGolden pins the aggregated span tree of a seed-77
// study, cold and warm, as golden JSON (tracex.Trace.MarshalTree drops
// ids and timings, so the tree is identical across runs whatever the
// goroutine interleaving). The warm run shares the cold run's world
// and artefact memo — the trace the service records on a cache-warm
// request — and must show memo-hit node spans, no synth span and zero
// crawl leaf spans. Regenerate deliberately with:
//
//	go test ./internal/core -run TestStudyTraceGolden -update
func TestStudyTraceGolden(t *testing.T) {
	tracer := tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(9)})
	store := artefact.NewStore()

	cold := traceStudy(t, tracer, store)
	warm := traceStudy(t, tracer, store)

	checkGolden(t, "cold", cold)
	checkGolden(t, "warm", warm)

	coldByName := spanCounts(cold)
	warmByName := spanCounts(warm)
	if coldByName["synth"] != 1 {
		t.Errorf("cold trace has %d synth spans, want 1", coldByName["synth"])
	}
	if coldByName["crawl fetch"] == 0 {
		t.Error("cold trace has no crawl leaf spans")
	}
	if n := warmByName["synth"]; n != 0 {
		t.Errorf("warm trace has %d synth spans, want 0 (world was reused)", n)
	}
	if n := warmByName["crawl fetch"]; n != 0 {
		t.Errorf("warm trace has %d crawl leaf spans, want 0 (crawl served from memo)", n)
	}
	hits, computes := outcomes(warm)
	if hits == 0 {
		t.Error("warm trace shows no memo-hit node spans")
	}
	if computes != 0 {
		t.Errorf("warm trace recomputed %d nodes, want 0", computes)
	}
}

// checkGolden compares tr's aggregated tree against its golden file.
func checkGolden(t *testing.T, name string, tr tracex.Trace) {
	t.Helper()
	got := tr.MarshalTree()
	golden := filepath.Join("testdata", "trace_seed77_"+name+".golden.json")
	if *updateTrace {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s span tree drifted from %s (rerun with -update if intended)\ngot:\n%s", name, golden, got)
	}
}

// spanCounts tallies spans by name.
func spanCounts(tr tracex.Trace) map[string]int {
	out := make(map[string]int)
	for _, s := range tr.Spans {
		out[s.Name]++
	}
	return out
}

// outcomes tallies node-span outcomes: memo hits vs fresh computes.
func outcomes(tr tracex.Trace) (hits, computes int) {
	for _, s := range tr.Spans {
		if !strings.HasPrefix(s.Name, "node ") {
			continue
		}
		switch s.Attrs["outcome"] {
		case "hit":
			hits++
		case "compute":
			computes++
		}
	}
	return hits, computes
}
