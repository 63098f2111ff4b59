package core

import (
	"context"

	"repro/internal/pipeline"
)

// Run executes the complete study by evaluating the full artefact
// graph: independent nodes (the §4.2-§4.5 image chain and the §5/§6
// financial/actor branch) run concurrently, the heavy nodes fan their
// work across worker pools internally, and every fold consumes its
// items in the sequential order — so Results are identical to
// RunSequential for the same Options, which the equivalence tests
// pin. Per-node and per-stage metrics are available from
// PipelineStats afterwards.
//
// Node values are reused from — and published to — the study's memo
// store under their canonical keys (shared across studies when built
// with NewStudyWithStore).
func (s *Study) Run(ctx context.Context) (*Results, error) {
	defer s.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.stats = pipeline.NewStats()

	vals, err := s.evaluate(ctx, Artefacts())
	if err != nil {
		return nil, err
	}
	res := &Results{}
	fillResults(res, vals)

	// Replay the branch hotlines into the study hotline in the order
	// the sequential path files reports: main crawl first, earnings
	// crawl second.
	for _, r := range vals[ArtefactPhotoDNA].(photodnaValue).reports {
		s.Hotline.Report(r)
	}
	for _, r := range vals[ArtefactEarnings].(earningsValue).reports {
		s.Hotline.Report(r)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// nsfvClass is one safe image with its NSFV verdict.
type nsfvClass struct {
	si    SafeImage
	class int
}

// NSFV verdict classes.
const (
	classPack = iota
	classSFV
	classPreview
)

// provItem is one image headed for reverse search: a sampled pack
// image or a preview.
type provItem struct {
	si   SafeImage
	pack bool
}

// provSearched pairs a search outcome with the row it belongs to.
type provSearched struct {
	pack bool
	out  searchOutcome
}
