package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/artefact"
	"repro/internal/synth"
)

// worldOptions is a small study over the given world config.
func worldOptions(cfg synth.Config) Options {
	return Options{Synth: cfg, AnnotationSize: 150}
}

// TestSharedWorldSingleflight hammers one config from many concurrent
// constructors: the store generates the world exactly once, and every
// study gets that world.
func TestSharedWorldSingleflight(t *testing.T) {
	store := artefact.NewStore()
	cfg := synth.Config{Seed: 7, Scale: 0.01}
	worlds := make([]*synth.World, 16)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewStudyWithStore(context.Background(), worldOptions(cfg), store)
			if err != nil {
				t.Error(err)
				return
			}
			worlds[i] = s.World
		}(i)
	}
	wg.Wait()
	if n := store.ComputeCount(worldNode); n != 1 {
		t.Fatalf("generated %d worlds for one config", n)
	}
	for i, w := range worlds {
		if w == nil || w != worlds[0] {
			t.Fatalf("constructor %d got a different world", i)
		}
	}
}

// TestSharedWorldCanonicalKey: a sparsely written config, its fully
// written form and a different worker count share one world.
func TestSharedWorldCanonicalKey(t *testing.T) {
	store := artefact.NewStore()
	var worlds []*synth.World
	for _, cfg := range []synth.Config{
		{Seed: 2019, Scale: 0.01},
		{Seed: 2019, Scale: 0.01, ImageSize: 48},
		{Seed: 2019, Scale: 0.01, Workers: 3},
	} {
		worlds = append(worlds, sharedStudy(t, worldOptions(cfg), store).World)
	}
	if worlds[1] != worlds[0] || worlds[2] != worlds[0] {
		t.Fatal("canonically equal configs got distinct worlds")
	}
	if n := store.ComputeCount(worldNode); n != 1 {
		t.Fatalf("generated %d worlds, want 1", n)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", store.Len())
	}
}

// TestSharedWorldBounded: the store keeps worldKeep worlds, a third
// world evicts the least recently used one, and an evicted config
// regenerates on return.
func TestSharedWorldBounded(t *testing.T) {
	if worldKeep != 2 {
		t.Fatalf("test assumes worldKeep = 2, got %d", worldKeep)
	}
	store := artefact.NewStore()
	cfg := func(seed uint64) Options { return worldOptions(synth.Config{Seed: seed, Scale: 0.01}) }
	sharedStudy(t, cfg(1), store)
	sharedStudy(t, cfg(2), store)
	sharedStudy(t, cfg(1), store) // refresh 1: 2 is now least recently used
	sharedStudy(t, cfg(3), store) // evicts 2
	if store.Len() != worldKeep {
		t.Fatalf("store holds %d worlds, want %d", store.Len(), worldKeep)
	}
	gen := store.ComputeCount(worldNode)
	sharedStudy(t, cfg(1), store)
	if store.ComputeCount(worldNode) != gen {
		t.Fatal("world 1 was evicted; the LRU refresh did not protect it")
	}
	sharedStudy(t, cfg(2), store)
	if store.ComputeCount(worldNode) != gen+1 {
		t.Fatal("evicted world did not regenerate")
	}
}
